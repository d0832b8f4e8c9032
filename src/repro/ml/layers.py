"""Neural-network layers: embedding, LSTM, scaled attention, linear.

Each layer owns its parameters (a dict of named arrays), a ``forward``
that returns outputs plus a cache, and a ``backward`` that consumes the
cache and the output gradient, returning the input gradient and filling
a gradient dict keyed like the parameters.  Shapes follow the batch-time
convention: sequences are ``(B, T, ...)``.

Together these implement the paper's offline model (Figure 3): an
embedding layer, a 1-layer LSTM, and a scaled dot-product attention
layer over the past hidden states (Equation 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ops import sigmoid, softmax, softmax_backward


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


class Embedding:
    """Learnable embedding table for the (categorical, one-hot) PCs.

    Section 4.1: "to create learnable representations for categorical
    features like the PC, we use an embedding layer before the LSTM".
    """

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator) -> None:
        self.vocab_size = vocab_size
        self.dim = dim
        self.params = {"W_emb": rng.normal(0.0, 0.1, size=(vocab_size, dim))}

    def forward(self, indices: np.ndarray) -> tuple[np.ndarray, dict]:
        if indices.size and (indices.min() < 0 or indices.max() >= self.vocab_size):
            raise ValueError("embedding index out of range")
        out = self.params["W_emb"][indices]
        return out, {"indices": indices}

    def backward(self, grad_out: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        grad = np.zeros_like(self.params["W_emb"])
        np.add.at(grad, cache["indices"], grad_out)
        return {"W_emb": grad}


class LSTMLayer:
    """Single-layer LSTM with full BPTT.

    Gate layout in the fused weight matrices is ``[i, f, g, o]``; the
    forget-gate bias is initialised to +1.0, the standard trick for
    learning long dependences.
    """

    def __init__(self, input_dim: int, hidden_dim: int, rng: np.random.Generator) -> None:
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        H = hidden_dim
        self.params = {
            "W_x": _glorot(rng, input_dim, 4 * H),
            "W_h": _glorot(rng, H, 4 * H),
            "b": np.zeros(4 * H),
        }
        self.params["b"][H : 2 * H] = 1.0  # forget-gate bias

    def forward(
        self,
        x: np.ndarray,
        h0: np.ndarray | None = None,
        c0: np.ndarray | None = None,
    ) -> tuple[np.ndarray, dict]:
        """Run the LSTM over ``x`` of shape (B, T, D); returns H (B, T, Hd)."""
        B, T, _ = x.shape
        H = self.hidden_dim
        h = np.zeros((B, H)) if h0 is None else h0
        c = np.zeros((B, H)) if c0 is None else c0
        hs = np.zeros((B, T, H))
        cache: dict = {"x": x, "gates": [], "cs": [], "hs_prev": [], "cs_prev": []}
        W_x, W_h, b = self.params["W_x"], self.params["W_h"], self.params["b"]
        if B > 1:
            # One GEMM for every step's input projection.  BLAS gives each
            # row the same sum as the per-step (B, D) GEMM did ...
            x_proj = (x.reshape(B * T, -1) @ W_x).reshape(B, T, 4 * H)
        else:
            # ... but a single row goes through GEMV, whose sums differ.
            x_proj = np.stack([x[:, t, :] @ W_x for t in range(T)], axis=1)
        for t in range(T):
            z = x_proj[:, t, :] + h @ W_h + b
            # Both activations are elementwise: one sigmoid call over all
            # four gates gives i, f and o exactly, and g's columns are then
            # overwritten with their tanh.
            gates = sigmoid(z)
            np.tanh(z[:, 2 * H : 3 * H], out=gates[:, 2 * H : 3 * H])
            i, f, g, o = (gates[:, k * H : (k + 1) * H] for k in range(4))
            cache["hs_prev"].append(h)
            cache["cs_prev"].append(c)
            c = f * c + i * g
            h = o * np.tanh(c)
            cache["gates"].append((i, f, g, o))
            cache["cs"].append(c)
            hs[:, t, :] = h
        cache["hs"] = hs
        return hs, cache

    def backward(
        self, grad_hs: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """BPTT; ``grad_hs`` is dLoss/dH with shape (B, T, Hd)."""
        x = cache["x"]
        B, T, _ = x.shape
        H = self.hidden_dim
        W_x, W_h = self.params["W_x"], self.params["W_h"]
        dW_x = np.zeros_like(W_x)
        dW_h = np.zeros_like(W_h)
        db = np.zeros_like(self.params["b"])
        dx = np.zeros_like(x)
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            i, f, g, o = cache["gates"][t]
            c = cache["cs"][t]
            c_prev = cache["cs_prev"][t]
            h_prev = cache["hs_prev"][t]
            dh = grad_hs[:, t, :] + dh_next
            tanh_c = np.tanh(c)
            do = dh * tanh_c
            dc = dh * o * (1.0 - tanh_c**2) + dc_next
            di = dc * g
            df = dc * c_prev
            dg = dc * i
            dc_next = dc * f
            dz = np.concatenate(
                [
                    di * i * (1.0 - i),
                    df * f * (1.0 - f),
                    dg * (1.0 - g**2),
                    do * o * (1.0 - o),
                ],
                axis=1,
            )
            dW_x += x[:, t, :].T @ dz
            dW_h += h_prev.T @ dz
            db += dz.sum(axis=0)
            dx[:, t, :] = dz @ W_x.T
            dh_next = dz @ W_h.T
        return dx, {"W_x": dW_x, "W_h": dW_h, "b": db}


#: Row blocks that split the causal triangle in ScaledDotAttention.  A
#: timed constant: at Figure 9's shape (B=32, T=60, H=32) one block runs
#: ~1.5x slower than 4 to 10 blocks, which time alike, and 12 or 15 gain
#: nothing more.
CAUSAL_BLOCKS = 6


def _causal_blocks(T: int) -> list[tuple[int, int]]:
    """The non-empty row blocks ``[a, b)`` that tile ``range(T)``."""
    bounds = [T * k // CAUSAL_BLOCKS for k in range(CAUSAL_BLOCKS + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


class ScaledDotAttention:
    """Causal scaled dot-product attention over past hidden states.

    Implements Equation 3: for target step t, scores against every
    source step s < t are ``f * (h_t . h_s)``, softmax-normalised into
    the attention weights ``a_t``, which weight the sources into the
    context vector ``c_t`` (Equation 2).  The scaling factor ``f`` is
    the interpretability knob studied in Figure 4: larger ``f`` forces
    sparser attention distributions.

    Only the causal lower triangle is computed: every ``einsum`` runs
    over row blocks ``[a, b)`` (:data:`CAUSAL_BLOCKS` of them) and only
    the columns the block can reach — sources ``[:b]`` for a target
    block, targets ``[a:]`` for a source block.  For finite hidden
    states this is bit-identical to the full T x T computation: each
    kept element goes through the same ``einsum`` kernel over the same
    contiguous vector, and each skipped term is a product with an
    exact-zero attention weight, which leaves an accumulator that
    started at +0 unchanged.  A non-finite hidden state breaks the
    argument (``0 * inf`` is NaN); it can then leave earlier positions
    finite where the full product would not, but the masked loss is NaN
    either way.

    The layer is parameter-free (dot-product scoring).
    """

    def __init__(self, scale: float = 1.0) -> None:
        self.scale = scale
        self.params: dict[str, np.ndarray] = {}

    def forward(self, hs: np.ndarray) -> tuple[np.ndarray, dict]:
        """``hs``: (B, T, H) hidden states; returns contexts (B, T, H)."""
        B, T, H = hs.shape
        blocks = _causal_blocks(T)
        # Causal mask: target t may only attend to sources s < t.
        mask = np.tril(np.ones((T, T), dtype=bool), k=-1)
        scores = np.full((B, T, T), -np.inf)
        for a, b in blocks:
            block = self.scale * np.einsum("bth,bsh->bts", hs[:, a:b], hs[:, :b])
            scores[:, a:b, :b] = np.where(mask[a:b, :b], block, -np.inf)
        weights = softmax(scores, axis=-1)  # row 0 comes out all-zero
        contexts = np.empty((B, T, H))
        for a, b in blocks:
            contexts[:, a:b] = np.einsum(
                "bts,bsh->bth", weights[:, a:b, :b], hs[:, :b]
            )
        return contexts, {"hs": hs, "weights": weights, "mask": mask}

    def backward(
        self, grad_contexts: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        hs = cache["hs"]
        weights = cache["weights"]
        mask = cache["mask"]
        B, T, H = hs.shape
        blocks = _causal_blocks(T)
        # contexts = A @ hs  (per batch)
        d_weights = np.zeros((B, T, T))
        for a, b in blocks:
            block = np.einsum("bth,bsh->bts", grad_contexts[:, a:b], hs[:, :b])
            d_weights[:, a:b, :b] = np.where(mask[a:b, :b], block, 0.0)
        d_scores = softmax_backward(weights, d_weights)
        # scores = scale * hs hs^T (masked): masked entries have weight 0
        # and d_scores 0 by construction of softmax_backward.  Source
        # block [a, b) is attended only by targets t > s >= a.
        weights_t = np.ascontiguousarray(weights.transpose(0, 2, 1))
        d_scores_t = np.ascontiguousarray(d_scores.transpose(0, 2, 1))
        d_hs = np.empty((B, T, H))
        for a, b in blocks:
            d = np.einsum("bst,bth->bsh", weights_t[:, a:b, a:], grad_contexts[:, a:])
            d += self.scale * np.einsum("bts,bsh->bth", d_scores[:, a:b, :b], hs[:, :b])
            d += self.scale * np.einsum("bst,bth->bsh", d_scores_t[:, a:b, a:], hs[:, a:])
            d_hs[:, a:b] = d
        return d_hs, {}

    def attention_weights(self, hs: np.ndarray) -> np.ndarray:
        """Just the attention weight matrices (B, T, T) — for analysis."""
        _, cache = self.forward(hs)
        return cache["weights"]


class Linear:
    """Fully connected layer y = x @ W + b applied position-wise."""

    def __init__(self, input_dim: int, output_dim: int, rng: np.random.Generator) -> None:
        self.params = {
            "W": _glorot(rng, input_dim, output_dim),
            "b": np.zeros(output_dim),
        }

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, dict]:
        return x @ self.params["W"] + self.params["b"], {"x": x}

    def backward(
        self, grad_out: np.ndarray, cache: dict
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        x = cache["x"]
        flat_x = x.reshape(-1, x.shape[-1])
        flat_g = grad_out.reshape(-1, grad_out.shape[-1])
        grads = {
            "W": flat_x.T @ flat_g,
            "b": flat_g.sum(axis=0),
        }
        return grad_out @ self.params["W"].T, grads
