"""The attention-based LSTM caching model (Section 4.1, Figure 3).

Architecture: embedding layer -> 1-layer LSTM -> scaled dot-product
attention over past hidden states -> per-position linear classifier on
``[h_t ; context_t]`` -> binary cache-friendly / cache-averse label.

Hyper-parameters default to Table 5 (embedding 128, hidden 128, Adam at
0.001, 75/25 split); experiments shrink the dims for laptop-scale runs
and record the deviation in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dataset import SequenceBatch, SequenceDataset
from .layers import Embedding, Linear, LSTMLayer, ScaledDotAttention
from .ops import binary_cross_entropy_with_logits, clip_gradients, sigmoid
from .optim import Adam


@dataclass
class LSTMConfig:
    """Hyper-parameters (paper defaults from Table 5)."""

    vocab_size: int = 2048
    embedding_dim: int = 128
    hidden_dim: int = 128
    num_layers: int = 1  # the paper uses a 1-layer LSTM (Figure 3)
    attention_scale: float = 1.0
    learning_rate: float = 0.001
    batch_size: int = 32
    history: int = 30  # N: sequence length is 2N
    grad_clip: float = 5.0
    seed: int = 0


@dataclass
class EpochResult:
    """Loss/accuracy telemetry for one training epoch."""

    epoch: int
    train_loss: float
    train_accuracy: float


class AttentionLSTM:
    """The offline caching model with full training support."""

    def __init__(self, config: LSTMConfig) -> None:
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.embedding = Embedding(config.vocab_size, config.embedding_dim, rng)
        if config.num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        self.lstm_layers = [
            LSTMLayer(
                config.embedding_dim if i == 0 else config.hidden_dim,
                config.hidden_dim,
                rng,
            )
            for i in range(config.num_layers)
        ]
        self.lstm = self.lstm_layers[0]  # convenience alias for 1-layer use
        self.attention = ScaledDotAttention(scale=config.attention_scale)
        self.classifier = Linear(2 * config.hidden_dim, 1, rng)
        self._modules = {
            "emb": self.embedding,
            "att": self.attention,
            "out": self.classifier,
        }
        for i, layer in enumerate(self.lstm_layers):
            self._modules[f"lstm{i}"] = layer
        self.optimizer = Adam(self._all_params(), learning_rate=config.learning_rate)

    # -- parameter plumbing ----------------------------------------------------
    def _all_params(self) -> dict[str, np.ndarray]:
        params: dict[str, np.ndarray] = {}
        for prefix, module in self._modules.items():
            for key, value in module.params.items():
                params[f"{prefix}.{key}"] = value
        return params

    def num_parameters(self) -> int:
        return sum(p.size for p in self._all_params().values())

    def model_size_bytes(self, bytes_per_param: int = 4) -> int:
        """Storage footprint (Table 3's "Model Size" row)."""
        return self.num_parameters() * bytes_per_param

    # -- forward/backward ---------------------------------------------------------
    def forward(self, inputs: np.ndarray) -> tuple[np.ndarray, dict]:
        """Compute logits (B, T) for dense PC ids (B, T)."""
        embedded, emb_cache = self.embedding.forward(inputs)
        hidden = embedded
        lstm_caches = []
        for layer in self.lstm_layers:
            hidden, layer_cache = layer.forward(hidden)
            lstm_caches.append(layer_cache)
        contexts, att_cache = self.attention.forward(hidden)
        combined = np.concatenate([hidden, contexts], axis=-1)
        logits, out_cache = self.classifier.forward(combined)
        cache = {
            "emb": emb_cache,
            "lstm": lstm_caches,
            "att": att_cache,
            "out": out_cache,
            "hidden": hidden,
        }
        return logits[..., 0], cache

    def backward(self, grad_logits: np.ndarray, cache: dict) -> dict[str, np.ndarray]:
        grads: dict[str, np.ndarray] = {}
        d_combined, out_grads = self.classifier.backward(
            grad_logits[..., None], cache["out"]
        )
        for key, value in out_grads.items():
            grads[f"out.{key}"] = value
        hidden_dim = self.config.hidden_dim
        d_hidden = d_combined[..., :hidden_dim].copy()
        d_contexts = d_combined[..., hidden_dim:]
        d_hidden_from_att, _ = self.attention.backward(d_contexts, cache["att"])
        d_hidden += d_hidden_from_att
        for i in range(len(self.lstm_layers) - 1, -1, -1):
            d_hidden, lstm_grads = self.lstm_layers[i].backward(
                d_hidden, cache["lstm"][i]
            )
            for key, value in lstm_grads.items():
                grads[f"lstm{i}.{key}"] = value
        d_embedded = d_hidden
        emb_grads = self.embedding.backward(d_embedded, cache["emb"])
        for key, value in emb_grads.items():
            grads[f"emb.{key}"] = value
        return grads

    # -- training/evaluation ---------------------------------------------------------
    def _step(self, batch: SequenceBatch, logits: np.ndarray, cache: dict) -> float:
        """One optimiser step from a forward pass already run on ``batch``."""
        loss, grad = binary_cross_entropy_with_logits(
            logits, batch.targets, batch.mask
        )
        grads = self.backward(grad, cache)
        clip_gradients(grads, self.config.grad_clip)
        self.optimizer.step(grads)
        return loss

    @staticmethod
    def _count_correct(logits: np.ndarray, batch: SequenceBatch) -> tuple[int, int]:
        """(correct, labelled) predictions over the batch's masked positions."""
        labelled = batch.mask > 0
        hits = (logits >= 0.0) == (batch.targets > 0.5)
        return int(np.sum(hits & labelled)), int(np.sum(labelled))

    def train_batch(self, batch: SequenceBatch) -> float:
        return self._step(batch, *self.forward(batch.inputs))

    def train_epoch(
        self, dataset: SequenceDataset, epoch: int = 0, rng: np.random.Generator | None = None
    ) -> EpochResult:
        """One pass; train accuracy is scored on the logits each step uses."""
        rng = rng or np.random.default_rng(self.config.seed + epoch + 1)
        losses: list[float] = []
        correct = 0
        total = 0
        for batch in dataset.batches(self.config.batch_size, rng):
            logits, cache = self.forward(batch.inputs)
            hits, labelled = self._count_correct(logits, batch)
            correct += hits
            total += labelled
            losses.append(self._step(batch, logits, cache))
        return EpochResult(
            epoch=epoch,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            train_accuracy=correct / max(1, total),
        )

    def predict_batch(self, inputs: np.ndarray) -> np.ndarray:
        """Per-position probabilities that the access is cache-friendly."""
        logits, _ = self.forward(inputs)
        return sigmoid(logits)

    def evaluate(self, dataset: SequenceDataset) -> float:
        """Masked prediction accuracy over a dataset."""
        correct = 0
        total = 0
        for batch in dataset.batches(self.config.batch_size):
            logits, _ = self.forward(batch.inputs)
            hits, labelled = self._count_correct(logits, batch)
            correct += hits
            total += labelled
        return correct / max(1, total)

    def attention_weights(self, inputs: np.ndarray) -> np.ndarray:
        """Attention matrices (B, T, T) for analysis (Figures 4 and 5)."""
        hidden, _ = self.embedding.forward(inputs)
        for layer in self.lstm_layers:
            hidden, _ = layer.forward(hidden)
        return self.attention.attention_weights(hidden)

    def set_attention_scale(self, scale: float) -> None:
        """Change the scaling factor f (the Figure 4 sweep knob)."""
        self.attention.scale = scale
