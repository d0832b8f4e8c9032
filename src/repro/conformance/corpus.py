"""The minimized regression corpus (``tests/corpus/``).

Every stream that ever exposed a divergence — plus one seeded sentinel
per generator family — lives here as a checked-in artifact, written
through the crash-safe :class:`~repro.robust.store.ArtifactStore`
(atomic npz payload + checksummed JSON sidecar, so a corrupted file
reads as missing, never as a silently different regression test).

Entry layout: the four LLC-stream columns as arrays, and a metadata
dict carrying the regenerating :class:`CaseSpec`, the LLC geometry,
which policies to replay, and the divergence kind that minted it
(``"regression"`` for the seeded sentinels).  The tier-1 suite replays
every entry through both engines and the OPTgen/Belady cross-check on
every run; the fuzzer appends newly shrunk repros with
:func:`save_entry`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..cache.config import CacheConfig
from ..cache.fastsim import FAST_PATH_POLICIES, EngineParityError, verify_parity
from ..cache.hierarchy import LLCStream
from ..robust.store import ArtifactStore
from .differential import MIN_POLICY, check_min, cross_validate_optgen
from .generators import CaseSpec
from .invariants import InvariantViolation, checked_replay

__all__ = [
    "CorpusEntry",
    "default_corpus_dir",
    "list_entries",
    "load_entry",
    "replay_entry",
    "save_entry",
    "seed_corpus",
    "seed_policy_sentinels",
]

_STAGE = "corpus"


def default_corpus_dir() -> Path:
    """``tests/corpus`` of the source checkout (the checked-in corpus)."""
    repo = Path(__file__).resolve().parents[3]
    candidate = repo / "tests" / "corpus"
    if candidate.parent.exists():
        return candidate
    return Path.cwd() / "tests" / "corpus"


@dataclass
class CorpusEntry:
    """One minimized (or sentinel) trace plus its replay instructions."""

    name: str
    stream: LLCStream
    config: CacheConfig
    policies: tuple[str, ...]
    kind: str
    metadata: dict

    @property
    def length(self) -> int:
        return len(self.stream)


def _digest(metadata: dict) -> str:
    payload = json.dumps(
        {k: metadata.get(k) for k in ("spec", "kind", "policies")}, sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def save_entry(
    corpus_dir: str | Path,
    name: str,
    stream: LLCStream,
    config: CacheConfig,
    policies: tuple[str, ...],
    kind: str,
    extra: dict | None = None,
) -> Path:
    """Persist one corpus entry; returns the payload path."""
    store = ArtifactStore(corpus_dir)
    metadata = {
        "name": name,
        "kind": kind,
        "policies": list(policies),
        "line_size": stream.line_size,
        "num_sets": config.num_sets,
        "associativity": config.associativity,
        "spec": stream.metadata.get("spec"),
        **(extra or {}),
    }
    return store.put(
        benchmark=name,
        stage=_STAGE,
        digest=_digest(metadata),
        arrays={
            "pcs": stream.pcs,
            "addresses": stream.addresses,
            "kinds": stream.kinds,
            "cores": stream.cores,
        },
        metadata=metadata,
    )


def list_entries(corpus_dir: str | Path | None = None) -> list[tuple[str, str]]:
    """(benchmark, digest) keys of every corpus entry, sorted by name."""
    root = Path(corpus_dir or default_corpus_dir())
    keys = []
    for sidecar in sorted(root.glob(f"*__{_STAGE}__*.json")):
        try:
            meta = json.loads(sidecar.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if meta.get("stage") == _STAGE:
            keys.append((meta["benchmark"], meta["digest"]))
    return keys


def load_entry(
    corpus_dir: str | Path, benchmark: str, digest: str
) -> CorpusEntry | None:
    """Load one entry (None on miss/corruption, per store semantics)."""
    store = ArtifactStore(corpus_dir)
    loaded = store.get(benchmark, _STAGE, digest)
    if loaded is None:
        return None
    arrays, metadata = loaded
    n = len(arrays["addresses"])
    stream = LLCStream(
        name=metadata.get("name", benchmark),
        pcs=arrays["pcs"].astype(np.uint64),
        addresses=arrays["addresses"].astype(np.uint64),
        kinds=arrays["kinds"].astype(np.int8),
        cores=arrays["cores"].astype(np.int16),
        line_size=int(metadata["line_size"]),
        source_accesses=n,
        source_instructions=4 * n,
        l1_hits=0,
        l2_hits=0,
        metadata={"spec": metadata.get("spec")},
    )
    num_sets = int(metadata["num_sets"])
    associativity = int(metadata["associativity"])
    config = CacheConfig(
        "LLC",
        size_bytes=num_sets * associativity * stream.line_size,
        associativity=associativity,
        latency=26,
    )
    return CorpusEntry(
        name=metadata.get("name", benchmark),
        stream=stream,
        config=config,
        policies=tuple(metadata.get("policies", FAST_PATH_POLICIES)),
        kind=metadata.get("kind", "regression"),
        metadata=metadata,
    )


def replay_entry(entry: CorpusEntry, invariant_every: int = 64) -> list[str]:
    """Re-run every check an entry encodes; returns failure messages."""
    problems: list[str] = []
    fast_path = set(FAST_PATH_POLICIES)
    for policy in entry.policies:
        if policy == MIN_POLICY:
            problems.extend(
                f"{entry.name}/{policy}: {kind}: {message}"
                for kind, message, _ in check_min(entry.stream, entry.config)
            )
        elif policy in fast_path:
            try:
                verify_parity(entry.stream, policy, entry.config)
            except EngineParityError as error:
                problems.append(f"{entry.name}/{policy}: parity: {error}")
        else:
            try:
                checked_replay(
                    entry.stream, policy, entry.config, every=invariant_every
                )
            except InvariantViolation as violation:
                problems.append(f"{entry.name}/{policy}: invariant: {violation}")
    lines = entry.stream.to_trace().lines()
    if len(lines):
        for problem in cross_validate_optgen(
            lines, entry.config.num_sets, entry.config.associativity
        ):
            problems.append(f"{entry.name}: {problem}")
    return problems


#: One extra policy per family sentinel, appended to the fast-path
#: list the sentinel was seeded with.  sdbp is reference-only, so the
#: pointer-chase and set-camp sentinels replay it invariant-checked;
#: perceptron and mpppb have kernels now, so the scan/zipf/thrash/mix
#: sentinels parity-check them through ``verify_parity`` instead.
_SENTINEL_REFERENCE_POLICY = {
    "pointer-chase": "sdbp",
    "scan": "perceptron",
    "zipf": "mpppb",
    "set-camp": "sdbp",
    "thrash": "perceptron",
    "mix": "mpppb",
}


def seed_corpus(corpus_dir: str | Path | None = None, length: int = 400) -> list[Path]:
    """Write the seeded sentinel entries (one per generator family).

    Idempotent: same specs produce the same payload bytes and keys, so
    reseeding an existing corpus rewrites identical entries.
    """
    from .generators import GENERATOR_FAMILIES, generate_stream, spec_config

    corpus_dir = Path(corpus_dir or default_corpus_dir())
    paths = []
    for i, family in enumerate(GENERATOR_FAMILIES):
        spec = CaseSpec(family=family, seed=100 + i, length=length)
        stream = generate_stream(spec)
        policies = tuple(FAST_PATH_POLICIES) + (
            _SENTINEL_REFERENCE_POLICY[family],
        )
        paths.append(
            save_entry(
                corpus_dir,
                name=f"sentinel-{family}",
                stream=stream,
                config=spec_config(spec),
                policies=policies,
                kind="regression",
                extra={"note": "seeded sentinel; pins engine/oracle agreement"},
            )
        )
    paths.extend(seed_policy_sentinels(corpus_dir, length=length))
    return paths


#: Generator family most likely to exercise each learned policy's
#: decision machinery (duelling sets for DRRIP, signature reuse skew
#: for SHiP, scan-resistance for SHiP++/Hawkeye/Glider, dead-on-admission
#: bypass and placement for MPPPB and Perceptron), and the policy's
#: seed-scan index: its seeds start at ``200 + index``.  The index is
#: fixed per policy, never derived from its position, so adding or
#: removing a name leaves every other checked-in sentinel byte-stable;
#: a new name takes an unused index.
_POLICY_SENTINEL_FAMILY = {
    "drrip": ("set-camp", 0),
    "ship": ("zipf", 1),
    "ship++": ("mix", 2),
    "hawkeye": ("pointer-chase", 3),
    "glider": ("scan", 4),
    "mpppb": ("thrash", 8),
    "perceptron": ("thrash", 9),
}


def seed_policy_sentinels(
    corpus_dir: str | Path | None = None, length: int = 400
) -> list[Path]:
    """One ddmin-shrunk sentinel per learned policy.

    Each entry is the (near-)minimal substream on which the policy's
    replay still *distinguishes itself* from plain LRU — so the
    sentinel pins policy-specific decision paths (set duelling, SHCT
    training, OPTgen verdicts, ISVM and perceptron sums), not just
    generic cache bookkeeping.  The tier-1 corpus test replays every one
    of them through ``verify_parity``, access-by-access, on both engines
    (a reference-only policy would take the invariant-checked reference
    replay instead).

    Deterministic and idempotent like :func:`seed_corpus`: fixed specs,
    a pure predicate, and ddmin's deterministic schedule always produce
    the same minimized bytes and store keys.
    """
    from ..cache.fastsim import replay
    from .generators import generate_stream, spec_config
    from .shrink import shrink_stream

    corpus_dir = Path(corpus_dir or default_corpus_dir())
    paths = []
    for policy, (family, i) in _POLICY_SENTINEL_FAMILY.items():

        def distinguishes(sub, policy=policy):
            if len(sub) == 0:
                return False
            ours = replay(sub, policy, config, engine="auto")
            lru = replay(sub, "lru", config, engine="auto")
            return (ours.demand_hits, ours.evictions) != (
                lru.demand_hits,
                lru.evictions,
            )

        # Deterministic seed scan: short streams of some families never
        # split the policy from LRU, so walk fixed seeds until one does
        # (falling back to the first unshrunk stream if none do).
        stream = fallback = result = None
        for seed in range(200 + i, 200 + i + 16):
            spec = CaseSpec(family=family, seed=seed, length=length)
            candidate = generate_stream(spec)
            config = spec_config(spec)
            if fallback is None:
                fallback = (candidate, config)
            if distinguishes(candidate, policy):
                result = shrink_stream(candidate, distinguishes)
                break
        if result is not None:
            stream = result.stream
            extra: dict = {
                "note": "ddmin-shrunk: smallest substream where the "
                "policy's decisions diverge from LRU",
                "shrunk_from": result.original_length,
                "predicate_calls": result.predicate_calls,
            }
        else:
            stream, config = fallback
            extra = {"note": "unshrunk: no seed distinguished the policy "
                     "from LRU at this length; pins parity only"}
        paths.append(
            save_entry(
                corpus_dir,
                name=f"sentinel-{policy}",
                stream=stream,
                config=config,
                policies=(policy,),
                kind="policy-sentinel",
                extra=extra,
            )
        )
    return paths
