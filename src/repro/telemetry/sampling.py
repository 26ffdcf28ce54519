"""Span sampling: decide per trace root whether spans materialize at all.

The tracer consults a sampling policy once per *root* span; a sampled-out
root returns the inert null span carrying the :data:`DROPPED_CONTEXT`
sentinel, and every descendant started under that context is dropped too
— the whole subtree costs zero allocations. Default is
:data:`ALWAYS_SAMPLER` (rate 1), which preserves the historical
behaviour (and byte-identical experiment outputs) exactly;
:data:`NEVER_SAMPLER` (rate 0) runs "telemetry wired but off":
subscribers and metrics still see events, span trees are empty.

Sampling decisions are deterministic: :class:`RatioSampler` hashes a
seed, the root span's name, and a per-sampler decision counter, so two
runs of the same world sample the same trace roots — reproducibility
holds even for the observability layer itself.
"""

from __future__ import annotations

import hashlib

# denominator for mapping an 8-byte digest prefix onto [0, 1)
_SCALE = float(1 << 64)


class RatioSampler:
    """Keep a deterministic ``rate`` fraction of trace roots.

    The decision for the Nth root named ``name`` is a pure function of
    ``(seed, name, N)``: identical runs keep identical roots.
    """

    def __init__(self, rate: float, seed: int = 0) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sampling rate must be in [0, 1], got {rate}")
        self.rate = float(rate)
        self.seed = int(seed)
        self._decisions = 0

    def sample(self, name: str) -> bool:
        if self.rate >= 1.0:
            return True
        if self.rate <= 0.0:
            return False
        self._decisions += 1
        material = f"{self.seed}\x1f{name}\x1f{self._decisions}"
        digest = hashlib.sha256(material.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big") / _SCALE < self.rate


ALWAYS_SAMPLER = RatioSampler(1.0)
NEVER_SAMPLER = RatioSampler(0.0)
