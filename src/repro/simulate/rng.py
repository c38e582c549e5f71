"""Deterministic, named random streams.

Every stochastic component draws from its *own* stream derived from a root
seed and a stable name ("disk.node3", "health.sensor.temp"), so adding a new
random component never perturbs the draws of existing ones — the standard
variance-reduction discipline for simulation experiments (common random
numbers across configurations).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RandomStreams"]


class RandomStreams:
    """Factory of independent :class:`numpy.random.Generator` streams."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            digest = hashlib.sha256(f"{self.root_seed}:{name}".encode()).digest()
            seed = int.from_bytes(digest[:8], "little")
            gen = np.random.default_rng(seed)
            self._streams[name] = gen
        return gen

    def __contains__(self, name: str) -> bool:
        return name in self._streams
