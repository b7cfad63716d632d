"""Counter-based random streams for reproducible Monte Carlo runs.

Every sample of an experiment owns an independent stream addressed by the
pair ``(master_seed, stream_index)``.  The stream is derived statelessly
through :class:`numpy.random.SeedSequence`, so sample ``i`` produces the
same draws no matter in which order the samples are scheduled, or whether
earlier samples were computed at all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

__all__ = ["SeedSpec"]


@dataclass(frozen=True)
class SeedSpec:
    """Address of one random stream: a master seed plus a stream index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.master_seed, (int, np.integer)):
            raise ConfigurationError(f"master_seed must be an integer, got {self.master_seed!r}")
        if not isinstance(self.stream_index, (int, np.integer)):
            raise ConfigurationError(f"stream_index must be an integer, got {self.stream_index!r}")
        if self.master_seed < 0:
            raise ConfigurationError(f"master_seed must be non-negative, got {self.master_seed}")
        if self.stream_index < 0:
            raise ConfigurationError(f"stream_index must be non-negative, got {self.stream_index}")

    def child(self, stream_index: int) -> "SeedSpec":
        """Stream with the same master seed and a different index."""
        return SeedSpec(self.master_seed, stream_index)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream.

        Philox is a counter-based generator; keying it with the sequence
        mixed from ``(master_seed, stream_index)`` gives independent streams
        without any shared mutable state.
        """
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(seq))
