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

from .errors import ConfigurationError, _integer

__all__ = ["SeedSpec"]


@dataclass(frozen=True)
class SeedSpec:
    """Address of one random stream: a master seed plus a stream index."""

    master_seed: int
    stream_index: int = 0

    def __post_init__(self) -> None:
        seed, index = _integer(self.master_seed, "master_seed"), _integer(self.stream_index, "stream_index")
        if seed < 0 or index < 0:
            raise ConfigurationError(f"master_seed and stream_index must be non-negative, got {seed}, {index}")
        object.__setattr__(self, "master_seed", seed)
        object.__setattr__(self, "stream_index", index)

    def generator(self) -> np.random.Generator:
        """Fresh generator for this stream.

        Philox is a counter-based generator; keying it with the sequence
        mixed from ``(master_seed, stream_index)`` gives independent streams
        without any shared mutable state.
        """
        seq = np.random.SeedSequence(entropy=self.master_seed, spawn_key=(self.stream_index,))
        return np.random.Generator(np.random.Philox(seq))
