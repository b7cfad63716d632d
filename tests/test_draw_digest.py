"""Pinned bytes of the sampled matrices, for every build of one numpy version.

The draw is Philox plus numpy's samplers and a few elementwise products, none
of which touch BLAS or LAPACK, so the SHA-256 of the packed stacks
(``diagonal`` then ``upper``, little-endian) is keyed by the numpy version
alone.  This checks the stream order and the sampled values on builds where
``tests/test_golden.py`` has no pinned CSV digests.  On a numpy version with
no digests the test skips and names the version; it never passes silently.

To pin a new numpy version, print the digests with
``PYTHONPATH=src python tests/test_draw_digest.py`` and add them to ``DRAW``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from wignerlab import DistributionSpec, SeedSpec, gaussian_diag, gaussian_off, sample_wigner

PAIRS = {
    "gaussian": (gaussian_off(), gaussian_diag()),
    "mixture": (
        DistributionSpec("gaussian_mixture", (0.5, -1.0, 0.5, 0.5, 1.0, 0.5), "off_diagonal"),
        DistributionSpec("gaussian_mixture", (0.2, -1.0, 0.3, 0.5, 0.0, 1.0, 0.3, 2.0, 0.5), "diagonal"),
    ),
    "smoothed_uniform": (
        DistributionSpec("smoothed_uniform", (0.3,), "off_diagonal"),
        DistributionSpec("smoothed_uniform", (0.4,), "diagonal"),
    ),
}
SIZES = (16, 64)
SEEDS = tuple(SeedSpec(42, k) for k in (0, 1, 7))

DRAW = {
    "numpy 2.4.6": {
        "gaussian n=16": "6def42d3b85830cf091b153e075358c16d120afb3d6cd16e132066b822494620",
        "gaussian n=64": "ab7dfa0b6e89ac585820190f7a27bc716a1d4bd1dca5df8fae21018a25f37101",
        "mixture n=16": "aecdb5c65f7f78c6c8b5220bc0318a18eba22e30164dcd0cc8a8cf92debf2963",
        "mixture n=64": "90b1dc336523d3972dc6f773de959081cec67954436141ea1ca10f52ea7625b9",
        "smoothed_uniform n=16": "81dda512c83757a6b5844fb2f23a06f274f330948c64b886c39bbe33f79f4dab",
        "smoothed_uniform n=64": "77e073e2e301629718352af2283ca7e858842b4ae89a5785afc814e12a6de288",
    },
}


def draw_digest(law: str, n: int) -> str:
    off, diag = PAIRS[law]
    stack = sample_wigner(n, off, diag, SEEDS)
    digest = hashlib.sha256(stack.diagonal.astype("<f8").tobytes())
    digest.update(stack.upper.astype("<c16").tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("law", sorted(PAIRS))
def test_draw_bytes_match_pinned_digest(law, n):
    key = f"numpy {np.__version__}"
    if key not in DRAW:
        pytest.skip(f"no draw digests pinned for {key!r}")
    assert draw_digest(law, n) == DRAW[key][f"{law} n={n}"]


if __name__ == "__main__":
    digests = {f"{law} n={n}": draw_digest(law, n) for law in sorted(PAIRS) for n in SIZES}
    print(json.dumps({f"numpy {np.__version__}": digests}, indent=1))
