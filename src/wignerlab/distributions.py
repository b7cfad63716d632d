"""Entry distributions for Hermitian random matrix ensembles.

A matrix entry law is described by a :class:`DistributionSpec`: a ``kind``
(one of ``gaussian``, ``gaussian_mixture``, ``smoothed_uniform``), the raw
shape parameters of that kind, and a ``role``.  The role fixes the variance
the law must carry: real and imaginary parts of off-diagonal entries have
variance 1/2, diagonal entries have variance 1.  Whatever parameters are
given, the law is recentred and rescaled internally so that its mean is
exactly 0 and its variance exactly matches the role.

Every kind exposes its density and the first two density derivatives in
closed form, which is what the regularity integrals
``E |h'/h|^p`` (p = 4, 6) and ``E |h''/h|^2`` need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, NumericError

__all__ = [
    "DistributionSpec",
    "OFF_DIAGONAL_VARIANCE",
    "DIAGONAL_VARIANCE",
    "gaussian_off",
    "gaussian_diag",
    "regularity_integrals",
]

OFF_DIAGONAL_VARIANCE = 0.5
DIAGONAL_VARIANCE = 1.0

_ROLE_VARIANCE = {
    "off_diagonal": OFF_DIAGONAL_VARIANCE,
    "diagonal": DIAGONAL_VARIANCE,
}

_KINDS = ("gaussian", "gaussian_mixture", "smoothed_uniform")

_SQRT2PI = math.sqrt(2.0 * math.pi)


def _phi(t: np.ndarray) -> np.ndarray:
    """Standard normal density."""
    return np.exp(-0.5 * t * t) / _SQRT2PI


@dataclass(frozen=True)
class DistributionSpec:
    """One real entry law: kind, raw parameters, and matrix role.

    Parameters by kind:

    * ``gaussian`` -- no parameters.
    * ``gaussian_mixture`` -- flat triples ``(weight, mean, scale)`` per
      component; weights must be positive (they are renormalised to sum
      to 1), scales must be positive.
    * ``smoothed_uniform`` -- a single smoothing width ``w``: the law of a
      uniform variable convolved with a centred Gaussian of standard
      deviation ``w``.  Requires ``w**2`` below the role variance so the
      uniform part has positive width.
    """

    kind: str
    params: tuple[float, ...] = ()
    role: str = "off_diagonal"

    # normalised internal representation, filled in __post_init__
    _mix: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False, default=None
    )
    _half_width: float = field(init=False, repr=False, compare=False, default=0.0)
    _smooth_w: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self) -> None:
        try:
            params = tuple(float(p) for p in self.params)
        except (TypeError, ValueError):
            raise ConfigurationError(f"distribution parameters must be numbers, got {self.params!r}") from None
        object.__setattr__(self, "params", params)
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown distribution kind {self.kind!r}; expected one of {_KINDS}")
        if self.role not in _ROLE_VARIANCE:
            raise ConfigurationError(
                f"unknown role {self.role!r}; expected one of {tuple(_ROLE_VARIANCE)}"
            )
        target = self.target_variance
        if self.kind == "gaussian":
            if self.params:
                raise ConfigurationError("gaussian takes no parameters")
            mix = (np.array([1.0]), np.array([0.0]), np.array([math.sqrt(target)]))
            object.__setattr__(self, "_mix", mix)
        elif self.kind == "gaussian_mixture":
            object.__setattr__(self, "_mix", _normalise_mixture(self.params, target))
        else:  # smoothed_uniform
            if len(self.params) != 1:
                raise ConfigurationError("smoothed_uniform takes exactly one parameter, the smoothing width")
            w = self.params[0]
            if not (0.0 < w * w < target):
                raise ConfigurationError(
                    f"smoothing width must satisfy 0 < w**2 < {target} for role {self.role!r}, got w={w}"
                )
            object.__setattr__(self, "_smooth_w", w)
            object.__setattr__(self, "_half_width", math.sqrt(3.0 * (target - w * w)))

    # -- basic properties ------------------------------------------------

    @property
    def target_variance(self) -> float:
        """Variance the role prescribes (1/2 off-diagonal, 1 diagonal)."""
        return _ROLE_VARIANCE[self.role]

    # -- serialisation ----------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": list(self.params), "role": self.role}

    @classmethod
    def from_json(cls, obj: dict) -> "DistributionSpec":
        if not isinstance(obj, dict):
            raise ConfigurationError(f"distribution spec must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {"kind", "params", "role"}
        if unknown:
            raise ConfigurationError(f"unknown distribution spec fields: {sorted(unknown)}")
        try:
            kind = obj["kind"]
        except KeyError:
            raise ConfigurationError("distribution spec needs a 'kind' field") from None
        return cls(kind=kind, params=tuple(obj.get("params", ())), role=obj.get("role", "off_diagonal"))

    # -- density and derivatives ------------------------------------------

    def density(self, x) -> np.ndarray:
        """Probability density, positive on all of R."""
        x = np.asarray(x, dtype=float)
        if self.kind == "smoothed_uniform":
            from scipy.special import ndtr

            a, w = self._half_width, self._smooth_w
            # upper-tail form: ndtr saturates at 1 for arguments beyond ~8,
            # so the direct difference cancels to 0 in the far tails; the
            # density is even, so evaluate at |x| where both terms are tails
            t = np.abs(x)
            return (ndtr((a - t) / w) - ndtr(-(t + a) / w)) / (2.0 * a)
        wts, mus, sds = self._mix
        t = (x[..., None] - mus) / sds
        return np.sum(wts / sds * _phi(t), axis=-1)

    def density_d1(self, x) -> np.ndarray:
        """First derivative of the density."""
        x = np.asarray(x, dtype=float)
        if self.kind == "smoothed_uniform":
            a, w = self._half_width, self._smooth_w
            return (_phi((x + a) / w) - _phi((x - a) / w)) / (2.0 * a * w)
        wts, mus, sds = self._mix
        t = (x[..., None] - mus) / sds
        return np.sum(wts / sds**2 * (-t) * _phi(t), axis=-1)

    def density_d2(self, x) -> np.ndarray:
        """Second derivative of the density."""
        x = np.asarray(x, dtype=float)
        if self.kind == "smoothed_uniform":
            a, w = self._half_width, self._smooth_w
            tp, tm = (x + a) / w, (x - a) / w
            return (-tp * _phi(tp) + tm * _phi(tm)) / (2.0 * a * w * w)
        wts, mus, sds = self._mix
        t = (x[..., None] - mus) / sds
        return np.sum(wts / sds**3 * (t * t - 1.0) * _phi(t), axis=-1)

    # -- sampling ----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Draw ``size`` values; the draw order is fixed per kind."""
        if self.kind == "smoothed_uniform":
            a, w = self._half_width, self._smooth_w
            return rng.uniform(-a, a, size) + w * rng.standard_normal(size)
        wts, mus, sds = self._mix
        if len(wts) == 1:
            # degenerate mixture and plain gaussian share this exact path,
            # so they consume the stream identically
            return sds[0] * rng.standard_normal(size)
        idx = rng.choice(len(wts), size=size, p=wts)
        return mus[idx] + sds[idx] * rng.standard_normal(size)

    # -- integration support ------------------------------------------------

    def _support_bound(self) -> float:
        """Half-width of an interval carrying all mass relevant at 1e-9."""
        if self.kind == "smoothed_uniform":
            return self._half_width + 14.0 * self._smooth_w
        wts, mus, sds = self._mix
        return float(np.max(np.abs(mus) + 14.0 * sds))


def _normalise_mixture(
    params: Sequence[float], target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(params) == 0 or len(params) % 3 != 0:
        raise ConfigurationError(
            "gaussian_mixture parameters must be flat (weight, mean, scale) triples"
        )
    raw = np.asarray(params, dtype=float).reshape(-1, 3)
    wts, mus, sds = raw[:, 0], raw[:, 1], raw[:, 2]
    if np.any(wts <= 0.0):
        raise ConfigurationError("mixture weights must be positive")
    if np.any(sds <= 0.0):
        raise ConfigurationError("mixture component scales must be positive")
    wts = wts / wts.sum()
    if len(wts) == 1:
        # mathematically the rescaled one-component mixture is exactly the
        # role gaussian; write it down exactly so the sampled stream matches
        return (np.array([1.0]), np.array([0.0]), np.array([math.sqrt(target)]))
    mean = float(np.dot(wts, mus))
    var = float(np.dot(wts, sds * sds + mus * mus) - mean * mean)
    r = math.sqrt(target / var)
    return (wts, (mus - mean) * r, sds * r)


def gaussian_off() -> DistributionSpec:
    """Gaussian law for real/imaginary parts of off-diagonal entries."""
    return DistributionSpec("gaussian", (), "off_diagonal")


def gaussian_diag() -> DistributionSpec:
    """Gaussian law for diagonal entries."""
    return DistributionSpec("gaussian", (), "diagonal")


def regularity_integrals(dist: DistributionSpec, rel_tol: float = 1e-6) -> dict:
    """Adaptive quadrature of the density regularity functionals.

    Returns ``{"I6": E|h'/h|**6, "I4": E|h'/h|**4, "I2pp": E|h''/h|**2}``
    where ``h`` is the density of ``dist`` and expectations are under
    ``h``.  All three are finite for the built-in kinds; the quadrature is
    driven to a relative accuracy of ``rel_tol`` and raises
    :class:`NumericError` if that cannot be met.
    """
    from scipy.integrate import quad

    L = dist._support_bound()

    def score_pow(x, p):
        h = float(dist.density(x))
        if h <= 0.0:
            # double-precision underflow far in the tails; the integrand
            # itself tends to zero there
            return 0.0
        return abs(float(dist.density_d1(x)) / h) ** p * h

    def curvature_sq(x):
        h = float(dist.density(x))
        if h <= 0.0:
            return 0.0
        return (float(dist.density_d2(x)) / h) ** 2 * h

    out = {}
    for key, fn in (
        ("I6", lambda x: score_pow(x, 6)),
        ("I4", lambda x: score_pow(x, 4)),
        ("I2pp", curvature_sq),
    ):
        val, err = quad(fn, -L, L, epsabs=0.0, epsrel=min(rel_tol, 1e-9), limit=300)
        if not np.isfinite(val) or val <= 0.0 or err > rel_tol * abs(val):
            raise NumericError(
                f"quadrature for {key} did not reach relative tolerance {rel_tol} "
                f"(value {val!r}, error estimate {err!r})"
            )
        out[key] = val
    return out
