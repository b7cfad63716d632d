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
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigurationError, NumericError, _choice, _real

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

# composite Gauss-Legendre: 16 nodes on each of equally wide panels, whose
# count doubles from 8 until two passes agree to a relative _QUAD_RTOL
_QUAD_RTOL = 1e-10
_QUAD_MAX_PANELS = 2**14


def _phi(t: np.ndarray) -> np.ndarray:
    """Standard normal density."""
    return np.exp(-0.5 * t * t) / _SQRT2PI


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """The scalar function ``fn`` (one of :mod:`math`) at each element of ``x``."""
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _integrate(f, lo: float, hi: float, breaks: Sequence[float] = ()) -> np.ndarray:
    """Integral over ``[lo, hi]`` of ``f``, which maps a 1-d array of nodes to
    values along its last axis (so one call can carry several integrands).

    The points of ``breaks`` inside ``(lo, hi)`` cut it into pieces that each
    get the same number of panels, so a feature as narrow as its piece is
    resolved with the rest.  Raises :class:`NumericError` at the first pass
    whose value is not finite, which no further pass can mend, or if the
    passes still disagree at ``_QUAD_MAX_PANELS`` panels.
    """
    # numpy loads np.polynomial on first access, so sampling runs never do
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = [lo, *sorted({b for b in breaks if lo < b < hi}), hi]
    panels, last = 8, None
    while panels <= _QUAD_MAX_PANELS:
        value = 0.0
        for a, b in zip(edges, edges[1:]):
            half = (b - a) / (2 * panels)
            mids = a + half * (2 * np.arange(panels) + 1.0)
            value = value + half * (f((mids[:, None] + half * nodes).ravel()) @ np.tile(weights, panels))
        if not np.all(np.isfinite(value)):
            raise NumericError(
                f"quadrature on [{lo}, {hi}] is not finite at {panels} panels: {value.tolist()}"
            )
        if last is not None and np.all(np.abs(value - last) <= _QUAD_RTOL * np.abs(value)):
            return value
        panels, last = 2 * panels, value
    raise NumericError(
        f"quadrature on [{lo}, {hi}] did not reach relative tolerance {_QUAD_RTOL} "
        f"with {_QUAD_MAX_PANELS} panels (last passes {last.tolist()})"
    )


@dataclass(frozen=True)
class DistributionSpec:
    """One real entry law: kind, raw parameters, and matrix role.

    Parameters by kind:

    * ``gaussian`` -- no parameters.
    * ``gaussian_mixture`` -- flat triples ``(weight, mean, scale)`` per
      component; weights must be positive (they are renormalised to sum
      to 1), scales must be positive, every parameter finite, and the
      mixture's variance finite and positive in double precision.
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
            params = tuple(_real(p, "a distribution parameter") for p in self.params)
        except (TypeError, ConfigurationError):
            raise ConfigurationError(f"distribution parameters must be numbers, got {self.params!r}") from None
        object.__setattr__(self, "params", params)
        _choice(self.kind, _KINDS, "distribution kind")
        _choice(self.role, _ROLE_VARIANCE, "role")
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

    @property
    def normal_scale(self) -> Optional[float]:
        """``sd`` when a draw is ``sd * rng.standard_normal(size)``, else ``None``.

        That is the gaussian and the one-component mixture, which
        normalises to exactly the role gaussian, so the two consume a
        stream identically.
        """
        if self.kind == "smoothed_uniform" or len(self._mix[0]) != 1:
            return None
        return self._mix[2][0]

    # -- serialisation ----------------------------------------------------

    def to_json(self) -> dict:
        return {"kind": self.kind, "params": list(self.params), "role": self.role}

    @classmethod
    def from_json(cls, obj: dict, role: str = "off_diagonal") -> "DistributionSpec":
        """The law of a JSON object; it takes ``role`` unless it names its own."""
        if not isinstance(obj, dict):
            raise ConfigurationError(f"distribution spec must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {"kind", "params", "role"}
        if unknown:
            raise ConfigurationError(f"unknown distribution spec fields: {sorted(unknown)}")
        try:
            kind = obj["kind"]
        except KeyError:
            raise ConfigurationError("distribution spec needs a 'kind' field") from None
        return cls(kind=kind, params=obj.get("params", ()), role=obj.get("role", role))

    @classmethod
    def pair_from_json(cls, obj: dict) -> tuple["DistributionSpec", "DistributionSpec"]:
        """The ``(off, diag)`` laws of a ``{"off": law, "diag": law}`` object;
        each law takes its key's role unless it names its own."""
        if not isinstance(obj, dict) or set(obj) != {"off", "diag"}:
            raise ConfigurationError("dist must be an object with exactly the keys 'off' and 'diag'")
        return cls.from_json(obj["off"], "off_diagonal"), cls.from_json(obj["diag"], "diagonal")

    # -- density and derivatives ------------------------------------------

    def density(self, x) -> np.ndarray:
        """Probability density, positive on all of R."""
        x = np.asarray(x, dtype=float)
        if self.kind == "smoothed_uniform":
            a, w = self._half_width, self._smooth_w
            # (Phi((a - x)/w) - Phi(-(x + a)/w)) / 2a with Phi(u) = erfc(-u/sqrt(2))/2,
            # in upper-tail form: Phi saturates at 1 beyond ~8, so the direct
            # difference cancels to 0 in the far tails; the density is even,
            # so evaluate at |x| where both terms are tails
            t = np.abs(x)
            u, v = (t - a) / w * math.sqrt(0.5), (t + a) / w * math.sqrt(0.5)
            return (_elementwise(math.erfc, u) - _elementwise(math.erfc, v)) / (4.0 * a)
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
        sd = self.normal_scale
        if sd is not None:
            return sd * rng.standard_normal(size)
        wts, mus, sds = self._mix
        # the component draw of ``rng.choice(len(wts), size, p=wts)``, which
        # consumes the stream identically: one uniform per value, and the
        # component is the number of inner cdf boundaries at or below it
        # (``searchsorted(side="right")``), counted without a binary search
        cdf = wts.cumsum()
        cdf /= cdf[-1]
        u = rng.random(size)
        idx = np.zeros(size, dtype=np.intp)
        for boundary in cdf[:-1]:
            idx += u >= boundary
        return mus[idx] + sds[idx] * rng.standard_normal(size)

    # -- integration support ------------------------------------------------

    def _support_bound(self) -> float:
        """Half-width of an interval carrying all mass relevant at 1e-9: the
        outermost of :meth:`_breaks`."""
        return max(abs(b) for b in self._breaks())

    def _breaks(self) -> list:
        """Where to cut ``[-L, L]`` for quadrature: each mixture component's
        ``mean +- 14 scale``, or each smoothed-uniform edge's ``+-a +- 14 w``,
        so a narrow feature gets panels of its own width."""
        if self.kind == "smoothed_uniform":
            a, w = self._half_width, self._smooth_w
            return [-a - 14.0 * w, -a + 14.0 * w, a - 14.0 * w, a + 14.0 * w]
        wts, mus, sds = self._mix
        return np.concatenate([mus - 14.0 * sds, mus + 14.0 * sds]).tolist()


def _normalise_mixture(
    params: Sequence[float], target: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if len(params) == 0 or len(params) % 3 != 0:
        raise ConfigurationError(
            "gaussian_mixture parameters must be flat (weight, mean, scale) triples"
        )
    raw = np.asarray(params, dtype=float).reshape(-1, 3)
    if not np.all(np.isfinite(raw)):
        raise ConfigurationError(f"gaussian_mixture parameters must be finite, got {tuple(params)}")
    wts, mus, sds = raw[:, 0], raw[:, 1], raw[:, 2]
    if np.any(wts <= 0.0):
        raise ConfigurationError("mixture weights must be positive")
    if np.any(sds <= 0.0):
        raise ConfigurationError("mixture component scales must be positive")
    if len(wts) == 1:
        # mathematically the rescaled one-component mixture is exactly the
        # role gaussian; write it down exactly so the sampled stream matches
        return (np.array([1.0]), np.array([0.0]), np.array([math.sqrt(target)]))
    # bring the largest weight, and the largest mean or scale, into [0.5, 1)
    # by powers of two: exact, so the normalised parameters are those of the
    # unscaled arithmetic, but its sums and squares can no longer overflow,
    # nor a square of a tiny scale underflow to a zero variance
    wts = np.ldexp(wts, -math.frexp(wts.max())[1])
    shift = -math.frexp(max(np.abs(mus).max(), sds.max()))[1]
    mus, sds = np.ldexp(mus, shift), np.ldexp(sds, shift)
    wts = wts / wts.sum()
    mean = float(np.dot(wts, mus))
    # the centred sum: E x^2 - mean^2 cancels to 0 when the spread is tiny
    # next to the mean
    var = float(np.dot(wts, sds * sds + (mus - mean) ** 2))
    if not 0.0 < var < math.inf:
        raise ConfigurationError(f"gaussian_mixture variance must be finite and positive, got {var}")
    r = math.sqrt(target / var)
    scales = sds * r
    if not (math.isfinite(r) and np.all(scales > 0.0)):
        raise ConfigurationError("gaussian_mixture scales cannot be rescaled to the role variance")
    return (wts, (mus - mean) * r, scales)


def gaussian_off() -> DistributionSpec:
    """Gaussian law for real/imaginary parts of off-diagonal entries."""
    return DistributionSpec("gaussian", (), "off_diagonal")


def gaussian_diag() -> DistributionSpec:
    """Gaussian law for diagonal entries."""
    return DistributionSpec("gaussian", (), "diagonal")


def regularity_integrals(dist: DistributionSpec) -> dict:
    """Composite Gauss-Legendre quadrature of the density regularity functionals.

    Returns ``{"I6": E|h'/h|**6, "I4": E|h'/h|**4, "I2pp": E|h''/h|**2}``
    where ``h`` is the density of ``dist`` and expectations are under
    ``h``.  All three are finite for the built-in kinds.  The interval is
    cut at :meth:`DistributionSpec._breaks`, so a narrow mixture component
    or smoothed-uniform edge is resolved however narrow; the panels are
    refined until two passes agree to a relative 1e-10, and
    :class:`NumericError` is raised if they do not or a value is not finite
    and positive.
    """

    def integrands(x):
        h = dist.density(x)
        # h underflows to 0 far in the tails, where the integrands tend to 0 too
        score, curvature = (np.divide(d, h, out=np.zeros_like(h), where=h > 0.0)
                            for d in (dist.density_d1(x), dist.density_d2(x)))
        return np.stack([score**6 * h, score**4 * h, curvature**2 * h])

    L = dist._support_bound()
    # a law too wide for doubles overflows in its integrands; the check below reports it
    with np.errstate(all="ignore"):
        values = _integrate(integrands, -L, L, dist._breaks())
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise NumericError(f"regularity integrals I6, I4, I2pp must be finite and positive, got {values.tolist()}")
    return dict(zip(("I6", "I4", "I2pp"), values.tolist()))
