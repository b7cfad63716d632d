"""Numerical laboratory for eigenvalue statistics of Hermitian Wigner matrices.

The package samples Wigner ensembles, diagonalizes them, and measures
averaged spectral observables (density of states, Stieltjes transforms,
interval count moments, unfolded spacings) against semicircle-law
references, from macroscopic windows down to sub-microscopic resolution.
A minor/overlap toolkit exposes the Schur complement decomposition of
resolvent entries, and a reproducible Monte Carlo harness drives the
experiments from a declarative spec or the ``wignerlab`` command line.

The package exports exactly the ``__all__`` of its modules.
"""

from __future__ import annotations

from . import diagnostics, distributions, eigensolver, ensembles, errors, experiments, seeding
from . import spectral, svgplot
from .diagnostics import *  # noqa: F401,F403
from .distributions import *  # noqa: F401,F403
from .eigensolver import *  # noqa: F401,F403
from .ensembles import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .experiments import *  # noqa: F401,F403
from .seeding import *  # noqa: F401,F403
from .spectral import *  # noqa: F401,F403
from .svgplot import *  # noqa: F401,F403
from .version import __version__

_MODULES = (diagnostics, distributions, eigensolver, ensembles, errors, experiments, seeding, spectral, svgplot)
__all__ = ["__version__"] + [name for module in _MODULES for name in module.__all__]
