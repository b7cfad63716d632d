"""Exception types shared across the package.

Three failure families are distinguished so that callers (and the CLI exit
code mapping) can react appropriately:

* :class:`ConfigurationError` -- a spec, flag, or parameter set is malformed
  before any numerics run.
* :class:`DomainError` -- an argument is outside the mathematical domain of
  an operation (index out of range, interval reversed, ...).
* :class:`NumericError` -- a numerical routine failed to deliver the
  requested accuracy (non-convergence, quadrature failure).

The package's number rule lives here too, so that every module can import
it: ``_integer`` and ``_real`` turn a spec value into an ``int`` or a
``float`` and refuse bools and anything that is not a number.
"""

from __future__ import annotations

import numpy as np

__all__ = ["WignerLabError", "ConfigurationError", "DomainError", "NumericError"]


class WignerLabError(Exception):
    """Base class for all package errors."""


class ConfigurationError(WignerLabError, ValueError):
    """Malformed distribution, experiment, or CLI configuration."""


class DomainError(WignerLabError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class NumericError(WignerLabError, RuntimeError):
    """A numerical routine failed to converge or meet its tolerance."""


def _integer(value, what: str) -> int:
    """``value`` as an ``int``; bools and non-integers raise."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ConfigurationError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """``value`` as a ``float``; bools and non-numbers raise."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ConfigurationError(f"{what} must be a real number, got {value!r}")
    return float(value)
