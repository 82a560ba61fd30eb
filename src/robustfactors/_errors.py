"""Exception types and the argument checks shared across the package."""

import numbers
import operator

import numpy as np


class InvariantError(RuntimeError):
    """An internal contract was violated (symmetry, PSD, trace, determinism)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite output."""


def _check_integers(least=None, **values) -> None:
    """Raise ValueError naming the first value that is a bool, not an integer, or below least."""
    for name, value in values.items():
        try:
            if isinstance(value, bool):
                raise TypeError
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if least is not None and value < least:
            raise ValueError(f"{name} must be {'nonnegative' if least == 0 else f'>= {least}'}")


def _check_reals(**values) -> None:
    """Raise ValueError naming the first value that is a bool or not a real number."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{name} must be a real number, got {value!r}")


def _check_flags(**values) -> None:
    """Raise ValueError naming the first value that is not a Python or numpy bool."""
    for name, value in values.items():
        if not isinstance(value, (bool, np.bool_)):
            raise ValueError(f"{name} must be True or False, got {value!r}")
