"""Exception types and the integer-argument check shared across the package."""

import operator


class InvariantError(RuntimeError):
    """An internal contract was violated (symmetry, PSD, trace, determinism)."""


class NumericalError(RuntimeError):
    """A numerical routine failed to converge or produced non-finite output."""


def _check_integers(**values) -> None:
    """Raise ValueError naming the first of the values that operator.index refuses."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
