"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/input problems and other stage
failures exit 1, numerical failures exit 2.
"""


class DimensionMismatchError(ValueError):
    """Inputs whose shapes or lengths do not agree."""


class NumericalError(RuntimeError):
    """A numerical failure: singular fit, improper conditional, failed
    replicate, quadrature non-convergence, and similar."""


class IngestError(ValueError):
    """A malformed input file (schema violation, non-finite cell, bad index)."""


class StageError(RuntimeError):
    """A non-numerical failure inside a named `experiment` stage."""
