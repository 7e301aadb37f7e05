"""Exception types shared across the package.

The CLI maps these onto exit codes, so the split matters: schema problems
(SchemaError) are I/O-level, validation problems (InvalidCategoryError,
MalformedFusionError, NotModularError) mean the input data does not
describe a category of the advertised kind, capability problems
(CapabilityError) mean the request needs data the input does not carry, and
consistency problems (InternalConsistencyError, NotRibbonConsistentError)
mean an exact identity that must hold failed mid-computation.
"""

from __future__ import annotations


class SchemaError(Exception):
    """Input file or JSON object does not match the on-disk schema, or a number
    read or printed is past the interpreter's limit on int/str conversion."""


class MalformedFusionError(Exception):
    """Fusion coefficients violate the unit, duality or associativity axioms."""


class NotModularError(Exception):
    """An s-matrix with a zero dimension or dim C, or a Verlinde coefficient outside N."""


class CapabilityError(Exception):
    """Requested computation needs data (s-matrix, character table, ...)
    that this category was not given."""


class InternalConsistencyError(Exception):
    """A derived quantity failed an exact cross-check that must hold."""


class NotRibbonConsistentError(Exception):
    """Transform of a subcategory cointegral was not a sum of distinct
    primitive idempotents, so no centralizer can be read off."""


class SingularMatrixError(Exception):
    """Exact Gaussian elimination met a singular matrix."""

    def __init__(self, rank: int, message: str | None = None):
        self.rank = rank
        super().__init__(message or f"singular matrix, rank {rank}")


class InvalidCategoryError(Exception):
    """Category data failed validation; carries the failed check ids."""

    def __init__(self, failures):
        self.failures = list(failures)
        ids = ", ".join(c.check_id for c in self.failures)
        super().__init__(f"validation failed: {ids}")
