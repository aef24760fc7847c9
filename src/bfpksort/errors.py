"""Exception types shared across the package."""


class BfpKsortError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(BfpKsortError, ValueError):
    """Input contains NaN/Inf or otherwise unquantizable values."""


class ExponentOverflow(BfpKsortError, OverflowError):
    """Block magnitude too large for the shared-exponent bit width."""


class ShapeMismatch(BfpKsortError, ValueError):
    """Operands disagree in logical shape or block partitioning."""


class CorruptBuffer(BfpKsortError, ValueError):
    """Packed block buffer is truncated or internally inconsistent."""


class InvalidRopeTables(BfpKsortError, ValueError):
    """Rotary tables violate the partner/sign/frequency invariants."""


class PlanMismatch(BfpKsortError, ValueError):
    """Permutation plan was not derived from the supplied weights."""


class InvalidConfig(BfpKsortError, ValueError):
    """Experiment input, such as the imported weights a config names, cannot be run."""


class NotATensorFile(BfpKsortError, ValueError):
    """File does not start with the tensor container magic."""


class CorruptFile(BfpKsortError, ValueError):
    """Tensor container header or payload is damaged."""


class UnsupportedVersion(BfpKsortError, ValueError):
    """Tensor container was written by an unknown format revision."""
