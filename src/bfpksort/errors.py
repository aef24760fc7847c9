"""Exception types shared across the package."""


class BfpKsortError(Exception):
    """Base class for all errors raised by this package."""


class InvalidValue(BfpKsortError, ValueError):
    """Input holds NaN/Inf or an unquantizable value, or a parameter outside its domain."""


class ExponentOverflow(BfpKsortError, OverflowError):
    """Block magnitude too large for the shared-exponent bit width."""


class ShapeMismatch(BfpKsortError, ValueError):
    """Operands disagree in logical shape or block partitioning."""


class CorruptBuffer(BfpKsortError, ValueError):
    """Packed block buffer is truncated or internally inconsistent."""


class InvalidRopeTables(BfpKsortError, ValueError):
    """Rotary tables violate the partner/sign/frequency invariants."""


class PlanMismatch(BfpKsortError, ValueError):
    """Permutation plan does not fit the head: another width, or rotation on one side only."""


class InvalidConfig(BfpKsortError, ValueError):
    """Experiment input, such as the imported weights a config names, cannot be run."""


class NotATensorFile(BfpKsortError, ValueError):
    """File does not start with the tensor container magic."""


class CorruptFile(BfpKsortError, ValueError):
    """Tensor container header or payload is damaged."""


class UnsupportedVersion(BfpKsortError, ValueError):
    """Tensor container was written by an unknown format revision."""
