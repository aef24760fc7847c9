"""Exception types shared across the package, and its one policy for scalar, array and
object parameters and for the arrays a checked value holds."""

import dataclasses
import sys

import numpy as np


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


def _require_int(name: str, value, low: int = 0, high: int | None = None) -> None:
    """Raise :class:`InvalidValue` unless ``value`` is an int, not a bool, in ``[low, high]``."""
    if not (isinstance(value, int) and not isinstance(value, bool)
            and low <= value and (high is None or value <= high)):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise InvalidValue(f"{name} must be an integer {bounds}, got {value!r}")


def _require_real(name: str, value, low, *, above: bool = False) -> None:
    """Raise :class:`InvalidValue` unless ``value`` is a finite int or float, not a bool, and
    ``>= low`` (``> low`` with ``above``): compared, never converted, so ``10**400`` is refused."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and value <= sys.float_info.max and (value > low if above else value >= low)):
        raise InvalidValue(f"{name} must be finite and {'>' if above else '>='} {low}, got {value!r}")


def _require_instance(name: str, value, cls: type, *, optional: bool = False) -> None:
    """Raise :class:`InvalidValue` unless ``value`` is a ``cls`` (or ``None`` with ``optional``),
    named with "an" before a vowel: ``spec must be an OutlierSpec, got str``."""
    if not (isinstance(value, cls) or (optional and value is None)):
        article = "an" if cls.__name__[0] in "AEIOU" else "a"
        wanted = f"{article} {cls.__name__}" + (" or None" if optional else "")
        raise InvalidValue(f"{name} must be {wanted}, got {type(value).__name__}")


def _all_finite(values: np.ndarray) -> bool:
    """No NaN or +/-inf in ``values``: its max and min keep a NaN, and build no bool array."""
    return bool(-np.inf < values.min(initial=0.0) and values.max(initial=0.0) < np.inf)


def _require_real_array(name: str, value) -> np.ndarray:
    """``value`` read as an array of float64, not copied if it is one; :class:`InvalidValue`
    unless its entries are finite bools, integers or floats: not NaN, +/-inf, complex, text,
    objects (such as ``10**400``) or a ragged nest of sequences."""
    try:
        arr = np.asarray(value)
    except ValueError:  # numpy refuses a ragged nest
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        got = "a ragged sequence" if arr is None else f"dtype {arr.dtype}"
        raise InvalidValue(f"{name} must be an array of real numbers, got {got}")
    with np.errstate(over="ignore"):  # a longdouble beyond float64 becomes inf
        arr = arr.astype(np.float64, copy=False)
    if _all_finite(arr):
        return arr
    where = tuple(np.argwhere(~np.isfinite(arr))[0].tolist())  # plain ints; () for 0-d input
    raise InvalidValue(f"{name} must be finite, got {arr[where]:g}" + (f" at index {where}" if where else ""))


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself if it is read-only, else a read-only view of it: a checked value holds
    its arrays this way, so it cannot be broken after its check, while the caller's own
    array stays writable."""
    if arr.flags.writeable:
        arr = arr.view()
        arr.flags.writeable = False
    return arr


class _Checked:
    """Base of a frozen dataclass that checks its fields when built: a pickle round trip
    rebuilds it through its constructor, so the copy passes the same check and holds
    read-only arrays (restoring the fields alone would skip both)."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in dataclasses.fields(self))
