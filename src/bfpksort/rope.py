"""Rotary positional embeddings over explicit channel tables.

The rotation pairs channels two by two and turns each pair by a
position-dependent angle.  Instead of hard-coding a channel layout, the
transform is driven by three tables of length ``d_h``:

* ``theta``   per-channel angular frequency (equal within a pair),
* ``partner`` index of the channel paired with this one (an involution),
* ``sign``    sign of the sine term (opposite within a pair).

Channel ``j`` of the rotated vector is
``x[j] * cos(m * theta[j]) + sign[j] * x[partner[j]] * sin(m * theta[j])``
for token position ``m``.  Two standard layouts are provided: the
interleaved form pairing ``(0, 1), (2, 3), ...`` and the half-split form
used by Llama-style checkpoints pairing ``(j, j + d_h/2)``.  Explicit tables
make the transform well-defined under any channel permutation, which is what
the weight-sorting pass relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidRopeTables, InvalidValue, ShapeMismatch
from .errors import _require_int, _require_real, _require_real_array

__all__ = ["RopeTables", "default_rope_tables", "rope_apply"]

DEFAULT_BASE = 10000.0

LAYOUTS = ("interleaved", "half_split")


@dataclass(frozen=True)
class RopeTables:
    """Frequency, partner-index and sine-sign tables for one head."""

    theta: np.ndarray  # float64, length d_h
    partner: np.ndarray  # intp, length d_h
    sign: np.ndarray  # int8 of +/-1, length d_h

    @property
    def d_h(self) -> int:
        return int(self.theta.shape[0])

    def validate(self) -> None:
        """Raise :class:`InvalidRopeTables` unless the pairing invariants hold."""
        d = self.d_h
        if self.partner.shape != (d,) or self.sign.shape != (d,):
            raise InvalidRopeTables("theta/partner/sign lengths disagree")
        j = np.arange(d)
        if np.any(self.partner < 0) or np.any(self.partner >= d):
            raise InvalidRopeTables("partner indices out of range")
        if np.any(self.partner == j):
            raise InvalidRopeTables("a channel cannot pair with itself")
        if not np.array_equal(self.partner[self.partner], j):
            raise InvalidRopeTables("partner table is not an involution")
        if not np.all(np.abs(self.sign) == 1):
            raise InvalidRopeTables("signs must be +/-1")
        if np.any(self.sign[self.partner] != -self.sign):
            raise InvalidRopeTables("paired channels must carry opposite signs")
        if np.any(self.theta[self.partner] != self.theta):
            raise InvalidRopeTables("paired channels must share a frequency")


def default_rope_tables(
    d_h: int, base: float = DEFAULT_BASE, layout: str = "interleaved"
) -> RopeTables:
    """Standard tables with frequencies ``base**(-2*(i-1)/d_h)``, i = 1..d_h/2.

    ``interleaved`` pairs adjacent channels ``(0, 1), (2, 3), ...`` with the
    frequency vector ``[t1, t1, t2, t2, ...]``; ``half_split`` pairs channel
    ``j`` with ``j + d_h/2`` and repeats the frequencies as
    ``[t1..t_{d_h/2}, t1..t_{d_h/2}]``.  An odd ``d_h``, a base <= 0, or one so
    small that a frequency overflows raises :class:`InvalidValue`.
    """
    _require_int("d_h", d_h, 2)
    if d_h % 2:
        raise InvalidValue(f"d_h must be even and >= 2, got {d_h}")
    _require_real("base", base, 0, above=True)
    half = d_h // 2
    with np.errstate(over="ignore"):
        freqs = float(base) ** (-2.0 * np.arange(half) / d_h)
    if not np.all(np.isfinite(freqs)):
        raise InvalidValue(f"base {base} overflows the rotary frequencies at d_h={d_h}")
    if layout == "interleaved":
        theta = np.repeat(freqs, 2)
        partner = np.arange(d_h, dtype=np.intp).reshape(half, 2)[:, ::-1].reshape(-1)
        sign = np.tile(np.array([-1, 1], dtype=np.int8), half)
    elif layout == "half_split":
        theta = np.concatenate([freqs, freqs])
        partner = np.concatenate(
            [np.arange(half, d_h, dtype=np.intp), np.arange(half, dtype=np.intp)]
        )
        sign = np.concatenate(
            [np.full(half, -1, dtype=np.int8), np.full(half, 1, dtype=np.int8)]
        )
    else:
        raise InvalidValue(f"layout must be one of {LAYOUTS}, got {layout!r}")
    return RopeTables(theta=theta, partner=partner, sign=sign)


def rope_apply(tables: RopeTables, x, m) -> np.ndarray:
    """Rotate ``x`` to token position ``m``.

    ``x`` may be a single vector or a stack ``(..., d_h)``; ``m`` is a scalar
    or an integer array broadcastable against the leading axes (one position
    per row).  Positions enter only through ``cos(m*theta)`` / ``sin(m*theta)``.

    The result equals the module formula bit for bit, but ``cos``/``sin`` are
    evaluated once per distinct frequency (paired channels share one) and
    gathered back to the columns, and the sign is folded into the sine:
    multiplying by +/-1 is exact, so ``(sign*x_p)*sin == x_p*(sign*sin)``,
    signed zeros included.  An angle that is not finite raises
    :class:`InvalidValue`.
    """
    x, m = _require_real_array("x", x), _require_real_array("m", m)
    if x.ndim == 0 or x.shape[-1] != tables.d_h:
        raise ShapeMismatch(f"vector shape {x.shape} does not end in table length {tables.d_h}")
    # distinct frequencies by bit pattern, so that -0.0 and +0.0 stay apart
    theta = np.ascontiguousarray(tables.theta, dtype=np.float64)
    bits, column = np.unique(theta.view(np.int64), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = np.expand_dims(m, -1) * bits.view(np.float64)
    if not np.isfinite(angles).all():
        raise InvalidValue("a rotary angle m * theta is not finite")
    out = x * np.take(np.cos(angles), column, axis=-1)
    sin = np.take(np.sin(angles, out=angles), column, axis=-1)
    del angles  # freed before the gather, so the peak holds only out, sin and t
    sin *= tables.sign.astype(np.float64)
    x = np.broadcast_to(x, out.shape)  # a position array may add leading axes
    t = np.take(x, tables.partner, axis=-1)
    t *= sin
    out += t
    return out
