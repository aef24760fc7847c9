"""Compile-time channel sorting of key/query projection weights.

Key channels with unusually large row norms in the key projection produce
outlier values that wreck shared-exponent quantization of any block they
land in.  Because the attention score ``q . k^T`` is invariant to permuting
the channels of the key and query projections simultaneously, the rows of
both weight matrices can be reordered once, before inference, so that
channels of similar magnitude end up adjacent and share blocks.

The pass is purely static: compute Euclidean row norms of the key
projection in units of ``2**e``, ``e`` putting its largest weight in [0.5, 1),
argsort them in ascending order, apply the permutation to the rows of both
projections, and remap the rotary tables so the rotation keeps acting on the
same logical pairs.  The scaling is exact, so no norm overflows and a head
scaled by a power of two gets the same plan.  Nothing changes at inference.

Grouping every large channel into one block is not always the cheapest
layout: the grouped channels share the step set by the largest of them, and
at large outlier magnitudes that shared step costs more than grouping saves.
Given the key cache's block format, :func:`plan_head` instead picks the
channel layout of lowest cache MSE on a key sample (:func:`cache_mse`)
among the plain norm sort, the identity and layouts that split the largest
channels into a few blocks, each filled with the smallest channels.  No
calibration data: the sample is a fixed draw from a Gaussian key model built
from the norms in those units, one caller of :func:`cache_mse`.

Note the rotary partner table holds channel *indices*, so it is not enough
to permute it as an array like ``theta`` and ``sign``; its values must also
be translated through the inverse permutation (``partner' = inv o partner o
perm``) or the pairing breaks.  The value-remap is what keeps rotation and
permutation commuting exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .bfp import BfpFormat, dequantize, quantize_tensor
from .errors import InvalidValue, ShapeMismatch
from .errors import _Checked, _read_only, _require_instance, _require_int, _require_real_array
from .rope import RopeTables

__all__ = [
    "HeadWeights",
    "Permutation",
    "PermutationPlan",
    "remap_rope_tables",
    "cache_mse",
    "plan_head",
]

# Gaussian key model behind the format-aware layout choice: key channel i is
# N(0, ||w_k[i]||^2), what unit Gaussian activations give up to cross-channel
# correlation.  One fixed draw of COST_SAMPLES keys per plan scores every
# layout: a rough pass on its first SEARCH_SAMPLES rows picks the best layout
# per number of groups, a fine pass on all of them picks the plan.
COST_MODEL_SEED = 0
SEARCH_SAMPLES = 128
SEARCH_CHUNK = 8
COST_SAMPLES = 1024


@dataclass(frozen=True, eq=False)
class HeadWeights(_Checked):
    """Key/query projection matrices for one attention head: rows are output
    channels (``d_h``), columns model features (``d_model``).

    The one check of a head: two matrices of one shape with a row and a
    column (else :class:`ShapeMismatch`), real and finite (else
    :class:`InvalidValue`), held as read-only float64 (views of the caller's
    matrices when those are float64), so a head cannot break after its check.
    """

    w_k: np.ndarray
    w_q: np.ndarray

    def __post_init__(self) -> None:
        w_k, w_q = _require_real_array("w_k", self.w_k), _require_real_array("w_q", self.w_q)
        if w_k.ndim != 2 or w_k.shape != w_q.shape or not w_k.size:
            raise ShapeMismatch(f"w_k and w_q must be matrices of one shape with a row and a "
                                f"column, got {w_k.shape} and {w_q.shape}")
        object.__setattr__(self, "w_k", _read_only(w_k))
        object.__setattr__(self, "w_q", _read_only(w_q))

    @property
    def d_h(self) -> int:
        return int(self.w_k.shape[0])

    @property
    def d_model(self) -> int:
        return int(self.w_k.shape[1])


@dataclass(frozen=True, eq=False)
class Permutation(_Checked):
    """Channel reordering: ``indices[j]`` is the old channel at new slot ``j``,
    checked to be a bijection when built and held read-only (a view of the
    caller's array when that is writable), so it cannot break after its check."""

    indices: np.ndarray  # intp

    def __post_init__(self) -> None:
        idx = self.indices
        if not (isinstance(idx, np.ndarray) and idx.ndim == 1 and idx.dtype.kind in "iu"
                and np.array_equal(np.sort(idx), np.arange(idx.size))):
            raise InvalidValue(f"permutation must be 1-D integers, a bijection on 0..n-1, got {idx!r}")
        object.__setattr__(self, "indices", _read_only(idx))

    def __len__(self) -> int:
        return int(self.indices.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        _require_int("n", n)
        return cls(np.arange(n, dtype=np.intp))

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.indices)
        inv[self.indices] = np.arange(self.indices.size, dtype=np.intp)
        return Permutation(inv)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Gather the rows of ``x``: output row j takes input row indices[j]."""
        return np.take(x, self.indices, axis=0)


def _unit_row_norms(w: np.ndarray) -> np.ndarray:
    """Row norms of ``w / 2**e``, ``e`` putting the largest ``|w|`` in [0.5, 1):
    an exact scaling under which no finite matrix ``w`` overflows."""
    _, e = np.frexp(np.abs(w).max(initial=0.0))
    unit = np.ldexp(w, -e)
    return np.sqrt(np.sum(np.square(unit, out=unit), axis=1))


def remap_rope_tables(tables: RopeTables, perm: Permutation) -> RopeTables:
    """Carry rotary tables through a channel permutation.

    ``theta`` and ``sign`` are plain per-channel attributes and move with
    their channels.  ``partner`` holds indices, so its entries are translated
    into the new numbering as well: ``partner'[j] = inv[partner[perm[j]]]``.
    """
    _require_instance("tables", tables, RopeTables)
    _require_instance("perm", perm, Permutation)
    if len(perm) != tables.d_h:
        raise ShapeMismatch(f"permutation length {len(perm)} != d_h {tables.d_h}")
    idx = perm.indices
    return RopeTables(
        theta=tables.theta[idx],
        partner=perm.inverse().indices[tables.partner[idx]],
        sign=tables.sign[idx],
    )


@dataclass(frozen=True, eq=False)
class PermutationPlan(_Checked):
    """Result of the sorting pass for one head: the channel permutation and
    the remapped rotary tables (when rotation is in use).

    The permuted projections are not stored; a deployed head gathers the rows
    of its own weights through :meth:`Permutation.apply`.
    """

    perm: Permutation
    rope: RopeTables | None = None

    def __post_init__(self) -> None:
        _require_instance("perm", self.perm, Permutation)
        _require_instance("rope", self.rope, RopeTables, optional=True)
        if self.rope is not None and self.rope.d_h != len(self.perm):
            raise ShapeMismatch(
                f"permutation length {len(self.perm)} != rotary table length {self.rope.d_h}"
            )

    def to_json(self) -> str:
        """The audit document ``bfpksort plan`` writes: the permutation and
        the rotary tables (``null`` without rotation), not the weights.
        Nothing reads it back."""
        rope = self.rope
        doc = {
            "d_h": len(self.perm),
            "pi": self.perm.indices.tolist(),
            "rope": None if rope is None else {
                name: getattr(rope, name).tolist() for name in ("theta", "partner", "sign")
            },
        }
        return json.dumps(doc, indent=2, sort_keys=True)


def cache_mse(keys: np.ndarray, perms: list[Permutation], fmt: BfpFormat) -> np.ndarray:
    """Key-cache MSE at ``fmt`` of each channel layout in ``perms`` on the
    key sample ``keys`` (one key per row, ``d_h`` columns).  Every layout is
    scored on the same keys, so equal inputs give equal costs."""
    _require_instance("fmt", fmt, BfpFormat)
    keys = _require_real_array("keys", keys)
    if keys.ndim != 2 or not keys.size or not perms:
        raise ShapeMismatch(f"need (n, d_h) keys and layouts, got {keys.shape}, {len(perms)} layouts")
    if any(len(perm) != keys.shape[1] for perm in perms):
        raise ShapeMismatch(f"permutation lengths {list(map(len, perms))} != d_h {keys.shape[1]}")
    stacked = np.concatenate([keys[:, perm.indices] for perm in perms])
    err = dequantize(quantize_tensor(stacked, fmt, blocking_axis=1)) - stacked
    return np.square(err).reshape(len(perms), -1).mean(axis=1)


def _grouped_layout(asc: np.ndarray, block_size: int, n_heavy: int, n_groups: int) -> Permutation:
    """The last ``n_heavy`` channels of the ascending ranking ``asc`` split by
    rank into ``n_groups`` groups (any larger groups hold the smaller of them),
    each group in its own leading block topped up with the first channels of
    ``asc``; the remaining channels follow in ascending order."""
    light, heavy = asc[: asc.size - n_heavy], asc[asc.size - n_heavy :]
    parts, start = [], 0
    for group in np.array_split(heavy, n_groups):
        fill = block_size - group.size
        parts += [light[start : start + fill], group]
        start += fill
    parts.append(light[start:])
    return Permutation(np.concatenate(parts).astype(np.intp))


def _cheapest_layout(order: Permutation, keys: np.ndarray, fmt: BfpFormat) -> Permutation:
    """The candidate layout of lowest cache MSE on ``keys``, ranked by ``order``."""
    n, d = fmt.block_size, len(order)
    # rough pass: for each number of groups, the best number of large
    # channels, tried a chunk at a time until a chunk brings no improvement
    shortlist = []
    for g in range(1, d // n + 1):
        best, best_cost = None, np.inf
        for lo in range(g, n + 1, SEARCH_CHUNK):
            hs = range(lo, min(lo + SEARCH_CHUNK, n + 1))
            layouts = [_grouped_layout(order.indices, n, h, g) for h in hs]
            rough = cache_mse(keys[:SEARCH_SAMPLES], layouts, fmt)
            if rough.min() >= best_cost:
                break
            best, best_cost = layouts[int(np.argmin(rough))], rough.min()
        shortlist.append(best)
    # fine pass; ties go to the earliest candidate: the plain norm sort, identity last
    candidates = [order, *shortlist, Permutation.identity(d)]
    return candidates[int(np.argmin(cache_mse(keys, candidates, fmt)))]


def plan_head(
    weights: HeadWeights,
    rope_tables: RopeTables | None = None,
    fmt: BfpFormat | None = None,
) -> PermutationPlan:
    """Run the full sorting pass for one head.

    The permutation is the stable ascending argsort of key-row norms.  When
    the key cache's block format ``fmt`` splits a key over several blocks, it
    is the layout of lowest :func:`cache_mse` on the Gaussian model keys among
    the norm sort, the identity and the grouped layouts (see the module
    docstring).  Heads equal up to a power of two get bitwise-equal plans.
    An argument of another type than its annotation raises :class:`InvalidValue`.
    """
    _require_instance("weights", weights, HeadWeights)
    _require_instance("rope_tables", rope_tables, RopeTables, optional=True)
    _require_instance("fmt", fmt, BfpFormat, optional=True)
    if rope_tables is not None and rope_tables.d_h != weights.d_h:
        raise ShapeMismatch(f"rotary tables must fit the head: width {rope_tables.d_h}, got d_h {weights.d_h}")
    norms = _unit_row_norms(weights.w_k)
    perm = Permutation(np.argsort(norms, kind="stable"))
    if fmt is not None and weights.d_h > fmt.block_size:
        z = np.random.default_rng(COST_MODEL_SEED).standard_normal((COST_SAMPLES, weights.d_h))
        perm = _cheapest_layout(perm, z * norms, fmt)
    return PermutationPlan(perm, None if rope_tables is None else remap_rope_tables(rope_tables, perm))
