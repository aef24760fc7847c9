"""Compile-time channel sorting of key/query projection weights.

Key channels with unusually large row norms in the key projection produce
outlier values that wreck shared-exponent quantization of any block they
land in.  Because the attention score ``q . k^T`` is invariant to permuting
the channels of the key and query projections simultaneously, the rows of
both weight matrices can be reordered once, before inference, so that
channels of similar magnitude end up adjacent and share blocks.

The pass is purely static: compute Euclidean row norms of the key
projection, argsort them, apply the permutation to the rows of both
projections (and their biases), and remap the rotary tables so the rotation
keeps acting on the same logical pairs.  No calibration data is involved and
nothing changes at inference time.

Grouping every large channel into one block is not always the cheapest
layout: the grouped channels share the step set by the largest of them, and
at large outlier magnitudes that shared step costs more than grouping saves.
Given the key cache's block format, :func:`plan_head` instead picks the
channel layout with the lowest expected cache MSE (:func:`expected_cache_mse`)
among the plain norm sort, the identity and layouts that split the largest
channels into a few blocks, each filled with the smallest channels.  Still no
calibration data: the expectation is taken under a Gaussian key model built
from the projection weights alone.

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
from .errors import ShapeMismatch
from .rope import RopeTables

__all__ = [
    "HeadWeights",
    "Permutation",
    "PermutationPlan",
    "row_norms",
    "argsort_norms",
    "remap_rope_tables",
    "expected_cache_mse",
    "plan_head",
]

SORT_ORDERS = ("ascending", "descending")

# Gaussian key model behind the format-aware layout choice: every layout is
# scored on the same synthetic keys (the first rows of one fixed draw), a
# rough pass picking the best layout per number of groups, then a fine pass.
COST_MODEL_SEED = 0
SEARCH_SAMPLES = 128
SEARCH_CHUNK = 8
COST_SAMPLES = 1024


@dataclass(frozen=True)
class HeadWeights:
    """Key/query projection matrices for one attention head.

    Rows are output channels (length ``d_h``), columns model features
    (``d_model``).  Biases are optional and permuted along with the rows.
    """

    w_k: np.ndarray
    w_q: np.ndarray
    b_k: np.ndarray | None = None
    b_q: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.w_k.ndim != 2 or self.w_k.shape != self.w_q.shape:
            raise ShapeMismatch(
                f"w_k and w_q must be matrices of identical shape, "
                f"got {self.w_k.shape} and {self.w_q.shape}"
            )
        for name, b in (("b_k", self.b_k), ("b_q", self.b_q)):
            if b is not None and b.shape != (self.d_h,):
                raise ShapeMismatch(f"{name} must have shape ({self.d_h},), got {b.shape}")

    @property
    def d_h(self) -> int:
        return int(self.w_k.shape[0])

    @property
    def d_model(self) -> int:
        return int(self.w_k.shape[1])


@dataclass(frozen=True)
class Permutation:
    """Channel reordering: ``indices[j]`` is the old channel at new slot ``j``."""

    indices: np.ndarray  # intp

    def __post_init__(self) -> None:
        idx = self.indices
        if idx.ndim != 1 or not np.array_equal(np.sort(idx), np.arange(idx.size)):
            raise ValueError("permutation must be a bijection on 0..n-1")

    def __len__(self) -> int:
        return int(self.indices.size)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(np.arange(n, dtype=np.intp))

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.indices)
        inv[self.indices] = np.arange(self.indices.size, dtype=np.intp)
        return Permutation(inv)

    def apply(self, x: np.ndarray, axis: int = 0) -> np.ndarray:
        """Gather ``x`` along ``axis``: output slot j takes input slot indices[j]."""
        return np.take(x, self.indices, axis=axis)


def row_norms(w) -> np.ndarray:
    """Euclidean norm of each row, in double precision."""
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got shape {w.shape}")
    return np.sqrt(np.sum(w * w, axis=1))


def argsort_norms(norms, order: str = "ascending") -> Permutation:
    """Stable argsort of the norms; ties keep their original relative order."""
    norms = np.asarray(norms, dtype=np.float64)
    if order not in SORT_ORDERS:
        raise ValueError(f"order must be one of {SORT_ORDERS}, got {order!r}")
    key = norms if order == "ascending" else -norms
    return Permutation(np.argsort(key, kind="stable").astype(np.intp))


def remap_rope_tables(tables: RopeTables, perm: Permutation) -> RopeTables:
    """Carry rotary tables through a channel permutation.

    ``theta`` and ``sign`` are plain per-channel attributes and move with
    their channels.  ``partner`` holds indices, so its entries are translated
    into the new numbering as well: ``partner'[j] = inv[partner[perm[j]]]``.
    """
    tables.validate()
    if len(perm) != tables.d_h:
        raise ShapeMismatch(f"permutation length {len(perm)} != d_h {tables.d_h}")
    idx = perm.indices
    return RopeTables(
        theta=tables.theta[idx],
        partner=perm.inverse().indices[tables.partner[idx]].astype(np.intp),
        sign=tables.sign[idx],
    )


@dataclass(frozen=True)
class PermutationPlan:
    """Result of the sorting pass for one head: the channel permutation, the
    remapped rotary tables (when rotation is in use) and the sort order.

    The permuted projections are not stored; a deployed head gathers the rows
    of its own weights through :meth:`Permutation.apply`.
    """

    perm: Permutation
    rope: RopeTables | None = None
    order: str = "ascending"

    def __post_init__(self) -> None:
        if self.rope is not None and self.rope.d_h != len(self.perm):
            raise ShapeMismatch(
                f"permutation length {len(self.perm)} != rotary table length {self.rope.d_h}"
            )

    def to_json(self) -> str:
        """Compact audit document: the permutation and tables, not the weights."""
        doc = {
            "d_h": len(self.perm),
            "order": self.order,
            "pi": self.perm.indices.tolist(),
            "rope": self.rope.to_jsonable() if self.rope is not None else None,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PermutationPlan":
        """Inverse of :meth:`to_json`."""
        doc = json.loads(text)
        return cls(
            perm=Permutation(np.asarray(doc["pi"], dtype=np.intp)),
            rope=RopeTables.from_jsonable(doc["rope"]) if doc.get("rope") else None,
            order=doc.get("order", "ascending"),
        )


def expected_cache_mse(
    weights: HeadWeights,
    perms: list[Permutation],
    fmt: BfpFormat,
    samples: int = COST_SAMPLES,
) -> np.ndarray:
    """Expected key-cache MSE at ``fmt`` of each channel layout in ``perms``.

    Key channel ``i`` is modelled as an independent Gaussian with mean
    ``b_k[i]`` and standard deviation ``||w_k[i]||``, which is what unit
    Gaussian activations give up to cross-channel correlation.  The
    expectation is estimated on ``samples`` keys drawn once from a fixed
    seed and shared by all layouts, so differences between layouts are not
    drowned in sampling noise and equal inputs give equal costs.
    """
    for perm in perms:
        if len(perm) != weights.d_h:
            raise ShapeMismatch(f"permutation length {len(perm)} != d_h {weights.d_h}")
    z = np.random.default_rng(COST_MODEL_SEED).standard_normal((samples, weights.d_h))
    keys = z * row_norms(weights.w_k)
    if weights.b_k is not None:
        keys = keys + weights.b_k
    stacked = np.concatenate([keys[:, perm.indices] for perm in perms])
    err = dequantize(quantize_tensor(stacked, fmt, blocking_axis=1)) - stacked
    return np.square(err).reshape(len(perms), -1).mean(axis=1)


def _grouped_layout(norms, block_size: int, n_heavy: int, n_groups: int) -> Permutation:
    """The ``n_heavy`` largest-norm channels split by rank into ``n_groups``
    groups (any larger groups hold the smaller of them), each group in its
    own leading block topped up with the smallest channels; the remaining
    channels follow in ascending norm order."""
    asc = np.argsort(norms, kind="stable")
    light, heavy = asc[: asc.size - n_heavy], asc[asc.size - n_heavy :]
    parts, start = [], 0
    for group in np.array_split(heavy, n_groups):
        fill = block_size - group.size
        parts += [light[start : start + fill], group]
        start += fill
    parts.append(light[start:])
    return Permutation(np.concatenate(parts).astype(np.intp))


def _cheapest_layout(weights: HeadWeights, fmt: BfpFormat) -> Permutation:
    """The candidate layout of lowest expected cache MSE at ``fmt``."""
    norms = row_norms(weights.w_k)
    n, d = fmt.block_size, weights.d_h
    if d <= n:  # one block per key: every layout quantizes alike
        return argsort_norms(norms)
    # rough pass: for each number of groups, the best number of large
    # channels, tried a chunk at a time until a chunk brings no improvement
    shortlist = []
    for g in range(1, d // n + 1):
        best, best_cost = None, np.inf
        for lo in range(g, n + 1, SEARCH_CHUNK):
            hs = range(lo, min(lo + SEARCH_CHUNK, n + 1))
            layouts = [_grouped_layout(norms, n, h, g) for h in hs]
            rough = expected_cache_mse(weights, layouts, fmt, SEARCH_SAMPLES)
            if rough.min() >= best_cost:
                break
            best, best_cost = layouts[int(np.argmin(rough))], rough.min()
        shortlist.append(best)
    # fine pass; ties go to the earliest candidate: the plain norm sort, identity last
    candidates = [argsort_norms(norms), *shortlist, Permutation.identity(d)]
    return candidates[int(np.argmin(expected_cache_mse(weights, candidates, fmt)))]


def plan_head(
    weights: HeadWeights,
    rope_tables: RopeTables | None = None,
    order: str = "ascending",
    fmt: BfpFormat | None = None,
) -> PermutationPlan:
    """Run the full sorting pass for one head.

    Without ``fmt`` the permutation is the plain argsort of key-row norms in
    ``order``.  With the key cache's block format ``fmt`` it is the layout of
    lowest :func:`expected_cache_mse` among the norm sort, the identity and
    the grouped layouts (see the module docstring); ``order`` must then be
    left at its default, which the plan records.

    Deterministic: equal inputs produce bitwise-equal plans.
    """
    if rope_tables is not None and weights.d_h % 2:
        raise ShapeMismatch("rotary tables require an even head dimension")
    if fmt is None:
        perm = argsort_norms(row_norms(weights.w_k), order=order)
    elif order != "ascending":
        raise ValueError("a format-aware plan picks its own layout; order does not apply")
    else:
        perm = _cheapest_layout(weights, fmt)
    return PermutationPlan(
        perm=perm,
        rope=remap_rope_tables(rope_tables, perm) if rope_tables is not None else None,
        order=order,
    )
