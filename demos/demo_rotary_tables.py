"""Rotary embeddings as tables, and why sorting must remap them.

The rotation pairs channels and turns each pair by a position-dependent
angle.  Once channels move, three things must move with them: each
channel's frequency, its sine sign, and, crucially, the *index* of its
partner.  The first two are plain per-channel attributes; the partner table
holds channel numbers, so its values have to be translated into the new
numbering, not just shuffled: a table shuffled as a plain array is refused
when it is built, and the unremapped tables rotate the wrong pairs.

Run: python demos/demo_rotary_tables.py
"""

import numpy as np

from bfpksort import (
    Permutation,
    RopeTables,
    default_rope_tables,
    remap_rope_tables,
    rope_apply,
)
from bfpksort.errors import InvalidRopeTables

# --- two standard channel layouts -------------------------------------------

inter = default_rope_tables(8, layout="interleaved")
half = default_rope_tables(8, layout="half_split")
print("interleaved partner:", inter.partner.tolist())
print("half-split partner: ", half.partner.tolist())
print("same frequencies, different channel order; both rotate identically")
print()

# --- rotation is orthogonal and position-additive ----------------------------

rng = np.random.default_rng(1)
x = rng.normal(size=8)
print("norm before:", round(float(np.linalg.norm(x)), 6),
      " after:", round(float(np.linalg.norm(rope_apply(inter, x, 1234))), 6))
once = rope_apply(inter, rope_apply(inter, x, 10), 32)
jump = rope_apply(inter, x, 42)
print("rotate by 10 then 32 == rotate by 42:", bool(np.allclose(once, jump)))
print()

# --- permutation and rotation commute, bit for bit ---------------------------

perm = Permutation(rng.permutation(8).astype(np.intp))
remapped = remap_rope_tables(inter, perm)
lhs = rope_apply(inter, x, 7)[perm.indices]      # rotate, then reorder
rhs = rope_apply(remapped, x[perm.indices], 7)   # reorder, then rotate
print("permutation:", perm.indices.tolist())
print("rotate-then-permute == permute-then-rotate:", np.array_equal(lhs, rhs))
print()

# --- what goes wrong without the index translation ---------------------------

idx = perm.indices
try:
    RopeTables(inter.theta[idx], inter.partner[idx], inter.sign[idx])
    print("a naively shuffled partner table happened to stay valid for this permutation")
except InvalidRopeTables as exc:
    print("a naively shuffled partner table is refused when built:")
    print("  InvalidRopeTables:", exc)
rhs_bad = rope_apply(inter, x[perm.indices], 7)  # reorder, rotate with unremapped tables
print("rotating the reordered channels with the unremapped tables diverges:")
print("  max abs difference:", float(np.abs(rhs_bad - lhs).max()))
