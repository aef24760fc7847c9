"""Why sorting key-projection channels helps low-bit cache storage.

A few key channels carry systematically larger values than the rest (their
projection rows have larger norms).  Under a shared-exponent block format
every block containing such a channel loses most of its small elements.
Reordering the rows of the key projection groups the hot channels into as
few blocks as possible, and reordering the query projection identically
leaves every attention score unchanged.  All of it happens before
inference; nothing is sorted at runtime.

Run: python demos/demo_channel_sorting.py
"""

import numpy as np

from bfpksort import (
    BfpFormat,
    OutlierSpec,
    default_rope_tables,
    error_metrics,
    exactness_check,
    gen_activations,
    gen_outlier_head,
    plan_head,
    score_max_abs_err,
    simulate_decode,
)

D_H, D_MODEL, T = 128, 256, 64

# --- a head with four hot channels ------------------------------------------

spec = OutlierSpec(n_outlier_channels=4, outlier_scale=20.0, seed=0)
weights = gen_outlier_head(D_H, D_MODEL, spec)
norms = np.linalg.norm(weights.w_k, axis=1)
print("row norms: median %.1f, top five:" % np.median(norms),
      np.round(np.sort(norms)[-5:], 1))

tables = default_rope_tables(D_H)
plan = plan_head(weights, tables)
print("hot channels end up adjacent after sorting:",
      np.argsort(norms)[-4:].tolist(), "->", "slots 124..127")
print()

# --- the permutation is free: scores are preserved exactly -------------------

X = gen_activations(T, D_MODEL, seed=0)
print("largest relative score deviation, sorted vs original:",
      f"{exactness_check(weights, plan, X, tables):.2e}")
print()

# --- cache error with and without sorting, across block sizes ----------------
# Keys at 4-bit mantissas, queries at 8 bits.  With one block per key vector
# (block 128 = head dim) sorting cannot change anything; once blocks are
# smaller than the head, grouping the hot channels pays off.

print(f"{'block':>6} {'unsorted mse':>14} {'sorted mse':>12} {'reduction':>10}")
for block in (128, 64, 32):
    fmt_k = BfpFormat(mantissa_bits=4, block_size=block)
    fmt_q = BfpFormat(mantissa_bits=8, block_size=block)
    t_u = simulate_decode(weights, tables, X, fmt_k, fmt_q)
    t_s = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=plan)
    mse_u = error_metrics(t_u.keys, t_u.key_cache).mse
    mse_s = error_metrics(t_s.keys, t_s.key_cache).mse
    print(f"{block:>6} {mse_u:>14.3f} {mse_s:>12.3f} {1 - mse_s / mse_u:>9.1%}")
print()

# --- the scores downstream see the same improvement --------------------------

fmt_k = BfpFormat(mantissa_bits=4, block_size=64)
fmt_q = BfpFormat(mantissa_bits=8, block_size=64)
t_u = simulate_decode(weights, tables, X, fmt_k, fmt_q)
t_s = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=plan)
print("worst attention-score error, unsorted:", round(score_max_abs_err(t_u), 1))
print("worst attention-score error, sorted:  ", round(score_max_abs_err(t_s), 1))
