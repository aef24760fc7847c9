"""Long-context decodes: time and memory of one sorted decode at T = 1k/4k/16k.

The attention-score error is reduced one block of query rows at a time
(``simharness.SCORE_BLOCK_ELEMENTS`` = 2**19 elements of the score map per
block, 4 MiB), and each block's queries are cast to their format inside that
loop, so no T x T score map and no matrix of decoded queries is ever built.
``rope_apply`` rotates one block of rows at a time as well.  What a decode
holds grows with T: the keys, the rotated queries and reference keys, the key
cache, the rotated decoded keys and one block of scores.  A single T x T
float64 map would be 128 MiB at T = 4096 and 2 GiB at T = 16384; the peaks
here are about 13, 26 and 90 MiB.

Each line decodes one outlier head (128 channels, 4 at 50x, d_model 256) with
the sorted plan, interleaved rotary, BFP16_32 queries and BFP12_32 keys, then
computes the cache error metrics and the score error.  It prints the wall
time of that work, and its tracemalloc peak from a second, untimed run:
tracemalloc traces every Python allocation, so it would slow the per-block
work it does not measure (the activations and the plan are built before
either run starts).

Run: python demos/demo_long_context.py   (about ten seconds)
"""

import time
import tracemalloc

from bfpksort import (
    BFP12_32,
    BFP16_32,
    OutlierSpec,
    default_rope_tables,
    error_metrics,
    gen_activations,
    gen_outlier_head,
    plan_head,
    score_max_abs_err,
    simulate_decode,
)

D_H, D_MODEL = 128, 256
MIB = float(1 << 20)

tables = default_rope_tables(D_H)
weights = gen_outlier_head(D_H, D_MODEL, OutlierSpec(4, 50.0, seed=0))
plan = plan_head(weights, tables)


def decode(X):
    trace = simulate_decode(weights, tables, X, BFP12_32, BFP16_32, plan=plan)
    return error_metrics(trace.keys, trace.key_cache).mse, score_max_abs_err(trace)


print(f"{'T':>6} {'wall s':>7} {'peak MiB':>9} {'T x T map MiB':>14} {'cache MSE':>10} {'score err':>10}")
for t in (1024, 4096, 16384):
    X = gen_activations(t, D_MODEL, 0)
    start = time.perf_counter()
    decode(X)
    seconds = time.perf_counter() - start
    tracemalloc.start()
    mse, score_err = decode(X)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(f"{t:>6} {seconds:>7.2f} {peak / MIB:>9.1f} {t * t * 8 / MIB:>14.0f} "
          f"{mse:>10.3f} {score_err:>10.1f}")
