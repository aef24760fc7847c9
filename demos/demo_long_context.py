"""Long-context decodes: time and memory of one sorted decode at T = 1k/4k/16k.

The attention-score error is reduced one square tile at a time: query rows
[i0, i0 + 256) against causal keys [j0, j0 + 256), ``simharness.TILE`` = 256
rows clamped to T, 512 KiB of float64 per tile; each row tile's queries are
cast to their format once inside that loop, so no T x T score map and no
matrix of decoded queries is ever built.  The keys are cast into the cache
and decoded 256 rows at a time, so no whole float64 matrix of that cast is
built either.  The decode rotates its queries, reference keys and decoded
keys together, one (3, 256, 128) tile at a time and in place
(``simharness._rotate``), so each rotary cos/sin is evaluated once.  What a decode holds grows with T: the keys, the rotated queries,
reference keys and decoded keys in one stack, the key cache (each held once)
and two score tiles.  A single T x T float64 map would be 128 MiB at
T = 4096 and 2 GiB at T = 16384; the peaks here are about 6.8, 19.2 and
69 MiB.

Each line decodes one outlier head (128 channels, 4 at 50x, d_model 256) with
the sorted plan, interleaved rotary, BFP16_32 queries and BFP12_32 keys, then
computes the cache error metrics and the score error.  It prints the wall
time of that work, and its tracemalloc peak from a second, untimed run:
tracemalloc traces every Python allocation, so it would slow the per-tile
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
