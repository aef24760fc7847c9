"""How much channel sorting buys as the outliers grow, and where it stops.

Grouping every outlier channel into one block keeps them out of the other
blocks' exponents, but the grouped outliers then share the step set by the
largest of them.  The bigger the outliers, the more that shared step costs,
until grouping loses to leaving the cache unsorted.  This demo measures, on
the heads of acceptance criterion 5 (4 of 128 channels scaled up, d_model
256, BFP12 keys at blocks 32 and 64, seeds 0-19), the median cache-MSE
reduction against the unsorted cache and the share of seeds that win for

* the plain norm sort (``plan_head(weights)``, the paper's pass), and
* the plan built for the key format (``plan_head(weights, fmt=fmt_k)``),

at 64 tokens (criterion 5's token count) and 512 tokens.  At 50x, the CLI
default, it also tries every placement of the four outliers into blocks
(the other channels in ascending norm order) and keeps, per seed and with
hindsight, the one that does best on the measured tokens: a ceiling on what
placing the outliers can buy there.

Run: python demos/demo_outlier_magnitude.py   (about a minute)
"""

import itertools

import numpy as np

from bfpksort import (
    BfpFormat,
    OutlierSpec,
    Permutation,
    gen_activations,
    gen_outlier_head,
    plan_head,
)
from bfpksort.ksort import cache_mse

D_H, D_MODEL, SEEDS, TOKENS = 128, 256, range(20), (64, 512)


def placements(norms, block):
    """Every assignment of the four largest channels to blocks."""
    order = np.argsort(norms, kind="stable")
    light, top = order[:-4], order[-4:]
    for assign in itertools.product(range(D_H // block), repeat=4):
        perm, rest = [], iter(light)
        for b in range(D_H // block):
            mine = [c for c, a in zip(top, assign) if a == b]
            perm += [next(rest) for _ in range(block - len(mine))] + mine
        yield Permutation(np.array(perm))


def summary(reductions):
    r = np.asarray(reductions)
    return f"{np.median(r):+6.1%} {np.mean(r > 0):5.0%}"


heads = {
    scale: [gen_outlier_head(D_H, D_MODEL, OutlierSpec(4, scale, seed=s)) for s in SEEDS]
    for scale in (5.0, 10.0, 20.0, 30.0, 50.0, 100.0)
}
acts = [gen_activations(max(TOKENS), D_MODEL, s) for s in SEEDS]

print("median reduction of cache MSE against the unsorted cache, and share of seeds won")
print(f"{'scale':>5} {'block':>5} {'tokens':>6}   {'norm sort':>12}   {'format plan':>12}")
for scale, ws in heads.items():
    for block in (32, 64):
        fmt = BfpFormat(mantissa_bits=4, block_size=block)
        perms = [
            (Permutation.identity(D_H), plan_head(w).perm, plan_head(w, fmt=fmt).perm) for w in ws
        ]
        for t in TOKENS:
            red = [[], []]
            for w, X, p in zip(ws, acts, perms):
                mse = cache_mse(X[:t] @ w.w_k.T, p, fmt)
                for i in (0, 1):
                    red[i].append((mse[0] - mse[i + 1]) / mse[0])
            print(f"{scale:5g} {block:5d} {t:6d}   {summary(red[0]):>12}   {summary(red[1]):>12}")

print()
print("50x: hindsight-best placement of the four outliers, per seed")
print(f"{'block':>5} {'tokens':>6}   {'median':>7}   {'seeds reaching 20%':>18}")
for block in (32, 64):
    fmt = BfpFormat(mantissa_bits=4, block_size=block)
    for t in TOKENS:
        best = []
        for w, X in zip(heads[50.0], acts):
            keys = X[:t] @ w.w_k.T
            (base,) = cache_mse(keys, [Permutation.identity(D_H)], fmt)
            cand = list(placements(np.linalg.norm(w.w_k, axis=1), block))
            chunks = (cand[i : i + 32] for i in range(0, len(cand), 32))
            low = min(cache_mse(keys, c, fmt).min() for c in chunks)
            best.append((base - low) / base)
        best = np.asarray(best)
        print(f"{block:5d} {t:6d}   {np.median(best):+7.1%}   {np.sum(best >= 0.2):>15d}/20")
