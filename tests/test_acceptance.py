"""Top-level verification suite.

One test per release criterion, each printing a single PASS/FAIL line with
the measured quantity next to its threshold (run pytest with ``-s`` to see
the lines as they happen).  Thresholds are stated inline and are not
tunable; a red line here means the property genuinely does not hold on this
build.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction

import numpy as np

from bfpksort import (
    BFP12_32,
    BFP16_32,
    BfpFormat,
    OutlierSpec,
    Permutation,
    bfp_dot,
    bits_per_element,
    default_rope_tables,
    dequantize,
    error_metrics,
    exactness_check,
    gen_activations,
    gen_outlier_head,
    pack,
    plan_head,
    quantize_block,
    quantize_tensor,
    remap_rope_tables,
    rope_apply,
    simulate_decode,
    unpack,
)
from bfpksort.cli import main

D_H, D_MODEL, N_TOKENS = 128, 256, 64


def _criterion(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name} [{detail}]")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. score preservation of the sorting pass
# ---------------------------------------------------------------------------


def test_score_map_exactness():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        weights = gen_outlier_head(D_H, D_MODEL, OutlierSpec(0, 1.0, seed=seed))
        X = gen_activations(N_TOKENS, D_MODEL, seed)
        worst = max(worst, exactness_check(weights, plan_head(weights), X))
        layout = "interleaved" if seed % 2 == 0 else "half_split"
        tables = default_rope_tables(D_H, layout=layout)
        plan = plan_head(weights, tables)
        worst = max(worst, exactness_check(weights, plan, X, tables))
    elapsed = time.perf_counter() - start
    _criterion(
        "score maps agree after channel sorting (100 heads, with/without rotation)",
        worst <= 1e-12 and elapsed < 10.0,
        f"max deviation {worst:.3e} <= 1e-12, {elapsed:.1f}s < 10s",
    )


# ---------------------------------------------------------------------------
# 2. rotation commutes with permutation, bitwise
# ---------------------------------------------------------------------------


def test_rotation_permutation_commutation_bitwise():
    rng = np.random.default_rng(2024)
    mismatches = 0
    total = 0
    for d_h in (4, 8, 64, 128):
        for layout in ("interleaved", "half_split"):
            tables = default_rope_tables(d_h, layout=layout)
            for _ in range(1250):
                x = rng.normal(size=d_h)
                m = int(rng.integers(0, 100_000))
                perm = Permutation(rng.permutation(d_h).astype(np.intp))
                lhs = rope_apply(tables, x, m)[perm.indices]
                rhs = rope_apply(remap_rope_tables(tables, perm), x[perm.indices], m)
                total += 1
                if not np.array_equal(lhs, rhs):
                    mismatches += 1
    _criterion(
        "rotation/permutation commutation is bitwise exact",
        mismatches == 0 and total == 10_000,
        f"{mismatches} mismatches in {total} random (x, m, perm) triples",
    )


# ---------------------------------------------------------------------------
# 3. codec against the exhaustive exponent-search oracle
# ---------------------------------------------------------------------------


def _oracle_quantize_block(values, fmt: BfpFormat):
    vals = [float(v) for v in values] + [0.0] * (fmt.block_size - len(values))
    mmax = fmt.mantissa_max
    peak = max(abs(v) for v in vals)
    if peak == 0.0:
        return fmt.exponent_min, [0] * fmt.block_size
    for e in range(fmt.exponent_min, fmt.exponent_max + 1):
        scaled = peak / 2.0**e
        if scaled > 2**fmt.mantissa_bits:
            continue
        if round(scaled) <= mmax:
            return e, [max(-mmax, min(mmax, round(v / 2.0**e))) for v in vals]
    raise OverflowError


def _random_values(rng: np.random.Generator, length: int) -> np.ndarray:
    kind = rng.integers(0, 4)
    if kind == 0:
        return rng.normal(size=length)
    if kind == 1:
        return rng.normal(size=length) * 2.0 ** int(rng.integers(-100, 100))
    if kind == 2:
        return rng.integers(-16, 17, size=length) * 2.0 ** int(rng.integers(-3, 4)) / 2.0
    v = rng.normal(size=length)
    v[rng.random(size=length) < 0.3] = 0.0
    return v


def test_codec_matches_oracle_and_round_trips():
    rng = np.random.default_rng(3)
    mismatches = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        fmt = BfpFormat(mantissa_bits=4, block_size=n)
        values = _random_values(rng, int(rng.integers(1, n + 1)))
        block = quantize_block(values, fmt)
        e_ref, m_ref = _oracle_quantize_block(values, fmt)
        if block.exponent != e_ref or block.mantissas.tolist() != m_ref:
            mismatches += 1

    broken_round_trips = 0
    for _ in range(1_000):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(1, 7, size=ndim))
        axis = int(rng.integers(0, ndim))
        fmt = BfpFormat(
            mantissa_bits=int(rng.integers(2, 9)), block_size=int(rng.integers(1, 33))
        )
        x = _random_values(rng, int(np.prod(shape))).reshape(shape)
        t = quantize_tensor(x, fmt, axis)
        again = quantize_tensor(dequantize(t), fmt, axis)
        same_blocks = np.array_equal(t.exponents, again.exponents) and np.array_equal(
            t.mantissas, again.mantissas
        )
        t2 = unpack(pack(t), fmt, t.logical_shape, axis)
        same_packed = (
            np.array_equal(t.exponents, t2.exponents)
            and np.array_equal(t.mantissas, t2.mantissas)
            and pack(t2) == pack(t)
        )
        if not (same_blocks and same_packed):
            broken_round_trips += 1

    _criterion(
        "codec equals exhaustive-search oracle; round trips are bitwise",
        mismatches == 0 and broken_round_trips == 0,
        f"{mismatches}/10000 oracle mismatches, "
        f"{broken_round_trips}/1000 broken round trips",
    )


# ---------------------------------------------------------------------------
# 4. block size = head dimension: sorting cannot change anything
# ---------------------------------------------------------------------------


def test_whole_head_blocks_make_sorting_a_noop():
    fmt_k = BfpFormat(mantissa_bits=4, block_size=D_H)
    unequal = 0
    for rope_on in (False, True):
        tables = default_rope_tables(D_H) if rope_on else None
        for seed in range(20):
            weights = gen_outlier_head(D_H, D_MODEL, OutlierSpec(4, 50.0, seed=seed))
            X = gen_activations(N_TOKENS, D_MODEL, seed)
            plan = plan_head(weights, tables)
            t_u = simulate_decode(weights, tables, X, fmt_k)
            t_s = simulate_decode(weights, tables, X, fmt_k, plan=plan)
            mse_u = error_metrics(t_u.keys, t_u.key_cache).mse
            mse_s = error_metrics(t_s.keys, t_s.key_cache).mse
            if mse_u != mse_s:  # bit-identical floats required
                unequal += 1
    _criterion(
        "block = head dim: sorted and unsorted cache MSE bit-identical",
        unequal == 0,
        f"{unequal}/40 seed-rotation cells differ (20 seeds, rotation off/on)",
    )


# ---------------------------------------------------------------------------
# 5. block size < head dimension: sorting must help
# ---------------------------------------------------------------------------
#
# The plan is built for the key format.  At 20x outliers it must cut the cache
# MSE by at least a fifth in the median.  At 50x, the CLI default, grouped
# outliers share so large a step that no placement of them comes near a fifth
# at block 32 (demos/demo_outlier_magnitude.py measures the hindsight
# ceiling); there the plan must still never lose to the unsorted cache.  That
# is a claim about expected MSE, and at 50x some seeds' margins are within the
# sampling noise of 64 tokens, so that part is measured on 512.


def test_sub_head_blocks_sorting_improves_mse():
    start = time.perf_counter()
    tables = default_rope_tables(D_H)
    stats = {}
    for scale, n_tokens in ((20.0, N_TOKENS), (50.0, 512)):
        for block in (32, 64):
            fmt_k = BfpFormat(mantissa_bits=4, block_size=block)
            fmt_q = BfpFormat(mantissa_bits=8, block_size=block)
            reductions = []
            for seed in range(20):
                weights = gen_outlier_head(D_H, D_MODEL, OutlierSpec(4, scale, seed=seed))
                X = gen_activations(n_tokens, D_MODEL, seed)
                plan = plan_head(weights, tables, fmt=fmt_k)
                t_u = simulate_decode(weights, tables, X, fmt_k, fmt_q)
                t_s = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=plan)
                mse_u = error_metrics(t_u.keys, t_u.key_cache).mse
                mse_s = error_metrics(t_s.keys, t_s.key_cache).mse
                reductions.append((mse_u - mse_s) / mse_u)
            reductions = np.asarray(reductions)
            stats[scale, block] = (float((reductions > 0).mean()), float(np.median(reductions)))
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0 and all(
        wins >= 0.95 and (scale != 20.0 or med >= 0.20)
        for (scale, _), (wins, med) in stats.items()
    )
    detail = ", ".join(
        f"scale {s:g} block {b}: wins {w:.0%} (need >=95%), median reduction {m:.1%}"
        + (" (need >=20%)" if s == 20.0 else "")
        for (s, b), (w, m) in stats.items()
    )
    _criterion(
        "outlier heads, blocks 32/64: sorting reduces cache MSE "
        "(scale 20, 64 tokens; never loses at scale 50, 512 tokens; "
        "4 of 128 channels, 20 seeds)",
        ok,
        f"{detail}, {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# 6. storage footprint
# ---------------------------------------------------------------------------


def test_footprint_halves_against_8bit_storage():
    exact = bits_per_element(BFP12_32) == Fraction(17, 4) and bits_per_element(
        BFP16_32
    ) == Fraction(33, 4)

    rng = np.random.default_rng(6)
    x = rng.normal(size=(N_TOKENS, D_H))
    low = pack(quantize_tensor(x, BFP12_32, 1))
    high = pack(quantize_tensor(x, BFP16_32, 1))
    measured = len(high) / len(low)
    # N_TOKENS = 64 keys of D_H = 128, 4 blocks each: 64*4*17 and 64*4*33 bytes
    sizes_match = len(low) == 4352 and len(high) == 8448

    ok = exact and sizes_match and 1.90 <= measured <= 2.00
    _criterion(
        "4-bit blocks store the cache at about half the 8-bit footprint",
        ok,
        f"bits/element 17/4 vs 33/4 exact: {exact}, "
        f"measured packed ratio {measured:.3f} in [1.90, 2.00]",
    )


# ---------------------------------------------------------------------------
# 7. integer-path dot product against the float reference
# ---------------------------------------------------------------------------


def test_integer_dot_matches_float_reference():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1_000):
        length = int(rng.integers(1, 1025))
        fmt_a = BfpFormat(mantissa_bits=4, block_size=int(rng.integers(1, 129)))
        fmt_b = BfpFormat(mantissa_bits=8, block_size=fmt_a.block_size)
        x = rng.normal(size=length) * 2.0 ** int(rng.integers(-20, 21))
        y = rng.normal(size=length)
        a = quantize_tensor(x, fmt_a, 0)
        k = quantize_tensor(y, fmt_b, 0)
        ref = float(np.dot(dequantize(a), dequantize(k)))
        worst = max(worst, abs(bfp_dot(a, k) - ref) / (1.0 + abs(ref)))
    _criterion(
        "integer-mantissa dot product tracks the float reference",
        worst <= 1e-10,
        f"worst relative deviation {worst:.3e} <= 1e-10 over 1000 pairs",
    )


# ---------------------------------------------------------------------------
# 8. experiment runner reproducibility
# ---------------------------------------------------------------------------


def test_cli_default_grid_reproducible(tmp_path):
    start = time.perf_counter()
    outputs = []
    for name, workers in (("a", "2"), ("b", "2"), ("serial", "1")):
        out = tmp_path / name
        code = main(["run", "--out-dir", str(out), "--workers", workers])
        assert code == 0
        outputs.append(
            ((out / "report.csv").read_bytes(), (out / "report.json").read_bytes())
        )
    elapsed = time.perf_counter() - start
    identical = outputs[0] == outputs[1] == outputs[2]

    doc = json.loads(outputs[0][1].decode())
    by_pair = {}
    for cell in doc["cells"]:
        key = (cell["format_q"], cell["format_k"], cell["sorted"])
        by_pair.setdefault(key, []).append(cell["mse"])
    lossless_zero = all(
        m == 0.0 for m in by_pair[("FP-lossless", "FP-lossless", False)]
    )
    noop_128 = by_pair[("BFP16_128", "BFP12_128", False)] == by_pair[
        ("BFP16_128", "BFP12_128", True)
    ]

    ok = identical and lossless_zero and noop_128 and elapsed < 60.0
    _criterion(
        "default sweep reproduces byte-identically and matches grid expectations",
        ok,
        f"3 runs identical: {identical}, lossless row zero: {lossless_zero}, "
        f"block-128 row unchanged by sorting: {noop_128}, {elapsed:.1f}s < 60s",
    )
