"""Experiment runner: config handling, report shape, reproducibility, exits."""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import json
import math
import struct
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bfpksort.cli
from bfpksort import (
    BfpFormat,
    HeadWeights,
    OutlierSpec,
    default_rope_tables,
    error_metrics,
    gen_activations,
    gen_outlier_head,
    plan_head,
    quantize_tensor,
    score_max_abs_err,
    simulate_decode,
    tensorio,
)
from bfpksort.cli import (
    DEFAULT_GRID,
    ExperimentConfig,
    emit_report,
    main,
    resolve_format,
    run,
    run_cell,
)
from bfpksort.errors import InvalidValue
from bfpksort.simharness import ErrorReport


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        d_h=16,
        d_model=8,
        n_tokens=6,
        n_outlier_channels=2,
        outlier_scale=20.0,
        formats=(("FP-lossless", "FP-lossless"), ("BFP16_8", "BFP12_8")),
        seeds=(0, 1),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_default_grid_mirrors_block_size_ladder():
    assert DEFAULT_GRID[0] == ("FP-lossless", "FP-lossless")
    assert ("BFP16_64", "BFP12_64") in DEFAULT_GRID
    assert ("BFP16_32", "BFP12_32") in DEFAULT_GRID


def test_resolve_format_names():
    assert resolve_format("FP-lossless") is None
    assert resolve_format("BFP12_64").mantissa_bits == 4
    with pytest.raises(ValueError):
        resolve_format("lossless")
    with pytest.raises(ValueError):
        resolve_format("BFP9_64")


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_h": 8, "seeds": [3], "formats": [["BFP16_8", "BFP12_8"]]}))
    cfg = ExperimentConfig.from_json_file(str(path))
    assert cfg.d_h == 8
    assert cfg.seeds == (3,)
    assert cfg.formats == (("BFP16_8", "BFP12_8"),)


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"d_hh": 8}))
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_file(str(path))


@pytest.mark.parametrize(
    "text", ["[" * 100_000, '{"seeds": ' + "[" * 100_000], ids=["top_level", "under_seeds"]
)
def test_deeply_nested_config_is_invalid(tmp_path, capsys, text):
    # the JSON parser gives up with RecursionError; that is a bad config, not a crash
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ValueError):
        ExperimentConfig.from_json_file(str(path))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid config: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc, message",
    [("d_h", 'a config must be a JSON object, got "d_h"'),
     ({"formats": ["BF"]}, 'formats must be an array of [format_q, format_k] arrays, got ["BF"]'),
     ({"seeds": "7"}, 'seeds must be an array of integers, got "7"'),
     ({"seeds": 5}, "seeds must be an array of integers, got 5"),
     ({"formats": "BFP16_32"},
      'formats must be an array of [format_q, format_k] arrays, got "BFP16_32"'),
     ({"formats": {"a": "b"}},
      'formats must be an array of [format_q, format_k] arrays, got {"a": "b"}')],
    ids=["top_level", "formats", "seeds", "seeds_number", "formats_string", "formats_object"],
)
def test_config_type_error_names_the_key(tmp_path, doc, message):
    # checked on the JSON as written, before a string is iterated as a list
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_json_file(str(path))
    assert str(exc.value) == message
    if isinstance(doc, dict):  # a config built in Python checks itself alike
        with pytest.raises(ValueError) as exc:
            ExperimentConfig(**doc)
        assert str(exc.value) == message


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(seeds=())
    with pytest.raises(ValueError):
        tiny_config(order="upwards")
    with pytest.raises(ValueError):
        tiny_config(formats=(("BFP9_8", "BFP12_8"),))
    with pytest.raises(ValueError):
        tiny_config(wk_path="only_one.bfpt")
    with pytest.raises(ValueError, match="formats must name at least one"):
        tiny_config(formats=())
    with pytest.raises(ValueError, match=r"seeds must not repeat: 0 appears 2 times"):
        tiny_config(seeds=(0, 1, 0))
    pair = ("BFP16_8", "BFP12_8")
    with pytest.raises(
        ValueError, match=r'formats must not repeat: \["BFP16_8", "BFP12_8"\] appears 3 times'
    ):
        tiny_config(formats=(pair, ("FP-lossless", "FP-lossless"), pair, pair))
    # arrays given as lists are stored as tuples: the config equals, and hashes like, the default
    listed = ExperimentConfig(formats=[list(p) for p in DEFAULT_GRID], seeds=list(range(20)))
    assert (listed.formats, listed.seeds) == (DEFAULT_GRID, tuple(range(20)))
    assert listed == ExperimentConfig() and hash(listed) == hash(ExperimentConfig())
    # every size, scale, base and seed is refused alike, naming the field; the one value
    # skipped per field is legal for its type (a huge count, a fractional real)
    scalars = {"bool": True, "fraction": 2.5, "negative": -1, "nan": math.nan,
               "huge": 10**400, "string": "8"}
    for field, legal in (("d_h", "huge"), ("d_model", "huge"), ("n_tokens", "huge"),
                         ("n_outlier_channels", "huge"), ("outlier_scale", "fraction"),
                         ("base_std", "fraction"), ("rope_base", "fraction"), ("seeds", "huge")):
        for kind, value in scalars.items():
            if kind == legal:
                continue
            name, value = ("a seed", (value,)) if field == "seeds" else (field, value)
            with pytest.raises(InvalidValue, match=f"^{name} must be"):
                tiny_config(**{field: value})


# ---------------------------------------------------------------------------
# cells and reports
# ---------------------------------------------------------------------------


def pair_major_rows(cfg: ExperimentConfig) -> list[dict]:
    """The sweep's rows in report order: format pair by pair, then seed by seed."""
    per_seed = [run_cell(cfg, seed) for seed in cfg.seeds]
    return [row for pair in range(len(cfg.formats)) for cells in per_seed for row in cells[pair]]


def test_lossless_cell_reports_zero_mse():
    rows = run_cell(tiny_config(), seed=0)[0]
    assert len(rows) == 2
    for row in rows:
        assert row["mse"] == 0.0
        assert row["logits_max_abs_err"] == 0.0


def test_quantized_cell_reports_both_variants():
    rows = run_cell(tiny_config(), seed=0)[1]
    assert [r["sorted"] for r in rows] == [False, True]
    for row in rows:
        assert row["mse"] > 0.0
        assert row["bits_per_element"] == 4 + 8 / 8
        assert row["cache_bytes"] == 6 * 2 * 5  # T * blocks/token * bytes/block


def test_default_cell_peaks_below_one_and_a_quarter_mib():
    # one seed of the default sweep: the head, the plan, the two projections and the
    # pairs' casts. _project holds one gathered plan weight matrix at a time (256 KiB
    # each); with both alive the cell peaked at 1.34 MiB, with one at 1.19
    cfg = ExperimentConfig()
    run_cell(cfg, cfg.seeds[0])  # the first call in a process also imports and caches
    tracemalloc.start()
    try:
        run_cell(cfg, cfg.seeds[0])
        peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak_mib < 1.25, peak_mib


def test_emit_report_renders_the_rows_it_is_given():
    # the CSV holds each pair's unsorted and sorted mean as a plain float repr,
    # and every non-finite float of a cell is written as null
    cfg = tiny_config(formats=(("BFP16_8", "BFP12_8"),), seeds=(0, 1))
    rows = [
        {"format_q": "BFP16_8", "format_k": "BFP12_8", "sorted": flag, "seed": seed,
         "mse": np.float64(mse), "sqnr_db": sqnr, "max_abs_err": 0.25}
        for flag, seed, mse, sqnr in [(False, 0, 0.1, math.inf), (False, 1, 0.2, -math.inf),
                                      (True, 0, 1.0, math.nan), (True, 1, 2.5, 3.5)]
    ]
    csv_text, json_text = emit_report(cfg, rows)
    assert csv_text == (
        "format_q,format_k,mse_original,mse_sorted\n"
        "BFP16_8,BFP12_8,0.15000000000000002,1.75\n"
    )
    cells = json.loads(json_text)["cells"]
    assert [cell["sqnr_db"] for cell in cells] == [None, None, None, 3.5]
    assert [cell["mse"] for cell in cells] == [0.1, 0.2, 1.0, 2.5]
    assert "NaN" not in json_text and "Infinity" not in json_text


def test_emit_report_is_parseable_csv(tmp_path):
    import csv as csvmod

    cfg = tiny_config()
    rows = pair_major_rows(cfg)
    csv_text, json_text = emit_report(cfg, rows)
    parsed = list(csvmod.reader(csv_text.splitlines()))
    assert parsed[0] == ["format_q", "format_k", "mse_original", "mse_sorted"]
    assert len(parsed) == 1 + len(cfg.formats)
    assert float(parsed[1][2]) == 0.0
    doc = json.loads(json_text)
    assert len(doc["cells"]) == len(rows)
    assert doc["cells"][0]["sqnr_db"] is None  # +inf serialized as null


def test_csv_matches_golden_snapshot():
    # frozen from a verified run; any byte drift in report rendering or in
    # the seeded numerics shows up here first
    cfg = tiny_config()
    rows = pair_major_rows(cfg)
    csv_text, _ = emit_report(cfg, rows)
    assert csv_text == (
        "format_q,format_k,mse_original,mse_sorted\n"
        "FP-lossless,FP-lossless,0.0,0.0\n"
        "BFP16_8,BFP12_8,6.019063884329687,6.563816693763604\n"
    )


@pytest.mark.filterwarnings("error")
def test_failed_cell_exits_nonzero(tmp_path, capsys):
    # an unquantizable imported head must fail the run loudly, not silently: keys
    # near 1e60 need a shared exponent far above BFP12's 8-bit maximum
    wk = np.full((16, 8), 1e60)
    tensorio.save(tmp_path / "wk.bfpt", wk)
    tensorio.save(tmp_path / "wq.bfpt", np.ones((16, 8)))
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "d_h": 16, "d_model": 8, "n_tokens": 4,
                "wk_path": str(tmp_path / "wk.bfpt"),
                "wq_path": str(tmp_path / "wq.bfpt"),
                "formats": [["BFP16_8", "BFP12_8"]],
                "seeds": [0],
            }
        )
    )
    code = main(["run", "--config", str(path), "--out-dir", str(tmp_path), "--workers", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment cell failed: block (0, 0): "), err


#: SHA-256 of the default sweep's report.csv / report.json.  The same digests
#: are pinned in perfbench/run.py and move together with them, e.g. when the
#: CLI switches to the format-aware plan (ROADMAP item 4).
DEFAULT_SWEEP_DIGESTS = {
    "report.csv": "fd64e906643a6e4c03fd47186b9804457d63a23a7088fb8ee0358214183afd22",
    "report.json": "f70c5d4b6d7a7710bc3a4359162e83343abd1ad479f61a53f32bf59fea6f99fe",
}


def test_default_sweep_reports_keep_their_digests(tmp_path):
    paths = run(ExperimentConfig(), out_dir=str(tmp_path), workers=1)
    digests = {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in paths}
    assert digests == DEFAULT_SWEEP_DIGESTS


def test_run_writes_byte_identical_reports(tmp_path):
    cfg = tiny_config()
    a_csv, a_json = run(cfg, out_dir=str(tmp_path / "a"), workers=1)
    b_csv, b_json = run(cfg, out_dir=str(tmp_path / "b"), workers=1)
    assert Path(a_csv).read_bytes() == Path(b_csv).read_bytes()
    assert Path(a_json).read_bytes() == Path(b_json).read_bytes()


def test_worker_pool_matches_serial(tmp_path):
    cfg = tiny_config()
    a_csv, a_json = run(cfg, out_dir=str(tmp_path / "serial"), workers=1)
    b_csv, b_json = run(cfg, out_dir=str(tmp_path / "pool"), workers=2)
    assert Path(a_csv).read_bytes() == Path(b_csv).read_bytes()
    assert Path(a_json).read_bytes() == Path(b_json).read_bytes()


#: ``report.json``'s config echo of the default config, written out by hand.
DEFAULT_CONFIG_ECHO = {
    "d_h": 128, "d_model": 256, "n_tokens": 64, "n_outlier_channels": 4,
    "outlier_scale": 50.0, "base_std": 1.0, "wk_path": None, "wq_path": None,
    "formats": [["FP-lossless", "FP-lossless"], ["BFP16_128", "BFP12_128"],
                ["BFP16_64", "BFP12_64"], ["BFP16_32", "BFP12_32"]],
    "order": "ascending", "rope_enabled": True, "rope_layout": "interleaved",
    "rope_base": 10000.0, "seeds": list(range(20)),
}


def test_report_echoes_a_config_file_over_the_defaults(tmp_path):
    overrides = {
        "d_h": 16, "d_model": 8, "n_tokens": 6,
        "formats": [["BFP16_8", "BFP12_8"], ["FP-lossless", "FP-lossless"]],
        "seeds": [4, 1], "rope_layout": "half_split", "rope_base": 500,
    }
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(overrides))
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
    echo = json.loads((tmp_path / "report.json").read_text())["config"]
    want = {**DEFAULT_CONFIG_ECHO, **overrides}
    assert json.dumps(echo, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_imported_weights_run(tmp_path):
    rng = np.random.default_rng(5)
    wk = rng.normal(size=(16, 8))
    wk[:2] *= 30.0
    wq = rng.normal(size=(16, 8))
    tensorio.save(tmp_path / "wk.bfpt", wk)
    tensorio.save(tmp_path / "wq.bfpt", wq)
    cfg = tiny_config(wk_path=str(tmp_path / "wk.bfpt"), wq_path=str(tmp_path / "wq.bfpt"))
    csv_path, json_path = run(cfg, out_dir=str(tmp_path), workers=1)
    doc = json.loads(Path(json_path).read_text())
    assert doc["config"]["wk_path"].endswith("wk.bfpt")
    assert len(doc["cells"]) == 2 * 2 * 2


# ---------------------------------------------------------------------------
# a seed as the unit of work, checked against one cell per (pair, seed)
# ---------------------------------------------------------------------------


def _run_cell_oracle(cfg, pair_index, seed, imported=None) -> list[dict]:
    """The runner's cell as it was when each (format pair, seed) built its own
    head, activations, rotary tables and plan: unsorted and sorted rows."""
    name_q, name_k = cfg.formats[pair_index]
    fmt_q, fmt_k = resolve_format(name_q), resolve_format(name_k)
    if imported is not None:
        weights = HeadWeights(w_k=imported[0], w_q=imported[1])
    else:
        spec = OutlierSpec(
            n_outlier_channels=cfg.n_outlier_channels,
            outlier_scale=cfg.outlier_scale,
            base_std=cfg.base_std,
            seed=seed,
        )
        weights = gen_outlier_head(cfg.d_h, cfg.d_model, spec)
    X = gen_activations(cfg.n_tokens, weights.d_model, seed)
    tables = (
        default_rope_tables(weights.d_h, cfg.rope_base, cfg.rope_layout)
        if cfg.rope_enabled
        else None
    )
    plan = plan_head(weights, tables)

    rows = []
    for sorted_flag, use_plan in ((False, None), (True, plan)):
        trace = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=use_plan)
        if trace.key_cache is not None:
            report = error_metrics(trace.keys, trace.key_cache)
            blocks_per_token = -(-weights.d_h // fmt_k.block_size)
            cache_bytes = cfg.n_tokens * blocks_per_token * fmt_k.bytes_per_block
        else:
            report = ErrorReport(
                mse=0.0, sqnr_db=math.inf, max_abs_err=0.0, bits_per_element=Fraction(64)
            )
            cache_bytes = cfg.n_tokens * weights.d_h * 8
        rows.append(
            {
                "format_q": name_q,
                "format_k": name_k,
                "sorted": sorted_flag,
                "seed": seed,
                "mse": report.mse,
                "sqnr_db": report.sqnr_db,
                "max_abs_err": report.max_abs_err,
                "logits_max_abs_err": score_max_abs_err(trace),
                "bits_per_element": float(report.bits_per_element),
                "cache_bytes": cache_bytes,
            }
        )
    return rows


ORACLE_FORMATS = (
    ("FP-lossless", "FP-lossless"),
    ("BFP16_8", "BFP12_8"),
    ("BFP16_16", "BFP12_4"),
)


@pytest.mark.parametrize(
    "overrides, workers",
    [
        (dict(rope_enabled=False), 1),
        (dict(rope_layout="half_split"), 1),
        (dict(seeds=(3, 11, 4)), 1),
        (dict(seeds=(3, 11, 4)), 2),
        (dict(d_h=40, formats=(("FP-lossless", "FP-lossless"), ("BFP16_32", "BFP12_32"))), 1),
        ("imported", 1),
    ],
    ids=["rope_off", "half_split", "seeds_3_11_4", "seeds_3_11_4_pooled",
         "d_h_40_block_32", "imported"],
)
def test_sweep_reports_match_per_cell_oracle(tmp_path, overrides, workers):
    imported = None
    if overrides == "imported":
        rng = np.random.default_rng(9)
        wk = rng.normal(size=(16, 8))
        wk[:2] *= 30.0
        imported = (wk, rng.normal(size=(16, 8)))
        tensorio.save(tmp_path / "wk.bfpt", imported[0])
        tensorio.save(tmp_path / "wq.bfpt", imported[1])
        overrides = dict(wk_path=str(tmp_path / "wk.bfpt"), wq_path=str(tmp_path / "wq.bfpt"))
    cfg = tiny_config(**{"formats": ORACLE_FORMATS, **overrides})
    rows = [
        row
        for pair in range(len(cfg.formats))
        for seed in cfg.seeds
        for row in _run_cell_oracle(cfg, pair, seed, imported)
    ]
    want = emit_report(cfg, rows)
    paths = run(cfg, out_dir=str(tmp_path / "out"), workers=workers)
    assert tuple(Path(path).read_text() for path in paths) == want


def test_sweep_builds_each_seed_once(tmp_path, monkeypatch):
    # built before the counters: validating a config builds one set of rotary tables
    cfg = tiny_config(formats=ORACLE_FORMATS, seeds=(0, 1, 2))
    calls = collections.Counter()
    for name in ("gen_outlier_head", "gen_activations", "default_rope_tables", "plan_head",
                 "_project", "simulate_decode"):
        original = getattr(bfpksort.cli, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bfpksort.cli, name, counted)
    run(cfg, out_dir=str(tmp_path), workers=1)
    n_seeds, n_pairs = len(cfg.seeds), len(cfg.formats)
    assert calls == {
        "gen_outlier_head": n_seeds,
        "gen_activations": n_seeds,
        "default_rope_tables": n_seeds,
        "plan_head": n_seeds,
        "_project": 2 * n_seeds,  # once per plan: every pair scores on that projection
        "simulate_decode": 2 * n_seeds * n_pairs,
    }


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replace the process pool with one that records its ``max_workers``, runs
    its tasks in this process and starts nothing; yields the recorded sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers=None, **kwargs):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    return sizes


def test_run_rejects_bad_worker_count(tmp_path, pool_sizes):
    for workers in (0, -1, 1.5, None):
        with pytest.raises(ValueError, match="workers"):
            run(tiny_config(), out_dir=str(tmp_path / "out"), workers=workers)
    assert not (tmp_path / "out").exists()
    assert pool_sizes == []


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def _write_tiny_config(tmp_path, **overrides) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "d_h": 16,
                "d_model": 8,
                "n_tokens": 6,
                "n_outlier_channels": 2,
                "outlier_scale": 20.0,
                "formats": [["BFP16_8", "BFP12_8"]],
                "seeds": [0],
                **overrides,
            }
        )
    )
    return str(path)


def test_cli_run(tmp_path, capsys):
    code = main(["run", "--config", _write_tiny_config(tmp_path),
                 "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "report.csv" in out and "report.json" in out
    assert (tmp_path / "out" / "report.csv").exists()


def test_cli_run_bad_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seeds": []}))
    assert main(["run", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "invalid config" in capsys.readouterr().err


@pytest.mark.parametrize(
    "entry",
    [{"outlier_scale": "x"}, {"outlier_scale": 10**400}, {"d_model": 2.5}, {"seeds": [1.7]},
     {"d_h": 3}, {"n_outlier_channels": 17}, {"rope_base": 0}, {"rope_base": -1.0},
     {"wk_path": 1, "wq_path": 2}, {"rope_enabled": 1}, {"rope_layout": "spiral"},
     {"formats": [["BFP16_8"]]}, {"formats": ["BFP16_8"]}, {"order": "descending"},
     {"rope_base": 5e-324, "d_h": 64}, {"rope_base": 5e-324, "d_h": 42, "n_tokens": 6},
     {"base_std": 0}, {"base_std": -1}, {"formats": "BFP16_32"}, {"formats": ["BF"]},
     {"formats": {"BFP16_32": "BFP12_32"}}, {"seeds": "7"}, "d_h", None, [["d_h", 16]],
     {"formats": []}, {"seeds": [0, 0]},
     {"formats": [["BFP16_8", "BFP12_8"], ["BFP16_8", "BFP12_8"]]}],
    ids=["outlier_scale", "outlier_scale_beyond_float", "d_model", "seeds", "d_h",
         "outliers_beyond_d_h", "rope_base_zero", "rope_base_negative", "non_string_paths",
         "non_bool_rope_enabled", "unknown_rope_layout", "format_not_a_pair",
         "format_a_string", "order_descending", "rope_base_overflowing_a_frequency",
         "rope_base_overflowing_an_angle", "base_std_zero", "base_std_negative",
         "formats_a_string", "format_a_two_letter_string", "formats_an_object",
         "seeds_a_string", "top_level_a_string", "top_level_null", "top_level_an_array",
         "formats_empty", "seeds_repeated", "format_pair_repeated"],
)
def test_cli_run_bad_value_is_invalid_config(tmp_path, capsys, entry):
    # rejected before any cell runs; a fractional seed is not rounded, and a
    # string or an object is not read as a list.  A dict entry overrides keys
    # of the tiny config; any other entry is the whole document.
    if isinstance(entry, dict):
        config = _write_tiny_config(tmp_path, **entry)
    else:
        config = str(tmp_path / "cfg.json")
        Path(config).write_text(json.dumps(entry))
    code = main(["run", "--config", config, "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid config: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name",
    ["BFP16_032", "BFP16_3_2", "BFP16_+32", "BFP16_ 32", "BFP16_\u0663\u0662", "lossless",
     "fp-lossless"],
    ids=["leading_zero", "digit_separator", "plus_sign", "space", "arabic_indic_digits",
         "lossless", "lower_case_lossless"],
)
def test_cli_run_other_spelling_of_a_format_is_invalid_config(tmp_path, capsys, name):
    # one spelling per format, so report.json cannot echo two names for one format
    code = main(["run", "--config", _write_tiny_config(tmp_path, formats=[[name, "BFP12_8"]]),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: invalid config: unknown format name")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus_inf"])
@pytest.mark.parametrize("which", ["wk", "wq"])
@pytest.mark.filterwarnings("error")
def test_cli_non_finite_weights_exit_2(tmp_path, capsys, bad, which):
    # both subcommands refuse the head before using it: no plan, no cell, no warning
    wk, wq = _save_weight_pair(tmp_path)
    w = np.random.default_rng(6).normal(size=(8, 4))
    w[3, 1] = bad
    tensorio.save(tmp_path / f"{which}.bfpt", w)
    code = main(["plan", "--wk", wk, "--wq", wq, "--out", str(tmp_path / "plan.json")])
    assert code == 2
    name = {"wk": "w_k", "wq": "w_q"}[which]
    assert capsys.readouterr().err == f"error: {name} must be finite, got {bad:g} at index (3, 1)\n"
    assert not (tmp_path / "plan.json").exists()
    config = _write_tiny_config(tmp_path, d_h=8, d_model=4, wk_path=wk, wq_path=wq)
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid config: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "wk, wq, rope",
    [(np.ones((15, 8)), np.ones((15, 8)), True), (np.ones((16, 8)), np.ones((16, 6)), True),
     (np.ones((16, 8, 1)), np.ones((16, 8, 1)), True),
     (quantize_tensor(np.ones((16, 8)), BfpFormat(4, 8), 1), np.ones((16, 8)), True),
     (np.ones((0, 5)), np.ones((0, 5)), False), (np.ones((4, 0)), np.ones((4, 0)), True),
     (np.ones((4, 0)), np.ones((4, 0)), False)],
    ids=["odd_d_h_with_rotary", "shape_mismatch", "not_a_matrix", "packed", "no_rows",
         "no_columns_with_rotary", "no_columns"],
)
def test_cli_run_bad_imported_weights_is_invalid_config(tmp_path, capsys, wk, wq, rope):
    # checked once before any cell runs, not failed cell by cell; plan refuses them too
    wk_path, wq_path = str(tmp_path / "wk.bfpt"), str(tmp_path / "wq.bfpt")
    tensorio.save(wk_path, wk)
    tensorio.save(wq_path, wq)
    config = _write_tiny_config(tmp_path, wk_path=wk_path, wq_path=wq_path, rope_enabled=rope)
    code = main(["run", "--config", config, "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    assert code == 2
    assert "error: invalid config:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    code = main(["plan", "--wk", wk_path, "--wq", wq_path, "--out", str(tmp_path / "plan.json"),
                 "--rope", "interleaved" if rope else "off"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "plan.json").exists()


def test_cli_run_imported_head_too_wide_for_its_base_is_invalid_config(tmp_path, capsys):
    # the config's own 16 channels fit a base of 5e-324; the imported head's 64 do not
    tensorio.save(tmp_path / "wk.bfpt", np.ones((64, 8)))
    config = _write_tiny_config(tmp_path, rope_base=5e-324, wk_path=str(tmp_path / "wk.bfpt"),
                                wq_path=str(tmp_path / "wk.bfpt"))
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: invalid config: imported d_h=64: base ")
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error")
def test_cli_run_token_count_beyond_float_range_is_invalid_config(tmp_path, capsys):
    # (n_tokens - 1) * theta cannot even be formed as a float: an angle overflow all the same
    config = tmp_path / "cfg.json"
    config.write_text('{"n_tokens": 1' + "0" * 400 + ', "seeds": [0]}')
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: invalid config: base 10000.0 overflows the rotary angles "
        f"at d_h=128, n_tokens={10**400}\n"
    )
    assert not (tmp_path / "out").exists()
    with pytest.raises(ValueError, match="^base 10000.0 overflows the rotary angles"):
        ExperimentConfig(n_tokens=10**400)


@pytest.mark.filterwarnings("error")
def test_cli_run_imported_head_overflowing_an_angle_is_invalid_config(tmp_path, capsys):
    # at 42 channels every frequency is finite, but the angle of position 5 is not
    tensorio.save(tmp_path / "wk.bfpt", np.ones((42, 8)))
    config = _write_tiny_config(tmp_path, rope_base=5e-324, wk_path=str(tmp_path / "wk.bfpt"),
                                wq_path=str(tmp_path / "wk.bfpt"))
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: invalid config: imported d_h=42: base 5e-324 overflows the rotary angles "
        "at d_h=42, n_tokens=6\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "blob, reason",
    [(b"BFPTjunk", "format version"), (b"NOPEjunk", "bad magic"),
     (b"BFPT" + struct.pack("<I", 1), "truncated")],
    ids=["unknown_version", "bad_magic", "truncated"],
)
def test_cli_run_corrupt_weight_file_names_the_file(tmp_path, capsys, blob, reason):
    # read once before any cell runs: reported as that file's fault, not a cell's
    (tmp_path / "wk.bfpt").write_bytes(blob)
    tensorio.save(tmp_path / "wq.bfpt", np.ones((16, 8)))
    config = _write_tiny_config(
        tmp_path, wk_path=str(tmp_path / "wk.bfpt"), wq_path=str(tmp_path / "wq.bfpt")
    )
    code = main(["run", "--config", config, "--out-dir", str(tmp_path / "out"), "--workers", "2"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {tmp_path / 'wk.bfpt'}: {reason}"), err
    assert "cell failed" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, seeds, sizes",
    [([], [0, 1], []), (["--workers", "1"], [0, 1], []), (["--workers", "5"], [0], []),
     (["--workers", "2"], [0, 1, 2], [2]), (["--workers", "100000"], [0, 1, 2], [3])],
    ids=["default", "one_worker", "one_seed", "two_workers", "capped_at_seed_count"],
)
def test_cli_run_pool_size(tmp_path, pool_sizes, flags, seeds, sizes):
    # serial unless --workers N > 1; never more processes than seeds
    code = main(["run", "--config", _write_tiny_config(tmp_path, seeds=seeds),
                 "--out-dir", str(tmp_path / "out"), *flags])
    assert code == 0
    assert pool_sizes == sizes


@pytest.mark.parametrize("workers", ["0", "-1", "two"])
def test_cli_run_bad_worker_count_exits_2(tmp_path, capsys, pool_sizes, workers):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", _write_tiny_config(tmp_path),
              "--out-dir", str(tmp_path / "out"), "--workers", workers])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert pool_sizes == []


@pytest.mark.parametrize(
    "entry",
    [{"n_tokens": 10**15, "d_model": 256}, {"d_h": 128, "d_model": 10**15}],
    ids=["n_tokens", "d_model"],
)
def test_cli_run_size_beyond_memory_is_a_failed_cell(tmp_path, capsys, entry):
    # the first array, 10**15 x 256 activations (2e18 bytes) or a 128 x 10**15
    # key projection (1e18 bytes), exceeds even a 57-bit address space, so its
    # allocation fails at once and no memory is touched
    code = main(["run", "--config", _write_tiny_config(tmp_path, **entry),
                 "--out-dir", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: experiment cell failed: ")
    assert not (tmp_path / "out").exists()


def test_cli_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_cli_plan_and_inspect(tmp_path, capsys):
    rng = np.random.default_rng(6)
    tensorio.save(tmp_path / "wk.bfpt", rng.normal(size=(8, 4)))
    tensorio.save(tmp_path / "wq.bfpt", rng.normal(size=(8, 4)))
    code = main(["plan", "--wk", str(tmp_path / "wk.bfpt"), "--wq", str(tmp_path / "wq.bfpt"),
                 "--out", str(tmp_path / "plan.json"), "--rope", "half_split"])
    assert code == 0
    doc = json.loads((tmp_path / "plan.json").read_text())
    assert sorted(doc["pi"]) == list(range(8))
    assert doc["rope"] is not None
    capsys.readouterr()

    assert main(["inspect", str(tmp_path / "wk.bfpt")]) == 0
    out = capsys.readouterr().out
    assert "float64" in out and "(8, 4)" in out


def test_cli_plan_rope_off(tmp_path):
    rng = np.random.default_rng(7)
    tensorio.save(tmp_path / "wk.bfpt", rng.normal(size=(8, 4)))
    tensorio.save(tmp_path / "wq.bfpt", rng.normal(size=(8, 4)))
    code = main(["plan", "--wk", str(tmp_path / "wk.bfpt"), "--wq", str(tmp_path / "wq.bfpt"),
                 "--out", str(tmp_path / "plan.json"), "--rope", "off"])
    assert code == 0
    assert json.loads((tmp_path / "plan.json").read_text())["rope"] is None


@pytest.mark.parametrize("base", ["0", "-10000", "inf", "nan", "5e-324"])
def test_cli_plan_bad_base_exits_2(tmp_path, capsys, base):
    # 64 channels: 5e-324 ** (-62/64) overflows, where an 8-channel head's frequencies fit
    rng = np.random.default_rng(8)
    tensorio.save(tmp_path / "wk.bfpt", rng.normal(size=(64, 4)))
    tensorio.save(tmp_path / "wq.bfpt", rng.normal(size=(64, 4)))
    code = main(["plan", "--wk", str(tmp_path / "wk.bfpt"), "--wq", str(tmp_path / "wq.bfpt"),
                 "--out", str(tmp_path / "plan.json"), "--base", base])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


def _save_weight_pair(tmp_path, seed=6):
    rng = np.random.default_rng(seed)
    tensorio.save(tmp_path / "wk.bfpt", rng.normal(size=(8, 4)))
    tensorio.save(tmp_path / "wq.bfpt", rng.normal(size=(8, 4)))
    return str(tmp_path / "wk.bfpt"), str(tmp_path / "wq.bfpt")


def test_cli_plan_packed_weights_exits_2(tmp_path, capsys):
    packed = quantize_tensor(np.ones((8, 4)), BfpFormat(4, 4), 1)
    tensorio.save(tmp_path / "wk.bfpt", packed)
    tensorio.save(tmp_path / "wq.bfpt", packed)
    code = main(["plan", "--wk", str(tmp_path / "wk.bfpt"), "--wq", str(tmp_path / "wq.bfpt"),
                 "--out", str(tmp_path / "plan.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "plan.json").exists()


def test_cli_empty_packed_weights_with_huge_block_size_exit_2(tmp_path, capsys, deadline):
    # an empty tensor in blocks of 2**32 - 1: refused as packed, without walking its fields
    packed = quantize_tensor(np.zeros(0), BfpFormat(4, 2**32 - 1))
    tensorio.save(tmp_path / "wk.bfpt", packed)
    wk = wq = str(tmp_path / "wk.bfpt")
    config = _write_tiny_config(tmp_path, wk_path=wk, wq_path=wq)
    with deadline(10):
        assert main(["plan", "--wk", wk, "--wq", wq, "--out", str(tmp_path / "plan.json")]) == 2
        assert capsys.readouterr().err == (
            "error: weight files must hold float tensors, not packed blocks\n"
        )
        assert main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: invalid config: weight files must")
    assert not (tmp_path / "plan.json").exists() and not (tmp_path / "out").exists()


def test_cli_huge_finite_weights(tmp_path, capsys):
    # squared, weights of 1e200 overflow: the plan sorts on finite norms, with
    # no warning, and a head of 1e160 outliers is a failed cell, not a warning
    tensorio.save(tmp_path / "wk.bfpt", np.full((8, 4), 1e200))
    tensorio.save(tmp_path / "wq.bfpt", np.ones((8, 4)))
    code = main(["plan", "--wk", str(tmp_path / "wk.bfpt"), "--wq", str(tmp_path / "wq.bfpt"),
                 "--out", str(tmp_path / "plan.json")])
    assert code == 0
    assert json.loads((tmp_path / "plan.json").read_text())["pi"] == list(range(8))
    capsys.readouterr()
    config = _write_tiny_config(tmp_path, outlier_scale=1e160)
    assert main(["run", "--config", config, "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment cell failed: block (0, ") and err.count("\n") == 1


_BFP_8 = {"formats": [["BFP16_8", "BFP12_8"]]}


@pytest.mark.parametrize(
    "entry, imported",
    [({"outlier_scale": 1e308, "base_std": 10}, None), ({"base_std": 1e300}, None),
     ({"outlier_scale": 1e308, "formats": [["BFP16_32", "BFP12_32"]]}, None),
     ({}, (1e307, 1.0)), (_BFP_8, (1e308, 1.0)), (_BFP_8, (1.0, 1e308))],
    ids=["outlier_weights", "scores", "outlier_weights_bfp", "imported_scores",
         "imported_keys_bfp", "imported_queries_bfp"],
)
def test_cli_run_head_overflowing_float64_is_a_failed_cell(tmp_path, capsys, entry, imported):
    # weights, keys, queries or scores beyond float64 fail the cell and name the
    # overflow, with no numpy warning (tier-1 turns warnings into errors) and no report
    doc = {"seeds": [0], "formats": [["FP-lossless", "FP-lossless"]], **entry}
    if imported is not None:
        for name, value in zip(("wk", "wq"), imported):
            tensorio.save(tmp_path / f"{name}.bfpt", np.full((16, 8), value))
        doc.update(d_h=16, d_model=8, n_outlier_channels=2,
                   wk_path=str(tmp_path / "wk.bfpt"), wq_path=str(tmp_path / "wq.bfpt"))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(doc))
    assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: experiment cell failed: ") and err.count("\n") == 1, err
    assert "overflow float64" in err, err
    assert not (tmp_path / "out").exists()


def test_cli_plan_missing_weight_file_exits_1(tmp_path, capsys):
    _, wq = _save_weight_pair(tmp_path)
    missing = str(tmp_path / "missing.bfpt")
    code = main(["plan", "--wk", missing, "--wq", wq, "--out", str(tmp_path / "plan.json")])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {missing}: ")
    assert not (tmp_path / "plan.json").exists()


def test_cli_plan_out_in_missing_directory_exits_1(tmp_path, capsys):
    wk, wq = _save_weight_pair(tmp_path)
    out = str(tmp_path / "no-such-dir" / "plan.json")
    assert main(["plan", "--wk", wk, "--wq", wq, "--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"error: {out}: ")


def test_cli_run_out_dir_beneath_a_file_exits_1(tmp_path, capsys):
    (tmp_path / "file").write_text("not a directory")
    out_dir = str(tmp_path / "file" / "out")
    code = main(["run", "--config", _write_tiny_config(tmp_path), "--out-dir", out_dir])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out_dir}: "), err
    assert "cell failed" not in err


def test_cli_plan_huge_dims_exits_1(tmp_path, capsys):
    # 65536**4 elements wrap a 64-bit count to 0; the file must still be rejected
    path = tmp_path / "huge.bfpt"
    path.write_bytes(tensorio.MAGIC + struct.pack("<7I", 1, 1, 4, *[65536] * 4))
    code = main(["plan", "--wk", str(path), "--wq", str(path), "--out", str(tmp_path / "p.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_inspect_missing_file_exits_1(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.bfpt")]) == 1
    assert "missing.bfpt" in capsys.readouterr().err


def test_cli_inspect_garbage_exits_1(tmp_path, capsys):
    path = tmp_path / "junk.bfpt"
    path.write_bytes(b"garbage here")
    assert main(["inspect", str(path)]) == 1
    assert "magic" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    # rejected by the parser before any file is touched; there is no sort-order flag
    for argv in (["frobnicate"], ["run", "--order", "asc"],
                 ["plan", "--wk", "k", "--wq", "q", "--out", "p", "--order", "asc"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
