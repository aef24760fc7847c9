"""Experiment runner: config handling, report shape, reproducibility, exits."""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np
import pytest

from bfpksort import BfpFormat, quantize_tensor, tensorio
from bfpksort.cli import (
    DEFAULT_GRID,
    ExperimentConfig,
    emit_report,
    main,
    resolve_format,
    run,
    run_cell,
)


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
    assert resolve_format("lossless") is None
    assert resolve_format("BFP12_64").mantissa_bits == 4
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


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(seeds=())
    with pytest.raises(ValueError):
        tiny_config(order="upwards")
    with pytest.raises(ValueError):
        tiny_config(formats=(("BFP9_8", "BFP12_8"),))
    with pytest.raises(ValueError):
        tiny_config(wk_path="only_one.bfpt")


# ---------------------------------------------------------------------------
# cells and reports
# ---------------------------------------------------------------------------


def test_lossless_cell_reports_zero_mse():
    rows = run_cell(tiny_config(), 0, seed=0)
    assert len(rows) == 2
    for row in rows:
        assert row["mse"] == 0.0
        assert row["logits_max_abs_err"] == 0.0


def test_quantized_cell_reports_both_variants():
    rows = run_cell(tiny_config(), 1, seed=0)
    assert [r["sorted"] for r in rows] == [False, True]
    for row in rows:
        assert row["mse"] > 0.0
        assert row["bits_per_element"] == 4 + 8 / 8
        assert row["cache_bytes"] == 6 * 2 * 5  # T * blocks/token * bytes/block


def test_emit_report_zero_rows_is_header_only():
    csv_text, json_text = emit_report(tiny_config(formats=()), [])
    assert csv_text == "format_q,format_k,mse_original,mse_sorted\n"
    doc = json.loads(json_text)
    assert doc["cells"] == []
    assert doc["config"]["d_h"] == 16


def test_emit_report_is_parseable_csv(tmp_path):
    import csv as csvmod

    cfg = tiny_config()
    rows = [row for pair in (0, 1) for seed in cfg.seeds for row in run_cell(cfg, pair, seed)]
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
    rows = [row for pair in (0, 1) for seed in cfg.seeds for row in run_cell(cfg, pair, seed)]
    csv_text, _ = emit_report(cfg, rows)
    assert csv_text == (
        "format_q,format_k,mse_original,mse_sorted\n"
        "FP-lossless,FP-lossless,0.0,0.0\n"
        "BFP16_8,BFP12_8,6.019063884329687,6.563816693763604\n"
    )


def test_failed_cell_exits_nonzero(tmp_path, capsys):
    # an unquantizable imported head must fail the run loudly, not silently
    wk = np.full((16, 8), np.inf)
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
    with np.errstate(invalid="ignore"):  # inf @ matrix warns before the raise
        code = main(["run", "--config", str(path), "--out-dir", str(tmp_path), "--workers", "1"])
    assert code == 1
    assert "cell failed" in capsys.readouterr().err


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
     {"d_h": 3}],
    ids=["outlier_scale", "outlier_scale_beyond_float", "d_model", "seeds", "d_h"],
)
def test_cli_run_bad_value_is_invalid_config(tmp_path, capsys, entry):
    # rejected before any cell runs; a fractional seed is not rounded
    code = main(["run", "--config", _write_tiny_config(tmp_path, **entry),
                 "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    assert code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "wk, wq",
    [(np.ones((15, 8)), np.ones((15, 8))), (np.ones((16, 8)), np.ones((16, 6))),
     (np.ones((16, 8, 1)), np.ones((16, 8, 1))),
     (quantize_tensor(np.ones((16, 8)), BfpFormat(4, 8), 1), np.ones((16, 8)))],
    ids=["odd_d_h_with_rotary", "shape_mismatch", "not_a_matrix", "packed"],
)
def test_cli_run_bad_imported_weights_is_invalid_config(tmp_path, capsys, wk, wq):
    # checked once before any cell runs, not failed cell by cell
    tensorio.save(tmp_path / "wk.bfpt", wk)
    tensorio.save(tmp_path / "wq.bfpt", wq)
    config = _write_tiny_config(
        tmp_path, wk_path=str(tmp_path / "wk.bfpt"), wq_path=str(tmp_path / "wq.bfpt")
    )
    code = main(["run", "--config", config, "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    assert code == 2
    assert "error: invalid config:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_missing_config_exits_1(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_cli_seed_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("BFPKSORT_SEED", "5")
    code = main(["run", "--config", _write_tiny_config(tmp_path),
                 "--out-dir", str(tmp_path / "out"), "--workers", "1"])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert {cell["seed"] for cell in doc["cells"]} == {5}


def test_cli_order_override(tmp_path):
    code = main(["run", "--config", _write_tiny_config(tmp_path),
                 "--out-dir", str(tmp_path / "out"), "--workers", "1", "--order", "desc"])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["config"]["order"] == "descending"


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


@pytest.mark.parametrize("base", ["0", "-10000", "inf", "nan"])
def test_cli_plan_bad_base_exits_2(tmp_path, capsys, base):
    rng = np.random.default_rng(8)
    tensorio.save(tmp_path / "wk.bfpt", rng.normal(size=(8, 4)))
    tensorio.save(tmp_path / "wq.bfpt", rng.normal(size=(8, 4)))
    code = main(["plan", "--wk", str(tmp_path / "wk.bfpt"), "--wq", str(tmp_path / "wq.bfpt"),
                 "--out", str(tmp_path / "plan.json"), "--base", base])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "plan.json").exists()


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
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
