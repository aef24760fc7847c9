"""Smoke test of the benchmark itself.

Runs every workload at the tiny size, untraced and traced, and checks that all
correctness checks pass and that every metric is reported.  Run with

    python3 -m pytest -q perfbench/smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

#: metric names each workload prints in its human-readable lines
PRINTED = {
    "sweep-default": ("setup_s", "sweep_serial_s", "sweep_pool_s", "peak_mib", "failed_frac"),
    "decode-4k": ("setup_s", "decode_s", "decode_peak_mib", "failed_frac"),
    "kcache-io": ("setup_s", "kcache_save_s", "kcache_load_s", "kcache_save_mib_s",
                  "kcache_load_mib_s", "peak_mib", "failed_frac"),
}

#: per-layer calls each workload must make (the others may be 0)
CALLED = {
    "sweep-default": ("rope.rope_apply", "simharness.gen_outlier_head",
                      "simharness.gen_activations", "ksort.plan_head", "cli.run_cell",
                      "simharness.simulate_decode", "simharness.score_max_abs_err",
                      "simharness.error_metrics", "bfp.quantize_tensor", "bfp.dequantize"),
    "decode-4k": ("rope.rope_apply", "simharness.simulate_decode",
                  "simharness.score_max_abs_err", "simharness.error_metrics",
                  "bfp.quantize_tensor", "bfp.dequantize"),
    "kcache-io": ("bfp.pack", "bfp.unpack", "bfp.quantize_tensor", "bfp.dequantize",
                  "tensorio.save", "tensorio.load"),
}


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    return doc, "\n".join(lines[:-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_untraced_reports_every_end_to_end_metric(workload):
    doc, text = result(bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", "0", "--size", "tiny"))
    assert set(doc["metrics"]) == set(run.END_TO_END)
    for name, metric in doc["metrics"].items():
        assert metric["unit"] == run.END_TO_END[name]
        assert metric["value"] > 0, name
    for name in PRINTED[workload]:
        assert f" {name} " in text, name
    assert '"blas_threads"' in text and '"OPENBLAS_NUM_THREADS"' in text


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_reports_every_per_layer_metric(workload):
    doc, text = result(bench("--workload", workload, "--seed", "3", "--seconds", "0.5",
                             "--trace", "1", "--size", "tiny"))
    assert set(doc["metrics"]) == set(run.PER_LAYER)
    for layer in CALLED[workload]:
        assert doc["metrics"][f"{layer}.calls"]["value"] > 0, layer
        assert doc["metrics"][f"{layer}.self_s"]["value"] > 0, layer
    assert os.path.isfile(os.path.join(run.WORK, f"spans-{workload}-seed3.jsonl"))


def test_default_sweep_matches_recorded_digests():
    # seed 0 at full size is the default ExperimentConfig: reports are digest-checked
    doc, _ = result(bench("--workload", "sweep-default", "--seed", "0", "--seconds", "0.1",
                          "--trace", "0"))
    assert doc["attempted"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "kcache-io", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
