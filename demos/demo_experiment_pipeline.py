"""End-to-end pipeline: weight files, a persisted plan, and a sweep report.

Everything the command line does is plain library calls; this script walks
the same path in-process, then shows the equivalent commands.

Run: python demos/demo_experiment_pipeline.py
"""

import json
import os
import tempfile

from bfpksort import OutlierSpec, gen_outlier_head, tensorio
from bfpksort.cli import ExperimentConfig, main, run

# the directory and everything written into it are removed when the block ends
with tempfile.TemporaryDirectory(prefix="bfpksort-demo-") as workdir:
    print("working in", workdir)

    # --- export a head to tensor files ---------------------------------------

    weights = gen_outlier_head(64, 128, OutlierSpec(3, 25.0, seed=11))
    wk_path = os.path.join(workdir, "wk.bfpt")
    wq_path = os.path.join(workdir, "wq.bfpt")
    tensorio.save(wk_path, weights.w_k)
    tensorio.save(wq_path, weights.w_q)
    print("\n$ bfpksort inspect wk.bfpt")
    main(["inspect", wk_path])

    # --- persist the compile-time plan ----------------------------------------

    plan_path = os.path.join(workdir, "plan.json")
    print("\n$ bfpksort plan --wk wk.bfpt --wq wq.bfpt --out plan.json")
    main(["plan", "--wk", wk_path, "--wq", wq_path, "--out", plan_path])
    doc = json.loads(open(plan_path).read())
    print("plan moves channel", doc["pi"][-1], "to the last slot (largest norm)")

    # --- run a small sweep -----------------------------------------------------

    cfg = ExperimentConfig(
        d_h=64,
        d_model=128,
        n_tokens=32,
        n_outlier_channels=3,
        outlier_scale=25.0,
        formats=(("FP-lossless", "FP-lossless"), ("BFP16_32", "BFP12_32"), ("BFP16_16", "BFP12_16")),
        seeds=tuple(range(8)),
    )
    csv_path, json_path = run(cfg, out_dir=workdir, workers=1)
    print("\nreport.csv:")
    print(open(csv_path).read())

    cells = json.loads(open(json_path).read())["cells"]
    print("per-cell detail rows:", len(cells), "(formats x seeds x sorted-flag)")
    print("first cell:", {k: cells[0][k] for k in ("format_k", "sorted", "seed", "mse")})

    print("\nthe same sweep from a shell:")
    print("  bfpksort run --config cfg.json --out-dir out/")
    print("  BFPKSORT_SEED=0 bfpksort run --config cfg.json --out-dir smoke/")
