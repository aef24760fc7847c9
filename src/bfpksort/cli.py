"""Experiment runner: sweep formats and block sizes over synthetic or
imported heads and emit one-row-per-cell error reports.

Subcommands:

* ``run``      execute a sweep described by a JSON config, writing
               ``report.csv`` (one aggregate row per format pair, original
               vs sorted) and ``report.json`` (full per-cell detail).
* ``plan``     run the compile-time sorting pass on weight tensors from
               files and persist the permutation + rotary tables as JSON.
* ``inspect``  dump a tensor container header.

Reports are deterministic: the same config produces byte-identical files.
The ``BFPKSORT_SEED`` environment variable overrides the config seed list
with a single seed (handy for smoke tests).
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bfp import BfpFormat, format_from_name
from .errors import BfpKsortError, InvalidConfig
from .ksort import HeadWeights, plan_head
from .rope import DEFAULT_BASE, LAYOUTS, RopeTables, default_rope_tables
from .simharness import (
    ErrorReport,
    OutlierSpec,
    error_metrics,
    footprint,
    gen_activations,
    gen_outlier_head,
    score_max_abs_err,
    simulate_decode,
)
from . import tensorio

__all__ = ["ExperimentConfig", "run", "emit_report", "main"]

LOSSLESS_NAMES = ("lossless", "fp-lossless")

#: Format grid used when the config does not name one: a lossless baseline
#: plus low-precision keys with higher-precision queries at matching block
#: sizes 128/64/32.
DEFAULT_GRID = (
    ("FP-lossless", "FP-lossless"),
    ("BFP16_128", "BFP12_128"),
    ("BFP16_64", "BFP12_64"),
    ("BFP16_32", "BFP12_32"),
)

SEED_ENV_VAR = "BFPKSORT_SEED"

#: ``--order`` flag values and the sort orders they select.
ORDER_FLAGS = {"asc": "ascending", "desc": "descending"}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # compared, not converted, so an integer beyond float range is rejected, not overflowed
    big = sys.float_info.max
    return isinstance(value, (int, float)) and not isinstance(value, bool) and -big <= value <= big


def resolve_format(name: str) -> BfpFormat | None:
    """Preset name to format; ``None`` stands for lossless float storage."""
    if name.lower() in LOSSLESS_NAMES:
        return None
    return format_from_name(name)


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved sweep description; every report echoes one of these."""

    d_h: int = 128
    d_model: int = 256
    n_tokens: int = 64
    n_outlier_channels: int = 4
    outlier_scale: float = 50.0
    base_std: float = 1.0
    wk_path: str | None = None
    wq_path: str | None = None
    formats: tuple[tuple[str, str], ...] = DEFAULT_GRID
    order: str = "ascending"
    rope_enabled: bool = True
    rope_layout: str = "interleaved"
    rope_base: float = DEFAULT_BASE
    seeds: tuple[int, ...] = tuple(range(20))

    def __post_init__(self) -> None:
        # validate only, never coerce: report.json echoes the config as given
        for name, low in (("d_h", 1), ("d_model", 1), ("n_tokens", 0), ("n_outlier_channels", 0)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.n_outlier_channels > self.d_h:
            raise ValueError(f"{self.n_outlier_channels} outlier channels > d_h={self.d_h}")
        for name in ("outlier_scale", "base_std", "rope_base"):
            value = getattr(self, name)
            if not _is_finite_number(value):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        OutlierSpec(self.n_outlier_channels, self.outlier_scale, self.base_std)  # range checks
        if self.rope_base <= 0:
            raise ValueError(f"rope_base must be positive, got {self.rope_base!r}")
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        if not all(_is_int(s) and s >= 0 for s in self.seeds):
            raise ValueError(f"seeds must be non-negative integers, got {list(self.seeds)!r}")
        if (self.wk_path is None) != (self.wq_path is None):
            raise ValueError("wk_path and wq_path must be given together")
        if not all(p is None or isinstance(p, str) for p in (self.wk_path, self.wq_path)):
            raise ValueError("wk_path and wq_path must be strings")
        if self.order not in ORDER_FLAGS.values():
            raise ValueError(f"bad sort order {self.order!r}")
        if not isinstance(self.rope_enabled, bool):
            raise ValueError(f"rope_enabled must be true or false, got {self.rope_enabled!r}")
        if self.rope_layout not in LAYOUTS:
            raise ValueError(f"bad rope layout {self.rope_layout!r}")
        if self.rope_enabled and self.d_h % 2:
            raise ValueError(f"rotary embeddings need an even d_h, got {self.d_h}")
        for pair in self.formats:
            if len(pair) != 2 or not all(isinstance(name, str) for name in pair):
                raise ValueError(f"a format entry must be a pair of names, got {pair!r}")
            for name in pair:
                resolve_format(name)

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        with open(path) as fh:
            doc = json.load(fh)
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if "formats" in doc:
            doc["formats"] = tuple(tuple(pair) for pair in doc["formats"])
        if "seeds" in doc:
            doc["seeds"] = tuple(doc["seeds"])
        return cls(**doc)

    def to_jsonable(self) -> dict:
        doc = dataclasses.asdict(self)
        doc["formats"] = [list(pair) for pair in self.formats]
        doc["seeds"] = list(self.seeds)
        return doc


def _lossless_report() -> ErrorReport:
    from fractions import Fraction

    return ErrorReport(
        mse=0.0,
        sqnr_db=math.inf,
        max_abs_err=0.0,
        bits_per_element=Fraction(64),  # float64 passthrough
    )


def _head_for_seed(
    cfg: ExperimentConfig, seed: int, imported: tuple[np.ndarray, np.ndarray] | None
) -> HeadWeights:
    if imported is not None:
        return HeadWeights(w_k=imported[0], w_q=imported[1])
    spec = OutlierSpec(
        n_outlier_channels=cfg.n_outlier_channels,
        outlier_scale=cfg.outlier_scale,
        base_std=cfg.base_std,
        seed=seed,
    )
    return gen_outlier_head(cfg.d_h, cfg.d_model, spec)


def run_cell(
    cfg: ExperimentConfig,
    pair_index: int,
    seed: int,
    imported: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[dict]:
    """Evaluate one (format pair, seed) cell: unsorted and sorted rows."""
    name_q, name_k = cfg.formats[pair_index]
    fmt_q, fmt_k = resolve_format(name_q), resolve_format(name_k)
    weights = _head_for_seed(cfg, seed, imported)
    X = gen_activations(cfg.n_tokens, weights.d_model, seed)
    tables = (
        default_rope_tables(weights.d_h, cfg.rope_base, cfg.rope_layout)
        if cfg.rope_enabled
        else None
    )
    plan = plan_head(weights, tables, order=cfg.order)

    rows = []
    for sorted_flag, use_plan in ((False, None), (True, plan)):
        trace = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=use_plan)
        if trace.key_cache is not None:
            report = error_metrics(trace.keys, trace.key_cache)
            cache_bytes = footprint(cfg.n_tokens, weights.d_h, fmt_k)
        else:
            report = _lossless_report()
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


def _float_cell(value: float) -> str:
    return repr(float(value))


def emit_report(cfg: ExperimentConfig, rows: list[dict]) -> tuple[str, str]:
    """Render the aggregate CSV and the full JSON document, byte-stable."""
    lines = ["format_q,format_k,mse_original,mse_sorted"]
    for name_q, name_k in cfg.formats:
        original = [
            r["mse"] for r in rows
            if (r["format_q"], r["format_k"]) == (name_q, name_k) and not r["sorted"]
        ]
        sorted_ = [
            r["mse"] for r in rows
            if (r["format_q"], r["format_k"]) == (name_q, name_k) and r["sorted"]
        ]
        lines.append(
            f"{name_q},{name_k},"
            f"{_float_cell(float(np.mean(original)))},{_float_cell(float(np.mean(sorted_)))}"
        )
    csv_text = "\n".join(lines) + "\n"

    def jsonable(value):
        if isinstance(value, float) and not math.isfinite(value):
            return None
        return value

    doc = {
        "config": cfg.to_jsonable(),
        "cells": [{k: jsonable(v) for k, v in row.items()} for row in rows],
    }
    json_text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return csv_text, json_text


def run(
    cfg: ExperimentConfig, out_dir: str = ".", workers: int | None = None
) -> tuple[str, str]:
    """Execute the sweep and write ``report.csv`` / ``report.json``.

    Cells are independent and dispatched to a process pool when
    ``workers > 1``; row order in the report is fixed by the config, not by
    completion order.  An imported head that no cell could run raises
    :class:`InvalidConfig` before any cell starts.
    """
    imported = None
    if cfg.wk_path is not None:
        wk, wq = tensorio.load(cfg.wk_path), tensorio.load(cfg.wq_path)
        if not isinstance(wk, np.ndarray) or not isinstance(wq, np.ndarray):
            raise InvalidConfig("imported weight files must hold float tensors")
        if wk.ndim != 2 or wk.shape != wq.shape:
            raise InvalidConfig(
                f"imported w_k and w_q must be matrices of one shape, "
                f"got {wk.shape} and {wq.shape}"
            )
        if cfg.rope_enabled and wk.shape[0] % 2:
            raise InvalidConfig(f"rotary embeddings need an even d_h, imported d_h={wk.shape[0]}")
        imported = (np.asarray(wk, np.float64), np.asarray(wq, np.float64))

    tasks = [
        (pair_index, seed)
        for pair_index in range(len(cfg.formats))
        for seed in cfg.seeds
    ]
    if workers is None:
        workers = os.cpu_count() or 1
    if workers > 1 and len(tasks) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(run_cell, *zip(*[(cfg, p, s, imported) for p, s in tasks]))
            )
    else:
        results = [run_cell(cfg, p, s, imported) for p, s in tasks]

    rows = [row for cell_rows in results for row in cell_rows]
    csv_text, json_text = emit_report(cfg, rows)
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    with open(csv_path, "w", newline="") as fh:
        fh.write(csv_text)
    with open(json_path, "w", newline="") as fh:
        fh.write(json_text)
    return csv_path, json_path


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = (
            ExperimentConfig.from_json_file(args.config)
            if args.config
            else ExperimentConfig()
        )
        if args.order:
            cfg = dataclasses.replace(cfg, order=ORDER_FLAGS[args.order])
        env_seed = os.environ.get(SEED_ENV_VAR)
        if env_seed is not None:
            cfg = dataclasses.replace(cfg, seeds=(int(env_seed),))
    except (ValueError, TypeError) as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {args.config}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    try:
        csv_path, json_path = run(cfg, out_dir=args.out_dir, workers=args.workers)
    except OSError as exc:
        print(f"error: {exc.filename or args.out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except InvalidConfig as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 2
    except (BfpKsortError, ValueError) as exc:
        print(f"error: experiment cell failed: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    try:
        wk = tensorio.load(args.wk)
        wq = tensorio.load(args.wq)
    except OSError as exc:
        print(f"error: {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except BfpKsortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not isinstance(wk, np.ndarray) or not isinstance(wq, np.ndarray):
        print("error: plan requires float weight tensors, not packed blocks", file=sys.stderr)
        return 2
    try:
        weights = HeadWeights(w_k=np.asarray(wk, np.float64), w_q=np.asarray(wq, np.float64))
        tables: RopeTables | None = None
        if args.rope != "off":
            tables = default_rope_tables(weights.d_h, args.base, args.rope)
        order = ORDER_FLAGS[args.order]
        plan = plan_head(weights, tables, order=order)
    except (BfpKsortError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(args.out, "w") as fh:
            fh.write(plan.to_json() + "\n")
    except OSError as exc:
        print(f"error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out} (d_h={weights.d_h}, order={order}, rope={args.rope})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    try:
        info = tensorio.describe(args.tensorfile)
    except OSError as exc:
        print(f"error: {args.tensorfile}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    except BfpKsortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for key, value in info.items():
        print(f"{key}: {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfpksort",
        description="Block-format key-cache quantization experiments with channel sorting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    p_run.add_argument("--config", help="JSON config path (defaults used when omitted)")
    p_run.add_argument("--out-dir", default=".", help="directory for report.csv/report.json")
    p_run.add_argument("--workers", type=int, default=None, help="process pool size")
    p_run.add_argument("--order", choices=tuple(ORDER_FLAGS), help="override sort order")
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser("plan", help="compute a channel-sorting plan for one head")
    p_plan.add_argument("--wk", required=True, help="key projection tensor file")
    p_plan.add_argument("--wq", required=True, help="query projection tensor file")
    p_plan.add_argument("--out", required=True, help="output JSON path")
    p_plan.add_argument("--rope", choices=("off",) + LAYOUTS, default="interleaved")
    p_plan.add_argument("--base", type=float, default=DEFAULT_BASE)
    p_plan.add_argument("--order", choices=tuple(ORDER_FLAGS), default="asc")
    p_plan.set_defaults(func=_cmd_plan)

    p_inspect = sub.add_parser("inspect", help="print a tensor container header")
    p_inspect.add_argument("tensorfile")
    p_inspect.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
