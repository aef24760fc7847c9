"""Experiment runner: sweep formats and block sizes over synthetic or
imported heads and emit one-row-per-cell error reports.

Subcommands:

* ``run``      execute a sweep described by a JSON config, writing
               ``report.csv`` (one aggregate row per format pair, original
               vs sorted) and ``report.json`` (full per-cell detail).
* ``plan``     run the compile-time sorting pass on weight tensors from
               files and persist the permutation + rotary tables as JSON.
* ``inspect``  dump a tensor container header.

A seed is the sweep's unit of work: its head, activations, rotary tables
and sorting plan are built once and shared by every format pair.  Seeds run
serially unless ``--workers N`` asks for a process pool of N > 1.

Reports are deterministic: the same config produces byte-identical files,
serial or pooled.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .bfp import BfpFormat, format_from_name
from .errors import (
    BfpKsortError,
    CorruptFile,
    InvalidConfig,
    NotATensorFile,
    UnsupportedVersion,
)
from .errors import _require_int, _require_real
from .ksort import HeadWeights, plan_head
from .rope import DEFAULT_BASE, LAYOUTS, RopeTables, default_rope_tables
from .simharness import (
    OutlierSpec,
    error_metrics,
    gen_activations,
    gen_outlier_head,
    score_max_abs_err,
    simulate_decode,
)
from . import tensorio

__all__ = ["ExperimentConfig", "run", "emit_report", "main"]

_LOSSLESS = "FP-lossless"

#: Format grid used when the config does not name one: a lossless baseline
#: plus low-precision keys with higher-precision queries at matching block
#: sizes 128/64/32.
DEFAULT_GRID = (
    (_LOSSLESS, _LOSSLESS),
    ("BFP16_128", "BFP12_128"),
    ("BFP16_64", "BFP12_64"),
    ("BFP16_32", "BFP12_32"),
)


def _reject_repeats(name: str, items) -> None:
    # a repeated seed or pair would be run, written and averaged twice
    for item, count in collections.Counter(items).items():
        if count > 1:
            raise ValueError(f"{name} must not repeat: {json.dumps(item)} appears {count} times")


def resolve_format(name: str) -> BfpFormat | None:
    """Format name to format; ``"FP-lossless"`` gives ``None``, lossless float
    storage.  Names are exact: see :func:`bfpksort.bfp.format_from_name`."""
    return None if name == _LOSSLESS else format_from_name(name)


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
        # container types first, so a string or an object is not read as an array; messages
        # spell values as JSON (repr where JSON has no spelling)
        formats, seeds = self.formats, self.seeds
        if not (isinstance(formats, (list, tuple))
                and all(isinstance(pair, (list, tuple)) and len(pair) == 2 for pair in formats)):
            raise ValueError(f"formats must be an array of [format_q, format_k] arrays, "
                             f"got {json.dumps(formats, default=repr)}")
        if not isinstance(seeds, (list, tuple)):
            raise ValueError(f"seeds must be an array of integers, "
                             f"got {json.dumps(seeds, default=repr)}")
        # lists or tuples are stored as tuples, so equal configs hash alike, and report.json
        # echoes them as the same arrays; every other value is validated, never coerced
        object.__setattr__(self, "formats", tuple(tuple(pair) for pair in formats))
        object.__setattr__(self, "seeds", tuple(seeds))
        for name, low in (("d_h", 1), ("d_model", 1), ("n_tokens", 0)):
            _require_int(name, getattr(self, name), low)
        OutlierSpec(self.n_outlier_channels, self.outlier_scale, self.base_std)  # checks all three
        if self.n_outlier_channels > self.d_h:
            raise ValueError(f"{self.n_outlier_channels} outlier channels > d_h={self.d_h}")
        _require_real("rope_base", self.rope_base, 0, above=True)
        if not self.seeds:
            raise ValueError("seeds must be non-empty")
        for seed in self.seeds:
            _require_int("a seed", seed)
        _reject_repeats("seeds", self.seeds)
        if (self.wk_path is None) != (self.wq_path is None):
            raise ValueError("wk_path and wq_path must be given together")
        if not all(p is None or isinstance(p, str) for p in (self.wk_path, self.wq_path)):
            raise ValueError("wk_path and wq_path must be strings")
        if self.order != "ascending":  # the one sort order; report.json still echoes it
            raise ValueError(f"order must be 'ascending', got {self.order!r}")
        if not isinstance(self.rope_enabled, bool):
            raise ValueError(f"rope_enabled must be true or false, got {self.rope_enabled!r}")
        if self.rope_layout not in LAYOUTS:
            raise ValueError(f"bad rope layout {self.rope_layout!r}")
        self.rope_tables(self.d_h)
        if not self.formats:
            raise ValueError("formats must name at least one [format_q, format_k] pair")
        for pair in self.formats:
            if not all(isinstance(name, str) for name in pair):
                raise ValueError(f"a format entry must be a pair of names, got {pair!r}")
            for name in pair:
                resolve_format(name)
        _reject_repeats("formats", self.formats)

    def rope_tables(self, d_h: int) -> RopeTables | None:
        """The rotary tables of a ``d_h``-wide head, ``None`` with rotary off.

        An odd ``d_h``, or a base so small that a frequency or the angle of
        the last position (``(n_tokens - 1) * max(theta)``) overflows, raises
        :class:`ValueError`.
        """
        if not self.rope_enabled:
            return None
        tables = default_rope_tables(d_h, self.rope_base, self.rope_layout)
        # a token count beyond float range is compared as an int, never converted
        if self.n_tokens > sys.float_info.max or not math.isfinite(
            (self.n_tokens - 1) * float(tables.theta.max())
        ):
            raise ValueError(
                f"base {self.rope_base} overflows the rotary angles "
                f"at d_h={d_h}, n_tokens={self.n_tokens}"
            )
        return tables

    @classmethod
    def from_json_file(cls, path: str) -> "ExperimentConfig":
        """Read and validate a config.  A file that holds no valid config
        raises :class:`InvalidConfig`; one that cannot be read, ``OSError``."""
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError(f"a config must be a JSON object, got {json.dumps(doc)}")
            unknown = set(doc) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            return cls(**doc)
        except RecursionError:  # JSON nested deeper than the parser recurses
            raise InvalidConfig("config nests too deeply") from None
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(str(exc)) from None


def _load_head(wk_path: str, wq_path: str) -> HeadWeights:
    """The head whose key/query projections two float tensor files hold.

    Files that cannot form a head (packed blocks, or matrices that
    :class:`HeadWeights` refuses) raise :class:`InvalidConfig`; unreadable or
    damaged files raise as :func:`tensorio.load` does.
    """
    wk, wq = tensorio.load(wk_path), tensorio.load(wq_path)
    if not (isinstance(wk, np.ndarray) and isinstance(wq, np.ndarray)):
        raise InvalidConfig("weight files must hold float tensors, not packed blocks")
    try:
        return HeadWeights(w_k=wk, w_q=wq)
    except BfpKsortError as exc:
        raise InvalidConfig(str(exc)) from None


def run_cell(
    cfg: ExperimentConfig, seed: int, imported: HeadWeights | None = None
) -> list[list[dict]]:
    """Evaluate one seed over every format pair of ``cfg``.

    The seed's head (``imported`` when given), activations, rotary tables
    and sorting plan are built once and shared by all pairs.  Returns, per
    format pair in config order, its unsorted and its sorted row.
    """
    weights = imported
    if weights is None:
        spec = OutlierSpec(cfg.n_outlier_channels, cfg.outlier_scale, cfg.base_std, seed=seed)
        weights = gen_outlier_head(cfg.d_h, cfg.d_model, spec)
    X = gen_activations(cfg.n_tokens, weights.d_model, seed)
    tables = cfg.rope_tables(weights.d_h)
    plan = plan_head(weights, tables)

    cells = []
    for name_q, name_k in cfg.formats:
        fmt_q, fmt_k = resolve_format(name_q), resolve_format(name_k)
        rows = []
        for sorted_flag, use_plan in ((False, None), (True, plan)):
            trace = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=use_plan)
            cache = trace.key_cache
            report = error_metrics(trace.keys, cache)
            rows.append({
                "format_q": name_q, "format_k": name_k, "sorted": sorted_flag, "seed": seed,
                "logits_max_abs_err": score_max_abs_err(trace),
                "mse": report.mse, "sqnr_db": report.sqnr_db, "max_abs_err": report.max_abs_err,
                "bits_per_element": float(report.bits_per_element),
                "cache_bytes": trace.keys.nbytes if cache is None else cache.packed_nbytes,
            })
        cells.append(rows)
    return cells


def emit_report(cfg: ExperimentConfig, rows: list[dict]) -> tuple[str, str]:
    """Render the aggregate CSV and the full JSON document, byte-stable."""
    lines = ["format_q,format_k,mse_original,mse_sorted"]
    for name_q, name_k in cfg.formats:
        means = [
            np.mean([r["mse"] for r in rows
                     if (r["format_q"], r["format_k"], r["sorted"]) == (name_q, name_k, flag)])
            for flag in (False, True)
        ]
        # float(): numpy 2 reprs an np.float64 as "np.float64(...)"
        lines.append(f"{name_q},{name_k},{float(means[0])!r},{float(means[1])!r}")
    cells = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in row.items()}
        for row in rows
    ]
    doc = {"config": dataclasses.asdict(cfg), "cells": cells}
    return "\n".join(lines) + "\n", json.dumps(doc, indent=2, sort_keys=True) + "\n"


def run(cfg: ExperimentConfig, out_dir: str = ".", workers: int = 1) -> tuple[str, str]:
    """Execute the sweep and write ``report.csv`` / ``report.json``.

    Each seed is one task (:func:`run_cell`).  Seeds run serially in this
    process unless ``workers > 1``, which runs them on a pool of
    ``min(workers, len(cfg.seeds))`` processes.  Rows are reported pair by
    pair, then seed by seed, in config order, whatever the completion order.
    A ``workers`` that is not an integer >= 1 raises :class:`InvalidValue`,
    and an imported head that no cell could run raises :class:`InvalidConfig`,
    both before any cell starts.
    """
    _require_int("workers", workers, 1)
    imported = None
    if cfg.wk_path is not None:
        imported = _load_head(cfg.wk_path, cfg.wq_path)
        try:  # the rotary checks the config made of its own d_h
            cfg.rope_tables(imported.d_h)
        except ValueError as exc:
            raise InvalidConfig(f"imported d_h={imported.d_h}: {exc}") from None

    task = functools.partial(run_cell, cfg, imported=imported)
    pool_size = min(workers, len(cfg.seeds))
    if pool_size > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=pool_size) as pool:
            per_seed = list(pool.map(task, cfg.seeds))
    else:
        per_seed = [task(seed) for seed in cfg.seeds]

    rows = [
        row
        for pair_index in range(len(cfg.formats))
        for cells in per_seed
        for row in cells[pair_index]
    ]
    paths = (os.path.join(out_dir, "report.csv"), os.path.join(out_dir, "report.json"))
    os.makedirs(out_dir, exist_ok=True)
    for path, text in zip(paths, emit_report(cfg, rows)):
        with open(path, "w", newline="") as fh:
            fh.write(text)
    return paths


# ---------------------------------------------------------------------------
# command line front end
# ---------------------------------------------------------------------------


def _cmd_run(args: argparse.Namespace) -> int:
    cfg = ExperimentConfig.from_json_file(args.config) if args.config else ExperimentConfig()
    for path in run(cfg, out_dir=args.out_dir, workers=args.workers):
        print(f"wrote {path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    weights = _load_head(args.wk, args.wq)
    tables: RopeTables | None = None
    if args.rope != "off":
        tables = default_rope_tables(weights.d_h, args.base, args.rope)
    plan = plan_head(weights, tables)
    with open(args.out, "w") as fh:
        fh.write(plan.to_json() + "\n")
    print(f"wrote {args.out} (d_h={weights.d_h}, rope={args.rope})")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    for key, value in tensorio.describe(args.tensorfile).items():
        print(f"{key}: {value}")
    return 0


#: A tensor file that is not one; the message names the file.
FILE_ERRORS = (NotATensorFile, UnsupportedVersion, CorruptFile)

#: How each subcommand reports a failure other than an ``OSError``: the first
#: row whose exception types match gives the exit status and message prefix.
#: ``run`` validates its config and weights before any cell starts, so a later
#: library error is a failed cell; ``plan`` has no config, so a bad input is
#: reported plainly, with exit status 2.
FAILURES = {
    "run": (
        (InvalidConfig, 2, "invalid config: "),
        (FILE_ERRORS, 1, ""),
        ((BfpKsortError, ValueError, MemoryError), 1, "experiment cell failed: "),
    ),
    "plan": ((FILE_ERRORS, 1, ""), ((BfpKsortError, ValueError), 2, "")),
    "inspect": ((BfpKsortError, 1, ""),),
}


def _worker_count(text: str) -> int:
    try:
        value = int(text)
        _require_int("workers", value, 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}") from None
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfpksort",
        description="Block-format key-cache quantization experiments with channel sorting.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment sweep from a JSON config")
    p_run.add_argument("--config", help="JSON config path (defaults used when omitted)")
    p_run.add_argument("--out-dir", default=".", help="directory for report.csv/report.json")
    p_run.add_argument(
        "--workers", type=_worker_count, default=1,
        help="seeds run at once on a process pool (default 1: serial, no pool)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_plan = sub.add_parser("plan", help="compute a channel-sorting plan for one head")
    p_plan.add_argument("--wk", required=True, help="key projection tensor file")
    p_plan.add_argument("--wq", required=True, help="query projection tensor file")
    p_plan.add_argument("--out", required=True, help="output JSON path")
    p_plan.add_argument("--rope", choices=("off",) + LAYOUTS, default="interleaved")
    p_plan.add_argument("--base", type=float, default=DEFAULT_BASE)
    p_plan.set_defaults(func=_cmd_plan)

    p_inspect = sub.add_parser("inspect", help="print a tensor container header")
    p_inspect.add_argument("tensorfile")
    p_inspect.set_defaults(func=_cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; a failure prints ``error: ...`` and returns its
    exit status: 1 for a file that cannot be read or written (``error:
    <path>: <reason>``), otherwise as :data:`FAILURES` says."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        reason = exc.strerror or exc
        print(f"error: {exc.filename}: {reason}" if exc.filename else f"error: {reason}",
              file=sys.stderr)
        return 1
    except (BfpKsortError, ValueError, MemoryError) as exc:
        for types, status, prefix in FAILURES[args.command]:
            if isinstance(exc, types):
                print(f"error: {prefix}{exc}", file=sys.stderr)
                return status
        raise


if __name__ == "__main__":
    sys.exit(main())
