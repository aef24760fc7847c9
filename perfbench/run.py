#!/usr/bin/env python3
"""bfpksort benchmark: three workloads, end-to-end metrics and a traced run.

Run from the root of a bfpksort checkout; the program is imported from that
checkout's ``src/``, never from an installed copy:

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

The load is one closed-loop client: an operation starts when the previous one
has finished.  Every operation is checked for correctness outside the timed
region.  ``--trace 0`` reports the end-to-end metrics (``op_s`` is the time
of an operation's gated parts, see README.md); ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones plus the tracing overhead.  The last
line of standard output is one JSON object; the lines before it print every
metric under its workload-specific name with median, tail percentile and n.
Scratch files, reports, spans and a full result document go to
``.perfbench_work/`` in the checkout.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here: imports count

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
MIB = float(1 << 20)

#: SHA-256 of report.csv / report.json of the default sweep (seed 0, full size),
#: recorded with the program as it was when the benchmark was defined.
DEFAULT_SWEEP_DIGESTS = {
    "report.csv": "fd64e906643a6e4c03fd47186b9804457d63a23a7088fb8ee0358214183afd22",
    "report.json": "f70c5d4b6d7a7710bc3a4359162e83343abd1ad479f61a53f32bf59fea6f99fe",
}

#: ``full`` is the benchmark; ``tiny`` exists for the smoke test.
SIZES = {
    "full": dict(sweep_seeds=20, decode_t=4096, heads=4, prefix=64, kcache_t=4096),
    "tiny": dict(sweep_seeds=1, decode_t=256, heads=2, prefix=64, kcache_t=256),
}

SETUP_SAMPLES = 3  # this process plus two fresh ones

END_TO_END = {"setup_s": "s", "op_s": "s", "peak_mib": "MiB"}

PER_LAYER = (
    "rope.rope_apply.calls", "rope.rope_apply.self_s", "rope.rope_apply.rows",
    "rope.rope_apply.unique_ratio",
    "simharness.gen_outlier_head.calls", "simharness.gen_outlier_head.self_s",
    "simharness.gen_outlier_head.unique_ratio",
    "simharness.gen_activations.calls", "simharness.gen_activations.self_s",
    "ksort.plan_head.calls", "ksort.plan_head.self_s",
    "cli.run_cell.calls", "cli.run_cell.self_s",
    "cli.run.self_s", "cli.emit_report.self_s", "cli.pool.tasks", "cli.pool.task_bytes",
    "cli.pool.sweep_s",
    "simharness.simulate_decode.calls", "simharness.simulate_decode.self_s",
    "simharness.simulate_decode.trace_mib",
    "simharness.score_max_abs_err.calls", "simharness.score_max_abs_err.self_s",
    "simharness.error_metrics.calls", "simharness.error_metrics.self_s",
    "bfp.pack.calls", "bfp.pack.self_s", "bfp.pack.bytes",
    "bfp.unpack.calls", "bfp.unpack.self_s", "bfp.unpack.bytes",
    "bfp.quantize_tensor.calls", "bfp.quantize_tensor.self_s", "bfp.quantize_tensor.elements",
    "bfp.dequantize.calls", "bfp.dequantize.self_s",
    "tensorio.save.calls", "tensorio.save.self_s", "tensorio.save.bytes",
    "tensorio.load.calls", "tensorio.load.self_s", "tensorio.load.bytes",
    "trace.overhead_s", "trace.overhead_frac",
)


def per_layer_unit(name: str) -> str:
    suffix = name.rsplit(".", 1)[-1]
    return {
        "self_s": "s", "sweep_s": "s", "overhead_s": "s", "trace_mib": "MiB", "bytes": "B",
        "task_bytes": "B", "unique_ratio": "ratio", "overhead_frac": "ratio",
    }.get(suffix, "count")


def import_program():
    """Import bfpksort from this checkout's ``src/``; exit if it is not there."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bfpksort", "__init__.py")):
        sys.exit(f"perfbench: no bfpksort package under {src}; run from a bfpksort checkout")
    sys.path.insert(0, src)
    import bfpksort
    import bfpksort.cli

    if not os.path.abspath(bfpksort.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: imported bfpksort from {bfpksort.__file__}, not from {src}")
    return bfpksort


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Failures:
    """Prints the tracebacks of the first few failures to stderr."""

    def __init__(self, limit: int = 3) -> None:
        self.limit = limit
        self.printed = 0

    def report(self, what: str) -> None:
        if self.printed < self.limit:
            print(f"perfbench: {what} failed:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.printed += 1


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - start


# ---------------------------------------------------------------------------
# workloads
#
# Each workload builds its inputs from the seed in __init__, and op() runs one
# operation: it returns one (seconds, ok) per entry of ``parts``, with seconds
# None when the part raised.  ``op_s`` sums the parts listed in ``gated``.
# Correctness checks run outside the timed region, inside ``self.untraced()``,
# and set ok.
# ---------------------------------------------------------------------------


class Workload:
    untraced = contextlib.nullcontext  # the traced run swaps in Tracer.paused


class SweepDefault(Workload):
    """The default ``bfpksort run`` sweep, serial then pooled at nproc workers."""

    name = "sweep-default"
    parts = ("sweep_serial_s", "sweep_pool_s")
    # The pooled sweep's time spreads too widely from run to run to hold any
    # bound (README.md); it is printed, and reported as cli.pool.sweep_s.
    gated = (0,)

    def __init__(self, m, seed: int, size: dict, work: str, failures: Failures) -> None:
        self.cli = m.cli
        n = size["sweep_seeds"]
        self.cfg = m.cli.ExperimentConfig(seeds=tuple(range(seed * n, seed * n + n)))
        self.digests = DEFAULT_SWEEP_DIGESTS if self.cfg == m.cli.ExperimentConfig() else None
        self.workers = nproc()
        self.dirs = (os.path.join(work, "serial"), os.path.join(work, "pool"))
        self.failures = failures

    def _sweep(self, workers: int, out_dir: str):
        for name in ("report.csv", "report.json"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                os.remove(path)
        paths, seconds = timed(self.cli.run, self.cfg, out_dir=out_dir, workers=workers)
        reports = {}
        for path in paths:
            with open(path, "rb") as fh:
                reports[os.path.basename(path)] = fh.read()
        return seconds, reports

    def check(self, reports: dict) -> bool:
        if self.digests is not None and any(
            hashlib.sha256(reports[name]).hexdigest() != digest
            for name, digest in self.digests.items()
        ):
            return False
        cells = json.loads(reports["report.json"])["cells"]
        if len(cells) != 2 * len(self.cfg.formats) * len(self.cfg.seeds):
            return False
        by_key = {(c["format_q"], c["format_k"], c["seed"], c["sorted"]): c for c in cells}
        for (name_q, name_k, seed, sorted_flag), cell in by_key.items():
            fmt_k = self.cli.resolve_format(name_k)
            if fmt_k is None:
                if (cell["mse"], cell["max_abs_err"], cell["logits_max_abs_err"]) != (0, 0, 0):
                    return False
            elif fmt_k.block_size == self.cfg.d_h and not sorted_flag:
                # one block spans the whole head: sorting must be an exact no-op
                if cell["mse"] != by_key[(name_q, name_k, seed, True)]["mse"]:
                    return False
        return True

    def warm_up(self) -> None:
        self._sweep(1, self.dirs[0])

    def peak_pass(self) -> None:
        # pool workers are separate processes, invisible to tracemalloc
        self._sweep(1, self.dirs[0])

    def op(self):
        results = []
        for workers, out_dir in ((1, self.dirs[0]), (self.workers, self.dirs[1])):
            try:
                results.append(self._sweep(workers, out_dir))
            except Exception:
                self.failures.report(f"sweep with {workers} workers")
                results.append((None, None))
        (t_serial, serial), (t_pool, pool) = results
        with self.untraced():
            ok_serial = serial is not None and self._checked(serial)
            ok_pool = pool is not None and self._checked(pool) and serial in (None, pool)
        return [(t_serial, ok_serial), (t_pool, ok_pool)]

    def _checked(self, reports: dict) -> bool:
        try:
            return self.check(reports)
        except (KeyError, TypeError, ValueError):
            self.failures.report("report check")
            return False


class Decode4k(Workload):
    """Long-context decode of one outlier head at T=4096 with the sorted plan."""

    name = "decode-4k"
    parts = ("decode_s",)
    gated = (0,)

    def __init__(self, m, seed: int, size: dict, work: str, failures: Failures) -> None:
        self.sh = m.simharness
        self.n_tokens = size["decode_t"]
        self.prefix = size["prefix"]
        self.fmt_q, self.fmt_k = m.bfp.BFP16_32, m.bfp.BFP12_32
        self.tables = m.rope.default_rope_tables(128, layout="interleaved")
        self.heads = []
        for i in range(size["heads"]):
            head_seed = seed * size["heads"] + i
            spec = self.sh.OutlierSpec(4, 50.0, 1.0, seed=head_seed)
            weights = self.sh.gen_outlier_head(128, 256, spec)
            X = self.sh.gen_activations(self.n_tokens, 256, head_seed)
            self.heads.append((weights, X, m.ksort.plan_head(weights, self.tables)))
        self.expected: dict = {}  # head -> first result seen
        self.next_head = 0
        self.failures = failures

    def _decode(self, head: int):
        weights, X, plan = self.heads[head]
        start = time.perf_counter()
        trace = self.sh.simulate_decode(weights, self.tables, X, self.fmt_k, self.fmt_q, plan=plan)
        report = self.sh.error_metrics(trace.keys, trace.key_cache)
        score_err = self.sh.score_max_abs_err(trace)
        seconds = time.perf_counter() - start
        del trace
        return seconds, (report.mse, report.sqnr_db, report.max_abs_err, score_err)

    def _exact(self, head: int) -> bool:
        weights, X, plan = self.heads[head]
        return self.sh.exactness_check(weights, plan, X[: self.prefix], self.tables) <= 1e-12

    def warm_up(self) -> None:
        self.op()

    def peak_pass(self) -> None:
        self.op()

    def op(self):
        head = self.next_head
        self.next_head = (head + 1) % len(self.heads)
        try:
            with self.untraced():
                exact = self._exact(head)
        except Exception:
            self.failures.report("exactness check")
            exact = False
        try:
            seconds, values = self._decode(head)
        except Exception:
            self.failures.report("decode")
            return [(None, False)]
        first = self.expected.setdefault(head, values)
        ok = exact and values == first and all(math.isfinite(v) for v in values)
        return [(seconds, ok)]


class KcacheIO(Workload):
    """Save, then load, the key cache of one 4096x128 head through tensorio,
    in BFP12_32 and in BFP16_128."""

    name = "kcache-io"
    parts = ("kcache_save_s", "kcache_load_s")
    gated = (0, 1)

    HEADER_BYTES = 16 + 4 * 2 + 16  # magic..ndim, two dims, packed-format fields

    def __init__(self, m, seed: int, size: dict, work: str, failures: Failures) -> None:
        self.bfp, self.tensorio = m.bfp, m.tensorio
        spec = m.simharness.OutlierSpec(4, 50.0, 1.0, seed=seed)
        weights = m.simharness.gen_outlier_head(128, 256, spec)
        X = m.simharness.gen_activations(size["kcache_t"], 256, seed)
        self.keys = X @ weights.w_k.T
        self.formats = (m.bfp.BFP12_32, m.bfp.BFP16_128)
        self.paths = [os.path.join(work, f"{fmt.name}.bfpt") for fmt in self.formats]
        self.packed_bytes = 0
        self.failures = failures

    def _save(self):
        saved = []
        for fmt, path in zip(self.formats, self.paths):
            tensor = self.bfp.quantize_tensor(self.keys, fmt, blocking_axis=1)
            self.tensorio.save(path, tensor)
            saved.append(tensor)
        return saved

    def _load(self):
        loaded = []
        for path in self.paths:
            tensor = self.tensorio.load(path)
            loaded.append((tensor, self.bfp.dequantize(tensor)))
        return loaded

    def _check(self, saved, loaded) -> bool:
        for want, (got, values) in zip(saved, loaded):
            if not (
                isinstance(got, self.bfp.BfpTensor)
                and got.fmt == want.fmt
                and got.logical_shape == want.logical_shape
                and got.blocking_axis == want.blocking_axis
                and (got.exponents == want.exponents).all()
                and (got.mantissas == want.mantissas).all()
                and values.shape == self.keys.shape
            ):
                return False
        return all(
            os.path.getsize(path) == self.HEADER_BYTES + t.packed_nbytes
            for path, t in zip(self.paths, saved)
        )

    def warm_up(self) -> None:
        self.op()

    def peak_pass(self) -> None:
        self.op()

    def op(self):
        try:
            saved, t_save = timed(self._save)
        except Exception:
            self.failures.report("save")
            return [(None, False), (None, False)]
        self.packed_bytes = sum(t.packed_nbytes for t in saved)
        try:
            loaded, t_load = timed(self._load)
        except Exception:
            self.failures.report("load")
            return [(t_save, False), (None, False)]
        with self.untraced():
            ok = self._check(saved, loaded)
        return [(t_save, ok), (t_load, ok)]


WORKLOADS = {w.name: w for w in (SweepDefault, Decode4k, KcacheIO)}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy

    base = os.path.dirname(numpy.__file__)
    for path in glob.glob(os.path.join(base, "..", "numpy.libs", "*openblas*")) + glob.glob(
        os.path.join(base, ".libs", "*openblas*")
    ):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOW | os.RTLD_NOLOAD)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):  # numpy without show_config(mode=...)
        blas_name = None
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        **{var: os.environ.get(var) for var in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def summary(values: list, higher_is_better: bool = False) -> dict:
    """Median, n, and the most extreme of the p75/p90/p99/p99.9 tails (on the
    slow side) that has at least 10 samples beyond it."""
    ordered = sorted(values, reverse=higher_is_better)
    n = len(ordered)
    out = {"median": statistics.median(ordered) if ordered else None, "n": n}
    for p in (99.9, 99.0, 90.0, 75.0):
        if n * (1.0 - p / 100.0) >= 10:
            name = f"p{100 - p:g}" if higher_is_better else f"p{p:g}"
            out[name] = ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
            break
    return out


def setup_workload(args, failures: Failures):
    m = import_program()
    work = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    os.makedirs(work, exist_ok=True)
    workload = WORKLOADS[args.workload](m, args.seed, SIZES[args.size], work, failures)
    workload.warm_up()
    return workload, time.perf_counter() - T0


def setup_probe(args) -> float:
    """Set the workload up in a fresh interpreter and return its set-up time."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--size", args.size, "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up in a fresh process exited with {proc.returncode}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop for ``seconds``; with a tracer, every other operation is traced.

    Returns the per-part samples of the untraced operations, the ``op_s``
    samples of each kind of operation ("untraced", "traced"), the ids of the
    traced operations that succeeded, and the attempted and failed part counts.
    """
    parts = [[] for _ in workload.parts]
    op_s = {"untraced": [], "traced": []}
    traced_ops = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        kind = "traced" if traced else "untraced"
        if traced:
            tracer.op = i
            tracer.install()
            workload.untraced = tracer.paused
        try:
            results = workload.op()
        finally:
            if traced:
                tracer.uninstall()
                del workload.untraced
        for slot, (secs, ok) in zip(parts, results):
            attempted += 1
            if not ok:
                failed += 1
            elif not traced:
                slot.append(secs)
        if all(results[k][1] for k in workload.gated):
            op_s[kind].append(sum(results[k][0] for k in workload.gated))
        if traced and all(ok for _, ok in results):
            traced_ops.append(i)
        i += 1
        if time.perf_counter() >= deadline and (tracer is None or i >= 2):
            break
    return dict(parts=parts, op_s=op_s, traced_ops=traced_ops, attempted=attempted,
                failed=failed)


def peak_mib(workload) -> float:
    tracemalloc.start()
    try:
        workload.peak_pass()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def end_to_end_rows(workload, run: dict, setup: list, peak: float) -> list:
    """(name, unit, samples, higher_is_better) under the workload's own names."""
    parts = run["parts"]
    rows = [("setup_s", "s", setup, False)]
    rows += [(name, "s", samples, False) for name, samples in zip(workload.parts, parts)]
    if isinstance(workload, KcacheIO):
        mib = workload.packed_bytes / MIB
        rows.append(("kcache_save_mib_s", "MiB/s", [mib / t for t in parts[0]], True))
        rows.append(("kcache_load_mib_s", "MiB/s", [mib / t for t in parts[1]], True))
    label = "decode_peak_mib" if isinstance(workload, Decode4k) else "peak_mib"
    rows.append((label, "MiB", [peak], False))
    gated = "+".join(workload.parts[k] for k in workload.gated)
    rows.append((f"op_s ({gated})", "s", run["op_s"]["untraced"], False))
    return rows


def per_layer_metrics(workload, run: dict, tracer) -> dict:
    per_op = [tracer.op_totals(op) for op in run["traced_ops"]]
    values = {}
    for name in PER_LAYER:
        samples = [totals.get(name, 0.0) for totals in per_op]
        values[name] = statistics.median(samples) if samples else 0.0
    if isinstance(workload, SweepDefault) and run["parts"][1]:
        values["cli.pool.sweep_s"] = statistics.median(run["parts"][1])
    op_s = run["op_s"]
    if op_s["traced"] and op_s["untraced"]:
        base = statistics.median(op_s["untraced"])
        values["trace.overhead_s"] = statistics.median(op_s["traced"]) - base
        values["trace.overhead_frac"] = values["trace.overhead_s"] / base
    return {name: {"value": v, "unit": per_layer_unit(name)} for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    failures = Failures()
    workload, setup_first = setup_workload(args, failures)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_first}))
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    setup, setup_ok = [setup_first], True
    if not args.trace:
        try:
            setup += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError):
            failures.report("set-up in a fresh process")
            setup_ok = False

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    run = measure(workload, args.seconds, tracer)
    attempted, failed = run["attempted"], run["failed"]
    print(f"workload {args.workload} seed {args.seed} size {args.size} "
          f"seconds {args.seconds:g} trace {args.trace}")
    document = {"workload": args.workload, "seed": args.seed, "size": args.size,
                "seconds": args.seconds, "trace": args.trace, "env": env,
                "attempted": attempted, "failed": failed, "failed_frac": failed / attempted}
    if not args.trace:
        peak = peak_mib(workload)
        document["metrics"] = {}
        for name, unit, samples, higher in end_to_end_rows(workload, run, setup, peak):
            stats = summary(samples, higher)
            document["metrics"][name] = {"unit": unit, **stats, "samples": samples}
            tail = next((f"{k} {v:.6g}" for k, v in stats.items() if k[0] == "p"), "tail -")
            median = "-" if stats["median"] is None else f"{stats['median']:.6g}"
            print(f"  {name:<36} median {median:>10} {unit:<6} {tail:<16} n {stats['n']}")
        values = {
            "setup_s": statistics.median(setup),
            "op_s": statistics.median(run["op_s"]["untraced"] or [0.0]),
            "peak_mib": peak,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        metrics = per_layer_metrics(workload, run, tracer)
        document["metrics"] = metrics
        for name, metric in metrics.items():
            print(f"  {name:<42} {metric['value']:>14.6g} {metric['unit']}")
        print(f"  traced ops {len(run['op_s']['traced'])}, "
              f"untraced ops {len(run['op_s']['untraced'])}")
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    print(f"  {'failed_frac':<36} {document['failed_frac']:.6g} "
          f"({failed}/{attempted} operations)")
    result_path = os.path.join(
        WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": failed == 0 and setup_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
