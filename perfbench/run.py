"""Benchmark of ibimpute: four workloads, end-to-end metrics, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py                       # all workloads, summary table
    python3 perfbench/run.py --trace 1             # all workloads, per-layer table
    python3 perfbench/run.py --workload train_small --seed 3 --seconds 20 --trace 0

With one ``--workload`` the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(provenance, output digests, per-call figures) is written to
``.perfbench/results/``.  Without it, each workload runs in its own child
process, one after another, and a table is printed.  The exit code is 0
only when every output check passed.

The package is imported from ``src/`` of this checkout, never from an
installed copy.  OpenBLAS must run on one thread (the determinism
contract): ``OPENBLAS_NUM_THREADS`` defaults to 1 and any other value is
refused.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / ".perfbench" / "results"
WORK = ROOT / ".perfbench" / "work"
CHILD_TIMEOUT_S = 900
END_TO_END_UNITS = {"setup_s": "s", "throughput_per_s": "items/s", "mae": "mae", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; exits with code 2."""


def _pin_blas_threads() -> None:
    threads = os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    if threads != "1":
        raise BenchError(f"OPENBLAS_NUM_THREADS={threads}; the benchmark runs only with 1")


def _import_package():
    src = ROOT / "src"
    if not (src / "ibimpute" / "__init__.py").is_file():
        raise BenchError(f"no ibimpute sources under {src}")
    sys.path.insert(0, str(src))
    import ibimpute

    if Path(ibimpute.__file__).resolve().parent != (src / "ibimpute").resolve():
        raise BenchError(f"imported ibimpute from {ibimpute.__file__}, not from {src}")


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "git_commit": _git_commit(),
    }


def run_one(args) -> int:
    import harness
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    result = harness.measure(workload, args.seed, args.seconds, bool(args.trace), workdir)

    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "seconds": args.seconds,
        "provenance": provenance(args.seed),
        "calls": result.calls,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "problems": result.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result.metrics.items()},
        "named_metrics": _named_metrics(workload, result) if not args.trace else {},
        "details": result.details,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in result.problems[:50]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"# {workload.name}: {result.calls} calls, record in {path.relative_to(ROOT)}")
    print(f"# provenance {json.dumps(record['provenance'])}")
    for name, m in record["named_metrics"].items():
        print(f"# {name} = {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0 if result.correct else 1


def _named_metrics(workload, result) -> dict:
    """The end-to-end metrics under their workload-specific names."""
    m = result.metrics
    return {
        "setup_s": {"value": m["setup_s"], "unit": "s"},
        workload.item_metric: {"value": m["throughput_per_s"], "unit": workload.item_unit},
        workload.quality_metric: {"value": m["mae"], "unit": workload.quality_unit},
        "peak_rss_mb": {"value": m["peak_rss_mb"], "unit": "MB"},
        "failed_frac": {"value": result.details["failed_frac"], "unit": "failures/attempt"},
    }


def run_all(args, names) -> int:
    """Each workload in a fresh child process, then one table."""
    ok = True
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        record_path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record_path.unlink(missing_ok=True)
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1) or not record_path.is_file():
            print(f"{name}: FAILED to run (exit {proc.returncode})")
            ok = False
            continue
        record = json.loads(record_path.read_text())
        ok = ok and record["correct"]
        status = "PASS" if record["correct"] else "FAIL"
        print(f"{name}: checks {status}, {record['calls']} calls, "
              f"{record['failed']}/{record['attempted']} failed")
        shown = record["named_metrics"] or record["metrics"]
        for metric, m in shown.items():
            print(f"  {metric:32s} {m['value']:.6g} {m['unit']}")
        if args.trace:
            d = record["details"]
            print(f"  {'traced wall (all calls)':32s} {d['traced_wall_s']:.6g} s; "
                  f"self times sum to {d['self_time_sum_s']:.6g} s; "
                  f"overhead {100 * d['overhead_share']:.1f}%")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="train_small, train_wide, eval_masks, impute_csv or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        _pin_blas_threads()
        _import_package()
        threads = _blas_threads()
        if threads not in (None, 1):
            raise BenchError(f"OpenBLAS reports {threads} threads; the benchmark runs only with 1")
        from workloads import WORKLOADS

        if args.workload == "all":
            return run_all(args, list(WORKLOADS))
        if args.workload not in WORKLOADS:
            raise BenchError(
                f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}"
            )
        return run_one(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
