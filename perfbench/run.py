"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fed_lighttr --seed 1 --seconds 12 --trace 0

Run from the repository root.  ``--trace 0`` measures the end-to-end
metrics with no instrumentation; ``--trace 1`` runs every repetition
twice, untraced and traced (alternating which goes first), and reports
the per-layer metrics plus the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A result file with the run
manifest (and, when traced, the spans as JSON lines and Chrome
trace-event JSON) is written under ``perfbench/out/``.

The run refuses to start when any ``REPRO_*`` environment variable is
set: those knobs silently change what a workload measures.  BLAS thread
pools are pinned to one thread before NumPy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("fed_lighttr", "fed_1k", "serve_poisson", "table4_baselines")
#: A seed kept out of every tuning run, for confirming later claims.
HELD_OUT_SEED = 9973
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 1 <= args.seconds <= 600:
        parser.error("--seconds must be between 1 and 600")
    return args


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    args = parse_args(argv)
    forced = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if forced:
        return _fail(f"refusing to run with {', '.join(forced)} set; these "
                     f"knobs change what the workloads measure")
    if not (SRC / "repro" / "__init__.py").is_file():
        return _fail(f"no program source at {SRC}; run from a full checkout")
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.path[:0] = [str(SRC), str(ROOT)]
    OUT_DIR.mkdir(exist_ok=True)
    try:
        from perfbench.measure import run_workload
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), OUT_DIR)
    except Exception:  # the whole run is the boundary: report, no result
        traceback.print_exc()
        return 1
    report["manifest"].update(_manifest(args))
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as handle:
        json.dump(report, handle, indent=2, default=str)
        handle.write("\n")
    for line in report["summary"]:
        print(line)
    print(f"result file: {stem.relative_to(ROOT)}.json")
    print(json.dumps(report["result"]))
    return 0


def _manifest(args) -> dict:
    import platform

    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED, "seconds": args.seconds,
        "trace": args.trace, "argv": sys.argv,
        "git_sha": _git_sha(), "source_sha256": _source_digest(),
        "python": sys.version,
        "numpy": np.__version__, "blas": _blas(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": {name: os.environ[name] for name in BLAS_THREAD_VARS},
        "platform": platform.platform(),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def _git_sha() -> str | None:
    """HEAD's commit when run from a git checkout (read, not spawned)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over the program's source files (path and bytes), which
    identifies the code when the checkout is not a git repository."""
    import hashlib

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas(np) -> dict | None:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {key: blas.get(key) for key in ("name", "version")}
    except (TypeError, KeyError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
