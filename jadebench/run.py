"""JADE pipeline benchmark.

    python3 jadebench/run.py --workload fix_fullband --seed 1 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/`` of the
same checkout.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer ones from a traced replay of the same inputs.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record of the run (and
the spans of a traced run) goes to ``jadebench/out/``.
"""

from __future__ import annotations

import os
import sys
import time

_SCRIPT_START = time.perf_counter()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> dict:
    """Keep every BLAS pool at most nproc threads, 1 when the command set none.

    Must run before numpy is imported: the pools size themselves at load.
    """
    limit = os.cpu_count() or 1
    for var in BLAS_VARS:
        value = os.environ.get(var, "1")
        os.environ[var] = str(min(max(int(value), 1), limit))
    return {var: int(os.environ[var]) for var in BLAS_VARS}


def _seconds_since_process_start() -> float:
    """Age of this process from the kernel's start time (10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, IndexError, ValueError):
        age = -1.0
    if not 0.0 <= age < 3600.0:  # no procfs, or a clock in another namespace
        age = time.perf_counter() - _SCRIPT_START
    return age


THREADS = _pin_blas_threads()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def _latency_tail(latencies_ms):
    """Highest 0.1-step percentile with at least ten samples beyond it.

    None below forty samples, where that percentile would be no tail.
    """
    import numpy as np

    n = len(latencies_ms)
    if n < 40:
        return None
    q = np.floor(1000.0 * (1.0 - 10.0 / n)) / 10.0
    return {"percentile": float(q), "ms": float(np.percentile(latencies_ms, q)), "samples": n}


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "srsjade" / "__init__.py").is_file():
        print(f"jadebench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import numpy as np

    import checks
    import workloads
    import srsjade

    if Path(srsjade.__file__).resolve().parent != SRC / "srsjade":
        print(f"jadebench: imported srsjade from {srsjade.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"jadebench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench = workloads.setup(args.workload, args.seed)
    workloads.warm_up(bench)
    setup_s = _seconds_since_process_start()

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": THREADS,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version(), "numpy": np.__version__},
    }
    if args.trace:
        metrics, spans, rounds, attempted, failed = workloads.traced_loop(bench, args.seconds)
        first = None
        record["spans"] = spans.records
    else:
        loop = workloads.timed_loop(bench, args.seconds)
        attempted, failed, rounds = loop.attempted, loop.failed, loop.rounds
        first = loop.first_result
        lat_ms = [v / 1e6 for v in loop.latencies_ns]
        c = workloads.inputs.SPEED_OF_LIGHT
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_ms": (float(np.median(lat_ms)), "ms"),
            "throughput_ops_s": (len(lat_ms) / loop.loop_s, "ops/s"),
            "peak_rss_mib": (loop.peak_rss_mib, "MiB"),
            "doa_err_p80_deg": (float(np.percentile(loop.doa_err_deg, 80)), "deg"),
            "range_err_p80_m": (float(np.percentile(loop.toa_err_s, 80)) * c, "m"),
            "pos_err_p90_m": (float(np.percentile(loop.pos_err_m, 90)), "m"),
        }
        record["latency_tail"] = _latency_tail(lat_ms)
        record["latencies_ms"] = lat_ms

    correct = True
    t_checks = time.perf_counter()
    try:
        workloads.run_checks(bench, first)
    except checks.CheckFailed as exc:
        correct = False
        print(f"jadebench: check failed: {exc}", file=sys.stderr)
    record["checks_s"] = time.perf_counter() - t_checks

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record.update(rounds=rounds, result=result)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out / name).write_text(json.dumps(record))
    print(f"# jadebench {args.workload} seed={args.seed} rounds={rounds} "
          f"blas_threads={THREADS['OPENBLAS_NUM_THREADS']} record=jadebench/out/{name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
