"""Summarise the run records in jadebench/out/ (the figures README.md quotes).

    python3 jadebench/report.py

For each workload: the median and quartile spread of every end-to-end metric
over its untraced runs, each traced stage's share of ``pipeline.jade_ms``,
the tracing overhead (traced minus untraced operation time), the latency tail
and, on comparison_sweep, the MUSIC to FFT-IAA time ratio.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"
STAGES = ("calibration.calibrate_channel", "preprocessing.preprocess",
          "pipeline.build_delay_grid", "toa.multichannel_toa", "pipeline.detect",
          "pipeline.cbf_doa")  # as workloads.STAGES, without importing numpy


def _spread(values):
    if len(values) < 2:
        return float("nan")
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _median_ms(spans, name, parent=None):
    vals = [(e - s) / 1e6 for _, p, n, s, e in spans
            if n == name and (parent is None or p == parent)]
    return statistics.median(vals) if vals else float("nan")


def main() -> None:
    runs = defaultdict(lambda: {0: [], 1: []})
    for path in sorted(OUT.glob("*.json")):
        rec = json.loads(path.read_text())
        runs[rec["workload"]][rec["trace"]].append(rec)
    for workload, by_trace in sorted(runs.items()):
        plain, traced = by_trace[0], by_trace[1]
        print(f"== {workload}: {len(plain)} untraced, {len(traced)} traced runs")
        if plain:
            names = plain[0]["result"]["metrics"]
            for name in names:
                vals = [r["result"]["metrics"][name]["value"] for r in plain]
                unit = names[name]["unit"]
                print(f"  {name:18s} median {statistics.median(vals):.6g} {unit}"
                      f"  spread {_spread(vals):.3f}")
            tails = [r["latency_tail"] for r in plain if r.get("latency_tail")]
            if tails:
                pooled = sorted(v for r in plain for v in r["latencies_ms"])
                n = len(pooled)
                q = int(1000 * (1 - 10 / n)) / 10
                k = min(n - 1, int(round(q / 100 * (n - 1))))
                print(f"  latency tail: p{q} = {pooled[k]:.2f} ms over {n} pooled samples;"
                      f" per run p{tails[0]['percentile']} median "
                      f"{statistics.median(t['ms'] for t in tails):.2f} ms")
        for rec in traced:
            spans = rec["spans"]
            jade_ms = _median_ms(spans, "pipeline.jade")
            shares = ", ".join(
                f"{s.split('.')[-1]} {100 * _median_ms(spans, s, 'pipeline.jade') / jade_ms:.1f}%"
                for s in STAGES)
            print(f"  traced seed {rec['seed']}: jade {jade_ms:.2f} ms = {shares}")
            op_ms = _median_ms(spans, "op")
            if plain:
                untraced = statistics.median(
                    r["result"]["metrics"]["latency_p50_ms"]["value"] for r in plain)
                print(f"    traced op p50 {op_ms:.2f} ms vs untraced {untraced:.2f} ms: "
                      f"overhead {op_ms - untraced:+.2f} ms ({100 * (op_ms / untraced - 1):+.1f}%)")
            if workload == "comparison_sweep":
                music = rec["result"]["metrics"]["baselines.music_jade_ms"]["value"]
                print(f"    MUSIC {music:.0f} ms / FFT-IAA jade {jade_ms:.2f} ms"
                      f" = {music / jade_ms:.0f}x")


if __name__ == "__main__":
    main()
