"""Command-line front end.

Subcommands: ``simulate`` (one trial, prints the estimate as JSON),
``montecarlo``, ``bench``, ``calibrate-fit`` (phase-error polynomials from a
measurements CSV), and ``preprocess`` (file-to-file CFR reduction).

Exit codes: 0 ok, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import harness, model, pipeline, preprocessing, toa
from .calibration import AntennaErrorMeasurements, CalibrationError, fit_phase_error
from .harness import ConfigError
from .pipeline import DetectionError
from .positioning import GeometryError
from .toa import EstimationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _dump_spectrum(path: Path, spectra: list[toa.ToaSpectrum]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p", "delay_ns", "channel", "re", "im"])
        for n, spec in enumerate(spectra):
            delays = spec.grid.delays_s
            for p, amp in enumerate(spec.amplitudes):
                writer.writerow(
                    [p, repr(float(delays[p] * 1e9)), n,
                     repr(float(amp.real)), repr(float(amp.imag))]
                )


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = harness.load_config(args.config)
    env = harness.build_environment(cfg)
    sc = env.scenario
    truth = harness.generate_scenario(
        env, int(sc["path_counts"][0]), float(sc["snr_db"][0]), args.seed, 0, 0
    )
    cfr = harness.synthesize_trial(env, truth, args.seed, 0, 0)
    names = [args.estimator] if args.estimator else list(env.estimators)
    out = {
        name: harness.run_estimator(env, name, cfr, len(truth.paths)).to_json_dict()
        for name in names
    }
    los = truth.los
    payload = {
        "truth": {"doa_deg": los.doa_deg, "toa_ns": los.toa_s * 1e9},
        "estimates": out,
    }
    print(json.dumps(payload, indent=2))
    if args.dump_spectrum:
        jc = env.jade_configs["fft_iaa"]
        work, grid = pipeline.prepare(cfr, jc)
        spectra = toa.multichannel_toa(work, grid, jc.iaa, impl="fft")
        _dump_spectrum(Path(args.dump_spectrum), spectra)
    return EXIT_OK


def _cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = harness.load_config(args.config)
    out_dir = Path(args.out_dir)
    records = harness.run_monte_carlo(
        cfg, master_seed=args.seed, workers=args.workers, out_dir=out_dir
    )
    summary = harness.summarize(records, args.seed)
    print(json.dumps(summary, indent=2))
    print(f"wrote {len(records)} records to {out_dir}", file=sys.stderr)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    cfg = harness.load_config(args.config)
    table = harness.run_benchmark(
        cfg, runs=args.runs, master_seed=args.seed, out_dir=args.out_dir
    )
    width = max(len(n) for n in table)
    print(f"{'estimator':<{width}}  median_ms  mean_ms")
    for name, row in table.items():
        print(f"{name:<{width}}  {row['median_ms']:>9.2f}  {row['mean_ms']:>7.2f}")
    return EXIT_OK


def _cmd_calibrate_fit(args: argparse.Namespace) -> int:
    meas = AntennaErrorMeasurements.load_csv(args.measurements)
    poly = fit_phase_error(meas, order=args.order)
    poly.to_json(args.out)
    print(f"fitted order-{args.order} phase polynomials for "
          f"{poly.num_elements} elements -> {args.out}")
    return EXIT_OK


def _cmd_preprocess(args: argparse.Namespace) -> int:
    pcfg = harness.preprocess_config(harness.load_config(args.config))
    cfr = model.load_cfr_csv(args.infile)
    reduced = preprocessing.preprocess(cfr, pcfg)
    model.save_cfr_csv(reduced, args.outfile)
    print(
        f"reduced {cfr.num_subcarriers}x{cfr.channel_count} -> "
        f"{reduced.num_subcarriers}x{reduced.channel_count}, "
        f"delay offset {reduced.delay_offset_s * 1e9:.3f} ns"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srsjade",
        description="Joint DOA/TOA estimation experiments on multichannel CFRs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one trial and print the estimate JSON")
    sim.add_argument("--config", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--estimator", choices=harness.ESTIMATOR_NAMES)
    sim.add_argument("--dump-spectrum", metavar="CSV", help="write per-channel TOA spectra")
    sim.set_defaults(func=_cmd_simulate)

    mc = sub.add_parser("montecarlo", help="run the configured Monte Carlo sweep")
    mc.add_argument("--config", required=True)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--workers", type=int, default=1)
    mc.add_argument("--out-dir", default="results")
    mc.set_defaults(func=_cmd_montecarlo)

    bench = sub.add_parser("bench", help="time the configured estimators")
    bench.add_argument("--config", required=True)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--runs", type=int, default=50)
    bench.add_argument("--out-dir", default=None)
    bench.set_defaults(func=_cmd_bench)

    fit = sub.add_parser("calibrate-fit", help="fit phase-error polynomials from a CSV")
    fit.add_argument("--measurements", required=True)
    fit.add_argument("--order", type=int, default=4)
    fit.add_argument("--out", required=True)
    fit.set_defaults(func=_cmd_calibrate_fit)

    pre = sub.add_parser("preprocess", help="file-to-file CFR reduction")
    pre.add_argument("--config", required=True)
    pre.add_argument("--in", dest="infile", required=True)
    pre.add_argument("--out", dest="outfile", required=True)
    pre.set_defaults(func=_cmd_preprocess)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EstimationError, DetectionError, CalibrationError, GeometryError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
