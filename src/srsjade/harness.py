"""Configuration-driven experiment harness.

One declarative JSON config describes waveform, array, scenario sweep,
calibration, preprocessing, grids, and estimator list; the harness runs
seeded Monte Carlo sweeps, wall-time benchmarks, and emits CSV/JSON results
plus per-figure plot tables.  Every byte of output except wall times is a
pure function of (config, master seed): per-trial generators are derived
from the master seed with counter-based seed sequences, so trials can be
sharded across workers without coordination.
"""

from __future__ import annotations

import copy
import csv
import itertools
import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import jsonschema
import numpy as np

from . import baselines, calibration, model, pipeline, positioning, preprocessing, toa


class ConfigError(Exception):
    """Invalid experiment configuration; message carries the field path."""


@dataclass(frozen=True)
class Estimator:
    """One estimator of the comparison: its steering model, IAA kernel and runner.

    ``run(cfr, jade_config, smoothing, path_count)`` returns the estimate;
    only smoothed MUSIC uses the trial's path count, as its model order.
    """

    calibrated: bool
    impl: str
    run: Callable[..., pipeline.JadeEstimate]


# proposed estimators use the calibrated model; 2-D baselines need the
# ideal Vandermonde manifold and cannot absorb direction-dependent errors
ESTIMATORS = {
    "fft_iaa": Estimator(True, "fft", lambda cfr, jc, sm, paths: pipeline.jade(cfr, jc)),
    "dense_iaa": Estimator(True, "dense", lambda cfr, jc, sm, paths: pipeline.jade(cfr, jc)),
    "periodogram": Estimator(
        False, "fft", lambda cfr, jc, sm, paths: baselines.periodogram_jade(cfr, jc)
    ),
    "music": Estimator(
        False, "fft", lambda cfr, jc, sm, paths: baselines.music_jade(cfr, jc, sm, paths)
    ),
}
ESTIMATOR_NAMES = tuple(ESTIMATORS)

_NUM = {"type": "number"}
_POS = {"type": "number", "exclusiveMinimum": 0}
_INT = {"type": "integer", "minimum": 1}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}

# The one declaration of every setting: each block property carries the
# default that validate_config fills in when a config leaves it out.
CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema_version", "waveform"],
    "properties": {
        "schema_version": {"const": 1},
        "waveform": {
            "type": "object",
            "additionalProperties": False,
            "required": ["carrier_frequency_hz", "subcarrier_spacing_hz", "num_subcarriers"],
            "properties": {
                "carrier_frequency_hz": _POS,
                "subcarrier_spacing_hz": _POS,
                "num_subcarriers": {"type": "integer", "minimum": 2},
            },
        },
        "array": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "num_elements": {"type": "integer", "minimum": 2, "default": 4},
                "spacing_m": {"type": ["number", "null"], "exclusiveMinimum": 0, "default": None},
            },
        },
        "scenario": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "path_counts": {"type": "array", "items": _INT, "minItems": 1, "default": [5]},
                "snr_db": {"type": "array", "items": _NUM, "minItems": 1, "default": [-10.0]},
                "trials": {**_INT, "default": 100},
                "doa_span_deg": {**_PAIR, "default": [-60.0, 60.0]},
                "toa_span_ns": {**_PAIR, "default": [0.0, 166.67]},
                "noise_variance": {**_POS, "default": 2.0},
            },
        },
        "calibration": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean", "default": True},
                "profile_seed": {"type": "integer", "minimum": 0, "default": 7},
                "max_phase_deg": {"type": "number", "minimum": 0, "default": 40.0},
                "measurement_step_deg": {**_POS, "default": 5.0},
                "fit_order": {"type": "integer", "minimum": 0, "default": 4},
            },
        },
        "preprocess": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "enabled": {"type": "boolean", "default": False},
                "ifft_points": {"type": "integer", "minimum": 2, "default": 2048},
                "window_lo_ns": {**_NUM, "default": -256.0},
                "window_hi_ns": {**_NUM, "default": 256.0},
                "fft_points_out": {"type": "integer", "minimum": 2, "default": 64},
            },
        },
        "estimators": {
            "type": "array",
            "items": {"enum": list(ESTIMATOR_NAMES)},
            "minItems": 1,
            "default": ["fft_iaa"],
        },
        "grids": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "delay_points": {"type": ["integer", "null"], "minimum": 2, "default": None},
                "angle_lo_deg": {**_NUM, "default": -60.0},
                "angle_hi_deg": {**_NUM, "default": 60.0},
                "angle_step_deg": {**_POS, "default": 0.2},
                "search_range_m": {**_PAIR, "default": [0.0, 50.0]},
            },
        },
        "iaa": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "max_iterations": {**_INT, "default": 15},
                "convergence_tol": {**_POS, "default": 1e-4},
                "diagonal_loading": {"type": "number", "minimum": 0, "default": 1e-8},
            },
        },
        "detection": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"threshold_db": {**_POS, "default": 10.0}},
        },
        "smoothing": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "freq_order": {**_INT, "default": 6},
                "space_order": {**_INT, "default": 2},
            },
        },
        "positioning": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "trp_position_m": {**_PAIR, "default": [0.0, 0.0]},
                "boresight_deg": {**_NUM, "default": 0.0},
            },
        },
    },
}


def validate_config(raw: dict) -> dict:
    """Schema-check a raw config dict and fill absent keys from the schema defaults."""
    try:
        jsonschema.validate(raw, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        path = "$" + "".join(f".{p}" if isinstance(p, str) else f"[{p}]" for p in exc.absolute_path)
        raise ConfigError(f"{path}: {exc.message}") from exc
    cfg = {}
    for key, spec in CONFIG_SCHEMA["properties"].items():
        if "properties" in spec:
            given = raw.get(key, {})
            cfg[key] = {
                name: given[name] if name in given else copy.deepcopy(prop["default"])
                for name, prop in spec["properties"].items()
            }
        elif "default" in spec:
            cfg[key] = raw.get(key, copy.deepcopy(spec["default"]))
    return cfg


def load_config(path: str | Path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return validate_config(raw)


@dataclass(frozen=True)
class Environment:
    """Everything a trial needs, derived once from the config."""

    srs: model.SrsConfig
    geometry: model.ArrayGeometry
    true_steering: model.SteeringModel
    jade_configs: dict[str, pipeline.JadeConfig]
    smoothing: baselines.SmoothingConfig
    pose: positioning.TrpPose
    scenario: dict
    estimators: tuple[str, ...]


def preprocess_config(cfg: dict) -> preprocessing.PreprocessConfig:
    """The reduction the config's ``preprocess`` block describes."""
    pp = cfg["preprocess"]
    return preprocessing.PreprocessConfig.from_ns(
        int(pp["ifft_points"]), pp["window_lo_ns"], pp["window_hi_ns"], int(pp["fft_points_out"])
    )


def build_environment(cfg: dict) -> Environment:
    wf = cfg["waveform"]
    srs = model.SrsConfig(
        carrier_frequency_hz=wf["carrier_frequency_hz"],
        subcarrier_spacing_hz=wf["subcarrier_spacing_hz"],
        num_subcarriers=int(wf["num_subcarriers"]),
    )
    arr = cfg["array"]
    spacing = arr["spacing_m"] if arr["spacing_m"] is not None else srs.wavelength_m / 2.0
    geometry = model.ArrayGeometry.ula(int(arr["num_elements"]), spacing, srs.wavelength_m)

    cal = cfg["calibration"]
    ideal = model.SteeringModel("ideal", geometry)
    if cal["enabled"]:
        profile = calibration.synth_error_profile(
            seed=int(cal["profile_seed"]),
            max_phase_deg=float(cal["max_phase_deg"]),
            num_elements=geometry.num_elements,
        )
        measurements = calibration.measure_profile(profile, float(cal["measurement_step_deg"]))
        fitted = calibration.fit_phase_error(measurements, int(cal["fit_order"]))
        true_steering = calibration.impaired_steering_model(geometry, profile)
        calibrated = calibration.calibrated_steering_model(geometry, fitted)
    else:
        true_steering = ideal
        calibrated = ideal

    g = cfg["grids"]
    angle_grid = pipeline.AngleGrid.regular(g["angle_lo_deg"], g["angle_hi_deg"], g["angle_step_deg"])
    search_span = (
        g["search_range_m"][0] / model.SPEED_OF_LIGHT,
        g["search_range_m"][1] / model.SPEED_OF_LIGHT,
    )
    pre = preprocess_config(cfg) if cfg["preprocess"]["enabled"] else None
    iaa = toa.IaaSettings(
        max_iterations=int(cfg["iaa"]["max_iterations"]),
        convergence_tol=float(cfg["iaa"]["convergence_tol"]),
        diagonal_loading=float(cfg["iaa"]["diagonal_loading"]),
    )
    delay_points = cfg["grids"]["delay_points"]
    delay_points = int(delay_points) if delay_points is not None else None

    jade_configs = {
        name: pipeline.JadeConfig(
            steering=calibrated if est.calibrated else ideal,
            angle_grid=angle_grid,
            iaa=iaa,
            impl=est.impl,
            delay_points=delay_points,
            search_span_s=search_span,
            detection_threshold_db=float(cfg["detection"]["threshold_db"]),
            preprocess=pre,
        )
        for name, est in ESTIMATORS.items()
    }
    pos = cfg["positioning"]
    return Environment(
        srs=srs,
        geometry=geometry,
        true_steering=true_steering,
        jade_configs=jade_configs,
        smoothing=baselines.SmoothingConfig(
            int(cfg["smoothing"]["freq_order"]), int(cfg["smoothing"]["space_order"])
        ),
        pose=positioning.TrpPose(tuple(pos["trp_position_m"]), pos["boresight_deg"]),
        scenario=cfg["scenario"],
        estimators=tuple(cfg["estimators"]),
    )


def generate_scenario(
    env: Environment, path_count: int, snr_db: float, master_seed: int, cell: int, trial: int
) -> model.ScenarioTruth:
    """Counter-seeded random scenario: uniform DOAs/TOAs, equal-gain paths."""
    ss = np.random.SeedSequence([int(master_seed), int(cell), int(trial)])
    rng = np.random.default_rng(ss)
    sc = env.scenario
    doa_lo, doa_hi = sc["doa_span_deg"]
    toa_lo, toa_hi = (v * 1e-9 for v in sc["toa_span_ns"])
    doas = rng.uniform(doa_lo, doa_hi, path_count)
    toas = rng.uniform(toa_lo, toa_hi, path_count)
    phases = rng.uniform(0.0, 2.0 * np.pi, path_count)
    los = int(np.argmin(toas))
    paths = tuple(
        model.PathParam(doas[k], toas[k], np.exp(1j * phases[k]), is_los=(k == los))
        for k in range(path_count)
    )
    paths = model.snr_scale(paths, snr_db, sc["noise_variance"])
    return model.ScenarioTruth(paths=paths, snr_db=snr_db, seed=int(ss.generate_state(1)[0]))


def synthesize_trial(
    env: Environment, truth: model.ScenarioTruth, master_seed: int, cell: int, trial: int
) -> model.CfrMatrix:
    noise_ss = np.random.SeedSequence([int(master_seed), int(cell), int(trial), 1])
    return model.synthesize_cfr(
        env.srs,
        env.geometry,
        truth.paths,
        steering=env.true_steering,
        noise=model.NoiseSpec(env.scenario["noise_variance"]),
        seed=np.random.default_rng(noise_ss),
    )


def run_estimator(env: Environment, name: str, cfr: model.CfrMatrix,
                  path_count: int) -> pipeline.JadeEstimate:
    """Run the named estimator on a trial with ``path_count`` true paths."""
    return ESTIMATORS[name].run(cfr, env.jade_configs[name], env.smoothing, path_count)


@dataclass(frozen=True)
class TrialRecord:
    """One trial: ground truth plus every estimator's result and errors.

    Replayable: the stored (path_count, snr_db, trial) plus the sweep's
    master seed regenerate the scenario, the CFR, and hence the estimates
    bit-for-bit.  ``errors`` holds (doa_err_deg, toa_err_ns, pos_err_m).
    """

    path_count: int
    snr_db: float
    trial: int
    seed: int
    truth: model.ScenarioTruth
    estimates: dict[str, "pipeline.JadeEstimate"]
    errors: dict[str, tuple[float, float, float]]
    wall_ns: dict[str, int]

    def rows(self):
        """Flat (name, doa, toa, pos) error tuples in estimator-name order."""
        for name in sorted(self.estimates):
            yield (name, *self.errors[name])


def _run_trial(env: Environment, master_seed: int, cell: int, path_count: int,
               snr_db: float, trial: int) -> TrialRecord:
    truth = generate_scenario(env, path_count, snr_db, master_seed, cell, trial)
    cfr = synthesize_trial(env, truth, master_seed, cell, trial)
    los = truth.los
    truth_pos = positioning.single_site_fix(
        env.pose, los.doa_deg, los.toa_s * model.SPEED_OF_LIGHT
    ).position_m
    estimates, errors, walls = {}, {}, {}
    for name in env.estimators:
        t0 = time.perf_counter_ns()
        est = run_estimator(env, name, cfr, path_count)
        walls[name] = int(time.perf_counter_ns() - t0)
        fix = positioning.single_site_fix(env.pose, est.doa_deg, est.toa_s * model.SPEED_OF_LIGHT)
        estimates[name] = est
        errors[name] = (
            float(est.doa_deg - los.doa_deg),
            float((est.toa_s - los.toa_s) * 1e9),
            float(np.hypot(fix.position_m[0] - truth_pos[0], fix.position_m[1] - truth_pos[1])),
        )
    return TrialRecord(
        path_count=path_count,
        snr_db=snr_db,
        trial=trial,
        seed=truth.seed,
        truth=truth,
        estimates=estimates,
        errors=errors,
        wall_ns=walls,
    )


_WORKER: dict = {}


def _init_worker(cfg: dict, master_seed: int) -> None:
    _WORKER.update(cfg=cfg, seed=master_seed)


def _worker_trial(task: tuple[int, int, float, int]) -> TrialRecord:
    # built on first use, not in the initializer: a config fault then reaches
    # the caller as its own exception, not as a broken pool
    if "env" not in _WORKER:
        _WORKER["env"] = build_environment(_WORKER["cfg"])
    return _run_trial(_WORKER["env"], _WORKER["seed"], *task)


def run_monte_carlo(
    cfg: dict, master_seed: int = 0, workers: int = 1, out_dir: str | Path | None = None
) -> list[TrialRecord]:
    """Run the configured sweep; optionally write results and summaries.

    Outputs (results.csv, summary.json, plot tables) are deterministic for a
    fixed (config, master seed); wall times go to a separate timing.json.
    """
    sc = cfg["scenario"]
    tasks = [
        (cell, int(pc), float(snr), trial)
        for cell, (pc, snr) in enumerate(itertools.product(sc["path_counts"], sc["snr_db"]))
        for trial in range(int(sc["trials"]))
    ]
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(cfg, master_seed)
        ) as pool:
            records = list(pool.map(_worker_trial, tasks, chunksize=4))
    else:
        env = build_environment(cfg)
        records = [_run_trial(env, master_seed, *t) for t in tasks]
    records.sort(key=lambda r: (r.path_count, r.snr_db, r.trial))
    if out_dir is not None:
        write_results(records, cfg, master_seed, Path(out_dir))
    return records


def write_results(records: list[TrialRecord], cfg: dict, master_seed: int, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "results.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["path_count", "snr_db", "trial", "estimator", "doa_err_deg", "toa_err_ns", "pos_err_m"]
        )
        for r in records:
            for name, doa, toa, pos in r.rows():
                writer.writerow(
                    [r.path_count, repr(r.snr_db), r.trial, name,
                     repr(doa), repr(toa), repr(pos)]
                )
    (out_dir / "summary.json").write_text(json.dumps(summarize(records, master_seed), indent=2))
    timing = {}
    for r in records:
        for name, wall in r.wall_ns.items():
            timing.setdefault(name, []).append(wall)
    (out_dir / "timing.json").write_text(
        json.dumps(
            {
                name: {"mean_ms": float(np.mean(v) / 1e6), "median_ms": float(np.median(v) / 1e6)}
                for name, v in timing.items()
            },
            indent=2,
        )
    )
    emit_plot_data(records, out_dir / "plots")


def _cells(records: list[TrialRecord]) -> dict[tuple[int, float, str], list[tuple]]:
    """(doa, toa, pos) signed errors grouped by (path count, SNR, estimator)."""
    cells: dict[tuple, list] = {}
    for r in records:
        for name, doa, toa, pos in r.rows():
            cells.setdefault((r.path_count, r.snr_db, name), []).append((doa, toa, pos))
    return cells


def summarize(records: list[TrialRecord], master_seed: int) -> dict:
    out = []
    for (pc, snr, name), rows in sorted(_cells(records).items()):
        zero = [0.0] * len(rows)
        doa = positioning.error_stats([x[0] for x in rows], zero)
        toa = positioning.error_stats([x[1] for x in rows], zero)
        pos = positioning.error_stats([x[2] for x in rows], zero)
        out.append(
            {
                "path_count": pc,
                "snr_db": snr,
                "estimator": name,
                "trials": len(rows),
                "doa_deg": {"rmse": doa["rmse"], "percentiles": doa["percentiles"]},
                "toa_ns": {"rmse": toa["rmse"], "percentiles": toa["percentiles"]},
                "pos_m": {"rmse": pos["rmse"], "percentiles": pos["percentiles"]},
            }
        )
    return {"master_seed": master_seed, "cells": out}


def emit_plot_data(records: list[TrialRecord], out_dir: Path) -> None:
    """Per-figure CSVs: error CDFs per cell and percentile-vs-SNR tables."""
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics = {"doa_deg": 0, "toa_ns": 1, "pos_m": 2}
    cells = {
        key: [tuple(abs(e) for e in row) for row in rows]
        for key, rows in _cells(records).items()
    }
    for metric, col in metrics.items():
        for (pc, snr, name), rows in sorted(cells.items()):
            path = out_dir / f"cdf_{metric}_paths{pc}_snr{snr:+g}_{name}.csv"
            errors = np.sort([row[col] for row in rows])
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["error", "cum_fraction"])
                for i, e in enumerate(errors):
                    writer.writerow([repr(float(e)), repr((i + 1) / errors.size)])
        # 80th percentile vs SNR, one file per path count
        by_pc: dict[int, dict] = {}
        for (pc, snr, name), rows in cells.items():
            by_pc.setdefault(pc, {}).setdefault(name, {})[snr] = float(
                np.percentile([row[col] for row in rows], 80.0)
            )
        for pc, by_name in sorted(by_pc.items()):
            path = out_dir / f"p80_{metric}_vs_snr_paths{pc}.csv"
            with path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["snr_db", "estimator", "p80"])
                for name, by_snr in sorted(by_name.items()):
                    for snr, val in sorted(by_snr.items()):
                        writer.writerow([repr(snr), name, repr(val)])
    if not records:
        for metric in metrics:
            (out_dir / f"cdf_{metric}_empty.csv").write_text("error,cum_fraction\n")


def run_benchmark(
    cfg: dict, runs: int = 50, master_seed: int = 0, out_dir: str | Path | None = None
) -> dict:
    """Median/mean wall time per estimator on one fixed scenario.

    Timing wraps the estimator call only; any configured preprocessing is
    applied once up front so all estimators see the same already-reduced
    matrix (the estimator configs are stripped of their preprocess stage).
    """
    if runs < 1:
        raise ValueError(f"runs must be at least 1, got {runs}")
    env = build_environment(cfg)
    sc = env.scenario
    order = int(sc["path_counts"][0])
    truth = generate_scenario(env, order, float(sc["snr_db"][0]), master_seed, 0, 0)
    cfr = synthesize_trial(env, truth, master_seed, 0, 0)
    pre = env.jade_configs["fft_iaa"].preprocess
    if pre is not None:
        cfr = preprocessing.preprocess(cfr, pre)
        stripped = {
            name: replace(jc, preprocess=None) for name, jc in env.jade_configs.items()
        }
        env = replace(env, jade_configs=stripped)
    table = {}
    for name in env.estimators:
        for _ in range(3):  # warm-up
            run_estimator(env, name, cfr, order)
        samples = []
        for _ in range(runs):
            t0 = time.perf_counter_ns()
            run_estimator(env, name, cfr, order)
            samples.append(time.perf_counter_ns() - t0)
        table[name] = {
            "runs": runs,
            "median_ms": float(np.median(samples) / 1e6),
            "mean_ms": float(np.mean(samples) / 1e6),
        }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "benchmark.json").write_text(json.dumps(table, indent=2))
    return table
