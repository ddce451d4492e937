"""Workloads: set-up, the timed closed loop, the traced replay and the output checks.

One process, one client: each operation starts when the previous one has
returned (closed loop).  Every run attempts whole rounds of the same
operations, so the first round, which fixes the accuracy figures, is the same
in every run whatever the machine's speed.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
import inputs
from srsjade import (
    AngleGrid,
    AntennaErrorMeasurements,
    ArrayGeometry,
    CfrMatrix,
    IaaSettings,
    JadeConfig,
    PreprocessConfig,
    RfChannelResponse,
    SrsConfig,
    SteeringModel,
    TrpPose,
    calibrate_channel,
    cbf_doa,
    fit_phase_error,
    jade,
    multichannel_toa,
    preprocess,
    single_site_fix,
    triangulate,
)
from srsjade.baselines import SmoothingConfig, music_jade, periodogram_jade
from srsjade.calibration import CalibrationError
from srsjade.pipeline import (
    DetectionError,
    average_spectra,
    build_delay_grid,
    detect_paths,
    select_los,
)
from srsjade.positioning import GeometryError
from srsjade.toa import EstimationError, capon_denominators, toeplitz_covariance

# errors the program raises for inputs it cannot estimate from; an operation
# that raises one counts as failed
PROGRAM_ERRORS = (CalibrationError, DetectionError, EstimationError, GeometryError)


@dataclass(frozen=True)
class Workload:
    """What one operation is, and how many distinct ones make a round."""

    kind: str  # "fix" or "comparison"
    round_size: int
    out_tones: int = 64
    window_ns: float = 256.0
    delay_points: int = 1024
    impl: str = "fft"


WORKLOADS = {
    # the paper's real-time path: 2048 -> 64 tones, FFT-IAA on P = 1024
    "fix_fullband": Workload("fix", round_size=360),
    # same fixes, 128 tones in +-512 ns: the M x M solve dominates
    "fix_wide": Workload("fix", round_size=72, out_tones=128, window_ns=512.0, delay_points=2048),
    # same fixes through the matched filter: calibration and preprocessing show
    "fix_coarse": Workload("fix", round_size=360, impl="periodogram"),
    # one snapshot through FFT-IAA, 2-D periodogram and smoothed MUSIC
    "comparison_sweep": Workload("comparison", round_size=9),
}

ANGLE_GRID = AngleGrid.regular(-inputs.DOA_SPAN_DEG, inputs.DOA_SPAN_DEG, 0.2)
IAA = IaaSettings(max_iterations=15, convergence_tol=1e-4, diagonal_loading=1e-8)
SMOOTHING = SmoothingConfig(freq_order=6, space_order=2)
THRESHOLD_DB = 10.0
CANARY_DELAY_INDEX = 40
CANARY_DOA_DEG = ANGLE_GRID.angles_deg[386]  # 17.2 deg


class Spans:
    """perf_counter_ns spans kept in memory: (op, parent, name, start, end)."""

    def __init__(self) -> None:
        self.records: list[tuple[int, str, str, int, int]] = []
        self.op = 0

    def add(self, parent: str, name: str, start: int, end: int) -> None:
        self.records.append((self.op, parent, name, start, end))

    def durations_ms(self, name: str) -> list[float]:
        return [(e - s) / 1e6 for _, _, n, s, e in self.records if n == name]


@dataclass
class Bench:
    """Everything set up before the first timed operation."""

    workload: Workload
    sites: tuple
    poses: tuple
    fitted: tuple
    srs: SrsConfig
    geometry: ArrayGeometry
    configs: tuple  # per site, calibrated steering: the proposed pipeline
    ideal_configs: tuple  # per site, ideal steering: the 2-D baselines
    fit_ms: list


def setup(name: str, seed: int) -> Bench:
    wl = WORKLOADS[name]
    sites = inputs.make_sites(seed)
    srs = SrsConfig(inputs.CARRIER_HZ, inputs.SPACING_HZ, inputs.NUM_TONES)
    geometry = ArrayGeometry.half_wavelength_ula(inputs.NUM_ELEMENTS, inputs.CARRIER_HZ)
    pre = PreprocessConfig.from_ns(inputs.NUM_TONES, -wl.window_ns, wl.window_ns, wl.out_tones)
    fitted, fit_ms, configs, ideal_configs = [], [], [], []
    for site in sites:
        angles, phases = site.measurements()
        t0 = time.perf_counter_ns()
        poly = fit_phase_error(AntennaErrorMeasurements(angles, phases), inputs.PHASE_ORDER)
        fit_ms.append((time.perf_counter_ns() - t0) / 1e6)
        fitted.append(poly)
        common = dict(
            angle_grid=ANGLE_GRID,
            iaa=IAA,
            delay_points=wl.delay_points,
            detection_threshold_db=THRESHOLD_DB,
            preprocess=pre,
            rf_response=RfChannelResponse(site.rf_gamma),
        )
        configs.append(JadeConfig(
            steering=SteeringModel("calibrated", geometry, poly), impl=wl.impl, **common))
        ideal_configs.append(JadeConfig(steering=SteeringModel("ideal", geometry), **common))
    return Bench(
        workload=wl,
        sites=sites,
        poses=tuple(TrpPose(s.position_m, s.boresight_deg) for s in sites),
        fitted=tuple(fitted),
        srs=srs,
        geometry=geometry,
        configs=tuple(configs),
        ideal_configs=tuple(ideal_configs),
        fit_ms=fit_ms,
    )


# --- operations ---------------------------------------------------------------


@dataclass(frozen=True)
class Item:
    """Inputs of one operation, with the reference fix they come from."""

    index: int
    cfrs: tuple  # CfrMatrix per snapshot
    snapshots: tuple  # inputs.Snapshot per snapshot, in the same order
    fix: inputs.Fix


def make_item(bench: Bench, index: int) -> Item:
    fix = inputs.make_fix(index, bench.sites)
    snaps = fix.snapshots
    if bench.workload.kind == "comparison":
        snaps = (snaps[index % 2],)  # alternate the receive point
    cfrs = tuple(CfrMatrix(s.cfr, bench.srs, bench.geometry) for s in snaps)
    return Item(index, cfrs, snaps, fix)


@dataclass(frozen=True)
class OpResult:
    """Estimates of one operation; ``scored`` are the ones the accuracy uses."""

    jade: tuple
    scored: tuple
    position_m: tuple
    periodogram: object = None


def run_op(bench: Bench, item: Item) -> OpResult:
    """The timed operation."""
    if bench.workload.kind == "fix":
        ests = tuple(jade(cfr, bench.configs[s.site]) for cfr, s in zip(item.cfrs, item.snapshots))
        fix = triangulate(bench.poses[0], ests[0].doa_deg, bench.poses[1], ests[1].doa_deg)
        return OpResult(ests, ests, fix.position_m)
    (cfr,), (snap,) = item.cfrs, item.snapshots
    cfg = bench.ideal_configs[snap.site]
    est = jade(cfr, bench.configs[snap.site])
    pg = periodogram_jade(cfr, cfg)
    mu = music_jade(cfr, cfg, SMOOTHING, model_order=snap.path_count)
    fix = single_site_fix(bench.poses[snap.site], mu.doa_deg, mu.toa_s * inputs.SPEED_OF_LIGHT)
    return OpResult((est,), (mu,), fix.position_m, pg)


def warm_up(bench: Bench) -> None:
    """First calls fill the program's lazy caches; MUSIC keeps none."""
    item = make_item(bench, 0)
    if bench.workload.kind == "fix":
        run_op(bench, item)
        return
    (cfr,), (snap,) = item.cfrs, item.snapshots
    jade(cfr, bench.configs[snap.site])
    periodogram_jade(cfr, bench.ideal_configs[snap.site])


@dataclass
class LoopResult:
    attempted: int
    failed: int
    rounds: int
    loop_s: float
    latencies_ns: list
    doa_err_deg: list
    toa_err_s: list
    pos_err_m: list
    peak_rss_mib: float
    first_result: OpResult  # of operation 0, which the checks sample


def _rounds(bench: Bench, seconds: float, body):
    """Call body(item, first_round) over whole rounds for about ``seconds``.

    Input generation is the benchmark's own work: its time is left out of the
    loop time.  Another round starts only if it is expected to end in time.
    Returns (rounds, loop seconds, attempted, failed).
    """
    start = time.perf_counter()
    generating = 0.0
    rounds = attempted = failed = 0
    while True:
        for index in range(bench.workload.round_size):
            g0 = time.perf_counter()
            item = make_item(bench, index)
            generating += time.perf_counter() - g0
            attempted += 1
            try:
                body(item, rounds == 0)
            except PROGRAM_ERRORS:
                failed += 1
        rounds += 1
        loop_s = time.perf_counter() - start - generating
        if loop_s * (rounds + 1) / rounds > seconds:
            return rounds, loop_s, attempted, failed


def timed_loop(bench: Bench, seconds: float) -> LoopResult:
    latencies, doa, toa, pos, kept = [], [], [], [], []

    def body(item: Item, first_round: bool) -> None:
        t0 = time.perf_counter_ns()
        result = run_op(bench, item)
        latencies.append(time.perf_counter_ns() - t0)
        if not first_round:
            return
        for est, snap in zip(result.scored, item.snapshots):
            doa.append(abs(est.doa_deg - snap.los_doa_deg))
            toa.append(abs(est.toa_s - snap.los_toa_s))
        target = item.fix.target_m
        pos.append(float(np.hypot(result.position_m[0] - target[0],
                                  result.position_m[1] - target[1])))
        if item.index == 0:
            kept.append(result)

    rounds, loop_s, attempted, failed = _rounds(bench, seconds, body)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return LoopResult(attempted, failed, rounds, loop_s, latencies, doa, toa, pos, peak,
                      kept[0] if kept else None)


# --- staged pipeline (traced run and checks) ----------------------------------


@dataclass
class Staged:
    """The estimate of a staged ``jade`` call and the intermediates the checks read."""

    doa_deg: float
    toa_s: float
    los_index: int
    detections: int
    b_los: np.ndarray
    calibrated: CfrMatrix
    reduced: CfrMatrix
    grid: object
    spectra: np.ndarray  # (N, P)
    sweeps: list
    toa_ms: float


STAGES = ("calibration.calibrate_channel", "preprocessing.preprocess",
          "pipeline.build_delay_grid", "toa.multichannel_toa", "pipeline.detect",
          "pipeline.cbf_doa")


def staged_jade(cfr: CfrMatrix, cfg: JadeConfig, spans: Spans | None = None) -> Staged:
    """The calls ``pipeline.jade`` makes, one by one, in its order."""
    clock = time.perf_counter_ns
    marks = [clock()]
    calibrated = calibrate_channel(cfr, cfg.rf_response)
    marks.append(clock())
    reduced = preprocess(calibrated, cfg.preprocess)
    marks.append(clock())
    grid = build_delay_grid(reduced, cfg)
    marks.append(clock())
    spectra = multichannel_toa(reduced, grid, cfg.iaa, impl=cfg.impl)
    marks.append(clock())
    avg = average_spectra(spectra)
    detections = detect_paths(avg, grid, cfg.detection_threshold_db)
    amps = np.array([s.amplitudes for s in spectra])
    detections = [replace(d, channel_amplitudes=amps[:, d.grid_index]) for d in detections]
    los = select_los(detections)
    marks.append(clock())
    doa, _ = cbf_doa(los.channel_amplitudes, cfg.steering, cfg.angle_grid)
    marks.append(clock())
    if spans is not None:
        for name, start, end in zip(STAGES, marks, marks[1:]):
            spans.add("pipeline.jade", name, start, end)
        spans.add("op", "pipeline.jade", marks[0], marks[-1])
    return Staged(
        doa_deg=doa,
        toa_s=los.delay_s + reduced.delay_offset_s,
        los_index=los.grid_index,
        detections=len(detections),
        b_los=los.channel_amplitudes,
        calibrated=calibrated,
        reduced=reduced,
        grid=grid,
        spectra=amps,
        sweeps=[s.iterations for s in spectra],
        toa_ms=(marks[4] - marks[3]) / 1e6,
    )


def _timed(spans: Spans, parent: str, name: str, fn, *args, **kwargs):
    t0 = time.perf_counter_ns()
    out = fn(*args, **kwargs)
    spans.add(parent, name, t0, time.perf_counter_ns())
    return out


def _probe_toa(bench: Bench, staged: Staged, spans: Spans) -> float:
    """Single toa calls at the workload's M, P and channel count; returns ms per sweep."""
    reduced, grid = staged.reduced, staged.grid
    m, p = reduced.num_subcarriers, grid.num_points
    power = np.abs(np.fft.ifft(reduced.data.T, n=p, axis=1) * (p / m)) ** 2
    cov = _timed(spans, "probe", "toa.toeplitz_covariance", toeplitz_covariance, power, m)
    q = np.linalg.inv(cov + 1e-8 * np.real(cov[:, :1, :1]) * np.eye(m))
    _timed(spans, "probe", "toa.capon_denominators", capon_denominators, q, p)
    if bench.workload.impl == "fft":
        return staged.toa_ms / max(staged.sweeps)
    # the matched filter runs no sweep: time an FFT-IAA call on the same input
    t0 = time.perf_counter_ns()
    spectra = multichannel_toa(reduced, grid, IAA, impl="fft")
    return (time.perf_counter_ns() - t0) / 1e6 / max(s.iterations for s in spectra)


def traced_loop(bench: Bench, seconds: float):
    """Replay the same rounds with every stage timed; returns per-layer metrics.

    Spans of the operation itself are parented to "op"; single calls made
    only to measure a layer the operation does not exercise, or a call at
    fixed dimensions, are parented to "probe" and run after the op span ends.
    """
    spans = Spans()
    sweeps, detections, sweeps_ms = [], [], []

    def after_op(staged_list) -> None:
        for st in staged_list:
            sweeps.append(sum(st.sweeps))
            detections.append(st.detections)
            sweeps_ms.append(_probe_toa(bench, st, spans))

    def body(item: Item, first_round: bool) -> None:
        spans.op += 1
        t_op = time.perf_counter_ns()
        snaps = item.snapshots
        if bench.workload.kind == "fix":
            staged = [staged_jade(cfr, bench.configs[s.site], spans)
                      for cfr, s in zip(item.cfrs, snaps)]
            _timed(spans, "op", "positioning.triangulate", triangulate,
                   bench.poses[0], staged[0].doa_deg, bench.poses[1], staged[1].doa_deg)
            spans.add("root", "op", t_op, time.perf_counter_ns())
            after_op(staged)
            for st, s in zip(staged, snaps):  # each receive point's own fix
                _timed(spans, "probe", "positioning.single_site_fix", single_site_fix,
                       bench.poses[s.site], st.doa_deg, st.toa_s * inputs.SPEED_OF_LIGHT)
            if spans.op == 1:  # the 2-D baselines, once per run
                cfg = bench.ideal_configs[snaps[0].site]
                _timed(spans, "probe", "baselines.periodogram_jade", periodogram_jade,
                       item.cfrs[0], cfg)
                _timed(spans, "probe", "baselines.music_jade", music_jade,
                       item.cfrs[0], cfg, SMOOTHING, model_order=snaps[0].path_count)
            return
        (cfr,), (snap,) = item.cfrs, snaps
        cfg = bench.ideal_configs[snap.site]
        staged = staged_jade(cfr, bench.configs[snap.site], spans)
        _timed(spans, "op", "baselines.periodogram_jade", periodogram_jade, cfr, cfg)
        est = _timed(spans, "op", "baselines.music_jade", music_jade, cfr, cfg,
                     SMOOTHING, model_order=snap.path_count)
        _timed(spans, "op", "positioning.single_site_fix", single_site_fix,
               bench.poses[snap.site], est.doa_deg, est.toa_s * inputs.SPEED_OF_LIGHT)
        spans.add("root", "op", t_op, time.perf_counter_ns())
        after_op([staged])
        bearings = [s.bearing_range(item.fix.target_m)[0] for s in bench.sites]
        _timed(spans, "probe", "positioning.triangulate", triangulate,
               bench.poses[0], bearings[0], bench.poses[1], bearings[1])

    rounds, _, attempted, failed = _rounds(bench, seconds, body)

    def med(name):
        return float(np.median(spans.durations_ms(name)))

    metrics = {
        "calibration.fit_phase_error_ms": (float(np.median(bench.fit_ms)), "ms"),
        "calibration.calibrate_channel_ms": (med("calibration.calibrate_channel"), "ms"),
        "preprocessing.preprocess_ms": (med("preprocessing.preprocess"), "ms"),
        "toa.multichannel_toa_ms": (med("toa.multichannel_toa"), "ms"),
        "toa.ms_per_sweep": (float(np.median(sweeps_ms)), "ms"),
        "toa.toeplitz_covariance_ms": (med("toa.toeplitz_covariance"), "ms"),
        "toa.capon_denominators_ms": (med("toa.capon_denominators"), "ms"),
        "toa.sweeps": (float(np.median(sweeps)), "count"),
        "pipeline.detect_ms": (med("pipeline.detect"), "ms"),
        "pipeline.cbf_doa_ms": (med("pipeline.cbf_doa"), "ms"),
        "pipeline.detections": (float(np.mean(detections)), "count"),
        "pipeline.jade_ms": (med("pipeline.jade"), "ms"),
        "positioning.triangulate_ms": (med("positioning.triangulate"), "ms"),
        "positioning.single_site_fix_ms": (med("positioning.single_site_fix"), "ms"),
        "baselines.music_jade_ms": (med("baselines.music_jade"), "ms"),
        "baselines.periodogram_jade_ms": (med("baselines.periodogram_jade"), "ms"),
    }
    return metrics, spans, rounds, attempted, failed


# --- output checks --------------------------------------------------------------


def _reference_chain(bench: Bench, cfr: CfrMatrix, site: int, cfg: JadeConfig, est):
    """Check one snapshot's calibration, reduction, spectra, LOS and DOA."""
    wl = bench.workload
    staged = staged_jade(cfr, cfg)
    if (staged.doa_deg, staged.toa_s) != (est.doa_deg, est.toa_s):
        raise checks.CheckFailed(
            f"staged calls give ({staged.doa_deg}, {staged.toa_s}), "
            f"jade() gives ({est.doa_deg}, {est.toa_s})")
    calibrated = cfr.data / bench.sites[site].rf_gamma
    checks.check_rf_division(staged.calibrated.data, cfr.data, bench.sites[site].rf_gamma)
    window = (-wl.window_ns * 1e-9, wl.window_ns * 1e-9)
    checks.check_preprocess(calibrated, staged.reduced.data, staged.reduced.delay_offset_s,
                            inputs.SPACING_HZ, inputs.NUM_TONES, window, wl.out_tones)
    checks.check_energy(calibrated, staged.reduced.data, inputs.NUM_TONES, wl.out_tones)
    ref = checks.reference_spectra(staged.reduced.data, wl.delay_points, IAA, wl.impl)
    checks.check_spectra(staged.spectra, ref)
    search = checks.in_frame_search(wl.delay_points, staged.reduced.srs.subcarrier_spacing_hz,
                                    staged.reduced.delay_offset_s)
    los = checks.reference_los(ref, search, THRESHOLD_DB)
    checks.check_los(staged.los_index, los)
    poly = bench.fitted[site]
    checks.check_cbf(est.b_los, est.doa_deg, poly.coefficients, poly.span_deg)
    checks.check_cbf(ref[:, los], est.doa_deg, poly.coefficients, poly.span_deg)
    return staged


def _check_baselines(bench: Bench, staged: Staged, snap, result: OpResult) -> None:
    """The reported 2-D LOS cells are local maxima of recomputed maps."""
    reduced = staged.reduced
    p_count = bench.workload.delay_points
    step = 1.0 / (p_count * reduced.srs.subcarrier_spacing_hz)
    search = checks.in_frame_search(p_count, reduced.srs.subcarrier_spacing_hz,
                                    reduced.delay_offset_s)
    proj, len_f, len_s = checks.music_noise_projector(
        reduced.data, SMOOTHING.freq_order, SMOOTHING.space_order, snap.path_count)
    for est, label, value_at in (
        (result.periodogram, "periodogram", lambda p, q: checks.periodogram_power(
            reduced.data, p_count, p, checks.ANGLES_DEG[q])),
        (result.scored[0], "MUSIC", lambda p, q: checks.music_pseudo(
            proj, len_f, len_s, p_count, p, checks.ANGLES_DEG[q])),
    ):
        p = int(round((est.toa_s - reduced.delay_offset_s) / step))
        checks.check_local_max(value_at, p, checks.angle_index(est.doa_deg), search, label)


def canaries(bench: Bench):
    """A noiseless on-grid single path in the reduced frame, through every estimator.

    Returns the true delay, the delay grid step and (label, estimate) pairs.
    """
    wl = bench.workload
    spacing = inputs.SPACING_HZ * inputs.NUM_TONES / wl.out_tones
    srs = SrsConfig(inputs.CARRIER_HZ, spacing, wl.out_tones)
    step = 1.0 / (wl.delay_points * spacing)
    tau = CANARY_DELAY_INDEX * step
    delay = np.exp(-2j * np.pi * np.arange(wl.out_tones)[:, None] * spacing * tau)
    ideal = np.exp(1j * np.pi * np.arange(inputs.NUM_ELEMENTS) * np.sin(np.deg2rad(CANARY_DOA_DEG)))
    impaired = ideal * np.exp(1j * bench.sites[0].phase_error([CANARY_DOA_DEG])[:, 0])
    bare = dict(preprocess=None, rf_response=None)
    out = [("jade", jade(CfrMatrix(delay * impaired, srs, bench.geometry),
                         replace(bench.configs[0], **bare)))]
    if wl.kind == "comparison":
        ideal_cfr = CfrMatrix(delay * ideal, srs, bench.geometry)
        ideal_cfg = replace(bench.ideal_configs[0], **bare)
        out += [
            ("periodogram_jade", periodogram_jade(ideal_cfr, ideal_cfg)),
            ("music_jade", music_jade(ideal_cfr, ideal_cfg, SMOOTHING, model_order=1)),
        ]
    return tau, step, out


def run_checks(bench: Bench, first: OpResult | None = None) -> None:
    """Every check on a sample of the run: operation 0; raises CheckFailed.

    ``first`` is operation 0's result from the timed loop; a traced run keeps
    none, and the operation is run again here.
    """
    for site, poly in zip(bench.sites, bench.fitted):
        checks.check_fit(poly.coefficients, poly.span_deg, site.phase_coefs)
    item = make_item(bench, 0)
    result = first or run_op(bench, item)
    target = item.fix.target_m
    truth = [s.bearing_range(target)[0] for s in bench.sites]
    fix = triangulate(bench.poses[0], truth[0], bench.poses[1], truth[1])
    checks.check_triangulation(fix.position_m, target)
    for cfr, snap, est in zip(item.cfrs, item.snapshots, result.jade):
        staged = _reference_chain(bench, cfr, snap.site, bench.configs[snap.site], est)
        if bench.workload.kind == "comparison":
            _check_baselines(bench, staged, snap, result)
    tau, step, results = canaries(bench)
    for label, est in results:
        checks.check_canary(est.doa_deg, est.toa_s, CANARY_DOA_DEG, tau, step, label)
