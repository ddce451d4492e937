"""Show that every output check can fail.

    python3 jadebench/selftest.py

Each check of ``checks.py`` is run on outputs of the program for one input
of seed 1: once as the program produced them, which must pass, and once
perturbed, which must be rejected.  Prints one line per case and exits 1 if
any check passes a perturbed output or rejects a true one.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from srsjade import (  # noqa: E402
    AntennaErrorMeasurements,
    fit_phase_error,
    jade,
    multichannel_toa,
    preprocess,
    triangulate,
)
from srsjade.baselines import music_jade, periodogram_jade  # noqa: E402
from srsjade.preprocessing import estimate_phase_slope  # noqa: E402


def main() -> int:
    bench = workloads.setup("comparison_sweep", 1)
    wl = bench.workload
    item = workloads.make_item(bench, 0)
    (cfr,), (snap,) = item.cfrs, item.snapshots
    site = bench.sites[snap.site]
    poly = bench.fitted[snap.site]
    cfg = bench.configs[snap.site]
    est = jade(cfr, cfg)
    staged = workloads.staged_jade(cfr, cfg)
    reduced, grid = staged.reduced, staged.grid
    calibrated = cfr.data / site.rf_gamma
    window = (-wl.window_ns * 1e-9, wl.window_ns * 1e-9)
    step_deg = checks.ANGLES_DEG[1] - checks.ANGLES_DEG[0]

    ref = checks.reference_spectra(reduced.data, wl.delay_points, workloads.IAA, "fft")
    early = multichannel_toa(reduced, grid, replace(workloads.IAA, max_iterations=14))
    matched = checks.reference_spectra(reduced.data, wl.delay_points, None, "periodogram")
    program_matched = np.array(
        [s.amplitudes for s in multichannel_toa(reduced, grid, impl="periodogram")])
    search = checks.in_frame_search(wl.delay_points, reduced.srs.subcarrier_spacing_hz,
                                    reduced.delay_offset_s)
    los = checks.reference_los(ref, search, workloads.THRESHOLD_DB)

    def preprocess_check(data):
        return lambda: checks.check_preprocess(
            calibrated, data, reduced.delay_offset_s, inputs.SPACING_HZ,
            inputs.NUM_TONES, window, wl.out_tones)

    slope = estimate_phase_slope(staged.calibrated)
    off_slope = preprocess(staged.calibrated, cfg.preprocess, slope=slope + 1e-3)

    angles, phases = site.measurements()
    phases_off = phases.copy()
    phases_off[1, 12] += 1e-3
    fit_off = fit_phase_error(AntennaErrorMeasurements(angles, phases_off), inputs.PHASE_ORDER)

    target = item.fix.target_m
    bearings = [s.bearing_range(target)[0] for s in bench.sites]
    fix_true = triangulate(bench.poses[0], bearings[0], bench.poses[1], bearings[1])
    fix_off = triangulate(bench.poses[0], bearings[0] + 0.2, bench.poses[1], bearings[1])

    icfg = bench.ideal_configs[snap.site]
    proj, len_f, len_s = checks.music_noise_projector(reduced.data, 6, 2, snap.path_count)
    step_s = 1.0 / (wl.delay_points * reduced.srs.subcarrier_spacing_hz)

    def cell(e):
        p = int(round((e.toa_s - reduced.delay_offset_s) / step_s))
        return p, checks.angle_index(e.doa_deg)

    mu_p, mu_q = cell(music_jade(cfr, icfg, workloads.SMOOTHING, model_order=snap.path_count))
    pg_p, pg_q = cell(periodogram_jade(cfr, icfg))

    def music_at(p, q):
        return checks.music_pseudo(proj, len_f, len_s, wl.delay_points, p, checks.ANGLES_DEG[q])

    def power_at(p, q):
        return checks.periodogram_power(reduced.data, wl.delay_points, p, checks.ANGLES_DEG[q])

    tau, step_c, canary_runs = workloads.canaries(bench)
    canary = workloads.CANARY_DOA_DEG
    _, c_est = canary_runs[-1]

    cases = [
        ("dense IAA reproduces the spectra", "spectrum stopped one sweep early",
         lambda: checks.check_spectra(staged.spectra, ref),
         lambda: checks.check_spectra(np.array([s.amplitudes for s in early]), ref)),
        ("matched filter reproduces the spectra", "matched filter of one tone less",
         lambda: checks.check_spectra(program_matched, matched),
         lambda: checks.check_spectra(program_matched, checks.reference_spectra(
             reduced.data[:-1], wl.delay_points, None, "periodogram"))),
        ("same LOS index as the reference", "LOS one grid step late",
         lambda: checks.check_los(staged.los_index, los),
         lambda: checks.check_los(staged.los_index + 1, los)),
        ("DOA maximises the calibrated beam", "DOA one grid step off",
         lambda: checks.check_cbf(est.b_los, est.doa_deg, poly.coefficients, poly.span_deg),
         lambda: checks.check_cbf(est.b_los, est.doa_deg + step_deg, poly.coefficients,
                                  poly.span_deg)),
        ("calibrate_channel divides by the RF response", "RF response of the other receive point",
         lambda: checks.check_rf_division(staged.calibrated.data, cfr.data, site.rf_gamma),
         lambda: checks.check_rf_division(staged.calibrated.data, cfr.data,
                                          bench.sites[1 - snap.site].rf_gamma)),
        ("reference chain reproduces preprocess()", "output de-sloped 1e-3 rad/tone off",
         preprocess_check(reduced.data), preprocess_check(off_slope.data)),
        ("reduced energy within the bound", "reduced CFR scaled by 10",
         lambda: checks.check_energy(calibrated, reduced.data, inputs.NUM_TONES, wl.out_tones),
         lambda: checks.check_energy(calibrated, 10 * reduced.data, inputs.NUM_TONES,
                                     wl.out_tones)),
        ("fit recovers the order-4 polynomial", "one sample off by 1e-3 rad",
         lambda: checks.check_fit(poly.coefficients, poly.span_deg, site.phase_coefs),
         lambda: checks.check_fit(fit_off.coefficients, fit_off.span_deg, site.phase_coefs)),
        ("true bearings triangulate to the target", "one bearing 0.2 deg off",
         lambda: checks.check_triangulation(fix_true.position_m, target),
         lambda: checks.check_triangulation(fix_off.position_m, target)),
        ("MUSIC LOS is a 3x3 local maximum", "MUSIC LOS one angle step off",
         lambda: checks.check_local_max(music_at, mu_p, mu_q, search, "MUSIC"),
         lambda: checks.check_local_max(music_at, mu_p, mu_q + 1, search, "MUSIC")),
        ("periodogram LOS is a 3x3 local maximum", "periodogram LOS one delay step off",
         lambda: checks.check_local_max(power_at, pg_p, pg_q, search, "periodogram"),
         lambda: checks.check_local_max(power_at, pg_p + 1, pg_q, search, "periodogram")),
        ("MUSIC recovers the canary exactly", "canary estimate one delay step late",
         lambda: checks.check_canary(c_est.doa_deg, c_est.toa_s, canary, tau, step_c, "MUSIC"),
         lambda: checks.check_canary(c_est.doa_deg, c_est.toa_s + step_c, canary, tau, step_c,
                                     "MUSIC")),
        ("staged calls equal jade()", "jade() DOA one grid step off",
         lambda: workloads._reference_chain(bench, cfr, snap.site, cfg, est),
         lambda: workloads._reference_chain(
             bench, cfr, snap.site, cfg, replace(est, doa_deg=est.doa_deg + step_deg))),
    ]
    bad = 0
    for good_name, bad_name, good, perturbed in cases:
        try:
            good()
            ok_good = True
        except checks.CheckFailed as exc:
            ok_good = False
            print(f"FAIL  {good_name}: rejected the program's own output: {exc}")
        try:
            perturbed()
            ok_bad = False
            print(f"FAIL  {good_name}: accepted a perturbed output ({bad_name})")
        except checks.CheckFailed as exc:
            ok_bad = True
            if ok_good:
                print(f"ok    {good_name}; rejects {bad_name}: {exc}")
        bad += not (ok_good and ok_bad)
    print(f"{len(cases) - bad}/{len(cases)} checks pass the true output "
          "and reject the perturbed one")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
