import numpy as np
import pytest
from numpy.testing import assert_allclose

from srsjade import (
    AngleGrid,
    DelayGrid,
    JadeConfig,
    NoiseSpec,
    PathParam,
    SteeringModel,
    IaaSettings,
    ToaSpectrum,
    cbf_doa,
    jade,
    multichannel_toa,
    snr_scale,
    synth_error_profile,
    synthesize_cfr,
)
from srsjade.calibration import calibrated_steering_model, impaired_steering_model
from srsjade.pipeline import (
    DetectionError,
    average_spectra,
    detect_paths,
    prepare,
    select_los,
)

from oracles import local_maxima_brute


def make_grid(points=256, spacing=1.92e6, span=None):
    return DelayGrid(points, spacing, search_span_s=span)


def spectrum_from(values, grid):
    return ToaSpectrum(amplitudes=np.asarray(values, dtype=complex), grid=grid)


class TestAverageSpectra:
    def test_single_channel_is_magnitude(self, rng):
        grid = make_grid()
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        avg = average_spectra([spectrum_from(v, grid)])
        assert_allclose(avg, np.abs(v))

    def test_sign_flip_invariance(self, rng):
        grid = make_grid()
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        avg = average_spectra([spectrum_from(v, grid), spectrum_from(-v, grid)])
        assert_allclose(avg, np.abs(v))

    def test_matches_mean_abs_oracle(self, rng):
        grid = make_grid()
        vs = [rng.standard_normal(256) + 1j * rng.standard_normal(256) for _ in range(4)]
        avg = average_spectra([spectrum_from(v, grid) for v in vs])
        expected = np.mean([np.abs(v) for v in vs], axis=0)
        assert_allclose(avg, expected, rtol=1e-14)


class TestDetectPaths:
    def test_single_peak(self):
        grid = make_grid(64)
        avg = np.full(64, 0.01)
        avg[20] = 1.0
        dets = detect_paths(avg, grid)
        assert [d.grid_index for d in dets] == [20]

    def test_two_peaks_six_db_apart(self):
        grid = make_grid(64)
        avg = np.full(64, 1e-3)
        avg[40] = 1.0
        avg[15] = 10 ** (-6 / 20)  # 6 dB below the max, earlier delay
        dets = detect_paths(avg, grid, threshold_db=10.0)
        assert [d.grid_index for d in dets] == [15, 40]
        # cross-check against the brute-force local-maxima oracle
        brute = [i for i in local_maxima_brute(avg) if avg[i] >= avg.max() * 10 ** (-0.5)]
        assert [d.grid_index for d in dets] == sorted(brute)

    def test_flat_spectrum_single_head_detection(self):
        grid = make_grid(64)
        dets = detect_paths(np.ones(64), grid)
        assert len(dets) == 1
        assert dets[0].grid_index == 0

    def test_threshold_filters_weak_peaks(self):
        grid = make_grid(64)
        avg = np.full(64, 1e-4)
        avg[10] = 1.0
        avg[50] = 10 ** (-12 / 20)  # 12 dB below: rejected at 10 dB threshold
        dets = detect_paths(avg, grid, threshold_db=10.0)
        assert [d.grid_index for d in dets] == [10]

    def test_sorted_strictly_ascending(self, rng):
        grid = make_grid(256)
        avg = np.abs(rng.standard_normal(256)) + 0.1
        dets = detect_paths(avg, grid, threshold_db=30.0)
        delays = [d.delay_s for d in dets]
        assert all(b > a for a, b in zip(delays, delays[1:]))

    def test_search_span_restriction(self):
        grid = make_grid(64, span=(0.0, 10 * 1.0 / (64 * 1.92e6)))
        avg = np.full(64, 1e-3)
        avg[40] = 5.0   # outside the span
        avg[5] = 1.0
        dets = detect_paths(avg, grid)
        assert [d.grid_index for d in dets] == [5]

    def test_empty_span_raises(self):
        grid = make_grid(64)
        with pytest.raises(DetectionError):
            detect_paths(np.ones(64), grid, search_span_s=(1.0, 2.0))

    def test_bad_threshold(self):
        grid = make_grid(64)
        with pytest.raises(ValueError):
            detect_paths(np.ones(64), grid, threshold_db=0.0)


class TestSelectLos:
    def test_single_detection(self):
        grid = make_grid(64)
        avg = np.full(64, 0.01)
        avg[7] = 1.0
        dets = detect_paths(avg, grid)
        assert select_los(dets) is dets[0]

    def test_weaker_earlier_peak_wins(self):
        grid = make_grid(64)
        avg = np.full(64, 1e-3)
        avg[12] = 10 ** (-8 / 20)  # weaker but earlier
        avg[48] = 1.0
        los = select_los(detect_paths(avg, grid, threshold_db=10.0))
        assert los.grid_index == 12

    def test_empty_rejected(self):
        with pytest.raises(DetectionError):
            select_los([])


class TestCbfDoa:
    def test_exact_match_on_grid(self, ula4):
        grid = AngleGrid.regular(-60, 60, 0.2)
        steer = SteeringModel("ideal", ula4)
        theta0 = -24.4  # on the 0.2-deg grid
        doa, spectrum = cbf_doa(steer.vector(theta0), steer, grid)
        assert doa == theta0
        assert spectrum.shape == (grid.num_points,)

    def test_scale_invariance(self, ula4, rng):
        grid = AngleGrid.regular(-60, 60, 0.5)
        steer = SteeringModel("ideal", ula4)
        b = steer.vector(31.5) + 0.1 * (rng.standard_normal(4) + 1j * rng.standard_normal(4))
        doa1, _ = cbf_doa(b, steer, grid)
        doa2, _ = cbf_doa((0.3 - 2.7j) * b, steer, grid)
        assert doa1 == doa2

    def test_calibrated_beats_ideal_under_impairment(self, ula4):
        # error profiles bias the ideal beamformer at wide angles; the
        # matched calibrated model stays near truth
        grid = AngleGrid.regular(-60, 60, 0.2)
        wins = 0
        for seed in range(20):
            poly = synth_error_profile(seed, 40.0)
            impaired = impaired_steering_model(ula4, poly)
            calibrated = calibrated_steering_model(ula4, poly)
            ideal = SteeringModel("ideal", ula4)
            b = impaired.vector(60.0)
            cal_err = abs(cbf_doa(b, calibrated, grid)[0] - 60.0)
            ideal_err = abs(cbf_doa(b, ideal, grid)[0] - 60.0)
            wins += cal_err <= ideal_err
        assert wins >= 19

    def test_zero_bias_for_every_grid_angle(self, ula4):
        # calibrated model equal to the impairing model: argmax lands on the
        # true angle for every grid point (vectorized over the whole grid)
        grid = AngleGrid.regular(-60, 60, 0.5)
        poly = synth_error_profile(11, 40.0)
        impaired = impaired_steering_model(ula4, poly)
        calibrated = calibrated_steering_model(ula4, poly)
        b_all = impaired.matrix(grid.angles_deg)          # (N, Q) truth columns
        a_all = calibrated.matrix(grid.angles_deg)        # (N, Q) search matrix
        gains = np.abs(a_all.conj().T @ b_all)            # (Q search, Q truth)
        assert np.array_equal(np.argmax(gains, axis=0), np.arange(grid.num_points))


class TestJadePipeline:
    def test_noiseless_single_path_exact(self, srs64, ula4):
        grid = AngleGrid.regular(-60, 60, 0.2)
        theta0 = float(grid.angles_deg[371])  # exactly on the angle grid
        dgrid = DelayGrid.for_srs(srs64, 1024)
        tau0 = dgrid.delays_s[123]  # on the delay grid, inside 50 m
        cfr = synthesize_cfr(srs64, ula4, [PathParam(theta0, tau0, 1.0, is_los=True)])
        cfg = JadeConfig(steering=SteeringModel("ideal", ula4), angle_grid=grid)
        est = jade(cfr, cfg)
        assert est.doa_deg == theta0
        assert est.toa_s == tau0
        assert est.iterations >= 1
        assert len(est.detections) >= 1

    def test_estimates_respect_reporting_span(self, srs64, ula4):
        cfg = JadeConfig(steering=SteeringModel("ideal", ula4))
        for seed in range(5):
            r = np.random.default_rng(seed)
            paths = [
                PathParam(r.uniform(-60, 60), r.uniform(0, 160e-9), np.exp(1j * r.uniform(0, 6.28)))
                for _ in range(3)
            ]
            paths[int(np.argmin([p.toa_s for p in paths]))] = PathParam(
                paths[0].doa_deg, min(p.toa_s for p in paths), paths[0].gain, is_los=True
            )
            paths = snr_scale(paths, 0.0)
            cfr = synthesize_cfr(srs64, ula4, paths, noise=NoiseSpec(2.0), seed=seed)
            est = jade(cfr, cfg)
            assert -60.0 <= est.doa_deg <= 60.0
            assert 0.0 <= est.toa_s <= 50.0 / 299792458.0 + 1e-12

    def test_deterministic(self, srs64, ula4):
        cfg = JadeConfig(steering=SteeringModel("ideal", ula4))
        paths = [PathParam(5.0, 40e-9, 1.0, is_los=True), PathParam(-20.0, 90e-9, 0.8)]
        cfr = synthesize_cfr(srs64, ula4, paths, noise=NoiseSpec(2.0), seed=4)
        a = jade(cfr, cfg)
        b = jade(cfr, cfg)
        assert a.doa_deg == b.doa_deg and a.toa_s == b.toa_s
        assert np.array_equal(a.b_los, b.b_los)

    def test_json_shape(self, srs64, ula4):
        cfg = JadeConfig(steering=SteeringModel("ideal", ula4))
        cfr = synthesize_cfr(srs64, ula4, [PathParam(0.0, 20e-9, 1.0, is_los=True)])
        d = jade(cfr, cfg).to_json_dict()
        assert set(d) == {
            "doa_deg", "toa_ns", "range_m", "n_iterations", "converged", "final_delta", "detections"
        }
        assert set(d["detections"][0]) == {"delay_ns", "amp_db"}
        assert d["detections"][0]["amp_db"] <= 0.0

    @staticmethod
    def two_path_cfr(srs, geom):
        paths = [PathParam(5.0, 40e-9, 1.0, is_los=True), PathParam(-20.0, 90e-9, 0.8)]
        return synthesize_cfr(srs, geom, paths, noise=NoiseSpec(2.0), seed=4)

    def test_capped_run_reports_not_converged(self, srs64, ula4):
        cfg = JadeConfig(steering=SteeringModel("ideal", ula4))
        cfr = self.two_path_cfr(srs64, ula4)
        est = jade(cfr, cfg)
        spectra = multichannel_toa(*prepare(cfr, cfg), cfg.iaa)
        assert est.iterations == 15
        assert est.converged is False
        assert est.final_delta == max(s.final_delta for s in spectra)
        assert est.final_delta >= cfg.iaa.convergence_tol
        d = est.to_json_dict()
        assert d["converged"] is False and d["final_delta"] == est.final_delta

    def test_loose_tolerance_reports_converged(self, srs64, ula4):
        cfg = JadeConfig(steering=SteeringModel("ideal", ula4), iaa=IaaSettings(convergence_tol=1.0))
        est = jade(self.two_path_cfr(srs64, ula4), cfg)
        assert est.converged is True
        assert 0.0 < est.final_delta < 1.0
        assert est.iterations < 15
        assert est.to_json_dict()["converged"] is True
