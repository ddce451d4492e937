import numpy as np
import pytest
from numpy.testing import assert_allclose

from srsjade import (
    AngleGrid,
    ArrayGeometry,
    DelayGrid,
    JadeConfig,
    NoiseSpec,
    PathParam,
    SrsConfig,
    SteeringModel,
    snr_scale,
    synthesize_cfr,
)
from srsjade.baselines import (
    SmoothingConfig,
    estimate_model_order,
    music_jade,
    periodogram_2d,
    periodogram_jade,
    smoothed_covariance,
    smoothed_music_2d,
)
from srsjade.model import ideal_steering_matrix
from srsjade.toa import delay_dictionary

from oracles import vectorized_periodogram_dense

SRS32 = SrsConfig(4.85e9, 1.92e6, 32)
GEOM = ArrayGeometry.half_wavelength_ula(4, 4.85e9)


def small_grids():
    dgrid = DelayGrid.for_srs(SRS32, 512, search_span_s=(0.0, 50.0 / 299792458.0))
    agrid = AngleGrid.regular(-60, 60, 1.0)
    return dgrid, agrid


class TestPeriodogram2d:
    def test_single_path_global_max_at_truth(self):
        dgrid, agrid = small_grids()
        theta0 = -23.0
        tau0 = dgrid.delays_s[96]
        cfr = synthesize_cfr(SRS32, GEOM, [PathParam(theta0, tau0, 1.0, is_los=True)])
        power, peaks = periodogram_2d(cfr, GEOM, dgrid, agrid)
        i, j = np.unravel_index(np.argmax(power), power.shape)
        assert dgrid.delays_s[i] == tau0
        assert agrid.angles_deg[j] == theta0
        assert peaks[0][:2] == (tau0, theta0)

    def test_map_matches_dense_oracle(self, rng):
        # tiny dimensions so the explicit Kronecker oracle stays cheap
        srs = SrsConfig(4.85e9, 1.92e6, 8)
        geom = ArrayGeometry.half_wavelength_ula(3, 4.85e9)
        dgrid = DelayGrid.for_srs(srs, 16)
        agrid = AngleGrid.regular(-60, 60, 10.0)
        data = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
        from srsjade.model import CfrMatrix

        cfr = CfrMatrix(data=data, srs=srs)
        power, _ = periodogram_2d(cfr, geom, dgrid, agrid)
        dense = vectorized_periodogram_dense(
            data, delay_dictionary(dgrid, 8), ideal_steering_matrix(geom, agrid.angles_deg)
        )
        assert np.max(np.abs(power - dense)) / np.max(dense) < 1e-10

    def test_close_pair_merges(self):
        # two paths inside one Fourier resolution cell merge into one peak
        dgrid, agrid = small_grids()
        step = dgrid.step_s
        cell = 512 // 32  # grid points per resolution cell
        t1 = dgrid.delays_s[100]
        t2 = dgrid.delays_s[100 + cell // 2]
        cfr = synthesize_cfr(
            SRS32, GEOM,
            [PathParam(10.0, t1, 1.0, is_los=True), PathParam(12.0, t2, 1.0)],
        )
        power, _ = periodogram_2d(cfr, GEOM, dgrid, agrid)
        profile = power.max(axis=1)[90:90 + 2 * cell]
        from oracles import local_maxima_brute

        assert len(local_maxima_brute(profile)) == 1


class TestSmoothedMusic:
    def test_covariance_hermitian_psd(self, rng):
        data = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        cov, len_f, len_s = smoothed_covariance(data, SmoothingConfig(6, 2))
        assert cov.shape == (len_f * len_s, len_f * len_s)
        assert_allclose(cov, cov.conj().T, rtol=1e-12)
        assert np.min(np.linalg.eigvalsh(cov)) > -1e-10 * np.abs(cov).max()

    def test_two_coherent_paths_resolved(self):
        # coherent equal-gain paths, 20 dB: smoothing decorrelates them
        dgrid, agrid = small_grids()
        hits = 0
        for t in range(100):
            r = np.random.default_rng(t)
            i1, i2 = 64, 150  # 65 ns and 153 ns, both inside the 50 m span
            th1, th2 = -20.0, 35.0
            paths = snr_scale(
                [
                    PathParam(th1, dgrid.delays_s[i1], 1.0, is_los=True),
                    PathParam(th2, dgrid.delays_s[i2], 1.0),
                ],
                20.0,
            )
            cfr = synthesize_cfr(SRS32, GEOM, paths, noise=NoiseSpec(2.0), seed=r)
            _, peaks = smoothed_music_2d(
                cfr, SmoothingConfig(6, 2), GEOM, dgrid, agrid, model_order=2
            )
            found = 0
            for tau_t, th_t in ((dgrid.delays_s[i1], th1), (dgrid.delays_s[i2], th2)):
                for tau_p, th_p, _ in peaks:
                    if abs(tau_p - tau_t) <= 2 * dgrid.step_s and abs(th_p - th_t) <= 2.0:
                        found += 1
                        break
            hits += found == 2
        assert hits >= 90

    def test_model_order_bounds(self):
        dgrid, agrid = small_grids()
        cfr = synthesize_cfr(SRS32, GEOM, [PathParam(0.0, 30e-9, 1.0, is_los=True)])
        with pytest.raises(ValueError):
            smoothed_music_2d(cfr, SmoothingConfig(6, 2), GEOM, dgrid, agrid, model_order=0)
        with pytest.raises(ValueError):
            smoothed_music_2d(cfr, SmoothingConfig(6, 2), GEOM, dgrid, agrid, model_order=200)

    def test_global_phase_invariance(self, rng):
        dgrid, agrid = small_grids()
        data = rng.standard_normal((32, 4)) + 1j * rng.standard_normal((32, 4))
        from srsjade.model import CfrMatrix

        a, _ = smoothed_music_2d(
            CfrMatrix(data=data, srs=SRS32), SmoothingConfig(6, 2), GEOM, dgrid, agrid, 2
        )
        b, _ = smoothed_music_2d(
            CfrMatrix(data=np.exp(1.234j) * data, srs=SRS32),
            SmoothingConfig(6, 2), GEOM, dgrid, agrid, 2,
        )
        assert np.max(np.abs(a - b)) / np.max(a) < 1e-10

    def test_nonuniform_array_rejected(self):
        dgrid, agrid = small_grids()
        geom = ArrayGeometry(
            element_positions_m=(0.0, 0.03, 0.07, 0.09),
            wavelength_m=GEOM.wavelength_m,
        )
        cfr = synthesize_cfr(SRS32, geom, [PathParam(0.0, 30e-9, 1.0, is_los=True)])
        with pytest.raises(ValueError):
            smoothed_music_2d(cfr, SmoothingConfig(6, 2), geom, dgrid, agrid, 1)


class TestModelOrder:
    def test_one_dominant_eigenvalue(self):
        ev = np.array([10.0, 0.1, 0.09, 0.11, 0.1, 0.1])
        assert estimate_model_order(ev, num_snapshots=50) == 1

    def test_three_sources_thirty_db(self, rng):
        # eigenvalues of a synthetic covariance with 3 strong sources
        n = 12
        a = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        cov = a @ a.conj().T * 100.0 + np.eye(n)  # 3 sources ~30 dB over noise
        samples = rng.standard_normal((n, 400)) + 1j * rng.standard_normal((n, 400))
        noisy = np.linalg.cholesky(cov + 1e-9 * np.eye(n)) @ samples
        est_cov = noisy @ noisy.conj().T / 400
        assert estimate_model_order(np.linalg.eigvalsh(est_cov), num_snapshots=400) == 3

    def test_all_equal_clamps_to_one(self):
        assert estimate_model_order(np.ones(8), num_snapshots=100) == 1


class TestBaselineJadeWrappers:
    def test_periodogram_jade_single_path(self):
        theta0, tau_idx = 18.0, 128
        dgrid = DelayGrid.for_srs(SRS32, 512)
        tau0 = dgrid.delays_s[tau_idx]
        cfr = synthesize_cfr(SRS32, GEOM, [PathParam(theta0, tau0, 1.0, is_los=True)])
        cfg = JadeConfig(
            steering=SteeringModel("ideal", GEOM),
            angle_grid=AngleGrid.regular(-60, 60, 0.5),
            delay_points=512,
        )
        est = periodogram_jade(cfr, cfg)
        assert est.doa_deg == pytest.approx(theta0, abs=0.5)
        assert est.toa_s == pytest.approx(tau0, abs=dgrid.step_s)
        assert est.converged is True and est.final_delta == 0.0  # no sweep to converge

    def test_music_jade_auto_order(self):
        dgrid = DelayGrid.for_srs(SRS32, 512)
        tau0 = dgrid.delays_s[96]
        cfr = synthesize_cfr(
            SRS32, GEOM,
            snr_scale([PathParam(-30.0, tau0, 1.0, is_los=True)], 20.0),
            noise=NoiseSpec(2.0),
            seed=2,
        )
        cfg = JadeConfig(
            steering=SteeringModel("ideal", GEOM),
            angle_grid=AngleGrid.regular(-60, 60, 0.5),
            delay_points=512,
        )
        est = music_jade(cfr, cfg, SmoothingConfig(6, 2))
        assert est.doa_deg == pytest.approx(-30.0, abs=1.0)
        assert est.toa_s == pytest.approx(tau0, abs=2 * dgrid.step_s)
        assert est.converged is True and est.final_delta == 0.0
