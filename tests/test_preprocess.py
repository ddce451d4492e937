import numpy as np
import pytest
from numpy.testing import assert_allclose

from srsjade import (
    ArrayGeometry,
    CfrMatrix,
    NoiseSpec,
    PathParam,
    PreprocessConfig,
    SrsConfig,
    delay_signature,
    ideal_steering,
    preprocess,
    remove_phase_slope,
    synthesize_cfr,
)
from srsjade.pipeline import AngleGrid, cbf_doa
from srsjade.model import SteeringModel
from srsjade.preprocessing import CirVector, cfr_to_cir, cir_to_reduced_cfr, window_cir


SRS = SrsConfig(4.85e9, 60e3, 2048)
GEOM = ArrayGeometry.half_wavelength_ula(4, 4.85e9)
CFG = PreprocessConfig.from_ns(2048, -256.0, 256.0, 64)


def multipath_cfr(paths, noise=None, seed=None):
    return synthesize_cfr(SRS, GEOM, paths, noise=noise, seed=seed)


class TestRemovePhaseSlope:
    @pytest.mark.parametrize("tau", [0.0, 13.7e-9, 166e-9, 1.2e-6])
    def test_pure_linear_phase_recovered(self, tau):
        cfr = multipath_cfr([PathParam(25.0, tau, 1.0, is_los=True)])
        flat, slope = remove_phase_slope(cfr)
        assert slope == pytest.approx(2 * np.pi * 60e3 * tau, abs=1e-9)
        # each channel collapses to a constant (its steering phase)
        for n in range(4):
            col = flat.data[:, n]
            assert np.max(np.abs(col - col[0])) < 1e-9

    def test_offset_bookkeeping(self):
        tau = 90e-9
        cfr = multipath_cfr([PathParam(0.0, tau, 1.0, is_los=True)])
        flat, slope = remove_phase_slope(cfr)
        assert flat.delay_offset_s == pytest.approx(tau, abs=1e-15)

    def test_zero_slope_input(self):
        cfr = multipath_cfr(
            [PathParam(10.0, 0.0, 1.0, is_los=True)], noise=NoiseSpec(0.02), seed=5
        )
        _, slope = remove_phase_slope(cfr)
        assert abs(slope) < 1e-4

    def test_common_slope_preserves_cbf_doa(self):
        # slope removal applies one phase per subcarrier to all channels,
        # so inter-channel ratios and hence the beamformer argmax survive
        theta = 33.0
        cfr = multipath_cfr([PathParam(theta, 120e-9, 1.0, is_los=True)])
        flat, _ = remove_phase_slope(cfr)
        grid = AngleGrid.regular(-60, 60, 0.2)
        steer = SteeringModel("ideal", GEOM)
        before, _ = cbf_doa(cfr.data[0], steer, grid)
        after, _ = cbf_doa(flat.data[0], steer, grid)
        assert before == after == pytest.approx(theta, abs=0.1)

    def test_all_zero_rejected(self):
        cfr = CfrMatrix(data=np.zeros((2048, 4)), srs=SRS)
        with pytest.raises(ValueError):
            remove_phase_slope(cfr)


class TestCfrToCir:
    def test_all_ones_gives_impulse_at_zero(self):
        cir = cfr_to_cir(np.ones(64), 64)
        expected = np.zeros(64)
        expected[0] = 1.0
        assert_allclose(cir.taps, expected, atol=1e-14)

    def test_on_tap_delay_gives_impulse(self):
        srs = SrsConfig(4.85e9, 60e3, 256)
        tap = 17
        tau = tap / (256 * 60e3)
        cir = cfr_to_cir(delay_signature(srs, tau), 256)
        mags = np.abs(cir.taps)
        assert np.argmax(mags) == tap
        assert mags[tap] == pytest.approx(1.0, rel=1e-12)

    def test_parseval_with_documented_scaling(self, rng):
        col = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        n_fft = 1632  # transform length used in the source experiments
        cir = cfr_to_cir(col, n_fft)
        assert np.sum(np.abs(cir.taps) ** 2) * n_fft == pytest.approx(
            np.sum(np.abs(col) ** 2), rel=1e-9
        )

    def test_too_short_transform_rejected(self):
        with pytest.raises(ValueError):
            cfr_to_cir(np.ones(64), 32)


class TestWindowCir:
    def test_full_window_is_identity(self, rng):
        taps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cir = CirVector(taps, tap_spacing_s=1e-9)
        out = window_cir(cir, (-33e-9, 33e-9))
        assert np.array_equal(out.taps, taps)

    def test_masking_semantics(self):
        taps = np.zeros(128, dtype=complex)
        taps[5] = 1.0       # in-window impulse
        taps[70] = 0.5      # far tap (delay 70 ns, outside)
        taps[120] = 0.25    # negative delay -8 ns, inside
        cir = CirVector(taps, tap_spacing_s=1e-9)
        out = window_cir(cir, (-10e-9, 20e-9))
        assert out.taps[5] == 1.0
        assert out.taps[120] == 0.25
        assert out.taps[70] == 0.0

    def test_two_dim_taps_match_columns(self, rng):
        taps = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
        out = window_cir(CirVector(taps, tap_spacing_s=1e-9), (-10e-9, 20e-9))
        for n in range(3):
            col = window_cir(CirVector(taps[:, n], tap_spacing_s=1e-9), (-10e-9, 20e-9))
            assert np.array_equal(out.taps[:, n], col.taps)

    def test_paper_style_window_bounds(self):
        # +-166.67 ns corresponds to +-50 m
        assert 166.67e-9 * 299792458.0 == pytest.approx(50.0, rel=2e-3)


class TestCirToReducedCfr:
    def test_single_path_matches_rescaled_signature(self):
        srs = SrsConfig(4.85e9, 60e3, 2048)
        tap = 29  # inside the first 64 taps
        tau = tap / (2048 * 60e3)
        cir = cfr_to_cir(delay_signature(srs, tau), 2048)
        cir = CirVector(cir.taps, tap_spacing_s=1 / (2048 * 60e3))
        reduced = cir_to_reduced_cfr(cir, 64)
        srs_out = SrsConfig(4.85e9, 60e3 * 2048 / 64, 64)
        assert_allclose(reduced, delay_signature(srs_out, tau), rtol=0, atol=1e-6)

    def test_two_dim_taps_match_columns(self, rng):
        taps = rng.standard_normal((128, 3)) + 1j * rng.standard_normal((128, 3))
        out = cir_to_reduced_cfr(CirVector(taps, 1e-9), 64)
        assert out.shape == (64, 3)
        for n in range(3):
            assert np.array_equal(out[:, n], cir_to_reduced_cfr(CirVector(taps[:, n], 1e-9), 64))

    def test_zero_cir_gives_zero_output(self):
        cir = CirVector(np.zeros(128, dtype=complex), 1e-9)
        assert_allclose(cir_to_reduced_cfr(cir, 64), 0.0)


class TestPreprocessChain:
    def test_output_dimensions_and_spacing(self):
        cfr = multipath_cfr([PathParam(10.0, 50e-9, 1.0, is_los=True)])
        red = preprocess(cfr, CFG)
        assert red.data.shape == (64, 4)
        assert red.srs.num_subcarriers == 64
        assert red.srs.subcarrier_spacing_hz == pytest.approx(60e3 * 2048 / 64)

    def test_single_path_estimate_preserved(self):
        tau, theta = 80e-9, -20.0
        cfr = multipath_cfr([PathParam(theta, tau, 1.0, is_los=True)])
        red = preprocess(cfr, CFG)
        # matched-filter peak in the reduced domain, mapped back to physical delay
        p = 1024
        spec = np.abs(np.fft.ifft(red.data[:, 0], n=p))
        step = 1.0 / (p * red.srs.subcarrier_spacing_hz)
        tau_hat = np.argmax(spec) * step + red.delay_offset_s
        assert tau_hat == pytest.approx(tau, abs=step)

    def test_energy_never_increases(self, rng):
        cfr = multipath_cfr(
            [PathParam(0.0, 60e-9, 1.0, is_los=True)], noise=NoiseSpec(2.0), seed=2
        )
        red = preprocess(cfr, CFG)
        bound = (64 / 2048) * np.sum(np.abs(cfr.data) ** 2) * (1 + 1e-12)
        assert np.sum(np.abs(red.data) ** 2) <= bound

    def test_interchannel_ratios_preserved(self):
        # noiseless: the reduced matrix keeps rank-1 structure with the same
        # steering vector, so channel ratios at every tone match the original
        theta = 26.0
        cfr = multipath_cfr([PathParam(theta, 70e-9, 1.0, is_los=True)])
        red = preprocess(cfr, CFG)
        a = ideal_steering(GEOM, theta)
        ratios = red.data / red.data[:, :1]
        expected = a / a[0]
        assert_allclose(ratios, np.tile(expected, (64, 1)), rtol=1e-9)

    def test_idempotent_on_reduced_single_path(self):
        cfr = multipath_cfr([PathParam(-35.0, 110e-9, 1.0, is_los=True)])
        red = preprocess(cfr, CFG)
        cfg2 = PreprocessConfig.from_ns(64, -256.0, 256.0, 64)
        red2 = preprocess(red, cfg2)
        rel = np.linalg.norm(red2.data - red.data) / np.linalg.norm(red.data)
        assert rel < 1e-9
        assert red2.delay_offset_s == pytest.approx(red.delay_offset_s, abs=1e-12)

    def test_matches_per_channel_helper_chain(self):
        # the axis-0 chain equals the 1-D helpers applied column by column
        cfr = multipath_cfr(
            [PathParam(12.0, 60e-9, 1.0, is_los=True), PathParam(-30.0, 140e-9, 0.6)],
            noise=NoiseSpec(2.0), seed=4,
        )
        red = preprocess(cfr, CFG)
        flat, _ = remove_phase_slope(cfr)
        dt = 1.0 / (CFG.ifft_points * SRS.subcarrier_spacing_hz)
        k_lo = int(np.ceil(CFG.delay_window_s[0] / dt - 1e-9))
        for n in range(cfr.channel_count):
            cir = CirVector(cfr_to_cir(flat.data[:, n], CFG.ifft_points).taps, dt)
            cir = window_cir(cir, CFG.delay_window_s)
            block = CirVector(np.roll(cir.taps, -k_lo), dt)
            assert np.array_equal(red.data[:, n], cir_to_reduced_cfr(block, CFG.fft_points_out))

    def test_window_wider_than_output_rejected(self):
        cfg = PreprocessConfig.from_ns(2048, -400.0, 400.0, 64)
        cfr = multipath_cfr([PathParam(0.0, 0.0, 1.0, is_los=True)])
        with pytest.raises(ValueError):
            preprocess(cfr, cfg)

    def test_ifft_shorter_than_cfr_rejected(self):
        cfg = PreprocessConfig.from_ns(1024, -100.0, 100.0, 64)
        cfr = multipath_cfr([PathParam(0.0, 0.0, 1.0, is_los=True)])
        with pytest.raises(ValueError):
            preprocess(cfr, cfg)

    def test_slope_override_applies_same_chain(self):
        cfr = multipath_cfr([PathParam(5.0, 90e-9, 1.0, is_los=True)])
        slope = 2 * np.pi * 60e3 * 90e-9
        a = preprocess(cfr, CFG, slope=slope)
        b = preprocess(cfr, CFG, slope=slope)
        assert np.array_equal(a.data, b.data)
