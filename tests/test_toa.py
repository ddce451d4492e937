import numpy as np
import pytest
from numpy.testing import assert_allclose

from srsjade import (
    CfrMatrix,
    DelayGrid,
    IaaSettings,
    SrsConfig,
    delay_signature,
    fft_iaa,
    iaa_dense,
    masked_fft_iaa,
    multichannel_toa,
    periodogram_toa,
)
from srsjade.toa import (
    EstimationError,
    _toeplitz_inverse_lag_sums,
    capon_denominators,
    delay_dictionary,
    matched_filter_numerators,
    toeplitz_covariance,
)

from oracles import (
    covariance_dense,
    masked_iaa_dense,
    matched_filter_dense,
    quadratic_forms_dense,
)

SRS = SrsConfig(4.85e9, 1.92e6, 64)
GRID = DelayGrid.for_srs(SRS, 1024)


def tone(tau, srs=SRS, gain=1.0):
    return gain * delay_signature(srs, tau)


def random_hermitian(rng, m):
    x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return x + x.conj().T


class TestDelayGrid:
    def test_default_points_rule(self):
        assert DelayGrid.default_points(64) == 1024
        assert DelayGrid.default_points(3264) == 65536

    def test_uniform_spacing_full_span(self):
        d = GRID.delays_s
        assert d[0] == 0.0
        assert_allclose(np.diff(d), 1.0 / (1024 * 1.92e6))
        assert d[-1] < SRS.unambiguous_delay_s

    def test_search_indices(self):
        grid = DelayGrid(64, 1e6, search_span_s=(1e-7, 3e-7))
        idx = grid.search_indices()
        assert np.all(grid.delays_s[idx] >= 1e-7 - 1e-15)
        assert np.all(grid.delays_s[idx] <= 3e-7 + 1e-15)

    def test_grid_smaller_than_cfr_rejected(self):
        with pytest.raises(ValueError):
            DelayGrid.for_srs(SRS, 32)


class TestFftKernels:
    def test_dictionary_is_dft_rows(self):
        a = delay_dictionary(GRID, 64)
        m, p = np.arange(64)[:, None], np.arange(1024)[None, :]
        assert_allclose(a, np.exp(-2j * np.pi * m * p / 1024), rtol=1e-13)

    def test_numerators_match_dense(self, rng):
        a = delay_dictionary(GRID, 64)
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        assert_allclose(
            matched_filter_numerators(v, 1024), matched_filter_dense(v, a), rtol=0, atol=1e-10
        )

    def test_capon_denominators_match_dense(self, rng):
        # the quadratic-form sweep must hold for arbitrary Hermitian matrices
        a = delay_dictionary(GRID, 64)
        for _ in range(20):
            q = random_hermitian(rng, 64)
            xi = capon_denominators(q, 1024)
            dense = np.real(quadratic_forms_dense(q, a))
            assert np.max(np.abs(xi - dense)) / np.max(np.abs(dense)) < 1e-10

    def test_toeplitz_rebuild_matches_dense(self, rng):
        a = delay_dictionary(GRID, 64)
        for _ in range(20):
            w = rng.random(1024)
            r_fft = toeplitz_covariance(w, 64)
            r_dense = covariance_dense(a, w)
            assert np.max(np.abs(r_fft - r_dense)) / np.max(np.abs(r_dense)) < 1e-10

    def test_toeplitz_first_row_from_fft(self, rng):
        w = rng.random(1024)
        r = toeplitz_covariance(w, 64)
        first_col = np.fft.fft(w)[:64]
        assert_allclose(r[:, 0], first_col, rtol=1e-12)
        assert_allclose(r[0, :], first_col.conj(), rtol=1e-12)


class TestToeplitzInverseLagSums:
    @staticmethod
    def check(r, bound):
        m = r.shape[0]
        q = np.linalg.inv(r)
        ref = np.array([np.trace(q, offset=-lag) for lag in range(m)])
        x = np.linalg.solve(r, np.eye(m)[:, 0])
        u = _toeplitz_inverse_lag_sums(x)
        assert np.max(np.abs(u - ref)) / np.max(np.abs(ref)) < bound

    @pytest.mark.parametrize("m", [2, 3, 33, 64, 128])
    def test_matches_trace_of_inverse(self, rng, m):
        # Gohberg-Semencul lag sums equal the diagonal sums of the explicit inverse
        for _ in range(5):
            w = rng.random(16 * m)
            self.check(toeplitz_covariance(w, m), 1e-12)

    def test_near_singular_single_path(self):
        # noiseless single path with 1e-8 relative loading: cond ~ 6e9, so both
        # sides carry rounding errors of order cond * eps ~ 1e-6
        w = np.zeros(1024)
        w[100] = 1.0
        r = toeplitz_covariance(w, 64)
        r[np.arange(64), np.arange(64)] += 1e-8 * np.real(r[0, 0])
        self.check(r, 1e-6)


class TestShortGrid:
    """M <= P < 2M-1: positive and negative lags share bins modulo P."""

    @pytest.mark.parametrize("p", [64, 100, 126, 127, 1024])
    def test_fft_and_masked_match_dense(self, p):
        grid = DelayGrid.for_srs(SRS, p)
        for seed in range(4):
            r = np.random.default_rng(seed)
            h = r.standard_normal(64) + 1j * r.standard_normal(64)
            dense = iaa_dense(h, grid)
            scale = np.max(np.abs(dense.amplitudes))
            for fast in (fft_iaa(h, grid), masked_fft_iaa(h, np.ones(64, dtype=bool), grid)):
                assert np.max(np.abs(fast.amplitudes - dense.amplitudes)) / scale < 1e-9
                assert fast.iterations == dense.iterations

    @pytest.mark.parametrize("p", [64, 100, 126])
    def test_kernels_match_dense(self, rng, p):
        a = delay_dictionary(DelayGrid.for_srs(SRS, p), 64)
        w = rng.random(p)
        r_dense = covariance_dense(a, w)
        r_fft = toeplitz_covariance(w, 64)
        assert np.max(np.abs(r_fft - r_dense)) / np.max(np.abs(r_dense)) < 1e-10
        q = random_hermitian(rng, 64)
        dense = np.real(quadratic_forms_dense(q, a))
        xi = capon_denominators(q, p)
        assert np.max(np.abs(xi - dense)) / np.max(np.abs(dense)) < 1e-10


class TestPeriodogram:
    def test_single_on_grid_path(self):
        p0 = 200
        gain = 0.8 - 0.3j
        spec = periodogram_toa(tone(GRID.delays_s[p0], gain=gain), GRID)
        assert np.argmax(np.abs(spec.amplitudes)) == p0
        assert spec.amplitudes[p0] == pytest.approx(gain, rel=1e-12)

    def test_zero_input(self):
        spec = periodogram_toa(np.zeros(64, dtype=complex), GRID)
        assert_allclose(spec.amplitudes, 0.0)

    def test_fft_vs_dense_evaluation(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        a = delay_dictionary(GRID, 64)
        spec = periodogram_toa(h, GRID)
        dense = matched_filter_dense(h, a) / 64
        assert np.max(np.abs(spec.amplitudes - dense)) / np.max(np.abs(dense)) < 1e-12


class TestIaaDense:
    def test_single_path_amplitude_recovery(self):
        p0 = 321
        gain = 0.5 + 0.9j
        spec = iaa_dense(tone(GRID.delays_s[p0], gain=gain), GRID)
        assert np.argmax(np.abs(spec.amplitudes)) == p0
        assert abs(spec.amplitudes[p0] - gain) < 1e-6

    def test_two_paths_resolved_over_seeds(self):
        # 20 dB SNR, paths at least 2 grid steps apart: both peaks recovered
        srs = SrsConfig(4.85e9, 1.92e6, 32)
        grid = DelayGrid.for_srs(srs, 512)
        hits = 0
        trials = 100
        rng = np.random.default_rng(7)
        for _ in range(trials):
            i1 = int(rng.integers(20, 200))
            i2 = i1 + int(rng.integers(8, 60))
            g = np.sqrt(2.0 * 10.0)  # 10 dB... per-path power over variance-2 noise
            h = g * (
                tone(grid.delays_s[i1], srs) * np.exp(1j * rng.uniform(0, 2 * np.pi))
                + tone(grid.delays_s[i2], srs) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            )
            h = h + (rng.standard_normal(32) + 1j * rng.standard_normal(32)) * np.sqrt(0.02)
            spec = np.abs(iaa_dense(h, grid).amplitudes)
            order = np.argsort(spec)[::-1]
            top = set()
            for idx in order:
                if all(abs(idx - t) > 3 for t in top):
                    top.add(int(idx))
                if len(top) == 2:
                    break
            if min(abs(t - i1) for t in top) <= 1 and min(abs(t - i2) for t in top) <= 1:
                hits += 1
        assert hits >= 95

    def test_zero_input_zero_spectrum(self):
        spec = iaa_dense(np.zeros(64, dtype=complex), GRID)
        assert_allclose(spec.amplitudes, 0.0)
        assert spec.iterations == 0


class TestFftIaaEquivalence:
    def test_matches_dense_on_random_inputs(self, rng):
        for _ in range(5):
            h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            sd = iaa_dense(h, GRID)
            sf = fft_iaa(h, GRID)
            rel = np.max(np.abs(sf.amplitudes - sd.amplitudes)) / np.max(np.abs(sd.amplitudes))
            assert rel < 1e-9
            assert sf.iterations == sd.iterations

    @pytest.mark.parametrize("m", [32, 128])
    def test_matches_dense_beyond_m64(self, m):
        srs = SrsConfig(4.85e9, 1.92e6, m)
        grid = DelayGrid.for_srs(srs, 16 * m)
        for seed in range(5):
            r = np.random.default_rng(seed)
            h = r.standard_normal(m) + 1j * r.standard_normal(m)
            sd = iaa_dense(h, grid)
            sf = fft_iaa(h, grid)
            rel = np.max(np.abs(sf.amplitudes - sd.amplitudes)) / np.max(np.abs(sd.amplitudes))
            assert rel < 1e-9
            assert sf.iterations == sd.iterations

    def test_scale_equivariance(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        c = 0.37 - 1.21j
        a = fft_iaa(h, GRID)
        b = fft_iaa(c * h, GRID)
        assert_allclose(b.amplitudes, c * a.amplitudes, rtol=1e-12)
        assert a.iterations == b.iterations

    def test_fixed_point_consistency(self):
        # moderate-noise input that genuinely reaches the convergence test
        r = np.random.default_rng(1)
        h = np.sqrt(2 * 3.16) * tone(GRID.delays_s[100]) + (
            r.standard_normal(64) + 1j * r.standard_normal(64)
        )
        settings = IaaSettings(max_iterations=60, convergence_tol=1e-4)
        converged = fft_iaa(h, GRID, settings)
        assert converged.iterations < 60
        more = fft_iaa(
            h, GRID, IaaSettings(max_iterations=converged.iterations + 1, convergence_tol=1e-16)
        )
        scale = np.max(np.abs(converged.amplitudes))
        delta = np.max(np.abs(np.abs(more.amplitudes) - np.abs(converged.amplitudes))) / scale
        assert delta < 10 * settings.convergence_tol

    def test_off_grid_peak_within_one_index(self):
        # maximally off-grid delay must still land on a neighbor index
        tau = (500 + 0.5) * GRID.step_s
        spec = fft_iaa(tone(tau), GRID)
        assert abs(int(np.argmax(np.abs(spec.amplitudes))) - 500) <= 1

    def test_singular_covariance_without_loading(self):
        h = tone(GRID.delays_s[50])
        settings = IaaSettings(diagonal_loading=0.0)
        try:
            spec = fft_iaa(h, GRID, settings)
        except EstimationError:
            return  # exactly rank-one covariance rejected with diagnostics
        # if inversion squeaked through numerically the result must be finite
        assert np.all(np.isfinite(spec.amplitudes))


class TestMaskedIaa:
    def test_all_true_mask_equals_fft_iaa(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        full = fft_iaa(h, GRID)
        masked = masked_fft_iaa(h, np.ones(64, dtype=bool), GRID)
        rel = np.max(np.abs(masked.amplitudes - full.amplitudes)) / np.max(np.abs(full.amplitudes))
        assert rel < 1e-12
        assert masked.iterations == full.iterations

    def test_matches_dense_selection_matrix_oracle(self):
        # every kernel of the shared sweep driver against the literal
        # selection-matrix transcription: masked on random masks, fft and
        # dense on all tones
        a = delay_dictionary(GRID, 64)
        s = IaaSettings()
        estimators = {
            "masked": lambda h, mask: masked_fft_iaa(h[mask], mask, GRID, s),
            "fft": lambda h, mask: fft_iaa(h, GRID, s),
            "dense": lambda h, mask: iaa_dense(h, GRID, s),
        }
        for name, estimate in estimators.items():
            for seed in range(3):
                r = np.random.default_rng(seed)
                mask = r.random(64) > 0.2
                mask[:2] = True
                if name != "masked":
                    mask[:] = True
                h_full = tone(GRID.delays_s[150]) + 0.1 * (
                    r.standard_normal(64) + 1j * r.standard_normal(64)
                )
                fast = estimate(h_full, mask)
                dense = masked_iaa_dense(
                    h_full[mask], mask, a, s.max_iterations, s.convergence_tol,
                    s.diagonal_loading,
                )
                rel = np.max(np.abs(fast.amplitudes - dense)) / np.max(np.abs(dense))
                assert rel < 1e-9, name

    def test_twenty_percent_mask_monte_carlo(self):
        # strong single path, 20% tones dropped, 10 dB SNR: peak at true index
        hits = 0
        trials = 200
        p0 = 400
        for t in range(trials):
            r = np.random.default_rng(1000 + t)
            mask = np.ones(64, dtype=bool)
            mask[r.choice(64, size=13, replace=False)] = False
            g = np.sqrt(2.0 * 10.0)
            h = g * tone(GRID.delays_s[p0]) * np.exp(1j * r.uniform(0, 2 * np.pi))
            h = h + r.standard_normal(64) + 1j * r.standard_normal(64)
            spec = masked_fft_iaa(h[mask], mask, GRID)
            # grid oversamples the resolution 16x: one index is the
            # peak-location tolerance used throughout
            if abs(int(np.argmax(np.abs(spec.amplitudes))) - p0) <= 1:
                hits += 1
        assert hits >= 190

    def test_too_sparse_mask_rejected(self):
        mask = np.zeros(64, dtype=bool)
        mask[3] = True
        with pytest.raises(EstimationError):
            masked_fft_iaa(np.ones(1, dtype=complex), mask, GRID)


class TestMultichannel:
    def test_single_channel_reduces_to_single_call(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cfr = CfrMatrix(data=h[:, None], srs=SRS)
        spectra = multichannel_toa(cfr, GRID)
        single = fft_iaa(h, GRID)
        assert_allclose(spectra[0].amplitudes, single.amplitudes, rtol=1e-12)
        assert spectra[0].iterations == single.iterations

    def test_identical_columns_identical_spectra(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        cfr = CfrMatrix(data=np.tile(h[:, None], (1, 3)), srs=SRS)
        spectra = multichannel_toa(cfr, GRID)
        for s in spectra[1:]:
            assert np.array_equal(s.amplitudes, spectra[0].amplitudes)

    def test_channels_match_single_channel_loop(self, rng):
        data = rng.standard_normal((64, 4)) + 1j * rng.standard_normal((64, 4))
        cfr = CfrMatrix(data=data, srs=SRS)
        spectra = multichannel_toa(cfr, GRID)
        for n in range(4):
            ref = fft_iaa(data[:, n], GRID)
            assert_allclose(spectra[n].amplitudes, ref.amplitudes, rtol=1e-12)
            assert spectra[n].iterations == ref.iterations

    def test_dense_impl_dispatch(self, rng):
        data = rng.standard_normal((32, 2)) + 1j * rng.standard_normal((32, 2))
        srs = SrsConfig(4.85e9, 1.92e6, 32)
        grid = DelayGrid.for_srs(srs, 512)
        cfr = CfrMatrix(data=data, srs=srs)
        dense = multichannel_toa(cfr, grid, impl="dense")
        fast = multichannel_toa(cfr, grid, impl="fft")
        for d, f in zip(dense, fast):
            rel = np.max(np.abs(d.amplitudes - f.amplitudes)) / np.max(np.abs(d.amplitudes))
            assert rel < 1e-9

    def test_dense_rows_match_standalone_runs(self):
        # the batched dense sweep freezes converged rows and skips a zero column
        srs = SrsConfig(4.85e9, 1.92e6, 32)
        grid = DelayGrid.for_srs(srs, 512)
        r = np.random.default_rng(0)
        data = r.standard_normal((32, 4)) + 1j * r.standard_normal((32, 4))
        data[:, 2] = 0.0
        settings = IaaSettings(convergence_tol=3e-3)
        spectra = multichannel_toa(CfrMatrix(data=data, srs=srs), grid, settings, impl="dense")
        for n, spec in enumerate(spectra):
            ref = iaa_dense(data[:, n], grid, settings)
            assert_allclose(spec.amplitudes, ref.amplitudes, rtol=1e-12)
            assert spec.iterations == ref.iterations
            assert spec.final_delta == ref.final_delta
        assert spectra[2].iterations == 0
        # rows stop at different sweeps, so frozen rows are exercised
        assert len({s.iterations for s in spectra if s.iterations}) > 1

    def test_wrong_grid_spacing_rejected(self, rng):
        cfr = CfrMatrix(data=np.ones((64, 2)), srs=SRS)
        wrong = DelayGrid(1024, 1e6)
        with pytest.raises(ValueError):
            multichannel_toa(cfr, wrong)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejected_by_every_estimator(self, bad):
        # a non-finite tone must not pass as an all-zero channel
        h = tone(GRID.delays_s[100])
        h[5] = bad
        estimators = (
            fft_iaa,
            iaa_dense,
            lambda h, grid: masked_fft_iaa(h, np.ones(64, dtype=bool), grid),
        )
        for estimate in estimators:
            with pytest.raises(ValueError):
                estimate(h, GRID)


class TestConvergenceBehavior:
    def test_iteration_count_within_budget_on_noisy_multipath(self):
        # protocol-style trials: iteration counter never exceeds the cap
        rng = np.random.default_rng(3)
        counts = []
        for _ in range(20):
            h = np.zeros(64, dtype=complex)
            for _ in range(5):
                h += np.sqrt(0.2) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * tone(
                    rng.uniform(0, GRID.delays_s[-1] / 3)
                )
            h += rng.standard_normal(64) + 1j * rng.standard_normal(64)
            counts.append(fft_iaa(h, GRID).iterations)
        assert max(counts) <= 15


class TestConvergenceReport:
    @staticmethod
    def estimates(h, settings):
        cfr = CfrMatrix(data=h[:, None], srs=SRS)
        return {
            "fft": fft_iaa(h, GRID, settings),
            "dense": iaa_dense(h, GRID, settings),
            "masked": masked_fft_iaa(h, np.ones(64, dtype=bool), GRID, settings),
            "multichannel": multichannel_toa(cfr, GRID, settings)[0],
        }

    def test_capped_run_reports_not_converged(self):
        # the random inputs of acceptance criterion 1 run into the 15-sweep cap
        settings = IaaSettings()
        for seed in range(3):
            r = np.random.default_rng(seed)
            h = r.standard_normal(64) + 1j * r.standard_normal(64)
            for name, spec in self.estimates(h, settings).items():
                assert spec.iterations == 15, name
                assert spec.converged is False, name
                assert spec.final_delta >= settings.convergence_tol, name

    def test_loose_tolerance_reports_converged(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        settings = IaaSettings(convergence_tol=1.0)
        for name, spec in self.estimates(h, settings).items():
            assert spec.converged is True, name
            assert spec.final_delta < 1.0, name
            assert spec.iterations < 15, name

    def test_final_delta_agrees_across_implementations(self, rng):
        h = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        deltas = [s.final_delta for s in self.estimates(h, IaaSettings()).values()]
        assert_allclose(deltas, deltas[0], rtol=1e-8)

    def test_zero_channel_reports_converged(self):
        cfr = CfrMatrix(data=np.zeros((64, 2), dtype=complex), srs=SRS)
        for spec in multichannel_toa(cfr, GRID):
            assert spec.iterations == 0
            assert spec.converged is True
            assert spec.final_delta == 0.0
