"""Output checks against computations made apart from the program.

Each check is an explicit property or a straight-line reference written from
the defining formulas: the delay and angle references use explicit
dictionaries and sums, not the FFT identities the program relies on.  A check
takes the program's output as an argument and raises :class:`CheckFailed`
when the output is wrong, so ``selftest.py`` can hand it a perturbed output
and show that it rejects it.
"""

from __future__ import annotations

import numpy as np

from inputs import DOA_SPAN_DEG, SPEED_OF_LIGHT

SPECTRUM_RTOL = 1e-9
PREPROCESS_RTOL = 1e-10
FIT_ATOL_RAD = 1e-9
TRIANGULATION_ATOL_M = 1e-6
ANGLES_DEG = np.linspace(-DOA_SPAN_DEG, DOA_SPAN_DEG, 601)
SEARCH_SPAN_S = (0.0, 50.0 / SPEED_OF_LIGHT)


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's reference."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- delay domain ------------------------------------------------------------


def delay_dictionary(num_tones: int, num_points: int) -> np.ndarray:
    """A[m, p] = exp(-j 2 pi m p / P): signature of grid delay p on tone m."""
    m = np.arange(num_tones)[:, None]
    p = np.arange(num_points)[None, :]
    return np.exp(-2j * np.pi * m * p / num_points)


def dense_iaa(h, num_points, max_iterations, tol, loading):
    """IAA written out in full: explicit dictionary, covariance and inverse.

    Stops on the same rule as the program: the largest change of any
    amplitude magnitude, relative to the previous peak, below ``tol``.
    Returns the complex amplitudes over the grid.
    """
    m = h.size
    a = delay_dictionary(m, num_points)
    beta = a.conj().T @ h / m
    mag = np.abs(beta)
    for _ in range(max_iterations):
        cov = (a * mag**2) @ a.conj().T
        cov += loading * np.mean(np.real(np.diag(cov))) * np.eye(m)
        q = np.linalg.inv(cov)
        numer = a.conj().T @ (q @ h)
        denom = np.real(np.sum(a.conj() * (q @ a), axis=0))
        beta = numer / denom
        new_mag = np.abs(beta)
        delta = np.max(np.abs(new_mag - mag)) / np.max(mag)
        mag = new_mag
        if delta < tol:
            break
    return beta


def matched_filter(h, num_points):
    """a_p^H h / M for every grid delay p."""
    return delay_dictionary(h.size, num_points).conj().T @ h / h.size


def reference_spectra(reduced, num_points, iaa, impl):
    """Per-channel spectra (N, P) of the reduced CFR (M, N)."""
    if impl == "periodogram":
        return np.array([matched_filter(h, num_points) for h in reduced.T])
    return np.array([
        dense_iaa(h, num_points, iaa.max_iterations, iaa.convergence_tol, iaa.diagonal_loading)
        for h in reduced.T
    ])


def check_spectra(program, reference) -> None:
    scale = np.max(np.abs(reference))
    dev = np.max(np.abs(program - reference)) / scale
    _require(dev < SPECTRUM_RTOL, f"spectra deviate from dense reference by {dev:.2e}")


def in_frame_search(num_points, spacing_hz, delay_offset_s) -> np.ndarray:
    """Grid indices inside the 0..50 m search span, mapped into the frame."""
    lo = max(SEARCH_SPAN_S[0] - delay_offset_s, 0.0)
    hi = min(SEARCH_SPAN_S[1] - delay_offset_s, 1.0 / spacing_hz)
    d = np.arange(num_points) / (num_points * spacing_hz)
    return np.flatnonzero((d >= lo - 1e-15) & (d <= hi + 1e-15))


def reference_los(spectra, search, threshold_db) -> int:
    """Earliest local maximum of the channel-mean magnitude within threshold."""
    avg = np.mean(np.abs(spectra), axis=0)[search]
    floor = avg.max() * 10.0 ** (-threshold_db / 20.0)
    for i in range(avg.size):
        j = i
        while j + 1 < avg.size and avg[j + 1] == avg[i]:
            j += 1
        left = avg[i - 1] if i > 0 else -np.inf
        right = avg[j + 1] if j + 1 < avg.size else -np.inf
        if avg[i] > left and avg[i] > right and avg[i] >= floor:
            return int(search[i])
    raise CheckFailed("reference spectrum has no detection")


def check_los(program_index: int, reference_index: int) -> None:
    _require(
        program_index == reference_index,
        f"LOS grid index {program_index}, reference {reference_index}",
    )


# --- angle domain ------------------------------------------------------------


def steering(coefs, span_deg, angles_deg) -> np.ndarray:
    """Calibrated steering (N, Q): exp(j pi n sin t) exp(j phi_n(t)) from coefficients."""
    angles = np.asarray(angles_deg, dtype=float)
    lo, hi = span_deg
    x = (2.0 * angles - lo - hi) / (hi - lo)
    phase = np.zeros((coefs.shape[0], angles.size))
    for c in reversed(range(coefs.shape[1])):  # Horner
        phase = phase * x[None, :] + coefs[:, c][:, None]
    n = np.arange(coefs.shape[0])[:, None]
    return np.exp(1j * np.pi * n * np.sin(np.deg2rad(angles))[None, :] + 1j * phase)


def angle_index(doa_deg: float) -> int:
    k = int(round((doa_deg - ANGLES_DEG[0]) / (ANGLES_DEG[1] - ANGLES_DEG[0])))
    _require(0 <= k < ANGLES_DEG.size and abs(ANGLES_DEG[k] - doa_deg) < 1e-9,
             f"DOA {doa_deg} is not on the angle grid")
    return k


def check_cbf(b_los, doa_deg, coefs, span_deg) -> None:
    """The reported DOA maximises |a(t)^H b_los| over the grid."""
    beam = np.abs(steering(coefs, span_deg, ANGLES_DEG).conj().T @ b_los)
    k = angle_index(doa_deg)
    _require(beam[k] >= beam.max() * (1 - 1e-12),
             f"beam at {doa_deg} deg is {beam[k]:.6g}, grid maximum {beam.max():.6g} "
             f"at {ANGLES_DEG[np.argmax(beam)]} deg")


def check_fit(fitted_coefs, fitted_span, true_coefs) -> None:
    """fit_phase_error recovers the known order-4 polynomial from its samples."""
    _require(tuple(fitted_span) == (-DOA_SPAN_DEG, DOA_SPAN_DEG),
             f"fit span {fitted_span}")
    _require(fitted_coefs.shape == true_coefs.shape,
             f"fit has shape {fitted_coefs.shape}, truth {true_coefs.shape}")
    err = np.max(np.abs(fitted_coefs - true_coefs))
    _require(err < FIT_ATOL_RAD, f"fitted coefficients off by {err:.2e} rad")


def check_triangulation(position_m, target_m) -> None:
    err = float(np.hypot(position_m[0] - target_m[0], position_m[1] - target_m[1]))
    _require(err < TRIANGULATION_ATOL_M, f"triangulating true bearings misses by {err:.2e} m")


# --- calibration and preprocessing ---------------------------------------------


def check_rf_division(calibrated, cfr, gamma) -> None:
    """calibrate_channel divides the CFR by the RF response entry by entry."""
    expected = cfr / gamma
    dev = np.max(np.abs(calibrated - expected)) / np.max(np.abs(expected))
    _require(dev < 1e-12, f"RF division deviates by {dev:.2e}")


def check_preprocess(cfr, reduced, delay_offset_s, spacing_hz, ifft_points, window_s, out_points):
    """IFFT -> window -> roll -> FFT with the program's slope reproduces its output.

    The slope is read back from the output's delay offset, which the program
    sets to slope / (2 pi df) plus the window's leading tap delay.
    """
    dt = 1.0 / (ifft_points * spacing_hz)
    k_lo = int(np.ceil(window_s[0] / dt - 1e-9))
    slope = 2 * np.pi * spacing_hz * (delay_offset_s - k_lo * dt)
    m = np.arange(cfr.shape[0])
    cir = np.fft.ifft(cfr * np.exp(1j * slope * m)[:, None], n=ifft_points, axis=0)
    k = np.arange(ifft_points)
    delays = np.where(k < ifft_points / 2, k, k - ifft_points) * dt
    keep = (delays >= window_s[0] - 1e-15) & (delays <= window_s[1] + 1e-15)
    block = np.roll(np.where(keep[:, None], cir, 0.0), -k_lo, axis=0)[:out_points]
    expected = np.fft.fft(block, axis=0)
    dev = np.max(np.abs(reduced - expected)) / np.max(np.abs(expected))
    _require(dev < PREPROCESS_RTOL, f"reduced CFR deviates from reference by {dev:.2e}")


def check_energy(cfr, reduced, ifft_points, out_points) -> None:
    e_in = np.sum(np.abs(cfr) ** 2)
    e_out = np.sum(np.abs(reduced) ** 2)
    limit = out_points / ifft_points * e_in
    _require(e_out <= limit * (1 + 1e-12), f"reduced energy {e_out:.6g} exceeds {limit:.6g}")


# --- 2-D baselines -------------------------------------------------------------


def _cells(p, q, search):
    """The 3x3 neighbourhood of (p, q), clipped to the search rows and angle grid."""
    rows = [r for r in (p - 1, p, p + 1) if search[0] <= r <= search[-1]]
    cols = [c for c in (q - 1, q, q + 1) if 0 <= c < ANGLES_DEG.size]
    return [(r, c) for r in rows for c in cols]


def _ideal(num_elements, angle_deg):
    return np.exp(1j * np.pi * np.arange(num_elements) * np.sin(np.deg2rad(angle_deg)))


def periodogram_power(reduced, num_points, p, angle_deg) -> float:
    """|sum_mn conj(a_tau[m] a_theta[n]) H[m, n]|^2 / (M N) by explicit sums."""
    m_tones, n_el = reduced.shape
    a_tau = np.exp(-2j * np.pi * np.arange(m_tones) * p / num_points)
    a_theta = _ideal(n_el, angle_deg)
    total = 0j
    for m in range(m_tones):
        for n in range(n_el):
            total += np.conj(a_tau[m] * a_theta[n]) * reduced[m, n]
    return abs(total) ** 2 / (m_tones * n_el)


def music_noise_projector(reduced, freq_order, space_order, model_order):
    """I - Es Es^H of the forward-smoothed covariance (frequency index fastest)."""
    m_tones, n_el = reduced.shape
    len_f, len_s = m_tones - freq_order + 1, n_el - space_order + 1
    cov = np.zeros((len_f * len_s, len_f * len_s), dtype=complex)
    for i in range(freq_order):
        for j in range(space_order):
            x = reduced[i : i + len_f, j : j + len_s].T.reshape(-1)
            cov += np.outer(x, x.conj())
    cov /= freq_order * space_order
    cov = 0.5 * (cov + cov.conj().T)
    _, vecs = np.linalg.eigh(cov)
    signal = vecs[:, -model_order:]
    return np.eye(cov.shape[0]) - signal @ signal.conj().T, len_f, len_s


def music_pseudo(projector, len_f, len_s, num_points, p, angle_deg) -> float:
    a = np.kron(_ideal(len_s, angle_deg),
                np.exp(-2j * np.pi * np.arange(len_f) * p / num_points))
    return 1.0 / np.real(a.conj() @ projector @ a)


def check_local_max(value_at, p, q, search, label) -> None:
    """value_at(p, q) is at least every value of its clipped 3x3 neighbourhood."""
    centre = value_at(p, q)
    for r, c in _cells(p, q, search):
        v = value_at(r, c)
        _require(centre >= v * (1 - 1e-9),
                 f"{label} LOS cell ({p}, {ANGLES_DEG[q]} deg) = {centre:.6g} "
                 f"below neighbour ({r}, {ANGLES_DEG[c]} deg) = {v:.6g}")


def check_canary(doa_deg, toa_s, true_doa_deg, true_toa_s, step_s, label) -> None:
    _require(abs(doa_deg - true_doa_deg) < 1e-9 and abs(toa_s - true_toa_s) < 1e-6 * step_s,
             f"{label} canary: got ({doa_deg} deg, {toa_s * 1e9:.4f} ns), "
             f"expected ({true_doa_deg} deg, {true_toa_s * 1e9:.4f} ns)")
