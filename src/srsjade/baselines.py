"""Reference joint estimators for comparison experiments.

Both baselines search the 2-D delay/angle plane directly: a classical 2-D
periodogram (matched filter) and 2-D MUSIC over a spatial-frequential
smoothed covariance.  They share the pipeline's preprocessing, grids, and
earliest-significant-path LOS rule so comparisons isolate the estimator.
Both assume the ideal Vandermonde manifold (uniform arrays); that is what
breaks them under direction-dependent antenna errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import maximum_filter

from .pipeline import DetectionError, JadeConfig, JadeEstimate, PathDetection, prepare
from .model import ArrayGeometry, CfrMatrix, ideal_steering_matrix
from .toa import delay_dictionary


@dataclass(frozen=True)
class SmoothingConfig:
    """Sliding-subblock counts for the smoothed covariance.

    ``freq_order`` and ``space_order`` are the numbers of subblock shifts in
    the frequency and space domains; subblocks keep (M - freq_order + 1) x
    (N - space_order + 1) entries, and freq_order * space_order outer
    products are averaged.
    """

    freq_order: int = 6
    space_order: int = 2

    def __post_init__(self) -> None:
        if self.freq_order < 1 or self.space_order < 1:
            raise ValueError("smoothing orders must be at least 1")


def _uniform_spacing(geom: ArrayGeometry) -> float:
    d = np.diff(geom.positions)
    if np.max(np.abs(d - d[0])) > 1e-9 * abs(d[0]):
        raise ValueError("baseline estimators require a uniform linear array")
    return float(d[0])


def periodogram_2d(
    cfr: CfrMatrix,
    geom: ArrayGeometry,
    delay_grid,
    angle_grid,
    top_k: int = 5,
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """Classical matched-filter power map over (delay, angle).

    power(tau, theta) = |sig(tau, theta)^H vec(H)|^2 / (M N), computed
    separably: one inverse FFT sweeps all delays, then one matrix product
    sweeps all angles.  Returns the (P x Q) map plus the ``top_k`` highest
    2-D peaks as (delay_s, angle_deg, power) tuples, strongest first.
    """
    h = cfr.data
    m, n = h.shape
    # A_tau^H H for every grid delay, then project on conj(steering)
    delay_proj = delay_grid.num_points * np.fft.ifft(h, n=delay_grid.num_points, axis=0)
    a_theta = ideal_steering_matrix(geom, angle_grid.angles_deg)
    power = np.abs(delay_proj @ a_theta.conj()) ** 2 / (m * n)
    peaks = _top_peaks_2d(power, delay_grid.delays_s, angle_grid.angles_deg, top_k)
    return power, peaks


def _top_peaks_2d(
    power: np.ndarray, delays_s: np.ndarray, angles_deg: np.ndarray, top_k: int
) -> list[tuple[float, float, float]]:
    is_peak = power == maximum_filter(power, size=3, mode="nearest")
    cand = np.argwhere(is_peak)
    values = power[cand[:, 0], cand[:, 1]]
    order = np.argsort(values)[::-1][:top_k]
    return [
        (float(delays_s[i]), float(angles_deg[j]), float(power[i, j]))
        for i, j in cand[order]
    ]


def estimate_model_order(eigenvalues: np.ndarray, num_snapshots: int | None = None) -> int:
    """Source count from sorted eigenvalues via the MDL rule, clamped to >= 1.

    Only the numerically nonzero part of the spectrum participates (smoothed
    covariances built from few outer products are rank deficient).
    """
    ev = np.sort(np.asarray(eigenvalues, dtype=float))[::-1]
    ev = ev[ev > max(ev[0], 0.0) * 1e-12]
    r = ev.size
    if r <= 1:
        return 1
    n_snap = num_snapshots if num_snapshots is not None else r
    best_k, best_score = 1, np.inf
    for k in range(r):
        tail = ev[k:]
        geo = np.exp(np.mean(np.log(tail)))
        arith = np.mean(tail)
        likelihood = -n_snap * (r - k) * np.log(geo / arith)
        penalty = 0.5 * k * (2 * r - k) * np.log(n_snap)
        score = likelihood + penalty
        if score < best_score:
            best_k, best_score = k, score
    return int(min(max(best_k, 1), r - 1))


def smoothed_covariance(
    cfr_data: np.ndarray, cfg: SmoothingConfig
) -> tuple[np.ndarray, int, int]:
    """Forward spatial-frequential smoothing.

    Averages outer products of all (M - f + 1) x (N - s + 1) subblocks taken
    at the f x s shift offsets; subblock vectors stack frequency fastest, so
    an on-grid source maps to kron(a_space, a_freq).  Returns the Hermitian
    covariance plus the subblock dimensions (len_freq, len_space).
    """
    m, n = cfr_data.shape
    len_f = m - cfg.freq_order + 1
    len_s = n - cfg.space_order + 1
    if len_f < 1 or len_s < 1:
        raise ValueError("smoothing orders exceed the data dimensions")
    blocks = [
        cfr_data[i : i + len_f, j : j + len_s].ravel(order="F")
        for i in range(cfg.freq_order)
        for j in range(cfg.space_order)
    ]
    x = np.asarray(blocks)
    # rows of x are subblock vectors: this is the mean of x x^H outer products
    cov = x.T @ x.conj() / x.shape[0]
    return 0.5 * (cov + cov.conj().T), len_f, len_s


def smoothed_music_2d(
    cfr: CfrMatrix,
    cfg: SmoothingConfig,
    geom: ArrayGeometry,
    delay_grid,
    angle_grid,
    model_order: int,
    top_k: int | None = None,
) -> tuple[np.ndarray, list[tuple[float, float, float]]]:
    """2-D MUSIC pseudo-spectrum over the smoothed covariance.

    The pseudo-spectrum 1 / (a^H E_n E_n^H a) is evaluated on the search
    portion of the delay grid times the full angle grid; the Kronecker
    structure of the subblock signature lets the quadratic form be swept one
    angle at a time.  Returns a (P_search x Q) map (rows follow
    ``delay_grid.search_indices()``) plus the top peaks, strongest first.
    """
    spacing = _uniform_spacing(geom)
    cov, len_f, len_s = smoothed_covariance(cfr.data, cfg)
    dim = len_f * len_s
    if not 1 <= model_order < dim:
        raise ValueError(f"model order must be in [1, {dim - 1}]")
    _, vecs = np.linalg.eigh(cov)
    noise_basis = vecs[:, : dim - model_order]
    projector = noise_basis @ noise_basis.conj().T
    proj_tensor = projector.reshape(len_s, len_f, len_s, len_f)

    search = delay_grid.search_indices()
    a_freq = delay_dictionary(delay_grid, len_f)[:, search]
    sub_geom = ArrayGeometry.ula(max(len_s, 2), spacing, geom.wavelength_m)
    a_space = ideal_steering_matrix(sub_geom, angle_grid.angles_deg)[:len_s]

    pseudo = np.empty((search.size, angle_grid.num_points))
    for q in range(angle_grid.num_points):
        a_s = a_space[:, q]
        quad = np.einsum("i,imjl,j->ml", a_s.conj(), proj_tensor, a_s)
        pseudo[:, q] = np.real(np.einsum("lp,lm,mp->p", a_freq.conj(), quad, a_freq))
    pseudo = 1.0 / np.maximum(pseudo, np.finfo(float).tiny)

    k = top_k if top_k is not None else model_order
    peaks = _top_peaks_2d(pseudo, delay_grid.delays_s[search], angle_grid.angles_deg, k)
    return pseudo, peaks


def _estimate_from_peaks(
    peaks: list[tuple[float, float, float]],
    delay_offset_s: float,
    threshold_db: float | None,
) -> JadeEstimate:
    """Shared LOS rule: earliest delay among the significant peaks."""
    if not peaks:
        raise DetectionError("no 2-D peaks found")
    if threshold_db is not None:
        floor = max(p[2] for p in peaks) * 10.0 ** (-threshold_db / 10.0)
        peaks = [p for p in peaks if p[2] >= floor] or peaks
    los = min(peaks, key=lambda p: p[0])
    detections = tuple(
        PathDetection(grid_index=-1, delay_s=p[0] + delay_offset_s, mean_amplitude=np.sqrt(p[2]))
        for p in sorted(peaks, key=lambda q: q[0])
    )
    return JadeEstimate(
        doa_deg=los[1],
        toa_s=los[0] + delay_offset_s,
        b_los=None,
        iterations=0,
        detections=detections,
    )


def periodogram_jade(cfr: CfrMatrix, cfg: JadeConfig, top_k: int = 5) -> JadeEstimate:
    """Periodogram baseline behind the shared pipeline contract."""
    cfr, grid = prepare(cfr, cfg)
    geom = cfr.geometry or cfg.steering.geometry
    power, _ = periodogram_2d(cfr, geom, grid, cfg.angle_grid, top_k)
    search = grid.search_indices()
    peaks = _top_peaks_2d(
        power[search], grid.delays_s[search], cfg.angle_grid.angles_deg, top_k
    )
    # matched-filter map is a power surface: reuse the amplitude threshold
    return _estimate_from_peaks(peaks, cfr.delay_offset_s, cfg.detection_threshold_db)


def music_jade(
    cfr: CfrMatrix,
    cfg: JadeConfig,
    smoothing: SmoothingConfig,
    model_order: int | None = None,
) -> JadeEstimate:
    """Smoothed-MUSIC baseline behind the shared pipeline contract.

    With no ``model_order`` the MDL rule picks one from the smoothed
    covariance spectrum.
    """
    cfr, grid = prepare(cfr, cfg)
    geom = cfr.geometry or cfg.steering.geometry
    if model_order is None:
        cov, len_f, len_s = smoothed_covariance(cfr.data, smoothing)
        order = estimate_model_order(
            np.linalg.eigvalsh(cov), smoothing.freq_order * smoothing.space_order
        )
        model_order = min(order, len_f * len_s - 1)
    _, peaks = smoothed_music_2d(
        cfr, smoothing, geom, grid, cfg.angle_grid, model_order
    )
    # pseudo-spectrum heights are not amplitudes: keep the top-K rule only
    return _estimate_from_peaks(peaks, cfr.delay_offset_s, None)
