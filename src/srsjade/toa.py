"""Per-channel TOA spectral estimation with the iterative adaptive approach.

The estimator solves, grid point by grid point, a weighted least-squares fit
of one delay signature against the channel snapshot, with the weight matrix
being the inverse of the current signal covariance estimate; amplitude and
covariance updates alternate until the spectrum stops changing.  One sweep
driver owns that fixed point for a stack of channels: the matched-filter
start, the diagonal loading, the convergence test with converged rows
frozen, and the error paths.  Three kernels compute a sweep's numerators
a_p^H Q h and denominators a_p^H Q a_p, with Q the inverse of the loaded
covariance:

* dense (``iaa_dense``): the explicit dictionary matrix, O(P M^2) per
  sweep, kept as a structurally distinct reference.
* FFT-Toeplitz (``fft_iaa``): the dictionary rows are rows of the P-point
  DFT matrix, so the covariance rebuild, numerators and denominators each
  collapse to FFTs.  The covariance is Hermitian Toeplitz, so a sweep never
  forms Q: one two-column solve gives Q e_0 and Q h, and the
  Gohberg-Semencul formula turns Q e_0 into every lag sum of Q with FFT
  correlations, O(M log M).
* masked (``masked_fft_iaa``): an arbitrary subcarrier mask, realized as a
  gather of the Toeplitz covariance and a scatter of its inverse around the
  FFT stages; the gathered covariance is not Toeplitz, so it keeps a
  general inverse.

Every sweep reports its relative change; a spectrum carries the last one as
``final_delta`` and whether it met the tolerance as ``converged``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .model import CfrMatrix, SrsConfig


class EstimationError(Exception):
    """Raised when the spectral estimator cannot produce a usable result."""


@dataclass(frozen=True)
class DelayGrid:
    """Uniform delay grid spanning the full unambiguous range [0, 1/df).

    Estimation always runs on the full range (the FFT identities need the
    complete DFT grid); ``search_span_s`` is the sub-range that detection and
    reporting are restricted to.
    """

    num_points: int
    subcarrier_spacing_hz: float
    search_span_s: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.num_points < 2:
            raise ValueError("delay grid needs at least 2 points")
        if self.subcarrier_spacing_hz <= 0:
            raise ValueError("subcarrier spacing must be positive")
        if self.search_span_s is not None:
            lo, hi = self.search_span_s
            if not 0 <= lo < hi:
                raise ValueError("search span must satisfy 0 <= lo < hi")

    @property
    def step_s(self) -> float:
        return 1.0 / (self.num_points * self.subcarrier_spacing_hz)

    @property
    def delays_s(self) -> np.ndarray:
        return np.arange(self.num_points) * self.step_s

    @property
    def span_s(self) -> float:
        return 1.0 / self.subcarrier_spacing_hz

    def search_indices(self) -> np.ndarray:
        """Grid indices inside the search span (whole grid when unset)."""
        if self.search_span_s is None:
            return np.arange(self.num_points)
        lo, hi = self.search_span_s
        d = self.delays_s
        return np.flatnonzero((d >= lo - 1e-15) & (d <= hi + 1e-15))

    @staticmethod
    def default_points(num_subcarriers: int) -> int:
        """Smallest power of two with at least 16 grid points per subcarrier."""
        return 1 << int(np.ceil(np.log2(16 * num_subcarriers)))

    @classmethod
    def for_srs(
        cls,
        srs: SrsConfig,
        num_points: int | None = None,
        search_span_s: tuple[float, float] | None = None,
    ) -> "DelayGrid":
        p = num_points if num_points is not None else cls.default_points(srs.num_subcarriers)
        if p < srs.num_subcarriers:
            raise ValueError("grid must have at least as many points as subcarriers")
        return cls(p, srs.subcarrier_spacing_hz, search_span_s)


@dataclass(frozen=True)
class IaaSettings:
    """Iteration controls.

    ``diagonal_loading`` is relative: the loading added before the covariance
    is inverted or solved is this factor times the average diagonal of the
    covariance estimate.
    """

    max_iterations: int = 15
    convergence_tol: float = 1e-4
    diagonal_loading: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("need at least one iteration")
        if self.convergence_tol <= 0:
            raise ValueError("tolerance must be positive")
        if self.diagonal_loading < 0:
            raise ValueError("loading must be nonnegative")


@dataclass(frozen=True)
class ToaSpectrum:
    """Complex amplitude spectrum of one channel over the delay grid.

    ``final_delta`` is the relative change of the last sweep and
    ``converged`` whether it fell below the tolerance; a run stopped by the
    iteration cap reports ``converged=False``.  Spectra that take no sweep
    (periodogram, all-zero input) report 0.0 and True.
    """

    amplitudes: np.ndarray
    grid: DelayGrid
    iterations: int = 0
    final_delta: float = 0.0
    converged: bool = True

    def __post_init__(self) -> None:
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.shape != (self.grid.num_points,):
            raise ValueError("spectrum length must match the grid")
        if not np.all(np.isfinite(a)):
            raise ValueError("spectrum must be finite")
        object.__setattr__(self, "amplitudes", a)


def delay_dictionary(grid: DelayGrid, num_subcarriers: int) -> np.ndarray:
    """Dense dictionary A (M x P): column p is the signature of delay p.

    On the full-range uniform grid A[m, p] = exp(-j 2 pi m p / P), i.e. the
    first M rows of the P-point DFT matrix.
    """
    if num_subcarriers > grid.num_points:
        raise ValueError("dictionary needs P >= M")
    m = np.arange(num_subcarriers)[:, None]
    p = np.arange(grid.num_points)[None, :]
    return np.exp(-2j * np.pi * m * p / grid.num_points)


def matched_filter_numerators(vec: np.ndarray, num_grid_points: int) -> np.ndarray:
    """A^H vec for all grid delays via one length-P inverse FFT.

    With the signature convention above, A^H x sums x_m exp(+j 2 pi m p / P),
    which is P times the zero-padded inverse FFT of x.
    """
    vec = np.asarray(vec, dtype=complex)
    out = num_grid_points * np.fft.ifft(vec, n=num_grid_points, axis=-1)
    return out


def capon_denominators(q: np.ndarray, num_grid_points: int) -> np.ndarray:
    """a_p^H Q a_p for every grid delay via diagonal sums plus one FFT.

    The quadratic form depends on Q only through its diagonal sums u_l
    (row minus column = l); the full sweep is the inverse-FFT synthesis of
    those lag sums, binned at l mod P.  Exact for any square Q; real-valued
    output assumes a Hermitian Q (the imaginary part is discarded).
    """
    single = q.ndim == 2
    qb = q[None] if single else q
    b, m = qb.shape[0], qb.shape[-1]
    p = num_grid_points
    if p < m:
        raise ValueError("need P >= M")
    lag_bins = np.subtract.outer(np.arange(m), np.arange(m)).ravel() % p
    bins = (lag_bins + p * np.arange(b)[:, None]).ravel()
    values = qb.ravel()
    uvec = np.bincount(bins, values.real, b * p) + 1j * np.bincount(bins, values.imag, b * p)
    xi = np.real(p * np.fft.ifft(uvec.reshape(b, p), axis=-1))
    return xi[0] if single else xi


def _toeplitz_inverse_lag_sums(x: np.ndarray) -> np.ndarray:
    """Lag sums u_l, l = 0 .. M-1, of Q = R^-1 for a Hermitian PD Toeplitz R.

    ``x`` (..., M) is the first column of Q.  By Gohberg-Semencul,
    Q = (L(x) L(x)^H - L(y) L(y)^H) / x_0 with y = Z J conj(x), where L(a) is
    the lower-triangular Toeplitz matrix with first column a.  Along lag
    l >= 0, L(a) L(a)^H sums to sum_s (M - l - s) a[s + l] conj(a[s]): a plain
    and an s-weighted correlation, each one zero-padded length-2M FFT
    correlation.  Lag -l is the conjugate of lag l.
    """
    m = x.shape[-1]
    y = np.zeros_like(x)
    y[..., 1:] = x[..., :0:-1].conj()
    s = np.arange(m)
    fx, fy, fsx, fsy = np.fft.fft(np.stack([x, y, s * x, s * y]), n=2 * m, axis=-1)
    corr = np.fft.ifft(
        np.stack([fx * fx.conj() - fy * fy.conj(), fx * fsx.conj() - fy * fsy.conj()]),
        axis=-1,
    )[..., :m]
    return ((m - s) * corr[0] - corr[1]) / np.real(x[..., :1])


def _covariance_lags(power: np.ndarray, num_subcarriers: int) -> np.ndarray:
    """Lags 0 .. M-1 of R = A diag(p) A^H: the first M bins of fft(p).

    rfft holds bins 0 .. P//2 only; when M > P//2 + 1 the bins past P//2 are
    the conjugates of bins P - k, the power spectrum being real.
    """
    p = power.shape[-1]
    half = np.fft.rfft(power, axis=-1)
    if num_subcarriers <= half.shape[-1]:
        return half[..., :num_subcarriers]
    mirror = half[..., p - np.arange(half.shape[-1], num_subcarriers)].conj()
    return np.concatenate([half, mirror], axis=-1)


def toeplitz_covariance(power_spectrum: np.ndarray, num_subcarriers: int) -> np.ndarray:
    """Rebuild R = A diag(p) A^H from the power spectrum via one FFT.

    A Vandermonde dictionary and a diagonal weight make R Hermitian Toeplitz,
    so it is fully determined by its first column fft(p)[:M].
    """
    pw = np.atleast_2d(np.asarray(power_spectrum, dtype=float))
    m = num_subcarriers
    if pw.shape[-1] < m:
        raise ValueError("power spectrum shorter than the subcarrier count")
    first_col = _covariance_lags(pw, m)
    lags = np.concatenate([first_col[:, :0:-1].conj(), first_col], axis=1)
    # window k of the lag sequence, reversed, is row k: R[i, j] = lags[M-1+i-j]
    out = sliding_window_view(lags, m, axis=1)[:, :, ::-1].copy()
    return out[0] if power_spectrum.ndim == 1 else out


def periodogram_toa(h: np.ndarray, grid: DelayGrid) -> ToaSpectrum:
    """Matched-filter spectrum a_p^H h / M, the estimator initializer."""
    h = np.asarray(h, dtype=complex)
    beta = matched_filter_numerators(h, grid.num_points) / h.size
    return ToaSpectrum(amplitudes=beta, grid=grid, iterations=0)


def _relative_change(new_mag: np.ndarray, old_mag: np.ndarray) -> np.ndarray:
    scale = np.max(old_mag, axis=-1)
    scale = np.where(scale > 0, scale, 1.0)
    return np.max(np.abs(new_mag - old_mag), axis=-1) / scale


def _iaa_sweeps(
    h_rows: np.ndarray,
    kept: int,
    grid: DelayGrid,
    settings: IaaSettings,
    kernel: Callable[[np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> list[ToaSpectrum]:
    """The IAA fixed point for a stack of channels ``h_rows``, shape (B, M).

    Rows are on the full M-tone layout, zero at tones not measured; ``kept``
    tones were measured and scale the matched-filter start.  Each sweep calls
    ``kernel(h, power, loading)`` for the active rows only, which returns the
    numerators a_p^H Q h and the denominators a_p^H Q a_p, both (B, P); a
    kernel raises ``np.linalg.LinAlgError`` when its covariance is not
    positive definite.  Converged rows are frozen, so each row's trajectory
    matches a standalone single-row run; all-zero rows take no sweep.
    """
    if not np.all(np.isfinite(h_rows)):
        raise ValueError("channel vectors must be finite")
    n_rows = h_rows.shape[0]
    p = grid.num_points
    beta = np.fft.ifft(h_rows, n=p, axis=1) * (p / kept)
    prev_mag = np.abs(beta)
    iterations = np.zeros(n_rows, dtype=int)
    final_delta = np.zeros(n_rows)
    active = np.any(h_rows != 0, axis=1)

    for it in range(1, settings.max_iterations + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        power = prev_mag[idx] ** 2
        # sum(power) is every diagonal entry of A diag(power) A^H
        loading = settings.diagonal_loading * np.sum(power, axis=1)
        try:
            numer, denom = kernel(h_rows[idx], power, loading)
        except np.linalg.LinAlgError as exc:
            raise EstimationError(
                f"covariance solve failed at iteration {it} despite loading: {exc}"
            ) from exc
        if not np.all(denom > 0):
            raise EstimationError(
                f"nonpositive quadratic form at iteration {it}; covariance not PD"
            )
        new_beta = numer / denom
        new_mag = np.abs(new_beta)
        delta = _relative_change(new_mag, prev_mag[idx])
        beta[idx] = new_beta
        prev_mag[idx] = new_mag
        iterations[idx] = it
        final_delta[idx] = delta
        active[idx[delta < settings.convergence_tol]] = False

    return [
        ToaSpectrum(
            amplitudes=beta[n],
            grid=grid,
            iterations=int(iterations[n]),
            final_delta=float(final_delta[n]),
            converged=bool(final_delta[n] < settings.convergence_tol),
        )
        for n in range(n_rows)
    ]


def _toeplitz_kernel(
    h: np.ndarray, power: np.ndarray, loading: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """FFT-Toeplitz sweep: never forms Q = R^-1.

    One two-column solve gives Q e_0 and Q h; Gohberg-Semencul turns Q e_0
    into the lag sums of Q, and one inverse FFT gives numerators and
    denominators.
    """
    b, m = h.shape
    p = power.shape[1]
    cov = toeplitz_covariance(power, m)
    diag_idx = np.arange(m)
    cov[:, diag_idx, diag_idx] += loading[:, None]
    # right-hand sides [e_0, h]: one solve gives Q e_0 and Q h
    rhs = np.zeros((b, m, 2), dtype=complex)
    rhs[:, 0, 0] = 1.0
    rhs[:, :, 1] = h
    sol = np.linalg.solve(cov, rhs)
    x, iota = sol[..., 0], sol[..., 1]
    if not np.all(np.real(x[:, 0]) > 0):
        raise np.linalg.LinAlgError("nonpositive inverse diagonal; covariance not PD")
    # Q is Hermitian, so the real synthesis needs lags 0 .. M-1 only, with
    # each nonzero lag standing in for itself and its conjugate mirror
    lag_weights = np.full(m, 2.0)
    lag_weights[0] = 1.0
    # one batched inverse FFT covers both the numerators and denominators
    packed = np.zeros((2 * b, p), dtype=complex)
    packed[:b, :m] = iota
    packed[b:, :m] = lag_weights * _toeplitz_inverse_lag_sums(x)
    transformed = p * np.fft.ifft(packed, axis=1)
    return transformed[:b], np.real(transformed[b:])


def _dense_kernel(
    a: np.ndarray, h: np.ndarray, power: np.ndarray, loading: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reference sweep with the explicit dictionary ``a`` (M x P), O(P M^2)."""
    m = a.shape[0]
    cov = (a * power[:, None, :]) @ a.conj().T
    diag_idx = np.arange(m)
    cov[:, diag_idx, diag_idx] += loading[:, None]
    q = np.linalg.inv(cov)
    numer = (a.conj().T @ (q @ h[:, :, None]))[:, :, 0]
    denom = np.real(np.einsum("mp,bmp->bp", a.conj(), q @ a))
    return numer, denom


def _masked_kernel(
    sel: np.ndarray, h: np.ndarray, power: np.ndarray, loading: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Sweep on the tones ``sel``: general inverse of the gathered covariance.

    The gathered J R J^T is not Toeplitz; its inverse is scattered back to
    the full layout, J^T Q J, before the FFT stages.
    """
    b, m = h.shape
    p = power.shape[1]
    cov = toeplitz_covariance(power, m)[:, sel[:, None], sel]
    diag_idx = np.arange(sel.size)
    cov[:, diag_idx, diag_idx] += loading[:, None]
    q_full = np.zeros((b, m, m), dtype=complex)
    q_full[:, sel[:, None], sel] = np.linalg.inv(cov)
    numer = matched_filter_numerators((q_full @ h[:, :, None])[:, :, 0], p)
    return numer, capon_denominators(q_full, p)


def fft_iaa(
    h: np.ndarray, grid: DelayGrid, settings: IaaSettings | None = None
) -> ToaSpectrum:
    """FFT-accelerated estimator for one channel.

    Per sweep: one Toeplitz rebuild, one M x M solve for the two columns
    Q e_0 and Q h, Gohberg-Semencul lag sums of Q from Q e_0, and one
    inverse FFT for numerators and denominators; identical fixed point to
    :func:`iaa_dense`.  Requires the full-range grid the type enforces.
    """
    settings = settings or IaaSettings()
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1:
        raise ValueError("expected a single channel vector")
    if h.size > grid.num_points:
        raise ValueError("need P >= M")
    return _iaa_sweeps(h[None, :], h.size, grid, settings, _toeplitz_kernel)[0]


def iaa_dense(
    h: np.ndarray, grid: DelayGrid, settings: IaaSettings | None = None
) -> ToaSpectrum:
    """Reference implementation with the explicit dictionary matrix."""
    settings = settings or IaaSettings()
    h = np.asarray(h, dtype=complex)
    if h.ndim != 1:
        raise ValueError("expected a single channel vector")
    if h.size < 2:
        raise ValueError("need at least 2 subcarriers")
    kernel = partial(_dense_kernel, delay_dictionary(grid, h.size))
    return _iaa_sweeps(h[None, :], h.size, grid, settings, kernel)[0]


def masked_fft_iaa(
    h_masked: np.ndarray,
    mask: np.ndarray,
    grid: DelayGrid,
    settings: IaaSettings | None = None,
) -> ToaSpectrum:
    """FFT-accelerated estimator on a subset of subcarriers.

    ``mask`` flags the clean subcarriers of the nominal M-tone layout and
    ``h_masked`` holds their values in order.  Selection enters only as
    gathers of the Toeplitz covariance and scatters back to the full index
    set before the FFT stages, so the acceleration survives arbitrary masks;
    an all-true mask reproduces :func:`fft_iaa`.
    """
    settings = settings or IaaSettings()
    mask = np.asarray(mask, dtype=bool)
    h_masked = np.asarray(h_masked, dtype=complex)
    sel = np.flatnonzero(mask)
    if sel.size < 2:
        raise EstimationError("mask keeps fewer than 2 subcarriers")
    if h_masked.shape != (sel.size,):
        raise ValueError("masked vector length must match the mask popcount")
    if mask.size > grid.num_points:
        raise ValueError("need P >= M")
    h_full = np.zeros((1, mask.size), dtype=complex)
    h_full[0, sel] = h_masked
    return _iaa_sweeps(h_full, sel.size, grid, settings, partial(_masked_kernel, sel))[0]


def multichannel_toa(
    cfr: CfrMatrix,
    grid: DelayGrid,
    settings: IaaSettings | None = None,
    impl: str = "fft",
) -> list[ToaSpectrum]:
    """Independent per-channel spectra, channel order preserved."""
    settings = settings or IaaSettings()
    if abs(grid.subcarrier_spacing_hz - cfr.srs.subcarrier_spacing_hz) > 1e-6 * cfr.srs.subcarrier_spacing_hz:
        raise ValueError("delay grid was built for a different subcarrier spacing")
    if impl == "periodogram":
        return [periodogram_toa(cfr.data[:, n], grid) for n in range(cfr.channel_count)]
    m = cfr.num_subcarriers
    if impl == "fft":
        kernel = _toeplitz_kernel
    elif impl == "dense":
        kernel = partial(_dense_kernel, delay_dictionary(grid, m))
    else:
        raise ValueError(f"unknown implementation {impl!r}")
    return _iaa_sweeps(np.ascontiguousarray(cfr.data.T), m, grid, settings, kernel)
