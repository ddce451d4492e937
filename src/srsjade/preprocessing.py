"""CFR denoising and dimension reduction via the impulse-response domain.

Chain per measurement: estimate and remove one common phase slope (so the
dominant tap sits near zero delay), transform every channel to the channel
impulse response, zero everything outside a delay window, re-center the
window block, and transform back to a short CFR.  Each transform runs once
along axis 0 of the whole subcarrier-by-channel matrix.  Out-of-window delay
taps carry no propagation information for a small-cell deployment, so
dropping them suppresses noise while shrinking the matrix the estimators
see.

The constant delay shift introduced by slope removal and re-centering is
recorded in the output's ``delay_offset_s`` so downstream TOA estimates can
be mapped back to physical delays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .model import CfrMatrix, SrsConfig


@dataclass(frozen=True)
class PreprocessConfig:
    """Knobs of the reduction chain.

    ``ifft_points`` is the CIR transform length (>= subcarrier count; equal
    means no zero-padding interpolation).  ``delay_window_s`` bounds the taps
    kept, interpreted circularly so negative delays wrap.  The window block
    (at most ``fft_points_out`` taps, checked at apply time) is re-centered
    and re-transformed to a ``fft_points_out``-tone CFR.
    """

    ifft_points: int
    delay_window_s: tuple[float, float]
    fft_points_out: int

    def __post_init__(self) -> None:
        lo, hi = self.delay_window_s
        if not lo < hi:
            raise ValueError("delay window must be an increasing (lo, hi) pair")
        if self.fft_points_out < 2:
            raise ValueError("need at least 2 output points")
        if self.fft_points_out > self.ifft_points:
            raise ValueError("output size cannot exceed the CIR length")

    @classmethod
    def from_ns(cls, ifft_points: int, window_lo_ns: float, window_hi_ns: float,
                fft_points_out: int) -> "PreprocessConfig":
        return cls(ifft_points, (window_lo_ns * 1e-9, window_hi_ns * 1e-9), fft_points_out)


@dataclass(frozen=True)
class CirVector:
    """Impulse responses on a uniform circular tap grid.

    ``taps`` is (T,) for one channel or (T, N) for N channels, taps along
    axis 0.
    """

    taps: np.ndarray
    tap_spacing_s: float

    def __post_init__(self) -> None:
        t = np.asarray(self.taps, dtype=complex)
        if t.ndim not in (1, 2):
            raise ValueError("CIR taps must be (T,) or (T, N)")
        if not np.all(np.isfinite(t)):
            raise ValueError("CIR taps must be finite")
        object.__setattr__(self, "taps", t)

    @property
    def num_taps(self) -> int:
        return self.taps.shape[0]


def estimate_phase_slope(cfr: CfrMatrix) -> float:
    """Common linear-phase slope across subcarriers, in rad per subcarrier.

    Positive slope corresponds to positive bulk delay: a pure delayed input
    exp(-j 2 pi m df tau) yields slope = 2 pi df tau.  Two stages: a coarse
    tap alignment from the strongest mean CIR tap, then a weighted linear
    regression on the unwrapped mean phase increments across subcarriers
    (increments averaged over channels first, which keeps the regression
    usable at low per-tone SNR).  One slope is returned for all channels;
    removing it per channel would destroy the inter-channel phases carrying
    the DOA.
    """
    h = cfr.data
    m_sub = h.shape[0]
    if m_sub < 2:
        raise ValueError("need at least 2 subcarriers to estimate a slope")
    if not np.any(np.abs(h) > 0):
        raise ValueError("degenerate all-zero CFR")

    # coarse: strongest tap of the channel-averaged CIR power, signed circularly
    n_pad = 1 << int(np.ceil(np.log2(4 * m_sub)))
    cir = np.fft.ifft(h, n=n_pad, axis=0)
    k0 = int(np.argmax(np.sum(np.abs(cir) ** 2, axis=1)))
    if k0 >= n_pad // 2:
        k0 -= n_pad
    coarse = 2.0 * np.pi * k0 / n_pad

    # fine: WLS on the integrated mean phase increments of the de-rotated CFR
    mm = np.arange(m_sub)
    derot = h * np.exp(1j * coarse * mm)[:, None]
    z = np.sum(derot[1:] * derot[:-1].conj(), axis=1)
    psi = np.concatenate([[0.0], np.cumsum(np.angle(z))])
    weights = np.concatenate([[np.abs(z[0])], np.abs(z)])
    if np.all(weights == 0):
        return coarse
    fit = npoly.polyfit(mm, psi, 1, w=np.sqrt(weights))
    return coarse - fit[1]


def apply_phase_slope(cfr: CfrMatrix, slope_rad_per_subcarrier: float) -> CfrMatrix:
    """Remove a known slope from every channel, bookkeeping the delay shift."""
    mm = np.arange(cfr.num_subcarriers)
    data = cfr.data * np.exp(1j * slope_rad_per_subcarrier * mm)[:, None]
    shift = slope_rad_per_subcarrier / (2.0 * np.pi * cfr.srs.subcarrier_spacing_hz)
    return CfrMatrix(
        data=data,
        srs=cfr.srs,
        geometry=cfr.geometry,
        delay_offset_s=cfr.delay_offset_s + shift,
    )


def remove_phase_slope(cfr: CfrMatrix) -> tuple[CfrMatrix, float]:
    """Estimate the common slope and remove it from every channel."""
    slope = estimate_phase_slope(cfr)
    return apply_phase_slope(cfr, slope), slope


def cfr_to_cir(column: np.ndarray, ifft_points: int) -> CirVector:
    """Inverse DFT along axis 0 of a (zero-padded) CFR column or matrix.

    Normalization follows the inverse DFT, so sum|taps|^2 * ifft_points
    equals sum|column|^2 per channel (Parseval with that scaling).  The
    caller owns the subcarrier spacing; tap spacing is 1 / (ifft_points * df)
    for spacing df and is filled in by :func:`preprocess`.
    """
    column = np.asarray(column, dtype=complex)
    if ifft_points < column.shape[0]:
        raise ValueError("ifft_points must be >= the CFR length")
    return CirVector(taps=np.fft.ifft(column, n=ifft_points, axis=0), tap_spacing_s=np.nan)


def window_cir(cir: CirVector, window_s: tuple[float, float]) -> CirVector:
    """Zero all taps outside [lo, hi]; negative delays wrap circularly."""
    lo, hi = window_s
    n = cir.num_taps
    k = np.arange(n)
    delays = np.where(k < n / 2, k, k - n) * cir.tap_spacing_s
    inside = (delays >= lo - 1e-15) & (delays <= hi + 1e-15)
    kept = np.where(inside.reshape((n,) + (1,) * (cir.taps.ndim - 1)), cir.taps, 0.0)
    return CirVector(taps=kept, tap_spacing_s=cir.tap_spacing_s)


def cir_to_reduced_cfr(cir: CirVector, fft_points_out: int) -> np.ndarray:
    """Forward DFT of the leading tap block (already windowed/re-centered)."""
    if fft_points_out > cir.num_taps:
        raise ValueError("output size cannot exceed the CIR length")
    return np.fft.fft(cir.taps[:fft_points_out], axis=0)


def preprocess(
    cfr: CfrMatrix, cfg: PreprocessConfig, slope: float | None = None
) -> CfrMatrix:
    """Full reduction chain, one common slope then one axis-0 chain.

    The inverse transform, window, re-centering roll and forward transform
    each run once on the whole subcarrier-by-channel matrix.  ``slope``
    overrides the estimate (used to push a clean reference signal through
    the exact same linear chain as a noisy one).  Output carries the
    recomputed subcarrier spacing df * ifft_points / fft_points_out and the
    accumulated ``delay_offset_s``; output energy is at most
    fft_points_out / ifft_points times input energy (inverse/forward DFT
    scaling, windowing only removes).
    """
    m_sub = cfr.num_subcarriers
    if cfg.ifft_points < m_sub:
        raise ValueError(
            f"ifft_points {cfg.ifft_points} smaller than subcarrier count {m_sub}"
        )
    dt = 1.0 / (cfg.ifft_points * cfr.srs.subcarrier_spacing_hz)
    lo, hi = cfg.delay_window_s
    k_lo = int(np.ceil(lo / dt - 1e-9))
    k_hi = int(np.floor(hi / dt + 1e-9))
    window_taps = k_hi - k_lo + 1
    if window_taps > cfg.fft_points_out:
        raise ValueError(
            f"window spans {window_taps} taps, more than fft_points_out={cfg.fft_points_out}"
        )

    if slope is None:
        slope = estimate_phase_slope(cfr)
    flat = apply_phase_slope(cfr, slope)

    cir = CirVector(taps=cfr_to_cir(flat.data, cfg.ifft_points).taps, tap_spacing_s=dt)
    cir = window_cir(cir, cfg.delay_window_s)
    block = CirVector(taps=np.roll(cir.taps, -k_lo, axis=0), tap_spacing_s=dt)
    reduced = cir_to_reduced_cfr(block, cfg.fft_points_out)

    srs_out = SrsConfig(
        carrier_frequency_hz=cfr.srs.carrier_frequency_hz,
        subcarrier_spacing_hz=cfr.srs.subcarrier_spacing_hz * cfg.ifft_points / cfg.fft_points_out,
        num_subcarriers=cfg.fft_points_out,
        symbol_period_s=cfr.srs.symbol_period_s,
    )
    return CfrMatrix(
        data=reduced,
        srs=srs_out,
        geometry=cfr.geometry,
        delay_offset_s=flat.delay_offset_s + k_lo * dt,
    )
