"""Joint angle/delay estimation: spectrum averaging, path detection, LOS
selection, and beamformed DOA retrieval, plus the end-to-end pipeline.

Multipath components are separated by delay first (per-channel spectral
estimation), then the direct path's per-channel complex amplitudes are fed
to a conventional beamformer over the (ideally calibrated) steering model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .calibration import RfChannelResponse, calibrate_channel
from .model import SPEED_OF_LIGHT, CfrMatrix, SteeringModel
from .preprocessing import PreprocessConfig, preprocess
from .toa import DelayGrid, IaaSettings, ToaSpectrum, multichannel_toa

DEFAULT_SEARCH_SPAN_S = (0.0, 50.0 / SPEED_OF_LIGHT)


class DetectionError(Exception):
    """Raised when no path clears the detection threshold."""


@dataclass(frozen=True)
class AngleGrid:
    """Uniform DOA search grid in degrees."""

    angles_deg: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.angles_deg, dtype=float)
        if a.ndim != 1 or a.size < 2:
            raise ValueError("angle grid needs at least 2 points")
        if np.any(np.diff(a) <= 0):
            raise ValueError("angles must be strictly increasing")
        object.__setattr__(self, "angles_deg", a)

    @property
    def num_points(self) -> int:
        return self.angles_deg.size

    @classmethod
    def regular(cls, lo_deg: float = -60.0, hi_deg: float = 60.0, step_deg: float = 0.2) -> "AngleGrid":
        count = int(round((hi_deg - lo_deg) / step_deg)) + 1
        return cls(np.linspace(lo_deg, hi_deg, count))


@dataclass(frozen=True)
class PathDetection:
    """One detected multipath component on the delay grid."""

    grid_index: int
    delay_s: float
    mean_amplitude: float
    channel_amplitudes: np.ndarray | None = None


@dataclass(frozen=True)
class JadeEstimate:
    """Joint estimate for the direct path, with diagnostics.

    ``converged`` says whether every channel's IAA met its tolerance and
    ``final_delta`` is the largest last-sweep relative change over the
    channels; estimators that run no sweep keep ``True`` and ``0.0``.
    """

    doa_deg: float
    toa_s: float
    b_los: np.ndarray | None
    iterations: int
    detections: tuple[PathDetection, ...]
    converged: bool = True
    final_delta: float = 0.0

    def to_json_dict(self) -> dict:
        amps = np.array([d.mean_amplitude for d in self.detections])
        ref = amps.max() if amps.size else 1.0
        return {
            "doa_deg": round(float(self.doa_deg), 6),
            "toa_ns": round(float(self.toa_s) * 1e9, 6),
            "range_m": round(float(self.toa_s) * SPEED_OF_LIGHT, 6),
            "n_iterations": int(self.iterations),
            "converged": bool(self.converged),
            "final_delta": float(self.final_delta),
            "detections": [
                {
                    "delay_ns": round(float(d.delay_s) * 1e9, 6),
                    "amp_db": round(float(20.0 * np.log10(d.mean_amplitude / ref)), 3),
                }
                for d in self.detections
            ],
        }


def average_spectra(spectra: list[ToaSpectrum]) -> np.ndarray:
    """Mean of the per-channel amplitude magnitudes at each delay grid point."""
    if not spectra:
        raise ValueError("no spectra to average")
    return np.mean([np.abs(s.amplitudes) for s in spectra], axis=0)


def _local_maxima(values: np.ndarray) -> list[int]:
    """Plateau-aware local maxima; ties resolve to the left edge of a run."""
    peaks = []
    n = values.size
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[j + 1] == values[i]:
            j += 1
        left = values[i - 1] if i > 0 else -np.inf
        right = values[j + 1] if j + 1 < n else -np.inf
        if values[i] > left and values[i] > right:
            peaks.append(i)
        i = j + 1
    return peaks


def detect_paths(
    avg: np.ndarray,
    grid: DelayGrid,
    threshold_db: float = 10.0,
    search_span_s: tuple[float, float] | None = None,
) -> list[PathDetection]:
    """Significant local maxima of the averaged spectrum, earliest first.

    A grid point is detected when it is a (plateau-left) local maximum inside
    the search span and its amplitude is within ``threshold_db`` (20 log10)
    of the in-span maximum.
    """
    if threshold_db <= 0:
        raise ValueError("threshold must be positive")
    avg = np.asarray(avg, dtype=float)
    if avg.shape != (grid.num_points,):
        raise ValueError("averaged spectrum length must match the grid")
    span = search_span_s if search_span_s is not None else grid.search_span_s
    if span is not None:
        d = grid.delays_s
        inside = np.flatnonzero((d >= span[0] - 1e-15) & (d <= span[1] + 1e-15))
    else:
        inside = np.arange(grid.num_points)
    if inside.size == 0:
        raise DetectionError("search span contains no grid points")
    values = avg[inside]
    floor = values.max() * 10.0 ** (-threshold_db / 20.0)
    picks = [inside[i] for i in _local_maxima(values) if values[i] >= floor]
    if not picks:
        raise DetectionError("no path cleared the detection threshold")
    delays = grid.delays_s
    return [
        PathDetection(grid_index=int(p), delay_s=float(delays[p]), mean_amplitude=float(avg[p]))
        for p in sorted(picks)
    ]


def select_los(detections: list[PathDetection]) -> PathDetection:
    """Earliest-delay detection; the direct path cannot arrive after an echo."""
    if not detections:
        raise DetectionError("empty detection list")
    return min(detections, key=lambda d: d.delay_s)


def cbf_doa(
    b_los: np.ndarray, steering: SteeringModel, grid: AngleGrid
) -> tuple[float, np.ndarray]:
    """Conventional beamformer: maximize |a(theta)^H b| over the angle grid.

    Returns the argmax angle and the full beam spectrum for diagnostics.
    The argmax is invariant to any nonzero complex scaling of ``b_los``.
    """
    b_los = np.asarray(b_los, dtype=complex)
    a = steering.matrix(grid.angles_deg)
    if a.shape[0] != b_los.size:
        raise ValueError("steering model size does not match the amplitude vector")
    spectrum = np.abs(a.conj().T @ b_los)
    return float(grid.angles_deg[int(np.argmax(spectrum))]), spectrum


@dataclass(frozen=True)
class JadeConfig:
    """Pipeline wiring for :func:`jade`.

    ``delay_points`` of None picks the default power-of-two grid for the
    (possibly reduced) subcarrier count.  ``search_span_s`` is in physical
    delay; it is mapped into the preprocessed frame internally.
    """

    steering: SteeringModel
    angle_grid: AngleGrid = field(default_factory=AngleGrid.regular)
    iaa: IaaSettings = field(default_factory=IaaSettings)
    impl: str = "fft"
    delay_points: int | None = None
    search_span_s: tuple[float, float] = DEFAULT_SEARCH_SPAN_S
    detection_threshold_db: float = 10.0
    preprocess: PreprocessConfig | None = None
    rf_response: RfChannelResponse | None = None


def build_delay_grid(cfr: CfrMatrix, cfg: JadeConfig) -> DelayGrid:
    """Full-range delay grid for the (reduced) CFR, search span mapped in-frame."""
    lo = max(cfg.search_span_s[0] - cfr.delay_offset_s, 0.0)
    hi = cfg.search_span_s[1] - cfr.delay_offset_s
    full = 1.0 / cfr.srs.subcarrier_spacing_hz
    hi = min(hi, full)
    if not lo < hi:
        raise DetectionError("search span is empty after frame mapping")
    return DelayGrid.for_srs(cfr.srs, cfg.delay_points, search_span_s=(lo, hi))


def prepare(cfr: CfrMatrix, cfg: JadeConfig) -> tuple[CfrMatrix, DelayGrid]:
    """The opening every estimator shares: calibrate, reduce, build the grid."""
    if cfg.rf_response is not None:
        cfr = calibrate_channel(cfr, cfg.rf_response)
    if cfg.preprocess is not None:
        cfr = preprocess(cfr, cfg.preprocess)
    return cfr, build_delay_grid(cfr, cfg)


def jade(cfr: CfrMatrix, cfg: JadeConfig) -> JadeEstimate:
    """Full pipeline: calibrate, reduce, estimate delays, pick LOS, beamform."""
    cfr, grid = prepare(cfr, cfg)
    spectra = multichannel_toa(cfr, grid, cfg.iaa, impl=cfg.impl)
    avg = average_spectra(spectra)
    detections = detect_paths(avg, grid, cfg.detection_threshold_db)
    amps = np.array([s.amplitudes for s in spectra])
    detections = [
        replace(d, channel_amplitudes=amps[:, d.grid_index]) for d in detections
    ]
    los = select_los(detections)
    doa, _ = cbf_doa(los.channel_amplitudes, cfg.steering, cfg.angle_grid)
    reported = tuple(
        replace(d, delay_s=d.delay_s + cfr.delay_offset_s) for d in detections
    )
    return JadeEstimate(
        doa_deg=doa,
        toa_s=los.delay_s + cfr.delay_offset_s,
        b_los=los.channel_amplitudes,
        iterations=max(s.iterations for s in spectra),
        detections=reported,
        converged=all(s.converged for s in spectra),
        final_delta=max(s.final_delta for s in spectra),
    )
