"""Benchmark inputs, generated from the signal model with the benchmark's own code.

Nothing here calls ``srsjade.model.synthesize_cfr`` or the harness: a fault in
the program's own synthesis must not be able to hide a fault in estimation.
The program only ever receives the arrays built below.

Signal model (one snapshot, tone m = 0..M-1, element n = 0..N-1)::

    H[m, n] = G[m, n] * ( sum_k g_k exp(-j 2 pi m df tau_k)
                                * exp(+j pi n sin(theta_k)) * exp(+j phi_n(theta_k))
                          + W[m, n] ),        W ~ CN(0, sigma^2), sigma^2 = 2

``G`` is the receive point's RF-chain response (known to the estimator); it
shapes the front-end noise ``W`` as it shapes the signal.  ``phi_n`` is the
antenna phase error, an order-4 polynomial of theta / 60 deg per element with
a peak of at most 40 deg over [-60, 60] deg.  Every path has
|g_k|^2 = sigma^2 10^(snr_db / 10) (per-path SNR) and a uniform random phase.

The scenes (targets, paths, noise) and the antenna errors are a fixed
reference set drawn from ``SCENE_SEED``; the workload seed draws the RF
chains.  See README.md for why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299792458.0
CARRIER_HZ = 4.85e9
SPACING_HZ = 60e3
NUM_TONES = 2048
NUM_ELEMENTS = 4
NOISE_VARIANCE = 2.0
COVERAGE_S = 166.67e-9
DOA_SPAN_DEG = 60.0
PHASE_ORDER = 4
MAX_PHASE_DEG = 40.0
MEASUREMENT_STEP_DEG = 5.0
SCENE_SEED = 2022
PATH_COUNTS = (3, 4, 5)
SNRS_DB = (-10.0, 0.0, 10.0)
# fix i uses cell i % 9, so every run of nine fixes covers each
# (path count, SNR) pair of the Monte Carlo config exactly once
CELLS = tuple((pc, snr) for pc in PATH_COUNTS for snr in SNRS_DB)

# two receive points 12 m apart, each turned 30 deg toward the other
POSES = (((0.0, 0.0), -30.0), ((12.0, 0.0), 30.0))
ROOM_X_M = (-4.0, 16.0)
ROOM_Y_M = (1.0, 18.0)


@dataclass(frozen=True)
class Site:
    """Truth of one receive point: pose, antenna phase error and RF chain."""

    position_m: tuple[float, float]
    boresight_deg: float
    phase_coefs: np.ndarray  # (N, order + 1), power basis in theta / 60 deg
    rf_gamma: np.ndarray  # (M, N)

    def phase_error(self, angles_deg) -> np.ndarray:
        """Per-element phase errors in rad, shape (N, len(angles))."""
        x = np.atleast_1d(np.asarray(angles_deg, dtype=float)) / DOA_SPAN_DEG
        powers = x[None, :] ** np.arange(PHASE_ORDER + 1)[:, None]
        return self.phase_coefs @ powers

    def measurements(self) -> tuple[np.ndarray, np.ndarray]:
        """Chamber sweep every 5 deg over the span: (angles, (N, R) phases)."""
        angles = np.arange(-DOA_SPAN_DEG, DOA_SPAN_DEG + 1e-9, MEASUREMENT_STEP_DEG)
        return angles, self.phase_error(angles)

    def bearing_range(self, point_m) -> tuple[float, float]:
        """(DOA in deg, range in m) of a world point seen from this site."""
        dx = point_m[0] - self.position_m[0]
        dy = point_m[1] - self.position_m[1]
        b = np.deg2rad(self.boresight_deg)
        x_loc = np.cos(b) * dx + np.sin(b) * dy
        y_loc = -np.sin(b) * dx + np.cos(b) * dy
        return float(np.rad2deg(np.arctan2(x_loc, y_loc))), float(np.hypot(x_loc, y_loc))


@dataclass(frozen=True)
class Snapshot:
    """One receive point's CFR for one target, with its LOS truth."""

    site: int
    cfr: np.ndarray  # (M, N) complex
    doa_deg: np.ndarray  # per path, LOS first
    toa_s: np.ndarray
    gains: np.ndarray

    @property
    def path_count(self) -> int:
        return self.doa_deg.size

    @property
    def los_doa_deg(self) -> float:
        return float(self.doa_deg[0])

    @property
    def los_toa_s(self) -> float:
        return float(self.toa_s[0])


@dataclass(frozen=True)
class Fix:
    """One target position seen by both receive points."""

    index: int
    target_m: tuple[float, float]
    path_count: int
    snr_db: float
    snapshots: tuple[Snapshot, Snapshot]


def _phase_profile(rng: np.random.Generator) -> np.ndarray:
    weights = np.array([0.15, 0.35, 0.6, 0.9, 1.2])
    x = np.linspace(-1.0, 1.0, 481)
    coefs = np.empty((NUM_ELEMENTS, PHASE_ORDER + 1))
    for n in range(NUM_ELEMENTS):
        c = rng.standard_normal(PHASE_ORDER + 1) * weights
        peak = np.max(np.abs(np.polynomial.polynomial.polyval(x, c)))
        coefs[n] = c * np.deg2rad(MAX_PHASE_DEG) * rng.uniform(0.75, 1.0) / peak
    return coefs


def _rf_response(rng: np.random.Generator) -> np.ndarray:
    """Smooth per-chain ripple: |G| in [0.7, 1.3], phase with a chain delay."""
    f = np.arange(NUM_TONES) / NUM_TONES
    cols = []
    for _ in range(NUM_ELEMENTS):
        ripple = 0.3 * np.sin(2 * np.pi * rng.uniform(1, 4) * f + rng.uniform(0, 2 * np.pi))
        delay_s = rng.uniform(0.0, 3e-9)
        phase = (
            rng.uniform(0, 2 * np.pi)
            - 2 * np.pi * np.arange(NUM_TONES) * SPACING_HZ * delay_s
            + 0.5 * np.sin(2 * np.pi * rng.uniform(1, 3) * f)
        )
        cols.append((1.0 + ripple) * np.exp(1j * phase))
    return np.column_stack(cols)


def make_sites(seed: int) -> tuple[Site, Site]:
    """Both receive points: reference antenna errors, RF chains drawn from ``seed``."""
    out = []
    for k, (pos, heading) in enumerate(POSES):
        antenna = np.random.default_rng(np.random.SeedSequence([SCENE_SEED, 1_000_000 + k]))
        chain = np.random.default_rng(np.random.SeedSequence([seed, 2_000_000 + k]))
        out.append(Site(pos, heading, _phase_profile(antenna), _rf_response(chain)))
    return tuple(out)


def _visible(sites, point) -> bool:
    return all(abs(s.bearing_range(point)[0]) <= DOA_SPAN_DEG for s in sites)


def _synthesize(site: Site, doa, toa, gains, rng) -> np.ndarray:
    m = np.arange(NUM_TONES)[:, None]
    delay = np.exp(-2j * np.pi * m * SPACING_HZ * toa[None, :])  # (M, K)
    n = np.arange(NUM_ELEMENTS)[:, None]
    steer = np.exp(1j * np.pi * n * np.sin(np.deg2rad(doa))[None, :])  # (N, K)
    steer = steer * np.exp(1j * site.phase_error(doa))
    clean = (delay * gains[None, :]) @ steer.T
    noise = np.sqrt(NOISE_VARIANCE / 2) * (
        rng.standard_normal(clean.shape) + 1j * rng.standard_normal(clean.shape)
    )
    return site.rf_gamma * (clean + noise)


def make_fix(index: int, sites) -> Fix:
    """Reference fix ``index``; independent of how many fixes a run uses."""
    rng = np.random.default_rng(np.random.SeedSequence([SCENE_SEED, index]))
    path_count, snr_db = CELLS[index % len(CELLS)]
    while True:
        target = (rng.uniform(*ROOM_X_M), rng.uniform(*ROOM_Y_M))
        if _visible(sites, target):
            break
    mag = np.sqrt(NOISE_VARIANCE * 10.0 ** (snr_db / 10.0))
    snaps = []
    for k, site in enumerate(sites):
        los_doa, los_range = site.bearing_range(target)
        los_toa = los_range / SPEED_OF_LIGHT
        doa = np.concatenate([[los_doa], rng.uniform(-DOA_SPAN_DEG, DOA_SPAN_DEG, path_count - 1)])
        toa = np.concatenate([[los_toa], rng.uniform(los_toa, COVERAGE_S, path_count - 1)])
        gains = mag * np.exp(1j * rng.uniform(0, 2 * np.pi, path_count))
        snaps.append(Snapshot(k, _synthesize(site, doa, toa, gains, rng), doa, toa, gains))
    return Fix(index, target, path_count, snr_db, tuple(snaps))
