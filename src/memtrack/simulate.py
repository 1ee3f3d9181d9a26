"""Non-Markovian benchmark scenario generator.

Trajectories alternate constant-velocity and coordinated-turn segments of
random length, so one-step increments are history-dependent; the elliptical
extent keeps fixed semi-axes and rotates with the velocity heading.  Frames
are Poisson-sized (n, 2) arrays of points drawn uniformly over the solid
ellipse plus isotropic sensor noise.

Every case owns an RNG stream derived from (master seed, case index), so a
dataset is reproducible regardless of generation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ScenarioConfig, cv_transition_matrix
from .ops import sym_project
from .spdmat import cholesky

__all__ = [
    "GroundTruthSequence",
    "SimCase",
    "Dataset",
    "ct_transition",
    "generate_trajectory",
    "generate_frame",
    "generate_case",
    "generate_dataset",
]

REGIME_CV = 0
REGIME_CT = 1


@dataclass(frozen=True)
class GroundTruthSequence:
    """True states, extents and regime labels for one case."""

    states: np.ndarray    # (K, 4)
    extents: np.ndarray   # (K, 2, 2) SPD, eigenvalues = squared semi-axes
    regimes: np.ndarray   # (K,) int8, 0 = CV, 1 = CT
    omegas: np.ndarray    # (K,) rad/s, 0 during CV segments


@dataclass(frozen=True)
class SimCase:
    truth: GroundTruthSequence
    frames: list[np.ndarray]          # per step, (n, 2) points
    seed_entropy: tuple[int, int]


@dataclass(frozen=True)
class Dataset:
    cases: list[SimCase]
    train_idx: np.ndarray
    test_idx: np.ndarray
    config: ScenarioConfig
    master_seed: int


def ct_transition(x, omega: float, dt: float):
    """Coordinated-turn step at turn rate omega (rad/s).

    Exactly reduces to the CV transition at omega == 0 and switches to a
    series expansion below |omega * dt| = 1e-6 to stay smooth through zero.
    """
    if omega == 0.0:
        return cv_transition_matrix(dt) @ x
    wd = omega * dt
    if abs(wd) < 1e-6:
        s = dt * (1.0 - wd * wd / 6.0)
        c = omega * dt * dt * 0.5 * (1.0 - wd * wd / 12.0)
    else:
        s = np.sin(wd) / omega
        c = (1.0 - np.cos(wd)) / omega
    cw, sw = np.cos(wd), np.sin(wd)
    px, py, vx, vy = x[0], x[1], x[2], x[3]
    return np.array([
        px + s * vx - c * vy,
        py + c * vx + s * vy,
        cw * vx - sw * vy,
        sw * vx + cw * vy,
    ])


def _extent_from_heading(heading: float, cfg: ScenarioConfig) -> np.ndarray:
    # R diag(p, q) R^T written out so the result is exactly symmetric
    ca, sa = np.cos(heading), np.sin(heading)
    p = (cfg.axis_major / 2.0) ** 2
    q = (cfg.axis_minor / 2.0) ** 2
    off = (p - q) * ca * sa
    return np.array([
        [p * ca * ca + q * sa * sa, off],
        [off, p * sa * sa + q * ca * ca],
    ])


def generate_trajectory(cfg: ScenarioConfig, rng: np.random.Generator) -> GroundTruthSequence:
    """One CV/CT-switching truth sequence of cfg.steps states and extents."""
    states = np.zeros((cfg.steps, 4))
    extents = np.zeros((cfg.steps, 2, 2))
    regimes = np.zeros(cfg.steps, dtype=np.int8)
    omegas = np.zeros(cfg.steps)

    heading = rng.uniform(0.0, 2.0 * np.pi)
    x = np.array([0.0, 0.0, cfg.speed * np.cos(heading), cfg.speed * np.sin(heading)])
    states[0] = x
    extents[0] = _extent_from_heading(heading, cfg)

    if cfg.process_noise == "white_accel":
        # Acceleration w ~ N(0, sigma_w^2 I2) enters through the per-axis gain
        # [dt^2/2, dt], so cov(G w) is exactly the nominal cv_process_noise.
        noise_gain = cfg.sigma_w * np.vstack([0.5 * cfg.dt ** 2 * np.eye(2), cfg.dt * np.eye(2)])
    else:
        noise_gain = cfg.sigma_w * np.eye(4)

    regime = REGIME_CV if cfg.regimes == "cv" else int(rng.integers(2))
    remaining = int(rng.integers(cfg.segment_min, cfg.segment_max + 1))
    omega = _draw_turn_rate(cfg, rng) if regime == REGIME_CT else 0.0

    for k in range(1, cfg.steps):
        if remaining == 0:
            if cfg.regimes == "cv_ct":
                regime = REGIME_CT if regime == REGIME_CV else REGIME_CV
            remaining = int(rng.integers(cfg.segment_min, cfg.segment_max + 1))
            omega = _draw_turn_rate(cfg, rng) if regime == REGIME_CT else 0.0
        noise = noise_gain @ rng.standard_normal(noise_gain.shape[1])
        x = ct_transition(x, omega, cfg.dt) + noise
        remaining -= 1
        states[k] = x
        heading = np.arctan2(x[3], x[2])
        extents[k] = _extent_from_heading(heading, cfg)
        regimes[k] = regime
        omegas[k] = omega
    return GroundTruthSequence(states=states, extents=extents, regimes=regimes, omegas=omegas)


def _draw_turn_rate(cfg: ScenarioConfig, rng: np.random.Generator) -> float:
    mag = rng.uniform(np.deg2rad(cfg.turn_rate_min), np.deg2rad(cfg.turn_rate_max))
    sign = 1.0 if rng.integers(2) else -1.0
    return sign * mag


def generate_frame(
    state: np.ndarray,
    extent: np.ndarray,
    cfg: ScenarioConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Poisson-sized (n, 2) scatterer frame, resampled until n >= 2.

    Points are uniform over the solid ellipse (unit-disk samples mapped by a
    Cholesky factor of the extent) plus N(0, sigma_v^2 I) noise.
    """
    while True:
        n = int(rng.poisson(cfg.scatter_rate))
        if n >= 2:
            break
    guarded = sym_project(extent, 1e-9)
    ell = cholesky(guarded)
    radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    disk = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return state[:2] + disk @ ell.T + cfg.sigma_v * rng.standard_normal((n, 2))


def generate_case(cfg: ScenarioConfig, master_seed: int, case_idx: int) -> SimCase:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, case_idx))))
    truth = generate_trajectory(cfg, rng)
    frames = [
        generate_frame(truth.states[k], truth.extents[k], cfg, rng)
        for k in range(cfg.steps)
    ]
    return SimCase(truth=truth, frames=frames, seed_entropy=(master_seed, case_idx))


def generate_dataset(cfg: ScenarioConfig) -> Dataset:
    """All cases for one noise level, with a deterministic train/test split."""
    cases = [generate_case(cfg, cfg.seed, i) for i in range(cfg.cases)]
    n_train = int(round(cfg.train_fraction * cfg.cases))
    idx = np.arange(cfg.cases)
    return Dataset(
        cases=cases,
        train_idx=idx[:n_train],
        test_idx=idx[n_train:],
        config=cfg,
        master_seed=cfg.seed,
    )
