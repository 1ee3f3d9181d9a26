"""Oracle for the simulator: the trajectory and frames generated step by
step, one frame at a time.

``memtrack.simulate`` draws each case's random numbers in a per-step loop
and computes the geometry once per case.  The functions below consume the
same stream in the same order but do all the math per step, as the
simulator's definition reads: a batched case must reproduce them bit for
bit, except for the rounding of the 2x2 factor product in the points'
second coordinate (see ``tests/test_simulate.py``).
"""

import numpy as np

from memtrack.models import ScenarioConfig, cv_transition_matrix
from memtrack.simulate import REGIME_CT, REGIME_CV
from memtrack.spdmat import cholesky, eigen_floor


def ct_transition(x, omega, dt):
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


def extent_from_heading(heading, cfg: ScenarioConfig):
    ca, sa = np.cos(heading), np.sin(heading)
    p = (cfg.axis_major / 2.0) ** 2
    q = (cfg.axis_minor / 2.0) ** 2
    off = (p - q) * ca * sa
    return np.array([
        [p * ca * ca + q * sa * sa, off],
        [off, p * sa * sa + q * ca * ca],
    ])


def draw_turn_rate(cfg: ScenarioConfig, rng):
    mag = rng.uniform(np.deg2rad(cfg.turn_rate_min), np.deg2rad(cfg.turn_rate_max))
    sign = 1.0 if rng.integers(2) else -1.0
    return sign * mag


def trajectory(cfg: ScenarioConfig, rng):
    """(states, extents, regimes, omegas), one step at a time."""
    states = np.zeros((cfg.steps, 4))
    extents = np.zeros((cfg.steps, 2, 2))
    regimes = np.zeros(cfg.steps, dtype=np.int8)
    omegas = np.zeros(cfg.steps)

    heading = rng.uniform(0.0, 2.0 * np.pi)
    x = np.array([0.0, 0.0, cfg.speed * np.cos(heading), cfg.speed * np.sin(heading)])
    states[0] = x
    extents[0] = extent_from_heading(heading, cfg)

    if cfg.process_noise == "white_accel":
        noise_gain = cfg.sigma_w * np.vstack([0.5 * cfg.dt ** 2 * np.eye(2), cfg.dt * np.eye(2)])
    else:
        noise_gain = cfg.sigma_w * np.eye(4)

    regime = REGIME_CV if cfg.regimes == "cv" else int(rng.integers(2))
    remaining = int(rng.integers(cfg.segment_min, cfg.segment_max + 1))
    omega = draw_turn_rate(cfg, rng) if regime == REGIME_CT else 0.0

    for k in range(1, cfg.steps):
        if remaining == 0:
            if cfg.regimes == "cv_ct":
                regime = REGIME_CT if regime == REGIME_CV else REGIME_CV
            remaining = int(rng.integers(cfg.segment_min, cfg.segment_max + 1))
            omega = draw_turn_rate(cfg, rng) if regime == REGIME_CT else 0.0
        noise = noise_gain @ rng.standard_normal(noise_gain.shape[1])
        x = ct_transition(x, omega, cfg.dt) + noise
        remaining -= 1
        states[k] = x
        heading = np.arctan2(x[3], x[2])
        extents[k] = extent_from_heading(heading, cfg)
        regimes[k] = regime
        omegas[k] = omega
    return states, extents, regimes, omegas


def frame(state, extent, cfg: ScenarioConfig, rng):
    """One Poisson-sized (n, 2) frame, resampled until n >= 2."""
    while True:
        n = int(rng.poisson(cfg.scatter_rate))
        if n >= 2:
            break
    ell = cholesky(eigen_floor(extent, 1e-9))
    radius = np.sqrt(rng.uniform(0.0, 1.0, size=n))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=n)
    disk = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    return state[:2] + disk @ ell.T + cfg.sigma_v * rng.standard_normal((n, 2))


def case(cfg: ScenarioConfig, master_seed: int, case_idx: int):
    """(states, extents, regimes, omegas, frames) of one case."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, case_idx))))
    states, extents, regimes, omegas = trajectory(cfg, rng)
    frames = [frame(states[k], extents[k], cfg, rng) for k in range(cfg.steps)]
    return states, extents, regimes, omegas, frames
