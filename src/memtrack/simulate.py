"""Non-Markovian benchmark scenario generator.

Trajectories alternate constant-velocity and coordinated-turn segments of
random length, so one-step increments are history-dependent; the elliptical
extent keeps fixed semi-axes and rotates with the velocity heading.  Frames
are Poisson-sized sets of points drawn uniformly over the solid ellipse plus
isotropic sensor noise; a case's frames are one :class:`memtrack.models.Frames`,
every frame's points in one array.

Every case owns an RNG stream derived from (master seed, case index), so a
dataset is reproducible regardless of generation order: case i of a dataset
is ``generate_case(config, config.seed, i)``.  The order in which a case
reads its stream is part of what a seed means: the trajectory's draws (see
:func:`generate_trajectory`), then each frame's in turn (see
:func:`generate_case`).  Only the draws run per step; the trajectory's
headings and extents and all frames' points are computed once per case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import Frames, ScenarioConfig
from .spdmat import cholesky, eigen_floor

__all__ = [
    "GroundTruthSequence",
    "SimCase",
    "Dataset",
    "generate_trajectory",
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
    frames: Frames                    # K frames: (P, 2) points, (K,) counts


@dataclass(frozen=True)
class Dataset:
    """The cases of one scenario config and its train/test split: the
    leading ``round(train_fraction * len(cases))`` cases train, the rest test."""

    cases: list[SimCase]
    config: ScenarioConfig

    @property
    def train_cases(self) -> list[SimCase]:
        return self.cases[:round(self.config.train_fraction * len(self.cases))]

    @property
    def test_cases(self) -> list[SimCase]:
        return self.cases[len(self.train_cases):]


def _advance(x, omega: float, dt: float, noise) -> list[tuple[float, float, float, float]]:
    """The states that follow x, one per row of ``noise``: each is the
    coordinated turn at omega of the state before it plus its row.

    Omega == 0 gives the CV step exactly; below |omega * dt| = 1e-6 a series
    expansion keeps the turn smooth through zero.
    """
    if omega == 0.0:
        s, c, cw, sw = dt, 0.0, 1.0, 0.0
    else:
        wd = omega * dt
        if abs(wd) < 1e-6:
            s = dt * (1.0 - wd * wd / 6.0)
            c = omega * dt * dt * 0.5 * (1.0 - wd * wd / 12.0)
        else:
            s = float(np.sin(wd) / omega)
            c = float((1.0 - np.cos(wd)) / omega)
        cw, sw = float(np.cos(wd)), float(np.sin(wd))
    px, py, vx, vy = x
    states = []
    for n0, n1, n2, n3 in noise:
        px, py, vx, vy = (px + s * vx - c * vy + n0, py + c * vx + s * vy + n1,
                          cw * vx - sw * vy + n2, sw * vx + cw * vy + n3)
        states.append((px, py, vx, vy))
    return states


def _extents_from_headings(headings: np.ndarray, cfg: ScenarioConfig) -> np.ndarray:
    # R diag(p, q) R^T written out so each result is exactly symmetric
    ca, sa = np.cos(headings), np.sin(headings)
    p = (cfg.axis_major / 2.0) ** 2
    q = (cfg.axis_minor / 2.0) ** 2
    extents = np.empty((len(headings), 2, 2))
    extents[:, 0, 0] = p * ca * ca + q * sa * sa
    extents[:, 0, 1] = extents[:, 1, 0] = (p - q) * ca * sa
    extents[:, 1, 1] = p * sa * sa + q * ca * ca
    return extents


def generate_trajectory(cfg: ScenarioConfig, rng: np.random.Generator) -> GroundTruthSequence:
    """One CV/CT-switching truth sequence of cfg.steps states and extents.

    The stream is read in this order: the initial heading, the first
    regime (``cv_ct`` only), then per regime segment its length, its turn
    rate (CT only) and the process noise of each of its steps, up to the
    last step.  Only the state recursion runs per step; headings and
    extents are computed once for the whole sequence.
    """
    steps = cfg.steps
    if cfg.process_noise == "white_accel":
        # Acceleration w ~ N(0, sigma_w^2 I2) enters through the per-axis gain
        # [dt^2/2, dt], so cov(G w) is exactly the nominal cv_process_noise.
        a, b = cfg.sigma_w * (0.5 * cfg.dt ** 2), cfg.sigma_w * cfg.dt
        gain, axes, width = np.array([a, a, b, b]), [0, 1, 0, 1], 2
    else:
        gain, axes, width = np.full(4, cfg.sigma_w), [0, 1, 2, 3], 4
    # gain * w[axes] for a step's draw w is G w entry for entry: G's other
    # terms are exact zeros

    heading = rng.uniform(0.0, 2.0 * np.pi)
    states = [(0.0, 0.0, float(cfg.speed * np.cos(heading)), float(cfg.speed * np.sin(heading)))]
    regimes = np.zeros(steps, dtype=np.int8)
    omegas = np.zeros(steps)

    regime = REGIME_CV if cfg.regimes == "cv" else int(rng.integers(2))
    k = 1
    while k < steps:
        if k > 1 and cfg.regimes == "cv_ct":
            regime = REGIME_CT if regime == REGIME_CV else REGIME_CV
        length = int(rng.integers(cfg.segment_min, cfg.segment_max + 1))
        omega = _draw_turn_rate(cfg, rng) if regime == REGIME_CT else 0.0
        end = min(k + length, steps)
        noise = gain * rng.standard_normal((end - k, width))[:, axes]
        states += _advance(states[-1], omega, cfg.dt, noise.tolist())
        regimes[k:end] = regime
        omegas[k:end] = omega
        k = end

    states = np.array(states)
    headings = np.arctan2(states[:, 3], states[:, 2])
    headings[0] = heading
    return GroundTruthSequence(states=states, extents=_extents_from_headings(headings, cfg),
                               regimes=regimes, omegas=omegas)


def _draw_turn_rate(cfg: ScenarioConfig, rng: np.random.Generator) -> float:
    mag = rng.uniform(np.deg2rad(cfg.turn_rate_min), np.deg2rad(cfg.turn_rate_max))
    sign = 1.0 if rng.integers(2) else -1.0
    return sign * mag


def _draw_frames(cfg: ScenarioConfig, rng: np.random.Generator, steps: int):
    """The draws of ``steps`` frames, frame by frame in stream order: a
    Poisson count, redrawn until it is at least 2, then n radius and n
    angle uniforms, then (n, 2) noise normals.

    Returns the counts, the (2, P) uniforms (radius row, angle row) and
    the (P, 2) normals of all P points.
    """
    rate, poisson, random, standard_normal = (
        cfg.scatter_rate, rng.poisson, rng.random, rng.standard_normal)
    counts, uniforms, normals = [], [], []
    for _ in range(steps):
        n = poisson(rate)
        while n < 2:
            n = poisson(rate)
        counts.append(n)
        # uniform(lo, hi, n) is lo + (hi - lo) * random(n): one call draws both rows
        uniforms.append(random((2, n)))
        normals.append(standard_normal((n, 2)))
    return counts, np.concatenate(uniforms, axis=1), np.concatenate(normals)


def _scatter(centres, extents, counts, uniforms, normals, sigma_v: float) -> np.ndarray:
    """The (P, 2) points of frames with the given counts: uniform over each
    frame's solid ellipse (unit-disk samples mapped by a Cholesky factor of
    its extent) around its centre, plus sigma_v times the normals."""
    ell = cholesky(eigen_floor(extents, 1e-9))
    radius = np.sqrt(uniforms[0])
    angle = 2.0 * np.pi * uniforms[1]
    dx = radius * np.cos(angle)
    dy = radius * np.sin(angle)
    points = np.empty((len(dx), 2))
    # disk @ ell.T per point, with the factor's entries repeated per point
    points[:, 0] = np.repeat(centres[:, 0], counts) + dx * np.repeat(ell[:, 0, 0], counts)
    points[:, 1] = np.repeat(centres[:, 1], counts) + (
        dx * np.repeat(ell[:, 1, 0], counts) + dy * np.repeat(ell[:, 1, 1], counts))
    points += sigma_v * normals
    return points


def generate_case(cfg: ScenarioConfig, master_seed: int, case_idx: int) -> SimCase:
    """Case ``case_idx`` of ``master_seed``: its trajectory's draws, then every
    frame's, from the case's own stream; the frames are one points array
    and its counts."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((master_seed, case_idx))))
    truth = generate_trajectory(cfg, rng)
    counts, uniforms, normals = _draw_frames(cfg, rng, cfg.steps)
    points = _scatter(truth.states, truth.extents, counts, uniforms, normals, cfg.sigma_v)
    return SimCase(truth=truth, frames=Frames(points, counts))


def generate_dataset(cfg: ScenarioConfig) -> Dataset:
    """All cases for one noise level."""
    return Dataset(cases=[generate_case(cfg, cfg.seed, i) for i in range(cfg.cases)], config=cfg)
