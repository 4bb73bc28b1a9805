"""Post-selected single-qubit trajectories on the Bloch sphere.

The state is evolved with the closed-form partial segment maps, one batched
product per period, and renormalized at every sample, which is how
post-selection acts in experiments: the qubit never leaves the sphere
surface.  Renormalizing is projective, so this equals renormalizing after
every substep to rounding.  Unitary substeps precess the state about the
x-axis; thermal substeps pull it along meridians toward the north pole (the
amplified level)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .floquet import FloquetParams, PhaseKind, _x_rotation, _z_gain, classify_phase
from .linalg import eig

__all__ = [
    "SegmentKind",
    "BlochState",
    "Trajectory",
    "equal_superposition_xyz",
    "evolve_state",
    "stroboscopic_slice",
    "steady_state_bloch",
]


class SegmentKind(Enum):
    UNITARY = "unitary"
    THERMAL = "thermal"


def _angles(psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Polar angle in [0, pi] and azimuth in [-pi, pi) of nonzero
    statevectors ``psi[..., :2]``; 2 atan2(|b|, |a|) keeps theta accurate
    at the poles, where acos(|a|^2 - |b|^2) loses it below ~1e-8."""
    a, b = psi[..., 0], psi[..., 1]
    theta = 2 * np.arctan2(np.abs(b), np.abs(a))
    cross = np.conj(a) * b
    phi = np.arctan2(cross.imag, cross.real)
    return theta, np.where(phi >= math.pi, phi - 2 * math.pi, phi)


def _cartesian(theta, phi) -> np.ndarray:
    st = np.sin(theta)
    return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)


@dataclass(frozen=True)
class BlochState:
    """Point on the Bloch sphere: polar angle theta in [0, pi], azimuth phi
    in [-pi, pi)."""

    theta: float
    phi: float

    @property
    def cartesian(self) -> np.ndarray:
        return _cartesian(self.theta, self.phi)

    @classmethod
    def from_statevector(cls, psi) -> "BlochState":
        v = np.asarray(psi, dtype=complex)
        if v.shape != (2,):
            raise ValueError("statevector must have two components")
        n = np.linalg.norm(v)
        if n == 0:
            raise ValueError("zero statevector has no Bloch representation")
        theta, phi = _angles(v / n)
        return cls(theta=float(theta), phi=float(phi))

    @classmethod
    def from_cartesian(cls, vec) -> "BlochState":
        x, y, z = (float(c) for c in vec)
        theta = math.acos(min(1.0, max(-1.0, z)))
        phi = math.atan2(y, x)
        if phi >= math.pi:  # keep phi in [-pi, pi)
            phi -= 2 * math.pi
        return cls(theta=theta, phi=phi)


@dataclass
class Trajectory:
    """Sampled trajectory: times in units of the drive period, the Bloch
    angles and a segment tag per sample, strictly increasing times."""

    times: np.ndarray
    theta: np.ndarray
    phi: np.ndarray
    segment_tags: list[SegmentKind]
    samples_per_period: int
    n_periods: int

    @cached_property
    def states(self) -> list[BlochState]:
        return [BlochState(t, p) for t, p in zip(self.theta.tolist(), self.phi.tolist())]

    @property
    def cartesian(self) -> np.ndarray:
        """Bloch vectors of all samples, shape (n, 3)."""
        return _cartesian(self.theta, self.phi)


def equal_superposition_xyz() -> np.ndarray:
    """Normalized sum of the +x, -y and +z Pauli eigenstates.

    The spinor sum is not unit-norm, so the normalization is done
    numerically; this is the reference initial state of the trajectory
    presets.
    """
    plus_x = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    minus_y = np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2)
    plus_z = np.array([1.0, 0.0], dtype=complex)
    psi = plus_x + minus_y + plus_z
    return psi / np.linalg.norm(psi)


def _period_samples(params: FloquetParams, sub: int):
    """The samples of one period: closed-form maps from the period start to
    each sample, shape (samples_per_period, 2, 2), their segment tags and
    their times within the period, in units of the period.

    The thermal maps are divided by e^{|g|} at gain area g so far: that
    overall scale drops out on renormalization, and without it the maps
    overflow at strong gain.
    """
    k = np.arange(1, sub + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        a, g = params.drive_area * k / sub, params.gain_area * k / sub
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(g))):
        raise ValueError("drive or gain area is not finite")
    maps, tags, offsets = [], [], []
    u_full = np.eye(2)
    if params.tau > 0:
        maps.append(_x_rotation(a))
        u_full = maps[0][-1]
        tags += [SegmentKind.UNITARY] * sub
        offsets.append(params.p * k / sub)
    if params.beta > 0:
        with np.errstate(over="ignore"):  # -g - |g| can overflow to -inf; exp(-inf) = 0 is right
            gain = _z_gain(g, np.abs(g)).diagonal(axis1=1, axis2=2)
        # row scaling: the product with the gain map minus its zero terms, which can flip a zero's sign
        maps.append(gain[:, :, None] * u_full)
        tags += [SegmentKind.THERMAL] * sub
        offsets.append(params.p + (1 - params.p) * k / sub)
    return np.concatenate(maps), tags, np.concatenate(offsets)


def evolve_state(
    psi0,
    params: FloquetParams,
    n_periods: int,
    substeps_per_segment: int = 64,
) -> Trajectory:
    """Evolve a pure state through ``n_periods`` drive periods.

    Each sample is the period's start state, mapped by the closed-form
    partial map up to that sample and renormalized (post-selection).
    Substeps only refine the sampling: the segment maps are exact, so
    doubling ``substeps_per_segment`` leaves the sampled states unchanged
    to rounding.

    Raises ValueError for a non-normalized initial state.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (2,):
        raise ValueError("initial state must be a two-component vector")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    if substeps_per_segment < 1:
        raise ValueError("substeps_per_segment must be >= 1")

    maps, tags, offsets = _period_samples(params, substeps_per_segment)
    spp = len(maps)
    psis = np.empty((1 + n_periods * spp, 2), dtype=complex)
    psis[0] = psi
    with np.errstate(invalid="ignore", divide="ignore"):
        for n in range(n_periods):
            batch = maps @ psi
            batch /= np.linalg.norm(batch, axis=1, keepdims=True)
            psis[1 + n * spp : 1 + (n + 1) * spp] = batch
            psi = batch[-1]
    if not np.all(np.isfinite(psis)):
        raise ValueError("zero statevector has no Bloch representation")
    theta, phi = _angles(psis)

    times = np.concatenate([[0.0], (np.arange(n_periods)[:, None] + offsets).ravel()])
    return Trajectory(
        times=times,
        theta=theta,
        phi=phi,
        segment_tags=[SegmentKind.UNITARY] + tags * n_periods,
        samples_per_period=spp,
        n_periods=n_periods,
    )


def stroboscopic_slice(traj: Trajectory) -> list[BlochState]:
    """States at the period boundaries t = T, 2T, ..., nT (initial state
    excluded)."""
    idx = traj.samples_per_period * np.arange(1, traj.n_periods + 1)
    return [BlochState(t, p) for t, p in zip(traj.theta[idx].tolist(), traj.phi[idx].tolist())]


def steady_state_bloch(params: FloquetParams) -> BlochState | None:
    """Stroboscopic attractor in the PT-broken phase.

    The renormalized stroboscopic map converges to the dominant eigenvector
    of the one-period map whenever the eigenvalue magnitudes differ; that
    Bloch vector is returned.  In the PT-symmetric phase and exactly on a
    contour there is no attractor and None is returned.  The map is the
    scale-free one-period map of :func:`evolve_state`, so the attractor is
    finite at any gain.
    """
    if classify_phase(params).kind is not PhaseKind.PT_BROKEN:
        return None
    pairs = eig(_period_samples(params, 1)[0][-1])
    lam, vec = max(pairs, key=lambda pair: abs(pair[0]))
    return BlochState.from_statevector(vec)
