"""Post-selected single-qubit trajectories on the Bloch sphere.

The state is evolved with the closed-form partial segment maps, one batched
product per period, and renormalized at every sample, which is how
post-selection acts in experiments: the qubit never leaves the sphere
surface.  Renormalizing is projective, so this equals renormalizing after
every substep to rounding.  Unitary substeps precess the state about the
x-axis; thermal substeps pull it along meridians toward the north pole (the
amplified level).  One period recurrence gives the samples: :func:`evolve_state`
holds them all, and the ``bloch-traj`` command streams them to its file a block
at a time, holding nothing that grows with the number of periods.  The recurrence
and the segment tags come from the run-path kernel :mod:`floquet_ep._bloch`."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._bloch import SegmentKind, _angles, _cartesian, _period_samples, _Samples, equal_superposition_xyz
from .floquet import FloquetParams, PhaseKind, classify_phase
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
        m = np.abs([v.real, v.imag]).max()
        if not math.isfinite(m):
            raise ValueError("statevector must be finite")
        if m == 0:
            raise ValueError("zero statevector has no Bloch representation")
        e = -math.frexp(m)[1]  # the angles are scale-free: an exact power of two instead of a norm that can overflow
        theta, phi = _angles(np.ldexp(v.real, e) + 1j * np.ldexp(v.imag, e))
        return cls(theta=float(theta), phi=float(phi))

    @classmethod
    def from_cartesian(cls, vec) -> "BlochState":
        x, y, z = (float(c) for c in vec)
        if not all(map(math.isfinite, (x, y, z))):
            raise ValueError("Bloch vector must be finite")
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
    to rounding.  The whole trajectory is held; the ``bloch-traj`` command
    streams the same rows instead.

    Raises ValueError for a non-normalized initial state.
    """
    samples = _Samples(psi0, params, n_periods, substeps_per_segment)
    times, theta, phi, *_ = samples.rows(range(samples.n))
    return Trajectory(times, theta, phi, samples.tags[:1] + samples.tags[1:] * n_periods, len(samples.maps), n_periods)


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
