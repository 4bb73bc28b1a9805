"""Run-path kernel of :mod:`floquet_ep.bloch`: the period recurrence of :class:`_Samples`, which the
``bloch-traj`` command streams to its file a block of rows at a time.  The command line imports this module alone;
:mod:`floquet_ep.bloch` re-exports every name and adds the held trajectory and its states."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._floquet import FloquetParams, _x_rotation, _z_gain


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


class _Samples:
    """A trajectory's rows on request: row 0 is the start state, row ``1 + n * spp + s`` sample s of period n.
    :meth:`rows` gives every column of any rows from one period recurrence, for :func:`~floquet_ep.bloch.evolve_state`
    (every row at once) and the streamed ``bloch-traj`` columns (a block at a time).  It holds the last period it
    computed, so rows asked for in order cost one pass and an earlier row restarts from the start state; nothing
    it holds grows with the number of periods.  Raises ValueError for a non-normalized initial state."""

    def __init__(self, psi0, params: FloquetParams, n_periods: int, substeps: int):
        psi = np.asarray(psi0, dtype=complex).copy()
        if psi.shape != (2,):
            raise ValueError("initial state must be a two-component vector")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing or nan norm is not 1
            if not abs(np.linalg.norm(psi) - 1.0) <= 1e-9:
                raise ValueError("initial state must be normalized")
        if n_periods < 1:
            raise ValueError("n_periods must be >= 1")
        if substeps < 1:
            raise ValueError("substeps_per_segment must be >= 1")
        self.maps, tags, self.offsets = _period_samples(params, substeps)
        self.tags = [SegmentKind.UNITARY, *tags]  # row 0's, then each sample's of a period
        self._tag_values = np.array([tag.value for tag in self.tags], dtype=object)
        self.n = 1 + n_periods * len(self.maps)
        self._period, self._start, self._batch = -1, psi[None], psi[None]  # the held period; the start is period -1

    def states(self, a: int, b: int) -> np.ndarray:
        """Normalized statevectors of rows ``a`` to ``b - 1``, shape (b - a, 2)."""
        first, last = (a - 1) // len(self.maps), (b - 2) // len(self.maps)  # periods of rows a and b - 1
        if first < self._period:
            self._period, self._batch = -1, self._start
        batches = []
        with np.errstate(invalid="ignore", divide="ignore"):
            for n in range(self._period, last + 1):
                if n > self._period:
                    batch = self.maps @ self._batch[-1]
                    batch /= np.linalg.norm(batch, axis=1, keepdims=True)
                    self._period, self._batch = n, batch
                if n >= first:
                    batches.append(self._batch)
        out = np.concatenate(batches or [self._start[:0]])[a - max(0, 1 + first * len(self.maps)) :][: b - a]
        if not np.all(np.isfinite(out)):
            raise ValueError("zero statevector has no Bloch representation")
        return out

    def rows(self, r: range) -> tuple[np.ndarray, ...]:
        """Time (in periods), theta, phi, x, y, z and segment tag value of the flat rows in ``r``: one
        :meth:`states` call over the span of rows they cover."""
        idx = np.arange(r.start, r.stop, r.step)
        a, b = (int(idx.min()), int(idx.max()) + 1) if len(idx) else (0, 0)
        theta, phi = _angles(self.states(a, b)[idx - a])
        n, s = np.divmod(idx - 1, len(self.maps))  # row 0 is in period -1
        return (np.where(idx > 0, n + self.offsets[s], 0.0), theta, phi, *_cartesian(theta, phi).T,
                self._tag_values[np.where(idx > 0, s + 1, 0)])
