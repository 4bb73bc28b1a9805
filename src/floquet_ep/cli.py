"""Command-line run layer: one runner per command, and :func:`run`.  The
numpy-free front end :mod:`floquet_ep.args` imports it after parsing; it
re-exports that module's :class:`UsageError`, :func:`parse_config` and :func:`main`.  Each runner loads its kernel.
``phase-diagram`` and ``bloch-traj`` stream: their columns are row sources, computed while the writer asks for blocks."""

from __future__ import annotations

import math
import os
import sys
from functools import partial

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# The kernels are elementwise or 2x2/4x4 stacks, below OpenBLAS's threading threshold: its pool
# only adds start-up time and a spinning core.  One thread, unless numpy is loaded or a count is set.
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_THREAD_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .args import UsageError, main, parse_config
from .envelope import _BLOCK_ROWS, Column, RunConfig, make_envelope

__all__ = ["UsageError", "parse_config", "run", "main"]


class _Rows:
    """A column of ``n`` rows, computed by ``rows(flat row indices)`` as asked (a writer block at a time when iterated)."""

    def __init__(self, n: int, rows):
        self.n, self.rows = n, rows

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        i = range(self.n)[k]
        return self.rows(np.arange(i.start, i.stop, i.step)) if isinstance(k, slice) else self.rows(np.array([i]))[0]

    def __iter__(self):
        for i in range(0, self.n, _BLOCK_ROWS):
            yield from self[i : i + _BLOCK_ROWS].tolist()


def _run_phase_diagram(cfg: RunConfig) -> list[Column]:
    """Row ``i * n_omega + j``: gain i, frequency j.  The areas are monotone in both: checking the axis extremes
    here fails a bad grid before its file opens, and the rows are computed while they are written."""
    from .sweep import AxisSpec, GridSpec, Quantity, _cells
    p = cfg.parameters
    grid = GridSpec(AxisSpec(p["gamma_min"], p["gamma_max"], p["grid"][0], p["gamma_scale"]),
                    AxisSpec(p["omega_min"], p["omega_max"], p["grid"][1], p["omega_scale"]), p["p"], p["j_av"])
    quantity, g, o = Quantity(p["quantity"]), grid.gamma_axis.values(), grid.omega_axis.values()
    _cells(grid, quantity, np.array([[g.min()], [g.max()]]), np.array([o.min(), o.max()]))
    n, n_rows = len(o), len(g) * len(o)
    return [Column("gamma_ratio", "dimensionless", _Rows(n_rows, lambda idx: g[idx // n])),
            Column("omega_ratio", "dimensionless", _Rows(n_rows, lambda idx: o[idx % n])),
            Column(p["quantity"].replace("-", "_"), "dimensionless",
                   _Rows(n_rows, lambda idx: _cells(grid, quantity, g[idx // n], o[idx % n])))]


def _run_ep_contour(cfg: RunConfig) -> list[Column]:
    from .sweep import trace_contours
    p = cfg.parameters
    contours = trace_contours(p["p"], p["j_av"], (p["omega_min"], p["omega_max"]), p["samples"])
    pj = p["p"] * p["j_av"]
    blocks = [np.column_stack([np.full((len(b.points), 2), (b.branch, b.resonance_index), dtype=float),
                               b.points[:, ::-1]])  # points are (gamma, omega)
              for b in contours.branches]
    cols = np.concatenate([np.empty((0, 4))] + blocks).T
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cols = np.vstack([cols, cols[2] / pj, (1 - p["p"]) * cols[3] / pj])
    if not np.all(np.isfinite(cols)):
        raise ValueError("a contour value is not finite: p*j_av or the thermal segment is too small")
    names = ("branch", "interval_k", "omega", "gamma_av", "omega_ratio", "gamma_ratio")
    units = ("sign", "index", "rad/time", "1/time", "dimensionless", "dimensionless")
    return [Column(name, unit, vals) for name, unit, vals in zip(names, units, cols)]


def _run_floquet_ham(cfg: RunConfig) -> list[Column]:
    """One array pass over the frequencies through :func:`~floquet_ep.floquet._areas`;
    each row is the scalar :func:`~floquet_ep.floquet.floquet_hamiltonian` bit for bit."""
    from .floquet import _areas, _generator
    p = cfg.parameters
    omega = np.linspace(p["omega"], p.get("omega_max", p["omega"]), p["omega_count"])
    T, drive_area, gain_area = _areas(p["p"], omega, p["j_av"], p["gamma_av"])
    h0, hx, hy, hz, on_contour = _generator(drive_area, gain_area, T)
    cols = [Column("omega", "rad/time", omega)]
    for name, h in (("h0", h0), ("hx", hx), ("hy", hy), ("hz", hz)):
        cols += [Column(f"{name}_re", "1/time", h.real), Column(f"{name}_im", "1/time", h.imag)]
    return cols + [Column("on_contour", "flag", on_contour.astype(float))]  # float: the flag prints as 1.0


def _run_bloch_traj(cfg: RunConfig) -> list[Column]:
    """Seven row sources over one :class:`~floquet_ep.bloch._Samples`: the rows are computed while they
    are written, and the angle and coordinate columns of a block share one pass."""
    from .bloch import _Samples, equal_superposition_xyz
    from .floquet import FloquetParams
    p = cfg.parameters
    params = FloquetParams.from_dimensionless(p["gamma_ratio"], p["omega_ratio"], p["p"], p["j_av"])
    if p["init"] == "xyz":
        psi0 = equal_superposition_xyz()
    else:
        theta, phi = p["init"]
        phase = complex(math.cos(phi), math.sin(phi))
        psi0 = np.array([math.cos(theta / 2), phase * math.sin(theta / 2)], dtype=complex)
    s = _Samples(psi0, params, p["periods"], p["substeps"])
    names = (("theta", "rad"), ("phi", "rad"), ("x", "dimensionless"), ("y", "dimensionless"), ("z", "dimensionless"))
    return [Column("time", "T", _Rows(s.n, s.times)),
            *(Column(name, unit, _Rows(s.n, partial(s.bloch, k))) for k, (name, unit) in enumerate(names)),
            Column("segment", "tag", _Rows(s.n, s.segments))]


def _run_two_qubit(cfg: RunConfig) -> list[Column]:
    from .two_qubit import TwoQubitParams, _timeseries, density_from_label
    p = cfg.parameters
    rho0 = density_from_label(p["init"])
    t_grid = np.linspace(0.0, p["t_max"], p["steps"] + 1)
    combos = [(g, k) for g in p["gamma"] for k in p["kx"]]
    columns = []
    for gamma, kx in combos:  # j t is the same for every rate pair; it is finite once a kernel succeeds
        jt, c, s_u, s_t = _timeseries(rho0, TwoQubitParams(j=p["j"], gamma=gamma, kx=kx), t_grid)
        suffix = "" if len(combos) == 1 else f"_g{gamma:g}_kx{kx:g}"
        columns += [Column(f"concurrence{suffix}", "dimensionless", c),
                    Column(f"entropy_unitary{suffix}", "bit", s_u),
                    Column(f"entropy_thermal{suffix}", "bit", s_t)]
    return [Column("jt", "dimensionless", jt), *columns]


_RUNNERS = {
    "phase-diagram": _run_phase_diagram,
    "ep-contour": _run_ep_contour,
    "floquet-ham": _run_floquet_ham,
    "bloch-traj": _run_bloch_traj,
    "two-qubit": _run_two_qubit,
}


def run(config: RunConfig):
    """Execute a validated configuration and return the result envelope."""
    columns = _RUNNERS[config.command](config)
    return make_envelope(config, columns)
