"""Command-line run layer: one runner per command, and :func:`run`.  The numpy-free front end :mod:`floquet_ep.args`
imports it after parsing; it re-exports that module's :class:`UsageError`, :func:`parse_config` and :func:`main`.  Each
runner loads its own kernel modules (``floquet_ep._floquet`` and the like), never a library module.  ``phase-diagram``,
``bloch-traj`` and ``two-qubit`` stream: each hands :func:`_group` one ``rows(range of flat row indices) -> tuple of
columns``, run once per block while the writer asks for blocks."""

from __future__ import annotations

import math
import os
import sys
from functools import lru_cache

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
    """Column ``k`` of ``n`` rows: ``rows(range of flat row indices)`` returns its group's tuple of columns,
    computed as asked (a writer block at a time when iterated)."""

    def __init__(self, n: int, rows, k: int):
        self.n, self.rows, self.k = n, rows, k

    def __len__(self):
        return self.n

    def __getitem__(self, k):
        i = range(self.n)[k]
        return self.rows(i)[self.k] if isinstance(k, slice) else self.rows(range(i, i + 1))[self.k][0]

    def __iter__(self):
        for i in range(0, self.n, _BLOCK_ROWS):
            yield from self[i : i + _BLOCK_ROWS].tolist()


def _group(n: int, rows, names) -> list[Column]:
    """Columns ``(name, unit)`` of ``n`` rows over one ``rows(range of rows) -> tuple of columns``, sharing the last
    block's tuple: a block costs one ``rows`` pass.  The first block is computed here, before the file opens."""
    rows = lru_cache(maxsize=1)(rows)  # a range is its own key
    rows(range(min(n, _BLOCK_ROWS)))
    return [Column(name, unit, _Rows(n, rows, k)) for k, (name, unit) in enumerate(names)]


def _run_phase_diagram(cfg: RunConfig) -> list[Column]:
    """Row ``i * n_omega + j``: gain i, frequency j.  The areas are monotone in both: checking the axis extremes
    here fails a bad grid before its file opens, and the rows are computed while they are written."""
    from ._sweep import AxisSpec, GridSpec, Quantity, _cells
    p = cfg.parameters
    grid = GridSpec(AxisSpec(p["gamma_min"], p["gamma_max"], p["grid"][0], p["gamma_scale"]),
                    AxisSpec(p["omega_min"], p["omega_max"], p["grid"][1], p["omega_scale"]), p["p"], p["j_av"])
    quantity, g, o = Quantity(p["quantity"]), grid.gamma_axis.values(), grid.omega_axis.values()
    _cells(grid, quantity, np.array([[g.min()], [g.max()]]), np.array([o.min(), o.max()]))

    def rows(r):
        i, n = np.arange(r.start, r.stop, r.step), len(o)
        return g[i // n], o[i % n], _cells(grid, quantity, g[i // n], o[i % n])

    return _group(len(g) * len(o), rows, [("gamma_ratio", "dimensionless"), ("omega_ratio", "dimensionless"),
                                          (p["quantity"].replace("-", "_"), "dimensionless")])


def _run_ep_contour(cfg: RunConfig) -> list[Column]:
    """The flat points of :func:`~floquet_ep._sweep._contour_points`, in the order that
    :func:`~floquet_ep.sweep.trace_contours` groups them, and their phase-diagram ratios."""
    from ._sweep import _contour_points
    p = cfg.parameters
    cols = _contour_points(p["p"], p["j_av"], (p["omega_min"], p["omega_max"]), p["samples"])
    pj = p["p"] * p["j_av"]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        cols += (cols[2] / pj, (1 - p["p"]) * cols[3] / pj)
    if not all(np.all(np.isfinite(c)) for c in cols):
        raise ValueError("a contour value is not finite: p*j_av or the thermal segment is too small")
    names = ("branch", "interval_k", "omega", "gamma_av", "omega_ratio", "gamma_ratio")
    units = ("sign", "index", "rad/time", "1/time", "dimensionless", "dimensionless")
    return [Column(name, unit, vals) for name, unit, vals in zip(names, units, cols)]


def _run_floquet_ham(cfg: RunConfig) -> list[Column]:
    """One array pass over the frequencies through :func:`~floquet_ep._floquet._areas`;
    each row is the scalar :func:`~floquet_ep.floquet.floquet_hamiltonian` bit for bit."""
    from ._floquet import _areas, _generator
    p = cfg.parameters
    omega = np.linspace(p["omega"], p.get("omega_max", p["omega"]), p["omega_count"])
    T, drive_area, gain_area = _areas(p["p"], omega, p["j_av"], p["gamma_av"])
    h0, hx, hy, hz, on_contour = _generator(drive_area, gain_area, T)
    cols = [Column("omega", "rad/time", omega)]
    for name, h in (("h0", h0), ("hx", hx), ("hy", hy), ("hz", hz)):
        cols += [Column(f"{name}_re", "1/time", h.real), Column(f"{name}_im", "1/time", h.imag)]
    return cols + [Column("on_contour", "flag", on_contour.astype(float))]  # float: the flag prints as 1.0


def _run_bloch_traj(cfg: RunConfig) -> list[Column]:
    """One row group over :class:`~floquet_ep._bloch._Samples`: the rows are computed while they are written."""
    from ._bloch import _Samples, equal_superposition_xyz
    from ._floquet import FloquetParams
    p = cfg.parameters
    params = FloquetParams.from_dimensionless(p["gamma_ratio"], p["omega_ratio"], p["p"], p["j_av"])
    if p["init"] == "xyz":
        psi0 = equal_superposition_xyz()
    else:
        theta, phi = p["init"]
        phase = complex(math.cos(phi), math.sin(phi))
        psi0 = np.array([math.cos(theta / 2), phase * math.sin(theta / 2)], dtype=complex)
    s = _Samples(psi0, params, p["periods"], p["substeps"])
    return _group(s.n, s.rows, [("time", "T"), ("theta", "rad"), ("phi", "rad"), ("x", "dimensionless"),
                                ("y", "dimensionless"), ("z", "dimensionless"), ("segment", "tag")])


def _run_two_qubit(cfg: RunConfig) -> list[Column]:
    """One row group: ``jt``, then each rate pair's C, S_u and S_t; row i at ``np.linspace(0, t_max, steps + 1)[i]``.
    Each pair's propagators at t_max are computed here, so a run that overflows later fails before its file opens."""
    from ._two_qubit import _START_FACTORS, TwoQubitParams, _propagators, _timeseries
    p = cfg.parameters
    phi, t_max, steps = _START_FACTORS[p["init"]](), p["t_max"], p["steps"]
    pairs = [TwoQubitParams(j=p["j"], gamma=g, kx=k) for g in p["gamma"] for k in p["kx"]]

    def rows(r):  # the times bit for bit as np.linspace's two branches give them; its last value is t_max
        i = np.arange(r.start, r.stop, r.step, dtype=float)  # integer ops add ~0.1 MB of numpy to the RSS
        ts = np.where(i == steps, t_max, i * (t_max / steps) if t_max / steps else i / steps * t_max)
        return (p["j"] * ts, *(c for q in pairs for c in _timeseries(phi, q, ts)[1:]))

    for params in pairs:
        _propagators(params, np.array([t_max]))
    names = [("concurrence", "dimensionless"), ("entropy_unitary", "bit"), ("entropy_thermal", "bit")]
    suffixes = [""] if len(pairs) == 1 else [f"_g{q.gamma:g}_kx{q.kx:g}" for q in pairs]
    return _group(steps + 1, rows, [("jt", "dimensionless")] + [(n + x, u) for x in suffixes for n, u in names])


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
