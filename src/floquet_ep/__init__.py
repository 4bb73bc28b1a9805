"""Simulations of qubits alternating between unitary and thermal dynamics.

Core surfaces:

- :mod:`floquet_ep.linalg` -- exact 2x2/4x4 complex linear algebra.
- :mod:`floquet_ep.floquet` -- single-qubit one-period maps, PT phases,
  exceptional contours and effective generators.
- :mod:`floquet_ep.bloch` -- post-selected Bloch-sphere trajectories.
- :mod:`floquet_ep.two_qubit` -- coupled thermal/unitary pair: propagator,
  concurrence, entropies.
- :mod:`floquet_ep.sweep` -- phase-diagram grids (one array pass) and contour traces.
- :mod:`floquet_ep.args`, :mod:`floquet_ep.cli` -- the ``floquet-ep`` command line:
  its numpy-free front end (flags, validation, ``main``) and its run layer.

Each physics module ``m`` keeps its run-path code in a private kernel module ``_m`` beside it and
re-exports it; a command-line run loads only the kernels.

The names in ``__all__`` load their submodule on first access, so ``import floquet_ep``
alone does not import numpy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "floquet": (
        "FloquetParams",
        "PhaseKind",
        "PhaseLabel",
        "classify_phase",
        "eigenvector_overlap",
        "ep_contour_gamma",
        "floquet_eigenvalues",
        "floquet_hamiltonian",
        "floquet_hamiltonian_on_contour",
        "floquet_operator",
    ),
    "two_qubit": (
        "TwoQubitParams",
        "concurrence",
        "concurrence_closed_form_00",
        "entanglement_timeseries",
        "evolve_density",
        "hamiltonian_two_qubit",
        "propagator_analytic",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
