"""Simulations of qubits alternating between unitary and thermal dynamics.

Core surfaces:

- :mod:`floquet_ep.linalg` -- exact 2x2/4x4 complex linear algebra.
- :mod:`floquet_ep.floquet` -- single-qubit one-period maps, PT phases,
  exceptional contours and effective generators.
- :mod:`floquet_ep.bloch` -- post-selected Bloch-sphere trajectories.
- :mod:`floquet_ep.two_qubit` -- coupled thermal/unitary pair: propagator,
  concurrence, entropies.
- :mod:`floquet_ep.sweep` -- phase-diagram grids (one array pass) and contour traces.
- :mod:`floquet_ep.cli` -- the ``floquet-ep`` command-line front end.
"""

__version__ = "0.1.0"

from .floquet import (  # noqa: E402
    FloquetParams,
    PhaseKind,
    PhaseLabel,
    classify_phase,
    eigenvector_overlap,
    ep_contour_gamma,
    floquet_eigenvalues,
    floquet_hamiltonian,
    floquet_hamiltonian_on_contour,
    floquet_operator,
)
from .two_qubit import (  # noqa: E402
    TwoQubitParams,
    concurrence,
    concurrence_closed_form_00,
    entanglement_timeseries,
    evolve_density,
    hamiltonian_two_qubit,
    propagator_analytic,
)

__all__ = [
    "__version__",
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
    "TwoQubitParams",
    "concurrence",
    "concurrence_closed_form_00",
    "entanglement_timeseries",
    "evolve_density",
    "hamiltonian_two_qubit",
    "propagator_analytic",
]
