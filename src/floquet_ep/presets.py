"""Named run presets that reproduce the reference figure panels.

Each preset names a command and the parameters in which its panel differs
from that command's defaults.  :func:`figure_preset` resolves it through the
same path as the command line, writing ``<name>.csv`` unless the output path
or format is overridden there.
"""

from __future__ import annotations

__all__ = ["figure_preset", "PRESETS", "PRESET_NAMES"]

_FIG3CD = {"gamma": [0.75, 1.0, 1.25], "t_max": 25.0, "steps": 1000}
_FIG3EF = {"j": 1.0, "gamma": [1.5], "kx": [0.0, 1.5, 1.6], "t_max": 40.0, "steps": 1200}

#: name -> (command, parameter overrides)
PRESETS = {
    "fig1b": ("phase-diagram", {}),
    # frequency window covering the first five resonances and their nodes
    "fig1c": ("ep-contour", {"samples": 4000}),
    "fig2a": ("bloch-traj", {}),
    "fig2b": ("bloch-traj", {"gamma_ratio": 1.25, "periods": 200}),
    "fig3c": ("two-qubit", _FIG3CD),
    "fig3d": ("two-qubit", {**_FIG3CD, "init": "bell"}),
    "fig3e": ("two-qubit", {**_FIG3EF, "init": "mixed"}),
    "fig3f": ("two-qubit", {**_FIG3EF, "init": "correlated"}),
}

PRESET_NAMES = tuple(sorted(PRESETS))


def figure_preset(name: str):
    """Fully resolved :class:`~floquet_ep.envelope.RunConfig` for a named figure panel; unknown
    names raise ValueError (the CLI turns that into a usage error)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    from .args import parse_config  # deferred: args imports this module

    return parse_config(["preset", name])
