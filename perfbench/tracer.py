"""Run one floquet-ep command with spans around the calls into each module.

Usage: python tracer.py SPANS_JSON INVOCATION_ID -- ARGV...

Times the import of ``floquet_ep.cli``, wraps the public functions that the
CLI and the modules call (in every module namespace that holds them, since
``from x import f`` copies the name), then calls ``cli.main(ARGV)``.  Spans
stay in memory and are written to SPANS_JSON when the command ends, also
when it raises.  The exit status is that of the command.
"""

from __future__ import annotations

import json
import os
import sys
import time

TRACED = (
    "parse_config",
    "run",
    "compute_heatmap",
    "trace_contours",
    "floquet_hamiltonian",
    "floquet_hamiltonian_on_contour",
    "logm_2x2",
    "eig",
    "evolve_state",
    "entanglement_timeseries",
    "validate_density",
    "evolve_density",
    "concurrence",
    "entropy",
    "make_envelope",
    "render_csv",
    "render_json",
    "write_result",
)


def _n_values(args, result):
    return sum(len(c.values) for c in args[0].columns)


# Work done by one call, read from its arguments or result.
COUNTS = {
    "compute_heatmap": lambda args, result: result.values.size,
    "trace_contours": lambda args, result: sum(len(b.points) for b in result.branches),
    "evolve_state": lambda args, result: len(result.times) - 1,
    "entanglement_timeseries": lambda args, result: len(result),
    "render_csv": _n_values,
    "render_json": _n_values,
    "write_result": lambda args, result: os.path.getsize(result),
}


class Tracer:
    """Spans as [name, start, end, parent index, work count]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name, fn):
        count = COUNTS.get(name)

        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, 0]
            self.spans.append(span)
            self._stack.append(idx)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if count is not None and result is not None:
                    span[4] = count(args, result)

        return traced

    def install(self):
        """Replace each traced function wherever a floquet_ep module binds it."""
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "floquet_ep" and not modname.startswith("floquet_ep."):
                continue
            for name in TRACED:
                fn = getattr(module, name, None)
                if callable(fn) and getattr(fn, "__module__", "").startswith("floquet_ep"):
                    if id(fn) not in wrappers:
                        wrappers[id(fn)] = self.wrap(name, fn)
                    setattr(module, name, wrappers[id(fn)])


def main(argv: list[str]) -> int:
    spans_path, invocation = argv[0], argv[1]
    args = argv[argv.index("--") + 1:]
    start = time.perf_counter()
    import floquet_ep.cli as cli

    import_s = time.perf_counter() - start
    scipy_loaded = "scipy.linalg" in sys.modules
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(args)
    finally:
        doc = {
            "invocation": invocation,
            "import_s": import_s,
            "scipy_loaded": scipy_loaded,
            "spans": tracer.spans,
        }
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
