"""Self-test of the output checks: a corrupted value and a truncated file are caught.

    python3 perfbench/selftest.py

Runs two small invocations and confirms that their outputs pass the checks.
Then it confirms that each of two edits makes the checks fail: changing one
value by one part in a million, and cutting the file after a whole row.
Exit status 0 when all hold.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

# (invocation, row to corrupt, column to corrupt)
CASES = (
    (workloads.cli_call("pair", "two-qubit", {"gamma": [0.8], "kx": [1.0], "t_max": 10.0, "steps": 50}),
     10, "concurrence"),
    (workloads.preset_call("fig2a"), 1280, "phi"),
)


def corrupt(text: str, row: int, column: str) -> str:
    """Scale one CSV cell by (1 + 1e-6)."""
    lines = text.split("\n")
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = [h.split(" [")[0] for h in lines[header].split(",")].index(column)
    cells = lines[header + 1 + row].split(",")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[header + 1 + row] = ",".join(cells)
    return "\n".join(lines)


def caught(inv, path: Path, reference: dict) -> str | None:
    try:
        checks.check_output(inv, path, reference)
    except checks.CheckError as exc:
        return str(exc)
    return None


def main() -> int:
    reference = checks.load_reference()
    failures = 0
    with run.scratch_dir() as workdir:
        for inv, row, column in CASES:
            rc, *_ = run.spawn([sys.executable, "-m", "floquet_ep", *inv.argv], workdir, run.child_env(),
                               workdir / "log")
            out = workdir / inv.output
            text = out.read_text(encoding="utf-8") if rc == 0 else ""
            error = caught(inv, out, reference)
            results = [("original passes", error is None, error)]
            cut = text.rindex("\n", 0, len(text) * 3 // 5) + 1  # drop the last 40% of the rows
            for what, bad_text in (("corrupted value caught", corrupt(text, row, column)),
                                   ("truncated file caught", text[:cut])):
                out.write_text(bad_text, encoding="utf-8")
                error = caught(inv, out, reference)
                results.append((what, error is not None, error))
            for what, ok, error in results:
                print(f"{'ok  ' if ok else 'FAIL'} {inv.key}: {what}" + (f" ({error})" if error else ""))
                failures += not ok
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
