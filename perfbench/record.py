"""Record the preset row samples that checks.py matches outputs against.

    python3 perfbench/record.py

Runs every figure preset once and rewrites reference.json.  Re-record only
when a change to the outputs is intended and explained; an ulp-level change
passes the stated tolerance without re-recording.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import json  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    env = run.child_env()
    samples = {}
    with run.scratch_dir() as workdir:
        for name in workloads.PRESETS:
            inv = workloads.preset_call(name)
            rc, *_ = run.spawn([sys.executable, "-m", "floquet_ep", *inv.argv], workdir, env, workdir / "log")
            if rc != 0:
                print(f"error: preset {name} exited with status {rc}", file=sys.stderr)
                return 1
            checks.CHECKS[inv.command](inv.params, checks.read_table(workdir / inv.output, inv.fmt))
            samples[name] = checks.record_sample(inv, workdir / inv.output)
    checks.REFERENCE.write_text(json.dumps(samples, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE} ({len(samples)} presets)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
