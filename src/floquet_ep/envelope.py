"""Result serialization: self-describing CSV/JSON tables.

Every run produces a :class:`ResultEnvelope` carrying the echoed
configuration, unit-annotated columns and build provenance.  CSV output is
locale-independent (``.`` decimal point, ``,`` separator, ``\\n`` newlines)
with floats at 17 significant digits so parsing returns bit-identical
doubles; the metadata travels in ``#``-prefixed comment lines above the
header.  Setting ``SOURCE_DATE_EPOCH`` pins the timestamp for reproducible
output files.
"""

from __future__ import annotations

import json
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import __version__

__all__ = [
    "SCHEMA_VERSION",
    "Column",
    "RunConfig",
    "ResultEnvelope",
    "make_envelope",
    "render_csv",
    "render_json",
    "write_result",
    "parse_csv",
]

SCHEMA_VERSION = 1

FORMATS = ("csv", "json")


@dataclass
class Column:
    name: str
    unit: str
    values: list

    def header(self) -> str:
        return f"{self.name} [{self.unit}]" if self.unit else self.name


@dataclass
class RunConfig:
    """Fully validated run request: one command, its parameter map, and
    where/how to write the result.

    ``workers`` is accepted for the phase diagram and validated (>= 1), but
    the heat map is one array pass, so it changes nothing; it never enters
    the serialized result, which is identical for any worker count.  The
    same goes for ``output_path``.
    """

    command: str
    parameters: dict
    output_path: str
    format: str = "csv"
    seed: int | None = None
    workers: int | None = None

    def __post_init__(self):
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")

    def echo(self) -> dict:
        """The part of the configuration that determines the result."""
        return {
            "command": self.command,
            "parameters": self.parameters,
            "format": self.format,
            "seed": self.seed,
        }


@dataclass
class ResultEnvelope:
    config: RunConfig
    columns: list[Column]
    provenance: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        lengths = {len(c.values) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError(f"columns must have equal lengths, got {sorted(lengths)}")


def _build_id() -> str:
    here = Path(__file__).resolve().parent
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0 and out.stdout.strip():
            return f"floquet-ep-{__version__}+g{out.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return f"floquet-ep-{__version__}"


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is not None:
        dt = datetime.fromtimestamp(int(epoch), tz=timezone.utc)
    else:
        dt = datetime.now(tz=timezone.utc)
    return dt.isoformat(timespec="seconds")


def make_envelope(config: RunConfig, columns: list[Column]) -> ResultEnvelope:
    return ResultEnvelope(
        config=config,
        columns=columns,
        provenance={"build": _build_id(), "timestamp": _timestamp()},
    )


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def render_csv(envelope: ResultEnvelope) -> str:
    lines = [
        f"# schema_version: {envelope.schema_version}",
        f"# command: {envelope.config.command}",
        f"# parameters: {json.dumps(envelope.config.parameters, sort_keys=True)}",
        f"# seed: {envelope.config.seed}",
        f"# build: {envelope.provenance.get('build', '')}",
        f"# timestamp: {envelope.provenance.get('timestamp', '')}",
        ",".join(c.header() for c in envelope.columns),
    ]
    n_rows = len(envelope.columns[0].values) if envelope.columns else 0
    for i in range(n_rows):
        lines.append(",".join(_fmt(c.values[i]) for c in envelope.columns))
    return "\n".join(lines) + "\n"


def render_json(envelope: ResultEnvelope) -> str:
    doc = {
        "schema_version": envelope.schema_version,
        "config": envelope.config.echo(),
        "columns": [
            {"name": c.name, "unit": c.unit, "values": list(c.values)} for c in envelope.columns
        ],
        "provenance": envelope.provenance,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def write_result(envelope: ResultEnvelope) -> Path:
    """Serialize to the configured path; I/O errors propagate to the caller
    (the CLI maps them to exit status 1)."""
    path = Path(envelope.config.output_path)
    text = render_csv(envelope) if envelope.config.format == "csv" else render_json(envelope)
    path.write_text(text, encoding="utf-8", newline="")
    return path


def parse_csv(text: str) -> tuple[list[str], list[list]]:
    """Inverse of :func:`render_csv` for the data table.

    Comment lines are skipped; each column comes back as floats when every
    cell parses as one (bit-identical to what was written), otherwise as raw
    strings.  Returns (headers, columns).
    """
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not rows:
        raise ValueError("no header row found")
    headers = rows[0].split(",")
    cells = [line.split(",") for line in rows[1:]]
    columns: list[list] = [[] for _ in headers]
    for row in cells:
        if len(row) != len(headers):
            raise ValueError("ragged CSV row")
        for j, cell in enumerate(row):
            columns[j].append(cell)
    parsed = []
    for col in columns:
        try:
            parsed.append([float(c) for c in col])
        except ValueError:
            parsed.append(col)
    return headers, parsed
