"""Result serialization: self-describing CSV/JSON tables.

Every run produces a :class:`ResultEnvelope` carrying the echoed
configuration, unit-annotated columns and build provenance.  CSV output is
locale-independent (``.`` decimal point, ``,`` separator, ``\\n`` newlines)
with floats at 17 significant digits so parsing returns bit-identical
doubles; the metadata travels in ``#``-prefixed comment lines above the
header.  A column is a list or a 1-D array, turned into Python values one
block of rows at a time; a float array column formats each distinct value
once and its blocks look the text up.  Setting ``SOURCE_DATE_EPOCH`` pins
the timestamp for reproducible output files.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

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
    """A result column: ``values`` is a list or a 1-D array, converted one
    block at a time; a float array formats each distinct value once."""

    name: str
    unit: str
    values: Sequence

    def header(self) -> str:
        return f"{self.name} [{self.unit}]" if self.unit else self.name


@dataclass
class RunConfig:
    """Fully validated run request: one command, its parameter map, and
    where/how to write the result; ``output_path`` never enters the
    serialized result."""

    command: str
    parameters: dict
    output_path: str
    format: str = "csv"
    seed: int | None = None

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


#: Rows per block: enough to amortize the per-block calls, and few enough to keep a block small.
_BLOCK_ROWS = 1024

_MEMO_TYPES = ({float}, {int}, {bool}, {str}, {type(None)})


def _csv_value(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _json_value(value) -> str:
    """One ``values`` item as ``json.dumps(doc, indent=2)`` writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", "\n        ")


def _encode(block, enc) -> list[str]:
    """``enc`` over one column block, once per distinct value if the block
    repeats values of one type of :data:`_MEMO_TYPES` and holds no zero:
    ``1``, ``1.0`` and ``True`` are equal but print differently, as are ``0.0`` and ``-0.0``."""
    memo = dict.fromkeys(block) if set(map(type, block)) in _MEMO_TYPES else {}
    if len(memo) in (0, len(block)) or 0.0 in memo:
        return list(map(enc, block))
    for value in memo:
        memo[value] = enc(value)
    return list(map(memo.__getitem__, block))


#: A float array column is tabled when at most this share of its rows is distinct:
#: a table of all-distinct values would hold one string per row.
_TABLE_SHARE = 0.5
#: Float-only encoders, each equal to its format's value encoder on a finite float.
_CSV_FLOAT, _JSON_FLOAT = "%.17g".__mod__, float.__repr__


def _column_blocks(values, enc, fast):
    """One column's encoded values per block of :data:`_BLOCK_ROWS` rows.

    A list goes through :func:`_encode`, as does an array other than 1-D
    native float64 (via ``tolist``).  A float64 column formats each distinct
    bit pattern once (``0.0`` and ``-0.0`` differ, a nan matches itself)
    into a table that its blocks index, or, when most rows are distinct,
    maps ``fast`` over each block if every value is finite, else ``enc``."""
    blocks = (values[i:i + _BLOCK_ROWS] for i in range(0, len(values), _BLOCK_ROWS))
    if not hasattr(values, "tolist"):
        return (_encode(b, enc) for b in blocks)
    import numpy as np  # an array column: the run layer has loaded numpy already

    if values.ndim != 1 or values.dtype != np.float64:
        return (_encode(b.tolist(), enc) for b in blocks)
    uniq = np.sort(values.view(np.uint64))  # not np.unique: about 20x slower here on numpy 2.4
    keep = np.ones(len(uniq), dtype=bool)
    keep[1:] = uniq[1:] != uniq[:-1]
    uniq = uniq[keep]
    if len(uniq) > _TABLE_SHARE * len(values):
        enc = fast if np.isfinite(values).all() else enc
        return (list(map(enc, b.tolist())) for b in blocks)
    table = np.array(list(map(enc, uniq.view(np.float64).tolist())), dtype=object)
    return (table[np.searchsorted(uniq, b.view(np.uint64))].tolist() for b in blocks)


def _csv_chunks(envelope: ResultEnvelope):
    cfg, prov = envelope.config, envelope.provenance
    yield (f"# schema_version: {envelope.schema_version}\n# command: {cfg.command}\n"
           f"# parameters: {json.dumps(cfg.parameters, sort_keys=True)}\n# seed: {cfg.seed}\n"
           f"# build: {prov.get('build', '')}\n# timestamp: {prov.get('timestamp', '')}\n"
           + ",".join(c.header() for c in envelope.columns) + "\n")
    for cols in zip(*(_column_blocks(c.values, _csv_value, _CSV_FLOAT) for c in envelope.columns)):
        yield "\n".join(map(",".join, zip(*cols))) + "\n"


def _json_chunks(envelope: ResultEnvelope):
    """``json.dumps(doc, indent=2)`` of the document: the skeleton once, each
    column's ``values`` streamed in blocks into its place."""
    doc = {"schema_version": envelope.schema_version, "config": envelope.config.echo(), "columns": [],
           "provenance": envelope.provenance}
    # Split only at keys: an encoded string holds no raw newline and no bare quote.
    head, tail = (json.dumps(doc, indent=2) + "\n").split('\n  "columns": []')
    skeleton = [{"name": c.name, "unit": c.unit, "values": []} for c in envelope.columns]
    pieces = json.dumps(skeleton, indent=2).replace("\n", "\n  ").split('"values": []')
    yield head + '\n  "columns": ' + pieces[0]
    for c, piece in zip(envelope.columns, pieces[1:]):
        for k, items in enumerate(_column_blocks(c.values, _json_value, _JSON_FLOAT)):
            yield ("," if k else '"values": [') + "\n        " + ",\n        ".join(items)
        yield ("\n      ]" if len(c.values) else '"values": []') + piece
    yield tail


def render_csv(envelope: ResultEnvelope) -> str:
    return "".join(_csv_chunks(envelope))


def render_json(envelope: ResultEnvelope) -> str:
    return "".join(_json_chunks(envelope))


def write_result(envelope: ResultEnvelope) -> Path:
    """Serialize to the configured path block by block, never holding the
    whole text; I/O errors propagate (the CLI maps them to exit status 1)."""
    path = Path(envelope.config.output_path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.writelines((_csv_chunks if envelope.config.format == "csv" else _json_chunks)(envelope))
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
