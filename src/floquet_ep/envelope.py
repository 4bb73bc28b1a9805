"""Result serialization: self-describing CSV/JSON tables.

Every run produces a :class:`ResultEnvelope` carrying the echoed
configuration, unit-annotated columns and build provenance.  CSV output is
locale-independent (``.`` decimal point, ``,`` separator, ``\\n`` newlines)
with floats at 17 significant digits so parsing returns bit-identical
doubles; the metadata travels in ``#``-prefixed comment lines above the
header.  A column is a list, a 1-D array or a row source (slices computed on
request), turned into text a block of rows at a time: a float64 block through
its column's one table of formatted bit patterns (restarted when full), any
other block value by value.  Both formats ask every column for each block once,
in row order: CSV writes the block's rows, JSON spools the block's column texts
to a temporary file and copies them out column by column.  ``SOURCE_DATE_EPOCH``
pins the timestamp.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
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
    """A result column: ``values`` is a list, a 1-D array or a row source (``len``, int and slice indexing and
    iteration; slices are 1-D arrays), encoded a block at a time: float64 through a table, the rest value by value.
    The writers ask each block once, in row order, so the row sources of one group may share a block's pass."""

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
    if not (here.parents[1] / ".git").exists():  # an installed copy: not this package's checkout
        return f"floquet-ep-{__version__}"
    import subprocess  # a source checkout only: an installed copy never loads it

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


def _csv_value(value) -> str:
    return format(value, ".17g") if isinstance(value, float) else str(value)


def _json_value(value) -> str:
    """One ``values`` item as ``json.dumps(doc, indent=2)`` writes it."""
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    return json.dumps(value, indent=2).replace("\n", "\n        ")


#: A float64 column's table restarts once it would hold this many bit patterns.
_TABLE_SIZE = 2048
#: Float-only encoders, each equal to its format's value encoder on a finite float.
_CSV_FLOAT, _JSON_FLOAT = "%.17g".__mod__, float.__repr__


def _float_texts(block, table, enc, fast) -> tuple[list[str], tuple]:
    """Encode a 1-D float64 block through its column's ``table``: None or sorted bit patterns (``0.0`` and
    ``-0.0`` differ, a nan matches itself) and their texts.  The patterns the table lacks are formatted once
    (by ``fast`` if all finite, else ``enc``) and join it; a table that would reach :data:`_TABLE_SIZE`
    restarts from them."""
    import numpy as np  # an array block: the run layer has loaded numpy already

    bits, rows, out = block.view(np.uint64), slice(None), np.empty(len(block), dtype=object)  # rows the table lacks
    if table is not None:
        at = table[0].searchsorted(bits)
        hit = table[0].take(at, mode="clip") == bits
        out = table[1].take(at, mode="clip")
        if hit.all():
            return out.tolist(), table
        rows = np.flatnonzero(~hit)
    s = np.sort(bits[rows])
    keys = s[np.concatenate(([True], s[1:] != s[:-1]))]
    values, texts = keys.view(np.float64), np.empty(len(keys), dtype=object)
    texts[:] = list(map(fast if np.isfinite(values).all() else enc, values.tolist()))
    out[rows] = texts[keys.searchsorted(bits[rows])]
    if table is not None and len(table[0]) + len(keys) < _TABLE_SIZE:
        order = np.concatenate((table[0], keys)).argsort(kind="stable")  # two sorted runs: one merge pass
        keys, texts = np.concatenate((table[0], keys))[order], np.concatenate((table[1], texts))[order]
    return out.tolist(), (keys, texts)


def _blocks(columns: list[Column], enc, fast):
    """Each column's texts for each block of :data:`_BLOCK_ROWS` rows, one at a time: a block of every column, then
    the next block, so each source is asked for each block once.  A 1-D float64 block, of an array or a row source,
    goes through its column's :func:`_float_texts` table; any other block value by value."""
    tables = [None] * len(columns)
    for i in range(0, len(columns[0].values) if columns else 0, _BLOCK_ROWS):
        for c, col in enumerate(columns):
            block = col.values[i : i + _BLOCK_ROWS]
            if hasattr(block, "dtype") and block.ndim == 1 and block.dtype == "float64":
                texts, tables[c] = _float_texts(block, tables[c], enc, fast)
                yield texts
            else:
                yield list(map(enc, block.tolist() if hasattr(block, "dtype") else block))


def _csv_chunks(envelope: ResultEnvelope):
    cfg, prov = envelope.config, envelope.provenance
    yield (f"# schema_version: {envelope.schema_version}\n# command: {cfg.command}\n"
           f"# parameters: {json.dumps(cfg.parameters, sort_keys=True)}\n# seed: {cfg.seed}\n"
           f"# build: {prov.get('build', '')}\n# timestamp: {prov.get('timestamp', '')}\n"
           + ",".join(c.header() for c in envelope.columns) + "\n")
    for cols in zip(*[_blocks(envelope.columns, _csv_value, _CSV_FLOAT)] * len(envelope.columns)):  # a block's columns
        yield "\n".join(map(",".join, zip(*cols))) + "\n"


def _json_chunks(envelope: ResultEnvelope):
    """``json.dumps(doc, indent=2)`` of the document: the skeleton once, each column's ``values`` in its
    place.  The blocks are encoded in the CSV writer's row order into one unnamed temporary file (in
    ``TMPDIR``, about the output's size), with an offset per block, and copied out column by column."""
    from array import array  # JSON only

    doc = {"schema_version": envelope.schema_version, "config": envelope.config.echo(), "columns": [],
           "provenance": envelope.provenance}
    # Split only at keys: an encoded string holds no raw newline and no bare quote.
    head, tail = (json.dumps(doc, indent=2) + "\n").split('\n  "columns": []')
    skeleton = [{"name": c.name, "unit": c.unit, "values": []} for c in envelope.columns]
    pieces = json.dumps(skeleton, indent=2).replace("\n", "\n  ").split('"values": []')
    with tempfile.TemporaryFile() as spool:
        yield head + '\n  "columns": ' + pieces[0]  # data-independent: the spool exists before the file opens
        cols, ends = envelope.columns, array("q", [0])  # block k of column c spans ends[k * len(cols) + c : ... + 2]
        for at, items in enumerate(_blocks(cols, _json_value, _JSON_FLOAT)):
            text = ("," if at >= len(cols) else '"values": [') + "\n        " + ",\n        ".join(items)
            ends.append(ends[-1] + spool.write(text.encode()))
        for c, (col, piece) in enumerate(zip(cols, pieces[1:])):
            for at in range(c, len(ends) - 1, len(cols)):
                spool.seek(ends[at])
                yield spool.read(ends[at + 1] - ends[at]).decode()
            yield ("\n      ]" if len(col.values) else '"values": []') + piece
    yield tail


def render_csv(envelope: ResultEnvelope) -> str:
    return "".join(_csv_chunks(envelope))


def render_json(envelope: ResultEnvelope) -> str:
    return "".join(_json_chunks(envelope))


def write_result(envelope: ResultEnvelope) -> Path:
    """Serialize to the configured path block by block, never holding the whole text.  The first chunk comes before
    the file opens (JSON's spool is made by then); I/O errors propagate (the CLI maps them to exit status 1)."""
    chunks = (_csv_chunks if envelope.config.format == "csv" else _json_chunks)(envelope)
    first, path = next(chunks), Path(envelope.config.output_path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(first)
        fh.writelines(chunks)
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
