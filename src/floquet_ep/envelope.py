"""Result serialization: self-describing CSV/JSON tables.

Every run produces a :class:`ResultEnvelope` carrying the echoed configuration, unit-annotated columns and build
provenance.  CSV output is locale-independent (``.`` decimal point, ``,`` separator, ``\\n`` newlines) with floats at
17 significant digits so parsing returns bit-identical doubles; the metadata travels in ``#``-prefixed comment lines
above the header.  A column is a list, a 1-D array or a row source (slices computed on request), written a block of
rows at a time.  A float64 block stays raw when its values are all distinct, finite and new to its column's table and
the column is not declared to repeat (a phase map's axes); CSV writes a block with raw columns by one ``%`` over a row
template, JSON each raw column block by one ``%r`` template.  Any other float64 block goes through its column's table
of formatted bit patterns, which keeps only what recurs unless the column repeats.  So each float is formatted as a
table's miss or in a template's fill.  A CSV block of ``str`` is its own text; any other value is encoded on its own.
Both formats ask every column for each block once, in row order: CSV writes the block's rows, JSON spools the block's
column texts to a temporary file and copies them out column by column.  ``SOURCE_DATE_EPOCH`` pins the timestamp.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain, groupby
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from . import __version__

__all__ = ["SCHEMA_VERSION", "Column", "RunConfig", "ResultEnvelope", "make_envelope", "render_csv", "render_json",
           "write_result", "parse_csv"]

SCHEMA_VERSION = 1

FORMATS = ("csv", "json")


@dataclass
class Column:
    """A result column: ``values`` is a list, a 1-D array or a row source (``len``, int and slice indexing and
    iteration; slices are 1-D arrays), encoded a block at a time: float64 raw when all distinct and new, else through
    a table; the rest value by value.  ``repeats`` (a runner sets it through ``cli._group``) declares that the values
    recur across blocks: the column's table keeps every value, so each is formatted once, and no block goes raw.  The
    writers ask each block once, in row order, so the row sources of one group may share a block's pass."""

    name: str
    unit: str
    values: Sequence
    repeats: bool = False

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
        return {key: getattr(self, key) for key in ("command", "parameters", "format", "seed")}


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
#: The one ``%`` that fills a template of raw floats: every float that skips the tables is formatted here.
_FILL = str.__mod__


def _float_texts(block, tables, c, enc, fast, repeats):
    """A 1-D float64 block as itself (raw) if its column does not declare ``repeats`` and its values are all distinct,
    finite and new to the column's table ``tables[c]``: None or sorted bit patterns (``0.0`` and ``-0.0`` differ, a
    nan matches itself) and their texts.  Else as texts: the patterns the table lacks are formatted once (by ``fast``
    if all finite, else ``enc``).  A ``repeats`` column's table keeps them all; any other keeps only what recurs, the
    patterns it served in this block and the block's repeats.  A table that would reach :data:`_TABLE_SIZE` restarts."""
    import numpy as np  # an array block: the run layer has loaded numpy already

    bits, rows, out, table = block.view(np.uint64), slice(None), np.empty(len(block), dtype=object), tables[c]
    if table is not None:
        at = table[0].searchsorted(bits)
        hit = table[0].take(at, mode="clip") == bits
        out = table[1].take(at, mode="clip")
        if hit.all():
            return out.tolist()
        rows = np.flatnonzero(~hit)  # the rows the table lacks
    s = np.sort(bits[rows])
    new = np.concatenate(([True], s[1:] != s[:-1]))
    if not repeats and len(s) == len(bits) and new.all() and np.isfinite(block).all():
        return block
    keys = s[new]
    values, texts = keys.view(np.float64), np.empty(len(keys), dtype=object)
    texts[:] = list(map(fast if np.isfinite(values).all() else enc, values.tolist()))
    out[rows] = texts[keys.searchsorted(bits[rows])]
    if not repeats:
        keep = ~np.concatenate((new[1:], [True]))[new]  # a run of two or more equal patterns
        keys, texts = keys[keep], texts[keep]
        if table is not None:
            served = np.zeros(len(table[0]), dtype=bool)
            served[at[hit]] = True
            table = table[0][served], table[1][served]
    if table is not None and len(table[0]) + len(keys) < _TABLE_SIZE:
        order = np.concatenate((table[0], keys)).argsort(kind="stable")  # two sorted runs: one merge pass
        keys, texts = np.concatenate((table[0], keys))[order], np.concatenate((table[1], texts))[order]
    tables[c] = (keys, texts) if len(keys) else None
    return out.tolist()


def _blocks(columns: list[Column], enc, fast, csv: bool):
    """Each column's block of :data:`_BLOCK_ROWS` rows, one at a time: a block of every column, then the next block,
    so each source is asked for each block once.  A 1-D float64 block goes through :func:`_float_texts` (texts or raw
    floats); a CSV block of ``str`` is its own text; any other block is encoded value by value."""
    tables = [None] * len(columns)
    for i in range(0, len(columns[0].values) if columns else 0, _BLOCK_ROWS):
        for c, col in enumerate(columns):
            block = col.values[i : i + _BLOCK_ROWS]
            if hasattr(block, "dtype") and block.ndim == 1 and block.dtype == "float64":
                yield _float_texts(block, tables, c, enc, fast, col.repeats)  # bound to no name, so the writer frees it
            else:
                block = block.tolist() if hasattr(block, "dtype") else block
                yield block if csv and set(map(type, block)) == {str} else list(map(enc, block))


def _csv_chunks(envelope: ResultEnvelope):
    cfg, prov = envelope.config, envelope.provenance
    yield (f"# schema_version: {envelope.schema_version}\n# command: {cfg.command}\n"
           f"# parameters: {json.dumps(cfg.parameters, sort_keys=True)}\n# seed: {cfg.seed}\n"
           f"# build: {prov.get('build', '')}\n# timestamp: {prov.get('timestamp', '')}\n"
           + ",".join(c.header() for c in envelope.columns) + "\n")
    blocks, n = _blocks(envelope.columns, _csv_value, _CSV_FLOAT, True), len(envelope.columns)
    for _ in range(0, len(envelope.columns[0].values) if n else 0, _BLOCK_ROWS):
        yield _csv_rows([next(blocks) for _ in range(n)])  # a block's columns, held by _csv_rows alone


def _csv_rows(cols: list) -> str:
    """A block's rows from its columns: texts or raw floats (arrays).  Texts alone are joined.  Else each run of text
    columns is joined row by row, then ``cols`` is emptied so that the texts go before one ``%`` fills a row template:
    a ``%.17g`` slot per raw column and a ``%s`` per run."""
    if not any(hasattr(c, "dtype") for c in cols):
        return "\n".join(map(",".join, zip(*cols))) + "\n"
    slots, parts, n = [], [], len(cols[0])
    for raw, run in groupby(cols, lambda c: hasattr(c, "dtype")):
        slots += ["%.17g"] * len(run := list(run)) if raw else ["%s"]
        parts += [c.tolist() for c in run] if raw else [list(map(",".join, zip(*run)))]
    del run, cols[:]
    return _FILL((",".join(slots) + "\n") * n, tuple(chain.from_iterable(zip(*parts))))


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
        for at, items in enumerate(_blocks(cols, _json_value, _JSON_FLOAT, False)):
            text = (",\n        " + ",\n        ".join(items) if not hasattr(items, "dtype")  # else raw: repr is JSON's
                    else _FILL(",\n        %r" * len(items), tuple(items.tolist())))
            ends.append(ends[-1] + spool.write((text if at >= len(cols) else '"values": [' + text[1:]).encode()))
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
