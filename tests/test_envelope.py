"""The block-streamed result encoder against the row-wise renderers it
replaced, which are kept here as the oracle: every output must be
byte-identical to theirs."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floquet_ep.cli import parse_config, run
from floquet_ep.envelope import (
    _BLOCK_ROWS,
    _CSV_FLOAT,
    _csv_value,
    Column,
    RunConfig,
    ResultEnvelope,
    make_envelope,
    render_csv,
    render_json,
    write_result,
)


def _oracle_fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def oracle_csv(envelope) -> str:
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
        lines.append(",".join(_oracle_fmt(c.values[i]) for c in envelope.columns))
    return "\n".join(lines) + "\n"


def oracle_json(envelope) -> str:
    doc = {
        "schema_version": envelope.schema_version,
        "config": envelope.config.echo(),
        "columns": [
            {"name": c.name, "unit": c.unit, "values": list(c.values)} for c in envelope.columns
        ],
        "provenance": envelope.provenance,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def _env(columns, fmt="csv", path="out.csv", parameters=None):
    cfg = RunConfig(command="two-qubit", parameters=parameters or {"j": 0.5}, output_path=path, format=fmt)
    return make_envelope(cfg, columns)


def _assert_as_oracle(env):
    assert render_csv(env) == oracle_csv(env)
    assert render_json(env) == oracle_json(env)


def _heat_map_columns(n_rows):
    return [
        Column("gamma_ratio", "dimensionless", [0.01 * (i // 400) for i in range(n_rows)]),
        Column("omega_ratio", "dimensionless", [0.1 + 0.0075 * (i % 400) for i in range(n_rows)]),
        Column("value", "dimensionless", [1.0 / (i + 3) for i in range(n_rows)]),
        Column("tag", "tag", ["unitary" if i % 3 else "thermal" for i in range(n_rows)]),
    ]


NAN, INF = float("nan"), float("inf")


class TestBlockEncoder:
    def test_no_columns(self):
        _assert_as_oracle(_env([]))

    @pytest.mark.parametrize("n_rows", [0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1])
    def test_row_counts_around_a_block(self, n_rows):
        _assert_as_oracle(_env(_heat_map_columns(n_rows)))

    @pytest.mark.parametrize(
        "values",
        [
            # one type per column, repeated, so the block memo is in play
            [-0.0, 0.0, 1.5, -0.0, 0.0, 1.5, NAN, NAN, INF, -INF, INF, 5e-324, 5e-324, -5e-324],
            [0.0, 2.5, 0.0, 2.5],
            [-0.0, 2.5, -0.0, 2.5],
            [1, 1, 0, -7, 10**30, 10**30],
            [True, False, True],
            [True, True],
            [None, None],
            ['say "hi"', "naïve ✓", 'say "hi"', "", "\\", "a,b\n", "naïve ✓"],
            # equal values that print differently, side by side
            [1, 1.0, True, 1, 1.0, True, 0, 0.0, -0.0, False, 0, -0.0, None, "1", 5e-324, NAN, -INF],
            [1, 1.0, True, 1, 1.0, True, "1", 2, 2.0],
        ],
    )
    def test_edge_values_in_one_block(self, values):
        _assert_as_oracle(_env([Column("v", "", values), Column("i", "index", list(range(len(values))))]))

    def test_names_units_and_parameters_that_look_like_the_skeleton(self):
        params = {"columns": [], "values": [], "nested": {"values": []}}
        cols = [Column('"values": []', "é", [1.0, 2.0]), Column("columns", '\n  "columns": []', [3.0, 4.0])]
        _assert_as_oracle(_env(cols, parameters=params))

    def test_nested_json_values(self):
        _assert_as_oracle(_env([Column("v", "", [[1, [2.5, {"a": None}]], {"k": [1]}, [], 0.5])]))

    @pytest.mark.parametrize(
        "argv",
        [
            ["phase-diagram", "--grid", "40x30", "--quantity", "phase"],
            ["phase-diagram", "--grid", "30x40"],
            ["bloch-traj", "--periods", "3", "--substeps", "8"],
            ["two-qubit", "--gamma", "0.5", "--gamma", "1", "--t-max", "2", "--steps", "20"],
            ["ep-contour", "--samples", "50"],
            ["floquet-ham", "--omega-count", "5", "--omega-max", "3"],
        ],
    )
    def test_cli_results(self, argv):
        _assert_as_oracle(run(parse_config(argv)))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_result_file_equals_render(self, fmt, tmp_path):
        path = tmp_path / f"out.{fmt}"
        cols = _heat_map_columns(2 * _BLOCK_ROWS + 5)
        cols[3].values[7] = "naïve ✓"
        env = _env(cols, fmt=fmt, path=str(path))
        assert write_result(env) == path
        text = render_csv(env) if fmt == "csv" else render_json(env)
        assert path.read_bytes() == text.encode("utf-8")
        assert text == (oracle_csv if fmt == "csv" else oracle_json)(env)


_KINDS = {
    "float": st.floats(),
    "zero": st.sampled_from([0.0, -0.0, 1.0]),
    "one": st.sampled_from([1, 1.0, True]),
    "int": st.integers(min_value=-(10**20), max_value=10**20),
    "bool": st.booleans(),
    "none": st.none(),
    "text": st.text(max_size=6),
    "mixed": st.one_of(st.floats(), st.integers(-3, 3), st.booleans(), st.none(), st.text(max_size=3),
                       st.lists(st.integers(-2, 2), max_size=2)),
}


@st.composite
def _columns(draw):
    """Up to 4 columns over a row count that may cross block edges; each
    column cycles through a small pool, so blocks hold repeats."""
    n_rows = draw(st.sampled_from([0, 1, 5, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 3]))
    columns = []
    for j in range(draw(st.integers(0, 4))):
        pool = draw(st.lists(_KINDS[draw(st.sampled_from(sorted(_KINDS)))], min_size=1, max_size=6))
        stride = draw(st.integers(1, 7))
        columns.append(Column(f"c{j}", "", [pool[(i // stride) % len(pool)] for i in range(n_rows)]))
    return columns


@settings(max_examples=40, deadline=None)
@given(_columns())
def test_mixed_columns_encode_as_the_row_wise_oracle(columns):
    _assert_as_oracle(_env(columns))


@st.composite
def _float_arrays(draw):
    """A float64 column at a row count around the block edges: either cycled
    from a small pool (blocks repeat values, so the memo is taken) or
    distinct seeded normals at a drawn scale; either holds drawn signed
    zeros, infinities and nans.  Sometimes a strided view, as a row of a
    transposed array is."""
    n_rows = draw(st.sampled_from([0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]))
    special = st.sampled_from([0.0, -0.0, INF, -INF, NAN, 1.0, 5e-324])
    if draw(st.booleans()):
        pool = draw(st.lists(st.floats() | special, min_size=1, max_size=6))
        stride = draw(st.integers(1, 7))
        arr = np.array([pool[(i // stride) % len(pool)] for i in range(n_rows)], dtype=float)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        arr = rng.standard_normal(n_rows) * 10.0 ** draw(st.integers(-300, 300))
        for _ in range(draw(st.integers(0, 5)) if n_rows else 0):
            arr[draw(st.integers(0, n_rows - 1))] = draw(special)
    return np.column_stack([arr, -arr]).T[0] if draw(st.booleans()) else arr


def _nan(payload):
    return np.array([payload], dtype=np.uint64).view(np.float64)[0]


def _half_distinct(n_rows, extra):
    """``n_rows // 2 + extra`` distinct values, the rest repeats of the first."""
    arr = np.zeros(n_rows)
    arr[: n_rows // 2 + extra] = np.arange(n_rows // 2 + extra) * 0.1
    return arr


_EDGE_ARRAYS = {
    "big_endian_repeats": np.array([1.5, 1.5, 2.0, 2.0] * 300, dtype=">f8"),
    "big_endian_distinct": np.arange(1025, dtype=">f8") / 7,
    "float32_repeats": np.tile(np.array([0.1, -0.0, 2.5], dtype=np.float32), 400),
    "float32_distinct": np.arange(1025, dtype=np.float32) / 7,
    "int64_repeats": np.repeat(np.arange(-3, 3, dtype=np.int64), 200),
    "int64_distinct": np.arange(1025, dtype=np.int64) * 10**15,
    "two_d_repeats": np.repeat(np.array([[0.5, -0.0], [1.0, 2.0]]), 600, axis=0),
    "two_d_distinct": np.arange(2050.0).reshape(1025, 2) / 3,
    "nan_payloads": np.tile([_nan(0x7FF8000000000000), _nan(0x7FF8000000000001), _nan(0xFFF8000000000000),
                             1.0, -0.0, 0.0, np.inf], 300),
    "exactly_half_distinct": _half_distinct(1024, 0),
    "half_plus_one_distinct": _half_distinct(1024, 1),
    "odd_half_distinct": _half_distinct(1025, 0),
    "odd_half_plus_one_distinct": _half_distinct(1025, 1),
    "one_nan_among_finite": np.where(np.arange(1025) == 700, np.nan, np.linspace(-1.0, 1.0, 1025)),
    "one_inf_among_repeats": np.where(np.arange(1025) == 3, -np.inf, np.arange(1025) % 4 * 0.25),
    **{f"length_{n}_{kind}": arr for n in (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1)
       for kind, arr in (("repeats", np.arange(n) % 5 / 3), ("distinct", np.arange(n) / 3 - 1.0))},
}


def _edge_examples(test):
    """Run ``test`` on every array of :data:`_EDGE_ARRAYS`, with and without the text column."""
    for arr in _EDGE_ARRAYS.values():
        test = example(arr, False)(example(arr, True)(test))
    return test


@settings(max_examples=40, deadline=None)
@given(_float_arrays(), st.booleans())
@_edge_examples
def test_array_column_encodes_as_its_list(arr, with_text):
    """An array column and its ``tolist`` give the same bytes, also beside a
    column of strings; the edge examples add other dtypes and shapes, nan
    payloads, either side of the half-distinct table rule and row counts
    around a block."""
    tags = [("unitary", "thermal")[i % 3 == 0] for i in range(len(arr))]

    def envelope(values):
        cols = [Column("v", "dimensionless", values)] + ([Column("segment", "tag", tags)] if with_text else [])
        return ResultEnvelope(RunConfig("two-qubit", {"j": 0.5}, "out.csv"), cols, {"build": "b", "timestamp": "t"})

    for render in (render_csv, render_json):
        assert render(envelope(arr)) == render(envelope(arr.tolist()))


def test_array_column_of_unequal_length_is_rejected():
    with pytest.raises(ValueError, match="equal lengths"):
        ResultEnvelope(RunConfig("two-qubit", {}, "out.csv"), [Column("a", "", np.zeros(3)), Column("b", "", [0.0] * 2)])


def test_phase_map_write_peak_memory(tmp_path):
    """A 400x400 map (fig1b's size) goes from kernel to file without a
    whole column of Python floats: the traced peak, numpy buffers included,
    stays below 10 MB; as ``.tolist()`` columns it was about 16 MB."""
    cfg = parse_config(["phase-diagram", "--grid", "400x400", "--output", str(tmp_path / "map.csv")])
    tracemalloc.start()
    try:
        write_result(run(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def test_trajectory_write_peak_memory(tmp_path):
    """fig2b holds a table of distinct values for each of its five repeating
    angle and coordinate columns while it is written: the traced peak stays
    below 6 MB (2.4 MB before the tables, 4.3 MB with them)."""
    argv = ["bloch-traj", "--gamma-ratio", "1.25", "--periods", "200", "--output", str(tmp_path / "traj.csv")]
    tracemalloc.start()
    try:
        write_result(run(parse_config(argv)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_phase_map_formats_each_distinct_value_once(tmp_path, monkeypatch):
    """A 300x300 phase map has 300 gains, 300 frequencies and 2 phase codes:
    602 float-to-text conversions, where a per-block memo made 26,936."""
    calls = []

    def counting(enc):
        return lambda value: calls.append(value) or enc(value)

    monkeypatch.setattr("floquet_ep.envelope._csv_value", counting(_csv_value))
    monkeypatch.setattr("floquet_ep.envelope._CSV_FLOAT", counting(_CSV_FLOAT))
    cfg = parse_config(["phase-diagram", "--grid", "300x300", "--quantity", "phase",
                        "--output", str(tmp_path / "phase.csv")])
    write_result(run(cfg))
    assert len(calls) <= 602
