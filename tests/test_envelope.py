"""The block-streamed result encoder against the row-wise renderers it
replaced, which are kept here as the oracle: every output must be
byte-identical to theirs."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquet_ep.cli import parse_config, run
from floquet_ep.envelope import (
    _BLOCK_ROWS,
    Column,
    RunConfig,
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
