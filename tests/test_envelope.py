"""The block-streamed result encoder against the row-wise renderers it
replaced, which are kept here as the oracle: every output must be
byte-identical to theirs."""

import dataclasses
import json
import math
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floquet_ep.bloch import _Samples, equal_superposition_xyz, evolve_state
from floquet_ep.cli import main, parse_config, run
from floquet_ep.floquet import FloquetParams
from floquet_ep.presets import PRESET_NAMES, figure_preset
from floquet_ep.sweep import AxisSpec, GridSpec, Quantity, compute_heatmap
from floquet_ep.two_qubit import _START_FACTORS, TwoQubitParams, _evolve, _timeseries
from floquet_ep.envelope import (
    _BLOCK_ROWS,
    _CSV_FLOAT,
    _FILL,
    _blocks,
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
            # one type per column, repeated
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
    from a small pool (blocks repeat values, so the table is hit) or
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
    # a period longer than a block, then a table that restarts when full and a repeating tail after it
    "tile_1500": np.tile(np.arange(1500) / 7, 4),
    "full_table_then_period": np.concatenate([np.repeat(np.arange(2600) / 3, 2), np.arange(3000) / 13,
                                              np.tile(np.arange(100) / 11, 30)]),
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
    # a block half or just over half new, at an even and an odd row count
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
    payloads, half-new blocks, a table that restarts and row counts around
    a block."""
    tags = [("unitary", "thermal")[i % 3 == 0] for i in range(len(arr))]

    def envelope(values):
        cols = [Column("v", "dimensionless", values)] + ([Column("segment", "tag", tags)] if with_text else [])
        return ResultEnvelope(RunConfig("two-qubit", {"j": 0.5}, "out.csv"), cols, {"build": "b", "timestamp": "t"})

    for render in (render_csv, render_json):
        assert render(envelope(arr)) == render(envelope(arr.tolist()))


def _path_arrays():
    """Two blocks and a tail (2,053 rows) of a float64 column for each path of the writer, with the path
    each block must take: raw floats (True) or texts through the column's table (False)."""
    n, rng = 2 * _BLOCK_ROWS + 5, np.random.default_rng(31)
    distinct = np.cumsum(rng.uniform(0.5, 1.5, n)) * 1e-3 - 1.0
    signed = distinct.copy()
    signed[[3, 700, 1030, 2050]] = [0.0, -0.0, 5e-324, -5e-324]  # distinct bit patterns, all finite
    nonfinite = distinct.copy()
    nonfinite[[10, _BLOCK_ROWS + 10]] = [np.inf, np.nan]
    partly = distinct.copy()
    partly[:20] = partly[20:40]  # 20 patterns repeat in the first block and join its table ...
    partly[_BLOCK_ROWS : _BLOCK_ROWS + 5] = partly[20:25]  # ... so the second block is partly in it
    few = distinct.copy()
    few[[100, 900, _BLOCK_ROWS + 100, _BLOCK_ROWS + 900]] = 0.0  # 1,022 distinct of 1,024, as fig1b's zeros
    return {
        "all_distinct": (distinct, [True, True, True]),
        "signed_zeros_and_subnormals": (signed, [True, True, True]),
        "one_nonfinite": (nonfinite, [False, False, True]),
        "partly_in_the_table": (partly, [False, False, True]),
        "converged_orbit": (np.tile(distinct[:128], -(-n // 128))[:n], [False, False, False]),
        "few_exact_repeats": (few, [False, False, True]),
    }


_PATHS = _path_arrays()


@pytest.mark.parametrize("repeats", [False, True])
@pytest.mark.parametrize("name", sorted(_PATHS))
def test_each_writer_path_encodes_as_the_row_wise_oracle(name, repeats):
    """Each float64 block takes the path its values call for, raw or through the table (always the table
    when the column declares that it repeats), and CSV and JSON write the oracle's bytes: beside a raw
    column, a text column of tags (a tuple) and one of distinct floats that the template formats with it."""
    arr, raw = _PATHS[name]
    n = len(arr)
    cols = [Column("v", "", arr, repeats), Column("t", "", np.arange(n) / 3.0 + 7.0),
            Column("segment", "tag", tuple(("unitary", "thermal")[i % 3 == 0] for i in range(n)))]
    kinds = [hasattr(b, "dtype") for b in _blocks(cols, _csv_value, _CSV_FLOAT, True)]
    assert kinds[0::3] == [r and not repeats for r in raw] and kinds[1::3] == [True] * 3
    assert kinds[2::3] == [False] * 3
    _assert_as_oracle(_env(cols))
    _assert_as_oracle(_env(cols[1:] + cols[:1]))  # the tags and a text block of "v" make one run of text columns
    _assert_as_oracle(_env(cols[:1]))


def test_csv_tag_block_is_its_own_text(tmp_path, monkeypatch):
    """A CSV block of strings (the Bloch ``segment`` tag) is written as it is: no value of a Bloch run goes
    through the per-value encoder, which took every tag before (38,401 in a 300-period run)."""
    calls = []
    monkeypatch.setattr("floquet_ep.envelope._csv_value", lambda value: calls.append(value) or _csv_value(value))
    write_result(run(parse_config(["bloch-traj", "--periods", "20", "--output", str(tmp_path / "b.csv")])))
    assert calls == []


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
    """fig2b streams from the period recurrence to the file, holding a table of distinct values for
    each of its five repeating angle and coordinate columns: the traced peak stays below 2.5 MB (about
    1.7 MB; 3.0 MB when the whole trajectory was held)."""
    argv = ["bloch-traj", "--gamma-ratio", "1.25", "--periods", "200", "--output", str(tmp_path / "traj.csv")]
    tracemalloc.start()
    try:
        write_result(run(parse_config(argv)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_trajectory_write_peak_does_not_grow_with_periods(tmp_path):
    """3,201 and 32,001 rows (200 and 2000 periods of 16 samples) peak within 0.1 MB of each other:
    nothing held grows with the periods.  Holding the whole trajectory took about 88 B per row, 2.8
    against 1.0 MB here."""
    peaks = []
    for periods in (200, 2000):
        argv = ["bloch-traj", "--gamma-ratio", "1.25", "--periods", str(periods), "--substeps", "8",
                "--output", str(tmp_path / "traj.csv")]
        tracemalloc.start()
        try:
            write_result(run(parse_config(argv)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1e6


@st.composite
def _trajectory_argv(draw):
    """A ``bloch-traj`` argv of one period, or of a row count ``1 + 2 * substeps * periods`` just below
    or above a multiple of the block size, so that blocks split periods."""
    substeps, k = draw(st.sampled_from([1, 3, 64])), draw(st.integers(0, 2))
    periods = max(1, (k * _BLOCK_ROWS - 1) // (2 * substeps) + draw(st.integers(0, 1))) if k else 1
    init = draw(st.one_of(st.just("xyz"), st.builds("{!r},{!r}".format, st.floats(0.0, math.pi), st.floats(-4.0, 4.0))))
    return ["bloch-traj", "--periods", str(periods), "--substeps", str(substeps), "--init", init,
            "--gamma-ratio", repr(draw(st.floats(0.0, 3.0))), "--omega-ratio", repr(draw(st.floats(0.5, 10.0)))]


@settings(max_examples=25, deadline=None)
@given(argv=_trajectory_argv(), fmt=st.sampled_from(["csv", "json"]))
@example(argv=["bloch-traj", "--periods", "1", "--substeps", "1", "--init", "xyz"], fmt="json")
@example(argv=["bloch-traj", "--periods", "511", "--substeps", "1", "--init", "1.0,2.0"], fmt="csv")
@example(argv=["bloch-traj", "--periods", "512", "--substeps", "1", "--init", "xyz"], fmt="json")
@example(argv=["bloch-traj", "--periods", "171", "--substeps", "3", "--init", "3.0,-1.0"], fmt="csv")
@example(argv=["bloch-traj", "--periods", "16", "--substeps", "64", "--init", "xyz"], fmt="json")
def test_streamed_trajectory_equals_the_whole_array_render(argv, fmt):
    """The row-source columns write the bytes of the whole trajectory: ``evolve_state``'s arrays and
    tags, rendered row by row; read in order and by index, they are the same values."""
    env = run(parse_config(argv + ["--format", fmt]))
    p = env.config.parameters
    psi0 = equal_superposition_xyz() if p["init"] == "xyz" else np.array(
        [math.cos(p["init"][0] / 2), complex(math.cos(p["init"][1]), math.sin(p["init"][1])) * math.sin(p["init"][0] / 2)])
    traj = evolve_state(psi0, FloquetParams.from_dimensionless(p["gamma_ratio"], p["omega_ratio"], p["p"], p["j_av"]),
                        p["periods"], p["substeps"])
    xs, ys, zs = traj.cartesian.T
    arrays = [traj.times, traj.theta, traj.phi, xs, ys, zs, [tag.value for tag in traj.segment_tags]]
    whole = ResultEnvelope(env.config, [Column(c.name, c.unit, v) for c, v in zip(env.columns, arrays)], env.provenance)
    render, oracle = (render_csv, oracle_csv) if fmt == "csv" else (render_json, oracle_json)
    assert render(env) == oracle(whole)
    assert [list(c.values) for c in env.columns] == [list(c.values) for c in whole.columns]
    assert [c.values[len(xs) - 1] for c in env.columns] == [v[-1] for v in arrays]


_PAIR_RATES = {1: ["--gamma", "1.25"], 4: ["--gamma", "0.75", "--gamma", "1", "--kx", "1", "--kx", "1.5"]}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("init", ["00", "bell", "mixed", "correlated"])
@pytest.mark.parametrize("steps, t_max, n_pairs", [(1022, "63.9", 4), (1023, "5e-324", 1), (1024, "20", 1),
                                                   (2048, "5e-324", 4)])  # 63.9 / 1022 * 1022 is not 63.9
def test_streamed_pair_equals_the_whole_grid_render(steps, t_max, n_pairs, init, fmt):
    """The pair's row group writes the bytes of ``_timeseries`` over the whole ``np.linspace`` grid,
    rendered row by row, also where the step is subnormal; by index, its columns are the same values."""
    env = run(parse_config(["two-qubit", "--steps", str(steps), "--t-max", t_max, "--init", init,
                            *_PAIR_RATES[n_pairs], "--format", fmt]))
    p = env.config.parameters
    t_grid = np.linspace(0.0, p["t_max"], steps + 1)
    series = [_timeseries(_START_FACTORS[init](), TwoQubitParams(p["j"], g, k), t_grid)
              for g in p["gamma"] for k in p["kx"]]
    arrays = [series[0][0], *(c for s in series for c in s[1:])]
    whole = ResultEnvelope(env.config, [Column(c.name, c.unit, a) for c, a in zip(env.columns, arrays)], env.provenance)
    render, oracle = (render_csv, oracle_csv) if fmt == "csv" else (render_json, oracle_json)
    assert render(env) == oracle(whole)
    n = steps + 1
    for c, a in zip(env.columns, arrays):
        assert c.values[-1] == a[-1] and c.values[n // 3] == a[n // 3]
        assert c.values[:].tobytes() == a.tobytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pair_write_peak_does_not_grow_with_steps(fmt, tmp_path):
    """A three-rate pair at 10,001 and 100,001 rows peaks within 0.1 MB of each other, as CSV and through
    the JSON spool: nothing held grows with the steps.  Holding the columns took about 78 B per row as
    CSV and 111 B as JSON."""
    peaks = []
    for steps in (10_000, 100_000):
        argv = ["two-qubit", "--gamma", "0.5", "--gamma", "1", "--gamma", "2", "--steps", str(steps),
                "--format", fmt, "--output", str(tmp_path / f"pair.{fmt}")]
        tracemalloc.start()
        try:
            write_result(run(parse_config(argv)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 0.1e6


def test_distinct_pair_write_peak_memory(tmp_path):
    """A pair of three rates at 10,001 rows has ten columns whose every block is distinct and new: each block
    goes to the file as raw floats through one template, without a text per value.  The traced peak of the
    run and its write stays below 1.15 MB: 0.89 MB here, 1.42 MB when every raw block was formatted value by
    value first (through the tables or after them), 2.4 MB before blocks went raw."""
    argv = ["two-qubit", "--gamma", "0.5", "--gamma", "0.75", "--gamma", "1", "--steps", "10000",
            "--output", str(tmp_path / "pair.csv")]
    tracemalloc.start()
    try:
        write_result(run(parse_config(argv)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.15e6


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_block_costs_one_kernel_pass(fmt, tmp_path, monkeypatch):
    """No source is asked for a block twice, in either format: fig2b's 25,601 rows call the recurrence
    once per block (26 times; JSON called it 130 times when its columns were walked one by one), and the
    headline sweep's 4,001 rows call ``_evolve`` once per block and rate pair (4 x 6 = 24 times).  The counter
    replaces ``_evolve`` in the kernel module, where the run's ``_timeseries`` looks it up."""
    calls = {"states": 0, "evolve": 0}

    def counting(key, fn):
        def counted(*args):
            calls[key] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(_Samples, "states", counting("states", _Samples.states))
    monkeypatch.setattr("floquet_ep._two_qubit._evolve", counting("evolve", _evolve))
    write_result(run(dataclasses.replace(figure_preset("fig2b"), format=fmt, output_path=str(tmp_path / "fig2b"))))
    head = ["two-qubit", "--j", "0.5", "--kx", "1", *(a for g in ("0.5", "0.95", "1", "1.05", "2", "5") for a in ("--gamma", g)),
            "--t-max", "200", "--steps", "4000", "--format", fmt, "--output", str(tmp_path / "pair")]
    write_result(run(parse_config(head)))
    assert calls == {"states": 26, "evolve": 24}


def test_json_spool_failure_is_one_error_line(tmp_path, monkeypatch, capsys):
    """JSON spools its blocks to a temporary file: when none can be made, the run exits 1 with one
    ``error:`` line and no traceback, before the output file opens."""
    def no_spool(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    out = tmp_path / "pair.json"
    assert main(["two-qubit", "--steps", "4", "--format", "json", "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


def test_json_spool_failure_keeps_an_existing_output(tmp_path, monkeypatch, capsys):
    # the spool is made before the output file opens, so a file already at the path is not truncated
    def no_spool(*args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_spool)
    out = tmp_path / "pair.json"
    out.write_bytes(b"an earlier run's result\n")
    assert main(["two-qubit", "--steps", "4", "--format", "json", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b"an earlier run's result\n"


def test_large_phase_map_write_peak_memory(tmp_path):
    """A 1000x1000 map is computed block by block while it is written: the traced
    peak stays below 3 MB, where the whole-grid pass held about 46 B per cell."""
    cfg = parse_config(["phase-diagram", "--grid", "1000x1000", "--output", str(tmp_path / "map.csv")])
    tracemalloc.start()
    try:
        write_result(run(cfg))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@settings(max_examples=20, deadline=None)
@given(n_gamma=st.integers(2, 4), n_omega=st.sampled_from([2, 3, 37, 400, _BLOCK_ROWS - 1, _BLOCK_ROWS + 476]),
       gamma_scale=st.sampled_from(["log", "linear"]), omega_scale=st.sampled_from(["log", "linear"]),
       quantity=st.sampled_from([q.value for q in Quantity]), fmt=st.sampled_from(["csv", "json"]))
@example(n_gamma=2, n_omega=2, gamma_scale="linear", omega_scale="log", quantity="phase", fmt="csv")
@example(n_gamma=3, n_omega=_BLOCK_ROWS + 476, gamma_scale="log", omega_scale="linear", quantity="inner-product", fmt="json")
def test_streamed_phase_map_equals_the_materialized_grid(n_gamma, n_omega, gamma_scale, omega_scale, quantity, fmt):
    """The row-source columns write the bytes that the whole grid gives: ``compute_heatmap``'s
    values with ``np.repeat``/``np.tile`` axis columns, rendered row by row."""
    cfg = parse_config(["phase-diagram", "--grid", f"{n_gamma}x{n_omega}", "--gamma-scale", gamma_scale,
                        "--omega-scale", omega_scale, "--quantity", quantity, "--format", fmt])
    env = run(cfg)
    p = cfg.parameters
    grid = GridSpec(AxisSpec(p["gamma_min"], p["gamma_max"], n_gamma, gamma_scale),
                    AxisSpec(p["omega_min"], p["omega_max"], n_omega, omega_scale), p["p"], p["j_av"])
    hm = compute_heatmap(grid, Quantity(quantity))
    whole = ResultEnvelope(cfg, [Column("gamma_ratio", "dimensionless", np.repeat(hm.gamma_values(), n_omega)),
                                 Column("omega_ratio", "dimensionless", np.tile(hm.omega_values(), n_gamma)),
                                 Column(quantity.replace("-", "_"), "dimensionless", hm.values.ravel())], env.provenance)
    render, oracle = (render_csv, oracle_csv) if fmt == "csv" else (render_json, oracle_json)
    assert render(env) == oracle(whole)
    assert [list(c.values) for c in env.columns] == [list(c.values) for c in whole.columns]
    assert env.columns[2].values[n_gamma * n_omega - 1] == hm.values[-1, -1]


def _count_float_texts(monkeypatch) -> list:
    """Collect every float the CSV writer formats: through the value encoder, a table's float encoder, or
    the one ``%`` fill of a raw block's template."""
    calls = []

    def counting(enc):
        return lambda value: (isinstance(value, float) and calls.append(value)) or enc(value)

    def filling(template, values):
        calls.extend(v for v in values if isinstance(v, float))
        return _FILL(template, values)

    monkeypatch.setattr("floquet_ep.envelope._csv_value", counting(_csv_value))
    monkeypatch.setattr("floquet_ep.envelope._CSV_FLOAT", counting(_CSV_FLOAT))
    monkeypatch.setattr("floquet_ep.envelope._FILL", filling)
    return calls


def _distinct_floats(env) -> int:
    """The float bit patterns of each column, summed: the fewest conversions that can write ``env``, so a
    count below it missed a conversion."""
    blocks = [c.values[:] for c in env.columns]
    return sum(len(np.unique(b.view(np.uint64))) for b in blocks if b.dtype == np.float64)


def test_wide_phase_map_formats_each_frequency_once(tmp_path, monkeypatch):
    """In a 4x1500 phase map every gain row spans two blocks, yet each of the 4 gains,
    1500 frequencies and at most 3 phase codes is formatted once."""
    calls = _count_float_texts(monkeypatch)
    cfg = parse_config(["phase-diagram", "--grid", "4x1500", "--quantity", "phase",
                        "--output", str(tmp_path / "phase.csv")])
    env = run(cfg)
    write_result(env)
    assert _distinct_floats(env) <= len(calls) <= 4 + 1500 + 3


def test_phase_map_formats_each_distinct_value_once(tmp_path, monkeypatch):
    """A 300x300 phase map has 300 gains, 300 frequencies and 2 phase codes:
    602 float-to-text conversions, where a per-block memo made 26,936."""
    calls = _count_float_texts(monkeypatch)
    cfg = parse_config(["phase-diagram", "--grid", "300x300", "--quantity", "phase",
                        "--output", str(tmp_path / "phase.csv")])
    env = run(cfg)
    write_result(env)
    assert _distinct_floats(env) <= len(calls) <= 602


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_encodes_as_the_row_wise_oracle(name, fmt):
    """Every figure panel renders as the row-wise oracle over its materialized columns (a row source read
    as ``values[:]``): float tables beside Bloch tags, pair columns, contours and generator rows."""
    env = run(dataclasses.replace(figure_preset(name), format=fmt))
    whole = ResultEnvelope(env.config, [Column(c.name, c.unit, c.values[:]) for c in env.columns], env.provenance)
    render, oracle = (render_csv, oracle_csv) if fmt == "csv" else (render_json, oracle_json)
    assert render(env) == oracle(whole)


def test_row_source_indexing():
    """A phase map's row source indexes as its materialized column, and iteration computes
    a slice of rows per call of the row function, not one row per call."""
    values = run(parse_config(["phase-diagram", "--grid", "400x400"])).columns[2].values
    n, whole = len(values), values[:]
    assert values[-1] == whole[-1] and values[n // 3] == whole[n // 3]
    assert np.array_equal(values[::7], whole[::7]) and np.array_equal(values[-5::-3], whole[-5::-3])
    with pytest.raises(IndexError):
        values[n]
    calls, rows = [], values.rows
    values.rows = lambda idx: calls.append(len(idx)) or rows(idx)
    assert list(values) == whole.tolist()
    assert len(calls) <= -(-n // _BLOCK_ROWS) and sum(calls) == n


def test_trajectory_conversion_count(tmp_path, monkeypatch):
    """fig2b's six float columns of 25,601 rows make at most 53,500 float-to-text conversions, in the
    tables and in the raw blocks' templates: 53,336 when only a block all distinct and new goes raw and a
    table keeps what recurs; 56,337 when a block more than half distinct went raw; 53,067 before blocks went
    raw, when every table kept all it formatted and restarted when full; about 66,000 when it stopped
    growing instead."""
    calls = _count_float_texts(monkeypatch)
    cfg = dataclasses.replace(figure_preset("fig2b"), output_path=str(tmp_path / "fig2b.csv"))
    env = run(cfg)
    write_result(env)
    assert _distinct_floats(env) <= len(calls) <= 53_500
