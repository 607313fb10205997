"""The input-file reader: a dense adjacency read in row blocks gives the arcs of json's."""

from __future__ import annotations

import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ifpsync import build_digraph, cli, jsontext
from ifpsync.cli import main
from ifpsync.errors import numbers
from ifpsync.graphnet import Cells

# cells that json reads, refuses, or reads as something other than a number
ODD_CELLS = [
    "0", "0.0", "-0.0", "-0", "0e0", "0.00", "1e5", "2.5E-3", "1E+2", "1e400", "-1e400",
    str(2**63 - 1), str(2**63), str(-2**63), str(-2**63 - 1), str(2**64), str(2**70),
    "01", "1.", ".5", "+1", "00", "1e", "--1", "0 0", "NaN", "Infinity", "-Infinity",
    '"1"', "true", "false", "null", "[1]", "[]", "é",
]
CELLS = st.one_of(
    st.sampled_from(["0", "0.0"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-2**65, 2**65).map(str),
    st.sampled_from(ODD_CELLS),
)
# (cell separator, row separator): compact, json.dumps' ", ", spaced, one
# row per line, and indented as json.dumps(indent=2) writes it
LAYOUTS = [(",", "],["), (", ", "], ["), (" , ", " ] ,  [ "), (", ", "],\n ["),
           (",\n    ", "\n  ],\n  [\n    ")]


@st.composite
def matrix_texts(draw) -> str:
    """The text of an n x n matrix, now and then with a row one cell short or
    long, or one row too many or too few."""
    n = draw(st.integers(1, 5))
    rows = [[draw(CELLS) for _ in range(n)] for _ in range(n)]
    if draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))].append("1.5")
    if draw(st.integers(0, 9)) == 0:
        if draw(st.booleans()):
            rows.pop()
        else:
            rows.append(["0"] * n)
    sep, row_sep = draw(st.sampled_from(LAYOUTS))
    return "[[" + row_sep.join(sep.join(row) for row in rows) + "]]"


def outcome(read):
    """What read() gives: ("value", repr), or (exception type, message)."""
    try:
        value = read()
    except Exception as e:  # the outcome is compared, not handled
        return type(e), str(e)
    return "value", repr(value)


def cells_of(matrix: np.ndarray) -> tuple:
    """(n, rows, cols, value bits) of the nonzero cells of a square matrix,
    in row-major order."""
    rows, cols = np.nonzero(matrix)
    return matrix.shape[0], rows.tolist(), cols.tolist(), matrix[rows, cols].view(np.int64).tolist()


def assert_reads_as_json(text: str) -> None:
    """jsontext.loads(text) is json.loads(text), with a square adjacency of
    numbers as the nonzero cells of the array numbers() makes of json's list,
    bit for bit, and the same errors; build_digraph gives the same arcs, or
    raises the same error, from either."""
    expected = outcome(lambda: json.loads(text))
    got = outcome(lambda: jsontext.loads(text))
    if expected[0] != "value" or not isinstance(json.loads(text), dict):
        assert got == expected
        return
    ref, d = json.loads(text), jsontext.loads(text)
    assert list(d) == list(ref)
    for key in ref:
        if key != "adjacency":
            assert repr(d[key]) == repr(ref[key])
    if "adjacency" not in ref:
        return
    adjacency = d["adjacency"]
    if isinstance(adjacency, Cells):
        matrix = numbers("adjacency", ref["adjacency"], finite=False)
        assert matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1]
        assert adjacency.rows.dtype == adjacency.cols.dtype == np.intp
        assert adjacency.values.dtype == np.float64
        n, rows, cols, values = adjacency
        assert (n, rows.tolist(), cols.tolist(), values.view(np.int64).tolist()) == cells_of(matrix)
    else:
        assert repr(adjacency) == repr(ref["adjacency"])
    assert outcome(lambda: build_digraph(adjacency).arcs) == outcome(
        lambda: build_digraph(ref["adjacency"]).arcs)


class TestLoads:
    @given(matrix_texts(), st.sampled_from([1, 30, 1 << 19]),
           st.sampled_from(['{"adjacency": %s}', '{"a": [1, {"b": null}], "adjacency": %s}',
                            '{"adjacency": [[1]], "adjacency": %s, "c": "x"}',
                            ' {\n "adjacency" : %s ,"agents":[]}\n']))
    @example("[[0, 9223372036854775808], [1.5, 0]]", 1 << 19, '{"adjacency": %s}')
    @example("[[0, 36893488147419103233, 2.5], [1, 0, 0], [0, 0, 0]]", 1, '{"adjacency": %s}')
    @example("[[0,true],[1.5,0]]", 1 << 19, '{"adjacency": %s}')
    def test_equals_json_and_numbers(self, matrix, block, wrapper):
        with mock.patch.object(jsontext, "_BLOCK", block):
            assert_reads_as_json(wrapper % matrix)

    @pytest.mark.parametrize("text", [
        '{"adjacency": []}', '{"adjacency": [[]]}', '{"adjacency": [[0, 1, 2], [1, 0, 2]]}',
        '{"adjacency": [[0, 1], [1]]}', '{"adjacency": [[0, 1], [1, 0], [1, 1]]}',
        '{"adjacency": [[0, 1] [1, 0]]}', '{"adjacency": [[[0]]]}', '{"adjacency": 5}',
        '{"adjacency": [1, 2]}', '{"adjacency": [[0, 0, 0, 0, 0]]}', '{"adjacency": [[0, 1], [1',
        '{"adjacency": [[', '{"adjacency": [[0, 1], [1, 0]] x', '{"adjacency": [[0, "1"], [1, 0]]}',
        '{"adjacency": [[0, 1e5], [1\t, 0]]}', '{"adjacency": [[0, 2.5], [NaN, 0]]}',
        '{"adjacency": [[0, 1], [é, 0]]}', '{"adjacency": [[0, 01], [0.0, 0]]}',
        '{"adjacency": [[0, 0.0], [-0.0, 0]]}', '{"adjacency": [[0, 0], [0, 0]]}',
        '{"adjacency": [[0 0,], [0, 0]]}',
        # the right counts of tokens and separators, a separator in a token's place
        '{"adjacency": [[0, 0, 1], [1 0,, 0], [0, 1, 0]]}',
        '{"adjacency": [[0, 0, 1], [1, 0, 0], [0 1,, 0]]}',
        '{"adjacency": [[0, 0, 1], [,1 0, 0], [0, 1, 0]]}',
        '{"adjacency": [[0, 0, 1], [1, 0, 0],, [0, 1 0]]}',
        '{"adjacency": [[0, 1], [0,, ]]}',  # a separator in a token's place, a token short
        '{"adjacency": [[0, 1], [2, 0]], "b": [1, 2]}', '{"adjacency": [[0, 1], [2, 0]],}',
        '{"adjacency": }', '{"adjacency" 1}', '{1: 2}', "{}", "[1, 2]", "5", '"x"', "",
        "\ufeff{}", '{"a": "\x01"}', '{"adjacency": [[0]]} {}',
    ])
    @pytest.mark.parametrize("block", [1, 1 << 19])
    def test_edge_cases_equal_json(self, text, block):
        with mock.patch.object(jsontext, "_BLOCK", block):
            assert_reads_as_json(text)

    @pytest.mark.parametrize("block", [1, 30, 1 << 19])
    @pytest.mark.parametrize("sep, row_sep", LAYOUTS[:3])
    def test_one_line_layouts_are_read_in_blocks(self, sep, row_sep, block):
        # a mostly zero matrix: a few 0.5 cells among 0 and 0.0
        rows = [["0.5" if (3 * i + j) % 5 == 0 else "0" if (i + j) % 2 else "0.0"
                 for j in range(7)] for i in range(7)]
        text = '{"adjacency": [[%s]]}' % row_sep.join(sep.join(row) for row in rows)
        with mock.patch.object(jsontext, "_BLOCK", block):
            assert isinstance(jsontext.loads(text)["adjacency"], Cells)
            assert_reads_as_json(text)

    @pytest.mark.parametrize("indent", [None, 2])
    @pytest.mark.parametrize("separators", [None, (",", ":")])
    def test_multi_block_matrix(self, indent, separators):
        # 1% of the cells nonzero in the first rows, all of them in the last
        rng = np.random.default_rng(5)
        a = np.where(rng.random((60, 60)) < 0.01, rng.random((60, 60)), 0.0)
        a[40:] = rng.random((20, 60))
        a[:, 7] = 3.0
        rows = a.tolist()
        for row in rows:
            row[7] = 3  # an integer column
        text = json.dumps({"adjacency": rows}, indent=indent, separators=separators)
        with mock.patch.object(jsontext, "_BLOCK", 2000):
            got = jsontext.loads(text)["adjacency"]
        assert isinstance(got, Cells) == (indent is None)
        if isinstance(got, Cells):
            n, rows, cols, values = got
            got = n, rows.tolist(), cols.tolist(), values.view(np.int64).tolist()
        else:
            got = cells_of(np.asarray(got, dtype=float))
        assert got == cells_of(a)


class TestCli:
    def test_certify_output_does_not_depend_on_the_layout(self, tmp_path, capsys):
        # the default layout is read in blocks, the indented one by json
        rng = np.random.default_rng(3)
        n = 30
        a = np.where(rng.random((n, n)) < 0.2, rng.uniform(0.0, 0.05, (n, n)), 0.0)
        np.fill_diagonal(a, 0.0)
        a[np.arange(n), np.arange(n) - 1] = 0.05  # a ring: strongly connected
        net = {"adjacency": a.tolist(), "alpha": [0.5] * n}
        f = tmp_path / "net.json"
        f.write_text(json.dumps(net), encoding="utf-8")
        assert main(["certify", str(f)]) == 0
        blocks = capsys.readouterr().out
        f.write_text(json.dumps(net, indent=2), encoding="utf-8")
        assert main(["certify", str(f)]) == 0
        assert capsys.readouterr().out == blocks

    def test_certify_does_not_reach_json_through_the_cli_module(self, tmp_path, capsys):
        # a tracer may replace cli.json with a namespace of json's public names
        f = tmp_path / "net.json"
        f.write_text(json.dumps({"adjacency": [[0.0, 0.5], [0.5, 0.0]], "alpha": [0.1, 0.1]}),
                     encoding="utf-8")
        public = {name: getattr(json, name) for name in json.__all__}
        with mock.patch.object(cli, "json", SimpleNamespace(**public)):
            assert main(["certify", str(f)]) == 0
        assert json.loads(capsys.readouterr().out)["passes"] is True

    @pytest.mark.parametrize("cell, j, k", [("NaN", 1, 2), ("1e400", 1, 2), ("-1", 1, 2),
                                            ("2", 1, 1)])
    @pytest.mark.parametrize("fill", ["0.5", "0"])  # mostly nonzero rows, mostly zero rows
    def test_certify_refuses_a_bad_cell_whoever_reads_it(self, tmp_path, capsys, cell, j, k, fill):
        n = 6
        rows = [[fill] * n for _ in range(n)]
        for i in range(n):
            rows[i][i], rows[i][i - 1] = "0", "1"  # a ring: strongly connected
        rows[j][k] = cell
        text = '{"adjacency": [%s], "alpha": [0.1, 0.1, 0.1, 0.1, 0.1, 0.1]}' % ", ".join(
            "[" + ", ".join(row) + "]" for row in rows)
        f = tmp_path / "net.json"
        f.write_text(text, encoding="utf-8")
        # the blocks read every case but a NaN in a mostly zero block
        read = isinstance(jsontext.loads(text)["adjacency"], Cells)
        assert read == (cell != "NaN" or fill != "0")
        code = main(["certify", str(f)])
        got = code, capsys.readouterr()
        with mock.patch.object(jsontext, "_matrix", lambda text, i: None):
            assert not isinstance(jsontext.loads(text)["adjacency"], Cells)
            code = main(["certify", str(f)])
        assert (code, capsys.readouterr()) == got
        assert code == 1 and f"a[{j},{k}]" in got[1].err
