"""Tests of the benchmark itself (not of the program).

    python3 -m pytest perfbench/tests -q

Workload sizes are shrunk here so that each test runs the real CLI in well
under a second.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from ifpsync.cli import main as cli_main  # noqa: E402


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "PLATOON_T_FINAL", 2.0)
    monkeypatch.setattr(workloads, "RING_N", 12)
    monkeypatch.setattr(workloads, "RING_STEPS", 60)
    monkeypatch.setattr(workloads, "SWEEP_N", 10)
    monkeypatch.setattr(workloads, "SWEEP_STEPS", 2500)
    monkeypatch.setattr(workloads, "CERTIFY_N", 30)


def _invoke(name, seed, tmp_path, monkeypatch):
    """Run the workload's CLI call in tmp_path; return (workload, reference,
    exit code, stdout)."""
    w = workloads.WORKLOADS[name](seed)
    for fname, text in w.files.items():
        (tmp_path / fname).write_text(text, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(w.argv)
    return w, oracle.reference(w), code, buf.getvalue()


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


@pytest.mark.parametrize("name", ["wide_ring", "traffic_sweep", "certify_wide"])
def test_generator_is_deterministic(name, small):
    gen = workloads.WORKLOADS[name]
    assert gen(7).files == gen(7).files
    assert gen(7).files != gen(8).files


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outputs_match_reference(name, small, tmp_path, monkeypatch):
    w, ref, code, out = _invoke(name, 3, tmp_path, monkeypatch)
    assert oracle.check(w, ref, tmp_path, code, out) == [[]] * w.operations


def test_sweep_covers_certified_failed_and_diverged_entries(small, tmp_path, monkeypatch):
    w, ref, code, out = _invoke("traffic_sweep", 3, tmp_path, monkeypatch)
    assert code == oracle.EXIT_DIVERGED
    assert {r["passes"] for r in ref} == {True, False}
    assert {r["diverged"] for r in ref} == {True, False}


def _perturb_csv_cell(path, row, col, delta):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) + delta)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("name,csv", [("platoon", "platoon.csv"), ("wide_ring", "ring.csv"),
                                      ("traffic_sweep", "sweep_002.csv")])
def test_check_flags_perturbed_trajectory(name, csv, small, tmp_path, monkeypatch):
    w, ref, code, out = _invoke(name, 3, tmp_path, monkeypatch)
    _perturb_csv_cell(tmp_path / csv, 5, 2, 1e-5)
    flagged = [bool(e) for e in oracle.check(w, ref, tmp_path, code, out)]
    assert flagged == [name != "traffic_sweep" or i == 2 for i in range(w.operations)]


def test_check_flags_wrong_verdicts(small, tmp_path, monkeypatch):
    w, ref, code, out = _invoke("platoon", 3, tmp_path, monkeypatch)
    _edit_json(tmp_path / "platoon.report.json",
               lambda d: d.update(synchronized=not d["synchronized"]))
    assert oracle.check(w, ref, tmp_path, code, out)[0]
    assert oracle.check(w, ref, tmp_path, 4, out)[0]


def test_check_flags_wrong_certificate(small, tmp_path, monkeypatch):
    w, ref, code, out = _invoke("certify_wide", 3, tmp_path, monkeypatch)
    rep = json.loads(out)
    rep["alpha"][4] *= 1.001
    assert any("alpha" in m for m in oracle.check(w, ref, tmp_path, code, json.dumps(rep))[0])
    rep = json.loads(out)
    rep["weak_coupling"]["kappa"][0] *= 1.01
    assert any("Perron" in m for m in oracle.check(w, ref, tmp_path, code, json.dumps(rep))[0])


def test_check_flags_missing_rows(small, tmp_path, monkeypatch):
    w, ref, code, out = _invoke("traffic_sweep", 3, tmp_path, monkeypatch)
    path = tmp_path / "sweep_000.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    assert any("rows" in m for m in oracle.check(w, ref, tmp_path, code, out)[0])


def test_printed_metrics_are_declared(small, capsys):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {"0": {m["name"] for m in bench["end_to_end"]},
                "1": {m["name"] for m in bench["per_layer"]}}
    assert [wl["name"] for wl in bench["workloads"]] == list(workloads.BENCHMARKED)
    for trace, name in (("0", "platoon"), ("1", "traffic_sweep")):
        res = run.run_workload(name, 1, 0.0, trace == "1")
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
        assert set(res["metrics"]) == declared[trace]
