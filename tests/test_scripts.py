"""Smoke tests for the demo scripts: each runs on tiny settings and exits 0."""

from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *argv: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def test_threshold_sweep_runs(tmp_path):
    proc = run_script("threshold_sweep.py", "--points", "2", "--t-final", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "disagreement(s) in 2 points" in proc.stdout


def test_platoon_demo_runs(tmp_path):
    config = json.loads((SCRIPTS / "configs" / "platoon.json").read_text(encoding="utf-8"))
    config["sim"]["t_final"] = 150.0  # long enough for the gap-shifted outputs to synchronize
    cfg = tmp_path / "platoon.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "tmp"
    proc = run_script("platoon_demo.py", "--config", str(cfg), "--output-dir", str(out),
                      "--force", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "platoon.csv", "platoon.metrics.json", "platoon.svg",
    ]
    metrics = json.loads((out / "platoon.metrics.json").read_text(encoding="utf-8"))
    assert f"synchronized (gap-shifted outputs): {metrics['synchronized']}\n" in proc.stdout
    assert metrics["synchronized"] is True


def test_artifact_digest_against_itself_finds_no_difference(tmp_path):
    proc = run_script("artifact_digest.py", "--against", str(SCRIPTS.parent), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0 artifacts differ, 0 flagged\n"


def test_artifact_digest_reports_number_changes_and_flags_the_rest():
    spec = importlib.util.spec_from_file_location("artifact_digest", SCRIPTS / "artifact_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)

    def changes(name, old, new):
        pairs, flags = digest._changes(name, old.encode(), new.encode())
        return digest._largest_change(pairs)[:2], flags

    old = {"synchronized": True, "diverged": False, "t_diverged": None, "sup": 2.0}
    (max_abs, max_rel), flags = changes("a.json", json.dumps(old), json.dumps({**old, "sup": 2.5}))
    assert (max_abs, max_rel, flags) == (0.5, 0.2, [])
    _, flags = changes("a.json", json.dumps(old), json.dumps({**old, "synchronized": False}))
    assert flags == ["/synchronized: true -> false"]
    _, flags = changes("a.json", json.dumps({**old, "t_diverged": 1.5}),
                       json.dumps({**old, "t_diverged": 1.25}))
    assert flags == ["/t_diverged: 1.5 -> 1.25"]
    (max_abs, max_rel), flags = changes("a.csv", "t,y_1\n0.0,1.0\n", "t,y_1\n0.0,1.25\n")
    assert (max_abs, max_rel, flags) == (0.25, 0.2, [])
    _, flags = changes("a.csv", "t,y_1\n0.0,1.0\n", "t,y_2\n0.0,1.0\n")
    assert flags == ["CSV header differs"]


def test_reach_counts_each_line_for_its_innermost_statement(tmp_path):
    # the statement map only: tracing here would end the trace of a reach run
    spec = importlib.util.spec_from_file_location("reach", SCRIPTS / "reach.py")
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    src = tmp_path / "mod.py"
    src.write_text(
        "LIMIT = 3\n"
        "def f(x):\n"
        "    if x > LIMIT:\n"
        "        return [i for i in\n"
        "                range(x)]\n"
        "    try:\n"
        "        y = x\n"
        "    except ValueError:\n"
        "        y = 0\n"
        "    return y\n",
        encoding="utf-8",
    )
    statements = reach.function_statements(src)
    assert sorted(statements) == [3, 4, 6, 7, 9, 10]
    assert {4, 5} >= statements[4] and 8 in statements[6]
    tracer = reach.Reach(tmp_path)
    tracer.lines[str(src)] = {3, 6, 7, 10}
    assert tracer.unreached(src) == [4, 9]
