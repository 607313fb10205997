"""Smoke tests for the demo scripts: each runs on tiny settings and exits 0."""

from __future__ import annotations

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
    config["sim"]["t_final"] = 1.0
    cfg = tmp_path / "platoon.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "tmp"
    proc = run_script("platoon_demo.py", "--config", str(cfg), "--output-dir", str(out),
                      "--force", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "platoon.csv", "platoon.metrics.json", "platoon.svg",
    ]
