#!/usr/bin/env python3
"""Digest every CLI artifact produced from the example configurations.

For each `scripts/configs/*.json` the script runs, in a fresh temporary
output directory:

- `scenario --plot` for a scenario (with `--sweep` when the file holds a
  list), or `simulate --plot` for a network file;
- `certify` on the same file.

It prints one line per artifact file with its SHA-256, one line each for
stdout and stderr (hashed after replacing the temporary directory name with
`<OUT>` and the checkout's root with `<ROOT>`), and one line with the exit
code. The program is imported from the `src/` tree next to this script, so
running the script from two checkouts and diffing the outputs shows whether
a change alters any artifact byte:

    python3 scripts/artifact_digest.py > after.txt
    python3 /path/to/other/checkout/scripts/artifact_digest.py > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _commands(config: Path) -> list[list[str]]:
    data = json.loads(config.read_text(encoding="utf-8"))
    if isinstance(data, list):
        run = ["scenario", str(config), "--plot", "--sweep"]
    elif isinstance(data, dict) and "scenario_type" in data:
        run = ["scenario", str(config), "--plot"]
    else:
        run = ["simulate", str(config), "--plot"]
    return [run, ["certify", str(config)]]


def _digest(argv: list[str], label: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("IFPSYNC_OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        # artifacts land in the working directory when no --output-dir is given
        proc = subprocess.run(
            [sys.executable, "-m", "ifpsync", *argv], cwd=tmp, env=env, capture_output=True
        )
        lines = [
            f"{label} {p.name} {_sha(p.read_bytes())}" for p in sorted(Path(tmp).iterdir())
        ]
        for name, stream in (("stdout", proc.stdout), ("stderr", proc.stderr)):
            stream = stream.replace(tmp.encode(), b"<OUT>").replace(str(ROOT).encode(), b"<ROOT>")
            lines.append(f"{label} <{name}> {_sha(stream)}")
        lines.append(f"{label} <exit> {proc.returncode}")
    return lines


def main() -> int:
    for config in sorted(CONFIGS.glob("*.json")):
        for argv in _commands(config):
            label = f"{config.name} {' '.join([argv[0], *argv[2:]])}"
            print("\n".join(_digest(argv, label)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
