#!/usr/bin/env python3
"""Digest every CLI artifact produced from the example configurations, or
compare them with the artifacts of another checkout.

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

With `--against OTHER_CHECKOUT` it runs the same commands on the same
configurations with the program of both checkouts and reports how they
differ. For each artifact (stdout and stderr included) whose bytes differ it
prints the largest absolute and relative change over its numbers (CSV
cells, JSON numbers, and the numbers in any other text), the JSON path of
the largest relative change, and the largest magnitude among the numbers.
A `FLAG` line marks every change that is not a change of a number: a
verdict, `synchronized`, `diverged` or other non-numeric JSON value, a CSV
header, the text around the numbers, the set of files, or the exit code. A
change of `t_diverged` is flagged too. The exit status is 1 if anything was
flagged, else 0:

    python3 scripts/artifact_digest.py --against /path/to/parent/checkout
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"

# a number as the CLI writes it (repr of a float, an int, or a %.2f/%.4g label)
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|-?inf|nan)")


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


def _run(argv: list[str], root: Path) -> tuple[dict[str, bytes], int]:
    """Artifacts of one CLI call with the program of `root`, keyed by file
    name, plus `<stdout>` and `<stderr>`; and the exit code."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("IFPSYNC_OUTPUT_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        # artifacts land in the working directory when no --output-dir is given
        proc = subprocess.run(
            [sys.executable, "-m", "ifpsync", *argv], cwd=tmp, env=env, capture_output=True
        )
        files = {p.name: p.read_bytes() for p in sorted(Path(tmp).iterdir())}
        for name, stream in (("<stdout>", proc.stdout), ("<stderr>", proc.stderr)):
            stream = stream.replace(tmp.encode(), b"<OUT>")
            for r in {str(root), str(ROOT)}:
                stream = stream.replace(r.encode(), b"<ROOT>")
            files[name] = stream
    return files, proc.returncode


def _digest(argv: list[str], label: str) -> list[str]:
    files, code = _run(argv, ROOT)
    lines = [f"{label} {name} {_sha(data)}" for name, data in files.items()]
    lines.append(f"{label} <exit> {code}")
    return lines


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _json_pairs(old, new, path: str, pairs: list, flags: list) -> None:
    """Collect (path, old, new) number pairs of two JSON values; flag every
    other difference, and any change of t_diverged."""
    if _is_number(old) and _is_number(new):
        if path.endswith("t_diverged") and old != new:
            flags.append(f"{path}: {old!r} -> {new!r}")
        pairs.append((path, float(old), float(new)))
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(set(old) | set(new)):
            if key not in old or key not in new:
                flags.append(f"{path}/{key}: only in {'new' if key in new else 'old'}")
            else:
                _json_pairs(old[key], new[key], f"{path}/{key}", pairs, flags)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _json_pairs(a, b, f"{path}[{i}]", pairs, flags)
    elif old != new:
        flags.append(f"{path}: {json.dumps(old)[:80]} -> {json.dumps(new)[:80]}")


def _text_pairs(old: str, new: str, pairs: list, flags: list) -> None:
    """Numbers of two texts in order (CSV cells included); the text between
    them must be equal."""
    a, b = _NUMBER.split(old), _NUMBER.split(new)
    if len(a) != len(b) or a[::2] != b[::2]:
        flags.append("text around the numbers differs")
        return
    pairs.extend(("", float(x), float(y)) for x, y in zip(a[1::2], b[1::2]))


def _changes(name: str, old: bytes, new: bytes) -> tuple[list, list]:
    pairs: list = []
    flags: list = []
    old_s, new_s = old.decode("utf-8"), new.decode("utf-8")
    try:
        old_j, new_j = json.loads(old_s), json.loads(new_s)
    except ValueError:
        if name.endswith(".csv") and old_s.split("\n", 1)[0] != new_s.split("\n", 1)[0]:
            flags.append("CSV header differs")
        else:
            _text_pairs(old_s, new_s, pairs, flags)
    else:
        _json_pairs(old_j, new_j, "", pairs, flags)
    return pairs, flags


def _largest_change(pairs: list) -> tuple[float, float, str, float, list]:
    """Largest absolute and relative change over (path, old, new) number
    pairs, the path (JSON only) of the largest relative change, the largest
    magnitude among the numbers, and the pairs whose finiteness or NaN-ness
    differs."""
    max_abs = max_rel = scale = 0.0
    at = ""
    bad = []
    for path, a, b in pairs:
        if math.isfinite(a):
            scale = max(scale, abs(a))
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if not (math.isfinite(a) and math.isfinite(b)):
            bad.append(f"{path}: {a!r} -> {b!r}")
            continue
        d = abs(a - b)
        max_abs = max(max_abs, d)
        rel = d / max(abs(a), abs(b))
        if rel > max_rel:
            max_rel, at = rel, path
    return max_abs, max_rel, at, scale, bad


def compare(other: Path) -> int:
    """Print how the artifacts of `other` (old) and this checkout (new)
    differ; 1 if any change was flagged."""
    n_diff = n_flags = 0
    with ThreadPoolExecutor(max_workers=2) as pool:
        for config in sorted(CONFIGS.glob("*.json")):
            for argv in _commands(config):
                label = f"{config.name} {' '.join([argv[0], *argv[2:]])}"
                (old, old_code), (new, new_code) = pool.map(
                    lambda root: _run(argv, root), (other, ROOT)
                )
                lines = []
                if old_code != new_code:
                    lines.append(f"FLAG {label} <exit> {old_code} -> {new_code}")
                for name in sorted(set(old) ^ set(new)):
                    lines.append(f"FLAG {label} {name} only in {'new' if name in new else 'old'}")
                for name in sorted(set(old) & set(new)):
                    if old[name] == new[name]:
                        continue
                    n_diff += 1
                    pairs, flags = _changes(name, old[name], new[name])
                    max_abs, max_rel, at, scale, bad = _largest_change(pairs)
                    lines.append(
                        f"{label} {name} differs: max_abs={max_abs:.3g} "
                        f"max_rel={max_rel:.3g}{' at ' + at if at else ''} "
                        f"over {len(pairs)} numbers of magnitude <= {scale:.3g}"
                    )
                    lines.extend(f"FLAG {label} {name} {f}" for f in flags + bad)
                n_flags += sum(line.startswith("FLAG") for line in lines)
                if lines:
                    print("\n".join(lines), flush=True)
    print(f"{n_diff} artifacts differ, {n_flags} flagged")
    return 1 if n_flags else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", type=Path, default=None, metavar="OTHER_CHECKOUT",
                        help="compare with the artifacts of the program in OTHER_CHECKOUT")
    args = parser.parse_args(argv)
    if args.against is not None:
        return compare(args.against.resolve())
    for config in sorted(CONFIGS.glob("*.json")):
        for argv in _commands(config):
            label = f"{config.name} {' '.join([argv[0], *argv[2:]])}"
            print("\n".join(_digest(argv, label)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
