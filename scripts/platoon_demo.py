#!/usr/bin/env python3
"""Run the CACC platoon demo: certify the gain set, simulate a perturbed
start, and report how the spacing and velocity errors decay.

Reads scripts/configs/platoon.json by default; writes a trajectory CSV,
metrics JSON, and SVG plot next to it (or into --output-dir).

Example:
    python3 scripts/platoon_demo.py --output-dir /tmp/platoon --force
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ifpsync.cli import write_artifacts
from ifpsync.scenarios import run_platoon, scenario_from_dict

DEFAULT_CONFIG = Path(__file__).resolve().parent / "configs" / "platoon.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", type=Path, default=DEFAULT_CONFIG)
    ap.add_argument("--output-dir", type=Path, default=None)
    ap.add_argument("--force", action="store_true")
    args = ap.parse_args()

    kind, spec, config = scenario_from_dict(
        json.loads(args.config.read_text(encoding="utf-8"))
    )
    if kind != "platoon":
        print(f"expected a platoon config, got {kind!r}", file=sys.stderr)
        return 1

    run = run_platoon(spec, config)
    cert = run.certificate
    print("certificates:")
    print(f"  pinned weak coupling: {'PASS' if cert.pinned.passes else 'FAIL'} "
          f"(slack {np.round(cert.pinned.slack, 4).tolist()})")
    print(f"  gain inequalities:    {'PASS' if cert.gains.passes else 'FAIL'} "
          f"(per vehicle {list(cert.gains.per_vehicle)})")

    sp0 = np.abs(run.spacing_errors[0]).max()
    spT = np.abs(run.spacing_errors[-1]).max()
    veT = np.abs(run.velocity_errors[-1]).max()
    print(f"spacing error: {sp0:.3f} m at t=0  ->  {spT:.3e} m at t={run.sim.times[-1]:g}")
    print(f"velocity error at end: {veT:.3e} m/s")
    print(f"synchronized (gap-shifted outputs): {run.sim.metrics.synchronized}")

    out_dir = args.output_dir or args.config.parent
    try:
        (summary,), _ = write_artifacts(out_dir, [(args.config.stem, run.sim, None)],
                                        plot=True, force=args.force)
    except FileExistsError as e:
        print(e, file=sys.stderr)
        return 1
    for path in summary["artifacts"].values():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
