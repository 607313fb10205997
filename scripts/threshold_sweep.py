#!/usr/bin/env python3
"""Sweep the all-to-all coupling weight and compare the published Hurwitz
threshold against simulation.

For identical cubic agents 1/(s(s^2 + p s + q)) under uniform all-to-all
coupling kappa, the published threshold tests the polynomial with the
complete graph counted as kappa*(n-1); the disagreement dynamics actually
carry the complete-graph Laplacian eigenvalue kappa*n. This script makes the
band between the two visible: points with pq/n < kappa < pq/(n-1) are
predicted to synchronize but diverge. All points share one batch key, so
they are integrated as one batch.

Example:
    python3 scripts/threshold_sweep.py --p 1 --q 1 --n 3 \
        --kappa-min 0.1 --kappa-max 0.6 --points 11 --t-final 150
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ifpsync.netsim import SimConfig
from ifpsync.scenarios import run_scenarios


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, default=1.0)
    ap.add_argument("--q", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--kappa-min", type=float, default=0.1)
    ap.add_argument("--kappa-max", type=float, default=0.6)
    ap.add_argument("--points", type=int, default=11)
    ap.add_argument("--dt", type=float, default=5e-3)
    ap.add_argument("--t-final", type=float, default=150.0)
    ap.add_argument("--out", type=Path, default=None,
                    help="optional CSV file for the sweep table")
    args = ap.parse_args()

    lo_true = args.p * args.q / args.n
    lo_pub = args.p * args.q / (args.n - 1)
    print(f"published threshold kappa < {lo_pub:.6g}; "
          f"disagreement-dynamics threshold kappa < {lo_true:.6g}")
    print(f"{'kappa':>10} {'predicted':>10} {'observed':>10} {'agree':>6}  sup_tail")

    config = SimConfig(dt=args.dt, t_final=args.t_final, record_stride=20)
    kappas = [
        args.kappa_min + (args.kappa_max - args.kappa_min) * i / max(args.points - 1, 1)
        for i in range(args.points)
    ]
    runs = run_scenarios([
        ("remark1", {"p": args.p, "q": args.q, "n_agents": args.n, "kappa": kappa}, config)
        for kappa in kappas
    ])
    rows = ["kappa,predicted,observed,agree,sup_tail,diverged"]
    disagreements = 0
    for kappa, run in zip(kappas, runs):
        sup = run.sim.metrics.pairwise_sup_tail
        mark = ""
        if not run.agree:
            disagreements += 1
            if kappa < lo_true and not run.sim.diverged:
                mark = ("   <-- below both thresholds; decay slows near the "
                        "boundary, increase --t-final")
            else:
                mark = "   <-- published bound wrong here"
        print(f"{kappa:>10.4f} {str(run.predicted):>10} {str(run.observed):>10} "
              f"{str(run.agree):>6}  {sup:.3e}{mark}")
        rows.append(f"{kappa!r},{run.predicted},{run.observed},{run.agree},"
                    f"{sup!r},{run.sim.diverged}")

    if args.out is not None:
        args.out.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")
        print(f"wrote {args.out}")
    print(f"{disagreements} disagreement(s) in {args.points} points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
