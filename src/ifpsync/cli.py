"""Command-line front end: certificates and simulations from JSON configs.

Commands
--------
- ``ifp-syncnet ifp <tf.json>`` — passivity deficit of a transfer function.
- ``ifp-syncnet certify <net.json> [--reference]`` — weak-coupling verdict.
- ``ifp-syncnet simulate <net.json> [--plot] [--dt X] [--t-final X] [--tol X]
  [--force]`` — run a network, write CSV + metrics JSON (+ SVG).
- ``ifp-syncnet scenario <scn.json> [--plot] [--sweep]`` — prebuilt
  experiments; ``--sweep`` treats the file as a JSON list, integrates its
  entries with one `simulate_batch` call, and writes each entry's artifacts
  under a deterministic indexed name.

Exit codes: 0 success/pass, 1 input error, 2 not certifiable, 3 certificate
fail, 4 divergence. Artifacts land in --output-dir, else $IFPSYNC_OUTPUT_DIR,
else the working directory; without --force, a command with an existing
target exits 1 before it writes any file. CSV output is UTF-8 with LF line
endings and shortest round-trip float formatting, so identical runs produce
identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .certify import (
    check_platoon_gains,
    check_weak_coupling,
    check_weak_coupling_pinned,
)
from .errors import (
    IfpSyncError, MuTauViolation, NotCertifiable, field, integer, json_list, json_object,
    number, numbers,
)
from .graphnet import build_digraph
from .netsim import (
    AgentModel,
    DelayedIntegrator,
    LtiSiso,
    Plain,
    Reference,
    SimConfig,
    SimResult,
    Vehicle3rd,
    simulate,
)
from .passivity import RationalTF, ifp_index, ifp_indices, prl_conditions
from .scenarios import _gains, _sim_config, run_scenarios, scenario_from_dict

__all__ = ["main", "write_csv", "write_svg", "write_artifacts", "load_network"]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CERTIFIABLE = 2
EXIT_CERT_FAIL = 3
EXIT_DIVERGED = 4


# ---------------------------------------------------------------------------
# JSON -> objects
# ---------------------------------------------------------------------------

def time_fn_from_dict(d, prefix: str = "") -> Callable[[float], float]:
    """Deserialize a time function: a bare number is a constant; otherwise a
    dict with kind 'constant' {value}, 'ramp' {offset, slope}, or 'sin'
    {amplitude, omega, phase}. Every parameter must be a finite number. An
    error starts with `prefix` ("y_bar: "), which names the field."""
    if isinstance(d, (int, float)):  # number() refuses a boolean
        return lambda t, c=number(f"{prefix}value", d): c
    if not isinstance(d, dict):
        raise IfpSyncError(
            f"{prefix}a time function is a number or an object, got {type(d).__name__}"
        )
    kind = field(d, "kind", prefix)

    def param(key: str, default=None) -> float:
        v = field(d, key, prefix) if default is None else d.get(key, default)
        return number(prefix + key, v)

    if kind == "constant":
        return lambda t, c=param("value"): c
    if kind == "ramp":
        return lambda t, a=param("offset", 0.0), b=param("slope", 0.0): a + b * t
    if kind == "sin":
        amp, omega, phase = param("amplitude", 1.0), param("omega"), param("phase", 0.0)
        return lambda t, a=amp, w=omega, p=phase: a * math.sin(w * t + p)
    raise IfpSyncError(f"{prefix}unknown time-function kind {kind!r}")


def _time_fns(name: str, value) -> tuple:
    """A list of optional time functions, entry i named name[i] in errors."""
    return tuple(None if x is None else time_fn_from_dict(x, f"{name}[{i}]: ")
                 for i, x in enumerate(json_list(name, value)))


def agent_from_dict(d: dict, prefix: str = "") -> AgentModel:
    """Deserialize one agent: type 'lti' {num, den}, 'delayed_integrator'
    {delay, dim}, or 'vehicle' {tau, mu}. Polynomial coefficients ascending.
    An error starts with `prefix` ("agent 3: ")."""
    kind = d.get("type", "lti")
    if kind == "lti":
        return LtiSiso.from_coeffs(*_coeffs(d, prefix))
    if kind == "delayed_integrator":
        return DelayedIntegrator(delay=number(f"{prefix}delay", d.get("delay", 0.0)),
                                 dim=integer(f"{prefix}dim", d.get("dim", 1)))
    if kind == "vehicle":
        return Vehicle3rd(*(number(prefix + k, field(d, k, prefix)) for k in ("tau", "mu")))
    raise IfpSyncError(f"unknown agent type {kind!r}")


def _coeffs(d: dict, prefix: str = "") -> tuple:
    """A transfer function's `num` and `den` lists (Polynomial names a non-finite entry)."""
    return tuple(numbers(prefix + k, field(d, k, prefix), finite=False) for k in ("num", "den"))


def _agents_from_json(d: dict) -> list[AgentModel]:
    """The network's `agents` list, each entry a JSON object named by its index."""
    entries = json_list("agents", field(d, "agents"))
    return [agent_from_dict(json_object(f"agent {i}", a), f"agent {i}: ")
            for i, a in enumerate(entries)]


def _pinning(d: dict, n: int) -> np.ndarray:
    """The pinning gains `b` of a protocol or a certify file; zeros when absent."""
    return numbers("b", d["b"]) if "b" in d else np.zeros(n)


def load_network(d: dict):
    """(agents, protocol, SimConfig) from a network JSON dictionary.

    Top-level keys: adjacency (row i = arcs into agent i), agents (typed
    list, each optionally carrying x0), protocol ({'type': 'plain'} or
    {'type': 'reference', b, u_bar, y_bar}), sim (dt, t_final,
    record_stride, tol, blowup), initial_histories (per-agent time function
    giving the pre-start input of delayed agents).
    """
    g = build_digraph(field(d, "adjacency"))
    agents = _agents_from_json(d)
    if g.n != len(agents):
        raise IfpSyncError(f"adjacency is {g.n}x{g.n} but {len(agents)} agents given")

    proto_d = json_object("protocol", d.get("protocol", {"type": "plain"}))
    pkind = proto_d.get("type", "plain")
    if pkind == "plain":
        protocol = Plain(g)
    elif pkind == "reference":
        b = _pinning(proto_d, g.n)
        y_bar = time_fn_from_dict(proto_d["y_bar"], "y_bar: ") if "y_bar" in proto_d else None
        u_bar = _time_fns("u_bar", proto_d["u_bar"]) if "u_bar" in proto_d else None
        protocol = Reference(g, b=b, u_bar=u_bar, y_bar=y_bar)
    else:
        raise IfpSyncError(f"unknown protocol type {pkind!r}")

    x0 = [numbers(f"agent {i}: x0", a["x0"]) if "x0" in a else np.zeros(agent.state_dim)
          for i, (a, agent) in enumerate(zip(d["agents"], agents))]
    hist = d.get("initial_histories")
    hist = None if hist is None else _time_fns("initial_histories", hist)
    base = SimConfig(dt=1e-3, t_final=100.0, initial_states=x0, initial_histories=hist)
    return agents, protocol, _sim_config(base, d.get("sim", {}))


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def _columns(prefix: str, n: int, m: int) -> list[str]:
    if m == 1:
        return [f"{prefix}_{i}" for i in range(1, n + 1)]
    return [f"{prefix}_{i}_{d}" for i in range(1, n + 1) for d in range(1, m + 1)]


def write_csv(path: Path, result: SimResult) -> None:
    """Trajectory CSV: header t,y_1,...,y_N,u_1,...,u_N (vector outputs
    flattened agent-major with a per-dimension suffix), one row per recorded
    sample, floats in shortest round-trip form, LF endings."""
    n_rec, n, m = result.y.shape
    header = ["t"] + _columns("y", n, m) + _columns("u", n, m)
    # tolist() gives Python floats, whose repr is the shortest round-trip form
    table = np.concatenate(
        [result.times[:, None], result.y.reshape(n_rec, -1), result.u.reshape(n_rec, -1)], axis=1
    ).tolist()
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in table)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _write_json(path: Path, payload) -> None:
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8", newline="\n"
    )


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        return [lo]
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def write_svg(path: Path, result: SimResult) -> None:
    """Trajectory plot: one polyline per output channel on labeled linear
    axes, fixed 800x500 viewport, no external dependencies. Long runs are
    thinned to ~2000 points per polyline (endpoints kept)."""
    width, height = 800, 500
    ml, mr, mt, mb = 64, 16, 16, 48
    n_rec, n, m = result.y.shape
    t = np.asarray(result.times, dtype=float)
    ys = result.y.reshape(n_rec, n * m)

    stride = max(1, -(-n_rec // 2000))
    idx = np.arange(0, n_rec, stride)
    if idx[-1] != n_rec - 1:
        idx = np.append(idx, n_rec - 1)
    t = t[idx]
    ys = ys[idx]

    t_lo, t_hi = float(t[0]), float(t[-1])
    if t_hi <= t_lo:
        t_hi = t_lo + 1.0
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if not (math.isfinite(y_lo) and math.isfinite(y_hi)):
        finite = ys[np.isfinite(ys)]
        y_lo = float(finite.min()) if finite.size else -1.0
        y_hi = float(finite.max()) if finite.size else 1.0
    if y_hi <= y_lo:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float) -> float:
        return ml + (v - t_lo) / (t_hi - t_lo) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - (v - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>',
    ]
    for tv in _ticks(t_lo, t_hi):
        x = sx(tv)
        parts.append(
            f'<line x1="{x:.2f}" y1="{height - mb}" x2="{x:.2f}" y2="{height - mb + 5}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{height - mb + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{tv:.4g}</text>'
        )
    for yv in _ticks(y_lo, y_hi):
        y = sy(yv)
        parts.append(
            f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" '
            'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{y + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{(ml + width - mr) / 2:.1f}" y="{height - 10}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif">time [s]</text>'
    )
    parts.append(
        f'<text x="16" y="{(mt + height - mb) / 2:.1f}" font-size="13" '
        'text-anchor="middle" font-family="sans-serif" '
        f'transform="rotate(-90 16 {(mt + height - mb) / 2:.1f})">output</text>'
    )
    for c in range(ys.shape[1]):
        col = ys[:, c]
        pts = " ".join(
            f"{sx(tv):.2f},{sy(v):.2f}"
            for tv, v in zip(t, col)
            if math.isfinite(v)
        )
        color = _PALETTE[c % len(_PALETTE)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


def _output_dir(args) -> Path:
    if getattr(args, "output_dir", None):
        return Path(args.output_dir)
    if os.environ.get("IFPSYNC_OUTPUT_DIR"):
        return Path(os.environ["IFPSYNC_OUTPUT_DIR"])
    return Path.cwd()


def write_artifacts(
    out_dir: Path,
    runs: Sequence[tuple[str, SimResult, Optional[dict]]],
    plot: bool,
    force: bool,
) -> list[dict]:
    """Write the artifacts of every (stem, result, report) run into out_dir.

    Each run gets <stem>.csv and <stem>.metrics.json, <stem>.svg when plot
    is set, and <stem>.report.json when its report is not None. Every target
    is checked before any is written: unless force is set, one that exists
    raises FileExistsError and nothing is written. Returns one summary per
    run: the report (or an empty dict) with its "metrics" (the .metrics.json
    content) and the "artifacts" paths added; .report.json holds the
    summary without "artifacts".
    """
    plans = []
    for stem, _, report in runs:
        paths = {"csv": out_dir / f"{stem}.csv", "metrics": out_dir / f"{stem}.metrics.json"}
        if plot:
            paths["svg"] = out_dir / f"{stem}.svg"
        if report is not None:
            paths["report"] = out_dir / f"{stem}.report.json"
        plans.append(paths)
    clash = [str(p) for paths in plans for p in paths.values() if p.exists()]
    if clash and not force:
        raise FileExistsError(
            "refusing to overwrite existing files (pass --force): " + ", ".join(clash)
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    summaries = []
    for (_, result, report), paths in zip(runs, plans):
        metrics = result.metrics.to_json_dict()
        metrics["diverged"] = bool(result.diverged)
        metrics["t_diverged"] = None if result.t_diverged is None else float(result.t_diverged)
        metrics["n_samples"] = int(result.times.shape[0])
        summary = dict(report or {}, metrics=metrics)
        write_csv(paths["csv"], result)
        _write_json(paths["metrics"], metrics)
        if plot:
            write_svg(paths["svg"], result)
        if report is not None:
            _write_json(paths["report"], summary)
        summary["artifacts"] = {kind: str(p) for kind, p in paths.items()}
        summaries.append(summary)
    return summaries


def _apply_overrides(config: SimConfig, args) -> SimConfig:
    """config with the --dt, --t-final and --tol values that were given."""
    flags = {k: getattr(args, k) for k in ("dt", "t_final", "tol")}
    return _sim_config(config, {k: v for k, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_object(args, what: str) -> dict:
    """The input file of a command that takes one JSON object."""
    d = json.loads(Path(args.input).read_text(encoding="utf-8"))
    if not isinstance(d, dict):
        raise IfpSyncError(f"{args.command} needs a {what} object, got a JSON {type(d).__name__}")
    return d


def cmd_ifp(args) -> int:
    tf = RationalTF.from_coeffs(*_coeffs(_read_object(args, "transfer-function")))
    try:
        cert = ifp_index(tf)
    except NotCertifiable as e:
        print(json.dumps({"certifiable": False, "reason": str(e)}, indent=2, sort_keys=True))
        return EXIT_NOT_CERTIFIABLE
    report = cert.to_json_dict()
    report["certifiable"] = True
    report["conditions"] = prl_conditions(tf, cert.alpha).to_json_dict()
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _alphas_from_json(d: dict) -> list[float]:
    """The given alpha list, or every agent's passivity deficit: all agents
    are parsed first, the LTI ones then go through one ifp_indices batch. The
    first agent in input order whose deficit is undefined raises, named by
    its index."""
    if "alpha" in d:
        return numbers("alpha", d["alpha"]).tolist()
    if "agents" not in d:
        raise IfpSyncError("certify JSON needs either an 'alpha' array or an 'agents' list")
    agents = _agents_from_json(d)
    certs = iter(ifp_indices([a.tf for a in agents if isinstance(a, LtiSiso)]))
    alphas = []
    for i, agent in enumerate(agents):
        try:
            cert = next(certs) if isinstance(agent, LtiSiso) else None
            if isinstance(cert, NotCertifiable):
                raise cert
            alphas.append(agent.ifp_index() if cert is None else cert.alpha)
        except (NotCertifiable, MuTauViolation) as e:
            raise type(e)(f"agent {i}: {e}") from None
    return alphas


def cmd_certify(args) -> int:
    d = _read_object(args, "network")
    g = build_digraph(field(d, "adjacency"))
    del d["adjacency"]  # free the parsed lists before the heavy work
    alphas = _alphas_from_json(d)
    if args.reference:
        verdict = check_weak_coupling_pinned(g, alphas, _pinning(d, g.n))
    else:
        verdict = check_weak_coupling(g, alphas)
    report = {"weak_coupling": verdict.to_json_dict(), "alpha": alphas}
    passes = verdict.passes
    if "gains" in d:
        gv = check_platoon_gains(_gains(d["gains"]))
        report["gains"] = gv.to_json_dict()
        passes = passes and gv.passes
    report["passes"] = passes
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK if passes else EXIT_CERT_FAIL


def cmd_simulate(args) -> int:
    in_path = Path(args.input)
    d = _read_object(args, "network")
    agents, protocol, config = load_network(d)
    del d  # free the parsed JSON (a dense adjacency list) before simulating
    config = _apply_overrides(config, args)
    result = simulate(agents, protocol, config)
    (summary,) = write_artifacts(
        _output_dir(args), [(in_path.stem, result, None)], args.plot, args.force
    )
    print(json.dumps(summary, indent=2, sort_keys=True))
    return EXIT_DIVERGED if result.diverged else EXIT_OK


def cmd_scenario(args) -> int:
    in_path = Path(args.input)
    data = json.loads(in_path.read_text(encoding="utf-8"))
    if args.sweep:
        if not isinstance(data, list):
            raise IfpSyncError("--sweep expects the input file to hold a JSON list of scenarios")
        data = [json_object(f"scenario {i}", d) for i, d in enumerate(data)]
        stems = [f"{in_path.stem}_{i:03d}" for i in range(len(data))]
    elif isinstance(data, list):
        raise IfpSyncError("input holds a scenario list; pass --sweep to run it")
    else:
        data, stems = [json_object("scenario", data)], [in_path.stem]
    entries = [scenario_from_dict(d) for d in data]
    runs = run_scenarios([(k, spec, _apply_overrides(cfg, args)) for k, spec, cfg in entries])
    summaries = write_artifacts(
        _output_dir(args),
        [(stem, run.sim, run.to_json_dict()) for stem, run in zip(stems, runs)],
        args.plot,
        args.force,
    )
    print(json.dumps(summaries if args.sweep else summaries[0], indent=2, sort_keys=True))
    return max((EXIT_DIVERGED if run.sim.diverged else EXIT_OK for run in runs), default=EXIT_OK)


# ---------------------------------------------------------------------------
# parser / main
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on bad usage; the exit-code contract
    reserves 2 for 'not certifiable', so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output-dir", default=None,
                   help="artifact directory (default: $IFPSYNC_OUTPUT_DIR or the cwd)")
    p.add_argument("--force", action="store_true", help="overwrite existing artifacts")
    p.add_argument("--plot", action="store_true", help="also write an SVG trajectory plot")
    p.add_argument("--dt", type=float, default=None, help="override integration step")
    p.add_argument("--t-final", dest="t_final", type=float, default=None,
                   help="override simulation horizon")
    p.add_argument("--tol", type=float, default=None,
                   help="override the synchronization tolerance")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ifp-syncnet",
                     description="Synchronization certificates and simulations "
                                 "for networks of input-feedforward-passive agents.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{ifp,certify,simulate,scenario}")

    p = sub.add_parser("ifp", help="passivity deficit of a transfer function JSON")
    p.add_argument("input", help="JSON file with ascending 'num' and 'den' coefficient arrays")
    p.set_defaults(func=cmd_ifp)

    p = sub.add_parser("certify", help="weak-coupling certificate for a network JSON")
    p.add_argument("input", help="JSON with adjacency and alpha array (or agents list)")
    p.add_argument("--reference", action="store_true",
                   help="use the pinned (reference-tracking) certificate with the b vector")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="integrate a network JSON and write CSV/JSON/SVG")
    p.add_argument("input", help="network JSON file")
    _add_output_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scenario", help="run a prebuilt scenario JSON (or a --sweep list)")
    p.add_argument("input", help="scenario JSON file")
    p.add_argument("--sweep", action="store_true",
                   help="treat the input as a JSON list and run its entries, "
                        "batched by group")
    _add_output_flags(p)
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NotCertifiable, MuTauViolation) as e:
        print(f"not certifiable: {e}", file=sys.stderr)
        return EXIT_NOT_CERTIFIABLE
    except (IfpSyncError, OSError, KeyError, TypeError, ValueError, OverflowError,
            json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
