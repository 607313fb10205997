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
  under a deterministic indexed name. When two or more CPUs are usable, a
  forked worker process writes half of the sweep's CSVs (and SVGs) while the
  main process writes the rest; the bytes are the same as a serial write.

Exit codes: 0 success/pass, 1 input error, 2 not certifiable, 3 certificate
fail, 4 divergence, 141 standard output closed by its reader. Artifacts land
in --output-dir, else $IFPSYNC_OUTPUT_DIR, else the working directory; without
--force, a command with an existing target exits 1 before it writes any file.
CSV output is UTF-8 with LF line endings and shortest round-trip float
formatting, so identical runs produce identical bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .certify import check_platoon_gains, check_weak_coupling
from .errors import (
    IfpSyncError, MuTauViolation, NotCertifiable, field, integer, json_list, json_object,
    number, numbers, where,
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
    TimeFn,
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
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a reader that left


# ---------------------------------------------------------------------------
# JSON -> objects
# ---------------------------------------------------------------------------

# the keys of each JSON object the loader reads, as docs/network.schema.json,
# docs/certify.schema.json and docs/tf.schema.json list them
_NETWORK_KEYS = ("adjacency", "agents", "protocol", "sim", "initial_histories")
_PROTOCOL_KEYS = ("type", "b", "y_bar", "u_bar")
_AGENT_KEYS = ("type", "num", "den", "delay", "dim", "tau", "mu", "x0")
_TIME_FN_KEYS = ("kind", "value", "offset", "slope", "amplitude", "omega", "phase")
_TF_KEYS = ("num", "den")
# a network file certifies as it is: certify accepts its keys and ignores
# those it does not read
_CERTIFY_KEYS = ("adjacency", "agents", "alpha", "b", "gains", "protocol", "sim",
                 "initial_histories")


def time_fn_from_dict(d, name: str = "time function") -> TimeFn:
    """Deserialize a time function: a bare number is a constant; otherwise a
    dict with kind 'constant' {value}, 'ramp' {offset, slope}, or 'sin'
    {amplitude, omega, phase}. Every parameter must be a finite number. An
    error starts with the field's `name` ("y_bar: ")."""
    prefix = f"{name}: "
    if isinstance(d, (int, float)):  # number() refuses a boolean
        return TimeFn(number(f"{prefix}value", d))
    if not isinstance(d, dict):
        raise IfpSyncError(
            f"{prefix}a time function is a number or an object, got {type(d).__name__}"
        )
    kind = field(json_object(name, d, _TIME_FN_KEYS), "kind", prefix)

    def param(key: str, default=None) -> float:
        v = field(d, key, prefix) if default is None else d.get(key, default)
        return number(prefix + key, v)

    if kind == "constant":
        return TimeFn(param("value"))
    if kind == "ramp":
        return TimeFn(param("offset", 0.0), param("slope", 0.0))
    if kind == "sin":
        return TimeFn(amplitude=param("amplitude", 1.0), omega=param("omega"),
                      phase=param("phase", 0.0))
    raise IfpSyncError(f"{prefix}unknown time-function kind {kind!r}")


def _time_fns(name: str, value) -> tuple:
    """A list of optional time functions, entry i named name[i] in errors."""
    return tuple(None if x is None else time_fn_from_dict(x, f"{name}[{i}]")
                 for i, x in enumerate(json_list(name, value)))


def agent_from_dict(d: dict, prefix: str = "") -> AgentModel:
    """Deserialize one agent: type 'lti' {num, den}, 'delayed_integrator'
    {delay, dim}, or 'vehicle' {tau, mu}. Polynomial coefficients ascending.
    An error, also one the model raises, starts with `prefix` ("agent 3: ")."""
    with where(prefix):
        kind = d.get("type", "lti")
        if kind == "lti":
            return LtiSiso.from_coeffs(*_coeffs(d))
        if kind == "delayed_integrator":
            return DelayedIntegrator(delay=number("delay", d.get("delay", 0.0)),
                                     dim=integer("dim", d.get("dim", 1)))
        if kind == "vehicle":
            return Vehicle3rd(*(number(k, field(d, k)) for k in ("tau", "mu")))
        raise IfpSyncError(f"unknown agent type {kind!r}")


def _coeffs(d: dict) -> tuple:
    """A transfer function's `num` and `den` lists (Polynomial names a non-finite entry)."""
    return tuple(numbers(k, field(d, k), finite=False) for k in ("num", "den"))


def _agents_from_json(d: dict) -> list[AgentModel]:
    """The network's `agents` list, each entry a JSON object named by its index."""
    entries = json_list("agents", field(d, "agents"))
    return [agent_from_dict(json_object(f"agent {i}", a, _AGENT_KEYS), f"agent {i}: ")
            for i, a in enumerate(entries)]


def _pinning(d: dict, n: int) -> np.ndarray:
    """The pinning gains `b` of a protocol or a certify file; zeros when absent."""
    return numbers("b", d["b"]) if "b" in d else np.zeros(n)


def _certify_pinning(d: dict, n: int) -> np.ndarray:
    """The pinning gains of `certify --reference`: the top-level `b`, else the
    `b` of a `reference` protocol, else zeros."""
    proto = json_object("protocol", d.get("protocol", {}), _PROTOCOL_KEYS)
    if proto.get("type") == "reference" and "b" in proto:
        if "b" in d:
            raise IfpSyncError("b is given both at the top level and in protocol; give it once")
        d = proto
    return _pinning(d, n)


def load_network(d: dict):
    """(agents, protocol, SimConfig) from a network JSON dictionary.

    Top-level keys: adjacency (row i = arcs into agent i), agents (typed
    list, each optionally carrying x0), protocol ({'type': 'plain'} or
    {'type': 'reference', b, u_bar, y_bar}), sim (dt, t_final,
    record_stride, tol, blowup), initial_histories (per-agent time function
    giving the pre-start input of delayed agents). A key that the schema does
    not list, at the top level, in the protocol, an agent or a time
    function, is refused.
    """
    g = build_digraph(field(json_object("network", d, _NETWORK_KEYS), "adjacency"))
    agents = _agents_from_json(d)
    if g.n != len(agents):
        raise IfpSyncError(f"adjacency is {g.n}x{g.n} but {len(agents)} agents given")

    proto_d = json_object("protocol", d.get("protocol", {"type": "plain"}), _PROTOCOL_KEYS)
    pkind = proto_d.get("type", "plain")
    if pkind == "plain":
        protocol = Plain(g)
    elif pkind == "reference":
        b = _pinning(proto_d, g.n)
        y_bar = time_fn_from_dict(proto_d["y_bar"], "y_bar") if "y_bar" in proto_d else None
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


def _write_text(path: Path, text: str) -> None:
    path.write_text(text + "\n", encoding="utf-8", newline="\n")


def _splice(head: dict, block: str) -> str:
    """json.dumps(dict(head, metrics=...), indent=2, sort_keys=True), given the
    metrics rendered alone at depth 0 as `block`. A placeholder keeps the key
    where sort_keys puts it; its line is the only one that starts with two
    spaces and "metrics", and JSON text holds no raw newline inside a string,
    so the block moves one level down by re-indenting its newlines."""
    key = '\n  "metrics": '
    before, _, after = json.dumps(dict(head, metrics=0), indent=2,
                                  sort_keys=True).partition(key + "0")
    return before + key + block.replace("\n", "\n  ") + after


def _json_list(texts: Sequence[str]) -> str:
    """json.dumps(items, indent=2) from each item's text rendered at depth 0."""
    if not texts:
        return "[]"
    return "[\n  " + ",\n  ".join(t.replace("\n", "\n  ") for t in texts) + "\n]"


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    """count evenly spaced values from lo to hi. They are formed on halved
    operands, which is exact, so that a span beyond the float range does not
    overflow."""
    return [2.0 * (lo / 2 + (hi / 2 - lo / 2) * (k / (count - 1))) for k in range(count)]


def _place(v: float, lo: float, hi: float) -> float:
    """(v - lo) / (hi - lo), on halved operands like `_ticks`."""
    return (v / 2 - lo / 2) / (hi / 2 - lo / 2)


def _span(lo: float, hi: float) -> tuple[float, float]:
    """(lo, hi) with lo < hi: an empty span widens by 1 on each side, or by
    the float spacing at lo where the two sides +-1 round to one value."""
    if hi > lo:
        return lo, hi
    w = 1.0 if lo - 1.0 < hi + 1.0 else math.ulp(lo)
    return lo - w, hi + w


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

    t_lo, t_hi = _span(float(t[0]), float(t[-1]))
    finite = ys[np.isfinite(ys)]
    y_lo, y_hi = (float(finite.min()), float(finite.max())) if finite.size else (0.0, 0.0)
    y_lo, y_hi = _span(y_lo, y_hi)
    # the padded axis, clamped to the float range; pad is half the padding
    pad = 0.05 * (y_hi / 2 - y_lo / 2)
    big = sys.float_info.max
    y_lo, y_hi = max(2.0 * (y_lo / 2 - pad), -big), min(2.0 * (y_hi / 2 + pad), big)

    def sx(v: float) -> float:
        return ml + _place(v, t_lo, t_hi) * (width - ml - mr)

    def sy(v: float) -> float:
        return height - mb - _place(v, y_lo, y_hi) * (height - mt - mb)

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
    return Path(args.output_dir or os.environ.get("IFPSYNC_OUTPUT_DIR") or Path.cwd())


def _write_trajectories(items: Sequence[tuple[SimResult, dict]], plot: bool) -> None:
    """The CSV (and with plot the SVG) of each (result, paths) item."""
    for result, paths in items:
        write_csv(paths["csv"], result)
        if plot:
            write_svg(paths["svg"], result)


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _send_outcome(conn, fn, args) -> None:
    """Run fn(*args) in a worker process and send None, or the exception it
    raised, to the parent."""
    try:
        fn(*args)
        outcome = None
    except BaseException as e:  # the parent re-raises it
        outcome = e
    conn.send(outcome)


def _start_worker(fn, args):
    """A forked process running fn(*args), and the end of a one-way pipe that
    brings back its outcome (see _join_worker)."""
    import multiprocessing  # here, so that importing the CLI stays cheap

    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_send_outcome, args=(send, fn, args))
    # the child flushes its copies of the standard streams when it exits
    sys.stdout.flush()
    sys.stderr.flush()
    proc.start()
    send.close()
    return proc, recv


def _join_worker(proc, recv) -> Optional[BaseException]:
    """Wait for the worker; the exception it raised, if any."""
    try:
        outcome = recv.recv()
    except EOFError:  # it ended without reporting
        outcome = None
    finally:
        recv.close()
        proc.join()
    if outcome is None and proc.exitcode != 0:
        outcome = ChildProcessError(f"the CSV writer process ended with code {proc.exitcode}")
    return outcome


def write_artifacts(
    out_dir: Path,
    runs: Sequence[tuple[str, SimResult, Optional[dict]]],
    plot: bool,
    force: bool,
) -> tuple[list[dict], list[str]]:
    """Write the artifacts of every (stem, result, report) run into out_dir.

    Each run gets <stem>.csv and <stem>.metrics.json, <stem>.svg when plot
    is set, and <stem>.report.json when its report is not None. Every target
    is checked before any is written: unless force is set, one that exists
    raises FileExistsError and nothing is written. Returns one summary per
    run, the report (or an empty dict) with its "metrics" (the .metrics.json
    content) and the "artifacts" paths added, and each summary's text as
    json.dumps(summary, indent=2, sort_keys=True) renders it; .report.json
    holds the summary without "artifacts".

    Each metrics block is rendered once, and spliced into the report and the
    summary text. With two or more runs and two or more usable CPUs, a forked
    worker process writes the CSVs and SVGs of the odd-indexed runs while
    this process writes the rest; the bytes are the same either way.
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
    trajectories = [(result, paths) for (_, result, _), paths in zip(runs, plans)]
    worker = None
    if len(runs) > 1 and _usable_cpus() > 1:
        worker = _start_worker(_write_trajectories, (trajectories[1::2], plot))
    try:
        _write_trajectories(trajectories if worker is None else trajectories[::2], plot)
        summaries, texts = [], []
        for (_, result, report), paths in zip(runs, plans):
            metrics = result.metrics.to_json_dict()
            metrics["diverged"] = bool(result.diverged)
            metrics["t_diverged"] = (None if result.t_diverged is None
                                     else float(result.t_diverged))
            metrics["n_samples"] = int(result.times.shape[0])
            block = json.dumps(metrics, indent=2, sort_keys=True)
            _write_text(paths["metrics"], block)
            if report is not None:
                _write_text(paths["report"], _splice(report, block))
            artifacts = {kind: str(p) for kind, p in paths.items()}
            summaries.append(dict(report or {}, metrics=metrics, artifacts=artifacts))
            texts.append(_splice(dict(report or {}, artifacts=artifacts), block))
    finally:
        failure = None if worker is None else _join_worker(*worker)
    if failure is not None:
        raise failure
    return summaries, texts


def _apply_overrides(config: SimConfig, args) -> SimConfig:
    """config with the --dt, --t-final and --tol values that were given."""
    flags = {k: getattr(args, k) for k in ("dt", "t_final", "tol")}
    return _sim_config(config, {k: v for k, v in flags.items() if v is not None})


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _read_object(args, what: str) -> dict:
    """The input file of a command that takes one JSON object; a square
    `adjacency` of numbers is read as its nonzero cells (see jsontext)."""
    from . import jsontext  # here, so that importing the CLI (and scenario) does not load it

    d = jsontext.loads(Path(args.input).read_text(encoding="utf-8"))
    if not isinstance(d, dict):
        raise IfpSyncError(f"{args.command} needs a {what} object, got a JSON {type(d).__name__}")
    return d


def cmd_ifp(args) -> int:
    d = json_object("transfer function", _read_object(args, "transfer-function"), _TF_KEYS)
    tf = RationalTF.from_coeffs(*_coeffs(d))
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
        with where(f"agent {i}: "):
            cert = next(certs) if isinstance(agent, LtiSiso) else None
            if isinstance(cert, IfpSyncError):
                raise cert
            alphas.append(agent.ifp_index() if cert is None else cert.alpha)
    return alphas


def cmd_certify(args) -> int:
    d = _read_object(args, "network")
    g = build_digraph(field(d, "adjacency"))
    json_object("certify", d, _CERTIFY_KEYS)
    del d["adjacency"]  # free json's lists, where the reader fell back to them
    alphas = _alphas_from_json(d)
    b = _certify_pinning(d, g.n) if args.reference else None
    verdict = check_weak_coupling(g, alphas, b)
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
    _, (text,) = write_artifacts(
        _output_dir(args), [(in_path.stem, result, None)], args.plot, args.force
    )
    print(text)
    return EXIT_DIVERGED if result.diverged else EXIT_OK


def cmd_scenario(args) -> int:
    in_path = Path(args.input)
    data = json.loads(in_path.read_text(encoding="utf-8"))
    if args.sweep:
        if not isinstance(data, list):
            raise IfpSyncError("--sweep expects the input file to hold a JSON list of scenarios")
        data = [json_object(f"scenario {i}", d) for i, d in enumerate(data)]
        stems = [f"{in_path.stem}_{i:03d}" for i in range(len(data))]
        names = [f"scenario {i}: " for i in range(len(data))]
    elif isinstance(data, list):
        raise IfpSyncError("input holds a scenario list; pass --sweep to run it")
    else:
        data, stems, names = [json_object("scenario", data)], [in_path.stem], [""]
    entries = []
    for name, d in zip(names, data):
        with where(name):
            kind, spec, config = scenario_from_dict(d)
            entries.append((kind, spec, _apply_overrides(config, args)))
    runs = run_scenarios(entries, names)
    _, texts = write_artifacts(
        _output_dir(args),
        [(stem, run.sim, run.to_json_dict()) for stem, run in zip(stems, runs)],
        args.plot,
        args.force,
    )
    print(_json_list(texts) if args.sweep else texts[0])
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
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader of standard output left; send what is still buffered to
        # devnull so that the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    except (NotCertifiable, MuTauViolation) as e:
        print(f"not certifiable: {e}", file=sys.stderr)
        return EXIT_NOT_CERTIFIABLE
    except (IfpSyncError, OSError, KeyError, TypeError, ValueError, OverflowError,
            json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
