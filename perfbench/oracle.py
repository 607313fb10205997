"""Independent references and output checks for the benchmark workloads.

The references are computed here with numpy alone, from the generated inputs,
without importing the program: each RK4 integration is written out again, and
the passivity deficits come from their closed forms. Outputs must agree with
the references to rounding (TRAJ_RTOL relative to the trajectory's scale), so
a reformulation that changes the last digits passes and a wrong trajectory,
verdict, flag, exit code or row count fails.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from workloads import Workload

TRAJ_RTOL = 1e-8
ALPHA_RTOL = 1e-7
SLACK_ATOL = 1e-9
PERRON_RTOL = 1e-8
BLOWUP = 1e12
EXIT_OK, EXIT_DIVERGED = 0, 4


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def _rk4_affine(m_mat, b_mat, forcing, x0, dt, steps, stride):
    """Recorded states of x' = M x + B w(t) by classical RK4 (record every
    `stride` steps, step k at time k*dt); forcing(t) gives w(t)."""
    x = np.asarray(x0, dtype=float).copy()
    rec = [x.copy()]
    half = 0.5 * dt
    for k in range(steps):
        t = k * dt
        f0 = b_mat @ forcing(t)
        fm = b_mat @ forcing(t + half)
        f1 = b_mat @ forcing(t + dt)
        k1 = m_mat @ x + f0
        k2 = m_mat @ (x + half * k1) + fm
        k3 = m_mat @ (x + half * k2) + fm
        k4 = m_mat @ (x + dt * k3) + f1
        x = x + dt / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)
        if (k + 1) % stride == 0:
            rec.append(x.copy())
    return np.array(rec)


def _companion(agents):
    """Block-diagonal (A, B, C) with each agent's state (y, y', y'', ...)."""
    dims = [len(a.den) - 1 for a in agents]
    nx = sum(dims)
    a_blk = np.zeros((nx, nx))
    b_blk = np.zeros((nx, len(agents)))
    c_blk = np.zeros((len(agents), nx))
    o = 0
    for i, (ag, d) in enumerate(zip(agents, dims)):
        a_blk[o:o + d - 1, o + 1:o + d] = np.eye(d - 1)
        a_blk[o + d - 1, o:o + d] = -np.asarray(ag.den[:-1])
        b_blk[o + d - 1, i] = ag.gain
        c_blk[i, o] = 1.0
        o += d
    return a_blk, b_blk, c_blk


def _laplacian(adj):
    return np.diag(adj.sum(axis=1)) - adj


def _sup_tail(times, y):
    """Largest spread of scalar outputs over the last 10% of the horizon."""
    tail_start = times[-1] - 0.1 * (times[-1] - times[0])
    tail = y[times >= tail_start - 1e-12]
    return float((tail.max(axis=1) - tail.min(axis=1)).max())


def platoon_reference(model: dict) -> dict:
    """Physical-coordinate CACC platoon: vehicles (q, v, a), chain graph with
    predecessor gains eta and successor gains nu, leader pinned on vehicle 0,
    feedforward mu*v0 - eta*s_i + nu*s_{i+1}."""
    sc = model["scenario"]
    g = sc["gains"]
    mu, eta, nu, tau = (np.array(g[k], dtype=float) for k in ("mu", "eta", "nu", "tau"))
    s = np.array(sc["s"], dtype=float)
    v0, q0 = float(sc["v0"]), float(sc["q0_init"])
    n = len(mu)
    adj = np.zeros((n, n))
    for i in range(1, n):
        adj[i, i - 1] = eta[i]
    for i in range(n - 1):
        adj[i, i + 1] = nu[i]
    b = np.zeros(n)
    b[0] = eta[0]
    u_bar = mu * v0 - eta * s
    u_bar[:-1] += nu * s[1:]
    a_blk = np.zeros((3 * n, 3 * n))
    b_blk = np.zeros((3 * n, n))
    c_blk = np.zeros((n, 3 * n))
    for i in range(n):
        o = 3 * i
        a_blk[o, o + 1] = a_blk[o + 1, o + 2] = 1.0
        a_blk[o + 2, o + 1] = -mu[i] / tau[i]
        a_blk[o + 2, o + 2] = -1.0 / tau[i]
        b_blk[o + 2, i] = 1.0 / tau[i]
        c_blk[i, o] = 1.0
    k_mat = _laplacian(adj) + np.diag(b)
    m_mat = a_blk - b_blk @ k_mat @ c_blk
    x0 = np.ravel(np.column_stack([sc["q_init"], sc["v_init"], sc["a_init"]]))
    dt = float(sc["sim"]["dt"])
    steps = round(sc["sim"]["t_final"] / dt)
    stride = int(sc["sim"]["record_stride"])
    xs = _rk4_affine(m_mat, b_blk, lambda t: b * (q0 + v0 * t) + u_bar, x0, dt, steps, stride)
    times = np.arange(len(xs)) * stride * dt
    y = xs @ c_blk.T
    u = -y @ k_mat.T + (b[None, :] * (q0 + v0 * times[:, None]) + u_bar[None, :])
    shifted = y + np.cumsum(s)[None, :]
    pred = np.concatenate([(q0 + v0 * times)[:, None], y[:, :-1]], axis=1)
    alpha = 1.0 / mu**2
    slack = 0.5 - alpha * (adj.sum(axis=1) + 2.0 * b)
    return {
        "times": times, "y": y, "u": u,
        "synchronized": _sup_tail(times, shifted) < 1e-3,
        "spacing_error": float(np.abs(pred[-1] - y[-1] - s).max()),
        "slack": slack,
    }


def ring_reference(model: dict) -> dict:
    """Undelayed plain coupling: one RK4 step is x+ = P(hM) x with P the RK4
    stability polynomial, so recorded rows follow from P(hM)^stride."""
    a_blk, b_blk, c_blk = _companion(model["agents"])
    lap = _laplacian(model["adjacency"])
    hm = model["dt"] * (a_blk - b_blk @ lap @ c_blk)
    eye = np.eye(hm.shape[0])
    phi = eye + hm @ (eye + hm @ (eye + hm @ (eye + hm / 4.0) / 3.0) / 2.0)
    step = np.linalg.matrix_power(phi, model["stride"])
    x = np.zeros(hm.shape[0])
    x[np.flatnonzero(c_blk.any(axis=0))] = model["y0"]
    rows = model["steps"] // model["stride"] + 1
    xs = np.empty((rows, x.size))
    xs[0] = x
    for r in range(1, rows):
        xs[r] = step @ xs[r - 1]
    times = np.arange(rows) * model["stride"] * model["dt"]
    y = xs @ c_blk.T
    u = -y @ lap.T
    sup = _sup_tail(times, y)
    return {"times": times, "y": y, "u": u, "sup_tail": sup, "synchronized": sup < model["tol"]}


def sweep_reference(model: dict) -> list[dict]:
    """Delayed integrators v_i' = u_i(t - theta_i) on a bidirectional ring,
    all entries at once. Delays are whole steps D_i, so the RK4 stages read
    the stored input at step k - D_i (start), the mean of steps k - D_i and
    k - D_i + 1 (midpoint) and step k + 1 - D_i (end); inputs before t = 0
    are zero. A run stops at the first step whose state exceeds BLOWUP."""
    entries = model["entries"]
    e, n = len(entries), entries[0]["n"]
    sim = entries[0]["sim"]
    dt, stride = float(sim["dt"]), int(sim["record_stride"])
    steps = round(sim["t_final"] / dt)
    gains = np.array([en["K"] for en in entries])
    ring = np.zeros((n, n))
    for i in range(n):
        ring[i, (i - 1) % n] = ring[i, (i + 1) % n] = 1.0
    lap = _laplacian(ring)
    d = np.array([round(th / dt) for th in entries[0]["delays"]])
    cols = np.arange(n)
    x = np.tile(np.array(entries[0]["v_init"], dtype=float), (e, 1))
    hist = np.zeros((steps + 2, e, n))
    live = np.ones(e, dtype=bool)
    t_div = [None] * e
    rec = [[x[j].copy()] for j in range(e)]

    def delayed(idx):
        ok = idx >= 0
        out = np.zeros((e, n))
        out[:, ok] = hist[idx[ok], :, cols[ok]].T
        return out

    for k in range(steps):
        hist[k] = -gains[:, None] * (x @ lap.T)
        w0 = delayed(k - d)
        wm = np.where(k - d >= 0, 0.5 * (w0 + delayed(k - d + 1)), 0.0)
        w1 = delayed(k + 1 - d)
        x = x + dt / 6.0 * (w0 + 4.0 * wm + w1)
        bad = live & ~(np.abs(x).max(axis=1) <= BLOWUP)
        for j in np.flatnonzero(bad):
            t_div[j] = (k + 1) * dt
        live &= ~bad
        x[~live] = 0.0
        if (k + 1) % stride == 0:
            for j in np.flatnonzero(live):
                rec[j].append(x[j].copy())
    out = []
    for j, en in enumerate(entries):
        y = np.array(rec[j])
        times = np.arange(len(y)) * stride * dt
        slack = 0.5 - np.array(en["delays"]) * 2.0 * en["K"]
        sup = _sup_tail(times, y)
        out.append({
            "times": times, "y": y, "u": -gains[j] * (y @ lap.T),
            "diverged": t_div[j] is not None, "t_diverged": t_div[j],
            "sup_tail": sup, "synchronized": t_div[j] is None and sup < 1e-3,
            "slack": slack, "passes": bool(np.all(slack > 0.0)),
        })
    return out


def certify_reference(model: dict) -> dict:
    adj = model["adjacency"]
    alpha = np.array([a.alpha for a in model["agents"]])
    slack = 0.5 - alpha * adj.sum(axis=1)
    return {"alpha": alpha, "slack": slack, "lap": _laplacian(adj),
            "passes": bool(np.all(slack > 0.0))}


REFERENCES = {
    "platoon": platoon_reference,
    "wide_ring": ring_reference,
    "traffic_sweep": sweep_reference,
    "certify_wide": certify_reference,
}


def reference(w: Workload):
    return REFERENCES[w.name](w.model)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages per operation
# ---------------------------------------------------------------------------

def _close(errs, what, got, want, rtol=TRAJ_RTOL):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        errs.append(f"{what}: shape {got.shape} != reference {want.shape}")
        return
    scale = max(1.0, float(np.abs(want).max()) if want.size else 1.0)
    err = float(np.abs(got - want).max()) if want.size else 0.0
    if not err <= rtol * scale:
        errs.append(f"{what}: max deviation {err:.3e} exceeds {rtol:.0e} x {scale:.3e}")


def _equal(errs, what, got, want):
    if got != want:
        errs.append(f"{what}: {got!r} != reference {want!r}")


def _check_csv(errs, path: Path, ref: dict):
    if not path.is_file():
        errs.append(f"missing {path.name}")
        return
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n = ref["y"].shape[1]
    _equal(errs, f"{path.name} rows", data.shape[0], ref["y"].shape[0])
    if data.shape[0] == ref["y"].shape[0] and data.shape[1] == 1 + 2 * n:
        _close(errs, f"{path.name} t", data[:, 0], ref["times"])
        _close(errs, f"{path.name} y", data[:, 1:1 + n], ref["y"])
        _close(errs, f"{path.name} u", data[:, 1 + n:], ref["u"])
    elif data.shape[1] != 1 + 2 * n:
        errs.append(f"{path.name}: {data.shape[1]} columns, expected {1 + 2 * n}")


def _load_json(errs, path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        errs.append(f"{path.name}: {e}")
        return None


def check_platoon(out: Path, code: int, stdout: str, ref: dict) -> list[list[str]]:
    errs: list[str] = []
    _equal(errs, "exit code", code, EXIT_OK)
    _check_csv(errs, out / "platoon.csv", ref)
    rep = _load_json(errs, out / "platoon.report.json")
    if rep is not None:
        _equal(errs, "certificate.passes", rep["certificate"]["passes"], True)
        _close(errs, "pinned slack", rep["certificate"]["pinned"]["slack"], ref["slack"], SLACK_ATOL)
        _equal(errs, "synchronized", rep["synchronized"], ref["synchronized"])
        _equal(errs, "diverged", rep["diverged"], False)
        _close(errs, "terminal spacing error", rep["terminal_abs_spacing_error"], ref["spacing_error"])
        _equal(errs, "n_samples", rep["metrics"]["n_samples"], len(ref["times"]))
    return [errs]


def check_ring(out: Path, code: int, stdout: str, ref: dict) -> list[list[str]]:
    errs: list[str] = []
    _equal(errs, "exit code", code, EXIT_OK)
    _check_csv(errs, out / "ring.csv", ref)
    met = _load_json(errs, out / "ring.metrics.json")
    if met is not None:
        _equal(errs, "synchronized", met["synchronized"], ref["synchronized"])
        _equal(errs, "diverged", met["diverged"], False)
        _equal(errs, "n_samples", met["n_samples"], len(ref["times"]))
        _close(errs, "pairwise_sup_tail", met["pairwise_sup_tail"], ref["sup_tail"])
        y, t = ref["y"], ref["times"]
        l2 = np.asarray(met["l2_pairwise"])
        for i, j in ((0, 1), (0, y.shape[1] // 2), (y.shape[1] - 2, y.shape[1] - 1)):
            want = np.trapezoid((y[:, i] - y[:, j]) ** 2, t)
            _close(errs, f"l2_pairwise[{i},{j}]", l2[i, j], want, 1e-6)
    return [errs]


def check_sweep(out: Path, code: int, stdout: str, refs: list[dict]) -> list[list[str]]:
    results = []
    want_code = EXIT_DIVERGED if any(r["diverged"] for r in refs) else EXIT_OK
    for i, ref in enumerate(refs):
        errs: list[str] = []
        _equal(errs, "sweep exit code", code, want_code)
        stem = f"sweep_{i:03d}"
        _check_csv(errs, out / f"{stem}.csv", ref)
        rep = _load_json(errs, out / f"{stem}.report.json")
        if rep is not None:
            cert = rep["certificate"]
            _equal(errs, "certificate.passes", cert["passes"], ref["passes"])
            _close(errs, "slack", cert["weak_coupling"]["slack"], ref["slack"], SLACK_ATOL)
            _equal(errs, "diverged", rep["diverged"], ref["diverged"])
            _equal(errs, "synchronized", rep["synchronized"], ref["synchronized"])
            _equal(errs, "n_samples", rep["metrics"]["n_samples"], len(ref["times"]))
            t_div = rep["metrics"]["t_diverged"]
            if (t_div is None) != (ref["t_diverged"] is None) or (
                    t_div is not None and abs(t_div - ref["t_diverged"]) > 1e-9):
                errs.append(f"t_diverged {t_div} != reference {ref['t_diverged']}")
            _close(errs, "pairwise_sup_tail", rep["pairwise_sup_tail"], ref["sup_tail"])
        results.append([f"entry {i}: {e}" for e in errs])
    return results


def check_certify(out: Path, code: int, stdout: str, ref: dict) -> list[list[str]]:
    errs: list[str] = []
    want_code = EXIT_OK if ref["passes"] else 3
    _equal(errs, "exit code", code, want_code)
    try:
        rep = json.loads(stdout)
    except ValueError as e:
        return [errs + [f"stdout is not JSON: {e}"]]
    wc = rep["weak_coupling"]
    _equal(errs, "passes", rep["passes"], ref["passes"])
    _equal(errs, "strongly_connected", wc["strongly_connected"], True)
    _close(errs, "alpha", rep["alpha"], ref["alpha"], ALPHA_RTOL)
    _close(errs, "slack", wc["slack"], ref["slack"], SLACK_ATOL)
    if wc["kappa"] is None:
        errs.append("kappa missing on a strongly connected graph")
    else:
        p = np.asarray(wc["kappa"]) / np.asarray(wc["slack"])
        residual = float(np.abs(p @ ref["lap"]).max())
        bound = PERRON_RTOL * float(p.max()) * float(np.abs(ref["lap"]).max())
        if not (np.all(p > 0.0) and abs(p.sum() - 1.0) < 1e-9 and residual <= bound):
            errs.append(f"Perron weights: min {p.min():.3e}, sum {p.sum():.12f}, "
                        f"|p^T L| {residual:.3e} (bound {bound:.3e})")
    return [errs]


CHECKS = {
    "platoon": check_platoon,
    "wide_ring": check_ring,
    "traffic_sweep": check_sweep,
    "certify_wide": check_certify,
}


def check(w: Workload, ref, out: Path, code: int, stdout: str) -> list[list[str]]:
    """Failure messages for each operation of one invocation (empty = pass)."""
    try:
        return CHECKS[w.name](out, code, stdout, ref)
    except (KeyError, TypeError, IndexError, ValueError) as e:
        return [[f"malformed output: {e!r}"]] * w.operations
