"""Spans recorded from outside the program, and the per-layer metrics derived
from them.

`Tracer.install` replaces every public module-level function of the traced
modules with a wrapper in every ``ifpsync`` namespace that holds it, so calls
between modules and within one module are both seen. A span is
(name, start, end, parent index, attributes); spans stay in memory until the
invocation ends.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import types

LAYERS = ("cli", "scenarios", "certify", "graphnet", "passivity", "netsim")

# Spans that make up `cli.load_s` when a CLI command calls them directly.
LOAD_SPANS = frozenset({
    "cli.json_loads", "cli.load_network", "cli.agent_from_dict",
    "scenarios.scenario_from_dict", "graphnet.build_digraph",
})

# Metrics that are counts of work: they must repeat exactly across runs.
COUNTS = (
    "netsim.agent_steps", "netsim.state_dim", "netsim.records", "netsim.diverged_runs",
    "netsim.sync_metrics.calls", "graphnet.connectivity.calls", "graphnet.laplacian.calls",
    "passivity.ifp_index.calls",
)


class SerialPool:
    """Stand-in for ProcessPoolExecutor that runs every task in this process,
    so spans of sweep entries are recorded."""

    def __init__(self, max_workers=None):
        del max_workers

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1, None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if name == "netsim.simulate":
                spans[idx][4] = _simulate_attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self, serial_sweep: bool) -> None:
        import ifpsync.cli as cli

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"ifpsync.{layer}"]
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrappers[obj] = self.wrap(f"{layer}.{name}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "ifpsync" and not modname.startswith("ifpsync."):
                continue
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])
        json_mod = cli.json
        proxy = {k: getattr(json_mod, k) for k in json_mod.__all__}
        proxy["loads"] = self.wrap("cli.json_loads", json_mod.loads)
        cli.json = types.SimpleNamespace(**proxy)
        if serial_sweep:
            cli.ProcessPoolExecutor = SerialPool



def _simulate_attrs(args, kwargs, result) -> dict:
    agents = list(args[0] if args else kwargs["agents"])
    config = args[2] if len(args) > 2 else kwargs["config"]
    dt = float(config.dt)
    planned = int(math.floor(config.t_final / dt + 1e-9))  # netsim's grid snap
    steps = round(result.t_diverged / dt) if result.diverged else planned
    return {
        "agents": len(agents),
        "nx": sum(a.state_dim for a in agents),
        "rows": int(result.times.shape[0]),
        "alloc_rows": planned // config.record_stride + 1,
        "steps": steps,
        "diverged": bool(result.diverged),
    }


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times (seconds) and counts of one traced invocation."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        calls[name] = calls.get(name, 0) + 1

    def under(i: int, ancestor: str) -> bool:
        while i >= 0:
            if spans[i][0] == ancestor:
                return True
            i = spans[i][3]
        return False

    load = scen = 0.0
    for i, (name, start, end, parent, _) in enumerate(spans):
        if name in LOAD_SPANS and parent >= 0 and spans[parent][0].startswith("cli.cmd_"):
            load += end - start
        if name.startswith("scenarios.") and under(i, "scenarios.run_scenario"):
            scen += end - start - child[i]
    sims = [s[4] for s in spans if s[0] == "netsim.simulate" and s[4] is not None]
    sim_self = self_s.get("netsim.simulate", 0.0)
    agent_steps = sum(a["agents"] * a["steps"] for a in sims)
    return {
        "netsim.simulate.self_s": sim_self,
        "netsim.agent_steps_per_s": agent_steps / sim_self if sim_self > 0 else 0.0,
        "netsim.sync_metrics_s": self_s.get("netsim.sync_metrics", 0.0),
        "netsim.sync_metrics.calls": calls.get("netsim.sync_metrics", 0),
        "netsim.agent_steps": agent_steps,
        "netsim.state_dim": max((a["nx"] for a in sims), default=0),
        "netsim.records": sum(a["rows"] for a in sims),
        "netsim.diverged_runs": sum(a["diverged"] for a in sims),
        "netsim.record_mb": max((a["alloc_rows"] * a["nx"] * 8 / 1e6 for a in sims), default=0.0),
        "cli.write_csv_s": self_s.get("cli.write_csv", 0.0),
        "cli.load_s": load,
        "graphnet.perron_weights_s": self_s.get("graphnet.perron_weights", 0.0),
        "graphnet.connectivity_s": self_s.get("graphnet.connectivity", 0.0),
        "graphnet.connectivity.calls": calls.get("graphnet.connectivity", 0),
        "graphnet.laplacian.calls": calls.get("graphnet.laplacian", 0),
        "passivity.ifp_index_s": self_s.get("passivity.ifp_index", 0.0),
        "passivity.ifp_index.calls": calls.get("passivity.ifp_index", 0),
        "certify.check.self_s": self_s.get("certify.check_weak_coupling", 0.0)
        + self_s.get("certify.check_weak_coupling_pinned", 0.0),
        "scenarios.run_scenario.self_s": scen,
    }
