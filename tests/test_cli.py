"""Command-line interface: JSON in, exit codes and CSV/JSON/SVG artifacts out."""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifpsync import cli
from ifpsync.cli import load_network, main, time_fn_from_dict, write_csv
from ifpsync.netsim import SimResult, TimeFn, sync_metrics

CUBIC_TF = {"num": [1.0], "den": [0.0, 3.0, 2.0, 1.0]}

INTEGRATOR_PAIR = {
    "adjacency": [[0.0, 1.0], [1.0, 0.0]],
    "agents": [
        {"type": "lti", "num": [1.0], "den": [0.0, 1.0], "x0": [1.0]},
        {"type": "lti", "num": [1.0], "den": [0.0, 1.0], "x0": [0.0]},
    ],
    "protocol": {"type": "plain"},
    "sim": {"dt": 0.001, "t_final": 10.0, "record_stride": 10},
}

DIVERGING_TRIO = {
    "adjacency": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
    "agents": [
        {"type": "lti", "num": [1.0], "den": [0.0, 1.0, 1.0, 1.0], "x0": [0.5, 0.0, 0.0]},
        {"type": "lti", "num": [1.0], "den": [0.0, 1.0, 1.0, 1.0], "x0": [-0.3, 0.0, 0.0]},
        {"type": "lti", "num": [1.0], "den": [0.0, 1.0, 1.0, 1.0], "x0": [0.1, 0.0, 0.0]},
    ],
    "protocol": {"type": "plain"},
    "sim": {"dt": 0.005, "t_final": 150.0, "record_stride": 20},
}

VECTOR_PAIR = {
    "adjacency": [[0.0, 0.5], [0.5, 0.0]],
    "agents": [
        {"type": "delayed_integrator", "delay": 0.0, "dim": 2, "x0": [1.0, -1.0]},
        {"type": "delayed_integrator", "delay": 0.0, "dim": 2, "x0": [0.0, 0.5]},
    ],
    "protocol": {"type": "plain"},
    "sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 10},
}

HARMONIC_TINY = {
    "scenario_type": "harmonic", "omega1": 1.0, "omega2": 2.0, "k": 1.0,
    "sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 10, "tol": 0.1},
}

TRAFFIC_RING = {
    "scenario_type": "traffic", "topology_preset": "bidirectional_ring",
    "n": 3, "K": 0.3, "delays": [0.2, 0.3, 0.4],
    "v_init": [10.0, 15.0, 20.0],
    "sim": {"dt": 0.002, "t_final": 60.0, "record_stride": 10},
}

REMARK1_DIVERGENT = {"scenario_type": "remark1", "p": 1.0, "q": 1.0, "n_agents": 3, "kappa": 1.0}

# "sim" entries that are rejected; Infinity and NaN are the literals
# Python's json module reads and writes outside the JSON grammar; a string
# or a boolean is not a number
BAD_SIM_SETTINGS = [
    ("t_final", float("inf")),
    ("dt", float("nan")),
    ("tol", -1.0),
    ("blowup", 0.0),
    ("record_stride", float("inf")),
    ("record_stride", 2.5),
    ("dt", "0.01"),
    ("blowup", True),
]

NAN, INF = float("nan"), float("inf")

# certify inputs with a non-finite number: (name, extra argv, network)
NON_FINITE_CERTIFY = [
    ("alpha_nan", (), {"adjacency": [[0, 1], [1, 0]], "alpha": [NAN, 0.1]}),
    ("adjacency_nan", (), {"adjacency": [[0, NAN], [1, 0]], "alpha": [0.1, 0.1]}),
    ("adjacency_inf", (), {"adjacency": [[0, INF], [1, 0]], "alpha": [0.1, 0.1]}),
    ("b_nan", ("--reference",),
     {"adjacency": [[0, 1], [1, 0]], "alpha": [0.1, 0.1], "b": [NAN, 0.1]}),
    ("vehicle_tau_nan", (), {
        "adjacency": [[0, 1], [1, 0]],
        "agents": [{"type": "vehicle", "tau": NAN, "mu": 2.0},
                   {"type": "vehicle", "tau": 0.1, "mu": 2.0}],
    }),
    ("delay_nan", (), {
        "adjacency": [[0, 1], [1, 0]],
        "agents": [{"type": "delayed_integrator", "delay": NAN},
                   {"type": "delayed_integrator", "delay": 0.1}],
    }),
    ("gain_mu_nan", ("--reference",), {
        "adjacency": [[0, 1], [1, 0]], "alpha": [0.1, 0.1], "b": [0.1, 0.0],
        "gains": {"mu": [NAN, 2.0], "eta": [0.1, 0.1], "nu": [0.1], "tau": [0.1, 0.1]},
    }),
    ("lti_den_nan", (), {
        "adjacency": [[0, 1], [1, 0]],
        "agents": [{"type": "lti", "num": [1.0], "den": [0.0, NAN, 1.0]},
                   {"type": "lti", "num": [1.0], "den": [0.0, 1.0]}],
    }),
]

# simulate inputs with a non-finite number outside the "sim" block
NON_FINITE_NETWORK = [
    ("x0_nan", {**INTEGRATOR_PAIR, "agents": [
        {**INTEGRATOR_PAIR["agents"][0], "x0": [NAN]}, INTEGRATOR_PAIR["agents"][1]]}),
    ("adjacency_nan", {**INTEGRATOR_PAIR, "adjacency": [[0.0, NAN], [1.0, 0.0]]}),
    ("y_bar_inf", {**INTEGRATOR_PAIR,
                   "protocol": {"type": "reference", "b": [1.0, 0.0], "y_bar": INF}}),
    ("ramp_slope_nan", {**INTEGRATOR_PAIR, "protocol": {
        "type": "reference", "b": [1.0, 0.0], "y_bar": {"kind": "ramp", "slope": NAN}}}),
    ("b_nan", {**INTEGRATOR_PAIR,
               "protocol": {"type": "reference", "b": [NAN, 0.0], "y_bar": 1.0}}),
    ("lti_den_nan", {**INTEGRATOR_PAIR, "agents": [
        {**INTEGRATOR_PAIR["agents"][0], "den": [NAN, 1.0]}, INTEGRATOR_PAIR["agents"][1]]}),
    ("dim_inf", {**VECTOR_PAIR, "agents": [
        {**VECTOR_PAIR["agents"][0], "dim": INF}, VECTOR_PAIR["agents"][1]]}),
]

# agent lists or protocols that are not JSON objects: (name, network
# fields, expected stderr); {"a": 1} is a JSON object where a list belongs
NOT_AN_OBJECT = [
    ("agent_numbers", {"agents": [1, 2]},
     "input error: agent 0 must be a JSON object, got int\n"),
    ("second_agent_list", {"agents": [INTEGRATOR_PAIR["agents"][0], [1.0]]},
     "input error: agent 1 must be a JSON object, got list\n"),
    ("agents_object", {"agents": {"a": 1}}, "input error: agents must be a list, got dict\n"),
]

REFERENCE = {"type": "reference", "b": [1.0, 0.0]}
LTI_0, LTI_1 = INTEGRATOR_PAIR["agents"]

# simulate inputs with a field of the wrong JSON type or a missing one:
# (name, network fields, expected stderr); fields that are not a JSON object
# are the whole file
WRONG_TYPE_NETWORK = [
    ("protocol_number", {"protocol": 5}, "input error: protocol must be a JSON object, got int\n"),
    ("sim_list", {"sim": [0.01]}, "input error: sim must be a JSON object, got list\n"),
    ("sim_dt_string", {"sim": {"dt": "0.01", "t_final": 1.0}},
     "input error: dt must be a number, got str\n"),
    ("y_bar_list", {"protocol": {**REFERENCE, "y_bar": [1]}},
     "input error: y_bar: a time function is a number or an object, got list\n"),
    ("u_bar_object", {"protocol": {**REFERENCE, "u_bar": {"a": 1}}},
     "input error: u_bar must be a list, got dict\n"),
    ("u_bar_entry_list", {"protocol": {**REFERENCE, "u_bar": [None, [1]]}},
     "input error: u_bar[1]: a time function is a number or an object, got list\n"),
    ("initial_histories_number", {"initial_histories": 5},
     "input error: initial_histories must be a list, got int\n"),
    ("adjacency_strings", {"adjacency": [["0", "1"], ["1", "0"]]},
     "input error: adjacency must be a list of numbers\n"),
    ("delay_string", {"agents": [{"type": "delayed_integrator", "delay": "0.01"}, LTI_1]},
     "input error: agent 0: delay must be a number, got str\n"),
    ("x0_strings", {"agents": [{**LTI_0, "x0": ["1"]}, LTI_1]},
     "input error: agent 0: x0 must be a list of numbers\n"),
    ("num_strings", {"agents": [LTI_0, {**LTI_1, "num": ["1"]}]},
     "input error: agent 1: num must be a list of numbers\n"),
    ("vehicle_without_mu", {"agents": [{"type": "vehicle", "tau": 0.1}, LTI_1]},
     "input error: agent 0: missing field 'mu'\n"),
    ("b_string_and_boolean", {"protocol": {**REFERENCE, "b": ["1", False], "y_bar": 1.0}},
     "input error: b must be a list of numbers\n"),
    ("y_bar_sin_without_omega", {"protocol": {**REFERENCE, "y_bar": {"kind": "sin"}}},
     "input error: y_bar: missing field 'omega'\n"),
    ("ramp_slope_boolean", {"protocol": {**REFERENCE, "y_bar": {"kind": "ramp", "slope": True}}},
     "input error: y_bar: slope must be a number, got bool\n"),
    ("sim_unknown_field", {"sim": {"dt": 0.01, "t_final": 1.0, "tfinal": 2.0}},
     "input error: sim: unknown field 'tfinal'\n"),
    ("top_level_list", [INTEGRATOR_PAIR],
     "input error: simulate needs a network object, got a JSON list\n"),
    ("top_level_number", 5, "input error: simulate needs a network object, got a JSON int\n"),
    # a key that the schema does not list, misspelt, in each object the loader reads
    ("top_level_unknown_field", {"protcol": {"type": "plain"}},
     "input error: network: unknown field 'protcol'\n"),
    ("protocol_unknown_field", {"protocol": {**REFERENCE, "y_bar": 1.0, "B": [1.0, 0.0]}},
     "input error: protocol: unknown field 'B'\n"),
    ("agent_unknown_field", {"agents": [LTI_0, {**LTI_1, "xo": [1.0]}]},
     "input error: agent 1: unknown field 'xo'\n"),
    ("y_bar_unknown_field", {"protocol": {**REFERENCE, "y_bar": {"kind": "ramp", "slop": 1.0}}},
     "input error: y_bar: unknown field 'slop'\n"),
    ("u_bar_entry_unknown_field", {"protocol": {**REFERENCE, "y_bar": 1.0, "u_bar": [
        None, {"kind": "sin", "omega": 1.0, "amplitud": 2.0}]}},
     "input error: u_bar[1]: unknown field 'amplitud'\n"),
    ("initial_history_unknown_field",
     {"initial_histories": [{"kind": "constant", "value": 1.0, "vale": 2.0}, None]},
     "input error: initial_histories[0]: unknown field 'vale'\n"),
]

# certify inputs with a field of the wrong JSON type or a missing one: (name,
# network fields, expected stderr)
WRONG_TYPE_CERTIFY = [
    ("adjacency_strings", {"adjacency": [["0", "1"], ["1", "0"]], "alpha": [0.1, 0.1]},
     "input error: adjacency must be a list of numbers\n"),
    ("alpha_string_and_boolean", {"alpha": ["0.1", True]},
     "input error: alpha must be a list of numbers\n"),
    ("alpha_booleans", {"alpha": [True, False]}, "input error: alpha must be a list of numbers\n"),
    ("vehicle_tau_string", {"agents": [{"type": "vehicle", "tau": "0.1", "mu": 2.0}] * 2},
     "input error: agent 0: tau must be a number, got str\n"),
    ("gains_list", {"alpha": [0.1, 0.1], "gains": [1]},
     "input error: gains must be a JSON object, got list\n"),
    ("gains_without_nu", {"alpha": [0.1, 0.1], "gains": {"mu": [2.0] * 2, "eta": [0.4] * 2,
                                                         "tau": [0.1] * 2}},
     "input error: gains: missing field 'nu'\n"),
    ("gains_unknown_field", {"alpha": [0.1, 0.1], "gains": {
        "mu": [2.0] * 2, "eta": [0.4] * 2, "nu": [0.5], "tau": [0.1] * 2, "extra": 1}},
     "input error: gains: unknown field 'extra'\n"),
    ("agent_unknown_field",
     {"agents": [{"type": "vehicle", "tau": 0.1, "mu": 2.0, "xo": [1]}] * 2},
     "input error: agent 0: unknown field 'xo'\n"),
    # misspelt, a gains block would be skipped and the file would pass
    ("misspelt_gains_key", {"alpha": [0.1, 0.1], "gain": {
        "mu": [2.0] * 2, "eta": [0.4] * 2, "nu": [0.5], "tau": [0.1] * 2}},
     "input error: certify: unknown field 'gain'\n"),
    # sizes and values that the graph, the certificate and the IFP index refuse;
    # `ifp` reads a transfer function through the same RationalTF and index
    ("adjacency_ragged", {"adjacency": [[0, 1], [1]], "alpha": [0.1, 0.1]},
     "input error: adjacency must be a list of numbers\n"),
    ("alpha_longer_than_the_graph", {"alpha": [0.1, 0.1, 0.1]},
     "input error: alpha must have shape (2,), got (3,)\n"),
    ("lti_den_zero", {"agents": [{"type": "lti", "num": [1.0], "den": [0]}, LTI_1]},
     "input error: agent 0: denominator is identically zero\n"),
    ("lti_num_overflow", {"agents": [{"type": "lti", "num": [1e308], "den": [1e-308, 1]}, LTI_1]},
     "input error: agent 0: numerator coefficients overflow when rescaled to the pole scale\n"),
]

# simulate inputs with an unknown type or mismatched sizes: (name, network
# fields, expected stderr)
BAD_NETWORK = [
    ("agent_type_unknown", {"agents": [{"type": "pendulum"}, INTEGRATOR_PAIR["agents"][1]]},
     "input error: agent 0: unknown agent type 'pendulum'\n"),
    ("protocol_type_unknown", {"protocol": {"type": "leader"}},
     "input error: unknown protocol type 'leader'\n"),
    ("time_function_kind_unknown", {"protocol": {**REFERENCE, "y_bar": {"kind": "square"}}},
     "input error: y_bar: unknown time-function kind 'square'\n"),
    ("adjacency_size", {"adjacency": [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]},
     "input error: adjacency is 3x3 but 2 agents given\n"),
    # one row per guard of the agents, the protocol, the sim settings and the
    # initial states
    ("lti_biproper", {"agents": [{"type": "lti", "num": [1.0, 1.0], "den": [1.0, 1.0]}, LTI_1]},
     "input error: agent 0: LtiSiso requires a strictly proper transfer function\n"),
    ("dim_zero", {"agents": [{"type": "delayed_integrator", "dim": 0}, LTI_1]},
     "input error: agent 0: dim must be >= 1, got 0\n"),
    ("b_one_entry", {"protocol": {**REFERENCE, "b": [1.0], "y_bar": 1.0}},
     "input error: b must have shape (2,), got (1,)\n"),
    ("u_bar_one_entry", {"protocol": {**REFERENCE, "y_bar": 1.0, "u_bar": [0.1]}},
     "input error: u_bar must have 2 entries\n"),
    ("pinned_without_y_bar", {"protocol": REFERENCE},
     "input error: y_bar is required when any pinning gain is positive\n"),
    ("t_final_equal_to_dt", {"sim": {"dt": 0.01, "t_final": 0.01}},
     "input error: t_final must be finite and exceed dt, got 0.01\n"),
    ("record_stride_zero", {"sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 0}},
     "input error: record_stride must be >= 1, got 0\n"),
    ("output_dims_differ", {"agents": [{"type": "delayed_integrator", "dim": 2}, LTI_1]},
     "input error: all agents must share one output dimension\n"),
    ("x0_longer_than_the_state", {"agents": [{**LTI_0, "x0": [1.0, 2.0]}, LTI_1]},
     "input error: agent 0 initial state has shape (2,), expected (1,)\n"),
]

TRAFFIC_CHAIN_TINY = {
    "scenario_type": "traffic", "topology_preset": "classic_chain", "n": 2, "K": 1.0,
    "delays": [0.4, 0.4], "v_init": [0.3, -0.2], "v0": 1.0,
    "sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 10},
}

PLATOON_TINY = {
    "scenario_type": "platoon",
    "gains": {"mu": [2.0, 2.0], "eta": [0.4, 0.5], "nu": [0.5], "tau": [0.1, 0.1]},
    "s": [20.0, 20.0], "v0": 15.0, "q0_init": 0.0, "q_init": [-22.0, -42.0],
    "v_init": [15.0, 15.0], "a_init": [0.0, 0.0],
    "sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 10},
}

REMARK1_TINY = {**REMARK1_DIVERGENT, "sim": {"dt": 0.01, "t_final": 1.0, "record_stride": 10}}

# the certify input of test_platoon_gain_block_checked_alongside, with --reference
CERTIFY_PLATOON = {
    "adjacency": [[0, 0.5, 0], [0.5, 0, 0.5], [0, 1.0, 0]],
    "alpha": [0.25, 0.25, 0.25],
    "b": [0.4, 0.0, 0.0],
    "gains": {"mu": [2.0, 2.0, 2.0], "eta": [0.4, 0.5, 1.0], "nu": [0.5, 0.5],
              "tau": [0.1, 0.1, 0.1]},
}

# scenario files that cannot be read: (name, extra argv, file content,
# expected stderr)
BAD_SCENARIO_FILE = [
    ("sweep_entry_number", ("--sweep",), [HARMONIC_TINY, 5],
     "input error: scenario 1 must be a JSON object, got int\n"),
    ("sweep_of_an_object", ("--sweep",), HARMONIC_TINY,
     "input error: --sweep expects the input file to hold a JSON list of scenarios\n"),
    ("scenario_number", (), 5, "input error: scenario must be a JSON object, got int\n"),
    ("sim_string", (), {**HARMONIC_TINY, "sim": "fast"},
     "input error: sim must be a JSON object, got str\n"),
    ("scenario_type_unknown", (), {"scenario_type": "pendulum"},
     "input error: unknown scenario_type 'pendulum'\n"),
    ("harmonic_omega1_string", (), {**HARMONIC_TINY, "omega1": "1.0", "k": True},
     "input error: omega1 must be a number, got str\n"),
    ("harmonic_k_boolean", (), {**HARMONIC_TINY, "k": True},
     "input error: k must be a number, got bool\n"),
    ("harmonic_without_omega1", (), {k: v for k, v in HARMONIC_TINY.items() if k != "omega1"},
     "input error: missing field 'omega1'\n"),
    ("traffic_K_string", (), {**TRAFFIC_RING, "K": "0.5"},
     "input error: K must be a number, got str\n"),
    ("traffic_delays_strings", (), {**TRAFFIC_RING, "delays": ["0.1", "0.1", "0.1"]},
     "input error: delays must be a list of numbers\n"),
    ("traffic_n_string", (), {**TRAFFIC_RING, "n": "3"},
     "input error: n must be a number, got str\n"),
    ("remark1_n_agents_string", (), {**REMARK1_TINY, "n_agents": "3"},
     "input error: n_agents must be a number, got str\n"),
    ("record_stride_string", (), {**HARMONIC_TINY, "sim": {"record_stride": "10"}},
     "input error: record_stride must be a number, got str\n"),
    ("platoon_gains_list", (), {**PLATOON_TINY, "gains": [1]},
     "input error: gains must be a JSON object, got list\n"),
    ("platoon_gains_without_nu", (), {**PLATOON_TINY, "gains": {
        k: v for k, v in PLATOON_TINY["gains"].items() if k != "nu"}},
     "input error: gains: missing field 'nu'\n"),
    ("platoon_gains_unknown_field", (), {**PLATOON_TINY, "gains": {
        **PLATOON_TINY["gains"], "extra": 1}},
     "input error: gains: unknown field 'extra'\n"),
    ("harmonic_k_beyond_the_float_range", (), {**HARMONIC_TINY, "k": 10**400},
     "input error: k must be finite, got an integer beyond the float range\n"),
    # a key that the kind's schema does not list, misspelt
    ("traffic_misspelt_key", (), {**TRAFFIC_CHAIN_TINY, "vo": 20.0},
     "input error: traffic: unknown field 'vo'\n"),
    ("platoon_misspelt_key", (), {**PLATOON_TINY, "q0_int": 5.0},
     "input error: platoon: unknown field 'q0_int'\n"),
    ("remark1_misspelt_key", (), {**REMARK1_TINY, "kapa": 0.5},
     "input error: remark1: unknown field 'kapa'\n"),
    ("harmonic_misspelt_key", (), {**HARMONIC_TINY, "omega_1": 1.0},
     "input error: harmonic: unknown field 'omega_1'\n"),
    # sizes and values that the scenario builders refuse
    ("traffic_delays_shorter_than_n", (), {**TRAFFIC_RING, "delays": [0.2, 0.3]},
     "input error: delays and v_init must have length n\n"),
    ("remark1_one_agent", (), {**REMARK1_TINY, "n_agents": 1},
     "input error: all-to-all coupling needs at least 2 agents\n"),
    ("platoon_one_vehicle", (), {
        **PLATOON_TINY, "gains": {"mu": [2.0], "eta": [0.4], "nu": [], "tau": [0.1]},
        "s": [20.0], "q_init": [-22.0], "v_init": [15.0], "a_init": [0.0]},
     "input error: a platoon needs at least 2 vehicles\n"),
    ("platoon_gap_zero", (), {**PLATOON_TINY, "s": [20.0, 0.0]},
     "input error: desired gaps s must be positive\n"),
    # n >= 1 and K > 0, as docs/scenario.schema.json requires
    ("traffic_n_zero", (), {**TRAFFIC_RING, "n": 0}, "input error: n must be >= 1, got 0\n"),
    ("traffic_n_negative", (), {**TRAFFIC_RING, "n": -1},
     "input error: n must be >= 1, got -1\n"),
    ("traffic_K_negative", (), {**TRAFFIC_RING, "K": -0.1},
     "input error: K must be positive, got -0.1\n"),
    ("traffic_K_zero", (), {**TRAFFIC_RING, "K": 0}, "input error: K must be positive, got 0.0\n"),
    ("traffic_custom_n_zero", (), {**TRAFFIC_RING, "topology_preset": "custom", "n": 0,
                                   "adjacency": [[0, 1], [1, 0]]},
     "input error: n must be >= 1, got 0\n"),
    ("traffic_custom_adjacency_size", (),
     {**TRAFFIC_RING, "topology_preset": "custom", "adjacency": [[0, 1], [1, 0]]},
     "input error: adjacency must be 3x3, got (2, 2)\n"),
    ("platoon_s_one_entry", (), {**PLATOON_TINY, "s": [20.0]},
     "input error: s must have length 2, got (1,)\n"),
    ("remark1_p_zero", (), {**REMARK1_TINY, "p": 0},
     "input error: p, q, kappa must be positive, got 0.0, 1.0, 1.0\n"),
    # an error of a sweep entry, read, built or checked, names the entry
    ("sweep_entry_without_omega1", ("--sweep",),
     [HARMONIC_TINY, {k: v for k, v in HARMONIC_TINY.items() if k != "omega1"}],
     "input error: scenario 1: missing field 'omega1'\n"),
    ("sweep_entry_sim_unknown_field", ("--sweep",),
     [{**HARMONIC_TINY, "sim": {"dt": 0.01, "t_final": 1.0, "tfinal": 2.0}}],
     "input error: scenario 0: sim: unknown field 'tfinal'\n"),
    ("sweep_entry_equal_frequencies", ("--sweep",),
     [HARMONIC_TINY, HARMONIC_TINY, {**HARMONIC_TINY, "omega2": 1.0}],
     "input error: scenario 2: the two natural frequencies must differ\n"),
    ("sweep_entry_step_above_the_delay", ("--sweep",),
     [HARMONIC_TINY, {**TRAFFIC_RING, "sim": {"dt": 0.5, "t_final": 2.0}}],
     "input error: scenario 1: dt=0.5 exceeds the smallest positive delay 0.2\n"),
]

# scenario files with one non-finite field: (name, base scenario, field, value)
NON_FINITE_SCENARIO = [
    ("traffic_v_init_nan", TRAFFIC_CHAIN_TINY, "v_init", [NAN, -0.2]),
    ("traffic_delays_inf", TRAFFIC_CHAIN_TINY, "delays", [0.4, INF]),
    ("traffic_v0_nan", TRAFFIC_CHAIN_TINY, "v0", NAN),
    ("platoon_s_nan", PLATOON_TINY, "s", [NAN, 20.0]),
    ("platoon_v0_inf", PLATOON_TINY, "v0", INF),
    ("platoon_q0_init_nan", PLATOON_TINY, "q0_init", NAN),
    ("platoon_q_init_inf", PLATOON_TINY, "q_init", [-22.0, -INF]),
    ("platoon_v_init_nan", PLATOON_TINY, "v_init", [15.0, NAN]),
    ("platoon_a_init_inf", PLATOON_TINY, "a_init", [INF, 0.0]),
    ("harmonic_omega1_inf", HARMONIC_TINY, "omega1", INF),
    ("harmonic_omega2_nan", HARMONIC_TINY, "omega2", NAN),
    ("harmonic_k_nan", HARMONIC_TINY, "k", NAN),
    ("remark1_p_nan", REMARK1_TINY, "p", NAN),
    ("remark1_q_inf", REMARK1_TINY, "q", INF),
    ("remark1_kappa_nan", REMARK1_TINY, "kappa", NAN),
    ("remark1_n_agents_inf", REMARK1_TINY, "n_agents", INF),
    ("traffic_n_inf", TRAFFIC_CHAIN_TINY, "n", INF),
]


def write_json(path: Path, payload) -> Path:
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def svg_value_labels(svg: str) -> list[str]:
    """The tick labels of an SVG plot's value axis, bottom to top."""
    return re.findall(r'text-anchor="end" font-family="sans-serif">([^<]*)<', svg)


# ---------------------------------------------------------------------------
# ifp
# ---------------------------------------------------------------------------

class TestIfpCommand:
    def test_cubic_deficit(self, tmp_path, capsys):
        f = write_json(tmp_path / "tf.json", CUBIC_TF)
        code, out = run_cli(capsys, "ifp", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["certifiable"] is True
        assert abs(report["alpha"] - 0.25) < 1e-6
        assert report["conditions"]["freq_condition_ok"] is True

    def test_integrator_is_passive(self, tmp_path, capsys):
        f = write_json(tmp_path / "tf.json", {"num": [1.0], "den": [0.0, 1.0]})
        code, out = run_cli(capsys, "ifp", str(f))
        assert code == 0
        assert json.loads(out)["alpha"] == 0.0

    def test_unstable_pole_exits_not_certifiable(self, tmp_path, capsys):
        f = write_json(tmp_path / "tf.json", {"num": [1.0], "den": [-1.0, 1.0]})
        code, out = run_cli(capsys, "ifp", str(f))
        assert code == 2
        assert json.loads(out)["certifiable"] is False

    def test_malformed_json_exits_input_error(self, tmp_path, capsys):
        f = tmp_path / "tf.json"
        f.write_text("{not json", encoding="utf-8")
        assert main(["ifp", str(f)]) == 1

    def test_missing_file_exits_input_error(self, tmp_path):
        assert main(["ifp", str(tmp_path / "absent.json")]) == 1

    def test_non_finite_coefficient_exits_input_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "tf.json", {"num": [1.0], "den": [0.0, INF, 1.0]})
        code = main(["ifp", str(f)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("input error:") and "x^1" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_deficit_does_not_depend_on_the_time_unit(self, tmp_path, capsys):
        # 1/(s(s^2+s+1)) with s -> s/1e9; a log grid over [1e-6, 1e6] rad/s read 1.01
        f = write_json(tmp_path / "tf.json", {"num": [1e27], "den": [0.0, 1e18, 1e9, 1.0]})
        code, out = run_cli(capsys, "ifp", str(f))
        assert code == 0
        report = json.loads(out)
        assert abs(report["alpha"] - 4.0 / 3.0) <= 1e-12 * 4.0 / 3.0
        assert report["method"] == "closed_form"
        assert abs(report["omega_star"] - 1e9 / np.sqrt(2.0)) <= 1e-9 * 1e9


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

class TestCertifyCommand:
    def test_weakly_coupled_pair_passes(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json",
                       {"adjacency": [[0, 1], [1, 0]], "alpha": [0.2, 0.2]})
        code, out = run_cli(capsys, "certify", str(f))
        assert code == 0
        report = json.loads(out)
        assert report["passes"] is True
        assert np.allclose(report["weak_coupling"]["slack"], [0.3, 0.3])

    def test_strong_coupling_fails_with_offenders_listed(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json",
                       {"adjacency": [[0, 3], [3, 0]], "alpha": [0.2, 0.2]})
        code, out = run_cli(capsys, "certify", str(f))
        assert code == 3
        report = json.loads(out)
        assert report["weak_coupling"]["offending"] == [0, 1]

    def test_deficits_derived_from_agent_models(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {
            "adjacency": [[0, 1], [1, 0]],
            "agents": [
                {"type": "lti", "num": [1.0], "den": [0.0, 3.0, 2.0, 1.0]},
                {"type": "vehicle", "tau": 0.1, "mu": 2.0},
            ],
        })
        code, out = run_cli(capsys, "certify", str(f))
        assert code == 0
        assert np.allclose(json.loads(out)["alpha"], [0.25, 0.25], atol=1e-6)

    def test_delayed_integrator_deficit_is_its_delay(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {
            "adjacency": [[0, 1], [1, 0]],
            "agents": [{"type": "delayed_integrator", "delay": 0.1},
                       {"type": "delayed_integrator", "delay": 0.3, "dim": 2}],
        })
        code, out = run_cli(capsys, "certify", str(f))
        assert code == 0
        assert json.loads(out)["alpha"] == [0.1, 0.3]

    def test_pinned_variant_uses_the_tightened_bound(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {
            "adjacency": [[0, 1], [1, 0]],
            "alpha": [0.2, 0.2],
            "b": [1.0, 0.0],
        })
        code, out = run_cli(capsys, "certify", str(f), "--reference")
        assert code == 3
        assert np.allclose(json.loads(out)["weak_coupling"]["slack"], [-0.1, 0.3])

    def test_platoon_gain_block_checked_alongside(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", CERTIFY_PLATOON)
        code, out = run_cli(capsys, "certify", str(f), "--reference")
        assert code == 0
        report = json.loads(out)
        assert report["gains"]["passes"] is True
        assert report["passes"] is True

    def test_invalid_deficit_formula_exits_not_certifiable(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {
            "adjacency": [[0, 1], [1, 0]],
            "agents": [
                {"type": "vehicle", "tau": 0.3, "mu": 2.0},
                {"type": "vehicle", "tau": 0.1, "mu": 2.0},
            ],
        })
        assert main(["certify", str(f)]) == 2

    @pytest.mark.parametrize("first, code, message", [
        ({"type": "vehicle", "tau": 0.3, "mu": 2.0}, 2,
         "not certifiable: agent 0: mu*tau = 0.6 >= 1/2"),
        ({"type": "lti", "num": [1.0], "den": [0.0, 1.0]}, 1,
         "input error: agent 1: numerator coefficients overflow when rescaled to the pole scale"),
    ], ids=["slow_vehicle_first", "passive_first"])
    def test_numerator_overflow_is_its_agents_own_outcome(self, tmp_path, capsys, first, code,
                                                           message):
        # the overflowing agent does not abort the batch of the agent before it
        overflow = {"type": "lti", "num": [1e308], "den": [1e-308, 1]}
        f = write_json(tmp_path / "net.json",
                       {"adjacency": [[0, 1], [1, 0]], "agents": [first, overflow]})
        assert main(["certify", str(f)]) == code
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("lti_first", [True, False])
    def test_first_failing_agent_in_input_order_is_named(self, tmp_path, capsys, lti_first):
        unstable = {"type": "lti", "num": [1.0], "den": [-1.0, 1.0]}
        slow_vehicle = {"type": "vehicle", "tau": 0.3, "mu": 2.0}
        passive = {"type": "lti", "num": [1.0], "den": [0.0, 1.0]}
        bad = [unstable, slow_vehicle] if lti_first else [slow_vehicle, unstable]
        f = write_json(tmp_path / "net.json", {
            "adjacency": [[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]],
            "agents": [passive, *bad, passive],
        })
        code = main(["certify", str(f)])
        err = capsys.readouterr().err
        assert code == 2
        if lti_first:
            assert "agent 1: transfer function has a pole with positive real part" in err
        else:
            assert "agent 1: mu*tau = 0.6 >= 1/2" in err

    def test_malformed_agent_exits_input_error_before_any_index(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {
            "adjacency": [[0, 1], [1, 0]],
            "agents": [
                {"type": "lti", "num": [1.0], "den": [-1.0, 1.0]},
                {"type": "lti", "num": [1.0, 1.0, 1.0], "den": [1.0, 1.0]},
            ],
        })
        code = main(["certify", str(f)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("input error: agent 1: improper transfer function")

    def test_network_list_exits_input_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", [{"adjacency": [[0]], "alpha": [0.1]}])
        code = main(["certify", str(f)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "input error: certify needs a network object, got a JSON list\n"

    def test_alpha_that_is_not_a_list_exits_input_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {"adjacency": [[0, 1], [1, 0]], "alpha": "12"})
        code = main(["certify", str(f)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "input error: alpha must be a list of numbers\n"
        assert captured.out == ""

    def test_network_file_certifies_as_it_is(self, tmp_path, capsys):
        # protocol, sim and initial_histories are simulate's; certify accepts them
        f = write_json(tmp_path / "net.json",
                       {**INTEGRATOR_PAIR, "initial_histories": [0.0, None]})
        code, out = run_cli(capsys, "certify", str(f))
        assert code == 0
        assert json.loads(out)["passes"] is True

    def test_reference_reads_the_pinning_of_a_network_file(self, tmp_path, capsys):
        # the reference protocol pins agents 0 and 3: b = [0.7, 0, 0, 0.4]
        config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "tracking.json"
        code, out = run_cli(capsys, "certify", str(config), "--reference")
        assert code == 0
        report = json.loads(out)
        assert report["passes"] is True
        assert np.allclose(report["weak_coupling"]["slack"], [0.37, 0.368, 0.42, 0.5],
                           rtol=0, atol=1e-15)
        net = json.loads(config.read_text(encoding="utf-8"))
        f = write_json(tmp_path / "net.json", {**net, "b": [0.7, 0.0, 0.0, 0.4]})
        code = main(["certify", str(f), "--reference"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "input error: b is given both at the top level and in protocol; give it once\n"
        )
        assert captured.out == ""

    def test_network_without_alpha_or_agents_exits_input_error(self, tmp_path, capsys):
        f = write_json(tmp_path / "net.json", {"adjacency": [[0, 1], [1, 0]]})
        code = main(["certify", str(f)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "input error: certify JSON needs either an 'alpha' array or an 'agents' list\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "fields, message",
        [c[1:] for c in NOT_AN_OBJECT + WRONG_TYPE_CERTIFY],
        ids=[c[0] for c in NOT_AN_OBJECT + WRONG_TYPE_CERTIFY],
    )
    def test_agent_that_is_not_an_object_exits_input_error(self, tmp_path, capsys, fields,
                                                           message):
        f = write_json(tmp_path / "net.json", {"adjacency": [[0, 1], [1, 0]], **fields})
        code = main(["certify", str(f)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == message
        assert captured.out == ""

    @pytest.mark.parametrize(
        "extra, net", [c[1:] for c in NON_FINITE_CERTIFY], ids=[c[0] for c in NON_FINITE_CERTIFY]
    )
    def test_non_finite_input_exits_input_error(self, tmp_path, capsys, extra, net):
        f = write_json(tmp_path / "net.json", net)
        code = main(["certify", str(f), *extra])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("input error:")
        assert "Traceback" not in captured.err
        assert captured.out == ""


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class TestSimulateCommand:
    def test_writes_csv_and_metrics(self, tmp_path, capsys):
        f = write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        code, out = run_cli(capsys, "simulate", str(f), "--output-dir", str(tmp_path))
        assert code == 0
        summary = json.loads(out)
        assert summary["metrics"]["synchronized"] is True
        csv_path = tmp_path / "pair.csv"
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,y_1,y_2,u_1,u_2"
        assert len(lines) - 1 == int(10.0 / (0.001 * 10)) + 1
        assert (tmp_path / "pair.metrics.json").exists()

    def test_repeated_runs_are_bitwise_identical(self, tmp_path, capsys):
        f = write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        assert main(["simulate", str(f), "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["simulate", str(f), "--output-dir", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a" / "pair.csv").read_bytes() == \
               (tmp_path / "b" / "pair.csv").read_bytes()

    def test_existing_artifacts_guarded_without_force(self, tmp_path, capsys):
        f = write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        assert main(["simulate", str(f), "--output-dir", str(tmp_path)]) == 0
        assert main(["simulate", str(f), "--output-dir", str(tmp_path)]) == 1
        assert main(["simulate", str(f), "--output-dir", str(tmp_path), "--force"]) == 0
        capsys.readouterr()

    def test_overrides_change_the_sampling(self, tmp_path, capsys):
        f = write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        code, _ = run_cli(capsys, "simulate", str(f), "--output-dir", str(tmp_path),
                          "--dt", "0.002", "--t-final", "4.0")
        assert code == 0
        lines = (tmp_path / "pair.csv").read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 == int(4.0 / (0.002 * 10)) + 1

    def test_tol_override_reaches_the_metrics(self, tmp_path, capsys):
        for cmd, doc in (("simulate", INTEGRATOR_PAIR), ("scenario", HARMONIC_TINY)):
            f = write_json(tmp_path / f"{cmd}.json", doc)
            code, out = run_cli(capsys, cmd, str(f), "--output-dir", str(tmp_path / cmd),
                                "--tol", "0.25")
            assert code == 0
            assert json.loads(out)["metrics"]["tol"] == 0.25

    def test_plot_writes_svg_polylines(self, tmp_path, capsys):
        f = write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        code, _ = run_cli(capsys, "simulate", str(f), "--output-dir", str(tmp_path), "--plot")
        assert code == 0
        svg = (tmp_path / "pair.svg").read_text(encoding="utf-8")
        assert svg.count("<polyline") == 2
        assert "time [s]" in svg and "output" in svg

    @pytest.mark.parametrize("t_final, stride, points, x_last", [
        (0.5, 1000, 1, "424.00"), (2.001, 1, 1002, "784.00"),
    ])
    def test_plot_thins_to_at_most_2000_points_and_keeps_the_last(self, tmp_path, capsys,
                                                                   t_final, stride, points,
                                                                   x_last):
        # one sample (the stride exceeds the step count), in the middle of a
        # time axis widened to t = -1..1; and 2002 samples, of which every
        # second one is drawn, then the last at the right end of the time axis
        net = {**INTEGRATOR_PAIR, "sim": {"dt": 0.001, "t_final": t_final,
                                          "record_stride": stride}}
        f = write_json(tmp_path / "pair.json", net)
        assert main(["simulate", str(f), "--output-dir", str(tmp_path), "--plot"]) == 0
        capsys.readouterr()
        svg = (tmp_path / "pair.svg").read_text(encoding="utf-8")
        lines = [pts.split() for pts in re.findall(r'points="([^"]*)"', svg)]
        assert [len(pts) for pts in lines] == [points, points]
        assert lines[0][-1].startswith(x_last + ",")
        coords = [float(v) for pts in lines for xy in pts for v in xy.split(",")]
        assert all(np.isfinite(coords))

    def test_plot_of_a_flat_trace_far_from_zero(self, tmp_path, capsys):
        # 1e17 - 1.0 == 1e17: the empty value span widens by the float spacing
        agent = {"type": "delayed_integrator", "x0": [1e17]}
        net = {"adjacency": [[0, 1], [1, 0]], "agents": [agent, agent],
               "sim": {"dt": 0.1, "t_final": 1, "blowup": 1e18}}
        f = write_json(tmp_path / "flat.json", net)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path / "out"), "--plot"])
        assert code == 0, capsys.readouterr().err
        capsys.readouterr()
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "flat.csv", "flat.metrics.json", "flat.svg",
        ]
        svg = (tmp_path / "out" / "flat.svg").read_text(encoding="utf-8")
        ticks = [float(v) for v in re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', svg)]
        assert all(np.isfinite(ticks))
        flat = [f"{64 + 72 * k:.2f},234.00" for k in range(11)]  # the middle of the value axis
        assert [pts.split() for pts in re.findall(r'points="([^"]*)"', svg)] == [flat, flat]

    def test_plot_leaves_non_finite_outputs_out(self, tmp_path, capsys):
        # agent 0 outputs 1e300 * 1e9, which overflows to inf at every sample
        net = {"adjacency": [[0, 0], [0, 0]], "agents": [
            {"type": "lti", "num": [1e300], "den": [0, 1], "x0": [1e9]},
            {"type": "lti", "num": [1], "den": [0, 1], "x0": [1]},
        ], "sim": {"dt": 0.1, "t_final": 1}}
        f = write_json(tmp_path / "inf.json", net)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path), "--plot"])
        assert code == 0, capsys.readouterr().err
        capsys.readouterr()
        rows = (tmp_path / "inf.csv").read_text(encoding="utf-8").splitlines()
        assert rows[1].split(",")[:3] == ["0.0", "inf", "1.0"]
        svg = (tmp_path / "inf.svg").read_text(encoding="utf-8")
        # the finite trace is flat at 1, the middle of the value axis 1 -+ 1 padded
        assert re.findall(r'points="([^"]*)"', svg) == [
            "", " ".join(f"{64 + 72 * k:.2f},234.00" for k in range(11)),
        ]
        assert svg_value_labels(svg) == ["-0.1", "0.45", "1", "1.55", "2.1"]

    def test_svg_of_outputs_without_a_finite_value(self, tmp_path):
        times = np.array([0.0, 1.0])
        y = np.array([[[INF]], [[NAN]]])
        result = SimResult(times=times, y=y, u=np.zeros_like(y), states=(y[:, 0, :],),
                           metrics=sync_metrics((times, np.zeros_like(y))))
        cli.write_svg(tmp_path / "x.svg", result)
        svg = (tmp_path / "x.svg").read_text(encoding="utf-8")
        assert re.findall(r'points="([^"]*)"', svg) == [""]
        assert svg_value_labels(svg) == ["-1.1", "-0.55", "0", "0.55", "1.1"]

    def test_plot_of_a_trace_wider_than_the_float_range(self, tmp_path, capsys):
        # the outputs start at +-1.5e308, so their range 3e308 exceeds the
        # float range; warnings are errors, so the run raises no RuntimeWarning
        net = {"adjacency": [[0, 0], [0, 0]], "agents": [
            {"type": "lti", "num": [1e308], "den": [1, 1], "x0": [x]} for x in (1.5, -1.5)
        ], "sim": {"dt": 0.1, "t_final": 1}}
        f = write_json(tmp_path / "wide.json", net)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path), "--plot"])
        assert code == 0, capsys.readouterr().err
        capsys.readouterr()
        svg = (tmp_path / "wide.svg").read_text(encoding="utf-8")
        coords = re.findall(r' (?:x|y|x1|y1|x2|y2)="([^"]*)"', svg)
        coords += " ".join(re.findall(r'points="([^"]*)"', svg)).replace(",", " ").split()
        assert all(np.isfinite([float(v) for v in coords]))
        labels = [float(v) for v in svg_value_labels(svg)]
        assert all(np.isfinite(labels))
        assert labels[0] == -labels[-1] and 1.5e308 < labels[-1] <= sys.float_info.max

    def test_sup_tail_of_one_agent_is_zero(self, tmp_path, capsys):
        # the agent's output 1e300 * 1e9 overflows to inf at every sample
        inf_agent = {"type": "lti", "num": [1e300], "den": [0, 1], "x0": [1e9]}
        finite_agent = {"type": "lti", "num": [1], "den": [0, 1], "x0": [1]}
        sup = []
        for agents in ([inf_agent], [inf_agent, finite_agent]):
            n = len(agents)
            net = {"adjacency": np.zeros((n, n)).tolist(), "agents": agents,
                   "sim": {"dt": 0.1, "t_final": 1}}
            f = write_json(tmp_path / f"n{n}.json", net)
            code = main(["simulate", str(f), "--output-dir", str(tmp_path)])
            assert code == 0, capsys.readouterr().err
            capsys.readouterr()
            metrics = json.loads((tmp_path / f"n{n}.metrics.json").read_text(encoding="utf-8"))
            sup.append(metrics["pairwise_sup_tail"])
        assert sup == [0.0, float("inf")]

    def test_artifacts_default_to_the_working_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("IFPSYNC_OUTPUT_DIR", raising=False)
        write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        code, out = run_cli(capsys, "simulate", "pair.json")
        assert code == 0
        assert json.loads(out)["artifacts"]["csv"] == str(tmp_path / "pair.csv")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "pair.csv", "pair.json", "pair.metrics.json",
        ]

    def test_divergence_exits_4_with_partial_trajectory(self, tmp_path, capsys):
        f = write_json(tmp_path / "trio.json", DIVERGING_TRIO)
        code, out = run_cli(capsys, "simulate", str(f), "--output-dir", str(tmp_path))
        assert code == 4
        summary = json.loads(out)
        assert summary["metrics"]["diverged"] is True
        assert summary["metrics"]["t_diverged"] is not None
        lines = (tmp_path / "trio.csv").read_text(encoding="utf-8").splitlines()
        full = int(150.0 / (0.005 * 20)) + 1
        assert 1 < len(lines) - 1 < full

    def test_csv_values_are_per_value_float_reprs(self, tmp_path):
        times = np.array([0.0, 0.5, 1.0])
        y = np.array([[[-0.0], [5e-324]], [[3.0], [-7.0]], [[0.1], [1e-300]]])
        u = np.array([[[1e300], [-1e300]], [[2.0], [-0.0]], [[1.0 / 3.0], [123456789.0]]])
        states = (y[:, 0, :].copy(), y[:, 1, :].copy())
        result = SimResult(times=times, y=y, u=u, states=states, metrics=sync_metrics((times, y)))
        write_csv(tmp_path / "x.csv", result)
        rows = [
            ",".join(repr(float(v)) for v in [times[r], *y[r].ravel(), *u[r].ravel()])
            for r in range(3)
        ]
        expected = "t,y_1,y_2,u_1,u_2\n" + "\n".join(rows) + "\n"
        assert (tmp_path / "x.csv").read_bytes() == expected.encode("utf-8")
        assert "-0.0,5e-324,1e+300,-1e+300" in expected and ",3.0,-7.0,2.0," in expected

    def test_vector_outputs_flattened_with_dimension_suffix(self, tmp_path, capsys):
        f = write_json(tmp_path / "vec.json", VECTOR_PAIR)
        code, _ = run_cli(capsys, "simulate", str(f), "--output-dir", str(tmp_path))
        assert code == 0
        header = (tmp_path / "vec.csv").read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,y_1_1,y_1_2,y_2_1,y_2_2,u_1_1,u_1_2,u_2_1,u_2_2"

    @pytest.mark.parametrize("key, value", BAD_SIM_SETTINGS)
    def test_invalid_sim_settings_exit_input_error(self, tmp_path, capsys, key, value):
        net = {**INTEGRATOR_PAIR, "sim": {**INTEGRATOR_PAIR["sim"], key: value}}
        f = write_json(tmp_path / "bad.json", net)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"input error: {key} must be")
        assert "Traceback" not in err
        assert not (tmp_path / "bad.csv").exists()

    def test_integral_float_record_stride_runs_as_the_integer(self, tmp_path, capsys):
        csv = []
        for stride in (10, 10.0):
            out = tmp_path / repr(stride)
            net = {**VECTOR_PAIR, "sim": {**VECTOR_PAIR["sim"], "record_stride": stride}}
            f = write_json(tmp_path / "vec.json", net)
            assert main(["simulate", str(f), "--output-dir", str(out)]) == 0
            csv.append((out / "vec.csv").read_bytes())
        assert csv[0] == csv[1]

    @pytest.mark.parametrize(
        "net", [c[1] for c in NON_FINITE_NETWORK], ids=[c[0] for c in NON_FINITE_NETWORK]
    )
    def test_non_finite_network_exits_input_error(self, tmp_path, capsys, net):
        f = write_json(tmp_path / "bad.json", net)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("input error:")
        assert "Traceback" not in err and "Warning" not in err
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize(
        "fields, message",
        [c[1:] for c in NOT_AN_OBJECT + WRONG_TYPE_NETWORK],
        ids=[c[0] for c in NOT_AN_OBJECT + WRONG_TYPE_NETWORK],
    )
    def test_entry_that_is_not_an_object_exits_input_error(self, tmp_path, capsys, fields,
                                                           message):
        content = {**INTEGRATOR_PAIR, **fields} if isinstance(fields, dict) else fields
        f = write_json(tmp_path / "bad.json", content)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == message
        assert captured.out == ""
        assert not (tmp_path / "bad.csv").exists()

    @pytest.mark.parametrize(
        "fields, message", [c[1:] for c in BAD_NETWORK], ids=[c[0] for c in BAD_NETWORK]
    )
    def test_unknown_type_or_size_exits_input_error(self, tmp_path, capsys, fields, message):
        f = write_json(tmp_path / "bad.json", {**INTEGRATOR_PAIR, **fields})
        code = main(["simulate", str(f), "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == message
        assert captured.out == ""

    def test_time_function_kinds(self):
        # each kind is the TimeFn with its own terms; absent parameters
        # take their defaults
        assert time_fn_from_dict(2.5) == TimeFn(2.5)
        assert time_fn_from_dict({"kind": "constant", "value": -1.0}) == TimeFn(-1.0)
        ramp = time_fn_from_dict({"kind": "ramp", "offset": 1.0, "slope": 2.0})
        assert ramp == TimeFn(1.0, 2.0) and ramp(3.0) == 7.0
        assert time_fn_from_dict({"kind": "ramp"}) == TimeFn()
        sin = time_fn_from_dict({"kind": "sin", "amplitude": 2.0, "omega": 3.0, "phase": 0.5})
        assert sin == TimeFn(amplitude=2.0, omega=3.0, phase=0.5)
        assert time_fn_from_dict({"kind": "sin", "omega": 1.0}) == TimeFn(amplitude=1.0, omega=1.0)

    def test_u_bar_list_feeds_each_agent_its_own_offset(self, tmp_path, capsys):
        # u_1 = -(y_1 - y_2) + 0.5 and u_2 = -(y_2 - y_1) at t = 0, with
        # y = (1, 0) and no pinning
        protocol = {"type": "reference", "b": [0.0, 0.0],
                    "u_bar": [{"kind": "constant", "value": 0.5}, None]}
        net = {**INTEGRATOR_PAIR, "protocol": protocol}
        _, loaded, _ = load_network(net)
        assert loaded.u_bar[0](4.0) == 0.5 and loaded.u_bar[1] is None
        f = write_json(tmp_path / "ubar.json", net)
        code, _ = run_cli(capsys, "simulate", str(f), "--output-dir", str(tmp_path))
        assert code == 0
        first = (tmp_path / "ubar.csv").read_text(encoding="utf-8").splitlines()[1]
        assert first == "0.0,1.0,0.0,-0.5,1.0"

    def test_initial_histories_must_cover_every_agent(self, tmp_path, capsys):
        net = {
            "adjacency": [[0.0, 1.0], [1.0, 0.0]],
            "agents": [
                {"type": "delayed_integrator", "delay": 0.1, "x0": [1.0]},
                {"type": "delayed_integrator", "delay": 0.1, "x0": [0.0]},
            ],
            "initial_histories": [1.0],
            "sim": {"dt": 0.01, "t_final": 1.0},
        }
        f = write_json(tmp_path / "short.json", net)
        code = main(["simulate", str(f), "--output-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("input error:")

    def test_delay_far_beyond_the_horizon_reads_only_the_zero_history(self, tmp_path, capsys):
        # the ring of past inputs is sized by the run, not by the delay; a
        # delay of 1e13 s over a 0.05 s horizon, like one of 0.06 s, reads
        # nothing but the prehistory, which defaults to zero
        csv = []
        for delay in (1e13, 0.06):
            net = {
                "adjacency": [[0.0, 1.0], [1.0, 0.0]],
                "agents": [
                    {"type": "delayed_integrator", "delay": delay, "x0": [1.0]},
                    {"type": "delayed_integrator", "delay": 0.0, "x0": [0.0]},
                ],
                "protocol": {"type": "plain"},
                "sim": {"dt": 0.01, "t_final": 0.05},
            }
            f = write_json(tmp_path / "far.json", net)
            out = tmp_path / repr(delay)
            code = main(["simulate", str(f), "--output-dir", str(out)])
            err = capsys.readouterr().err
            assert code == 0 and "Traceback" not in err
            csv.append((out / "far.csv").read_text(encoding="utf-8"))
        rows = [line.split(",") for line in csv[0].splitlines()[1:]]
        assert len(rows) == 6
        assert all(float(r[1]) == 1.0 for r in rows)  # y_1 = x0 throughout
        assert csv[0] == csv[1]

    def test_output_dir_env_var_respected(self, tmp_path, capsys, monkeypatch):
        out_dir = tmp_path / "from_env"
        monkeypatch.setenv("IFPSYNC_OUTPUT_DIR", str(out_dir))
        f = write_json(tmp_path / "pair.json", INTEGRATOR_PAIR)
        code, _ = run_cli(capsys, "simulate", str(f))
        assert code == 0
        assert (out_dir / "pair.csv").exists()


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

class TestScenarioCommand:
    def test_harmonic_report(self, tmp_path, capsys):
        f = write_json(tmp_path / "osc.json", HARMONIC_TINY)
        code, out = run_cli(capsys, "scenario", str(f), "--output-dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert abs(report["amplitude_ratio"] - 2.0 / np.sqrt(13.0)) < 1e-9
        assert (tmp_path / "osc.report.json").exists()
        assert (tmp_path / "osc.csv").exists()

    def test_traffic_ring_report(self, tmp_path, capsys):
        f = write_json(tmp_path / "ring.json", TRAFFIC_RING)
        code, out = run_cli(capsys, "scenario", str(f), "--output-dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        assert report["certificate"]["weak_coupling"]["passes"] is True
        assert report["synchronized"] is True

    def test_divergent_counterexample_exits_4(self, tmp_path, capsys):
        f = write_json(tmp_path / "blow.json", REMARK1_DIVERGENT)
        code, out = run_cli(capsys, "scenario", str(f), "--output-dir", str(tmp_path))
        assert code == 4
        report = json.loads(out)
        assert report["predicted"] is False and report["observed"] is False

    def test_sweep_runs_a_list_concurrently_with_indexed_names(self, tmp_path, capsys):
        f = write_json(tmp_path / "batch.json", [HARMONIC_TINY, HARMONIC_TINY])
        code, out = run_cli(capsys, "scenario", str(f), "--sweep",
                            "--output-dir", str(tmp_path))
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 2
        assert (tmp_path / "batch_000.csv").exists()
        assert (tmp_path / "batch_001.report.json").exists()

    def test_sweep_equals_per_entry_runs_byte_for_byte(self, tmp_path, capsys, monkeypatch):
        # two batch groups (the traffic pair and the remark1 pair) interleaved
        # with single entries; one traffic entry diverges
        ring = {**TRAFFIC_RING, "sim": {"dt": 0.01, "t_final": 20.0, "record_stride": 10}}
        remark1 = {**REMARK1_DIVERGENT, "sim": {"t_final": 5.0}}
        entries = [
            ring,
            remark1,
            HARMONIC_TINY,
            {**ring, "K": 20.0},
            {**remark1, "kappa": 0.2},
            {**ring, "delays": [0.1, 0.1, 0.1]},
        ]
        sweep_dir, single_dir = tmp_path / "sweep", tmp_path / "single"
        sweep_dir.mkdir()
        single_dir.mkdir()

        monkeypatch.chdir(sweep_dir)
        write_json(sweep_dir / "mix.json", entries)
        code, out = run_cli(capsys, "scenario", "mix.json", "--sweep", "--plot",
                            "--output-dir", "out")

        monkeypatch.chdir(single_dir)
        codes, reports = [], []
        for i, entry in enumerate(entries):
            write_json(single_dir / f"mix_{i:03d}.json", entry)
            c, o = run_cli(capsys, "scenario", f"mix_{i:03d}.json", "--plot",
                           "--output-dir", "out")
            codes.append(c)
            reports.append(json.loads(o))

        assert codes[3] == 4 and code == max(codes) == 4
        assert out == json.dumps(reports, indent=2, sort_keys=True) + "\n"
        names = sorted(p.name for p in (sweep_dir / "out").iterdir())
        assert names == sorted(p.name for p in (single_dir / "out").iterdir())
        assert len(names) == 4 * len(entries)
        for name in names:
            assert (sweep_dir / "out" / name).read_bytes() == (single_dir / "out" / name).read_bytes()

    def test_bad_sweep_entry_writes_no_artifacts(self, tmp_path, capsys):
        bad = {**HARMONIC_TINY, "omega2": 1.0}  # equal frequencies
        f = write_json(tmp_path / "batch.json", [HARMONIC_TINY, bad])
        assert main(["scenario", str(f), "--sweep", "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().out == ""
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())

    def test_existing_report_exits_1_before_writing_anything(self, tmp_path, capsys):
        f = write_json(tmp_path / "chain.json", TRAFFIC_CHAIN_TINY)
        out = tmp_path / "out"
        out.mkdir()
        (out / "chain.report.json").write_text("{}", encoding="utf-8")
        assert main(["scenario", str(f), "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chain.report.json" in captured.err
        assert sorted(p.name for p in out.iterdir()) == ["chain.report.json"]

    def test_existing_artifact_of_one_sweep_entry_exits_1_before_writing_anything(
        self, tmp_path, capsys
    ):
        f = write_json(tmp_path / "batch.json", [HARMONIC_TINY] * 4)
        out = tmp_path / "out"
        out.mkdir()
        (out / "batch_002.csv").write_text("", encoding="utf-8")
        assert main(["scenario", str(f), "--sweep", "--plot", "--output-dir", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "batch_002.csv" in captured.err
        assert sorted(p.name for p in out.iterdir()) == ["batch_002.csv"]
        assert (out / "batch_002.csv").read_text(encoding="utf-8") == ""

    def test_platoon_metrics_are_those_of_the_gap_shifted_outputs(self, tmp_path, capsys):
        config = Path(__file__).resolve().parents[1] / "scripts" / "configs" / "platoon.json"
        code, out = run_cli(capsys, "scenario", str(config), "--output-dir", str(tmp_path))
        assert code == 0
        report = json.loads(out)
        metrics = json.loads((tmp_path / "platoon.metrics.json").read_text(encoding="utf-8"))
        assert report["synchronized"] is True
        assert metrics["synchronized"] is report["synchronized"]
        assert metrics == report["metrics"]
        assert metrics["pairwise_sup_tail"] < metrics["tol"]

    @pytest.mark.parametrize("key, value", BAD_SIM_SETTINGS)
    def test_invalid_sim_settings_exit_input_error(self, tmp_path, capsys, key, value):
        scn = {**HARMONIC_TINY, "sim": {**HARMONIC_TINY["sim"], key: value}}
        f = write_json(tmp_path / "bad.json", scn)
        code = main(["scenario", str(f), "--output-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"input error: {key} must be")
        assert "Traceback" not in err
        assert not (tmp_path / "bad.csv").exists()

    def test_blowup_setting_applies_to_a_scenario(self, tmp_path, capsys):
        # the oscillators start at a state norm above 0.5, so the run is cut
        # at its first step; the same setting in a network file exits 4 too
        scn = {**HARMONIC_TINY, "sim": {"dt": 0.01, "t_final": 5, "blowup": 0.5}}
        f = write_json(tmp_path / "osc.json", scn)
        code, out = run_cli(capsys, "scenario", str(f), "--output-dir", str(tmp_path))
        assert code == 4
        assert json.loads(out)["metrics"]["diverged"] is True

    @pytest.mark.parametrize(
        "extra, content, message", [c[1:] for c in BAD_SCENARIO_FILE],
        ids=[c[0] for c in BAD_SCENARIO_FILE],
    )
    def test_unreadable_scenario_file_exits_input_error(self, tmp_path, capsys, extra, content,
                                                         message):
        f = write_json(tmp_path / "bad.json", content)
        code = main(["scenario", str(f), *extra, "--output-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == message
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_list_without_sweep_flag_rejected(self, tmp_path, capsys):
        f = write_json(tmp_path / "batch.json", [HARMONIC_TINY])
        assert main(["scenario", str(f), "--output-dir", str(tmp_path)]) == 1

    @pytest.mark.parametrize(
        "base, field, value", [c[1:] for c in NON_FINITE_SCENARIO],
        ids=[c[0] for c in NON_FINITE_SCENARIO],
    )
    def test_non_finite_field_exits_input_error(self, tmp_path, capsys, base, field, value):
        f = write_json(tmp_path / "bad.json", {**base, field: value})
        code = main(["scenario", str(f), "--output-dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("input error:")
        assert re.search(rf"\b{field}\b[^\n]* must be finite", captured.err)
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "bad.csv").exists()


# ---------------------------------------------------------------------------
# artifact writing
# ---------------------------------------------------------------------------

JSON_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf"),
                       '"quoted"', "back\\slash", "na\u00efve \u2713", "two\nlines", ""])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=10,
)
REPORT_KEYS = st.text(max_size=6) | st.sampled_from(["metrics", "artifacts", "metrics\"", ""])


@given(st.lists(st.tuples(st.dictionaries(REPORT_KEYS, JSON_VALUES, max_size=4), JSON_VALUES),
                max_size=3))
def test_spliced_metrics_text_equals_one_dumps_of_the_summary(entries):
    dumps = functools.partial(json.dumps, indent=2, sort_keys=True)
    texts = [cli._splice(head, dumps(metrics)) for head, metrics in entries]
    summaries = [dict(head, metrics=metrics) for head, metrics in entries]
    assert texts == [dumps(summary) for summary in summaries]
    assert cli._json_list(texts) == dumps(summaries)


def test_sweep_writes_the_same_bytes_with_one_cpu_and_with_two(tmp_path, capsys, monkeypatch):
    # with two usable CPUs, one worker process writes the odd entries' CSVs
    # and SVGs; the stdout and every artifact are the serial write's bytes
    entries = [HARMONIC_TINY, REMARK1_TINY, TRAFFIC_CHAIN_TINY, PLATOON_TINY]
    real_start, started = cli._start_worker, []
    monkeypatch.setattr(cli, "_start_worker", lambda *a: started.append(a) or real_start(*a))
    outputs = []
    for cpus in (1, 2):
        monkeypatch.setattr(cli, "_usable_cpus", lambda n=cpus: n)
        work = tmp_path / f"cpus{cpus}"
        work.mkdir()
        monkeypatch.chdir(work)
        write_json(work / "mix.json", entries)
        code, out = run_cli(capsys, "scenario", "mix.json", "--sweep", "--plot",
                            "--output-dir", "out")
        files = {p.name: p.read_bytes() for p in (work / "out").iterdir()}
        outputs.append((code, out, files))
        assert len(started) == cpus - 1
    assert outputs[0] == outputs[1]
    assert len(outputs[0][2]) == 4 * len(entries)
    assert multiprocessing.active_children() == []


def test_write_error_in_the_worker_exits_input_error(tmp_path, capsys, monkeypatch):
    # sw_001.csv is written by the worker process; its error reaches main
    # as the same exception a serial write raises
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "sw.json", [HARMONIC_TINY] * 3)
    (tmp_path / "out" / "sw_001.csv").mkdir(parents=True)
    code = main(["scenario", "sw.json", "--sweep", "--force", "--output-dir", "out"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "input error: [Errno 21] Is a directory: 'out/sw_001.csv'\n"
    assert captured.out == ""
    assert multiprocessing.active_children() == []


def test_worker_sends_none_or_the_exception_it_raised():
    recv, send = multiprocessing.Pipe(duplex=False)
    cli._send_outcome(send, divmod, (7, 2))
    assert recv.recv() is None
    cli._send_outcome(send, divmod, (7, 0))
    outcome = recv.recv()
    assert isinstance(outcome, ZeroDivisionError)


def test_worker_that_ends_without_reporting_exits_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(cli, "_send_outcome", lambda conn, fn, args: os._exit(3))
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "sw.json", [HARMONIC_TINY] * 2)
    code = main(["scenario", "sw.json", "--sweep", "--output-dir", "out"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "input error: the CSV writer process ended with code 3\n"
    assert captured.out == ""
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# parser behavior
# ---------------------------------------------------------------------------

class TestSelftestAndParser:
    def test_unknown_subcommand_exits_input_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_console_entry_point_runs_in_a_subprocess(self, tmp_path):
        exe = shutil.which("ifp-syncnet")
        f = write_json(tmp_path / "tf.json", CUBIC_TF)
        cmd = [exe, "ifp", str(f)] if exe else [sys.executable, "-m", "ifpsync", "ifp", str(f)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert abs(json.loads(proc.stdout)["alpha"] - 0.25) < 1e-6

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_closed_standard_output_is_not_an_input_error(self, tmp_path, unbuffered):
        # the read end is closed before the child writes, so its first write
        # to stdout fails with EPIPE; without PYTHONUNBUFFERED that write is
        # the flush at the end of main
        net = write_json(tmp_path / "net.json", INTEGRATOR_PAIR)
        out = tmp_path / "out"
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
        cmd = [sys.executable, "-m", "ifpsync", "simulate", str(net), "--output-dir", str(out)]
        try:
            proc = subprocess.run(cmd, stdout=write_end, stderr=subprocess.PIPE, text=True,
                                  env=env, timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, "")
        assert sorted(p.suffix for p in out.iterdir()) == [".csv", ".json"]

    def test_closed_standard_output_goes_to_devnull(self, tmp_path, capsys, monkeypatch):
        # in-process: the stream raises EPIPE as a pipe without a reader does,
        # and after main its descriptor writes to devnull, not to the pipe
        read_end, write_end = os.pipe()

        class ReaderGone:
            def write(self, *_):
                raise BrokenPipeError(32, "Broken pipe")

            flush = write

            def fileno(self):
                return write_end

        f = write_json(tmp_path / "tf.json", CUBIC_TF)
        monkeypatch.setattr(sys, "stdout", ReaderGone())
        try:
            assert main(["ifp", str(f)]) == 141
            os.write(write_end, b"after main")
        finally:
            os.close(write_end)
        with os.fdopen(read_end, "rb") as pipe:
            assert pipe.read() == b""
        assert capsys.readouterr().err == ""
