"""Synchronization of heterogeneous input-feedforward-passive agents over
weighted digraphs: passivity indices, weak-coupling certificates, delay-aware
network simulation, and prebuilt traffic/platoon/counterexample scenarios.
"""

from . import errors, graphnet, passivity, certify, netsim, scenarios
from .errors import *
from .graphnet import *
from .passivity import *
from .certify import *
from .netsim import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (errors, graphnet, passivity, certify, netsim, scenarios)
    for name in module.__all__
]
