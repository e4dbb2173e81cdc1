"""Two-step cache tag comparison: cost model, optimum, simulation, costs.

Comparing only the k low-order tag bits of every way first, and the
remaining bits only for ways whose prefix matched, cuts the expected
tag bits read per cache access without changing any hit/miss outcome.
This package models that expected cost in closed form, locates the
optimal splitting point, verifies the model against a trace-driven
LRU simulator, and translates bit reads into energy and reliability.
"""

from . import costs, model, optimum, sim, traces
from .costs import *
from .model import *
from .optimum import *
from .sim import *
from .traces import *

__version__ = "0.1.0"

__all__ = [name for module in (model, optimum, sim, traces, costs) for name in module.__all__]
