"""Rack power-draw analysis and peak-shaving simulation.

The package models an AI-accelerator rack as a power trace, detects the
short spikes such workloads ride on top of their base draw, and
simulates how storage devices of different speeds and capacities keep
the grid feed flat: what gets curtailed, what burns off as dummy load,
and how many accelerators a given device spares from shutdown.
"""

from . import devices, shaving, spikes, sweep, trace
from .devices import *
from .shaving import *
from .spikes import *
from .sweep import *
from .trace import *

__version__ = "0.1.0"

__all__ = ["__version__", *trace.__all__, *spikes.__all__, *devices.__all__,
           *shaving.__all__, *sweep.__all__]
