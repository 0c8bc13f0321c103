"""Discrete-event simulation kernel and shared resources."""

from .engine import AllOf, Event, Process, SimulationError, Simulator, Timeout
from .resources import BandwidthPipe, CreditPool, RoundRobinArbiter, Store
from .stats import Series, percentile

__all__ = [
    "AllOf",
    "Event",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
    "BandwidthPipe",
    "CreditPool",
    "RoundRobinArbiter",
    "Store",
    "Series",
    "percentile",
]
