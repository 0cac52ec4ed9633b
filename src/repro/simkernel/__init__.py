"""Deterministic discrete-event simulation kernel.

A small, self-contained SimPy-style engine: generator processes yield
events (timeouts, store operations, other processes) and an
:class:`Environment` drives them in deterministic time order.
"""

from .core import Environment, StopSimulation
from .events import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)
from .resources import Store
from .rng import DistributionSampler, RandomStreams

__all__ = [
    "Environment",
    "StopSimulation",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
    "SimulationError",
    "Store",
    "RandomStreams",
    "DistributionSampler",
]
