"""Discrete-event simulation substrate."""

from .core import MSEC, NSEC, SEC, USEC, Event, SimulationError, Simulator, Timer
from .rng import RngFactory, derive_seed

__all__ = [
    "NSEC",
    "USEC",
    "MSEC",
    "SEC",
    "Event",
    "Simulator",
    "SimulationError",
    "Timer",
    "RngFactory",
    "derive_seed",
]
