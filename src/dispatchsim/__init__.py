"""Event-driven vehicle dispatch simulator with a double-DQN training harness."""

from .geometry import Coordinate, minute_of_week
from .kernels import IMPLEMENTATION as KERNEL_IMPLEMENTATION

__version__ = "0.1.0"

__all__ = [
    "Coordinate",
    "minute_of_week",
    "KERNEL_IMPLEMENTATION",
    "__version__",
]
