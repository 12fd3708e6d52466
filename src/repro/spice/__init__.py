"""SPICE-class circuit simulator (DC + transient nodal analysis).

Stands in for the commercial SPICE the paper uses for standard-cell
characterization: modified nodal analysis, Newton-Raphson with the
cryogenic FinFET compact model, trapezoidal transient integration, and
the SiliconSmart-style waveform measurements.
"""

from .netlist import Circuit, GROUND
from .engine import ConvergenceError, OperatingPoint, Simulator, TransientResult
from .kernels import BatchStamper
from .batch import BatchedSimulator, TrajectorySpec
from .waveforms import DC, PWL, Waveform, pulse, ramp
from .analysis import (
    crossing_time,
    propagation_delay,
    supply_energy,
    transition_time,
    waveform_digest,
)

__all__ = [
    "BatchStamper",
    "BatchedSimulator",
    "Circuit",
    "GROUND",
    "TrajectorySpec",
    "ConvergenceError",
    "OperatingPoint",
    "Simulator",
    "TransientResult",
    "DC",
    "PWL",
    "Waveform",
    "pulse",
    "ramp",
    "crossing_time",
    "propagation_delay",
    "supply_energy",
    "transition_time",
    "waveform_digest",
]
