"""Static timing analysis over mapped netlists.

The signoff-grade delay engine (the PrimeTime substrate): NLDM table
lookups with slew propagation over the gate-level netlist in
topological order, worst-arrival maximization, and critical-path
extraction.  All values SI (seconds, farads).

:class:`StaticTimingAnalyzer` runs on the array-based levelized
:class:`~repro.sta.graph.TimingGraph`, vectorized over whole levels of
timing arcs.  The original per-gate dict propagation is kept as a test
oracle (``tests/oracles/sta_reference.py``); ``tests/test_sta_graph.py``
pins the two bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..charlib.nldm import Library
from ..mapping.netlist import MappedNetlist


@dataclass(frozen=True)
class SignoffConfig:
    """Parasitic and boundary conditions for signoff analysis."""

    #: Slew assumed at primary inputs [s].
    input_slew: float = 1.0e-11
    #: Load assumed at primary outputs [F].
    output_load: float = 1.0e-15
    #: Fixed wire capacitance per net [F].
    wire_cap_base: float = 1.0e-16
    #: Additional wire capacitance per fanout [F].
    wire_cap_per_fanout: float = 2.0e-17


@dataclass
class TimingReport:
    """Result of one STA run."""

    arrival: dict[str, float]
    slew: dict[str, float]
    net_load: dict[str, float]
    critical_path: list[str] = field(default_factory=list)
    #: Critical (worst PO arrival) delay [s].
    max_delay: float = 0.0
    #: Arrival time per primary-output net [s].
    po_arrival: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready summary (the signoff surface, not per-net state)."""
        return {
            "max_delay_s": self.max_delay,
            "critical_path": list(self.critical_path),
            "po_arrival_s": dict(self.po_arrival),
        }


class StaticTimingAnalyzer:
    """NLDM-based STA for combinational mapped netlists.

    Each ``analyze()`` compiles the netlist as it stands into a fresh
    :class:`~repro.sta.graph.TimingGraph` and runs one full analysis,
    so a netlist edited between calls is never timed against a stale
    compile.
    """

    def __init__(
        self,
        netlist: MappedNetlist,
        library: Library,
        config: SignoffConfig | None = None,
    ):
        self.netlist = netlist
        self.library = library
        self.config = config or SignoffConfig()

    @classmethod
    def from_context(cls, context, netlist: MappedNetlist) -> "StaticTimingAnalyzer":
        """Build an analyzer from a :class:`repro.core.context.DesignContext`
        (library + signoff boundary conditions come from the context)."""
        return cls(netlist, context.library, context.signoff)

    # ------------------------------------------------------------------
    def analyze(self) -> TimingReport:
        """Propagate arrivals/slews; returns the timing report."""
        from .graph import TimingGraph

        return TimingGraph(self.netlist, self.library, self.config).analyze()


def critical_delay(
    netlist: MappedNetlist, library: Library, config: SignoffConfig | None = None
) -> float:
    """Convenience: worst PO arrival [s]."""
    return StaticTimingAnalyzer(netlist, library, config).analyze().max_delay
