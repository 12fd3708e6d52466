"""Technology mapping: Boolean matching onto characterized libraries
with configurable cost-priority lists (the paper's contribution)."""

from .cost import CostPolicy, all_orderings, baseline_power_aware, p_a_d, p_d_a
from .library import CellFamily, MatchConfig, TechLibraryView
from .netlist import GateInstance, MappedNetlist
from .techmap import TechnologyMapper, map_to_gates

__all__ = [
    "CostPolicy",
    "all_orderings",
    "baseline_power_aware",
    "p_a_d",
    "p_d_a",
    "CellFamily",
    "MatchConfig",
    "TechLibraryView",
    "GateInstance",
    "MappedNetlist",
    "TechnologyMapper",
    "map_to_gates",
]
