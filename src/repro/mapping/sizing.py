"""Post-mapping gate sizing (discrete drive-strength selection).

The paper leaves deeper cryogenic-aware optimization as future work;
this pass implements the most natural next step: after technology
mapping, revisit every gate and pick the drive strength within its
cell family that best serves the active cost policy given the *actual*
load the gate drives — upsizing only where the measured load justifies
the extra input capacitance and internal energy, downsizing
over-provisioned cells on light nets.

The pass is functionality-preserving by construction (cells are only
swapped within a Boolean-function family) and iterates to a fixed
point (sizing one gate changes the load of its fanins).
"""

from __future__ import annotations

from dataclasses import dataclass

from typing import TYPE_CHECKING

from ..charlib.nldm import Library, LibertyCell
from .cost import CostPolicy, baseline_power_aware
from .netlist import GateInstance, MappedNetlist

# ``repro.sta.timing`` imports ``repro.mapping.netlist``, so a
# module-level import here would close an import cycle whose outcome
# depends on which package initializes first.  The STA classes are
# imported lazily inside :func:`size_gates` instead.
if TYPE_CHECKING:
    from ..sta.timing import SignoffConfig


@dataclass
class SizingReport:
    """Outcome of one sizing run."""

    passes: int = 0
    upsized: int = 0
    downsized: int = 0

    @property
    def total_changes(self) -> int:
        return self.upsized + self.downsized


def _family_key(cell: LibertyCell) -> tuple:
    """Cells are interchangeable iff same function over same pins."""
    return (
        cell.input_pins,
        cell.output_pins,
        tuple(sorted(cell.truth_tables.items())),
    )


def _build_families(library: Library) -> dict[tuple, list[LibertyCell]]:
    families: dict[tuple, list[LibertyCell]] = {}
    for cell in library.cells.values():
        if cell.is_sequential or not cell.truth_tables:
            continue
        families.setdefault(_family_key(cell), []).append(cell)
    for cells in families.values():
        cells.sort(key=lambda c: c.area)
    return families


def size_gates(
    netlist: MappedNetlist,
    library: Library,
    policy: CostPolicy | None = None,
    config: SignoffConfig | None = None,
    activity: float = 0.2,
    max_passes: int = 4,
) -> tuple[MappedNetlist, SizingReport]:
    """Resize gates within their function families.

    Returns a new netlist plus a report.  The local cost of a choice
    combines the gate's worst arc delay at its measured (slew, load),
    its per-event energy plus the input capacitance it presents, and
    its area — compared under ``policy``.
    """
    from ..sta.timing import SignoffConfig, StaticTimingAnalyzer

    policy = policy or baseline_power_aware()
    config = config or SignoffConfig()
    families = _build_families(library)
    report = SizingReport()
    vdd = library.vdd

    gates = [GateInstance(g.name, g.cell, dict(g.pins), g.output_net, g.output_pin)
             for g in netlist.gates]
    current = MappedNetlist(
        netlist.name, list(netlist.pi_nets), list(netlist.po_nets), gates
    )

    # One analyzer across all passes: the in-place cell swaps below
    # are absorbed by the timing graph's ``sync`` and each pass
    # after the first is an incremental retime of the changed cones
    # instead of a full-netlist STA (``sta.incremental_hits`` counts
    # them).
    sta = StaticTimingAnalyzer(current, library, config)
    for _ in range(max_passes):
        report.passes += 1
        timing = sta.analyze()
        changes = 0
        for index, gate in enumerate(current.gates):
            cell = library[gate.cell]
            family = families.get(_family_key(cell))
            if not family or len(family) < 2:
                continue
            load = timing.net_load.get(gate.output_net, 0.0)
            # Remove this gate's own pin contribution bias: the load
            # seen is independent of the candidate choice.
            in_slew = max(
                (timing.slew.get(net, config.input_slew) for net in gate.pins.values()),
                default=config.input_slew,
            )
            best_cell = None
            best_cost = None
            for candidate in family:
                arcs = candidate.arcs
                if not arcs:
                    continue
                delay = max(arc.worst_delay(in_slew, load) for arc in arcs)
                energy = sum(arc.average_energy(in_slew, load) for arc in arcs) / len(arcs)
                input_cap = sum(candidate.input_caps.values())
                cost = {
                    "delay": delay,
                    "power": activity * (energy + input_cap * vdd * vdd)
                    + candidate.leakage_average * 1e-9,
                    "area": candidate.area,
                }
                if best_cost is None or policy.better(cost, best_cost) or (
                    not policy.better(best_cost, cost)
                    and policy.key(cost) < policy.key(best_cost)
                ):
                    best_cost = cost
                    best_cell = candidate
            if best_cell is not None and best_cell.name != gate.cell:
                old_area = cell.area
                current.gates[index] = GateInstance(
                    gate.name, best_cell.name, dict(gate.pins),
                    gate.output_net, gate.output_pin,
                )
                if best_cell.area > old_area:
                    report.upsized += 1
                else:
                    report.downsized += 1
                changes += 1
        if changes == 0:
            break
    return current, report
