"""Reference technology mapper: the original per-candidate evaluation.

The program maps with match plans compiled once per library view and
evaluated per cut (:class:`repro.mapping.techmap.TechnologyMapper`).
Its contract is byte-identity with the straightforward mapper kept
here, which costs every (cut, configuration, cell) candidate from
scratch into a cost dict and picks the winner with the two-way
epsilon comparator ``better`` plus the raw ``key`` tie-break: the same
gates, pin maps, net names, PIs and POs.  ``tests/test_map_oracle.py``
and ``benchmarks/test_map_default.py`` check the two against each
other.

The library view, cut engine, activity models and netlist types are
the program's own and are imported from it.  Nothing here is imported
by the program.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from repro.charlib.nldm import LibertyCell
from repro.mapping.cost import CostPolicy, baseline_power_aware
from repro.mapping.library import MatchConfig, TechLibraryView
from repro.mapping.netlist import GateInstance, MappedNetlist
from repro.synth.activity import node_activities, simulated_activities
from repro.synth.aig import AIG, lit_var
from repro.synth.cuts import Cut, enumerate_cuts


def better(policy: CostPolicy, a: dict[str, float], b: dict[str, float]) -> bool:
    """True if cost vector ``a`` beats ``b`` under ``policy``."""
    for metric in policy.priorities:
        va, vb = a[metric], b[metric]
        scale = max(abs(va), abs(vb), 1e-30)
        if abs(va - vb) / scale <= policy.epsilon:
            continue
        return va < vb
    return False


def key(policy: CostPolicy, costs: dict[str, float]) -> tuple[float, float, float]:
    """Raw ordering key (no epsilon), for deterministic sorts."""
    return tuple(costs[m] for m in policy.priorities)  # type: ignore[return-value]


@dataclass
class _Match:
    cut: Cut
    config: MatchConfig
    cell: LibertyCell
    costs: dict[str, float]
    arrival: float


class ReferenceMapper:
    """The original DP mapper, with the program's constructor."""

    def __init__(
        self,
        view: TechLibraryView,
        policy: CostPolicy | None = None,
        k: int = 4,
        max_cuts: int = 8,
        cells_per_family: int = 2,
        activity_source: str = "simulation",
        pi_probability: float = 0.5,
        wire_cap: float = 1.4e-16,
        leakage_ref_period: float = 1.0e-9,
    ):
        self.view = view
        self.policy = policy or baseline_power_aware()
        self.k = k
        self.max_cuts = max_cuts
        self.cells_per_family = cells_per_family
        self.activity_source = activity_source
        self.pi_probability = pi_probability
        self.wire_cap = wire_cap
        self.leakage_ref_period = leakage_ref_period
        inv = view.inverter
        self._inv_area = inv.area
        self._inv_delay = inv.typical_delay()
        self._inv_energy = inv.typical_energy()
        self._inv_cap = next(iter(inv.input_caps.values()))
        self._inv_leak = inv.leakage_average
        # Per-cell constants, computed once per cell.
        self._delay: dict[str, float] = {}
        self._energy: dict[str, float] = {}
        self._leak: dict[str, float] = {}
        self._caps: dict[str, tuple[float, ...]] = {}
        for cell in view.library.cells.values():
            self._delay[cell.name] = cell.typical_delay()
            self._energy[cell.name] = cell.typical_energy()
            self._leak[cell.name] = cell.leakage_average
            self._caps[cell.name] = tuple(
                cell.input_caps.get(pin, 0.0) for pin in cell.input_pins
            )

    # ------------------------------------------------------------------
    def map(self, aig: AIG) -> MappedNetlist:
        if aig.num_pis == 0 and aig.num_ands > 0:
            raise ValueError("cannot map a network without primary inputs")
        vdd = self.view.library.vdd
        if self.activity_source == "simulation":
            activities = simulated_activities(aig, vectors=256)
        else:
            activities = node_activities(aig, self.pi_probability)
        cuts = enumerate_cuts(aig, k=self.k, max_cuts=self.max_cuts)
        fanouts = aig.fanout_counts()

        best: dict[int, _Match] = {}
        zero = {"power": 0.0, "area": 0.0, "delay": 0.0}
        state_costs: dict[int, dict[str, float]] = {0: dict(zero)}
        arrivals: dict[int, float] = {0: 0.0}
        for node in aig.pis:
            state_costs[node] = dict(zero)
            arrivals[node] = 0.0

        policy = self.policy
        for node in aig.and_nodes():
            chosen: _Match | None = None
            for cut in cuts[node]:
                if node in cut.leaves or not cut.leaves:
                    continue
                if any(leaf not in state_costs for leaf in cut.leaves):
                    continue
                arity = len(cut.leaves)
                for config in self.view.matches(cut.table, arity):
                    for cell in self.view.family_cells(config)[: self.cells_per_family]:
                        match = self._evaluate(
                            node, cut, config, cell, activities, fanouts,
                            state_costs, arrivals, vdd,
                        )
                        if chosen is None or better(policy, match.costs, chosen.costs) or (
                            not better(policy, chosen.costs, match.costs)
                            and key(policy, match.costs) < key(policy, chosen.costs)
                        ):
                            chosen = match
            if chosen is None:
                raise RuntimeError(
                    f"node {node}: no match found (cut functions not in library)"
                )
            best[node] = chosen
            state_costs[node] = chosen.costs
            arrivals[node] = chosen.arrival
        return self._extract(aig, best)

    # ------------------------------------------------------------------
    def _evaluate(
        self,
        node: int,
        cut: Cut,
        config: MatchConfig,
        cell: LibertyCell,
        activities: list[float],
        fanouts: list[int],
        state_costs: dict[int, dict[str, float]],
        arrivals: dict[int, float],
        vdd: float,
    ) -> _Match:
        n_inv_in = config.num_input_inverters
        n_inv_out = 1 if config.output_neg else 0
        act_root = activities[node]
        half_cv2 = 0.5 * vdd * vdd
        leak_scale = self.leakage_ref_period

        area = cell.area + (n_inv_in + n_inv_out) * self._inv_area
        cell_delay = self._delay[cell.name]
        arrival = 0.0
        power = act_root * (self._energy[cell.name] + self.wire_cap * half_cv2)
        power += self._leak[cell.name] * leak_scale
        for pin_index in range(len(cut.leaves)):
            leaf = cut.leaves[config.leaf_of_pin[pin_index]]
            inverted = bool((config.pin_neg_mask >> pin_index) & 1)
            leaf_arrival = arrivals[leaf] + (self._inv_delay if inverted else 0.0)
            arrival = max(arrival, leaf_arrival)
            act_leaf = activities[leaf] if leaf < len(activities) else 0.5
            pin_cap = self._caps[cell.name][pin_index]
            power += act_leaf * pin_cap * half_cv2
            if inverted:
                power += act_leaf * (
                    self._inv_cap * half_cv2
                    + self._inv_energy
                    + self.wire_cap * half_cv2
                )
                power += self._inv_leak * leak_scale
        arrival += cell_delay + (self._inv_delay if n_inv_out else 0.0)
        if n_inv_out:
            power += act_root * (
                self._inv_cap * half_cv2 + self._inv_energy + self.wire_cap * half_cv2
            )
            power += self._inv_leak * leak_scale

        costs = {"power": power, "area": area, "delay": arrival}
        for leaf in cut.leaves:
            share = max(1.0, float(fanouts[leaf]))
            leaf_costs = state_costs[leaf]
            costs["power"] += leaf_costs["power"] / share
            costs["area"] += leaf_costs["area"] / share
        return _Match(cut=cut, config=config, cell=cell, costs=costs, arrival=arrival)

    # ------------------------------------------------------------------
    def _extract(self, aig: AIG, best: dict[int, _Match]) -> MappedNetlist:
        netlist = MappedNetlist(aig.name)
        netlist.pi_nets = list(aig.pi_names)
        pi_net_of = {node: name for node, name in zip(aig.pis, aig.pi_names)}
        net_of: dict[int, str] = dict(pi_net_of)
        inverted_net: dict[str, str] = {}
        emitted: set[int] = set(aig.pis)
        counter = [0]

        def fresh(prefix: str) -> str:
            counter[0] += 1
            return f"{prefix}{counter[0]}"

        def invert(net: str) -> str:
            cached = inverted_net.get(net)
            if cached is not None:
                return cached
            out = fresh("ninv")
            netlist.gates.append(
                GateInstance(
                    name=fresh("g_inv"),
                    cell=self.view.inverter.name,
                    pins={self.view.inverter.input_pins[0]: net},
                    output_net=out,
                )
            )
            inverted_net[net] = out
            return out

        def emit(node: int) -> str:
            if node == 0:
                return const_net(False)
            if node in emitted:
                return net_of[node]
            match = best[node]
            leaf_nets = [emit(leaf) for leaf in match.cut.leaves]
            pins: dict[str, str] = {}
            for pin_index, pin in enumerate(match.cell.input_pins):
                source = leaf_nets[match.config.leaf_of_pin[pin_index]]
                if (match.config.pin_neg_mask >> pin_index) & 1:
                    source = invert(source)
                pins[pin] = source
            out_net = fresh(f"n{node}_")
            netlist.gates.append(
                GateInstance(
                    name=fresh("g"),
                    cell=match.cell.name,
                    pins=pins,
                    output_net=out_net,
                    output_pin=match.cell.output_pins[0],
                )
            )
            if match.config.output_neg:
                out_net = invert(out_net)
            net_of[node] = out_net
            emitted.add(node)
            return out_net

        const_cache: dict[bool, str] = {}

        def const_net(value: bool) -> str:
            if value in const_cache:
                return const_cache[value]
            if not netlist.pi_nets:
                raise ValueError("cannot synthesize constants without PIs")
            base = netlist.pi_nets[0]
            zero = fresh("nconst0_")
            and2b = self._find_cell("AND2B")
            netlist.gates.append(
                GateInstance(
                    name=fresh("g_tie"),
                    cell=and2b.name,
                    pins={and2b.input_pins[0]: base, and2b.input_pins[1]: base},
                    output_net=zero,
                )
            )
            const_cache[False] = zero
            if value:
                one = invert(zero)
                const_cache[True] = one
                return one
            return zero

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 2 * aig.num_nodes + 100))
        try:
            for po, name in zip(aig.pos, aig.po_names):
                node = lit_var(po)
                if node == 0:
                    net = const_net(bool(po & 1))
                else:
                    net = emit(node)
                    if po & 1:
                        net = invert(net)
                netlist.po_nets.append(net)
        finally:
            sys.setrecursionlimit(old_limit)
        return netlist

    def _find_cell(self, prefix: str) -> LibertyCell:
        for cell in self.view.library.cells.values():
            if cell.name.startswith(prefix):
                return cell
        raise KeyError(f"no cell with prefix {prefix!r} in library")
