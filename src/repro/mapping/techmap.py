"""Standard-cell technology mapping (ABC's ``map``).

Cut-based Boolean matching with dynamic programming: every AND node
gets the best (cut, cell, NP-configuration) under the active
:class:`CostPolicy`.  The three cost metrics are computed locally per
match and accumulated area-flow style:

* **area** — cell area plus any inserted inverters;
* **delay** — arrival time through representative NLDM delays;
* **power** — switching power of the nets the match exposes
  (leaf-pin capacitance x leaf activity x V_dd^2), internal energy of
  the cell weighted by the root's activity, plus state-averaged
  leakage.  At cryogenic corners the leakage term is naturally
  negligible, which is exactly the paper's argument for re-weighting
  the objectives.

Inverters required by a configuration (input or output polarity) are
costed in the DP and shared per net during extraction.

The DP reads its per-cell constants from match plans compiled once per
library view (:class:`repro.mapping.library.MatchPlans`), and computes
what a cut's candidates share once per cut; each candidate's costs are
still summed in the order of costing it from scratch, so the netlist
is the one a from-scratch evaluation would give.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .. import obs
from ..charlib.nldm import Library, LibertyCell
from ..synth.activity import node_activities, simulated_activities
from ..synth.aig import AIG, lit_var
from ..synth.cuts import Cut, enumerate_cuts
from ..synth.memo import memoized
from .cost import CostPolicy, baseline_power_aware
from .library import MAX_MATCH_INPUTS, MatchConfig, TechLibraryView
from .netlist import GateInstance, MappedNetlist


class _Match(NamedTuple):
    """The winning candidate of one node."""

    cut: Cut
    config: MatchConfig
    cell: LibertyCell


class TechnologyMapper:
    """Maps AIGs onto a characterized library under a cost policy."""

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
        #: Estimated wire capacitance of a match's output net [F]
        #: (kept consistent with the signoff parasitics).
        self.wire_cap = wire_cap
        #: Reference clock period converting leakage power into a
        #: per-cycle energy commensurate with the dynamic terms [s].
        self.leakage_ref_period = leakage_ref_period
        self.plans = view.plans(cells_per_family, wire_cap, leakage_ref_period)

    # ------------------------------------------------------------------
    def map(self, aig: AIG, memo: dict | None = None) -> MappedNetlist:
        """Map a combinational AIG to a gate-level netlist.

        The node activities and cut sets do not depend on the library
        or the policy; with a ``memo`` (see :mod:`repro.synth.memo`)
        another mapper of the same network reuses them.
        """
        if aig.num_pis == 0 and aig.num_ands > 0:
            raise ValueError("cannot map a network without primary inputs")
        activities, cuts = memoized(
            memo, "map.inputs", aig,
            (self.k, self.max_cuts, self.activity_source, self.pi_probability),
            lambda: self._inputs(aig),
        )
        with obs.span("map.match"):
            best = self._match(aig, activities, cuts)
        return self._extract(aig, best)

    def _inputs(self, aig: AIG) -> tuple[list[float], dict[int, list[Cut]]]:
        """The node activities and cut sets :meth:`_match` reads."""
        if self.activity_source == "simulation":
            activities = simulated_activities(aig, vectors=256)
        else:
            activities = node_activities(aig, self.pi_probability)
        return activities, enumerate_cuts(aig, k=self.k, max_cuts=self.max_cuts)

    # ------------------------------------------------------------------
    def _match(
        self, aig: AIG, activities: list[float], cuts: dict[int, list[Cut]]
    ) -> dict[int, _Match]:
        """The DP: the best (cut, config, cell) of every AND node.

        Per candidate, the costs are

        * power: ``act_root * energy + leakage``, then per cell pin in
          pin order ``act_leaf * cap * half_cv2`` and, on an inverted
          pin, the inverter's ``act_leaf * inv_energy + inv_leakage``;
          then the output inverter's terms; then each leaf's power
          divided by its fanout share, in leaf order;
        * area: the plan's area, then each leaf's area share;
        * delay: the latest (inverted) leaf arrival plus the plan's
          delay.

        Every sum is taken in that order, one term at a time, so the
        costs are those of costing each candidate from scratch.  What
        does not depend on the cell is computed once per cut (leaf
        activities, arrivals and shares) or once per config (the input
        arrival).  Candidates are scanned in cut, config and cell order;
        one replaces the incumbent when ``compare`` ranks it better, or
        when they tie and its raw priority key is smaller.
        """
        plans = self.plans
        tables = plans.tables
        half_cv2 = plans.half_cv2
        inv_delay = plans.inv_delay
        inv_energy = plans.inv_energy
        inv_leakage = plans.inv_leakage
        compare = self.policy.compare
        key = itemgetter(*self.policy.order)
        n_act = len(activities)
        fanouts = aig.fanout_counts()

        # Per node: the chosen arrival, and the chosen power and area
        # divided by the node's fanout share (None until mapped).
        arrival: list[float] = [0.0] * aig.num_nodes
        power_share: list[float | None] = [None] * aig.num_nodes
        area_share: list[float | None] = [None] * aig.num_nodes
        for node in [0, *aig.pis]:
            power_share[node] = area_share[node] = 0.0

        best: dict[int, _Match] = {}
        evaluated = compiled = 0
        for node in aig.and_nodes():
            act_root = activities[node]
            root_inverter = act_root * inv_energy
            chosen = None
            for cut in cuts[node]:
                leaves = cut.leaves
                if node in leaves or not leaves:
                    continue
                leaf_power = [power_share[leaf] for leaf in leaves]
                if None in leaf_power:
                    continue
                arity = len(leaves)
                if arity > MAX_MATCH_INPUTS:
                    continue
                plan = tables[arity].get(cut.table)
                if plan is None:
                    plan = plans.compile(arity, cut.table)
                    compiled += 1
                if not plan:
                    continue
                leaf_area = [area_share[leaf] for leaf in leaves]
                acts = [activities[leaf] if leaf < n_act else 0.5 for leaf in leaves]
                act_inverter = [act * inv_energy for act in acts]
                leaf_arrival = [arrival[leaf] for leaf in leaves]
                inverted_arrival = [a + inv_delay for a in leaf_arrival]
                for config, leaf_of_pin, pin_inverted, output_neg, cells in plan:
                    arrival_in = 0.0
                    for i, inverted in zip(leaf_of_pin, pin_inverted):
                        a = inverted_arrival[i] if inverted else leaf_arrival[i]
                        if a > arrival_in:
                            arrival_in = a
                    evaluated += len(cells)
                    for cell, area, delay, energy, leakage, caps in cells:
                        power = act_root * energy
                        power += leakage
                        for i, inverted, cap in zip(leaf_of_pin, pin_inverted, caps):
                            power += acts[i] * cap * half_cv2
                            if inverted:
                                power += act_inverter[i]
                                power += inv_leakage
                        if output_neg:
                            power += root_inverter
                            power += inv_leakage
                        for term in leaf_power:
                            power += term
                        for term in leaf_area:
                            area += term
                        costs = (power, area, arrival_in + delay)
                        if chosen is not None:
                            c = compare(costs, chosen)
                            if not (c < 0 or (c == 0 and key(costs) < key(chosen))):
                                continue
                        chosen = costs
                        winner = (cut, config, cell)
            if chosen is None:
                raise RuntimeError(
                    f"node {node}: no match found (cut functions not in library)"
                )
            best[node] = _Match(*winner)
            share = max(1.0, float(fanouts[node]))
            power_share[node] = chosen[0] / share
            area_share[node] = chosen[1] / share
            arrival[node] = chosen[2]

        if obs.current_tracer() is not None:
            obs.count("map.matches_evaluated", evaluated)
            obs.count("map.nodes_mapped", len(best))
            obs.count("map.plans_compiled", compiled)
        return best

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
            # AND2B(A, A) = !A & A = 0 gives a constant-0 net.
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

        import sys

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


def map_to_gates(
    aig: AIG,
    library: Library,
    policy: CostPolicy | None = None,
    **kwargs,
) -> MappedNetlist:
    """Convenience wrapper: build the view and map in one call."""
    view = TechLibraryView(library)
    mapper = TechnologyMapper(view, policy, **kwargs)
    return mapper.map(aig)
