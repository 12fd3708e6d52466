"""Priority-cut k-LUT mapping (ABC's ``if``).

Collapses an AIG (optionally with structural choices) into a network
of k-input LUTs by dynamic programming over enumerated cuts:

* pass 1 selects depth-optimal cuts;
* pass 2+ recovers area/power with flow costs under required-time
  bounds;
* ``power_mode`` selects the flow-cost composition — ``"off"`` (pure
  LUT-count area flow), ``"tiebreak"`` (ABC's ``if -p``: size primary,
  switching activity secondary), or ``"primary"`` (the paper's
  proposed cryogenic-aware hierarchy: activity first).

Cut enumeration runs *table-free*; truth tables are computed by cone
simulation only for the cuts the cover actually selects.  The result is structure-free
(leaves + truth table per LUT), which is exactly what lets structural
choice classes contribute alternative cuts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .activity import node_activities
from .aig import AIG, lit_var
from .choices import ChoiceAIG
from .cuts import cut_function, enumerate_cuts
from .lutnet import LUTNetwork
from .truth import tt_flip_input, tt_not, tt_permute


@dataclass(frozen=True)
class _Candidate:
    """One mapping choice for a representative node.

    ``leaves`` are representative node ids (sorted); the implementing
    structure is the cone of ``member`` over ``member_leaves`` in the
    underlying network, with per-leaf phases and an output phase.
    """

    leaves: tuple[int, ...]
    member: int
    member_leaves: tuple[int, ...]
    leaf_phases: tuple[bool, ...]
    output_phase: bool


@dataclass
class _NodeState:
    best: _Candidate | None = None
    depth: int = 0
    flow: float = 0.0
    refs: float = 1.0


def map_luts(
    aig: AIG,
    k: int = 6,
    max_cuts: int = 8,
    power_mode: str = "off",
    choices: ChoiceAIG | None = None,
    area_passes: int = 2,
    pi_probability: float = 0.5,
) -> LUTNetwork:
    """Map an AIG (or its choice-augmented version) to k-LUTs."""
    if power_mode not in ("off", "tiebreak", "primary"):
        raise ValueError(f"unknown power mode {power_mode!r}")
    network = choices.aig if choices is not None else aig

    if choices is None:
        def rep(node: int) -> int:
            return node

        def phase(node: int) -> bool:
            return False
    else:
        def rep(node: int) -> int:
            return choices.representative[node]

        def phase(node: int) -> bool:
            return choices.phase[node]

    result = LUTNetwork(network.num_pis, name=network.name)
    result.pi_names = list(network.pi_names)
    result.po_names = list(network.po_names)
    pi_ids = {node: i + 1 for i, node in enumerate(network.pis)}

    if network.num_ands == 0:
        for po in network.pos:
            var = lit_var(po)
            result.outputs.append((pi_ids.get(var, 0), bool(po & 1)))
        return result

    raw_cuts = enumerate_cuts(network, k=k, max_cuts=max_cuts, compute_tables=False)
    activities = node_activities(network, pi_probability)
    fanouts = network.fanout_counts()

    def candidates_for(node: int) -> list[_Candidate]:
        members = choices.members.get(node, [node]) if choices is not None else [node]
        seen: set[tuple] = set()
        out: list[_Candidate] = []
        for member in members:
            member_phase = phase(member)
            for cut in raw_cuts[member]:
                if member in cut.leaves or not cut.leaves:
                    continue
                reps = tuple(rep(l) for l in cut.leaves)
                if node in reps:
                    continue
                # Duplicate representatives are allowed (two leaves of
                # a choice structure may collapse onto one class); the
                # LUT simply reads the same input twice.
                order = sorted(range(len(reps)), key=lambda i: reps[i])
                leaves = tuple(reps[i] for i in order)
                key = (leaves, member)
                if key in seen:
                    continue
                seen.add(key)
                out.append(
                    _Candidate(
                        leaves=leaves,
                        member=member,
                        member_leaves=cut.leaves,
                        leaf_phases=tuple(phase(l) for l in cut.leaves),
                        output_phase=member_phase,
                    )
                )
        return out

    repr_nodes = [n for n in network.and_nodes() if rep(n) == n]

    state: dict[int, _NodeState] = {0: _NodeState()}
    for node in network.pis:
        state[node] = _NodeState(depth=0, flow=0.0, refs=max(1, fanouts[node]))

    def cut_cost(node: int, leaves: tuple[int, ...]) -> tuple[int, float]:
        depth = 1 + max((state[l].depth for l in leaves), default=0)
        if power_mode == "primary":
            local = activities[node] + 0.02
        elif power_mode == "tiebreak":
            local = 1.0 + 0.2 * activities[node]
        else:
            local = 1.0
        flow = local
        for leaf in leaves:
            ls = state[leaf]
            flow += ls.flow / max(1.0, ls.refs)
        return depth, flow

    required_depth: dict[int, int] = {}
    all_candidates = {node: candidates_for(node) for node in repr_nodes}
    for pass_index in range(1 + max(0, area_passes)):
        for node in repr_nodes:
            best = None
            fallback = None  # best by depth, ignoring the slack bound
            for candidate in all_candidates[node]:
                if any(l not in state for l in candidate.leaves):
                    continue
                depth, flow = cut_cost(node, candidate.leaves)
                if fallback is None or (depth, flow) < fallback[0]:
                    fallback = ((depth, flow), candidate, depth, flow)
                if pass_index == 0:
                    key = (depth, flow)
                else:
                    bound = required_depth.get(node)
                    if bound is not None and depth > bound:
                        continue
                    key = (flow, depth)
                if best is None or key < best[0]:
                    best = (key, candidate, depth, flow)
            if best is None:
                # Leaf depths can drift between recovery passes; when
                # no candidate meets the stale bound, keep the
                # depth-optimal choice instead of failing.
                best = fallback
            if best is None:
                raise RuntimeError(f"no feasible cut for node {node}")
            _, candidate, depth, flow = best
            entry = state.setdefault(node, _NodeState())
            entry.best = candidate
            entry.depth = depth
            entry.flow = flow
            entry.refs = max(1.0, float(fanouts[node]))

        # Required times from the POs: non-critical nodes keep slack
        # during flow recovery.
        global_depth = max(
            (state[rep(lit_var(po))].depth for po in network.pos if rep(lit_var(po)) in state),
            default=0,
        )
        required_depth = {}
        for po in network.pos:
            var = rep(lit_var(po))
            if var in state:
                required_depth[var] = global_depth
        for node in reversed(repr_nodes):
            req = required_depth.get(node)
            if req is None or state[node].best is None:
                continue
            for leaf in state[node].best.leaves:
                current = required_depth.get(leaf)
                if current is None or req - 1 < current:
                    required_depth[leaf] = req - 1

    # ------------------------------------------------------------------
    # Extraction: emit selected cuts from the POs, computing each
    # selected cut's truth table by cone simulation.
    # ------------------------------------------------------------------
    emitted: dict[int, int] = {}

    def candidate_table(candidate: _Candidate) -> int:
        n = len(candidate.member_leaves)
        table = cut_function(network, candidate.member, candidate.member_leaves)
        for i, flip in enumerate(candidate.leaf_phases):
            if flip:
                table = tt_flip_input(table, i, n)
        reps = tuple(rep(l) for l in candidate.member_leaves)
        order = tuple(sorted(range(n), key=lambda i: reps[i]))
        if order != tuple(range(n)):
            table = tt_permute(table, order, n)
        if candidate.output_phase:
            table = tt_not(table, n)
        return table

    def emit(node: int) -> int:
        node = rep(node)
        if node in pi_ids:
            return pi_ids[node]
        if node == 0:
            return 0
        cached = emitted.get(node)
        if cached is not None:
            return cached
        candidate = state[node].best
        leaf_ids = tuple(emit(leaf) for leaf in candidate.leaves)
        table = candidate_table(candidate)
        lut_id = result.add_lut(leaf_ids, table)
        emitted[node] = lut_id
        return lut_id

    import sys

    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, 2 * network.num_nodes + 100))
    try:
        for po in network.pos:
            source = lit_var(po)
            compl = bool(po & 1) ^ (phase(source) if choices is not None else False)
            result.outputs.append((emit(source), compl))
    finally:
        sys.setrecursionlimit(old_limit)
    return result