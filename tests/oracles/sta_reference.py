"""Reference STA engine: the original per-gate dict propagation.

The program times every netlist on the levelized array engine
(:class:`repro.sta.graph.TimingGraph`, behind
:class:`repro.sta.timing.StaticTimingAnalyzer`).  Its contract is
bit-identity with the straightforward engine kept here: the same
arrivals, slews, net loads (dict order included), critical path and PO
arrivals.  ``tests/test_sta_graph.py`` checks the two against each
other on the benchgen suite, on degraded libraries and on a netlist
whose cells were swapped in place between two analyses.

Nothing here is imported by the program.
"""

from __future__ import annotations

from repro import obs
from repro.charlib.nldm import Library
from repro.mapping.netlist import MappedNetlist
from repro.sta.timing import SignoffConfig, TimingReport


def _sinks(netlist: MappedNetlist) -> dict[str, list[tuple[int, str]]]:
    """``net -> [(gate index, pin)]`` in ``netlist.loads()`` order."""
    sink_map: dict[str, list[tuple[int, str]]] = {}
    for index, gate in enumerate(netlist.gates):
        for pin, net in gate.pins.items():
            sink_map.setdefault(net, []).append((index, pin))
    return sink_map


def net_loads(
    netlist: MappedNetlist, library: Library, config: SignoffConfig | None = None
) -> dict[str, float]:
    """Capacitive load per net [F]: sink pins + wire + PO loads."""
    config = config or SignoffConfig()
    loads: dict[str, float] = {}
    sink_map = _sinks(netlist)
    all_nets = set(netlist.pi_nets)
    for gate in netlist.gates:
        all_nets.add(gate.output_net)
        all_nets.update(gate.pins.values())
    po_nets = set(netlist.po_nets)
    # Sorted iteration keeps downstream float summations (e.g. the
    # switching-power accumulation over .items()) byte-identical
    # across processes; set order varies with string hashing.
    gates = netlist.gates
    for net in sorted(all_nets):
        sinks = sink_map.get(net, [])
        total = config.wire_cap_base + config.wire_cap_per_fanout * len(sinks)
        for index, pin in sinks:
            total += library[gates[index].cell].input_caps.get(pin, 0.0)
        if net in po_nets:
            total += config.output_load
        loads[net] = total
    return loads


def analyze(
    netlist: MappedNetlist, library: Library, config: SignoffConfig | None = None
) -> TimingReport:
    """Propagate arrivals/slews gate by gate; returns the timing report."""
    config = config or SignoffConfig()
    loads = net_loads(netlist, library, config)
    arrival: dict[str, float] = {}
    slew: dict[str, float] = {}
    from_pin: dict[str, tuple[str, str] | None] = {}
    arc_lookups = 0

    for net in netlist.pi_nets:
        arrival[net] = 0.0
        slew[net] = config.input_slew
        from_pin[net] = None

    for gate in netlist.gates:
        cell = library[gate.cell]
        load = loads[gate.output_net]
        best_arrival = 0.0
        best_slew = config.input_slew
        best_source: tuple[str, str] | None = None
        for pin, net in gate.pins.items():
            in_arrival = arrival[net]
            in_slew = slew[net]
            try:
                arc = cell.arc(pin, gate.output_pin)
            except KeyError:
                continue  # non-controlling pin (no arc)
            arc_lookups += 1
            delay = max(
                arc.cell_rise.lookup(in_slew, load),
                arc.cell_fall.lookup(in_slew, load),
            )
            out_slew = max(
                arc.rise_transition.lookup(in_slew, load),
                arc.fall_transition.lookup(in_slew, load),
            )
            candidate = in_arrival + delay
            if candidate > best_arrival:
                best_arrival = candidate
                best_slew = out_slew
                best_source = (gate.name, pin)
        arrival[gate.output_net] = best_arrival
        slew[gate.output_net] = best_slew
        from_pin[gate.output_net] = best_source

    if obs.current_tracer() is not None:
        obs.count("sta.timing_queries")
        obs.count("sta.arc_lookups", arc_lookups)
        obs.count("sta.gates_analyzed", len(netlist.gates))
    report = TimingReport(arrival=arrival, slew=slew, net_load=loads)
    if netlist.po_nets:
        worst_net = max(netlist.po_nets, key=lambda n: arrival.get(n, 0.0))
        report.max_delay = arrival.get(worst_net, 0.0)
        report.critical_path = trace_path(netlist, worst_net, from_pin)
    report.po_arrival = {
        net: arrival.get(net, 0.0) for net in netlist.po_nets
    }
    return report


def trace_path(
    netlist: MappedNetlist, net: str, from_pin: dict[str, tuple[str, str] | None]
) -> list[str]:
    """Walk the worst-arrival chain back to a PI."""
    gates = netlist.gates
    gate_index = {gate.name: i for i, gate in enumerate(gates)}
    path: list[str] = []
    current = net
    guard = 0
    while current in from_pin and from_pin[current] is not None:
        guard += 1
        if guard > len(gates) + 1:
            break  # defensive: malformed netlist
        gate_name, pin = from_pin[current]
        path.append(gate_name)
        current = gates[gate_index[gate_name]].pins[pin]
    path.reverse()
    return path
