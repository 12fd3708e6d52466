"""Structural Verilog writer for mapped netlists.

Produces the gate-level Verilog a place-and-route flow would consume:
one module instantiating library cells by name with named port
connections.  Net names are sanitized into Verilog identifiers.
"""

from __future__ import annotations

import re

from ..mapping.netlist import MappedNetlist

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _sanitize(name: str) -> str:
    if _IDENT_RE.match(name):
        return name
    # Escape bus-style names like a[3] into a_3_.
    cleaned = re.sub(r"[^\w$]", "_", name)
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = "n_" + cleaned
    return cleaned


def write_verilog(netlist: MappedNetlist, module: str | None = None) -> str:
    """Serialize a mapped netlist to structural Verilog.

    A PO whose net is a PI or an earlier PO gets an output port of its
    own, named so it collides with no other name and driven by
    ``assign``; every other port is named after its net.
    """
    module_name = _sanitize(module or netlist.name or "top")
    rename: dict[str, str] = {}
    used: set[str] = set()

    def fresh(name: str) -> str:
        candidate = base = _sanitize(name)
        suffix = 1
        while candidate in used:
            candidate = f"{base}_{suffix}"
            suffix += 1
        used.add(candidate)
        return candidate

    def net(name: str) -> str:
        if name not in rename:
            rename[name] = fresh(name)
        return rename[name]

    pis = [net(n) for n in netlist.pi_nets]
    seen = set(netlist.pi_nets)
    pos: list[str | None] = []  # None: an alias port, named below
    for n in netlist.po_nets:
        pos.append(None if n in seen else net(n))
        seen.add(n)

    internal = []
    for gate in netlist.gates:
        name = net(gate.output_net)
        if name not in pis and name not in pos:
            internal.append(name)
    for gate in netlist.gates:
        for source in gate.pins.values():
            net(source)

    # Alias ports are named last, clear of every net and instance name.
    used.update(_sanitize(gate.name) for gate in netlist.gates)
    aliases = []
    for index, n in enumerate(netlist.po_nets):
        if pos[index] is None:
            pos[index] = fresh(n)
            aliases.append((pos[index], net(n)))

    lines = [f"module {module_name} ("]
    ports = [f"  input  {p}" for p in pis] + [f"  output {p}" for p in pos]
    lines.append(",\n".join(ports))
    lines.append(");")

    for chunk_start in range(0, len(internal), 10):
        chunk = internal[chunk_start : chunk_start + 10]
        lines.append("  wire " + ", ".join(chunk) + ";")

    for gate in netlist.gates:
        connections = [f".{pin}({net(source)})" for pin, source in gate.pins.items()]
        connections.append(f".{gate.output_pin}({net(gate.output_net)})")
        lines.append(f"  {gate.cell} {_sanitize(gate.name)} ({', '.join(connections)});")

    for port, source in aliases:
        lines.append(f"  assign {port} = {source};")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"
