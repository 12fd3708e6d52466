"""Netlist readers: structural Verilog and BLIF back into the program's types.

The program writes Verilog (:func:`repro.io.write_verilog`) and BLIF
(:func:`repro.io.write_blif`) but reads neither: every command takes
AIGER.  These readers check the writers by round trip;
``tests/test_io.py`` and ``tests/test_cli.py`` parse written text and
prove the result equivalent to what was written.

Nothing here is imported by the program.
"""

from __future__ import annotations

import re

from repro.mapping.netlist import GateInstance, MappedNetlist
from repro.synth.isop import Cube, cover_to_tt
from repro.synth.lutnet import LUTNetwork

_TOKEN_RE = re.compile(r"[A-Za-z_][\w$]*|[().,;=]")


def parse_verilog(text: str) -> MappedNetlist:
    """Parse a flat structural Verilog module into a mapped netlist.

    Supports the subset :func:`repro.io.write_verilog` writes: one
    module, input/output/wire declarations, cell instances with named
    port connections (the output pin last) and ``assign port = net;``
    driving an output port, which then reads ``net``.
    """
    # Strip comments.
    text = re.sub(r"//[^\n]*", "", text)
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    tokens = _TOKEN_RE.findall(text)
    pos = 0

    def expect(value: str) -> None:
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != value:
            found = tokens[pos] if pos < len(tokens) else "<eof>"
            raise ValueError(f"expected {value!r}, found {found!r}")
        pos += 1

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError("unexpected end of file")
        token = tokens[pos]
        pos += 1
        return token

    expect("module")
    name = take()
    netlist = MappedNetlist(name)
    assigned: dict[str, str] = {}

    # Port list: (input a, output b, ...) or plain names.
    if tokens[pos] == "(":
        pos += 1
        direction = None
        while tokens[pos] != ")":
            token = take()
            if token in ("input", "output", "wire", ","):
                if token in ("input", "output"):
                    direction = token
                continue
            if direction == "input":
                netlist.pi_nets.append(token)
            elif direction == "output":
                netlist.po_nets.append(token)
        pos += 1  # ')'
    expect(";")

    while pos < len(tokens) and tokens[pos] != "endmodule":
        token = take()
        if token in ("input", "output", "wire"):
            while tokens[pos] != ";":
                net = take()
                if net == ",":
                    continue
                if token == "input" and net not in netlist.pi_nets:
                    netlist.pi_nets.append(net)
                elif token == "output" and net not in netlist.po_nets:
                    netlist.po_nets.append(net)
            pos += 1
            continue
        if token == "assign":
            target = take()
            expect("=")
            assigned[target] = take()
            expect(";")
            continue
        # Cell instance: CELL name ( .pin(net), ... );
        cell_name = token
        instance = take()
        expect("(")
        connections: list[tuple[str, str]] = []
        while tokens[pos] != ")":
            if tokens[pos] == ",":
                pos += 1
                continue
            expect(".")
            pin = take()
            expect("(")
            net = take()
            expect(")")
            connections.append((pin, net))
        pos += 1  # ')'
        expect(";")
        if not connections:
            raise ValueError(f"instance {instance!r} has no connections")
        output_pin, output_net = connections[-1]
        pins = dict(connections[:-1])
        netlist.gates.append(
            GateInstance(
                name=instance,
                cell=cell_name,
                pins=pins,
                output_net=output_net,
                output_pin=output_pin,
            )
        )
    if pos >= len(tokens):
        raise ValueError("missing endmodule")
    netlist.po_nets = [assigned.get(net, net) for net in netlist.po_nets]
    return netlist


def parse_blif(text: str) -> LUTNetwork:
    """Parse a (single-model, combinational) BLIF file."""
    # Join continuation lines and strip comments.
    raw_lines = []
    pending = ""
    for line in text.splitlines():
        line = line.split("#", 1)[0].rstrip()
        if not line:
            continue
        if line.endswith("\\"):
            pending += line[:-1] + " "
            continue
        raw_lines.append(pending + line)
        pending = ""
    if pending:
        raw_lines.append(pending)

    model = "blif"
    inputs: list[str] = []
    outputs: list[str] = []
    tables: list[tuple[list[str], str, list[str]]] = []  # (ins, out, cubes)
    current: tuple[list[str], str, list[str]] | None = None

    for line in raw_lines:
        tokens = line.split()
        if tokens[0] == ".model":
            model = tokens[1] if len(tokens) > 1 else model
        elif tokens[0] == ".inputs":
            inputs.extend(tokens[1:])
        elif tokens[0] == ".outputs":
            outputs.extend(tokens[1:])
        elif tokens[0] == ".names":
            current = (tokens[1:-1], tokens[-1], [])
            tables.append(current)
        elif tokens[0] == ".end":
            current = None
        elif tokens[0].startswith("."):
            raise ValueError(f"unsupported BLIF construct {tokens[0]!r}")
        else:
            if current is None:
                raise ValueError(f"cube line outside .names: {line!r}")
            current[2].append(line)

    network = LUTNetwork(len(inputs), name=model)
    network.pi_names = list(inputs)
    node_of: dict[str, int] = {name: i + 1 for i, name in enumerate(inputs)}

    for ins, out, cube_lines in tables:
        k = len(ins)
        table = 0
        for cube_line in cube_lines:
            parts = cube_line.split()
            if len(parts) == 1:
                pattern, value = "", parts[0]
            else:
                pattern, value = parts[0], parts[1]
            if value != "1":
                raise ValueError("only on-set (output 1) cubes are supported")
            pos = neg = 0
            for v, ch in enumerate(pattern):
                if ch == "1":
                    pos |= 1 << v
                elif ch == "0":
                    neg |= 1 << v
                elif ch != "-":
                    raise ValueError(f"bad cube character {ch!r}")
            table |= cover_to_tt([Cube(pos, neg)], k)
        leaf_ids = tuple(node_of[name] for name in ins)
        node_of[out] = network.add_lut(leaf_ids, table)

    for name in outputs:
        if name not in node_of:
            raise ValueError(f"output {name!r} is never defined")
        network.outputs.append((node_of[name], False))
        network.po_names.append(name)
    return network
