"""Tests for AIGER / BLIF / Verilog interchange.

The program reads AIGER only; BLIF and Verilog round trips go through
the readers in ``tests/oracles/netlist_readers.py``.
"""

import random

import pytest

from repro.benchgen import build_circuit
from repro.charlib import default_library
from repro.io import parse_ascii, parse_binary, write_ascii, write_binary, write_blif, write_verilog
from repro.mapping import map_to_gates
from repro.mapping.netlist import GateInstance, MappedNetlist
from repro.sat import assert_equivalent
from repro.synth import AIG, lit_not, map_luts

from .oracles.netlist_readers import parse_blif, parse_verilog


def random_network(seed: int, n_pis=5, n_ops=50) -> AIG:
    rng = random.Random(seed)
    g = AIG(f"net{seed}")
    lits = [g.add_pi(f"in{i}") for i in range(n_pis)]
    for _ in range(n_ops):
        a, b = rng.choice(lits), rng.choice(lits)
        lits.append(
            getattr(g, rng.choice(["add_and", "add_or", "add_xor"]))(
                a ^ rng.randint(0, 1), b ^ rng.randint(0, 1)
            )
        )
    g.add_po(lits[-1], "out0")
    g.add_po(lit_not(lits[-2]), "out1")
    return g.cleanup()


class TestAigerAscii:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_equivalence(self, seed):
        g = random_network(seed)
        back = parse_ascii(write_ascii(g))
        assert_equivalent(g, back, f"aag seed {seed}")

    def test_names_preserved(self):
        g = random_network(0)
        back = parse_ascii(write_ascii(g))
        assert back.pi_names == g.pi_names
        assert back.po_names == g.po_names

    def test_header_counts(self):
        g = random_network(1)
        header = write_ascii(g).splitlines()[0].split()
        assert header[0] == "aag"
        assert int(header[2]) == g.num_pis
        assert int(header[4]) == g.num_pos
        assert int(header[5]) == g.num_ands

    def test_constant_po(self):
        g = AIG()
        g.add_pi("a")
        g.add_po(1, "const1")
        back = parse_ascii(write_ascii(g))
        assert back.evaluate([False]) == [True]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_ascii("module foo; endmodule")

    def test_rejects_latches(self):
        with pytest.raises(ValueError):
            parse_ascii("aag 1 0 1 0 0\n2 2\n")


class TestAigerBinary:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_equivalence(self, seed):
        g = random_network(seed)
        back = parse_binary(write_binary(g))
        assert_equivalent(g, back, f"aig seed {seed}")

    def test_names_preserved(self):
        g = random_network(2)
        back = parse_binary(write_binary(g))
        assert back.pi_names == g.pi_names

    def test_binary_smaller_than_ascii(self):
        g = random_network(3, n_ops=200)
        assert len(write_binary(g)) < len(write_ascii(g).encode())

    def test_cross_format_equivalence(self):
        g = random_network(1)
        via_ascii = parse_ascii(write_ascii(g))
        via_binary = parse_binary(write_binary(g))
        assert_equivalent(via_ascii, via_binary, "cross-format")


class TestBlif:
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_equivalence(self, seed):
        g = random_network(seed)
        net = map_luts(g, k=4)
        back = parse_blif(write_blif(net))
        assert_equivalent(net.to_aig(), back.to_aig(), f"blif seed {seed}")

    def test_model_name(self):
        g = random_network(0)
        net = map_luts(g, k=4)
        text = write_blif(net, model="mymodel")
        assert text.startswith(".model mymodel")
        assert parse_blif(text).name == "mymodel"


class TestVerilog:
    def test_structure(self):
        g = random_network(0)
        lib = default_library(10.0)
        net = map_to_gates(g, lib)
        text = write_verilog(net)
        assert text.startswith("module net0")
        assert text.rstrip().endswith("endmodule")
        for gate in net.gates:
            assert gate.cell in text

    def test_bus_names_sanitized(self):
        g = AIG("top")
        a = g.add_pi("data[0]")
        b = g.add_pi("data[1]")
        g.add_po(g.add_and(a, b), "out[0]")
        lib = default_library(10.0)
        net = map_to_gates(g, lib)
        text = write_verilog(net)
        assert "data[0]" not in text
        assert "data_0_" in text

    def test_instance_count_matches(self):
        g = random_network(1)
        lib = default_library(10.0)
        net = map_to_gates(g, lib)
        text = write_verilog(net)
        instance_lines = [l for l in text.splitlines() if l.strip().startswith(("INV", "NAND", "NOR", "AND", "OR", "XOR", "XNOR", "AOI", "OAI", "AO", "OA", "MUX", "MAJ", "HA", "FA", "BUF", "CLK", "NAND2B", "NOR2B", "DLY", "TIE"))]
        assert len(instance_lines) == net.num_gates


class TestVerilogReader:
    def test_round_trip_equivalence(self):
        g = random_network(4)
        lib = default_library(10.0)
        net = map_to_gates(g, lib)
        back = parse_verilog(write_verilog(net))
        assert back.num_gates == net.num_gates
        assert back.pi_nets and back.po_nets
        assert_equivalent(net.to_aig(lib), back.to_aig(lib), "verilog rt")


def ports(text: str) -> list[str]:
    """Port names of a written module, in header order."""
    header = text.split(");", 1)[0]
    return [line.split()[-1].rstrip(",") for line in header.splitlines()[1:]]


class TestVerilogPoAliases:
    """A PO whose net is a PI or an earlier PO gets its own output port."""

    def test_exact_text(self):
        # ``a[0]`` sanitizes onto the PI ``a_0_``; PO 2 is the PI
        # ``a[0]``, PO 3 repeats PO 1 and PO 4 is the PI ``a_0_``.
        net = MappedNetlist(
            "po_alias",
            ["a[0]", "a_0_", "b"],
            ["y", "a[0]", "y", "a_0_"],
            [GateInstance("g1", "AND2x1", {"A": "a[0]", "B": "b"}, "y")],
        )
        assert write_verilog(net) == (
            "module po_alias (\n"
            "  input  a_0_,\n"
            "  input  a_0__1,\n"
            "  input  b,\n"
            "  output y,\n"
            "  output a_0__2,\n"
            "  output y_1,\n"
            "  output a_0__3\n"
            ");\n"
            "  AND2x1 g1 (.A(a_0_), .B(b), .Y(y));\n"
            "  assign a_0__2 = a_0_;\n"
            "  assign y_1 = y;\n"
            "  assign a_0__3 = a_0__1;\n"
            "endmodule\n"
        )
        lib = default_library(10.0)
        back = parse_verilog(write_verilog(net))
        assert back.po_nets == ["y", "a_0_", "y", "a_0__1"]
        assert_equivalent(net.to_aig(lib), back.to_aig(lib), "po aliases")

    def test_alias_port_clear_of_instance_names(self):
        net = MappedNetlist(
            "m", ["a"], ["a"], [GateInstance("a_1", "INVx1", {"A": "a"}, "n")]
        )
        assert ports(write_verilog(net)) == ["a", "a_2"]

    @pytest.mark.parametrize("name", ["ctrl", "priority", "square", "i2c"])
    def test_round_trip_with_aliases(self, name):
        lib = default_library(10.0)
        net = map_to_gates(build_circuit(name, "small"), lib)
        text = write_verilog(net)
        names = ports(text)
        assert len(names) == len(net.pi_nets) + len(net.po_nets)
        assert len(set(names)) == len(names)
        assert "assign" in text
        back = parse_verilog(text)
        assert_equivalent(net.to_aig(lib), back.to_aig(lib), name)
