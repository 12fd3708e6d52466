"""Interchange formats: AIGER (ascii/binary), BLIF and structural Verilog writers."""

from .aiger import parse_ascii, parse_binary, write_ascii, write_binary
from .blif import write_blif
from .verilog import write_verilog

__all__ = [
    "parse_ascii",
    "parse_binary",
    "write_ascii",
    "write_binary",
    "write_blif",
    "write_verilog",
]
