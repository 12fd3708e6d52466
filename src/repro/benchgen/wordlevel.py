"""Word-level circuit builder over AIGs.

Provides the RTL-ish vocabulary (adders, shifters, multipliers,
comparators, multiplexers) from which the EPFL-class benchmark
generators compose their datapaths.  A *word* is a little-endian list
of AIG literals (index 0 = LSB).
"""

from __future__ import annotations

from ..synth.aig import AIG, CONST0, CONST1, lit_not


class WordBuilder:
    """Fluent word-level construction facade over an :class:`AIG`."""

    def __init__(self, name: str):
        self.aig = AIG(name)

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def input_word(self, name: str, width: int) -> list[int]:
        """Add a ``width``-bit primary-input word."""
        if width < 1:
            raise ValueError("word width must be at least 1")
        return [self.aig.add_pi(f"{name}[{i}]") for i in range(width)]

    def output_word(self, name: str, word: list[int]) -> None:
        """Register a word as primary outputs."""
        for i, lit in enumerate(word):
            self.aig.add_po(lit, f"{name}[{i}]")

    def constant(self, value: int, width: int) -> list[int]:
        """Constant word."""
        return [CONST1 if (value >> i) & 1 else CONST0 for i in range(width)]

    # ------------------------------------------------------------------
    # Bit utilities
    # ------------------------------------------------------------------
    def not_word(self, word: list[int]) -> list[int]:
        return [lit_not(b) for b in word]

    def and_word(self, a: list[int], b: list[int]) -> list[int]:
        self._check(a, b)
        return [self.aig.add_and(x, y) for x, y in zip(a, b)]

    def xor_word(self, a: list[int], b: list[int]) -> list[int]:
        self._check(a, b)
        return [self.aig.add_xor(x, y) for x, y in zip(a, b)]

    def mux_word(self, sel: int, then_word: list[int], else_word: list[int]) -> list[int]:
        self._check(then_word, else_word)
        return [self.aig.add_mux(sel, t, e) for t, e in zip(then_word, else_word)]

    def reduce_or(self, word: list[int]) -> int:
        result = CONST0
        for bit in word:
            result = self.aig.add_or(result, bit)
        return result

    def reduce_and(self, word: list[int]) -> int:
        result = CONST1
        for bit in word:
            result = self.aig.add_and(result, bit)
        return result

    def reduce_xor(self, word: list[int]) -> int:
        result = CONST0
        for bit in word:
            result = self.aig.add_xor(result, bit)
        return result

    @staticmethod
    def _check(a: list[int], b: list[int]) -> None:
        if len(a) != len(b):
            raise ValueError(f"width mismatch: {len(a)} vs {len(b)}")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def full_adder(self, a: int, b: int, cin: int) -> tuple[int, int]:
        """(sum, carry)."""
        s = self.aig.add_xor(self.aig.add_xor(a, b), cin)
        c = self.aig.add_maj(a, b, cin)
        return s, c

    def add(self, a: list[int], b: list[int], cin: int = CONST0) -> tuple[list[int], int]:
        """Ripple-carry addition -> (sum word, carry out)."""
        self._check(a, b)
        result = []
        carry = cin
        for x, y in zip(a, b):
            s, carry = self.full_adder(x, y, carry)
            result.append(s)
        return result, carry

    def sub(self, a: list[int], b: list[int]) -> tuple[list[int], int]:
        """a - b -> (difference, borrow-free flag: 1 when a >= b)."""
        diff, carry = self.add(a, self.not_word(b), CONST1)
        return diff, carry

    def neg(self, a: list[int]) -> list[int]:
        """Two's complement negation."""
        result, _ = self.add(self.not_word(a), self.constant(1, len(a)))
        return result

    def greater_equal(self, a: list[int], b: list[int]) -> int:
        """Unsigned a >= b."""
        _, carry = self.sub(a, b)
        return carry

    def equal(self, a: list[int], b: list[int]) -> int:
        self._check(a, b)
        return lit_not(self.reduce_or(self.xor_word(a, b)))

    def mul(self, a: list[int], b: list[int], width: int | None = None) -> list[int]:
        """Shift-and-add multiplication.

        Result truncated/extended to ``width`` (default: len(a)+len(b)).
        """
        out_width = width if width is not None else len(a) + len(b)
        acc = self.constant(0, out_width)
        for i, bit in enumerate(b):
            partial = self.constant(0, out_width)
            for j, abit in enumerate(a):
                if i + j < out_width:
                    partial[i + j] = self.aig.add_and(abit, bit)
            acc, _ = self.add(acc, partial)
        return acc

    def square(self, a: list[int], width: int | None = None) -> list[int]:
        return self.mul(a, a, width)

    def shift_left(self, a: list[int], amount: list[int]) -> list[int]:
        """Barrel shifter: logical left shift by a variable amount."""
        current = list(a)
        for stage, sel in enumerate(amount):
            step = 1 << stage
            shifted = [CONST0] * min(step, len(a)) + current[: len(a) - step]
            shifted = shifted[: len(a)]
            while len(shifted) < len(a):
                shifted.append(CONST0)
            current = self.mux_word(sel, shifted, current)
        return current

    def rotate_left(self, a: list[int], amount: list[int]) -> list[int]:
        current = list(a)
        n = len(a)
        for stage, sel in enumerate(amount):
            step = (1 << stage) % n
            rotated = current[n - step :] + current[: n - step]
            current = self.mux_word(sel, rotated, current)
        return current

    def divide(self, dividend: list[int], divisor: list[int]) -> tuple[list[int], list[int]]:
        """Restoring division -> (quotient, remainder)."""
        n = len(dividend)
        m = len(divisor)
        remainder = self.constant(0, m + 1)
        divisor_ext = divisor + [CONST0]
        quotient = [CONST0] * n
        for i in reversed(range(n)):
            # Shift remainder left, bring in the next dividend bit.
            remainder = [dividend[i]] + remainder[:-1]
            diff, no_borrow = self.sub(remainder, divisor_ext)
            quotient[i] = no_borrow
            remainder = self.mux_word(no_borrow, diff, remainder)
        return quotient, remainder[:m]

    def isqrt(self, value: list[int]) -> list[int]:
        """Integer square root (digit-recurrence, restoring)."""
        n = len(value)
        if n % 2:
            value = value + [CONST0]
            n += 1
        half = n // 2
        remainder = self.constant(0, n + 2)
        root = self.constant(0, half)
        for i in reversed(range(half)):
            # Bring down the next two bits.
            remainder = [value[2 * i], value[2 * i + 1]] + remainder[:-2]
            # Trial subtrahend: (root << 2) | 01  -> 4*root + 1.
            trial = [CONST1, CONST0] + root + [CONST0] * (len(remainder) - half - 2)
            trial = trial[: len(remainder)]
            diff, fits = self.sub(remainder, trial)
            remainder = self.mux_word(fits, diff, remainder)
            root = [fits] + root[:-1]
        return root

    def leading_one_index(self, word: list[int]) -> tuple[list[int], int]:
        """Index of the most significant 1 -> (index word, any-bit flag).

        The index word has ceil(log2(len(word))) bits.
        """
        n = len(word)
        bits = max(1, (n - 1).bit_length())
        index = self.constant(0, bits)
        found = CONST0
        for i in range(n):  # LSB to MSB: later (higher) bits win
            bit = word[i]
            candidate = self.constant(i, bits)
            index = self.mux_word(bit, candidate, index)
            found = self.aig.add_or(found, bit)
        return index, found
