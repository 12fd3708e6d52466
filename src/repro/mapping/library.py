"""Technology-library view for Boolean matching.

Preprocesses a characterized :class:`repro.charlib.Library` into match
tables: for every distinct ≤4-input cell function, all NP
configurations (input permutations x input/output polarities) are
enumerated and indexed by the resulting truth table.  Technology
mapping then matches a cut by a single dictionary lookup — no
canonicalization in the inner loop.

Cells sharing a function (drive-strength families) are grouped; the
mapper picks among them by cost.  Cells with more than 4 inputs are
characterized and written to liberty but not used for cut matching,
mirroring the input-count limits of practical matchers.

For the mapper's inner loop the view compiles :class:`MatchPlans`: per
cut function, the configurations with their pins and the per-cell cost
constants, computed once per view and set of mapper cost constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from ..charlib.nldm import Library, LibertyCell

#: Maximum matchable gate arity.
MAX_MATCH_INPUTS = 4


@dataclass(frozen=True)
class MatchConfig:
    """One way to realize a cut function with a cell family.

    Semantics: connecting cell input pin ``i`` (in ``pin_order``) to
    cut leaf ``leaf_of_pin[i]``, inverting that connection when bit
    ``i`` of ``pin_neg_mask`` is set, and inverting the output when
    ``output_neg`` is set, realizes the cut function exactly.
    """

    function_key: tuple[int, int]  # (truth table, arity) of the family
    leaf_of_pin: tuple[int, ...]
    pin_neg_mask: int
    output_neg: bool

    @property
    def num_input_inverters(self) -> int:
        return bin(self.pin_neg_mask).count("1")


@dataclass
class CellFamily:
    """Cells sharing one Boolean function, sorted by area."""

    table: int
    arity: int
    cells: list[LibertyCell] = field(default_factory=list)


class TechLibraryView:
    """Match tables over a liberty library, and the mapper's match plans."""

    @classmethod
    def for_library(cls, library: Library, cache=None) -> "TechLibraryView":
        """The shared view of a library, via the artifact cache.

        View construction enumerates every NP configuration of every
        matchable cell — far too expensive to repeat per scenario.  The
        view is pure w.r.t. the library, so it is content-addressed by
        the library fingerprint and built at most once per cache
        (memory tier only: the view is cheap to rebuild relative to
        characterization and holds a reference to the live library).
        """
        from ..core.artifacts import cache_key, default_cache

        cache = cache or default_cache()
        key = cache_key("techview", library.fingerprint())
        return cache.get_or_compute(key, lambda: cls(library), persist=False)

    def __init__(self, library: Library):
        self.library = library
        self.families: dict[tuple[int, int], CellFamily] = {}
        #: arity -> truth table -> list of MatchConfig.
        self.match_tables: dict[int, dict[int, list[MatchConfig]]] = {
            n: {} for n in range(MAX_MATCH_INPUTS + 1)
        }
        self._build()
        self.inverter = self._pick_inverter()
        self.buffer = self._pick_buffer()
        self._plans: dict[tuple[int, float, float], MatchPlans] = {}

    # ------------------------------------------------------------------
    def _build(self) -> None:
        for cell in self.library.cells.values():
            if cell.is_sequential or len(cell.output_pins) != 1:
                continue
            out = cell.output_pins[0]
            if out not in cell.truth_tables:
                continue
            arity = len(cell.input_pins)
            if not 1 <= arity <= MAX_MATCH_INPUTS:
                continue
            table = cell.truth_tables[out]
            key = (table, arity)
            family = self.families.get(key)
            if family is None:
                family = CellFamily(table, arity)
                self.families[key] = family
                self._index_function(table, arity)
            family.cells.append(cell)
        for family in self.families.values():
            family.cells.sort(key=lambda c: c.area)
        self._prune_configs()

    def _prune_configs(self, per_family: int = 2) -> None:
        """Keep only the cheapest configs per (function, family).

        Many NP configurations of a symmetric gate realize the same
        cut function; for cost purposes only the inverter count and
        pin assignment matter, so a couple of minimal-inverter
        configs per family suffice and shrink the mapper's inner loop.
        """
        for arity, table_map in self.match_tables.items():
            for tt, configs in table_map.items():
                by_family: dict[tuple[int, int], list[MatchConfig]] = {}
                for config in configs:
                    by_family.setdefault(config.function_key, []).append(config)
                pruned: list[MatchConfig] = []
                for family_configs in by_family.values():
                    family_configs.sort(
                        key=lambda c: (c.num_input_inverters, c.output_neg)
                    )
                    pruned.extend(family_configs[:per_family])
                table_map[tt] = pruned

    def _index_function(self, table: int, arity: int) -> None:
        """Enumerate all NP configurations of one function."""
        key = (table, arity)
        for perm in permutations(range(arity)):
            for neg_mask in range(1 << arity):
                # Function realized at the output: f(y) where cell pin
                # i sees leaf perm[i] (inverted per neg bit of pin i).
                realized = 0
                for assignment in range(1 << arity):
                    pin_values = 0
                    for pin in range(arity):
                        bit = (assignment >> perm[pin]) & 1
                        if (neg_mask >> pin) & 1:
                            bit ^= 1
                        pin_values |= bit << pin
                    if (table >> pin_values) & 1:
                        realized |= 1 << assignment
                for output_neg in (False, True):
                    final = realized ^ ((1 << (1 << arity)) - 1 if output_neg else 0)
                    configs = self.match_tables[arity].setdefault(final, [])
                    configs.append(
                        MatchConfig(
                            function_key=key,
                            leaf_of_pin=perm,
                            pin_neg_mask=neg_mask,
                            output_neg=output_neg,
                        )
                    )

    def _pick_inverter(self) -> LibertyCell:
        candidates = [
            family.cells[0]
            for (table, arity), family in self.families.items()
            if arity == 1 and table == 0b01
        ]
        if not candidates:
            raise ValueError("library has no inverter; mapping impossible")
        return min(candidates, key=lambda c: c.area)

    def _pick_buffer(self) -> LibertyCell | None:
        candidates = [
            family.cells[0]
            for (table, arity), family in self.families.items()
            if arity == 1 and table == 0b10
        ]
        if not candidates:
            return None
        return min(candidates, key=lambda c: c.area)

    # ------------------------------------------------------------------
    def matches(self, table: int, arity: int) -> list[MatchConfig]:
        """All NP configurations realizing a cut function."""
        if arity > MAX_MATCH_INPUTS:
            return []
        return self.match_tables[arity].get(table, [])

    def family_cells(self, config: MatchConfig) -> list[LibertyCell]:
        return self.families[config.function_key].cells

    def plans(
        self, cells_per_family: int, wire_cap: float, leakage_ref_period: float
    ) -> "MatchPlans":
        """The match plans of this view under one set of mapper constants.

        Shared by every mapper built with the same constants (one per
        scenario in a flow), so each plan is compiled once per view.
        """
        key = (cells_per_family, wire_cap, leakage_ref_period)
        plans = self._plans.get(key)
        if plans is None:
            plans = self._plans.setdefault(key, MatchPlans(self, *key))
        return plans


class MatchPlans:
    """Cost-ready match plans of one view, compiled on first use.

    ``tables[arity][table]`` is the plan of one cut function: a tuple
    with one entry per :class:`MatchConfig` of
    :meth:`TechLibraryView.matches`, in that order::

        (config, leaf_of_pin, pin_inverted, output_neg, cells)

    ``cells`` holds, for the first ``cells_per_family`` cells of the
    config's family, ``(cell, area, delay, energy, leakage, caps)``:
    the area including the config's inverters, the representative
    delay plus the output inverter's, the internal energy plus the
    output wire's ``wire_cap * 0.5 * V^2``, the state-averaged leakage
    times ``leakage_ref_period``, and the input-pin capacitances.
    Every config of a family with the same inverters shares one
    ``cells`` tuple, which keeps the plans small.

    Each constant is computed with the operations, in the order, of
    costing one candidate from scratch, so a plan changes no cost by a
    bit.  NLDM lookups are far too slow to repeat per candidate.
    """

    def __init__(
        self,
        view: TechLibraryView,
        cells_per_family: int,
        wire_cap: float,
        leakage_ref_period: float,
    ):
        self.view = view
        self.cells_per_family = cells_per_family
        self.wire_cap = wire_cap
        self.leakage_ref_period = leakage_ref_period
        vdd = view.library.vdd
        #: Switching energy factor: signoff charges 0.5 * alpha * C * V^2.
        self.half_cv2 = 0.5 * vdd * vdd
        inv = view.inverter
        self.inv_area = inv.area
        self.inv_delay = inv.typical_delay()
        #: Energy per unit activity of one inserted inverter: its input
        #: pin charge, internal energy and output wire charge.
        self.inv_energy = (
            next(iter(inv.input_caps.values())) * self.half_cv2
            + inv.typical_energy()
            + wire_cap * self.half_cv2
        )
        self.inv_leakage = inv.leakage_average * leakage_ref_period
        self.tables: list[dict[int, tuple]] = [{} for _ in range(MAX_MATCH_INPUTS + 1)]
        self._cells: dict[tuple, tuple] = {}

    def compile(self, arity: int, table: int) -> tuple:
        """Compile, store and return the plan of one cut function."""
        plan = tuple(
            (
                config,
                config.leaf_of_pin,
                tuple(bool((config.pin_neg_mask >> pin) & 1) for pin in range(arity)),
                config.output_neg,
                self._cells_of(config),
            )
            for config in self.view.matches(table, arity)
        )
        self.tables[arity][table] = plan
        return plan

    def _cells_of(self, config: MatchConfig) -> tuple:
        n_inv = config.num_input_inverters + (1 if config.output_neg else 0)
        key = (config.function_key, n_inv, config.output_neg)
        cells = self._cells.get(key)
        if cells is None:
            out_inv_delay = self.inv_delay if config.output_neg else 0.0
            cells = self._cells[key] = tuple(
                (
                    cell,
                    cell.area + n_inv * self.inv_area,
                    cell.typical_delay() + out_inv_delay,
                    cell.typical_energy() + self.wire_cap * self.half_cv2,
                    cell.leakage_average * self.leakage_ref_period,
                    tuple(cell.input_caps.get(pin, 0.0) for pin in cell.input_pins),
                )
                for cell in self.view.family_cells(config)[: self.cells_per_family]
            )
        return cells
