"""Tests for the analytic characterization backend."""

import dataclasses

import numpy as np
import pytest

from repro.charlib import AnalyticCharacterizer, characterize_library
from repro.pdk import cryo5_technology
from repro.pdk.catalog import (
    make_aoi,
    make_buf,
    make_dff,
    make_inv,
    make_nand,
    make_nor,
    make_xor2,
)

TECH = cryo5_technology()


@pytest.fixture(scope="module")
def char300():
    return AnalyticCharacterizer(TECH, 300.0)


@pytest.fixture(scope="module")
def char10():
    return AnalyticCharacterizer(TECH, 10.0)


class TestPrimitives:
    def test_resistance_scales_inverse_with_fins(self, char300):
        assert char300.resistance_n(4) == pytest.approx(char300.resistance_n(1) / 4)

    def test_pullup_weaker_than_pulldown_per_fin(self, char300):
        assert char300.resistance_p(1) > char300.resistance_n(1)

    def test_stack_penalty_meaningful_at_room_temperature(self, char300):
        # Classic stack effect: roughly an order of magnitude per
        # additional off device at room temperature.
        assert 2.0 < char300._stack_penalty["n"] < 50.0

    def test_stack_penalty_collapses_at_cryo(self, char10):
        # At 10 K the off current is floor-limited: stacking cannot
        # reduce it further.
        assert char10._stack_penalty["n"] == pytest.approx(1.0, abs=0.5)

    def test_input_capacitance_positive_and_scales(self, char300):
        c1 = char300.input_capacitance(make_inv(1), "A")
        c4 = char300.input_capacitance(make_inv(4), "A")
        assert c1 > 0.0
        assert c4 > 2.0 * c1


class TestCharacterizerReuse:
    def test_reused_characterizer_matches_fresh(self, monkeypatch):
        """Per-cell state is not keyed by name: a second template with a
        seen name gets its own node loads."""
        monkeypatch.delenv("REPRO_FAULTS", raising=False)  # healthy-path test
        reused = AnalyticCharacterizer(TECH, 300.0)
        reused.characterize_cell(make_inv(1))
        renamed = dataclasses.replace(make_inv(4), name="INVx1")
        fresh = AnalyticCharacterizer(TECH, 300.0).characterize_cell(renamed)
        assert reused.characterize_cell(renamed) == fresh


class TestArcSense:
    def test_inverter_negative_unate(self, char300):
        cell = char300.characterize_cell(make_inv(1))
        assert cell.arcs[0].timing_sense == "negative_unate"

    def test_buffer_positive_unate(self, char300):
        cell = char300.characterize_cell(make_buf(2))
        assert cell.arcs[0].timing_sense == "positive_unate"

    def test_xor_non_unate(self, char300):
        cell = char300.characterize_cell(make_xor2(1))
        assert all(arc.timing_sense == "non_unate" for arc in cell.arcs)

    def test_nand_all_pins_have_arcs(self, char300):
        cell = char300.characterize_cell(make_nand(3, 1))
        assert {arc.related_pin for arc in cell.arcs} == {"A", "B", "C"}


class TestDelayModel:
    def test_delay_increases_with_load(self, char300):
        cell = char300.characterize_cell(make_inv(1))
        arc = cell.arcs[0]
        d_light = arc.cell_rise.lookup(4e-12, 1e-15)
        d_heavy = arc.cell_rise.lookup(4e-12, 2e-14)
        assert d_heavy > 2.0 * d_light

    def test_delay_increases_with_input_slew(self, char300):
        cell = char300.characterize_cell(make_inv(1))
        arc = cell.arcs[0]
        assert arc.cell_rise.lookup(1e-10, 2e-15) > arc.cell_rise.lookup(2e-12, 2e-15)

    def test_stronger_drive_is_faster(self, char300):
        weak = char300.characterize_cell(make_inv(1)).arcs[0]
        strong = char300.characterize_cell(make_inv(8)).arcs[0]
        load = 1e-14
        assert strong.cell_rise.lookup(4e-12, load) < 0.5 * weak.cell_rise.lookup(4e-12, load)

    def test_multi_stage_slower_than_single(self, char300):
        inv = char300.characterize_cell(make_inv(2)).arcs[0]
        buf = char300.characterize_cell(make_buf(2)).arcs[0]
        assert buf.cell_rise.lookup(4e-12, 2e-15) > inv.cell_rise.lookup(4e-12, 2e-15)

    @pytest.mark.no_chaos  # raw backend output, before engine sanitization
    def test_all_tables_positive(self, char300):
        for cell_maker in (make_nand(2, 1), make_nor(2, 1), make_aoi("22", 1)):
            cell = char300.characterize_cell(cell_maker)
            for arc in cell.arcs:
                assert arc.cell_rise.min_value() > 0.0
                assert arc.rise_transition.min_value() > 0.0
                assert arc.rise_power.min_value() >= 0.0


class TestLeakage:
    def test_room_temperature_leakage_nanowatt_class(self, char300):
        cell = char300.characterize_cell(make_inv(1))
        assert 1e-10 < cell.leakage_average < 1e-6

    def test_cryo_leakage_orders_of_magnitude_lower(self, char300, char10):
        warm = char300.characterize_cell(make_nand(2, 1))
        cold = char10.characterize_cell(make_nand(2, 1))
        assert cold.leakage_average < 1e-4 * warm.leakage_average

    def test_leakage_state_dependence(self, char300):
        # NAND2 leaks least when both inputs are low (stacked off nfets).
        cell = char300.characterize_cell(make_nand(2, 1))
        both_low = cell.leakage_by_state["A=0 B=0"]
        both_high = cell.leakage_by_state["A=1 B=1"]
        assert both_low < both_high

    def test_state_count(self, char300):
        cell = char300.characterize_cell(make_nand(3, 1))
        assert len(cell.leakage_by_state) == 8


class TestCryogenicFigureTrends:
    """Cell-level preconditions for Fig. 2(a, b)."""

    def test_delay_nearly_unchanged_at_cryo(self, char300, char10):
        for template in (make_inv(1), make_nand(2, 1), make_nor(2, 1)):
            warm = char300.characterize_cell(template)
            cold = char10.characterize_cell(template)
            ratio = cold.typical_delay() / warm.typical_delay()
            assert 0.8 < ratio < 1.2, template.name

    def test_energy_slightly_lower_at_cryo(self, char300, char10):
        warm = char300.characterize_cell(make_nand(2, 1))
        cold = char10.characterize_cell(make_nand(2, 1))
        ratio = cold.typical_energy() / warm.typical_energy()
        assert 0.85 < ratio < 1.0


class TestSequentialCells:
    def test_dff_has_clock_arc(self, char300):
        cell = char300.characterize_cell(make_dff(1))
        assert cell.is_sequential
        arcs = [a for a in cell.arcs if a.timing_type == "rising_edge"]
        assert len(arcs) == 1
        assert arcs[0].related_pin == "CLK"
        assert arcs[0].cell_rise.min_value() > 0.0


class TestLibraryAssembly:
    def test_characterize_subset(self):
        lib = characterize_library(TECH, 300.0, cells=[make_inv(1), make_nand(2, 1)])
        assert len(lib) == 2
        assert "INVx1" in lib

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            characterize_library(TECH, 300.0, cells=[make_inv(1)], backend="magic")

    def test_full_catalog_characterizes(self):
        lib = characterize_library(TECH, 300.0)
        assert len(lib) == 200
        delays = lib.delay_distribution()
        assert len(delays) == 200
        assert np.all(delays > 0.0)

    def test_distributions_have_spread(self):
        lib = characterize_library(TECH, 300.0)
        delays = lib.delay_distribution()
        # Strong drives vs weak multi-stage cells: a real library has
        # a wide delay distribution.
        assert delays.max() > 3.0 * delays.min()
