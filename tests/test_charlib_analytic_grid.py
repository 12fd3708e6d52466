"""Whole-grid analytic characterization against the per-point oracle.

The production backend walks each stage path once per output edge over
the whole slew x load grid; :mod:`tests.oracles.analytic_reference`
keeps the original per-point code.  The contract is byte-identity: the
same Liberty text and ``Library.fingerprint`` for the full catalog,
equal cells on any grid and temperature, and under a fault plan the
same ``charlib.measure`` draws in the same order.

Libraries are built through ``characterize_library`` (sanitization and
guards included) with the engine's characterizer class swapped for the
oracle.  Every build starts from no ambient fault plan, or from a fresh
explicit one, so the two sides see the same fault stream.
"""

from contextlib import nullcontext

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.charlib import AnalyticCharacterizer, write_liberty
from repro.charlib import engine
from repro.pdk.catalog import standard_cell_catalog
from repro.pdk.technology import cryo5_technology
from repro.resilience import faults

from .oracles.analytic_reference import ReferenceAnalyticCharacterizer

TECH = cryo5_technology()
CATALOG = standard_cell_catalog()

#: Fault plans and the cells each is built on: the chaos CI job's
#: ambient plan, one that fires at random and one that fires at once,
#: on every third catalog cell (~22,000 draws), and one that fires only
#: after 40,000 draws, on the whole catalog (66,934 draws at 10 K).
FAULT_PLANS = (
    ("seed=2023;spice.newton:0.05;charlib.measure:0.0005;cache.disk:0.02", CATALOG[::3]),
    ("seed=7;charlib.measure:0.001", CATALOG[::3]),
    ("charlib.measure:first=3", CATALOG[::3]),
    ("seed=3;charlib.measure:after=40000:max=5:0.5", CATALOG),
)


def build(characterizer, temperature_k, plan=None, cells=None):
    """One uncached library build with ``characterizer`` as the backend.

    Returns the library and every ``charlib.measure`` draw made, as
    ``(site, value)`` pairs in order.
    """
    draws = []
    real = faults.corrupt_value

    def spy(site, value, attempt=0):
        draws.append((site, value))
        return real(site, value, attempt)

    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(faults.ENV_VAR, raising=False)
        mp.setattr(engine, "AnalyticCharacterizer", characterizer)
        mp.setattr(faults, "corrupt_value", spy)
        with faults.injecting(faults.parse_plan(plan)) if plan else nullcontext():
            library = engine.characterize_library(TECH, temperature_k, cells=cells, cache=False)
    return library, draws


def assert_python_floats(cell):
    """Every table value is a ``float``: the fingerprint digests reprs."""
    for arc in cell.arcs:
        for field in engine._ARC_TABLE_FIELDS:
            table = getattr(arc, field)
            values = (*table.slews, *table.loads, *(v for row in table.values for v in row))
            assert all(type(v) is float for v in values), (cell.name, field)


def assert_same_cell(actual, expected):
    assert actual == expected
    assert_python_floats(actual)


@pytest.fixture(scope="module")
def libraries():
    """Healthy full-catalog builds per (side, temperature), made once."""
    built = {}

    def get(characterizer, temperature_k):
        key = (characterizer, temperature_k)
        if key not in built:
            built[key] = build(characterizer, temperature_k)
        return built[key]

    return get


@pytest.mark.parametrize("temperature_k", [300.0, 10.0])
def test_full_catalog_liberty_and_fingerprint_match(libraries, temperature_k):
    library, draws = libraries(AnalyticCharacterizer, temperature_k)
    reference, _ = libraries(ReferenceAnalyticCharacterizer, temperature_k)
    assert draws == []  # with no plan active the fault site is not consulted
    assert len(library) == len(CATALOG)
    assert write_liberty(library) == write_liberty(reference)
    assert library.fingerprint() == reference.fingerprint()
    for cell in library.cells.values():
        assert_python_floats(cell)


@pytest.fixture
def healthy(monkeypatch):
    monkeypatch.delenv(faults.ENV_VAR, raising=False)


def test_77k_stack_penalty_and_cells(healthy):
    characterizer = AnalyticCharacterizer(TECH, 77.0)
    reference = ReferenceAnalyticCharacterizer(TECH, 77.0)
    assert characterizer._stack_penalty == reference._stack_penalty
    for cell in CATALOG:
        assert_same_cell(characterizer.characterize_cell(cell), reference.characterize_cell(cell))


def test_spice_default_subgrid_cells(healthy):
    """The 2x2 grid the SPICE backend hands the analytic one by default."""
    slews, loads = TECH.slew_grid[1::3], TECH.load_grid[1::3]
    characterizer = AnalyticCharacterizer(TECH, 300.0)
    reference = ReferenceAnalyticCharacterizer(TECH, 300.0)
    for cell in CATALOG:
        assert_same_cell(
            characterizer.characterize_cell(cell, slews, loads),
            reference.characterize_cell(cell, slews, loads),
        )


def grid_axis(low, high):
    """Strictly increasing positive axes of 2..7 points."""
    values = st.floats(min_value=low, max_value=high, allow_nan=False, allow_infinity=False)
    return st.lists(values, min_size=2, max_size=7, unique=True).map(sorted).map(tuple)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cell=st.sampled_from(CATALOG),
    temperature_k=st.floats(min_value=10.0, max_value=300.0),
    slews=grid_axis(1e-13, 5e-10),
    loads=grid_axis(1e-17, 1e-13),
)
def test_random_cells_grids_and_temperatures(healthy, cell, temperature_k, slews, loads):
    assert_same_cell(
        AnalyticCharacterizer(TECH, temperature_k).characterize_cell(cell, slews, loads),
        ReferenceAnalyticCharacterizer(TECH, temperature_k).characterize_cell(cell, slews, loads),
    )


@pytest.mark.parametrize("plan,cells", FAULT_PLANS, ids=[plan for plan, _ in FAULT_PLANS])
def test_fault_plans_draw_and_degrade_alike(plan, cells):
    library, draws = build(AnalyticCharacterizer, 10.0, plan, cells)
    reference, expected = build(ReferenceAnalyticCharacterizer, 10.0, plan, cells)
    assert draws == expected
    assert reference.degraded_arcs()  # the plan fired on this build
    assert library.degraded_arcs() == reference.degraded_arcs()
    assert library.fingerprint() == reference.fingerprint()
