"""The paper's core contribution: the end-to-end cryogenic-aware
design-automation flow and its experiment harness."""

from .artifacts import (
    ArtifactCache,
    cache_key,
    config_digest,
    default_cache,
    set_default_cache,
    using_cache,
)
from .context import DesignContext
from .flow import SCENARIOS, CryoSynthesisFlow, FlowResult, run_scenarios
from .sequential import (
    SequentialDesign,
    SequentialResult,
    make_accumulator,
    make_counter,
    pick_flop,
    run_sequential,
)
from .experiments import (
    DistributionSummary,
    Figure1Row,
    Figure3Row,
    PowerShareRow,
    average_shares,
    figure1_model_validation,
    figure2ab_cell_distributions,
    figure2c_power_breakdown,
    figure3_summary,
    figure3_synthesis_comparison,
)

__all__ = [
    "ArtifactCache",
    "DesignContext",
    "cache_key",
    "config_digest",
    "default_cache",
    "set_default_cache",
    "using_cache",
    "SCENARIOS",
    "CryoSynthesisFlow",
    "FlowResult",
    "run_scenarios",
    "SequentialDesign",
    "SequentialResult",
    "make_accumulator",
    "make_counter",
    "pick_flop",
    "run_sequential",
    "DistributionSummary",
    "Figure1Row",
    "Figure3Row",
    "PowerShareRow",
    "average_shares",
    "figure1_model_validation",
    "figure2ab_cell_distributions",
    "figure2c_power_breakdown",
    "figure3_summary",
    "figure3_synthesis_comparison",
]
