"""Logic synthesis: AIG data structure and optimization algorithms.

Implements the paper's Section IV-A toolbox: structural-hashed AIGs,
cut enumeration, NPN-class rewriting, refactoring, balancing,
SAT-validated resubstitution, structural choices, priority-cut k-LUT
mapping, and windowed don't-care optimization — plus the scripted
pipelines (``c2rs``, power-aware restructuring) the evaluation uses.
"""

from .aig import AIG, CONST0, CONST1, lit_is_compl, lit_not, lit_var, make_lit
from .activity import node_activities, signal_probabilities, simulated_activities
from .balance import balance
from .choices import ChoiceAIG, compute_choices
from .cuts import Cut, enumerate_cuts, mffc_size
from .isop import Cube, build_function, cover_to_tt, isop
from .lutmap import map_luts
from .lutnet import LUT, LUTNetwork
from .mfs import MfsReport, mfs
from .refactor import refactor
from .resub import resub
from .rewrite import StructureLibrary, rewrite
from .scripts import ScriptReport, compress2rs, power_aware_restructure
from .truth import npn_apply, npn_canon, tt_mask, tt_support, tt_var

__all__ = [
    "AIG", "CONST0", "CONST1", "lit_is_compl", "lit_not", "lit_var", "make_lit",
    "node_activities", "signal_probabilities", "simulated_activities",
    "balance", "ChoiceAIG", "compute_choices", "Cut", "enumerate_cuts",
    "mffc_size", "Cube", "build_function", "cover_to_tt", "isop",
    "map_luts", "LUT", "LUTNetwork", "MfsReport", "mfs", "refactor",
    "resub", "StructureLibrary", "rewrite", "ScriptReport", "compress2rs",
    "power_aware_restructure", "npn_apply", "npn_canon", "tt_mask",
    "tt_support", "tt_var",
]
