"""Spectra and energies of generalized Paley graphs GP(k, q) and their sum
graphs for k in {3, 4}: closed formulas, exact lifting recursions over field
extensions, complementary-equienergy decisions, family searches, and
independent brute-force oracles for verification at small q.
"""

from .dioph import QFRep, minimal_t, solve_ab, solve_cd
from .energy import (EnergyReport, corollary_condition, energy_bounds,
                     is_complementary_equienergetic, semiprimitive_energy)
from .errors import GPSpecError
from .family import FamilyWitness, find_equienergetic_family, interval_test_k3, interval_test_k4
from .ff import FieldSpec, HypothesisCase, kth_power_residues, make_field, theorem_hypotheses, trace
from .lift import level_exponent, levels
from .oracle import (DenseGraph, WeightDistribution, build_graph, char_sum_spectrum,
                     code_weight_distribution, dense_spectrum, weight_eigenvalue_check)
from .spectra import (GraphSpec, Spectrum, Variant, complement_spectrum, gp_spectrum,
                      gpsum_spectrum, spectrum_of)

__version__ = "0.6.0"

__all__ = [
    "DenseGraph", "EnergyReport", "FamilyWitness", "FieldSpec", "GPSpecError", "GraphSpec",
    "HypothesisCase", "QFRep", "Spectrum", "Variant", "WeightDistribution", "build_graph",
    "char_sum_spectrum", "code_weight_distribution", "complement_spectrum",
    "corollary_condition", "dense_spectrum", "energy_bounds", "find_equienergetic_family",
    "gp_spectrum", "gpsum_spectrum", "interval_test_k3", "interval_test_k4",
    "is_complementary_equienergetic", "kth_power_residues", "level_exponent", "levels",
    "make_field", "minimal_t", "semiprimitive_energy", "solve_ab", "solve_cd", "spectrum_of",
    "theorem_hypotheses", "trace", "weight_eigenvalue_check",
]
