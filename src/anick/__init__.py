"""Noncommutative Groebner data, chain combinatorics, and resolution
differentials for augmented associative algebras, in exact arithmetic."""

from .chains import (Chain, ChainGraph, ObstructionSet, antichain_from_oim,
                     bracket_prefix, bracket_tail, build_chain_graph,
                     enumerate_chains, enumerate_prechains, identity_chain,
                     is_chain_top_down, is_prechain, obstructions,
                     oim_from_antichain)
from .errors import (AnickError, BoundExceeded, InvalidPresentation,
                     NonTermination, NotAnAntichain, NotAnOim, NotGroebner,
                     NotInKernel, NotMinimal, ZeroElement, ZeroPolynomial)
from .fields import GF, QQ, PrimeField, RationalField
from .free_algebra import (Alphabet, FreeAlgebra, MonomialOrder, Polynomial,
                           words_up_to_weight)
from .groebner import (CheckReport, Overlap, Presentation, RewriteSystem,
                       check_groebner, complete, leading_monomials_oracle,
                       overlaps)
from .resolution import ModuleElement, ResolutionEngine
from .wordops import NormalWordAutomaton

__version__ = "0.1.0"

__all__ = [
    "Alphabet", "AnickError", "BoundExceeded", "Chain", "ChainGraph",
    "CheckReport", "FreeAlgebra", "GF", "InvalidPresentation",
    "ModuleElement", "MonomialOrder", "NonTermination", "NormalWordAutomaton",
    "NotAnAntichain", "NotAnOim", "NotGroebner", "NotInKernel", "NotMinimal",
    "ObstructionSet", "Overlap", "Polynomial", "Presentation", "PrimeField",
    "QQ", "RationalField", "ResolutionEngine", "RewriteSystem",
    "ZeroElement", "ZeroPolynomial", "antichain_from_oim",
    "bracket_prefix", "bracket_tail", "build_chain_graph", "check_groebner",
    "complete", "enumerate_chains", "enumerate_prechains", "identity_chain",
    "is_chain_top_down", "is_prechain", "leading_monomials_oracle",
    "obstructions", "oim_from_antichain", "overlaps", "words_up_to_weight",
]
