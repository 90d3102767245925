"""Exact symbolic engine for BFV/BRST data of coisotropic submanifolds
of Jacobi manifolds, in a trivialized local model."""

from .scalar import Chart, ScalarExpr
from .ghost import GhostMonomial, GradedFunction, Section
from .multideriv import (MultiDerivation, sj_bracket, evaluate, build_G,
                         is_jacobi, jacobi_from_pair, jacobi_from_words,
                         jacobi_bracket, hamiltonian)
from .contraction import (ResidualError, ConnectionSpec, BrstContraction,
                          imm_i_nabla, proj_p, homotopy_H_nabla, hpl_deform)
from .solver import (ObstructionError, NotJacobiError, obstruction_solve,
                     lift_jacobi, brst_charge, coisotropy_residual, mc_check,
                     BfvData, bfv_assemble, reduced_differential, derived_brackets,
                     gauge_intertwine)
from .models import Model, t5_contact

__all__ = [
    "Chart", "ScalarExpr", "GhostMonomial", "GradedFunction", "Section",
    "MultiDerivation", "sj_bracket", "evaluate", "build_G", "is_jacobi",
    "jacobi_from_pair", "jacobi_from_words", "jacobi_bracket", "hamiltonian",
    "NotJacobiError", "ResidualError", "ConnectionSpec", "BrstContraction",
    "imm_i_nabla", "proj_p", "homotopy_H_nabla", "hpl_deform", "ObstructionError",
    "obstruction_solve", "lift_jacobi", "brst_charge",
    "coisotropy_residual", "mc_check", "BfvData", "bfv_assemble",
    "reduced_differential", "derived_brackets", "gauge_intertwine",
    "Model", "t5_contact",
]
