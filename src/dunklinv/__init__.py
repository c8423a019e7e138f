"""Exact computational toolkit: Dunkl operators, Weyl invariants, Takiff restriction."""

from .exactalg import (
    DimensionMismatch,
    ParseError,
    Polynomial,
    WorkBoundExceeded,
    parse,
    render,
)
from .linalg import GradedSubspace
from .rootsys import (
    MultiplicityAssignment,
    RootSystem,
    UnsupportedSystem,
    WeylGroup,
    build_root_system,
    generate_weyl,
    invariant_basis,
    reynolds,
    root_system,
)
from .dunkl import (
    DunklContext,
    commutator_check,
    dunkl_apply,
    dunkl_compose,
    gram_basis,
    gram_matrix,
    make_context,
)
from .liealg import (
    LieAlgebra,
    adjoint_derivation,
    invariants_graded,
    make_sl,
    matrix_algebra,
    takiff_extend,
)
from .restriction import (
    CartanFrame,
    CriterionReport,
    RootFrame,
    chevalley_graded_check,
    criterion_check,
    criterion_subspace,
    image_basis,
    restrict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
