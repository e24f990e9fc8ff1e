"""Exact combinatorial invariants of Dynkin-type triangulated categories.

Weyl groups under the absolute order, noncrossing partition lattices,
Hurwitz orbits of reflection factorizations, Auslander-Reiten quivers
with Hom hammocks, and thick-subcategory lattices, every fast path
cross-validated against an independent brute-force oracle.
"""

from .braid import Factorization, braid_act, enumerate_factorizations, hurwitz_orbit
from .cartan import (
    KRONECKER,
    CartanDatum,
    WeylElement,
    abs_leq,
    absolute_length,
    absolute_length_bfs,
    build_cartan,
    coxeter_element,
    form,
    real_roots,
    reflect,
    reflection_element,
    weyl_group,
)
from .derived import (
    build_zdelta,
    module_slice,
    serre,
    suspension,
    verify_mesh,
)
from .noncrossing import (
    NCLattice,
    co_kreweras,
    enumerate_nc,
    hasse_dot,
    join,
    kreweras,
    meet,
    nc_kronecker,
)
from .repcat import (
    HomSpace,
    Quiver,
    Representation,
    ar_quiver_module_category,
    dynkin_quiver,
    ext1_dim,
    hom,
    indecomposable_for_root,
    is_exceptional_sequence,
)
from .thicklat import (
    KroneckerLattice,
    ThickSubcategory,
    kronecker_lattice,
    left_perp,
    right_perp,
    thick_from_nc,
    thick_lattice,
    wide_subcategory_oracle,
)
from .tquiver import TranslationQuiver

__version__ = "0.1.0"

__all__ = [
    "KRONECKER",
    "CartanDatum",
    "WeylElement",
    "Factorization",
    "NCLattice",
    "Quiver",
    "Representation",
    "HomSpace",
    "TranslationQuiver",
    "ThickSubcategory",
    "KroneckerLattice",
    "build_cartan",
    "form",
    "reflect",
    "reflection_element",
    "real_roots",
    "weyl_group",
    "absolute_length",
    "absolute_length_bfs",
    "abs_leq",
    "coxeter_element",
    "enumerate_nc",
    "kreweras",
    "co_kreweras",
    "meet",
    "join",
    "nc_kronecker",
    "hasse_dot",
    "braid_act",
    "enumerate_factorizations",
    "hurwitz_orbit",
    "dynkin_quiver",
    "hom",
    "ext1_dim",
    "indecomposable_for_root",
    "is_exceptional_sequence",
    "ar_quiver_module_category",
    "build_zdelta",
    "suspension",
    "serre",
    "verify_mesh",
    "module_slice",
    "thick_from_nc",
    "left_perp",
    "right_perp",
    "thick_lattice",
    "wide_subcategory_oracle",
    "kronecker_lattice",
    "__version__",
]
