"""wittforge: exact Witt vector calculus and point-level prismatization.

Big and p-typical Witt vectors over concrete rings, their structural ideals
and predicates (Frobenius kernels, Hodge-Tate and distinguished elements),
quasi-ideal cones, the Rees dictionary for filtered modules, Hodge-filtered
de Rham cohomology of monomial algebras, and groupoids of prismatic points
of affine schemes over finite rings -- all in exact arithmetic, with
verification suites for every identity the constructions rest on.
"""

from .indexset import IndexSet, index_set_make
from .numutil import WittforgeError
from .rings import (
    INTEGERS,
    RATIONALS,
    RingElement,
    elem_arith,
    elem_is_nilpotent,
    elem_is_unit,
    exact_div,
    make_ring,
)
from .structure import (
    DecomposedWitt,
    LocalContext,
    VModuleLocal,
    is_distinguished,
    is_hodge_tate,
    is_in_wf,
    local_decompose,
    local_recompose,
    v_nonfree_obstruction,
    v_one_apply,
    wf_annihilator_check,
    witt_is_unit,
)
from .witt import (
    WittRing,
    WittVector,
    dwork_check,
    frobenius,
    ghost,
    make_witt,
    teichmuller,
    unghost,
    verschiebung,
    witt_add,
    witt_mul,
    witt_neg,
    witt_sub,
)

__all__ = [
    "INTEGERS",
    "RATIONALS",
    "DecomposedWitt",
    "IndexSet",
    "LocalContext",
    "RingElement",
    "VModuleLocal",
    "WittRing",
    "WittVector",
    "WittforgeError",
    "dwork_check",
    "elem_arith",
    "elem_is_nilpotent",
    "elem_is_unit",
    "exact_div",
    "frobenius",
    "ghost",
    "index_set_make",
    "is_distinguished",
    "is_hodge_tate",
    "is_in_wf",
    "local_decompose",
    "local_recompose",
    "make_ring",
    "make_witt",
    "teichmuller",
    "unghost",
    "v_nonfree_obstruction",
    "v_one_apply",
    "verschiebung",
    "wf_annihilator_check",
    "witt_add",
    "witt_is_unit",
    "witt_mul",
    "witt_neg",
    "witt_sub",
]

__version__ = "0.1.0"
