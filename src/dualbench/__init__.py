"""dualbench: a finite duality workbench.

Builds finite bounded distributive lattices, lattice-valued algebras and
their relatives, dualizes them into bitopological or ordered Stone spaces,
reconstructs algebras back from spaces, and mechanically verifies the
round-trip isomorphisms and functor laws on every instance, with concrete
witnesses on failure.
"""

from .errors import (
    AlgebraError,
    BudgetExceeded,
    DocumentError,
    DualityError,
    LatticeError,
    SpaceError,
)
from .lattice import (
    FiniteLattice,
    Poset,
    build_lattice,
    build_poset,
    chain_lattice,
    diamond_lattice,
    heyting_implies,
    prime_filters,
    prime_ideals,
    separating_prime_ideal,
)
from .algebra import (
    Algebra,
    Homomorphism,
    check_lvl_axioms,
    enumerate_homs,
    enumerate_subalgebras,
    is_homomorphism,
    make_bdl,
    make_heyting,
    make_heyting_ispi,
    make_lvl,
    product_algebra,
)
from .kripke import (
    build_frame,
    intuitionistic_power,
    kripke_condition_check,
    upset_algebra,
)
from .topology import (
    AlphaAssignment,
    BitopSpace,
    OrderedSpace,
    PbsObject,
    Topology,
    generate_topology,
    is_pairwise_compact,
    is_pairwise_hausdorff,
    is_pairwise_zero_dimensional,
    verify_hspa_morphism,
    verify_hspa_object,
    verify_pbs_morphism,
    verify_pbs_object,
    verify_pspa_morphism,
    verify_pspa_object,
)
from .duality import (
    algebra_roundtrip,
    check_downclosure_identity,
    check_second_topology_inclusion,
    dual_hom_of_map,
    dual_map_of_hom,
    functor_composition_check,
    functor_identity_check,
    space_roundtrip,
    spectrum_correspondence,
)

__version__ = "0.1.0"
