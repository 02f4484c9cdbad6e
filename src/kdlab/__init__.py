"""Phase-space toolkit for finite abelian groups and band-limited circle operators.

Kernels of operators on L2(G) map unitarily to complex tables on
G x dual(G); the pure states with nonnegative tables form a finite
classified family, and membership of a state in its span or convex hull
is decided by convex feasibility with verifiable certificates.
"""

from .errors import (
    GroupMismatchError,
    GroupSpecError,
    KdlabError,
    NotAStateError,
    NotHermitianError,
    NotKdPositiveError,
    PreconditionError,
    SubgroupBoundError,
    UnsupportedOrderError,
)
from .groups import (
    Character,
    Element,
    FiniteAbelianGroup,
    Subgroup,
    annihilator,
    coset_reps,
    enumerate_subgroups,
    pair,
    parse_group,
)
from .harmonic import DualFunction, GFunction, fourier, haar_density, inverse_fourier
from .operators import Operator, PhaseSpaceFunction, check_state
from .weyl import WHElement, wh_conjugate, wh_identity, wh_inv, wh_mul, wh_unitary
from .kd import (
    ORDERINGS,
    akd,
    char_fn,
    char_fn_point,
    fourier_multiplier,
    kd,
    kd_inverse,
    kd_pure,
    kohn_nirenberg,
    marginals,
    multiplication_operator,
    symplectic_fourier,
)
from .classify import (
    KdPureState,
    enumerate_kd_positive_pure,
    make_subgroup_state,
    recognize_kd_positive_pure,
)
from .fragment import (
    GapWitness,
    MembershipResult,
    conv_membership,
    find_conv_gap_witness,
    is_kd_positive_state,
    is_kd_real,
    kd_real_dimension,
    project_onto_kdpos,
    span_membership,
)
from .circle import (
    BandLimitedOperator,
    circle_is_classical,
    circle_kd_eval,
    circle_negativity_search,
    geometric_hs_norm_sq,
    geometric_state,
)
from .tolerances import DEFAULT, Tolerances
from .verify import verify_group

__version__ = "0.1.0"
