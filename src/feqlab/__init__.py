"""feqlab: solution sets of integral Van Vleck and Kannappan functional
equations on finite semigroups with involution and central point measures."""

from .characters import enumerate_multiplicative
from .equations import (
    KINDS,
    Instance,
    linear_part,
    residuals,
)
from .errors import (
    EntryOutOfRange,
    EquivalenceViolation,
    FeqlabError,
    InvalidMeasure,
    InvariantViolation,
    NotAntiHomomorphism,
    NotAssociative,
    NotInvolutive,
    SupportNotCentral,
    ZeroDenominator,
)
from .families import (
    CharacterIntegrals,
    Solution,
    SolutionReport,
    character_integrals,
    dalembert_abelian_family,
    dalembert_admissible,
    dalembert_integral_conditions,
    dalembert_to_kannappan,
    family,
    kannappan_abelian_family,
    kannappan_identity_suite,
    kannappan_to_dalembert,
    van_vleck_family,
    van_vleck_identity_suite,
)
from .measures import (
    CentralMeasure,
    central_measure,
    is_tau_invariant,
    total_mass_integral,
)
from .oracle import (
    MatchResult,
    NoConvergenceBudget,
    OracleConfig,
    match_solution_sets,
    oracle_solve,
)
from .semigroups import (
    FiniteSemigroup,
    Involution,
    center,
    cyclic_group,
    cyclic_semigroup,
    direct_product,
    identity_involution,
    identity_of,
    inverse_involution,
    left_zero,
    orbit_table,
    symmetric_group_3,
    validate_involution,
    validate_semigroup,
)
from .verify import VerifyReport, verify_instance

__version__ = "0.1.0"
