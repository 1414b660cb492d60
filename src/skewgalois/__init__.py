"""skewgalois: exact computational algebra for twisted polynomial rings
over finite fields, embedding-problem solvability over skew function
fields, solvable-group reduction towers, certified symmetric-group
polynomial construction, and quaternion level arithmetic.
"""

from .ffield import (
    FieldAut,
    FqElem,
    FqField,
    SubfieldEmbedding,
    embed_subfield,
    field_from_descriptor,
    frobenius,
    galois_group,
    make_field,
    restrict_aut,
)
from .orepoly import (
    InducedRingAut,
    OreDivResult,
    OrePoly,
    OreRing,
    anti_involution,
    induced_ring_aut,
    ore_left_lcm,
    ore_mul,
    ore_right_divmod,
    ore_right_gcd,
    ore_witness,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    ReductionStep,
    Subgroup,
    cyclic_group,
    fitting_subgroup,
    is_nilpotent,
    is_solvable,
    semidirect_product,
    shafarevich_step,
    solvable_tower,
)
from .embed import (
    CoprimalityFailure,
    EmbeddingProblem,
    FFGaloisExt,
    Verdict,
    decide_sigma_solvability,
    find_section,
    find_weak_solutions,
    lemma1_check,
    lift_sigma,
    problem_from_quotient,
    split_problem,
)
from .splitcon import (
    ConstructionError,
    ConstructionReport,
    LocalPoly,
    LocalSpec,
    SnCertificate,
    build_local_poly,
    certify_local_behavior,
    certify_sn,
    construct_lprime,
    odd_prime_for_case_c,
    parse_spec,
    plan_aux_primes,
    verify_report,
    weak_approximation,
)
from .quat import (
    LevelResult,
    Quaternion,
    is_division_ring,
    level_local,
    theorem13_feasible,
)

__version__ = "0.1.0"
