"""skewgalois: exact computational algebra for twisted polynomial rings
over finite fields, embedding-problem solvability over skew function
fields, solvable-group reduction towers, certified symmetric-group
polynomial construction, and quaternion level arithmetic.

Importing the package runs no submodule: each one is registered in
`sys.modules` and as a package attribute by `importlib.util.LazyLoader`,
and its code runs on the first attribute access.  The public names below
resolve through the module that defines them, on first use.
"""

import importlib.util
import sys

# every submodule, each loaded on first use -> the public names it defines
_PUBLIC = {
    "zarith": "",
    "modpoly": "",
    "ffield": "FieldAut FqElem FqField SubfieldEmbedding embed_subfield field_from_descriptor "
              "frobenius galois_group make_field restrict_aut",
    "orepoly": "InducedRingAut OreDivResult OrePoly OreRing anti_involution induced_ring_aut "
               "ore_left_lcm ore_mul ore_right_divmod ore_right_gcd ore_witness",
    "groups": "FiniteGroup GroupHom ReductionStep Subgroup cyclic_group fitting_subgroup "
              "is_nilpotent is_solvable semidirect_product shafarevich_step solvable_tower",
    "embed": "CoprimalityFailure EmbeddingProblem FFGaloisExt Verdict decide_sigma_solvability "
             "find_section find_weak_solutions lemma1_check lift_sigma problem_from_quotient "
             "split_problem",
    "zpoly": "",
    "splitcon": "ConstructionError ConstructionReport LocalPoly LocalSpec SnCertificate "
                "build_local_poly certify_local_behavior certify_sn construct_lprime "
                "odd_prime_for_case_c parse_spec plan_aux_primes verify_report weak_approximation",
    "quat": "LevelResult Quaternion is_division_ring level_local theorem13_feasible",
    "catalog": "",
    "selftest": "",
}
_HOME = {name: mod for mod, names in _PUBLIC.items() for name in names.split()}
__all__ = list(_HOME)
__version__ = "0.1.0"

for _mod in _PUBLIC:
    _spec = importlib.util.find_spec(f"{__name__}.{_mod}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_mod] = _module
    _spec.loader.exec_module(_module)
del _mod, _spec, _module


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted({*globals(), *__all__})
