"""The contract of the library's frozen value records, the subclasses of
zarith.Record: each one, built from one pinned instance, keeps its field
order and defaults for positional and keyword construction, refuses
assignment and deletion, compares and hashes over its compared fields only
(as the tuple of them), and has a pinned repr.  The checks on a record's
own validation live beside its module's other tests."""

from fractions import Fraction

import pytest

from skewgalois.embed import Verdict, WeakSolution
from skewgalois.ffield import FqField, frobenius
from skewgalois.groups import ReductionStep, Subgroup, cyclic_group
from skewgalois.quat import FeasibilityResult, LevelResult, QuadraticField, Quaternion
from skewgalois.splitcon import (
    ConstructionReport, LocalCheck, LocalPoly, LocalSpec, SnCertificate, VerifyResult,
)
from skewgalois.zarith import Record

C2 = cyclic_group(2)
SPEC = LocalSpec(7, "ur", 2, True)
SPEC_REPR = "LocalSpec(prime=7, kind='ur', degree=2, ram_in_L=True)"
SN = SnCertificate(4, {5: (4,)}, False, ("missing",))
SN_REPR = "SnCertificate(n=4, patterns={5: (4,)}, conclusion=False, reasons=('missing',))"
CHECK = LocalCheck(SPEC, True, {"pattern": [2, 1, 1]}, None)
CHECK_REPR = f"LocalCheck(spec={SPEC_REPR}, passed=True, evidence={{'pattern': [2, 1, 1]}}, reason=None)"
C2_REPR = "FiniteGroup(C2, order=2)"

# (class, fields, values in field order, defaults of the trailing fields,
#  fields left out of equality and hashing, repr); the reprs are those the
#  records had as frozen dataclasses
CASES = [
    (LocalSpec, ("prime", "kind", "degree", "ram_in_L"), (13, "ts", None, True),
     {"degree": None, "ram_in_L": False}, (), "LocalSpec(prime=13, kind='ts', degree=None, ram_in_L=True)"),
    (LocalPoly, ("prime", "precision", "coeffs"), (3, 2, (1, 0, 1)), {}, (),
     "LocalPoly(prime=3, precision=2, coeffs=(1, 0, 1))"),
    (SnCertificate, ("n", "patterns", "conclusion", "reasons"), (4, {5: (4,)}, False, ("missing",)),
     {"reasons": ()}, (), SN_REPR),
    (LocalCheck, ("spec", "passed", "evidence", "reason"), (SPEC, True, {"pattern": [2, 1, 1]}, None),
     {"evidence": {}, "reason": None}, ("evidence",), CHECK_REPR),
    (ConstructionReport,
     ("Q", "n", "n_min", "p_kernel", "specs", "aux_specs", "precision", "place_precision",
      "root_scale", "sn", "local_checks", "disjoint", "extra_L_ram"),
     ((1, 0, 1), 2, 2, 5, (SPEC,), (SPEC,), 2, {7: 1}, None, SN, (CHECK,), {"prime": 3}, (11,)),
     {"extra_L_ram": ()}, (),
     f"ConstructionReport(Q=(1, 0, 1), n=2, n_min=2, p_kernel=5, specs=({SPEC_REPR},), "
     f"aux_specs=({SPEC_REPR},), precision=2, place_precision={{7: 1}}, root_scale=None, "
     f"sn={SN_REPR}, local_checks=({CHECK_REPR},), disjoint={{'prime': 3}}, extra_L_ram=(11,))"),
    (VerifyResult, ("ok", "failures"), (False, ("Q is not monic",)), {}, (),
     "VerifyResult(ok=False, failures=('Q is not monic',))"),
    (Subgroup, ("parent", "elements"), (C2, (0, 1)), {}, (),
     f"Subgroup(parent={C2_REPR}, elements=(0, 1))"),
    (ReductionStep, ("group", "N", "Gp", "phi", "note"),
     (C2, Subgroup(C2, (0, 1)), Subgroup(C2, (0,)), (0, 1), "nilpotent"), {}, (),
     f"ReductionStep(group={C2_REPR}, N=Subgroup(parent={C2_REPR}, elements=(0, 1)), "
     f"Gp=Subgroup(parent={C2_REPR}, elements=(0,)), phi=(0, 1), note='nilpotent')"),
    (WeakSolution, ("g", "order"), (1, 2), {}, (), "WeakSolution(g=1, order=2)"),
    (Verdict, ("status", "cond_a", "cond_c", "split", "witness", "tau"),
     ("SOLVABLE", True, True, True, WeakSolution(1, 2), frobenius(FqField(2, 4), 1)),
     {"witness": None, "tau": None}, (),
     "Verdict(status='SOLVABLE', cond_a=True, cond_c=True, split=True, "
     "witness=WeakSolution(g=1, order=2), tau=FieldAut(2^4, frob^1))"),
    (Quaternion, ("a", "b", "c", "d", "base"),
     (Fraction(1, 2), Fraction(0), Fraction(-1), Fraction(3), "Q(sqrt:-7)"), {"base": "Q"}, (),
     "Quaternion(1/2 + 0i + -1j + 3k)"),
    (LevelResult, ("place", "level", "witness"), (2, 4, {"modulus": 16}), {"witness": {}},
     ("witness",), "LevelResult(place=2, level=4, witness={'modulus': 16})"),
    (QuadraticField, ("m",), (-7,), {}, (), "QuadraticField(m=-7)"),
    (FeasibilityResult, ("feasible", "witness_place", "detail"), (True, 2, {"reason": "r"}), {}, (),
     "FeasibilityResult(feasible=True, witness_place=2, detail={'reason': 'r'})"),
]


def _with(record, fields, name, value):
    """A copy of record with one field replaced, past __init__ and its checks."""
    copy = object.__new__(type(record))
    for field in fields:
        object.__setattr__(copy, field, value if field == name else getattr(record, field))
    return copy


def test_every_record_is_covered():
    assert sorted(c.__name__ for c in Record.__subclasses__()) == sorted(c[0].__name__ for c in CASES)


@pytest.mark.parametrize("cls, fields, values, defaults, uncompared, text", CASES,
                         ids=[c[0].__name__ for c in CASES])
def test_record_contract(cls, fields, values, defaults, uncompared, text):
    record = cls(*values)
    # field order, positional and keyword construction, defaults
    assert tuple(getattr(record, f) for f in fields) == values
    assert all(getattr(record, f) is v for f, v in zip(fields, values))
    by_name = cls(**dict(zip(fields, values)))
    assert by_name == record and tuple(getattr(by_name, f) for f in fields) == values
    required = values[:len(fields) - len(defaults)]
    for made in (cls(*required), cls(*required), cls(**dict(zip(fields, required)))):
        assert {f: getattr(made, f) for f in defaults} == defaults
    for f, v in defaults.items():
        if v == {}:  # a fresh dict per record, as a default factory gives
            assert getattr(cls(*required), f) is not getattr(cls(*required), f)
    # frozen: no field, and no other attribute, can be set or deleted
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert tuple(getattr(record, f) for f in fields) == values
    # equality and hashing over the compared fields, as their tuple
    compared = tuple(getattr(record, f) for f in fields if f not in uncompared)
    other = object()
    for name in fields:
        if name in uncompared:
            assert _with(record, fields, name, other) == record
        else:
            assert _with(record, fields, name, other) != record
    assert record != compared and record != other
    try:
        want = hash(compared)
    except TypeError:  # a dict field: unhashable, as the dataclass was
        with pytest.raises(TypeError, match="unhashable type"):
            hash(record)
    else:
        assert hash(record) == hash(by_name) == want
        for name in uncompared:
            assert hash(_with(record, fields, name, other)) == want
    # the repr, byte for byte
    assert repr(record) == text
