import math

import pytest

from skewgalois.embed import (
    CoprimalityFailure,
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
from skewgalois.ffield import FieldAut, frobenius, make_field
from skewgalois.groups import (
    cyclic_group,
    dicyclic_group,
    direct_product,
    symmetric_group,
)


def ext(p, nk, nl):
    return FFGaloisExt(make_field(p, nk), make_field(p, nl))


def test_ext_structure():
    e = ext(2, 2, 6)
    assert e.degree == 3
    assert e.relative_frobenius().k == 2
    assert len(e.galois_group()) == 3
    with pytest.raises(ValueError):
        ext(2, 4, 6)  # 4 does not divide 6


def test_find_section_examples():
    e2 = ext(2, 2, 4)
    # alpha an isomorphism: the section is its inverse
    ep = problem_from_quotient(e2, cyclic_group(2), [0, 1])
    sec = find_section(ep)
    assert sec is not None and sec.images == (0, 1)
    # C4 -> C2: both fiber elements have order 4, no section
    ep = problem_from_quotient(e2, cyclic_group(4), [0, 1, 0, 1])
    assert find_section(ep) is None
    # C2 x C2 -> C2 projection splits
    V4 = direct_product(cyclic_group(2), cyclic_group(2))
    ep = problem_from_quotient(e2, V4, [0, 1, 0, 1])
    sec = find_section(ep)
    assert sec is not None
    for j in range(2):
        assert ep.alpha(sec(j)) == j


def test_find_weak_solutions_examples():
    e2 = ext(2, 2, 4)
    ep = problem_from_quotient(e2, cyclic_group(4), [0, 1, 0, 1])
    assert sorted(w.order for w in find_weak_solutions(ep)) == [4, 4]
    ep = problem_from_quotient(e2, cyclic_group(6), [i % 2 for i in range(6)])
    orders = sorted(w.order for w in find_weak_solutions(ep))
    assert orders == [2, 6, 6]  # includes an order-2 weak solution
    ep = problem_from_quotient(e2, cyclic_group(2), [0, 1])
    assert [(w.g, w.order) for w in find_weak_solutions(ep)] == [(1, 2)]


def test_weak_solutions_are_homs_onto_frobenius():
    e3 = ext(3, 1, 2)
    G = cyclic_group(8)
    ep = problem_from_quotient(e3, G, [i % 2 for i in range(8)])
    for w in find_weak_solutions(ep):
        assert ep.alpha(w.g) == ep.generator_index()
        # beta(Frob^j) = g^j is injective on a cyclic group of order ord(g)
        seen = set()
        for j in range(w.order):
            seen.add(G.power(w.g, j))
        assert len(seen) == w.order
        assert e3.degree and w.order % e3.degree == 0


def test_lift_sigma_examples():
    # K=F_4, sigma=Frob (order 2), L=F_64 ([L:K]=3): tau = Frob^3, unique
    e = ext(2, 2, 6)
    tau = lift_sigma(e, frobenius(e.K, 1))
    assert tau.k == 3 and tau.order == 2
    # enumeration evidence: the other extensions have the wrong order
    others = [FieldAut(e.L, (1 + 2 * i) % 6) for i in range(3)]
    assert sorted(a.order for a in others) == [2, 6, 6]
    # identity lifts to identity
    tau0 = lift_sigma(e, frobenius(e.K, 0))
    assert tau0.k == 0
    # K=F_4 in L=F_16: both extensions have order 4, coprimality fails
    e2 = ext(2, 2, 4)
    with pytest.raises(CoprimalityFailure) as exc:
        lift_sigma(e2, frobenius(e2.K, 1))
    assert sorted(o for _, o in exc.value.extensions) == [4, 4]


def test_lemma1_examples():
    e = ext(2, 2, 6)
    r = lemma1_check(e, frobenius(e.K, 1), FieldAut(e.L, 3))
    assert r == {"cond2": True, "cond3": True}
    e2 = ext(2, 2, 4)
    r = lemma1_check(e2, frobenius(e2.K, 1), FieldAut(e2.L, 1))
    assert r == {"cond2": False, "cond3": False}
    r = lemma1_check(e2, frobenius(e2.K, 0), FieldAut(e2.L, 0))
    assert r == {"cond2": True, "cond3": True}
    with pytest.raises(ValueError):
        lemma1_check(e2, frobenius(e2.K, 1), FieldAut(e2.L, 2))  # does not extend sigma


def test_decide_examples():
    # split, [L:K]=2 over K=F_4, sigma of order 2: UNSOLVABLE
    e2 = ext(2, 2, 4)
    V4 = direct_product(cyclic_group(2), cyclic_group(2))
    ep = problem_from_quotient(e2, V4, [0, 1, 0, 1])
    v = decide_sigma_solvability(ep, frobenius(e2.K, 1))
    assert v.status == "UNSOLVABLE" and not v.cond_c and v.split and v.tau is None
    # split, [L:K]=3: SOLVABLE with the unique tau attached
    e3 = ext(2, 2, 6)
    ep3 = problem_from_quotient(e3, cyclic_group(3), [0, 1, 2])
    v3 = decide_sigma_solvability(ep3, frobenius(e3.K, 1))
    assert v3.status == "SOLVABLE" and v3.tau.k == 3
    assert v3.witness is not None and math.gcd(2, v3.witness.order) == 1
    # sigma = id: always solvable for split nilpotent-kernel problems
    v1 = decide_sigma_solvability(ep, frobenius(e2.K, 0))
    assert v1.status == "SOLVABLE"


def test_decide_rejects_non_nilpotent_kernel():
    e2 = ext(2, 2, 4)
    G = direct_product(symmetric_group(3), cyclic_group(2))
    ep = problem_from_quotient(e2, G, [i % 2 for i in range(12)])
    assert ep.kernel().order == 6
    with pytest.raises(ValueError, match="nilpotent"):
        decide_sigma_solvability(ep, frobenius(e2.K, 1))


def test_decide_nonsplit_solvable_case():
    # C4 -> C2 is non-split with nilpotent kernel; order-1 sigma solves it
    e2 = ext(2, 2, 4)
    ep = problem_from_quotient(e2, cyclic_group(4), [0, 1, 0, 1])
    v = decide_sigma_solvability(ep, frobenius(e2.K, 0))
    assert v.status == "SOLVABLE" and not v.split
    # order-2 sigma: cond_c fails, UNSOLVABLE
    v2 = decide_sigma_solvability(ep, frobenius(e2.K, 1))
    assert v2.status == "UNSOLVABLE"


def test_decide_q8_problem():
    # Q8 -> C2 with kernel C4: non-split, still decided by the witnesses
    e3 = ext(3, 1, 2)  # [L:K] = 2 over F_3, Aut(K) trivial: sigma = id
    Q8 = dicyclic_group(2)
    # kernel = <a> of order 4: map a^i b^e -> e; Q8 indices: (i, e) -> order?
    # dicyclic normal form: elements (i, e), i < 4, e < 2, index via from_elements order
    images = []
    for idx in range(8):
        # reconstruct the normal form from the constructor's element order
        images.append(None)
    # simpler: use the projection with kernel = the unique cyclic subgroup of order 4
    cyc4 = next(s for s in Q8.all_subgroups() if s.order == 4
                and all(Q8.element_order(g) in (1, 2, 4) for g in s.elements)
                and len([g for g in s.elements if Q8.element_order(g) == 4]) == 2)
    ker = set(cyc4.elements)
    images = [0 if g in ker else 1 for g in range(8)]
    ep = problem_from_quotient(e3, Q8, images)
    assert not ep.kernel_is_nilpotent() or ep.kernel_is_nilpotent()
    v = decide_sigma_solvability(ep, frobenius(e3.K, 0))
    assert v.status == "SOLVABLE"  # identity sigma: d = 1


def test_split_problem_builder():
    e3 = ext(2, 2, 6)
    C2 = cyclic_group(2)
    # trivial action of C3 on C2
    ep = split_problem(e3, C2, [(0, 1)] * 3)
    assert ep.degree == 3
    assert find_section(ep) is not None
    v = decide_sigma_solvability(ep, frobenius(e3.K, 1))
    assert v.status == "SOLVABLE"


def test_verdict_json():
    e3 = ext(2, 2, 6)
    ep3 = problem_from_quotient(e3, cyclic_group(3), [0, 1, 2])
    v = decide_sigma_solvability(ep3, frobenius(e3.K, 1))
    data = v.to_json()
    assert data["status"] == "SOLVABLE"
    assert data["tau"] == {"frob": 3}
    assert data["witness"] == {"g": 1, "ord": 3}
    assert set(data) >= {"status", "cond_a", "cond_c", "split"}


def test_verdict_invariants_enforced():
    with pytest.raises(AssertionError):
        Verdict(status="SOLVABLE", cond_a=False, cond_c=True, split=True,
                d=1, ext_degree=1)
    with pytest.raises(AssertionError):
        Verdict(status="UNSOLVABLE", cond_a=False, cond_c=True, split=True,
                d=1, ext_degree=1)
    with pytest.raises(AssertionError):
        Verdict(status="UNKNOWN", cond_a=True, cond_c=False, split=False,
                d=2, ext_degree=2)
