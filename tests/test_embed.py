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
    is_nilpotent,
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


def test_split_flag_matches_find_section_on_criterion_5_problems():
    # the verdict reads split off the weak solutions; find_section scans
    # the Frobenius fiber on its own, split and non-split problems alike
    from skewgalois.catalog import catalog_upto
    from skewgalois.selftest import _cyclic_quotient_epis

    seen = set()
    for _, G in catalog_upto(16):
        for e, images, N in _cyclic_quotient_epis(G):
            if not is_nilpotent(G, N.elements):
                continue
            for p, nk in ((2, 1), (2, 2), (3, 2)):
                ep = problem_from_quotient(ext(p, nk, nk * e), G, images)
                for s in range(nk):
                    v = decide_sigma_solvability(ep, FieldAut(ep.ext.K, s))
                    assert v.split == (find_section(ep) is not None)
                    seen.add(v.split)
    assert seen == {True, False}


def test_decide_builds_no_second_table(monkeypatch):
    # the kernel check reads G's element orders, so ker alpha never gets a
    # table of its own: the criterion-5 verdicts hold with as_group refused
    from skewgalois.catalog import catalog_upto
    from skewgalois.groups import Subgroup
    from skewgalois.selftest import _cyclic_quotient_epis

    split = [(ext(p, nk, nk * e), G, images)
             for _, G in catalog_upto(16)
             for e, images, N in _cyclic_quotient_epis(G) if is_nilpotent(G, N.elements)
             for p, nk in ((2, 1), (2, 2), (3, 2))
             if find_section(problem_from_quotient(ext(p, nk, nk * e), G, images)) is not None]

    def verdicts():  # on new problems, so that nothing is carried over
        return [decide_sigma_solvability(problem_from_quotient(E, G, images), FieldAut(E.K, s))
                for E, G, images in split for s in range(E.K.n)]

    before = [v.to_json() for v in verdicts()]

    def refuse(self, name="H"):
        raise AssertionError("decide built a table for a subgroup")

    monkeypatch.setattr(Subgroup, "as_group", refuse)
    after = verdicts()
    assert [v.to_json() for v in after] == before
    assert [v.status for v in after] == [
        "SOLVABLE" if math.gcd(FieldAut(E.K, s).order, E.degree) == 1 else "UNSOLVABLE"
        for E, _, _ in split for s in range(E.K.n)]
    assert len(after) > 100


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
    # the projection whose kernel is a cyclic subgroup of order 4
    cyc4 = next(s for s in Q8.all_subgroups() if s.order == 4
                and all(Q8.element_order(g) in (1, 2, 4) for g in s.elements)
                and len([g for g in s.elements if Q8.element_order(g) == 4]) == 2)
    ker = set(cyc4.elements)
    images = [0 if g in ker else 1 for g in range(8)]
    ep = problem_from_quotient(e3, Q8, images)
    assert ep.kernel_is_nilpotent()
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
    with pytest.raises(AssertionError, match=r"^SOLVABLE verdict requires condition \(a\)$"):
        Verdict(status="SOLVABLE", cond_a=False, cond_c=True, split=True)
    with pytest.raises(AssertionError,
                       match=r"^UNSOLVABLE verdict requires condition \(c\) to fail$"):
        Verdict(status="UNSOLVABLE", cond_a=False, cond_c=True, split=True)
    with pytest.raises(AssertionError, match=r"^conclusion \(a\) => \(c\) violated$"):
        Verdict(status="UNKNOWN", cond_a=True, cond_c=False, split=False)
    # positionally too, and a consistent verdict keeps its defaults
    with pytest.raises(AssertionError, match="SOLVABLE verdict"):
        Verdict("SOLVABLE", False, True, True)
    v = Verdict("UNKNOWN", False, False, True)
    assert v.witness is None and v.tau is None


def _catalog_cyclic_problems():
    """(name, G, e, images, N) for every catalog group and every epimorphism
    onto a cyclic group C_e."""
    from skewgalois.catalog import catalog
    from skewgalois.selftest import _cyclic_quotient_epis

    for name, G in catalog():
        for e, images, N in _cyclic_quotient_epis(G):
            yield name, G, e, images, N


def test_coprime_d_always_has_a_coprime_weak_solution():
    # (c) => (a) for every problem, split or not: over the generator of C_e
    # some element has order coprime to every d coprime to e
    cases = 0
    for name, G, e, images, _ in _catalog_cyclic_problems():
        gen = 1 if e > 1 else 0
        orders = {G.element_order(g) for g in range(G.order) if images[g] == gen}
        for d in range(1, 25):
            if math.gcd(d, e) == 1:
                assert any(math.gcd(o, d) == 1 for o in orders), (name, e, d)
                cases += 1
    assert cases == 9816


def test_non_split_problems_are_solvable_exactly_when_coprime():
    # sigma = Frobenius of F_2^d has order d; d e <= 64 keeps L under the cap
    decided = 0
    for name, G, e, images, N in _catalog_cyclic_problems():
        if not is_nilpotent(G, N.elements):
            continue
        if find_section(problem_from_quotient(ext(2, 1, e), G, images)) is not None:
            continue
        for d in range(1, min(24, 64 // e) + 1):
            ep = problem_from_quotient(ext(2, d, d * e), G, images)
            v = decide_sigma_solvability(ep, frobenius(ep.ext.K, 1))
            coprime = math.gcd(d, e) == 1
            assert v.status == ("SOLVABLE" if coprime else "UNSOLVABLE"), (name, e, d)
            assert not v.split and v.cond_a == v.cond_c == coprime
            decided += 1
    assert decided == 1300
