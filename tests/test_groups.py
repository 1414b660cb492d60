import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from group_oracles import find_isomorphism

from skewgalois import cli
from skewgalois.catalog import catalog, catalog_upto
from skewgalois.groups import (
    TABLE_SYNTHESIS_CAP,
    FiniteGroup,
    GroupHom,
    _commutator_series_end,
    alternating_group,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product,
    fitting_subgroup,
    from_elements,
    from_permutations,
    group_from_json,
    is_nilpotent,
    is_solvable,
    p_core,
    semidirect_product,
    shafarevich_step,
    solvable_tower,
    symmetric_group,
    sylow_subgroup,
)


MALFORMED_TABLES = [
    ([], "a group has at least the identity"),
    ([[0, 1], [1]], "table is not square over element indices"),
    ([[0, 1], [1, 2]], "table is not square over element indices"),
    ([[0, -1], [1, 0]], "table is not square over element indices"),
    ([[1, 0], [0, 1]], "index 0 must be a two-sided identity"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "index 0 must be a two-sided identity"),
    ([[0, 1], [1, 1]], "table rows must be permutations (Latin square)"),
    ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 1, 0], [3, 0, 2, 1]],
     "table columns must be permutations (Latin square)"),
    # a non-associative Latin square with two-sided identity
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "table is not associative"),
]


def test_table_validation():
    for table, message in MALFORMED_TABLES:
        with pytest.raises(ValueError) as exc:
            FiniteGroup(table)
        assert str(exc.value) == message


def test_trusted_tables_pass_the_table_checks(monkeypatch):
    # tables the library builds itself (_pair_table, from_elements,
    # Subgroup.as_group) skip the Latin-square and associativity checks;
    # each one built for the catalog, S3^3 x C2 and their towers passes them
    from skewgalois import groups

    built, checked = [], []
    init, latin = FiniteGroup.__init__, groups._check_latin_square

    def record(self, table, **kwargs):
        if kwargs.get("_trusted"):
            built.append([list(row) for row in table])
        init(self, table, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", record)
    monkeypatch.setattr(groups, "_check_latin_square", lambda rows: checked.append(rows) or latin(rows))
    catalog()
    G = from_permutations([[[0, 1]], [[0, 1, 2]], [[3, 4]], [[3, 4, 5]],
                           [[6, 7]], [[6, 7, 8]], [[9, 10]]])
    from_elements([(a, b) for a in range(3) for b in range(4)],
                  lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 4))
    direct_product(symmetric_group(3), cyclic_group(4))
    semidirect_product(cyclic_group(3), cyclic_group(2), [(0, 1, 2), (0, 2, 1)])
    count = len(built)
    sylow_subgroup(G, 2).as_group()
    fitting_subgroup(G).as_group()
    assert len(built) == count + 2
    for _, H in catalog_upto(24):
        if is_solvable(H):
            solvable_tower(H)
    solvable_tower(G)
    assert not checked
    monkeypatch.undo()
    assert len(built) > 100
    for table in built:
        H = FiniteGroup(table)
        assert H.table == tuple(map(tuple, table))


def test_element_orders_and_inverses():
    S3 = symmetric_group(3)
    orders = sorted(S3.element_order(g) for g in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]
    for g in range(6):
        assert S3.mul(g, S3.inverse(g)) == 0


def test_predicate_examples():
    C6 = cyclic_group(6)
    assert is_nilpotent(C6) and is_solvable(C6)
    S3 = symmetric_group(3)
    assert not is_nilpotent(S3) and is_solvable(S3)
    S4 = symmetric_group(4)
    assert not is_nilpotent(S4) and is_solvable(S4)
    assert not is_solvable(symmetric_group(5))
    assert is_nilpotent(dicyclic_group(2))  # Q8


def _brute_derived_closure(G):
    # independent oracle: close the full commutator set repeatedly
    current = tuple(range(G.order))
    while True:
        comms = {G.commutator(a, b) for a in current for b in current}
        nxt = G.closure(comms)
        if nxt == current:
            return current
        current = nxt


def test_solvable_matches_commutator_closure_oracle():
    for name, G in catalog_upto(16):
        assert is_solvable(G) == (_brute_derived_closure(G) == (0,)), name
        # all catalog groups are solvable and the oracle terminates at 1
        assert _brute_derived_closure(G) == (0,)
    assert _brute_derived_closure(symmetric_group(5)) != (0,)
    assert not is_solvable(symmetric_group(5))


def _brute_lower_central_end(G):
    # independent oracle: [G, A] from the commutators of every pair
    current = tuple(range(G.order))
    while True:
        nxt = G.closure({G.commutator(g, a) for g in range(G.order) for a in current})
        if nxt == current:
            return current
        current = nxt


def _brute_normal_closure(G, seed):
    # independent oracle: conjugate by every element until nothing is new
    elems = set(G.closure(seed))
    while True:
        grown = set(G.closure(elems | {G.conj(g, x) for g in range(G.order) for x in elems}))
        if grown == elems:
            return tuple(sorted(elems))
        elems = grown


def _oracle_groups():
    yield from catalog_upto(24)
    yield "S4xC2", direct_product(symmetric_group(4), cyclic_group(2))
    yield "S3xS3", direct_product(symmetric_group(3), symmetric_group(3))
    yield "S3^3xC2", from_permutations([[[0, 1]], [[0, 1, 2]], [[3, 4]], [[3, 4, 5]],
                                        [[6, 7]], [[6, 7, 8]], [[9, 10]]])
    yield "S5", symmetric_group(5)


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in _oracle_groups()])
def test_commutator_series_match_all_pairs_oracles(G):
    lower_central_end = _brute_lower_central_end(G)
    derived_end = _brute_derived_closure(G)
    assert _commutator_series_end(G, True) == lower_central_end
    assert _commutator_series_end(G, False) == derived_end
    assert is_nilpotent(G) == (lower_central_end == (0,))
    assert is_solvable(G) == (derived_end == (0,))


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in _oracle_groups()])
def test_normal_closure_matches_conjugation_by_every_element(G):
    # every element as a seed up to order 24, then every 37th element
    step = 1 if G.order <= 24 else 37
    seeds = [[g] for g in range(0, G.order, step)] + [[G.order // 2, G.order - 1]]
    for seed in seeds:
        assert G.normal_closure(seed) == _brute_normal_closure(G, seed), seed


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in catalog_upto(24)])
def test_is_normal_matches_conjugation_by_every_element(G):
    for H in G.all_subgroups():
        es = set(H.elements)
        assert H.is_normal() == all(G.conj(g, x) in es for g in range(G.order) for x in es)


def test_sylow_subgroups():
    S4 = symmetric_group(4)
    assert sylow_subgroup(S4, 2).order == 8
    assert sylow_subgroup(S4, 3).order == 3
    assert p_core(S4, 2).order == 4  # V4
    assert p_core(S4, 3).order == 1


def test_fitting_examples():
    S3, S4 = symmetric_group(3), symmetric_group(4)
    assert fitting_subgroup(S3).order == 3  # A3
    F = fitting_subgroup(S4)
    assert F.order == 4  # V4: all non-identity elements are double transpositions
    assert all(S4.element_order(g) in (1, 2) for g in F.elements)
    Q8 = dicyclic_group(2)
    assert fitting_subgroup(Q8).order == 8  # nilpotent: Fitting is everything


def test_fitting_is_nilpotent_and_normal():
    for name, G in catalog_upto(24):
        F = fitting_subgroup(G)
        assert F.is_normal()
        Fg, _ = F.as_group()
        assert is_nilpotent(Fg)


def test_semidirect_products():
    C2, C3 = cyclic_group(2), cyclic_group(3)
    # trivial action gives the direct product
    G, pr, sec = semidirect_product(C2, C2, [(0, 1), (0, 1)])
    V4 = direct_product(C2, C2)
    assert G.table == V4.table
    # inversion action gives S3
    G, pr, sec = semidirect_product(C3, C2, [(0, 1, 2), (0, 2, 1)])
    assert find_isomorphism(G, symmetric_group(3)) is not None
    assert all(pr(sec(h)) == h for h in range(2))
    # invalid action rejected
    with pytest.raises(ValueError):
        semidirect_product(C3, C2, [(0, 1, 2), (1, 0, 2)])  # not an automorphism


def _pairs_through_from_elements(A, B):
    """The direct product as built before its table came from index
    arithmetic: pair tuples multiplied through from_elements."""
    elements = [(a, b) for a in range(A.order) for b in range(B.order)]
    return from_elements(elements, lambda x, y: (A.table[x[0]][y[0]], B.table[x[1]][y[1]]))


def test_direct_product_table_matches_from_elements_on_catalog_pairs():
    small = catalog_upto(12)
    for (_, A), (_, B) in [(x, y) for x in small for y in small][::7]:
        assert direct_product(A, B).table == _pairs_through_from_elements(A, B).table


def test_products_past_the_synthesis_cap_raise():
    C80 = cyclic_group(80)
    message = f"order 6400 exceeds the synthesis cap {TABLE_SYNTHESIS_CAP}"
    with pytest.raises(ValueError) as exc:
        direct_product(C80, C80)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:
        semidirect_product(C80, C80, [tuple(range(80))] * 80)
    assert str(exc.value) == message
    with pytest.raises(ValueError) as exc:  # the action is checked first
        semidirect_product(C80, C80, [tuple(range(80))] * 79 + [tuple(range(1, 80)) + (0,)])
    assert str(exc.value) == "action values must be automorphisms of N"


def test_semidirect_v4_s3_is_s4():
    from skewgalois.groups import conjugation_action

    S4 = symmetric_group(4)
    V4 = fitting_subgroup(S4)
    H = next(h for h in S4.all_subgroups() if h.order == 6)
    Ng, _ = V4.as_group()
    Hg, _ = H.as_group()
    action = conjugation_action(S4, V4, H)
    G, _, _ = semidirect_product(Ng, Hg, action)
    assert find_isomorphism(G, S4) is not None


def test_shafarevich_step_examples():
    S3 = symmetric_group(3)
    st = shafarevich_step(S3)
    assert st.N.order == 3 and st.Gp.order == 2
    assert st.phi.is_surjective() and st.phi.kernel().order == 1
    S4 = symmetric_group(4)
    st4 = shafarevich_step(S4)
    assert st4.N.order == 4 and st4.Gp.order == 6
    assert st4.phi.is_surjective()
    Q8 = dicyclic_group(2)
    stq = shafarevich_step(Q8)
    assert stq.N.order == 8 and stq.Gp.order == 1
    with pytest.raises(ValueError):
        shafarevich_step(cyclic_group(1))
    with pytest.raises(ValueError):
        shafarevich_step(symmetric_group(5))


def test_tower_examples():
    assert len(solvable_tower(cyclic_group(5))) == 1
    assert len(solvable_tower(symmetric_group(3))) == 2
    assert len(solvable_tower(symmetric_group(4))) == 3
    # length bound
    import math

    for name, G in catalog_upto(24):
        steps = solvable_tower(G)
        if G.order > 1:
            assert len(steps) <= math.log2(G.order) + 1e-9


def test_tower_steps_verify():
    for name, G in [("S4", symmetric_group(4)), ("Dic3", dicyclic_group(3)),
                    ("C2xA4", direct_product(cyclic_group(2), alternating_group(4)))]:
        for step in solvable_tower(G):
            Ng, _ = step.N.as_group()
            assert is_nilpotent(Ng)
            assert step.phi.is_surjective()
            assert step.N.is_normal()
            # product set N * G' covers the group
            prods = {step.group.table[a][b] for a in step.N.elements for b in step.Gp.elements}
            assert len(prods) == step.group.order


def test_synthesis_order_cap():
    # S8 would have order 40320, beyond the synthesis cap
    with pytest.raises(ValueError, match="cap"):
        from_permutations([[[0, 1]], [list(range(8))]])


def test_from_permutations_and_json():
    S3 = from_permutations([[[0, 1]], [[0, 1, 2]]])
    assert S3.order == 6
    data = S3.to_json()
    S3b = group_from_json(data)
    assert S3b.table == S3.table
    S3c = group_from_json({"perm_gens": [[[0, 1]], [[0, 1, 2]]]})
    assert find_isomorphism(S3, S3c) is not None


def test_from_permutations_cost_does_not_grow_with_point_labels():
    t0 = time.perf_counter()
    G = group_from_json({"perm_gens": [[[0, 10**9]]]})
    assert G.order == 2
    assert time.perf_counter() - t0 < 1.0
    assert G.perm_gens == [[[0, 10**9]]]  # kept as given


def test_from_permutations_sparse_labels_give_the_same_table():
    # relabeling the points by an increasing map keeps the element order
    sparse = from_permutations([[[0, 50]], [[50, 90, 20]], [[7, 1000]]])
    dense = from_permutations([[[0, 3]], [[3, 4, 2]], [[1, 5]]])
    assert sparse.order == dense.order == 48  # S4 x C2
    assert sparse.table == dense.table


def test_group_hom_validation():
    C4, C2 = cyclic_group(4), cyclic_group(2)
    h = GroupHom(C4, C2, [0, 1, 0, 1])
    assert h.is_surjective() and not h.is_injective()
    assert h.kernel().order == 2
    with pytest.raises(ValueError):
        GroupHom(C4, C2, [0, 1, 1, 0])  # not a homomorphism


def test_find_isomorphism_distinguishes():
    assert find_isomorphism(dicyclic_group(2), dihedral_group(4)) is None  # Q8 vs D4
    assert find_isomorphism(cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))) is None
    iso = find_isomorphism(symmetric_group(3), dihedral_group(3))
    assert iso is not None
    D3, S3 = dihedral_group(3), symmetric_group(3)
    for a in range(6):
        for b in range(6):
            assert iso[S3.table[a][b]] == D3.table[iso[a]][iso[b]]


def test_catalog_shape():
    cat = catalog()
    orders = {}
    for name, G in cat:
        orders.setdefault(G.order, 0)
        orders[G.order] += 1
    # complete listings at the small orders
    assert orders[8] == 5 and orders[12] == 5 and orders[18] == 5 and orders[20] == 5
    names = [n for n, _ in cat]
    assert len(set(names)) == len(names)
    # no two catalog entries of equal order are isomorphic (spot check small)
    for order in (8, 12):
        same = [G for _, G in cat if G.order == order]
        for i in range(len(same)):
            for j in range(i + 1, len(same)):
                assert find_isomorphism(same[i], same[j]) is None


def _reference_subgroups(G, max_gens):
    """The pair and triple loops that all_subgroups ran before the
    cyclic-extension scan, kept as the oracle for it."""
    found = {(0,)}
    singles = []
    for g in range(1, G.order):
        c = G.closure([g])
        singles.append(c)
        found.add(c)
    pair_closure = {}
    if max_gens >= 2:
        for g, h in combinations(range(1, G.order), 2):
            if h in set(singles[g - 1]):
                pair_closure[(g, h)] = singles[g - 1]
                continue
            c = G.closure([g, h])
            pair_closure[(g, h)] = c
            found.add(c)
    if max_gens >= 3:
        for (g, h), base_t in pair_closure.items():
            base = set(base_t)
            for k in range(h + 1, G.order):
                if k not in base:
                    found.add(G.closure(base | {k}))
    return sorted(found, key=lambda t: (len(t), t))


def _scan_groups():
    named = dict(catalog())
    yield "S4xC2", direct_product(symmetric_group(4), cyclic_group(2))
    yield "S3xS3", direct_product(symmetric_group(3), symmetric_group(3))
    for name in ("C2xC2xC2xC2", "C4xC4", "C2xD4", "Q16", "S4", "SL(2,3)", "C2xA4",
                 "D(C3xC3)", "SD16"):
        yield name, named[name]


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in _scan_groups()])
def test_all_subgroups_matches_pair_and_triple_loops(G):
    for m in (1, 2, 3):
        assert [H.elements for H in G.all_subgroups(m)] == _reference_subgroups(G, m), m


def test_all_subgroups_stops_at_max_gens():
    # C2^4 needs four generators, so only max_gens >= 4 reaches the whole group
    G = dict(catalog())["C2xC2xC2xC2"]
    full = tuple(range(16))
    assert full not in {H.elements for H in G.all_subgroups(3)}
    assert full in {H.elements for H in G.all_subgroups(4)}
    assert len(G.all_subgroups(4)) == len(G.all_subgroups(3)) + 1


def _reduced_latin_squares(n):
    """Every n x n Latin square over 0..n-1 whose first row and first
    column are 0, 1, ..., n-1."""
    sq = [list(range(n))] + [[i] + [0] * (n - 1) for i in range(1, n)]
    row_used = [{i} for i in range(n)]
    col_used = [{j} for j in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in sq]
            return
        i, j = cells[k]
        for v in range(n):
            if v not in row_used[i] and v not in col_used[j]:
                sq[i][j] = v
                row_used[i].add(v)
                col_used[j].add(v)
                yield from fill(k + 1)
                row_used[i].discard(v)
                col_used[j].discard(v)

    yield from fill(0)


def _brute_associative(T):
    n = len(T)
    return all(T[T[a][b]][c] == T[a][T[b][c]] for a in range(n) for b in range(n) for c in range(n))


def test_light_test_agrees_with_brute_force_on_all_small_latin_squares():
    reduced_counts = {1: 1, 2: 1, 3: 1, 4: 4, 5: 56, 6: 9408}  # OEIS A000315
    for n, expected in reduced_counts.items():
        count = accepted = 0
        for sq in _reduced_latin_squares(n):
            count += 1
            try:
                FiniteGroup(sq)
                ok = True
            except ValueError as exc:
                assert str(exc) == "table is not associative"
                ok = False
            assert ok == _brute_associative(sq), sq
            accepted += ok
        assert count == expected, n
        assert accepted >= 1


def test_s4_x_s3_tower_completes_with_surjective_steps():
    G = from_permutations([[[0, 1]], [[0, 1, 2, 3]], [[4, 5]], [[4, 5, 6]]])
    assert G.order == 144
    steps = solvable_tower(G)
    assert steps[-1].Gp.order == 1
    for step in steps:
        assert step.phi.is_surjective()
        assert step.phi.codomain.order == step.group.order


# -- the supplement search of shafarevich_step ---------------------------------

S3_GENS = [[[0, 1]], [[0, 1, 2]]]


def _s3_power_gens(k):
    """Permutation generators of S3^k, one S3 on each block of three points."""
    return [[[v + 3 * i for v in cyc] for cyc in g] for i in range(k) for g in S3_GENS]


def _reference_supplement(G, N):
    """The rule shafarevich_step applied before the lift search, over every
    subgroup: the first proper H, in (order, elements) order, with N*H = G.
    A subgroup of a group of order n needs at most log2(n) generators."""
    for H in G.all_subgroups(max_gens=G.order.bit_length()):
        if H.order < G.order and len({G.table[a][b] for a in N.elements for b in H.elements}) == G.order:
            return H.elements
    return None


def _solvable_non_nilpotent_catalog():
    return [(name, G) for name, G in catalog() if is_solvable(G) and not is_nilpotent(G)]


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in _solvable_non_nilpotent_catalog()])
def test_supplement_matches_the_full_subgroup_scan_on_the_catalog(G):
    step = shafarevich_step(G)
    assert step.Gp.elements == _reference_supplement(G, step.N)


def test_supplement_matches_the_full_subgroup_scan_when_the_quotient_needs_three_generators():
    # S3^3 x C2: N = C3^3 x C2 and G/N = C2^3, so |N| and |G:N| share 2
    G = from_permutations(_s3_power_gens(3) + [[[9, 10]]])
    assert G.order == 432
    step = shafarevich_step(G)
    assert step.N.order == 54 and step.Gp.order == 8
    assert step.Gp.elements == _reference_supplement(G, step.N)


def test_s3_fourth_power_tower_through_the_cli():
    gens = _s3_power_gens(4)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["tower", "--group", json.dumps({"perm_gens": gens})])
    assert time.perf_counter() - t0 < 10.0
    assert code == 0, err.getvalue()
    out = out.getvalue()
    steps = json.loads(out)["steps"]
    assert [s["group_order"] for s in steps] == [1296, 16]
    for s in steps:
        assert sorted(set(s["phi"])) == list(range(s["group_order"]))  # phi is onto
    # G' of the first step: the lex-least N-conjugate of a Sylow 2-subgroup
    G = from_permutations(gens)
    P = sylow_subgroup(G, 2)
    conjugates = {tuple(sorted(G.conj(n, x) for x in P.elements)) for n in steps[0]["N"]}
    assert tuple(steps[0]["Gp"]) == min(conjugates)


def test_shafarevich_step_never_scans_all_subgroups(monkeypatch):
    def refuse(self, max_gens=3):
        raise AssertionError("all_subgroups called")

    monkeypatch.setattr(FiniteGroup, "all_subgroups", refuse)
    groups = [G for _, G in _solvable_non_nilpotent_catalog()]
    groups.append(from_permutations(_s3_power_gens(2) + [[[6, 7]]]))
    for G in groups:
        assert solvable_tower(G)[-1].Gp.order == 1
