import io
import json
import os
import random
import runpy
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from functools import reduce
from itertools import chain, combinations
from pathlib import Path

import pytest
from group_oracles import check_reduction_step, check_subgroup, find_isomorphism

from skewgalois import cli
from skewgalois.catalog import catalog, catalog_upto
from skewgalois.groups import (
    TABLE_SYNTHESIS_CAP,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _bfs_closure,
    _derived_series_end,
    _greedy_generators,
    _irredundant,
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
    perm_from_cycles,
    semidirect_product,
    shafarevich_step,
    solvable_tower,
    symmetric_group,
    sylow_subgroup,
)
from skewgalois.selftest import _cyclic_quotient_epis
from skewgalois.zarith import factorize


def _swapped_intercalate(m, i, j):
    """The table of C2 x C_m (the pair (h, l) at index m h + l) with the 2 x 2
    Latin subsquare at rows (0, i), (1, i) and columns (0, j), (1, j)
    swapped: still a Latin square with identity 0, but not associative."""
    rows = [list(row) for row in direct_product(cyclic_group(2), cyclic_group(m)).table]
    for r, c in ((i, j), (i, m + j), (m + i, j), (m + i, m + j)):
        rows[r][c] = (rows[r][c] + m) % (2 * m)
    return rows


MALFORMED_TABLES = [
    ([], "a group has at least the identity"),
    ([[0, 1], [1]], "table is not square over element indices"),
    ([[0, 1], [1, 2]], "table is not square over element indices"),
    ([[0, -1], [1, 0]], "table is not square over element indices"),
    ([[0, 1], [1, 300]], "table is not square over element indices"),  # not a byte
    ([[0, 1], [1, 255]], "table is not square over element indices"),  # a byte, not an index
    ([[1, 0], [0, 1]], "index 0 must be a two-sided identity"),
    ([[0, 1, 2], [2, 0, 1], [1, 2, 0]], "index 0 must be a two-sided identity"),
    ([[0, 1], [1, 1]], "table rows must be permutations (Latin square)"),
    ([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 1, 0], [3, 0, 2, 1]],
     "table columns must be permutations (Latin square)"),
    # a non-associative Latin square with two-sided identity
    ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
     "table is not associative"),
    # Light's test on both sides of order 256, the largest whose indices fit
    # in a byte
    (_swapped_intercalate(128, 5, 9), "table is not associative"),
    (_swapped_intercalate(129, 5, 9), "table is not associative"),
]

# group tables on both sides of order 256, C2^8 and C257
BYTE_BOUND_TABLES = [("C2^8", [list(row) for row in reduce(direct_product, [cyclic_group(2)] * 8).table]),
                     ("C257", [list(row) for row in cyclic_group(257).table])]


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
        # inverses found in pairs: the same as a scan of every row for 0
        assert H.inv == tuple(row.index(0) for row in H.table)


def test_a_supplied_group_table_is_accepted_without_the_permutation_scan(monkeypatch):
    # the group axioms make a table a Latin square, so the row and column
    # scans run only to name a rejected table's fault
    from skewgalois import groups

    def refuse(rows):
        raise AssertionError("the permutation scan ran on a group table")

    monkeypatch.setattr(groups, "_check_latin_square", refuse)
    for name, rows in chain(_relabeled_catalog(25), BYTE_BOUND_TABLES):
        H = FiniteGroup(rows)
        assert H.inv == tuple(row.index(0) for row in rows), name
        greedy = _greedy_generators(rows, range(1, len(rows)))
        assert H.generators() == tuple(_irredundant(rows, greedy)), name


def _relabeled_catalog(seed):
    """(name, table) for each catalog group under a random relabeling that
    keeps the identity at 0."""
    rng = random.Random(seed)
    for name, G in catalog():
        n = G.order
        perm = [0] + rng.sample(range(1, n), n - 1)
        back = {v: i for i, v in enumerate(perm)}
        yield name, [[perm[G.table[back[a]][back[b]]] for b in range(n)] for a in range(n)]


def test_irredundant_keeps_a_generating_set_with_no_member_to_drop():
    dropped = 0
    for name, rows in _relabeled_catalog(34):
        n = len(rows)
        greedy = _greedy_generators(rows, range(1, n))
        kept = _irredundant(rows, greedy)
        assert kept == [g for g in greedy if g in kept], name  # a subset, in order
        assert len(_bfs_closure(rows, kept)) == n, name
        for g in kept:
            assert len(_bfs_closure(rows, [h for h in kept if h != g])) < n, (name, g)
        dropped += len(greedy) - len(kept)
    assert dropped > 0


def _c2_times_loop():
    """C2 x L for a non-associative loop L of order 5, the pair (h, l) at
    index 5 h + l.  Index 5 = (1, 0) lies in the middle nucleus, the a with
    (x a) y = x (a y) for all x, y, but does not generate the table."""
    L = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 1, 0], [3, 4, 0, 2, 1], [4, 2, 1, 0, 3]]
    return [[5 * ((a // 5 + b // 5) % 2) + L[a % 5][b % 5] for b in range(10)] for a in range(10)]


def _passes_light_test(rows, gens):
    return all(rows[rows[x][a]][y] == rows[x][rows[a][y]]
               for a in gens for x in range(len(rows)) for y in range(len(rows)))


def test_a_loop_whose_greedy_set_has_a_redundant_member_is_not_associative():
    rows = _c2_times_loop()
    greedy = _greedy_generators(rows, range(1, 10))
    assert greedy == [1, 2, 5] and _irredundant(rows, greedy) == [2, 5]
    # Light's test over a set that does not generate would accept the table
    assert _passes_light_test(rows, [5]) and len(_bfs_closure(rows, [5])) == 2
    with pytest.raises(ValueError) as exc:
        FiniteGroup(rows)
    assert str(exc.value) == "table is not associative"
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["decide", "--group", json.dumps({"table": rows}),
                        "--alpha", json.dumps({"map": [0] * 10}),
                        "--K", "2^2", "--L", "2^6", "--sigma", "1"])
    assert (code, out.getvalue()) == (cli.EXIT_DOMAIN, "")
    assert json.loads(err.getvalue()) == {"error": "ValueError", "message": "table is not associative"}


@pytest.mark.parametrize("row", [
    # x y = x for x, y >= 1: every candidate lies outside the reached set,
    # so each would be taken as a generator without the doubling stop
    pytest.param(lambda x, n: (x,) * n, id="left-projection"),
    # the same with x 1 = 0, so that every row holds the identity
    pytest.param(lambda x, n: (x, 0) + (x,) * (n - 2), id="left-projection-with-inverses"),
])
def test_a_table_that_is_not_a_group_is_rejected_in_log_many_closures(monkeypatch, row):
    from skewgalois import groups

    calls = 0
    closure = groups._bfs_closure

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return closure(*args, **kwargs)

    monkeypatch.setattr(groups, "_bfs_closure", counted)
    n = 2048
    table = [tuple(range(n))] + [row(x, n) for x in range(1, n)]
    with pytest.raises(ValueError) as exc:
        FiniteGroup(table)
    assert str(exc.value) == "table rows must be permutations (Latin square)"
    assert calls <= n.bit_length() + 1  # floor(log2 n) + 2


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
    derived_end = _brute_derived_closure(G)
    assert _derived_series_end(G) == derived_end
    assert is_nilpotent(G) == (_brute_lower_central_end(G) == (0,))
    assert is_solvable(G) == (derived_end == (0,))


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in _oracle_groups()])
def test_is_nilpotent_on_subgroups_matches_lower_central_oracle(G):
    # every subgroup, normal or not, read in G's own table against the
    # lower central series of its standalone table
    for H in G.all_subgroups(G.order.bit_length()):
        assert is_nilpotent(G, H.elements) == (_brute_lower_central_end(H.as_group()) == (0,)), H


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


def _p_core_groups():
    yield from catalog()
    yield "S4xS4xS3", from_permutations([[[0, 1]], [[0, 1, 2, 3]], [[4, 5]], [[4, 5, 6, 7]],
                                         [[8, 9]], [[8, 9, 10]]])


@pytest.mark.parametrize("G", [pytest.param(G, id=name) for name, G in _p_core_groups()])
def test_p_core_matches_conjugation_by_every_element(G):
    for p, _ in factorize(G.order) if G.order > 1 else ():
        P = sylow_subgroup(G, p).elements
        core = set(P)
        for g in range(G.order):
            core &= {G.conj(g, x) for x in P}
        assert p_core(G, p).elements == tuple(sorted(core)), p


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
        Fg = F.as_group()
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
    Ng = V4.as_group()
    Hg = H.as_group()
    action = conjugation_action(S4, V4, H)
    G, _, _ = semidirect_product(Ng, Hg, action)
    assert find_isomorphism(G, S4) is not None


def test_shafarevich_step_examples():
    S3 = symmetric_group(3)
    st = shafarevich_step(S3)
    assert st.N.order == 3 and st.Gp.order == 2 and st.kernel_order() == 1
    check_reduction_step(st)
    S4 = symmetric_group(4)
    st4 = shafarevich_step(S4)
    assert st4.N.order == 4 and st4.Gp.order == 6
    check_reduction_step(st4)
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
            assert is_nilpotent(step.N.as_group())
            check_reduction_step(step)
            assert step.N.is_normal()
            # product set N * G' covers the group
            prods = {step.group.table[a][b] for a in step.N.elements for b in step.Gp.elements}
            assert len(prods) == step.group.order


def test_synthesis_order_cap():
    # S8 would have order 40320, beyond the synthesis cap
    with pytest.raises(ValueError) as exc:
        from_permutations([[[0, 1]], [list(range(8))]])
    assert str(exc.value) == "generated group exceeds the synthesis cap"


S3_GENS = [[[0, 1]], [[0, 1, 2]]]


def _s3_power_gens(k):
    """Permutation generators of S3^k, one S3 on each block of three points."""
    return [[[v + 3 * i for v in cyc] for cyc in g] for i in range(k) for g in S3_GENS]


def _benchmark_tower_groups():
    """The permutation groups of the benchmark's tower jobs, by name."""
    jobs = runpy.run_path(str(Path(__file__).resolve().parent.parent / "perfbench" / "jobs.py"))
    return {**jobs["TOWER_GROUPS"], "S3xC3xC3": jobs["COLD_TOWER"]}


def _perm_compose(a, b):
    """The product a b of permutations held as tuples: (a b)(x) = a(b(x))."""
    return tuple(map(a.__getitem__, b))


def _perm_table_through_from_elements(gen_cycles):
    """The group of from_permutations built the plain way: close the
    relabeled generators under products on both sides, then table every
    pair of the sorted elements with from_elements."""
    points = sorted({v for g in gen_cycles for cyc in g for v in cyc})
    label = {v: i for i, v in enumerate(points)}
    gens = [perm_from_cycles([[label[v] for v in cyc] for cyc in g], len(points))
            for g in gen_cycles]
    elements = frontier = {tuple(range(len(points)))}
    while frontier:
        frontier = {h for a in frontier for g in gens
                    for h in (_perm_compose(a, g), _perm_compose(g, a))} - elements
        elements = elements | frontier
    return from_elements(sorted(elements), _perm_compose)


@pytest.mark.parametrize(
    "gens",
    [pytest.param(g, id=name) for name, g in _benchmark_tower_groups().items()]
    + [pytest.param([[[0, 1]], [[0, 1, 2]], [[3, 4, 5]], [[6, 7, 9]]], id="S3xC3xC3-sparse"),
       pytest.param(_s3_power_gens(4), id="S3^4"),
       # at and past both byte bounds: 256 or 257 points, order 256 or 258
       pytest.param([[list(range(256))]], id="C256-on-256-points"),
       pytest.param([[list(range(257))]], id="C257-on-257-points"),
       pytest.param([[[0, 1]], [list(range(2, 130))]], id="C2xC128"),
       pytest.param([[[0, 1]], [list(range(2, 131))]], id="C2xC129")],
)
def test_from_permutations_matches_from_elements(gens):
    # rows built as compositions of generator rows along a breadth-first
    # search give the table of every pair, in the same element order; the
    # elements are bytes up to 256 points and the rows up to order 256
    G = from_permutations(gens)
    assert G.table == _perm_table_through_from_elements(gens).table


def test_from_permutations_and_json():
    S3 = from_permutations([[[0, 1]], [[0, 1, 2]]])
    assert S3.order == 6
    data = S3.to_json()
    S3b = group_from_json(data)
    assert S3b.table == S3.table
    S3c = group_from_json({"perm_gens": [[[0, 1]], [[0, 1, 2]]]})
    assert find_isomorphism(S3, S3c) is not None


# every JSON value that is not an int, as json.loads gives it
JSON_NON_INTS = [True, False, 0.0, 1.0, "1", None, [], {}]
# group tables of order 3 (byte path), 256 (the largest on the byte path)
# and 257 (every entry's type read)
JSON_TABLES = [("C3", [list(row) for row in cyclic_group(3).table]), *BYTE_BOUND_TABLES]


def _json_table_faults(table):
    """(place, rows, (r, c)): a copy of table and the entry (r, c) to
    replace: in row 2 at its 0, its 1 and an entry of another value; in the
    identity row at 0, 1 and 2; and in row 2 turned into a row with two 1s
    (its 0 made 1), at its former 1 and at another entry."""
    row = table[2]
    zero, one, other = row.index(0), row.index(1), next(c for c, v in enumerate(row) if v > 1)
    places = {"zero": (2, zero), "one": (2, one), "other": (2, other),
              "identity-row-0": (0, 0), "identity-row-1": (0, 1), "identity-row-2": (0, 2),
              "two-ones-at-one": (2, one), "two-ones-at-other": (2, other)}
    for name, (r, c) in places.items():
        rows = [list(x) for x in table]
        if name.startswith("two-ones"):
            rows[2][zero] = 1
        yield name, rows, (r, c)


@pytest.mark.parametrize("value", JSON_NON_INTS, ids=json.dumps)
@pytest.mark.parametrize("name,table", JSON_TABLES, ids=[name for name, _ in JSON_TABLES])
def test_group_json_refuses_every_non_int_entry(name, table, value):
    # the byte conversion of tables up to order 256 reads the types of the
    # 0 and 1 entries only; True and False equal 1 and 0, and 1.0 equals 1,
    # so each must still be refused with the message of the full type read
    for place, rows, (r, c) in _json_table_faults(table):
        rows[r][c] = value
        with pytest.raises(ValueError) as exc:
            group_from_json({"table": rows})
        assert str(exc.value) == "'table' must be a list of integer rows", (place, exc.value)


@pytest.mark.parametrize("name,table", JSON_TABLES, ids=[name for name, _ in JSON_TABLES])
def test_group_json_reads_the_types_of_the_0_and_1_entries_up_to_order_256(monkeypatch, name, table):
    # a group table of order <= 256 is converted to bytes once, and only its
    # 2 |G| entries of value 0 or 1 have their types read; past 256 all |G|^2
    from skewgalois import groups

    read, converted = [], []
    all_ints, square_rows = groups.all_ints, groups._square_rows

    def read_types(values):
        values = list(values)
        read.extend(values)
        return all_ints(values)

    def check_square(rows, brows=None):
        converted.append(brows)
        return square_rows(rows, brows)

    monkeypatch.setattr(groups, "all_ints", read_types)
    monkeypatch.setattr(groups, "_square_rows", check_square)
    G = group_from_json({"table": table})
    assert G.table == tuple(map(tuple, table)) and {type(v) for row in G.table for v in row} == {int}
    n = len(table)
    assert len(read) == (2 * n if n <= 256 else n * n)
    assert converted == [list(map(bytes, table)) if n <= 256 else None]


def test_from_permutations_cost_does_not_grow_with_point_labels():
    t0 = time.perf_counter()
    G = group_from_json({"perm_gens": [[[0, 10**9]]]})
    assert G.order == 2
    assert time.perf_counter() - t0 < 1.0


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
        check_reduction_step(step)


# -- the supplement search of shafarevich_step ---------------------------------

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


S4_S4_GENS = [[[0, 1]], [[0, 1, 2, 3]], [[4, 5]], [[4, 5, 6, 7]]]


@pytest.mark.parametrize("gens,closures", [
    pytest.param(S4_S4_GENS + [[[8, 9]], [[8, 9, 10]]], 7944, id="S4xS4xS3"),
    pytest.param(S4_S4_GENS + [[[8, 9]], [[10, 11]], [[12, 13]]], 12537, id="S4xS4xC2^3"),
])
def test_tower_closure_count_stays_at_its_guard(monkeypatch, gens, closures):
    # the supplement search lifts an irredundant generating set of G/N,
    # taken by descending element order; lifting a greedy generating set
    # of G modulo N, in index order, took these towers 51,744 and 413,971
    from skewgalois import groups

    calls = 0
    closure = groups._bfs_closure

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return closure(*args, **kwargs)

    G = from_permutations(gens)
    monkeypatch.setattr(groups, "_bfs_closure", counted)
    assert solvable_tower(G)[-1].Gp.order == 1
    assert calls <= closures


def test_shafarevich_step_never_scans_all_subgroups(monkeypatch):
    def refuse(self, max_gens=3):
        raise AssertionError("all_subgroups called")

    monkeypatch.setattr(FiniteGroup, "all_subgroups", refuse)
    groups = [G for _, G in _solvable_non_nilpotent_catalog()]
    groups.append(from_permutations(_s3_power_gens(2) + [[[6, 7]]]))
    for G in groups:
        assert solvable_tower(G)[-1].Gp.order == 1


def test_every_catalog_tower_step_passes_the_materialized_check():
    for _, G in catalog():
        if is_solvable(G):
            for step in solvable_tower(G):
                check_reduction_step(step)


def test_every_subgroup_the_library_returns_passes_the_oracle():
    # a Subgroup is a handle that checks nothing, so each construction is
    # checked here against the parent's table
    for _, G in catalog():
        primes = [p for p, _ in factorize(G.order)] if G.order > 1 else []
        check_subgroup(fitting_subgroup(G))
        for p in primes:
            check_subgroup(p_core(G, p))
            check_subgroup(sylow_subgroup(G, p))
        for N in G.all_normal_subgroups():
            check_subgroup(N)
        if is_solvable(G):
            for step in solvable_tower(G):
                check_subgroup(step.N)
                check_subgroup(step.Gp)
    for _, G in catalog_upto(16):  # the epimorphisms of selftest criterion 5
        for e, images, N in _cyclic_quotient_epis(G):
            kernel = GroupHom(G, cyclic_group(e), images).kernel()
            check_subgroup(kernel)
            assert kernel.elements == N.elements


def test_subgroup_reads_nothing_of_its_parent():
    G = symmetric_group(4)
    G.table = G.inv = None
    assert Subgroup(G, tuple(range(24))).order == 24


def _two_sided_closure(G, gens):
    elems = {0, *gens}
    while True:
        more = {G.table[a][b] for a in elems for b in elems} - elems
        if not more:
            return elems
        elems |= more


@pytest.mark.parametrize("G", [
    pytest.param(symmetric_group(4), id="S4"),
    pytest.param(direct_product(symmetric_group(3), symmetric_group(3)), id="S3xS3"),
])
def test_closure_reads_one_entry_per_element_and_generator(G):
    # right products only: each reached element's row is read once per
    # generator, and never a generator's row at that element
    reads = 0

    class CountingRow(tuple):
        def __getitem__(self, i):
            nonlocal reads
            reads += 1
            return tuple.__getitem__(self, i)

    table = [CountingRow(row) for row in G.table]
    for k in (1, 2):
        for gens in combinations(range(1, G.order), k):
            reads = 0
            reached = _bfs_closure(table, gens)
            assert reached == _two_sided_closure(G, gens), gens
            assert reads == len(reached) * len(gens), gens


def test_the_tower_builds_no_semidirect_product(monkeypatch):
    # phi is read off as an image list; N x| G' exists only in the oracles
    from skewgalois import groups

    solvable = [G for _, G in catalog() if is_solvable(G) and G.order > 1]

    def refuse(*args, **kwargs):
        raise AssertionError("the tower built N x| G' or a homomorphism on it")

    for name in ("semidirect_product", "_pair_table", "GroupHom"):
        monkeypatch.setattr(groups, name, refuse)
    for G in solvable:
        assert solvable_tower(G)[-1].Gp.order == 1


@pytest.mark.parametrize("gens,bound_mb", [
    pytest.param(_s3_power_gens(4), 64, id="S3^4-64MB"),
    pytest.param(_s3_power_gens(4) + [[[12, 13]]], 100, id="S3^4xC2-100MB"),
])
def test_tower_peak_rss_stays_under_its_bound(gens, bound_mb):
    # building N x| G' took S3^4 to 96 MB, and holding each table twice
    # took it to 43 MB and S3^4 x C2 to 125 MB.  A child's ru_maxrss starts
    # at the peak of the process that spawned it, so the tower runs as the
    # child of a fresh interpreter, not of the test process, which reads it.
    tower = ("from skewgalois.groups import from_permutations, solvable_tower\n"
             f"solvable_tower(from_permutations({gens!r}))\n")
    launcher = ("import resource, subprocess, sys\n"
                "subprocess.run([sys.executable, '-c', sys.argv[1]], check=True)\n"
                "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", launcher, tower], capture_output=True,
                          text=True, env=env, check=True)
    peak_bytes = int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)
    assert peak_bytes < bound_mb * 2**20
