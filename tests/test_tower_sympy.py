"""The reduction tower of permutation groups against sympy's permutation
groups, an implementation that shares no code with the library.

The oracle rebuilds each group's element list from its generators by the
rule from_permutations documents (the points that occur relabelled
0..m-1 in increasing order, the elements as image tuples sorted
lexicographically), so index i of the library's table is the permutation
elements[i].  Each tower step is then checked on permutations alone: N is
a normal nilpotent subgroup of G, G' a subgroup of the stated order,
|N| |G'| = |G| |N meet G'| with |N meet G'| the stated kernel order, and
phi[i |G'| + j] = N[i] G'[j] with (a g)(x) = a(g(x)).  The next step's
group is G', its index i the permutation G'[i].  Skipped without sympy.
"""

import json
import random
import runpy
from pathlib import Path

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from skewgalois.groups import (  # noqa: E402
    ReductionStep, Subgroup, from_permutations, is_solvable, solvable_tower,
)

Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup

ROOT = Path(__file__).resolve().parent.parent


def _mul(a, b):
    """The product a b of image tuples: (a b)(x) = a(b(x))."""
    return tuple(a[x] for x in b)


def _elements(gen_cycles):
    """The elements of the group generated by gen_cycles, as image tuples on
    the relabelled points, sorted, and the generators in the same form."""
    points = sorted({v for g in gen_cycles for cyc in g for v in cyc})
    label = {v: i for i, v in enumerate(points)}
    gens = []
    for g in gen_cycles:
        img = list(range(len(points)))
        for cyc in g:
            for v, w in zip(cyc, cyc[1:] + cyc[:1]):
                img[label[v]] = label[w]
        gens.append(tuple(img))
    identity = tuple(range(len(points)))
    found, frontier = {identity}, [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _mul(a, g)
                if b not in found:
                    found.add(b)
                    nxt.append(b)
        frontier = nxt
    return sorted(found), gens


def _sympy_group(perms):
    """The sympy group of perms, asserting that they form a subgroup: a
    group holding every one of them, of order len(perms)."""
    H = PermutationGroup([Permutation(list(perms[0]))])
    for p in perms:
        q = Permutation(list(p))
        if not H.contains(q):
            H = PermutationGroup(list(H.generators) + [q])
    assert H.order() == len(set(perms)) == len(perms), "not a subgroup"
    return H


def check_step(step, elements, G):
    """Assert one tower step on permutations: elements[i] is the library's
    index i of step.group, and G is their sympy group.  Returns the
    permutations of G' in its element order, which index the next step's
    group."""
    N = [elements[i] for i in step.N.elements]
    Gp = [elements[j] for j in step.Gp.elements]
    assert step.group.order == len(elements) == G.order()
    N_sym = _sympy_group(N)
    assert N_sym.is_normal(G) and N_sym.is_nilpotent, "N is not normal and nilpotent"
    assert _sympy_group(Gp).order() == step.Gp.order
    kernel = len(set(N) & set(Gp))
    assert step.kernel_order() == kernel
    assert len(N) * len(Gp) == len(elements) * kernel
    assert len(step.phi) == len(N) * len(Gp)
    for i, n in enumerate(N):
        for j, h in enumerate(Gp):
            assert elements[step.phi[i * len(Gp) + j]] == _mul(n, h), "phi(n, h) is not n h"
    return Gp


def check_tower(gen_cycles):
    """Check every step of the tower of the group gen_cycles generate; the
    first group's table at the generators, every later one's in full."""
    elements, gens = _elements(gen_cycles)
    steps = solvable_tower(from_permutations(gen_cycles))
    table, pos = steps[0].group.table, {e: i for i, e in enumerate(elements)}
    for g in gens:
        assert all(elements[table[i][pos[g]]] == _mul(a, g) for i, a in enumerate(elements))
    G = PermutationGroup([Permutation(list(g)) for g in gens])
    for k, step in enumerate(steps):
        if k:
            assert step.group.table == tuple(
                tuple(pos[_mul(a, b)] for b in elements) for a in elements), "next group is not G'"
        elements = check_step(step, elements, G)
        G, pos = _sympy_group(elements), {e: i for i, e in enumerate(elements)}
    assert steps[-1].Gp.order == 1


def _tower_groups():
    jobs = runpy.run_path(str(ROOT / "perfbench" / "jobs.py"))
    groups = {**jobs["TOWER_GROUPS"], "S3xC3xC3": jobs["COLD_TOWER"]}
    with open(ROOT / "tests" / "data" / "tower_sha256.json", encoding="utf-8") as fh:
        for case in json.load(fh):
            if case["name"].startswith("S4 x S4"):
                groups[case["name"]] = case["group"]["perm_gens"]
    return groups


@pytest.mark.parametrize("gens", [pytest.param(g, id=name) for name, g in _tower_groups().items()])
def test_tower_steps_hold_on_permutations(gens):
    check_tower(gens)


def _random_gens(rng):
    """One to three permutations of at most 8 points drawn from 0..19, as
    cycle lists."""
    points = rng.sample(range(20), rng.randint(2, 8))
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(points, rng.randint(2, len(points)))
        image = dict(zip(support, rng.sample(support, len(support))))
        cycles, seen = [], set()
        for v in support:
            if v not in seen and image[v] != v:
                cyc = [v]
                while image[cyc[-1]] != v:
                    cyc.append(image[cyc[-1]])
                seen.update(cyc)
                cycles.append(cyc)
        gens.append(cycles)
    return gens


@pytest.mark.parametrize("seed", range(6))
def test_tower_of_random_permutation_groups(seed):
    # seeded generators on at most 8 points; the trivial group and groups
    # past order 576 are drawn again, so that the test stays small
    rng = random.Random(seed)
    checked = 0
    while checked < 6:
        gens = _random_gens(rng)
        elements, images = _elements(gens)
        if not 1 < len(elements) <= 576:
            continue
        checked += 1
        G = PermutationGroup([Permutation(list(g)) for g in images])
        group = from_permutations(gens)
        assert is_solvable(group) == G.is_solvable
        if G.is_solvable:
            check_tower(gens)
        else:
            with pytest.raises(ValueError):
                solvable_tower(group)


def test_the_oracle_refuses_a_tampered_step():
    # S3 x C3 x C3: N = C3^3 and G' = C2, so phi has two entries per n
    gens = [[[0, 1]], [[0, 1, 2]], [[3, 4, 5]], [[6, 7, 8]]]
    elements, images = _elements(gens)
    G = PermutationGroup([Permutation(list(g)) for g in images])
    step = solvable_tower(from_permutations(gens))[0]
    check_step(step, elements, G)
    dropped = ReductionStep(step.group, Subgroup(step.group, step.N.elements[:-1]), step.Gp,
                            step.phi, step.note)
    with pytest.raises(AssertionError):
        check_step(dropped, elements, G)
    phi = list(step.phi)
    phi[0], phi[1] = phi[1], phi[0]
    with pytest.raises(AssertionError):
        check_step(ReductionStep(step.group, step.N, step.Gp, tuple(phi), step.note), elements, G)
