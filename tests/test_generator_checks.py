"""Checks that run on a generating set against their exhaustive oracles:
GroupHom's homomorphism check (phi(a b) = phi(a) phi(b) for a in a
generating set of the domain) against all pairs, Light's associativity
test against all triples, and semidirect_product's action check against
every value and every pair of H.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from skewgalois.catalog import catalog  # noqa: E402
from skewgalois.groups import (  # noqa: E402
    FiniteGroup,
    GroupHom,
    conjugation_action,
    cyclic_group,
    from_elements,
    semidirect_product,
)

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

GROUPS = [G for _, G in catalog()]
SMALL_GROUPS = [G for G in GROUPS if G.order <= 8]


def _is_hom_exhaustive(G, H, images):
    """phi(a b) = phi(a) phi(b) on every pair."""
    return all(images[G.table[a][b]] == H.table[images[a]][images[b]]
               for a in range(G.order) for b in range(G.order))


def _accepts(G, H, images):
    try:
        GroupHom(G, H, images)
    except ValueError as exc:
        assert str(exc) in ("map is not a homomorphism", "identity must map to identity")
        return False
    return True


def _power_map(G, g):
    """i -> g^i on the cyclic group of the order of g."""
    images, x = [], 0
    for _ in range(G.element_order(g)):
        images.append(x)
        x = G.table[x][g]
    return images


def _along_first_generator(draw, G, H):
    """A map with phi(g b) = phi(g) phi(b) for every b and the first
    generator g: random on representatives of the right cosets of <g>, and
    g^k r -> h^k phi(r) with h^ord(g) = 1.  It fails the homomorphism check
    only at the other generators, unless it is a homomorphism."""
    g = G.generators()[0]
    m = G.element_order(g)
    h = draw(st.sampled_from([y for y in range(H.order) if m % H.element_order(y) == 0]))
    images = [None] * G.order
    for r in range(G.order):
        if images[r] is None:
            x, y = r, 0 if r == 0 else draw(st.integers(0, H.order - 1))
            for _ in range(m):
                images[x] = y
                x, y = G.table[g][x], H.table[h][y]
    return images


@st.composite
def maps(draw):
    """(domain, codomain, images): a random map, one that is homomorphic
    along the first generator only, a homomorphism, or a homomorphism with
    one image changed."""
    G = draw(st.sampled_from(GROUPS))
    kind = draw(st.sampled_from(["random", "first generator", "hom", "changed"]))
    if kind == "random":
        H = draw(st.sampled_from(GROUPS))
        images = [0] + [draw(st.integers(0, H.order - 1)) for _ in range(G.order - 1)]
        return G, H, images
    if kind == "first generator" and G.order > 1:
        H = draw(st.sampled_from(GROUPS))
        return G, H, _along_first_generator(draw, G, H)
    shape = draw(st.sampled_from(["trivial", "inner", "power"]))
    g = draw(st.integers(0, G.order - 1))
    if shape == "trivial":
        H = draw(st.sampled_from(GROUPS))
        domain, codomain, images = G, H, [0] * G.order
    elif shape == "inner":  # x -> g x g^-1
        domain, codomain, images = G, G, [G.conj(g, x) for x in range(G.order)]
    else:  # C_ord(g) -> G, i -> g^i, followed by conjugation by h
        h = draw(st.integers(0, G.order - 1))
        domain, codomain = cyclic_group(G.element_order(g)), G
        images = [G.conj(h, x) for x in _power_map(G, g)]
    assert _is_hom_exhaustive(domain, codomain, images)
    if kind == "changed" and domain.order > 1:
        a = draw(st.integers(1, domain.order - 1))
        images[a] = draw(st.integers(0, codomain.order - 1).filter(lambda v: v != images[a]))
    return domain, codomain, images


@SETTINGS
@given(case=maps())
def test_generator_hom_check_agrees_with_all_pairs(case):
    G, H, images = case
    assert _accepts(G, H, images) == _is_hom_exhaustive(G, H, images)


def _random_latin_square(n, rng):
    """A Latin square over 0..n-1 with 0 as two-sided identity, filled row
    by row with values tried in random order (backtracking)."""
    sq = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(sq[i][:j]) | {sq[r][j] for r in range(i)}
        for v in rng.sample(range(n), n):
            if v not in used:
                sq[i][j] = v
                if fill(k + 1):
                    return True
        sq[i][j] = None
        return False

    assert fill(0)
    return sq


def _relabeled(G, rng):
    """G's table under a random relabeling that fixes the identity."""
    perm = [0] + rng.sample(range(1, G.order), G.order - 1)
    inv = {v: i for i, v in enumerate(perm)}
    return [[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)] for a in range(G.order)]


def _brute_associative(T):
    n = len(T)
    return all(T[T[a][b]][c] == T[a][T[b][c]] for a in range(n) for b in range(n) for c in range(n))


@SETTINGS
@given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1), from_group=st.booleans())
def test_light_test_agrees_with_brute_force_on_random_latin_squares(n, seed, from_group):
    rng = random.Random(seed)
    if from_group:  # an associative square of order up to 8
        sq = _relabeled(rng.choice(SMALL_GROUPS), rng)
    else:
        sq = _random_latin_square(n, rng)
    try:
        FiniteGroup(sq)
        accepted = True
    except ValueError as exc:
        assert str(exc) == "table is not associative"
        accepted = False
    assert accepted == _brute_associative(sq), sq


# -- semidirect_product's action check -------------------------------------------

AUT = "action values must be automorphisms of N"
HOM = "action is not a homomorphism into Aut(N)"
ONE = "identity of H must act trivially"


def _is_automorphism(N, perm):
    return all(perm[N.table[a][b]] == N.table[perm[a]][perm[b]]
               for a in range(N.order) for b in range(N.order))


def _reference_action_error(N, H, action):
    """The message of the first check the action fails, or None, as
    semidirect_product checked it on all values and all pairs of H."""
    if len(action) != H.order:
        return "action must assign a permutation to every H element"
    for perm in action:
        perm = tuple(perm)
        # the permutation test first, so an empty value fails it rather
        # than raising IndexError
        if sorted(perm) != list(range(N.order)) or perm[0] != 0 or not _is_automorphism(N, perm):
            return AUT
    if tuple(action[0]) != tuple(range(N.order)):
        return ONE
    for h1 in range(H.order):
        for h2 in range(H.order):
            composed = tuple(action[h1][action[h2][x]] for x in range(N.order))
            if composed != tuple(action[H.table[h1][h2]]):
                return HOM
    return None


def _reference_product(N, H, action):
    """Table, pr and sec images of N x| H built through from_elements."""
    elements = [(n, h) for n in range(N.order) for h in range(H.order)]

    def mult(x, y):
        return (N.table[x[0]][action[x[1]][y[0]]], H.table[x[1]][y[1]])

    G = from_elements(elements, mult)
    # from_elements puts the identity first and keeps the order of the rest
    ordered = [(0, 0)] + [e for e in elements if e != (0, 0)]
    pos = {e: i for i, e in enumerate(ordered)}
    return G.table, tuple(h for _, h in ordered), tuple(pos[(0, h)] for h in range(H.order))


def _conjugation_cases():
    """(N, H, action, G, N as a subgroup of G): H acting by conjugation on a
    normal N of the same catalog group, for every nontrivial normal N and
    every nontrivial subgroup H."""
    cases = []
    for G in (G for G in GROUPS if G.order <= 12):
        for N in G.all_normal_subgroups():
            for H in G.all_subgroups():
                if N.order > 1 and H.order > 1:
                    cases.append((N.as_group("N")[0], H.as_group("H")[0],
                                  conjugation_action(G, N, H), G, N))
    return cases


CONJUGATION_CASES = _conjugation_cases()
# N has a permutation fixing 0 that is no automorphism, and H an element
# that is neither 1 nor one of its generators
RICH_CASES = [c for c in CONJUGATION_CASES
              if c[0].order >= 4 and c[1].order > len(c[1].generators()) + 1]


def _along_first_generator_action(draw, N, H, action):
    """The action with the values on one right coset <g> r of the first
    generator g (r outside <g>) changed to action[g]^k alpha on g^k r, for
    alpha an automorphism or a permutation of N fixing 0.  It still has
    action[g h] = action[g] action[h] for every h, so only the other
    generators can catch the change."""
    g = H.generators()[0]
    outside = [r for r in range(H.order) if r not in H.closure([g])]
    if not outside:
        return action
    r = draw(st.sampled_from(outside))
    if draw(st.booleans()):
        alpha = draw(st.sampled_from(action))
    else:
        alpha = (0,) + tuple(draw(st.permutations(range(1, N.order))))
    action = list(action)
    x, value = r, alpha
    for _ in range(H.element_order(g)):
        action[x] = value
        x, value = H.table[g][x], tuple(action[g][v] for v in value)
    return action


@st.composite
def actions(draw):
    """(N, H, action): a conjugation action, that action with one value
    changed to another automorphism of N or to a permutation of N fixing 0,
    or with one value malformed."""
    cases = RICH_CASES if draw(st.booleans()) else CONJUGATION_CASES
    N, H, action, G, Nsub = draw(st.sampled_from(cases))
    action = list(action)
    kind = draw(st.sampled_from(["as is", "automorphism", "permutation", "malformed",
                                 "too few values", "first generator"]))
    if kind == "as is":
        return N, H, action
    if kind == "too few values":
        return N, H, action[:-1]
    if kind == "first generator":
        return N, H, _along_first_generator_action(draw, N, H, action)
    # mostly a value at an h outside the generating set, where only the
    # homomorphism check on generators can see the change
    others = [h for h in range(1, H.order) if h not in H.generators()]
    h = draw(st.sampled_from(others) if others and draw(st.booleans()) else st.integers(0, H.order - 1))
    n = N.order
    if kind == "automorphism":  # conjugation by any element of G, or a value at another h
        if draw(st.booleans()):
            action[h] = draw(st.sampled_from(action))
        else:
            g = draw(st.integers(0, G.order - 1))
            pos = {x: i for i, x in enumerate(Nsub.elements)}
            action[h] = tuple(pos[G.conj(g, x)] for x in Nsub.elements)
    elif kind == "permutation":
        action[h] = (0,) + tuple(draw(st.permutations(range(1, n))))
    else:
        perm = list(action[h])
        shape = draw(st.sampled_from(["short", "long", "out of range", "repeated"]))
        if shape == "long":
            perm.append(draw(st.integers(0, n)))
        elif shape == "out of range":
            perm[draw(st.integers(0, n - 1))] = draw(st.sampled_from([-1, n, n + 7]))
        elif shape == "repeated" and n > 1:
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            perm[i] = perm[j]
        else:  # short, or repeated with a single point
            perm.pop()
        action[h] = tuple(perm)
    return N, H, action


@SETTINGS
@given(case=actions())
def test_semidirect_action_check_agrees_with_all_pairs(case):
    N, H, action = case
    expected = _reference_action_error(N, H, action)
    try:
        G, pr, sec = semidirect_product(N, H, action)
    except ValueError as exc:
        assert expected is not None
        got = str(exc)
        if got != expected:
            # a non-automorphism at an h outside the generating set (and 1)
            # is caught by the homomorphism check on the generators
            assert expected == AUT and got in (HOM, ONE)
            assert all(_is_automorphism(N, action[h]) for h in (0, *H.generators()))
        return
    assert expected is None
    assert (G.table, pr.images, sec.images) == _reference_product(N, H, action)
