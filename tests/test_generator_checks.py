"""Checks that run on a generating set against their exhaustive oracles:
GroupHom's homomorphism check (phi(a b) = phi(a) phi(b) for a in a
generating set of the domain) against all pairs, and Light's associativity
test against all triples.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from skewgalois.catalog import catalog  # noqa: E402
from skewgalois.groups import FiniteGroup, GroupHom, cyclic_group  # noqa: E402

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
