import math
import random
from collections import Counter

import pytest
from ore_reference import RawRing
from tuple_field import TupleField, divmod_poly

from skewgalois import orepoly
from skewgalois.ffield import (
    FqField,
    RowSteps,
    _LogField,
    _PackedField,
    embed_subfield,
    frobenius,
    make_field,
)
from skewgalois.modpoly import _ACC_TERMS
from skewgalois.orepoly import (
    OrePoly,
    OreRing,
    _from_ints,
    _mul,
    anti_involution,
    induced_ring_aut,
    ore_left_divmod,
    ore_left_lcm,
    ore_mul,
    ore_poly_from_json,
    ore_right_divmod,
    ore_right_gcd,
    ore_witness,
)


def ring_f4():
    F4 = make_field(2, 2)
    return F4, OreRing(F4, frobenius(F4, 1))


def rand_poly(ring, rng, max_deg=4):
    d = rng.randrange(max_deg + 1)
    return ring.poly(
        [ring.base.from_index(rng.randrange(ring.base.order)) for _ in range(d + 1)]
    )


def test_defining_relation():
    F4, R = ring_f4()
    w = F4.gen()
    # T * w = w^2 T, forced by the twisted multiplication rule
    assert ore_mul(R.T(), R.scalar(w)) == R.poly([0, w * w])


def test_mul_hand_examples():
    F4, R = ring_f4()
    w = F4.gen()
    wT = R.poly([0, w])
    # (wT)(wT) = w * frob(w) * T^2 = w^3 T^2 = T^2
    assert ore_mul(wT, wT) == R.poly([0, 0, 1])
    # (T+1)(T+w) = T^2 + wT + w
    assert ore_mul(R.poly([1, 1]), R.poly([w, 1])) == R.poly([w, w, 1])


def test_mul_against_bruteforce_convolution():
    F4, R = ring_f4()
    fr = R.twist
    rng = random.Random(0)
    for _ in range(300):
        f, g = rand_poly(R, rng), rand_poly(R, rng)
        prod = ore_mul(f, g)
        if f.is_zero() or g.is_zero():
            assert prod.is_zero()
            continue
        out = [F4.zero()] * (f.degree + g.degree + 1)
        for i, a in enumerate(f.coeffs):
            for j, b in enumerate(g.coeffs):
                t = b
                for _ in range(i):
                    t = fr(t)
                out[i + j] = out[i + j] + a * t
        assert list(prod.coeffs) + [F4.zero()] * (len(out) - len(prod.coeffs)) == out


def test_ring_laws_random():
    for p, n, k in ((2, 2, 1), (3, 2, 1), (2, 4, 2), (5, 2, 0)):
        F = make_field(p, n)
        R = OreRing(F, frobenius(F, k))
        rng = random.Random(100 * p + n)
        for _ in range(150):
            f, g, h = (rand_poly(R, rng, 3) for _ in range(3))
            assert ore_mul(ore_mul(f, g), h) == ore_mul(f, ore_mul(g, h))
            assert ore_mul(f, g + h) == ore_mul(f, g) + ore_mul(f, h)
            assert ore_mul(f + g, h) == ore_mul(f, h) + ore_mul(g, h)
            assert ore_mul(R.one(), f) == f and ore_mul(f, R.one()) == f
            if not f.is_zero() and not g.is_zero():
                assert ore_mul(f, g).degree == f.degree + g.degree


def test_twist_law_exhaustive_over_base():
    # T * a = tau(a) * T for every base element, every twist
    for p, n in ((2, 2), (2, 4), (3, 3), (5, 2)):
        F = make_field(p, n)
        for k in range(n):
            R = OreRing(F, frobenius(F, k))
            tau, T = R.twist, R.T()
            for a in F.elements():
                assert ore_mul(T, R.scalar(a)) == R.poly([F.zero(), tau(a)])


def test_commutative_iff_untwisted():
    F4, R = ring_f4()
    # twisted: a concrete non-commuting pair exists
    w = F4.gen()
    a, b = R.T(), R.scalar(w)
    assert ore_mul(a, b) != ore_mul(b, a)
    # untwisted: commutes on a random sample
    R0 = OreRing(F4, frobenius(F4, 0))
    rng = random.Random(1)
    for _ in range(100):
        f, g = rand_poly(R0, rng), rand_poly(R0, rng)
        assert ore_mul(f, g) == ore_mul(g, f)


def test_noncommutativity_witness_for_every_nonidentity_twist():
    for p, n in ((2, 2), (2, 4), (3, 3), (5, 2)):
        F = make_field(p, n)
        for k in range(1, n):
            R = OreRing(F, frobenius(F, k))
            found = False
            for a in F.elements():
                T, s = R.T(), R.scalar(a)
                if ore_mul(T, s) != ore_mul(s, T):
                    found = True
                    break
            assert found, (p, n, k)


def test_right_divmod_examples():
    F4, R = ring_f4()
    w = F4.gen()
    q, r = ore_right_divmod(R.poly([0, 0, 1]), R.T())
    assert q == R.T() and r.is_zero()
    f = R.poly([w, 1, w])
    q, r = ore_right_divmod(f, R.one())
    assert q == f and r.is_zero()
    # inverse of the multiplication example
    q, r = ore_right_divmod(R.poly([w, w, 1]), R.poly([w, 1]))
    assert q == R.poly([1, 1]) and r.is_zero()


def test_right_divmod_roundtrip_and_uniqueness():
    F4, R = ring_f4()
    rng = random.Random(2)
    for _ in range(400):
        f, g = rand_poly(R, rng, 6), rand_poly(R, rng, 3)
        if g.is_zero():
            with pytest.raises(ZeroDivisionError):
                ore_right_divmod(f, g)
            continue
        q, r = ore_right_divmod(f, g)
        assert r.degree < g.degree
        assert ore_mul(q, g) + r == f
        # perturbing the quotient breaks the degree bound or the identity
        if not q.is_zero():
            q2 = q + R.one()
            r2 = f - ore_mul(q2, g)
            assert (q2, r2) != (q, r)
            assert r2.degree >= g.degree or ore_mul(q2, g) + r2 != f or r2 != r


def test_left_divmod_roundtrip():
    F4, R = ring_f4()
    rng = random.Random(3)
    for _ in range(200):
        f, g = rand_poly(R, rng, 6), rand_poly(R, rng, 3)
        if g.is_zero():
            continue
        q, r = ore_left_divmod(f, g)
        assert r.degree < g.degree
        assert ore_mul(g, q) + r == f


@pytest.mark.parametrize("k", [1, 19])
def test_division_and_witness_past_the_table_limit(k):
    # F_2^20 has no element tables: the twist is the cached linear Frobenius
    F = make_field(2, 20)
    R = OreRing(F, frobenius(F, k))
    rng = random.Random(20 + k)
    a = F.element([rng.randrange(2) for _ in range(20)])
    # defining relation, with the twist recomputed by square-and-multiply
    assert ore_mul(R.T(), R.scalar(a)) == R.poly([0, TupleField(F).pow(a.coeffs, 2**k)])
    for _ in range(4):
        f, g = rand_poly(R, rng, 7), rand_poly(R, rng, 3)
        if g.is_zero():
            continue
        q, r = ore_right_divmod(f, g)
        assert r.degree < g.degree and ore_mul(q, g) + r == f
        q, r = ore_left_divmod(f, g)
        assert r.degree < g.degree and ore_mul(g, q) + r == f
        if not f.is_zero():
            u, v = ore_witness(f, g)
            prod = ore_mul(f, u)
            assert prod == ore_mul(g, v) and not prod.is_zero()


def test_gcd_examples():
    F4, R = ring_f4()
    w = F4.gen()
    assert ore_right_gcd(R.poly([0, 0, 1]), R.T()) == R.T()
    f = R.poly([w, 1])
    assert ore_right_gcd(f, R.zero()) == f.monic()
    with pytest.raises(ValueError):
        ore_right_gcd(R.zero(), R.zero())


def test_gcd_divides_on_the_right():
    F4, R = ring_f4()
    rng = random.Random(4)
    for _ in range(200):
        f, g = rand_poly(R, rng, 4), rand_poly(R, rng, 4)
        if f.is_zero() and g.is_zero():
            continue
        d = ore_right_gcd(f, g)
        for h in (f, g):
            if not h.is_zero():
                assert ore_right_divmod(h, d).remainder.is_zero()


def test_lcm_degree_relation_and_unit_example():
    F4, R = ring_f4()
    w = F4.gen()
    assert ore_left_lcm(R.T(), R.scalar(w)) == R.T()  # unit second argument
    rng = random.Random(5)
    for _ in range(200):
        f, g = rand_poly(R, rng, 3), rand_poly(R, rng, 3)
        if f.is_zero() or g.is_zero():
            continue
        m = ore_left_lcm(f, g)
        d = ore_right_gcd(f, g)
        assert m.degree == f.degree + g.degree - d.degree
        # m is a common left multiple: m = u f = v g exactly
        assert ore_right_divmod(m, f).remainder.is_zero()
        assert ore_right_divmod(m, g).remainder.is_zero()


def test_ore_witness_examples():
    F4, R = ring_f4()
    w = F4.gen()
    # T * w = w^2 T = w * (w T): the book pair checks by multiplication
    assert ore_mul(R.T(), R.scalar(w)) == ore_mul(R.scalar(w), R.poly([0, w]))
    r, s = ore_witness(R.T(), R.scalar(w))
    prod = ore_mul(R.T(), r)
    assert prod == ore_mul(R.scalar(w), s) and not prod.is_zero()
    # x = y gives the trivial witness
    f = R.poly([w, 1])
    assert ore_witness(f, f) == (R.one(), R.one())
    # commutative case over F_2: plain lcm
    F2 = make_field(2, 1)
    R2 = OreRing(F2, frobenius(F2, 0))
    r2, s2 = ore_witness(R2.poly([1, 1]), R2.T())
    assert r2 == R2.T() and s2 == R2.poly([1, 1])


def test_ore_witness_random():
    for p, n, k in ((2, 2, 1), (2, 4, 1), (3, 3, 2), (5, 2, 1)):
        F = make_field(p, n)
        R = OreRing(F, frobenius(F, k))
        rng = random.Random(6 * p + n + k)
        for _ in range(100):
            x, y = rand_poly(R, rng, 3), rand_poly(R, rng, 3)
            if x.is_zero() or y.is_zero():
                continue
            r, s = ore_witness(x, y)
            prod = ore_mul(x, r)
            assert prod == ore_mul(y, s) and not prod.is_zero()


def test_anti_involution_reverses_products():
    F16 = make_field(2, 4)
    R = OreRing(F16, frobenius(F16, 1))
    rng = random.Random(7)
    for _ in range(200):
        f, g = rand_poly(R, rng), rand_poly(R, rng)
        assert anti_involution(ore_mul(f, g)) == ore_mul(anti_involution(g), anti_involution(f))
    # involution property back and forth
    f = rand_poly(R, rng)
    assert anti_involution(anti_involution(f)) == f


def fixed_polys(ring, auts, max_degree):
    """All polynomials of degree <= max_degree fixed by every listed action
    (finite coefficient-set scan; intended for small base fields)."""
    base = ring.base
    assert base.order ** (max_degree + 1) <= 1 << 22
    out = []
    for idx in range(base.order ** (max_degree + 1)):
        coeffs = []
        k = idx
        for _ in range(max_degree + 1):
            coeffs.append(base.from_index(k % base.order))
            k //= base.order
        f = OrePoly(ring, tuple(coeffs))
        if all(a.fixes(f) for a in auts):
            out.append(f)
    return out


def test_induced_ring_aut_fixed_subring():
    F2, F4 = make_field(2, 1), make_field(2, 2)
    emb = embed_subfield(F2, F4)
    # untwisted F_4[T], rho = Frobenius: fixed polynomials are exactly F_2[T]
    R = OreRing(F4, frobenius(F4, 0))
    act = induced_ring_aut(frobenius(F4, 1), R, F2)
    fixed = fixed_polys(R, [act], 3)
    assert len(fixed) == 2**4
    img = emb.image_set()
    for f in fixed:
        assert all(c in img for c in f.coeffs)


def test_induced_ring_aut_twisted_tower():
    F2, F16 = make_field(2, 1), make_field(2, 4)
    emb = embed_subfield(F2, F16)
    ring = OreRing(F16, frobenius(F16, 2))
    acts = [induced_ring_aut(frobenius(F16, k), ring, F2) for k in range(4)]
    # the full Galois action over F_2 fixes exactly the prime-field coefficients
    fixed = fixed_polys(ring, acts, 2)
    assert len(fixed) == 2**3
    img = emb.image_set()
    for f in fixed:
        assert all(c in img for c in f.coeffs)
    # each action is a ring homomorphism fixing T
    rng = random.Random(8)
    for _ in range(50):
        f, g = rand_poly(ring, rng, 3), rand_poly(ring, rng, 3)
        for a in acts:
            assert a(ore_mul(f, g)) == ore_mul(a(f), a(g))
            assert a(ring.T()) == ring.T()


def test_induced_ring_aut_rejects_nonfixing():
    F4, F8, F16 = make_field(2, 2), make_field(2, 3), make_field(2, 4)
    ring = OreRing(F16, frobenius(F16, 0))
    with pytest.raises(ValueError):
        induced_ring_aut(frobenius(F16, 1), ring, F4)  # does not fix F_4
    induced_ring_aut(frobenius(F16, 2), ring, F4)  # fixes F_4: fine
    with pytest.raises(ValueError, match="no embedding"):
        induced_ring_aut(frobenius(F16, 0), ring, F8)  # F_8 is not in F_16


def test_json_roundtrip():
    F4, R = ring_f4()
    w = F4.gen()
    f = R.poly([w, 1, w * w])
    data = f.to_json()
    assert data["base"] == "2^2" and data["frob"] == 1
    g = ore_poly_from_json(data)
    assert g == f


def _ref_element(ref, c):
    """The reduced coefficient tuple of an element given as an int or a list."""
    return ref._pad(divmod_poly([c] if isinstance(c, int) else c, ref.modulus, ref.p)[1])


@pytest.mark.parametrize("p,n", [(2, 1), (2, 4), (3, 3), (2, 14), (2, 15), (257, 1), (32749, 1),
                                 (2, 16), (3, 12), (65537, 2)])
def test_json_coefficient_lists_in_every_form(p, n):
    # a polynomial's coefficients convert in one call per tier each way;
    # every input form must give the ints of the per-coefficient _v_of and
    # of a reference field on tuples, and to_json the reference digits
    F = make_field(p, n)
    ref, ring = TupleField(F), OreRing(F, frobenius(F, 1))
    rng = random.Random(p * 1000 + n)
    canonical = [[rng.randrange(p) for _ in range(rng.randrange(n + 1))] for _ in range(12)]
    mixed = [5, -1, 255, 256, 10**24, [], [1], [p - 1, -1], [256] * n, [300], [-1], [256], [10**24],
             [rng.randrange(-p, 2 * p) for _ in range(2 * n + 1)], [1] * (n + 1), [0, 1] * n]
    # each list among canonical ones (all of them lists), and all mixed up
    cases = [canonical + [[0] * n, []], rng.sample(mixed, len(mixed)) + [0, [], [0]],
             [[300], [-1], [256]], [[0], []], []]
    cases += [canonical[:4] + [c] + canonical[4:] for c in mixed + [[min(p, 255)], [1, p]]]
    for coeffs in cases:
        tuples = [_ref_element(ref, c) for c in coeffs]
        while tuples and tuples[-1] == ref.zero:
            tuples.pop()
        want = tuple(F.from_index(ref.index(t)).v for t in tuples)
        assert want == tuple(F._v_of(c) for c in coeffs)[:len(want)]
        P = ore_poly_from_json({"base": f"{p}^{n}", "frob": 1, "coeffs": coeffs})
        assert P.v == want and OrePoly(ring, coeffs).v == want
        assert OrePoly(ring, iter(coeffs)).v == want  # an iterator, read once
        assert P.to_json()["coeffs"] == [list(t) for t in tuples]
        assert ore_poly_from_json(P.to_json()) == P
    # FqElems and lists in one polynomial
    assert ring.poly([F.gen(), [1], -1]).v == (F.gen().v, F._v_of(1), F._v_of(-1))
    for bad in ([True], [[1, True]], [1.0], [[0, 1.0]], [[[1]]], [[0, [1]]]):
        with pytest.raises(ValueError, match="with integer coefficients"):
            ore_poly_from_json({"base": f"{p}^{n}", "frob": 1, "coeffs": bad})


def test_mismatched_rings_rejected():
    F4, R = ring_f4()
    R0 = OreRing(F4, frobenius(F4, 0))
    with pytest.raises(ValueError):
        ore_mul(R.T(), R0.T())


# -- the log tier against a reference on raw coefficient tuples ----------------


def _tier(F):
    """The class of F's tier: its first element finishes the field."""
    F.one()
    return type(F)


# the log-tier fields, up to the boundary F_2^15 of order exactly _LOG_TABLE_MAX
LOG_TIER_FIELDS = [(2, 1), (2, 2), (2, 4), (3, 3), (2, 8), (5, 4), (7, 2), (2, 14), (2, 15)]


def _nonzero(F, rng):
    x = (0,) * F.n
    while not any(x):
        x = tuple(rng.randrange(F.p) for _ in range(F.n))
    return x


def _sparse(F, rng, deg):
    """Coefficient tuples of degree deg, about half of the lower ones zero."""
    zero = (0,) * F.n
    return [zero if rng.random() < 0.5 else _nonzero(F, rng) for _ in range(deg)] + [_nonzero(F, rng)]


def _tuples(f):
    return [c.coeffs for c in f.coeffs]


def _check_against_reference(ring, ref, f, g):
    P = ring.poly
    assert _tuples(ore_mul(P(f), P(g))) == ref.ore_mul(f, g)
    q, r = ore_right_divmod(P(f), P(g))
    assert (_tuples(q), _tuples(r)) == ref.right_divmod(f, g)
    q, r = ore_left_divmod(P(f), P(g))
    assert (_tuples(q), _tuples(r)) == ref.left_divmod(f, g)


@pytest.mark.parametrize("p,n", LOG_TIER_FIELDS)
def test_log_tier_kernels_match_raw_reference(p, n):
    F = make_field(p, n)
    assert _tier(F) is _LogField
    rng = random.Random(p * 1000 + n)
    for k in range(n):
        ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
        for _ in range(2):
            f = _sparse(F, rng, rng.randrange(2, 2 * n + 3))
            g = _sparse(F, rng, rng.randrange(0, 5))
            _check_against_reference(ring, ref, f, g)
            # divisor of higher degree than the dividend: q = 0, r = f
            _check_against_reference(ring, ref, g, f)
            # exact multiples: every step cancels, and the remainder is zero
            q, r = ore_right_divmod(ring.poly(ref.ore_mul(f, g)), ring.poly(g))
            assert (_tuples(q), r.is_zero()) == (f, True)
            q, r = ore_left_divmod(ring.poly(ref.ore_mul(g, f)), ring.poly(g))
            assert (_tuples(q), r.is_zero()) == (f, True)


@pytest.mark.parametrize("p,n", LOG_TIER_FIELDS)
def test_log_tier_cancellations(p, n):
    # sums of x and -x, that is 1 + g^d = 0 on logs, inside every kernel
    F = make_field(p, n)
    rng = random.Random(p * 2000 + n)
    k = 1 % n
    ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
    a, b, c = (_nonzero(F, rng) for _ in range(3))
    # (a + bT)(c + eT) with a e + b tau(c) = 0: the middle coefficient vanishes
    e = ref.sub(ref.zero, ref.mul(ref.mul(b, ref.tau(1, c)), ref.inv(a)))
    prod = ore_mul(ring.poly([a, b]), ring.poly([c, e]))
    assert _tuples(prod) == [ref.mul(a, c), ref.zero, ref.mul(b, ref.tau(1, e))]
    # leading-term cancellation in a sum
    f = ring.poly(_sparse(F, rng, 6))
    low = ring.poly(_sparse(F, rng, 2))
    assert f + (low - f) == low and (f - f).is_zero()
    # f = q g + r whose first division step also cancels the next terms
    g = _sparse(F, rng, 3)
    q = [ref.zero, ref.zero, _nonzero(F, rng)]
    r = [_nonzero(F, rng)]
    f = ref.trim([ref.add(x, y) for x, y in zip(ref.ore_mul(q, g), r + [ref.zero] * 5)])
    assert ref.right_divmod(f, g) == (q, r)
    _check_against_reference(ring, ref, f, g)


def test_past_the_log_table_limit_takes_the_raw_path():
    F = make_field(2, 16)
    assert _tier(F) is _PackedField
    rng = random.Random(16)
    for k in (0, 1, 15):
        ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
        _check_against_reference(ring, ref, _sparse(F, rng, 5), _sparse(F, rng, 2))
    assert not hasattr(F, "_log") and not hasattr(F, "_zech")  # no log table was built


@pytest.mark.parametrize("p,n", [(3, 12), (5, 7)])
def test_packed_kernels_past_the_accumulation_bound(p, n):
    # more than _ACC_TERMS rows of f in a product, and more than _ACC_TERMS
    # division steps, so the kernels reduce their sums before the end
    F = make_field(p, n)
    assert _tier(F) is _PackedField
    rng = random.Random(p * 3000 + n)
    deg = _ACC_TERMS + 6
    dense = [(p - 1,) * n] * (deg + 1)  # every slot product at its largest
    for k in (0, 1, n - 1):
        ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
        f, g = _sparse(F, rng, deg), _sparse(F, rng, 4)
        _check_against_reference(ring, ref, f, g)
        _check_against_reference(ring, ref, dense, dense[:3])
        assert _tuples(ore_mul(ring.poly(g), ring.poly(dense))) == ref.ore_mul(g, dense)
        # an exact multiple: every one of the deg + 1 steps cancels
        q, r = ore_right_divmod(ring.poly(ref.ore_mul(f, g)), ring.poly(g))
        assert (_tuples(q), r.is_zero()) == (f, True)


def test_mirror_ring_is_built_once():
    F = make_field(2, 4)
    R = OreRing(F, frobenius(F, 1))
    assert R.mirror() is R.mirror()
    assert R.mirror().mirror() is R
    assert R.mirror().twist == frobenius(F, 3)
    f = R.poly([1, F.gen(), 1])
    assert anti_involution(f).ring is R.mirror()
    assert anti_involution(anti_involution(f)).ring is R


def _repeated_square(ref, c, deg):
    """(c + c T + ... + c T^deg)^2 on tuples in O(deg) field operations:
    its coefficient at T^m is the sum of e_i = c tau^i(c) over
    max(0, m - deg) <= i <= min(m, deg), a difference of two prefix sums,
    and e_i depends only on i mod n."""
    n = ref.F.n
    e = [ref.mul(c, ref.tau(i, c)) for i in range(min(n, deg + 1))]
    sums = [ref.zero]
    for i in range(deg + 1):
        sums.append(ref.add(sums[-1], e[i % n]))
    return ref.trim([ref.sub(sums[min(m, deg) + 1], sums[max(0, m - deg)])
                     for m in range(2 * deg + 1)])


# Fields where rounding the slot bound up to whole bytes leaves the least
# room: slots of 2^16 against bounds of 4160 (F_2^64), 20638 (F_3^40) and
# 61668 (F_5^15)
SLOT_BOUND_FIELDS = [(2, 64), (3, 40), (5, 15)]


def test_packed_kernels_at_the_slot_bound():
    # Coefficients with every slot at p - 1 and the identity twist put the
    # most into every slot: n (p - 1)^2 per product, n (p - 1)^3 per
    # division step, whose multiplier is (p - 1) c.  A sum of more than
    # 2^w / (n (p - 1)^2) of them carries into the next slot without the
    # kernels' reductions on the way, in the product and in the division
    # steps alike.
    for p, n in SLOT_BOUND_FIELDS:
        F = make_field(p, n)
        ring, ref = OreRing(F, frobenius(F, 0)), RawRing(F, 0)
        assert _tier(F) is _PackedField and F._w == 16
        c = (p - 1,) * n
        assert _repeated_square(ref, c, 5) == ref.ore_mul([c] * 6, [c] * 6)
        deg = (1 << F._w) // (n * (p - 1) ** 2) + 1
        assert deg > _ACC_TERMS
        dense = ring.poly([c] * (deg + 1))
        prod = _repeated_square(ref, c, deg)
        assert _tuples(ore_mul(dense, dense)) == prod, (p, n)
        q, r = ore_right_divmod(ring.poly(prod), dense)
        assert (q, r.is_zero()) == (dense, True), (p, n)


def _check_minus_product(ring, ref, f, g, prod, acc):
    """acc - f*g by one accumulating kernel call, against prod = f*g on
    tuples."""
    F, k = ring.base, ring.twist.k
    padded = [*acc, *[ref.zero] * (len(prod) - len(acc))]
    want = ref.trim([*map(ref.sub, padded, prod), *acc[len(prod):]])
    V = [ring.poly(h).v for h in (f, g, acc)]
    assert _tuples(_from_ints(ring, _mul(F, k, *V))) == want, len(acc)


@pytest.mark.parametrize("p,n,k", [(2, 16, 0), (3, 12, 0), (3, 12, 5), (3, 3, 1), (7, 1, 0),
                                   (2, 8, 1), (2, 1, 0)])
def test_accumulating_mul_kernel(p, n, k):
    # acc - f*g in one kernel call, against the tuple reference, for acc
    # shorter than f*g, as long and longer, in both tiers and on bit rows
    F = make_field(p, n)
    ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
    rng = random.Random(p * 5000 + n + k)
    f, g = _sparse(F, rng, 9), _sparse(F, rng, 7)
    prod = ref.ore_mul(f, g)
    for width in (3, len(prod), len(prod) + 4):
        _check_minus_product(ring, ref, f, g, prod, _sparse(F, rng, width - 1))


@pytest.mark.parametrize("p,n,k", [(2, 64, 0), (3, 40, 0), (3, 40, 5), (5, 15, 0)])
def test_accumulating_mul_kernel_at_the_slot_bound(p, n, k):
    # acc - f*g for f = g with more than _ACC_TERMS rows and every slot at
    # p - 1: at the identity twist every slot product, of (p - 1) a and b,
    # is at its largest, n (p - 1)^3, and the sums carry into the next slot
    # unless the kernel reduces them on the way
    F = make_field(p, n)
    ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
    assert _tier(F) is _PackedField and F._w == 16
    c = (p - 1,) * n
    assert _repeated_square(ref, c, 4) == ref.ore_mul([c] * 5, [c] * 5)
    deg = (1 << F._w) // (n * (p - 1) ** 3) + 1
    assert deg > _ACC_TERMS
    dense = [c] * (deg + 1)
    prod = _repeated_square(ref, c, deg)
    rng = random.Random(p * 5000 + n + k)
    _check_minus_product(ring, ref, dense, dense, prod, _sparse(F, rng, len(prod) + 3))


# -- the Euclidean chains on ints against the chains of the tuple reference ----

CHAIN_FIELDS = [(2, 1), (7, 1), (2, 4), (3, 3), (5, 4), (2, 14), (2, 16), (3, 12)]


def _check_chains(f, g):
    ref = RawRing(f.ring.base, f.ring.twist.k)
    a, b = _tuples(f), _tuples(g)
    assert _tuples(ore_right_gcd(f, g)) == ref.right_gcd(a, b)
    assert _tuples(ore_left_lcm(f, g)) == ref.left_lcm(a, b)
    r, s = ore_witness(f, g)
    assert (_tuples(r), _tuples(s)) == ref.witness(a, b)
    assert _tuples(anti_involution(f)) == ref.anti_involution(a)


@pytest.mark.parametrize("p,n", CHAIN_FIELDS)
def test_euclid_chains_match_the_orepoly_reference(p, n):
    # gcd, lcm and both witness polynomials equal to those of the schoolbook
    # chain on coefficient tuples with both cofactors, for every twist
    F = make_field(p, n)
    rng = random.Random(p * 6000 + n)
    for k in range(n):
        ring = OreRing(F, frobenius(F, k))

        def P(deg):
            return ring.poly(_sparse(F, rng, deg))

        f, g, h = P(3), P(2), P(2)
        cases = [
            (f, g),  # random
            (P(4), P(0)),  # g a unit
            (f, f),
            (ore_mul(P(2), g), g),  # g divides f
            (g, f),  # deg g > deg f
            (ore_mul(P(3), h), ore_mul(P(2), h)),  # a common right factor
            (P(6), ore_mul(P(3), P(1))),
        ]
        for a, b in cases:
            _check_chains(a, b)
        assert ore_right_gcd(cases[5][0], cases[5][1]).degree >= 2
        ref = RawRing(F, k)
        assert _tuples(ore_right_gcd(f, ring.zero())) == ref.right_gcd(_tuples(f), [])
        assert _tuples(ore_right_gcd(ring.zero(), g)) == ref.right_gcd([], _tuples(g))


@pytest.mark.parametrize("p,n,k", [(2, 16, 0), (3, 12, 0), (3, 12, 1), (2, 14, 0), (2, 15, 1),
                                   (3, 3, 1), (5, 4, 0), (7, 2, 1), (23, 2, 0)])
def test_euclid_chains_with_long_quotients(p, n, k, row_calls):
    # r_0 = q_1 r_1 + r_2, r_1 = q_2 r_2 + r_3, r_2 = q_3 r_3 with q_i of
    # 2 _ACC_TERMS + 7 nonzero terms, every slot of q_1 and q_3 at p - 1 and
    # of q_2 at 1: in the cofactor update s_4 = 1 - q_3 s_3 with s_3 = -q_2,
    # every slot product is at its largest, and the sums carry into the next
    # slot unless the accumulating kernel reduces them on the way.  r_1 is
    # past every field's _row_min, so every field here runs the chain on
    # rows; on F_3^12 the cofactor's super-slots take sums at their
    # largest, and carry into the next one unless the settles reduce them
    # on the way.  On F_2^14 and F_2^15 the
    # cofactor rows pass 100 coefficients, where a wrong slot shift or row
    # length would show.  On F_3^3, F_5^4, F_7^2 and F_23^2 the quotients'
    # terms overrun _ACC_TERMS, so the remainders and the cofactors settle
    # in the middle of a row; F_23^2 leaves its 16-bit sub-slots the least
    # room, 67 terms of n (p - 1)^2 = 968, and carries into the next one
    # without them.
    F = make_field(p, n)
    ring = OreRing(F, frobenius(F, k))
    deg = 2 * _ACC_TERMS + 6
    dense = ring.poly([(p - 1,) * n] * (deg + 1))
    ones = ring.poly([(1,) * n] * (deg + 1))
    r3 = ring.poly([F.gen(), 1])
    r2 = ore_mul(dense, r3)
    r1 = ore_mul(ones, r2) + r3
    r0 = ore_mul(dense, r1) + r2
    assert ore_right_divmod(r0, r1).quotient == dense
    _check_chains(r0, r1)
    assert ore_right_gcd(r0, r1) == r3.monic()
    assert ore_left_lcm(r0, r1).degree == r0.degree + r1.degree - 1
    assert len(r1.v) >= F._row_min and row_calls["_row_euclid"]


# -- rows, for log-tier fields ------------------------------------------------------

ROW_ENTRY_POINTS = ("_row_mul", "_row_right_divmod", "_row_euclid")


@pytest.fixture
def row_calls(monkeypatch):
    """The calls of each row entry point, counted by a spy."""
    calls = Counter()
    for name in ROW_ENTRY_POINTS:
        def spy(*args, _real=getattr(orepoly, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(orepoly, name, spy)
    return calls


# bit rows (1-bit sub-slots in 16-bit slots) for p = 2 in the log tier, and
# n-bit slots past it; F_31^3 and F_257 have 24-bit sub-slots, F_32749 40,
# the other odd-p log-tier fields 16; the odd-p packed fields F_3^12, F_5^7,
# F_65537 and F_65537^2 have super-slots of 2n packed slots, 384, 224, 112
# and 224 bits wide (F_65537^2 also divides by the F_p-norm inverse)
ROW_FIELDS = [(2, 4), (2, 8), (2, 15), (2, 16), (2, 20), (2, 64), (3, 3), (5, 4), (7, 2), (31, 3),
              (257, 1), (32749, 1), (3, 12), (5, 7), (65537, 1), (65537, 2)]
SUB_SLOT = {2: 1, 31: 24, 257: 24, 32749: 40}
SUPER_SLOT = {(3, 12): 384, (5, 7): 224, (65537, 1): 112, (65537, 2): 224}


def _nonmonic(F, rng, deg):
    """_sparse, with a leading coefficient other than 1."""
    f = _sparse(F, rng, deg)
    while f[-1] == (1,) + (0,) * (F.n - 1):
        f[-1] = _nonzero(F, rng)
    return f


@pytest.mark.parametrize("p,n", ROW_FIELDS)
def test_row_kernels_match_raw_reference(p, n, row_calls):
    # the product, acc - f*g, both divisions and the chains on rows, for
    # every twist (only 0, 1, n/2 and n - 1 past n = 16, which bounds the
    # reference's Frobenius powers), with every scaled operand at or past
    # the rule's least length, against the tuple reference; p = 2 runs rows
    # at every length, and there the reference's chains over F_2^15 set the
    # size
    F = make_field(p, n)
    size = F._row_min if p != 2 else 8
    rng = random.Random(p * 7000 + n)
    for k in range(n) if n <= 16 else sorted({0, 1, n // 2, n - 1}):
        ring, ref = OreRing(F, frobenius(F, k)), RawRing(F, k)
        f, g = _nonmonic(F, rng, size + 6), _nonmonic(F, rng, size - 1)
        prod = ref.ore_mul(f, g)
        assert _tuples(ore_mul(ring.poly(f), ring.poly(g))) == prod
        for width in (3, len(prod), len(prod) + 4):
            _check_minus_product(ring, ref, f, g, prod, _sparse(F, rng, width - 1))
        # f*g + r by g, and g by a longer divisor: q = 0, r = g
        r = _sparse(F, rng, size - 3)
        f_r = ref.trim(map(ref.add, prod, r + [ref.zero] * len(prod)))
        _check_against_reference(ring, ref, f_r, g)
        _check_against_reference(ring, ref, g, f)
        # exact multiples, on the right and on the left
        q, r = ore_right_divmod(ring.poly(prod), ring.poly(g))
        assert (_tuples(q), r.is_zero()) == (f, True)
        q, r = ore_left_divmod(ring.poly(ref.ore_mul(g, f)), ring.poly(g))
        assert (_tuples(q), r.is_zero()) == (f, True)
        # gcd, lcm and witness: random, deg f < deg g, a common right factor
        f, g, h = ring.poly(f), ring.poly(g), ring.poly(_nonmonic(F, rng, 3))
        for a, b in [(f, g), (g, f), (ore_mul(f, h), ore_mul(g, h))]:
            _check_chains(a, b)
        assert _tuples(ore_right_gcd(ring.zero(), g)) == ref.right_gcd([], _tuples(g))
    assert all(row_calls[name] for name in ROW_ENTRY_POINTS), row_calls
    # the slot and sub-slot widths: layout(1)'s low has the low w bits of
    # one slot set, or the low half of one super-slot, the one slice
    R = F._rsteps
    low = R.layout(1)[0]
    if (p, n) in SUPER_SLOT:
        assert (R.s, low) == (SUPER_SLOT[p, n], (1 << SUPER_SLOT[p, n] // 2) - 1)
    else:
        assert low == (1 << SUB_SLOT.get(p, 16)) - 1


def _stated_rule(F):
    """_row_min as FqField's docstring states it."""
    if F.p == 2:
        return 1
    if F.order <= 1 << 15:
        return 8 * max(F.n, 3) if F.n <= 5 else math.inf
    return 8 if F._nbytes <= 30 else 24 if F._nbytes <= 36 else math.inf


@pytest.mark.parametrize("p,n", [(2, 1), (2, 8), (2, 16), (2, 64), (3, 3), (5, 4), (7, 5), (3, 1),
                                 (251, 1), (257, 1), (32749, 1), (3, 12), (5, 7), (3, 16),
                                 (65537, 1)])
def test_the_kernel_choice_follows_the_stated_rule(p, n, row_calls):
    # rows when the operand a kernel scales, g in f*g, the divisor or the
    # chain's second input, has at least _row_min coefficients: 1 for p = 2,
    # so at every length, 8 max(n, 3) for odd p and n <= 5 in the log tier,
    # and for odd-p packed fields 8 up to 30-byte elements (F_3^12, F_5^7,
    # F_65537) and 24 up to 36 bytes (F_3^16), where one coefficient fewer
    # stays on lists
    F = make_field(p, n)
    assert F._row_min == _stated_rule(F) < math.inf
    ring = OreRing(F, frobenius(F, 1 % n))
    rng = random.Random(p * 8000 + n)

    def P(size):
        return ring.poly(_sparse(F, rng, size - 1))

    f, at = P(3 * F._row_min + 8), P(F._row_min)
    if F._row_min > 1:
        below = P(F._row_min - 1)
        ore_mul(f, below), ore_right_divmod(f, below), ore_right_gcd(f, below)
        ore_left_lcm(below, below)
        assert not row_calls
    ore_mul(f, at)
    ore_right_divmod(f, at)
    ore_right_gcd(f, at)
    assert row_calls == Counter(ROW_ENTRY_POINTS)


@pytest.mark.parametrize("p,n", [(3, 6), (3, 7), (5, 6), (3, 20)])
def test_the_list_kernels_keep_the_fields_past_the_rule(p, n, row_calls):
    # log-tier fields of odd p and n past 5, and the odd-p packed field
    # F_3^20, whose elements take 40 bytes, never reach a row, however long
    # the operands
    F = make_field(p, n)
    ring = OreRing(F, frobenius(F, 1 % n))
    rng = random.Random(p * 9000 + n)
    f, g = (ring.poly(_sparse(F, rng, deg)) for deg in (120, 60))
    ore_mul(f, g), ore_right_divmod(f, g), ore_right_gcd(f, g)
    assert not row_calls and F._row_min == math.inf
    assert getattr(F, "_rsteps", None) is None  # no row table was built


def _closure(f, name):
    """The value of the free variable name of the function f."""
    return f.__closure__[f.__code__.co_freevars.index(name)].cell_contents


def _row_tables(steps):
    """The distinct lists that the row steps hold in the closures of their
    functions."""
    cells = [c.cell_contents for name in RowSteps._fields
             for c in getattr(getattr(steps, name), "__closure__", None) or ()]
    return list({id(t): t for t in cells if isinstance(t, list)}.values())


def test_digit_row_tables_are_built_on_the_first_row_call_within_the_log_table_size():
    # field objects of their own, so that no other test has built their tables
    for p, n in [(31, 3), (2, 8)]:
        F = FqField(p, n)
        ring = OreRing(F, frobenius(F, 1))
        f = ring.poly([F.from_index(i) for i in range(1, 60)])
        assert F._rsteps is None
        if p != 2:
            ore_mul(f, ring.poly([1, 2]))  # below the rule's length: lists
            assert F._rsteps is None
        ore_mul(ring.poly([1, 2]), f)
        steps = F._row_steps()
        assert F._rsteps is steps
        # the columns (_antilog itself for p = 2) and their slots, one per
        # log and the zero slot last: each as long as _log, and no other
        tables = [t for t in _row_tables(steps) if t is not F._log]
        assert sorted(map(len, tables)) == [len(F._log)] * 2
        cols = _closure(steps.columns, "cols")
        assert (cols is F._antilog) == (p == 2)
        assert cols[-1] == 0
        # 16-bit slots of one 1-bit sub-slot, or 72-bit slots of three of 24
        assert (steps.s, steps.layout(1)[0]) == ((16, 1) if p == 2 else (72, (1 << 24) - 1))


@pytest.mark.parametrize("p,n,slot", [(2, 8, 2), (3, 1, 2), (251, 1, 3), (257, 1, 3),
                                      (32749, 1, 5), (3, 3, 6), (31, 3, 9), (7, 5, 10)])
def test_row_conversions_round_trip_at_every_slot_width(p, n, slot):
    # unrow(row(v), len(v)) == v at every slot width, in bytes: zeros (log
    # -1) alone, inside and trailing, length 1, every log once, and length 1001
    F = make_field(p, n)
    R = F._row_steps()
    assert R.s == 8 * slot
    rng = random.Random(p * 6000 + n)
    logs = list(range(-1, F._q1))
    long = [rng.choice(logs) for _ in range(1001)]
    cases = [[-1], [0], [F._q1 - 1], [-1] * 7, [0, -1, -1], [-1, F._q1 - 1, -1, 0], logs,
             logs[::-1], long, long[:990] + [-1] * 11, [-1] * 1000 + [F._q1 // 2]]
    for v in cases:
        assert R.unrow(R.row(v), len(v)) == v


@pytest.mark.parametrize("p,n", [(3, 12), (65537, 1)])
def test_super_slot_conversions_round_trip(p, n):
    # unrow(row(v), len(v)) == v for the packed ints of odd-p packed fields:
    # zeros alone, inside and trailing, length 1, and length 1001; F_3^12's
    # elements take 24 bytes of a 48-byte super-slot, F_65537's 7 of 14
    F = make_field(p, n)
    R = F._row_steps()
    assert R.s == SUPER_SLOT[p, n]
    rng = random.Random(p * 6100 + n)
    zero, one, top = F._vs_of([[0], [1], [p - 1] * n])
    long = F._vs_of([[rng.randrange(p) for _ in range(n)] for _ in range(1001)])
    cases = [[zero], [one], [top], [zero] * 7, [one, zero, zero], [zero, top, zero, one], long,
             long[:990] + [zero] * 11, [zero] * 1000 + [top]]
    for v in cases:
        assert R.unrow(R.row(v), len(v)) == v


# -- the coefficient ints of OrePoly against a reference on tuples -------------


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (5, 4), (2, 16), (3, 12)])
def test_int_coefficients_match_the_element_level_reference(p, n):
    # both field tiers: logs up to F_5^4, packed slots at F_2^16 and F_3^12
    F = make_field(p, n)
    ring, ref = OreRing(F, frobenius(F, 1)), RawRing(F, 1)
    rng = random.Random(p * 4000 + n)

    def ref_add(f, g):
        width = max(len(f), len(g))
        pad = [list(h) + [ref.zero] * (width - len(h)) for h in (f, g)]
        return ref.trim([ref.add(a, b) for a, b in zip(*pad)])

    def ref_neg(f):
        return [ref.sub(ref.zero, a) for a in f]

    polys = [[]] + [_sparse(F, rng, rng.randrange(5)) for _ in range(12)]
    for f in polys:
        P = ring.poly(f)
        assert P.v == tuple(c.v for c in P.coeffs)
        assert P.coeffs == tuple(F.element(c) for c in f)
        assert all(c.field is F for c in P.coeffs)
        assert P.to_json() == {"base": f"{p}^{n}", "frob": 1, "coeffs": [list(c) for c in f]}
        assert _tuples(-P) == ref_neg(f)
        if f:
            lead_inv = ref.inv(f[-1])
            assert _tuples(P.monic()) == [ref.mul(lead_inv, c) for c in f]
            assert P.monic().is_monic() and P.leading() == F.element(f[-1])
        # trailing zeros are dropped on construction
        padded = ring.poly(f + [ref.zero, ref.zero])
        assert padded == P and hash(padded) == hash(P) and padded.v == P.v
        # cancellation to the zero polynomial: an empty tuple of ints
        assert (P + (-P)).v == () and (P - P).v == () and (P - P).coeffs == ()
        assert (P - P).to_json()["coeffs"] == [] and P - P == ring.zero()
        for g in polys:
            Q = ring.poly(g)
            assert _tuples(P + Q) == ref_add(f, g)
            assert _tuples(P - Q) == ref_add(f, ref_neg(g))
            assert (P == Q) == (f == g)
            if f == g:
                assert hash(P) == hash(Q)
        # a leading-term cancellation
        low = ring.poly(_sparse(F, rng, 1))
        assert P + (low - P) == low
    # the same ints in another ring are another polynomial
    f = polys[-1]
    assert ring.poly(f) != ring.mirror().poly(f)


def test_foreign_coefficients_are_rejected():
    F16 = make_field(2, 4)
    R = OreRing(F16, frobenius(F16, 1))
    foreign = make_field(3, 2).from_index(5)
    # an element of F_9 read as an F_16 int would give a wrong product
    for build in (lambda: OrePoly(R, (foreign,)), lambda: R.poly([1, foreign]),
                  lambda: R.scalar(foreign), lambda: R.monomial(foreign, 2)):
        with pytest.raises(ValueError, match="different field"):
            build()
    # an element of an equal field object is accepted
    assert OrePoly(R, (F16.gen(),)) == R.scalar(F16.gen())
