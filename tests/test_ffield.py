import gc
import random
import tracemalloc

import pytest
import tuple_field
from tuple_field import TupleField

from skewgalois import modpoly
from skewgalois.ffield import (
    _LOG_TABLE_MAX,
    FIELD_ORDER_MAX,
    _LogField,
    _PackedField,
    _Unfinished,
    FieldAut,
    FqField,
    check_subfield,
    embed_subfield,
    field_from_descriptor,
    frobenius,
    galois_group,
    make_field,
    parse_descriptor,
    restrict_aut,
    roots_in_field,
)
from skewgalois.zarith import is_prime


def test_make_field_examples():
    F4 = make_field(2, 2)
    assert F4.modulus == (1, 1, 1)  # the unique irreducible quadratic over F_2
    F3 = make_field(3, 1)
    assert F3.modulus == (0, 1)  # degree-1 convention: modulus x
    F16 = make_field(2, 4)
    # re-verify irreducibility with the list oracle's distinct-degree test
    assert tuple_field.is_irreducible(list(F16.modulus), 2)


def test_make_field_rejects_nonprime():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)


@pytest.mark.parametrize("p,n", [(3, 5), (2, 20)])
def test_modulus_is_found_on_first_use(monkeypatch, p, n):
    # a field is its (p, n); its first element finishes it once, in either
    # tier: the modulus search and, for a log-tier field, the tables
    tier = _LogField if p**n <= _LOG_TABLE_MAX else _PackedField
    calls, least = [], modpoly.least_irreducible
    monkeypatch.setattr(modpoly, "least_irreducible", lambda *pn: calls.append(pn) or least(*pn))
    tables, find = [], _LogField._find_generator
    monkeypatch.setattr(_LogField, "_find_generator", lambda F: tables.append(F) or find(F))
    F = FqField(p, n)
    assert F == make_field(p, n) and hash(F) == hash(make_field(p, n)) and F != FqField(p, n + 1)
    assert FieldAut(F, 1).order == n and F.descriptor() == f"{p}^{n}" and F.order == p**n
    check_subfield(make_field(p, 1), F)
    assert getattr(F, "missing", None) is None
    assert type(F) is _Unfinished and calls == [] and tables == []
    x = F.element([0, 1])
    assert type(F) is tier  # arithmetic runs on the class without the hook
    assert x * x == F.element([0, 0, 1]) and (x**n).coeffs == tuple((-c) % p for c in least(p, n)[:n])
    assert calls == [(p, n)] and F.modulus == tuple(least(p, n))
    assert tables == ([F] if tier is _LogField else [])
    assert len(F._log) == p**n if tier is _LogField else not hasattr(F, "_log")
    assert getattr(F, "missing", None) is None


def test_descriptor_roundtrip():
    assert parse_descriptor("2^4") == (2, 4)
    assert parse_descriptor("7") == (7, 1)
    # orders up to 2^64 are accepted, larger ones are refused before any work
    assert parse_descriptor("2^64") == (2, 64)
    assert parse_descriptor("3^40") == (3, 40)
    for desc in ("2^65", "3^41", "18446744073709551629", "2^1000000000000"):
        with pytest.raises(ValueError, match="exceeds the cap"):
            parse_descriptor(desc)
    F = field_from_descriptor("3^2")
    assert F.descriptor() == "3^2"


def test_element_arithmetic_field_axioms():
    for p, n in ((2, 3), (3, 2), (5, 1)):
        F = make_field(p, n)
        els = list(F.elements())
        one, zero = F.one(), F.zero()
        for a in els:
            assert a + zero == a
            assert a * one == a
            assert a + (-a) == zero
            if not a.is_zero():
                assert a * a.inverse() == one
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a


def test_frobenius_orders():
    F16 = make_field(2, 4)
    assert frobenius(F16, 1).order == 4
    assert frobenius(F16, 2).order == 2
    assert frobenius(make_field(2, 2), 0).order == 1
    # exponent is reduced mod n
    assert frobenius(F16, 5).k == 1


def test_frobenius_annihilation_exhaustive():
    # x^(p^n) = x for every element, fields up to 2^12
    for p, n in ((2, 12), (3, 5), (5, 3), (7, 2)):
        F = make_field(p, n)
        q = p**n
        assert all(x**q == x for x in F.elements())


def test_frobenius_is_field_automorphism():
    F = make_field(3, 3)
    fr = frobenius(F, 1)
    for a in F.elements():
        for b in list(F.elements())[:9]:
            assert fr(a * b) == fr(a) * fr(b)
            assert fr(a + b) == fr(a) + fr(b)


def test_composition_adds_exponents():
    F = make_field(2, 6)
    rng = random.Random(0)
    for _ in range(30):
        i, j = rng.randrange(6), rng.randrange(6)
        assert frobenius(F, i).compose(frobenius(F, j)) == frobenius(F, i + j)


# fields past the log-table limit, where Frobenius is a cached linear map
LARGE_FIELDS = [(2, 16), (2, 20), (3, 12)]


def _random_elems(F, rng, count):
    return [F.element([rng.randrange(F.p) for _ in range(F.n)]) for _ in range(count)]


@pytest.mark.parametrize("p,n", LARGE_FIELDS)
def test_large_field_frobenius_matches_square_and_multiply(p, n):
    F = make_field(p, n)
    assert F.order > _LOG_TABLE_MAX
    rng = random.Random(p * 100 + n)
    ref = TupleField(F)
    xs = [F.zero(), F.one(), F.gen()] + _random_elems(F, rng, 6)
    for k in range(n):
        fr = frobenius(F, k)
        for x in xs:
            # square-and-multiply on tuples is the independent oracle
            assert fr(x).coeffs == ref.pow(x.coeffs, p**k)


@pytest.mark.parametrize("p,n", LARGE_FIELDS)
def test_large_field_frobenius_is_ring_hom(p, n):
    F = make_field(p, n)
    rng = random.Random(p * 200 + n)
    for k in (1, n // 2, n - 1):
        fr = frobenius(F, k)
        xs = _random_elems(F, rng, 6)
        for a, b in zip(xs, xs[1:] + xs[:1]):
            assert fr(a * b) == fr(a) * fr(b)
            assert fr(a + b) == fr(a) + fr(b)


@pytest.mark.parametrize("p,n", LARGE_FIELDS)
def test_large_field_frobenius_powers_compose(p, n):
    F = make_field(p, n)
    rng = random.Random(p * 300 + n)
    for x in _random_elems(F, rng, 4):
        for _ in range(4):
            a, b = rng.randrange(n), rng.randrange(n)
            assert frobenius(F, a)(frobenius(F, b)(x)) == frobenius(F, a + b)(x)
        # frob^(n-1) undoes frob
        assert frobenius(F, n - 1)(frobenius(F, 1)(x)) == x


# every field of the log tier the Ore ring runs on, up to the boundary
# field F_2^15 of order exactly _LOG_TABLE_MAX
LOG_TIER_FIELDS = [(2, 4), (3, 3), (2, 8), (5, 4), (7, 2), (2, 14), (2, 15)]


@pytest.mark.parametrize("p,n", LOG_TIER_FIELDS)
def test_log_tier_frobenius_matches_square_and_multiply(p, n):
    F = make_field(p, n)
    assert F.order <= _LOG_TABLE_MAX
    rng = random.Random(p * 400 + n)
    ref = TupleField(F)
    xs = [F.zero(), F.one(), -F.one(), F.gen()] + _random_elems(F, rng, 6)
    for k in range(n):
        fr = frobenius(F, k)
        for x in xs:
            assert fr(x).coeffs == ref.pow(x.coeffs, p**k)
    assert type(F) is _LogField  # the log tier answered


@pytest.mark.parametrize("p,n", LOG_TIER_FIELDS)
def test_log_tier_element_arithmetic_matches_raw(p, n):
    F = make_field(p, n)
    rng = random.Random(p * 500 + n)
    ref = TupleField(F)
    xs = [F.zero(), F.one(), -F.one(), F.gen()] + _random_elems(F, rng, 8)
    for a in xs:
        assert (-a).coeffs == tuple(-c % p for c in a.coeffs)
        if not a.is_zero():
            assert a.inverse().coeffs == ref.inv(a.coeffs)
            for e in (-3, 0, 1, 5, F.order):
                assert (a**e).coeffs == ref.pow(a.coeffs, e)
        for b in xs + [-a]:  # -a: a sum that cancels to zero
            assert (a + b).coeffs == tuple((x + y) % p for x, y in zip(a.coeffs, b.coeffs))
            assert (a * b).coeffs == ref.mul(a.coeffs, b.coeffs)


def test_log_and_zech_tables_at_the_boundary_field():
    F = make_field(2, 15)
    F.one()  # an element finishes the field
    assert F.order == _LOG_TABLE_MAX and type(F) is _LogField
    ref = TupleField(F)
    g = ref.least_generator()
    # the logs are to the least-index primitive element, as before
    assert F._antilog[1] == ref.index(g)
    assert F.from_index(ref.index(g)).v == 1
    rng = random.Random(15)
    for d in [0, 1, F.order - 2] + [rng.randrange(F.order - 1) for _ in range(40)]:
        x = ref.pow(g, d)
        assert F._antilog[d] == ref.index(x) and F._log[ref.index(x)] == d
        one_plus = ref.add(ref.one, x)
        assert F._antilog[F._add(0, d)] == ref.index(one_plus)  # -1 indexes zero
    assert F._zech is None  # a sum in characteristic 2 is the XOR of indices
    assert F._add(0, 0) == -1  # 1 + 1 = 0
    assert F._log[0] == -1 and F._antilog[-1] == 0 and F.zero().v == -1


def _reference_log_tables(F):
    """_antilog, _log and _zech built from TupleField powers of the least
    generator; a field of characteristic 2 has no _zech (None)."""
    ref = TupleField(F)
    g = ref.least_generator()

    def step(x):  # a product of length-1 tuples is a product of ints mod p
        return (x[0] * g[0] % F.p,) if F.n == 1 else ref.mul(x, g)

    powers = [ref.one]
    for _ in range(F.order - 2):
        powers.append(step(powers[-1]))
    assert step(powers[-1]) == ref.one
    antilog = [ref.index(x) for x in powers]
    log = [-1] * F.order
    for k, idx in enumerate(antilog):
        log[idx] = k
    zech = None if F.p == 2 else [log[ref.index(ref.add(ref.one, x))] for x in powers]
    return antilog + [0], log, zech


def test_log_tables_of_every_field_up_to_4096():
    fields = [(p, n) for p in range(2, 4097) if is_prime(p) for n in range(1, 13) if p**n <= 4096]
    assert len(fields) == 604
    for p, n in fields:
        F = FqField(p, n)  # a fresh field builds its own tables
        F.one()
        assert type(F) is _LogField and (F._zech is None) == (p == 2)
        assert (F._antilog, F._log, F._zech) == _reference_log_tables(F), (p, n)


@pytest.mark.parametrize("p,n", [(2, 14), (3, 9), (2, 15), (181, 2), (32749, 1)])
def test_log_tables_of_large_log_tier_fields(p, n):
    F = FqField(p, n)
    F.one()
    assert type(F) is _LogField and (F._zech is None) == (p == 2)
    assert (F._antilog, F._log, F._zech) == _reference_log_tables(F)


@pytest.mark.parametrize("p,n,mb", [(2, 15, 2.0), (7, 5, 2.9)])
def test_log_tier_tables_keep_one_int_per_value(p, n, mb):
    # what a fresh field retains after its first element and its row steps,
    # by tracemalloc: _log (and _zech for odd p) hold _antilog's int objects,
    # and a p = 2 field builds neither a Zech nor a slot table
    make_field(p, n).one()  # the modulus search, cached per (p, n), is not traced
    F = FqField(p, n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        F.one()
        F._row_steps()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= mb * 1e6, retained
    ids = {*map(id, F._antilog), *map(id, F._log)}
    assert len(ids) == F.order + 1  # the values -1 to q - 1, one object each
    assert F._zech is None if p == 2 else ids.issuperset(map(id, F._zech))


@pytest.mark.parametrize("n", range(1, 16))
def test_binary_log_tier_sums_match_tuple_reference(n):
    # _add of characteristic 2, the log of the XOR of two indices, on every
    # pair up to F_2^6 and on 2000 seeded pairs past it, zero included;
    # a + a = 0 for every a
    F = make_field(2, n)
    F.one()
    assert type(F) is _LogField and F._zech is None
    ref = TupleField(F)
    if n <= 6:
        pairs = [(i, j) for i in range(F.order) for j in range(F.order)]
    else:
        rng = random.Random(n)

        def draw():  # the zero index about one time in ten
            return 0 if rng.random() < 0.1 else rng.randrange(F.order)
        pairs = [(draw(), draw()) for _ in range(2000)]
    for i, j in pairs:
        a, b = F._index_v(i), F._index_v(j)
        assert F._index(F._add(a, b)) == ref.index(ref.add(ref.from_index(i), ref.from_index(j)))
        assert F._add(a, a) == -1


# fields past the log-table limit, each against the tuple reference: among
# them a prime field and an n = 2 field, where inversion is the shortest,
# F_3^12 and F_5^8, which invert through norms in F_3^4 and F_5^2, and
# F_257^2, whose prime has no subfield of at most 256 elements to take the
# norm to but F_257 itself
PACKED_FIELDS = [(2, 16), (2, 20), (3, 12), (5, 7), (2, 32), (65537, 1), (191, 2), (5, 8),
                 (257, 2)]


@pytest.mark.parametrize("p,n", PACKED_FIELDS)
def test_packed_element_arithmetic_matches_tuple_reference(p, n):
    F = make_field(p, n)
    assert F.order > _LOG_TABLE_MAX
    ref = TupleField(F)
    rng = random.Random(p * 600 + n)
    special = [F.zero(), F.one(), -F.one(), F.gen()]
    xs = special + _random_elems(F, rng, 300)
    ys = special[::-1] + _random_elems(F, rng, 300)
    for a, b in zip(xs, ys):
        ta, tb = a.coeffs, b.coeffs
        assert (a * b).coeffs == ref.mul(ta, tb)
        assert (a + b).coeffs == ref.add(ta, tb)
        assert (a - b).coeffs == ref.sub(ta, tb)
        assert (-a).coeffs == ref.neg(ta)
        assert (a + -a).is_zero()
    assert F.gen() ** (F.order - 1) == F.one()
    for a in xs:
        image = a.coeffs
        for k in range(n):
            assert frobenius(F, k)(a).coeffs == image
            image = ref.frob(image, 1)
        assert image == a.coeffs  # frob^n is the identity
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
            continue
        inv = a.inverse()
        assert inv.coeffs == ref.inv(a.coeffs) and ref.mul(inv.coeffs, a.coeffs) == ref.one
        assert a * inv == F.one()
        for e in (-2, 0, 1, 3, 1000):
            assert (a**e).coeffs == ref.pow(a.coeffs, e)


@pytest.mark.parametrize("p,n", [(2, 64), (3, 40)])
def test_cap_field_inverse_matches_tuple_reference(p, n):
    # at the field-order cap, where the Frobenius chain of an inverse is longest
    F = FqField(p, n)
    assert F == make_field(p, n) and F.order <= FIELD_ORDER_MAX < F.order * p
    ref = TupleField(F)
    rng = random.Random(p * 800 + n)
    xs = [F.one(), -F.one(), F.gen(), F.element(p - 1), F.element([0] * (n - 1) + [1])]
    for a in xs + _random_elems(F, rng, 60):
        if a.is_zero():
            continue
        inv = a.inverse()
        assert inv.coeffs == ref.inv(a.coeffs)
        assert a * inv == F.one() and inv.inverse() == a
        for e in (-1, -3):
            assert (a**e).coeffs == ref.pow(a.coeffs, e)
    # one column matrix per Frobenius power of the chain: at most one per
    # binary digit of n - 1, and frob itself
    assert len(F._frob_cols) <= (n - 1).bit_length() + 1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 191, 251, 257, 65537, (1 << 61) - 1])
def test_slot_reduction_at_its_extremes(p):
    # _canon's one multiply per third of the slots, on all 2n slots of a
    # product, and the byte reads of _read and _combine, against
    # slot-by-slot % p, for every n up to the order cap: random slots of
    # every size, every slot at 2^w - 1, and every slot at the largest
    # multiple of p below 2^w and one less
    rng = random.Random(p)
    n = 1
    while p**n <= FIELD_ORDER_MAX:
        F = FqField(p, n)
        w = F._w
        mask = (1 << w) - 1
        top = mask // p * p
        cases = [[mask] * 2 * n, [top] * 2 * n, [top - 1] * 2 * n]
        cases += [[rng.randrange(1 << rng.randrange(1, w + 1)) for _ in range(2 * n)]
                  for _ in range(30)]
        for slots in cases:
            canon = F._canon(sum(t << w * i for i, t in enumerate(slots)))
            digits = [t % p for t in slots]
            assert canon == sum(d << w * i for i, d in enumerate(digits)), (n, slots)
            assert F._pack(digits) == canon
            low = canon & F._low
            assert list(F._read(low)) == digits[:n] and F._pack(digits[:n]) == low
            cols = [rng.randrange(1 << 64) for _ in range(n)]
            assert F._combine(low, cols) == sum(c * d for c, d in zip(cols, digits))
        n += 1


@pytest.mark.parametrize("p,n", [(2, 4), (3, 3), (7, 2), (2, 15), (2, 16), (3, 12), (5, 7), (257, 2)])
def test_element_io_round_trip_in_both_tiers(p, n):
    F = make_field(p, n)
    ref = TupleField(F)
    rng = random.Random(p * 700 + n)
    for idx in [0, 1, p, F.order - 1] + [rng.randrange(F.order) for _ in range(50)]:
        t = ref.from_index(idx)
        x = F.from_index(idx)
        assert x.coeffs == t and x.to_json() == list(t) and x.index() == idx
        assert F.element(list(t)) == x and F.element(x.to_json()) == x
        assert repr(x) == f"FqElem({p}^{n}, {list(t)})"
    # an int is a constant; a longer vector is reduced modulo the modulus
    assert F.element(p + 1).coeffs == ref.one
    long = [rng.randrange(p) for _ in range(2 * n + 1)]
    rem = tuple_field.divmod_poly(long, list(F.modulus), p)[1]
    assert F.element(long).coeffs == tuple(rem + [0] * (n - len(rem)))
    assert F.from_index(F.order + 5) == F.from_index(5)


def test_galois_group_examples():
    F4, F8, F16, F64 = (make_field(2, k) for k in (2, 3, 4, 6))
    G = galois_group(F16, F4)
    assert len(G) == 2
    assert G[0].k == 2 and G[1].k == 0  # generator listed first
    assert len(galois_group(F64, F4)) == 3
    assert len(galois_group(F8, F8)) == 1
    with pytest.raises(ValueError, match="no embedding"):
        galois_group(F16, F8)


def test_galois_group_fixed_points_are_exactly_the_subfield():
    for p, n, m in ((2, 8, 4), (2, 12, 6), (3, 6, 2), (5, 4, 2)):
        L, K = make_field(p, n), make_field(p, m)
        emb = embed_subfield(K, L)  # the oracle for the subfield's elements
        gen = galois_group(L, K)[0]
        fixed = {x for x in L.elements() if gen(x) == x}
        assert fixed == emb.image_set()


def test_restrict_aut_examples():
    F4, F16 = make_field(2, 2), make_field(2, 4)
    emb = embed_subfield(F4, F16)
    assert restrict_aut(frobenius(F16, 2), F4).k == 0  # fixes F_4 pointwise
    assert restrict_aut(frobenius(F16, 1), F4).k == 1
    assert restrict_aut(frobenius(F16, 0), F4).k == 0
    with pytest.raises(ValueError, match="no embedding"):
        restrict_aut(frobenius(F4, 1), F16)
    # pointwise check of the restriction on every subfield element
    fr2 = frobenius(F16, 2)
    for x in F4.elements():
        assert fr2(emb.map(x)) == emb.map(x)
    fr1 = frobenius(F16, 1)
    sig = frobenius(F4, 1)
    for x in F4.elements():
        assert fr1(emb.map(x)) == emb.map(sig(x))


def test_restrict_aut_is_group_hom():
    L, K = make_field(2, 8), make_field(2, 4)
    for i in range(8):
        for j in range(8):
            lhs = restrict_aut(frobenius(L, i).compose(frobenius(L, j)), K)
            rhs = restrict_aut(frobenius(L, i), K).compose(restrict_aut(frobenius(L, j), K))
            assert lhs == rhs


def test_embedding_rejects_bad_degrees():
    with pytest.raises(ValueError):
        embed_subfield(make_field(2, 3), make_field(2, 4))
    with pytest.raises(ValueError):
        embed_subfield(make_field(3, 1), make_field(2, 4))


def test_embedding_is_ring_hom_random_pairs():
    rng = random.Random(12)
    K, L = make_field(3, 2), make_field(3, 6)
    emb = embed_subfield(K, L)
    els = list(K.elements())
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert emb.map(a * b) == emb.map(a) * emb.map(b)
        assert emb.map(a + b) == emb.map(a) + emb.map(b)


def test_embedding_image_sizes():
    K, L = make_field(2, 3), make_field(2, 6)
    emb = embed_subfield(K, L)
    assert len(emb.image_set()) == 8
    assert emb.degree == 2


def test_large_field_embedding():
    # past the log-table limit: the root is found by equal-degree splitting
    K = make_field(3, 2)
    L = make_field(3, 16)
    emb = embed_subfield(K, L)
    g = emb.image_of_gen
    acc = L.zero()
    for c in reversed(K.modulus):
        acc = acc * g + L.element(c)
    assert acc.is_zero()


@pytest.mark.parametrize("m,n", [(4, 16), (5, 20)])
def test_characteristic_two_roots_split_by_traces(monkeypatch, m, n):
    # roots in F_2^n come from equal-degree splitting, whose p = 2 branch
    # separates roots by trace maps
    from skewgalois import orepoly

    traces = []
    trace = orepoly._trace

    def counting_trace(h, f):
        traces.append(h)
        return trace(h, f)

    monkeypatch.setattr(orepoly, "_trace", counting_trace)
    K, L = make_field(2, m), make_field(2, n)
    roots = roots_in_field(list(K.modulus), L)
    assert traces
    for r in roots:
        acc = L.zero()
        for c in reversed(K.modulus):
            acc = acc * r + L.element(c)
        assert acc.is_zero()
    assert len(set(roots)) == len(roots) == m
    frob = frobenius(L, 1)
    assert {frob(r) for r in roots} == set(roots)
    emb = embed_subfield(K, L)
    assert emb.image_of_gen == min(roots, key=lambda r: r.coeffs[::-1])


def test_roots_in_field_counts():
    L = make_field(2, 4)
    # x^2+x+1 splits into two roots in F_16
    roots = roots_in_field([1, 1, 1], L)
    assert len(roots) == 2
    for r in roots:
        assert (r * r + r + L.one()).is_zero()


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (2, 12)])
def test_roots_in_field_against_evaluation_at_every_element(monkeypatch, p, n):
    # small fields run the one splitter too: no element scan below some order
    from skewgalois import orepoly

    splits = []
    split = orepoly._split_linear

    def counting_split(f):
        splits.append(f.degree)
        return split(f)

    monkeypatch.setattr(orepoly, "_split_linear", counting_split)
    L = make_field(p, n)
    rng = random.Random(p**n)
    # each subfield's modulus splits in L, and its square has every root
    # twice; the random ones have unreduced coefficients, leading ones not 1
    cases = [list(make_field(p, d).modulus) for d in range(2, n + 1) if n % d == 0]
    cases += [[rng.randrange(-2 * p, 2 * p) for _ in range(rng.randrange(1, 6))] + [rng.randrange(1, p)]
              for _ in range(3)]
    cases.append(tuple_field.mul(cases[0], cases[0], p))  # every root twice
    elements = list(L.elements())
    for f in cases:
        want = []
        for x in elements:
            acc = L.zero()
            for c in reversed(f):
                acc = acc * x + L.element(c)
            if acc.is_zero():
                want.append(x)
        got = roots_in_field(f, L)
        assert got == want == sorted(want, key=lambda r: r.coeffs[::-1]), f
    assert max(splits) >= 2  # a modulus with roots was split, not scanned
