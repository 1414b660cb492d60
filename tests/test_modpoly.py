import ast
import os
import random

import pytest
import tuple_field as ref
from tuple_field import xgcd

from skewgalois import modpoly as mp

# the kernel's slot widths: one byte and several, the byte-read limit 256
# on either side, and a 61-bit prime whose slots are wider than a machine word
PRIMES = [2, 3, 251, 257, 65537, (1 << 61) - 1]


def rand_poly(rng, p, max_deg):
    return ref.normalize([rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))], p)


def rand_monic(rng, p, n):
    return [rng.randrange(p) for _ in range(n)] + [1]


def packed(R, f):
    return R._pack(mp.normalize(f, R.p))


def unpacked(R, v):
    """The coefficient list of a canonical packed value."""
    return [v >> R._w * i & R._mask for i in range(R._deg(v) + 1)]


def packed_gcd(f, g, p):
    """The packed kernel's monic gcd of two lists, as a list."""
    R = mp.QuotientRing(p, max(len(f), len(g), 1))
    return unpacked(R, R._gcd(packed(R, f), packed(R, g)))


def test_oracle_imports_nothing_from_the_package():
    # the list oracle and the twisted-ring reference built on it must not
    # share code with what they check
    for name in ("tuple_field.py", "ore_reference.py"):
        path = os.path.join(os.path.dirname(__file__), name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names.append(node.module or "")
        assert not [n for n in names if n.split(".")[0] == "skewgalois"], (name, names)


def test_mul_matches_schoolbook():
    # a packed product, canonical, is the convolution taken mod p
    rng = random.Random(1)
    for p in PRIMES:
        R = mp.QuotientRing(p, 6)
        for _ in range(60):
            f, g = rand_poly(rng, p, 5), rand_poly(rng, p, 5)
            got = unpacked(R, R._canon(packed(R, f) * packed(R, g)))
            out = [0] * (len(f) + len(g) + 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    out[i + j] = (out[i + j] + a * b) % p
            assert got == ref.normalize(out, p) == ref.mul(f, g, p)


@pytest.mark.parametrize("p", PRIMES)
def test_products_and_powers_mod_a_modulus_match_the_oracle(p):
    # _reduce of a product and _pow against list products reduced by the
    # oracle's division, for random moduli of several degrees
    rng = random.Random(p)
    for n in (1, 2, 3, 7, 12):
        m = rand_monic(rng, p, n)
        R, _ = mp._ring(m, p)
        for _ in range(8):
            f, g = rand_poly(rng, p, n - 1), rand_poly(rng, p, n - 1)
            a, b = packed(R, f), packed(R, g)
            want = ref.divmod_poly(ref.mul(f, g, p), m, p)[1]
            assert unpacked(R, R._reduce(a * b)) == want, (n, f, g)
            e = rng.choice([0, 1, 2, p, rng.randrange(1 << 70)])
            assert unpacked(R, R._pow(a, e)) == ref.pow_mod(f, e, m, p), (n, f, e)


def test_divmod_roundtrip():
    # dividends of up to 2n slots, against the oracle's division
    rng = random.Random(2)
    for p in PRIMES:
        R = mp.QuotientRing(p, 10)
        for _ in range(60):
            f, g = rand_poly(rng, p, 19), rand_poly(rng, p, 9)
            if not g:
                continue
            q, r = R._divmod(packed(R, f), packed(R, g))
            assert R._deg(r) < mp.degree(g)
            assert ref.add(ref.mul(unpacked(R, q), g, p), unpacked(R, r), p) == f
            assert [unpacked(R, q), unpacked(R, r)] == list(ref.divmod_poly(f, g, p)), (f, g)


def test_gcd_divides_both():
    # random pairs, and pairs with a random common factor, against the
    # oracle's Euclid
    rng = random.Random(3)
    for p in PRIMES:
        for _ in range(40):
            f, g = rand_poly(rng, p, 8), rand_poly(rng, p, 8)
            if rng.random() < 0.5:
                c = rand_poly(rng, p, 3)
                f, g = ref.mul(f, c, p), ref.mul(g, c, p)
            if not f and not g:
                continue
            d = packed_gcd(f, g, p)
            assert d[-1] == 1 and d == ref.gcd(f, g, p), (f, g)
            for h in (f, g):
                if h:
                    assert not ref.divmod_poly(h, d, p)[1]


def test_xgcd_bezout_identity():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        # zero polynomials, and coprime pairs (two distinct irreducibles)
        irr = mp.least_irreducible(p, 3)
        cases = [([], []), ([], [2, 1]), ([0, 3, 1], []), (irr, [1, 1]), ([1], irr)]
        cases += [(rand_poly(rng, p, 7), rand_poly(rng, p, 5)) for _ in range(100)]
        for f, g in cases:
            f, g = ref.normalize(f, p), ref.normalize(g, p)
            d, s, t = xgcd(f, g, p)
            assert ref.add(ref.mul(s, f, p), ref.mul(t, g, p), p) == d
            assert d == packed_gcd(f, g, p) if (f or g) else d == []
            if mp.degree(g) < mp.degree(f):
                assert mp.degree(t) < mp.degree(f) - mp.degree(d)
        assert xgcd(irr, [1, 1], p)[0] == [1]


def test_irreducible_matches_bruteforce():
    # brute force: monic f of degree n irreducible iff no monic divisor of degree 1..n-1
    for p in (2, 3):
        for n in (2, 3, 4):
            monics = []
            for idx in range(p**n):
                f = mp._monic_from_index(idx, n, p)
                monics.append(f)
            lower = []
            for d in range(1, n):
                for idx in range(p**d):
                    lower.append(mp._monic_from_index(idx, d, p))
            for f in monics:
                brute = all(ref.divmod_poly(f, g, p)[1] for g in lower)
                assert mp.is_irreducible(f, p) == brute, (p, f)


def test_ben_or_matches_the_divisor_test():
    for p, n in ((2, 8), (2, 10), (3, 5), (5, 4)):
        count = 0
        for idx in range(p**n):
            f = mp._monic_from_index(idx, n, p)
            got = mp.is_irreducible(f, p)
            assert got == ref.is_irreducible(f, p), (p, f)
            count += got
        # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles
        assert count == {(2, 8): 30, (2, 10): 99, (3, 5): 48, (5, 4): 150}[p, n]
    # random monics, and products of two random monics
    rng = random.Random(6)
    for p in PRIMES:
        for _ in range(12):
            f = rand_monic(rng, p, rng.randrange(1, 7))
            if rng.random() < 0.3:
                f = ref.mul(f, rand_monic(rng, p, rng.randrange(1, 4)), p)
            assert mp.is_irreducible(f, p) == ref.is_irreducible(f, p), (p, f)


def test_least_irreducible_known():
    assert mp.least_irreducible(2, 1) == [0, 1]
    assert mp.least_irreducible(2, 2) == [1, 1, 1]
    assert mp.least_irreducible(2, 3) == [1, 1, 0, 1]  # x^3+x+1
    assert mp.least_irreducible(3, 1) == [0, 1]
    assert mp.least_irreducible(5, 2) == [2, 0, 1]  # x^2+2 irreducible mod 5
    # splitcon.build_local_poly reads the root of a degree-1 auxiliary's factor off it
    assert all(mp.least_irreducible(p, 1) == [0, 1] for p in (5, 4099, 1000003, (1 << 61) - 1))


def test_ddf_pattern_products():
    # assemble squarefree products with known factor degrees and recover them
    for p in (2, 3, 5, 251, (1 << 61) - 1):
        irr = {d: mp.least_irreducible(p, d) for d in (1, 2, 3)}
        f = ref.mul(irr[2], irr[3], p)
        assert mp.ddf_pattern(f, p) == [2, 3]
        # product of distinct linears
        lin = [1]
        count = min(p, 3)
        for r in range(count):
            lin = ref.mul(lin, [(-r) % p, 1], p)
        assert mp.ddf_pattern(lin, p) == [1] * count
        assert mp.ddf_pattern(ref.mul(lin, f, p), p) == [1] * count + [2, 3]


def test_ddf_pattern_is_partition():
    # random squarefree inputs, not monic, against the oracle's
    # distinct-degree factorization
    rng = random.Random(9)
    for _ in range(160):
        p = rng.choice([2, 3, 5, 7, 11] + PRIMES)
        f = rand_poly(rng, p, 12 if p < 1 << 20 else 6)
        if mp.degree(f) < 1:
            continue
        if not mp.is_squarefree(f, p):
            continue
        pattern = mp.ddf_pattern(f, p)
        assert sum(pattern) == mp.degree(f)
        assert pattern == ref.ddf_pattern(f, p), (p, f)


def test_roots_mod_p():
    # roots of x^2 - 1 mod 8-ish primes
    assert mp.roots_mod_p([4, 0, 1], 5) == [1, 4]  # x^2 + 4 = x^2 - 1 mod 5
    assert mp.roots_mod_p([1, 0, 1], 3) == []
    # large-p path goes through equal-degree splitting
    big = 10007
    f = ref.mul([(-3) % big, 1], [(-77) % big, 1], big)
    assert mp.roots_mod_p(f, big) == [3, 77]
    assert mp.roots_mod_p([5], big) == [] and mp.roots_mod_p([3, 2], big) == [(-3) * pow(2, -1, big) % big]


@pytest.mark.parametrize("p", [(1 << 31) - 1, (1 << 61) - 1])
def test_roots_mod_p_large_p_many_roots(p):
    # 10 to 20 known roots times an irreducible quadratic, scaled so that f
    # is not monic: the splitter must find every root and only those
    rng = random.Random(p)
    quad = mp.least_irreducible(p, 2)
    for count in (10, 13, 20):
        roots = sorted(rng.sample(range(1, p - 1), count - 2) + [0, p - 1])
        f = [rng.randrange(1, p)]
        for r in roots:
            f = ref.mul(f, [(-r) % p, 1], p)
        assert mp.roots_mod_p(f, p) == roots
        assert mp.roots_mod_p(ref.mul(f, quad, p), p) == roots
    assert mp.roots_mod_p(quad, p) == []


def _eval_mod(f, x, p):
    y = 0
    for c in reversed(f):
        y = (y * x + c) % p
    return y


@pytest.mark.parametrize("p", [2, 3, 5, 7, 4093, 4099])
def test_roots_mod_p_against_evaluation_at_every_residue(monkeypatch, p):
    # one splitter for every p: no residue scan below some size
    from skewgalois import orepoly

    calls = []
    roots = orepoly.untwisted_roots
    monkeypatch.setattr(orepoly, "untwisted_roots", lambda f: calls.append(f) or roots(f))
    rng = random.Random(p)
    cases = [[rng.randrange(-3 * p, 3 * p) for _ in range(rng.randrange(1, 9))] for _ in range(6)]
    for _ in range(4):  # repeated roots, a non-monic unit factor, unreduced coefficients
        f = [rng.randrange(1, p) + p * rng.randrange(-2, 3)]
        for r in [rng.randrange(p) for _ in range(rng.randrange(1, 5))] * rng.randrange(1, 3):
            f = ref.mul(f, [(-r) % p, 1], p)
        cases.append([c + p * rng.randrange(-2, 3) for c in f])
    cases.append([0, -1] + [0] * (p - 2) + [1] if p < 10 else [rng.randrange(1, p)])  # x^p - x
    cases = [f for f in cases if any(c % p for c in f)]
    for f in cases:
        assert mp.roots_mod_p(f, p) == [x for x in range(p) if _eval_mod(f, x, p) == 0], f
    assert len(calls) == len(cases)
    for zero in ([], [0], [p, -2 * p, 0]):
        with pytest.raises(ValueError):
            mp.roots_mod_p(zero, p)


def test_roots_mod_p_runs_the_orepoly_splitter(monkeypatch):
    from skewgalois import orepoly

    degrees = []
    split = orepoly._split_linear

    def counting_split(f):
        degrees.append(f.degree)
        return split(f)

    monkeypatch.setattr(orepoly, "_split_linear", counting_split)
    p = (1 << 61) - 1
    f = ref.mul([(-3) % p, 1], [(-77) % p, 1], p)
    assert mp.roots_mod_p(f, p) == [3, 77]
    assert degrees[0] == 2 and sorted(degrees[1:]) == [1, 1]


def test_least_irreducible_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def irreducible(f, p):
        return sympy.Poly(list(reversed(f)), x, modulus=p).is_irreducible

    for p, n in ((2, 1), (2, 5), (2, 12), (3, 4), (3, 7), (5, 5), (7, 3), (13, 3),
                 (61, 2), (4093, 1), (2, 40), (3, 25), (5, 15), (65537, 2)):
        idx = mp._least_irreducible_index(p, n)
        assert irreducible(mp.least_irreducible(p, n), p), (p, n)
        if p**n <= 4096:
            # every candidate of lower index is reducible
            for lower in range(idx):
                assert not irreducible(mp._monic_from_index(lower, n, p), p), (p, n, lower)


def test_ddf_pattern_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(11)
    checked = 0
    while checked < 60:
        p = rng.choice([2, 3, 5, 7, 251, 257, 65537])
        f = rand_poly(rng, p, 14)
        if mp.degree(f) < 1 or not mp.is_squarefree(f, p):
            continue
        _, factors = sympy.Poly(list(reversed(f)), x, modulus=p).factor_list()
        want = sorted(g.degree() for g, e in factors for _ in range(e))
        assert mp.ddf_pattern(f, p) == want, (p, f)
        checked += 1
