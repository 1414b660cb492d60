import random

from tuple_field import xgcd

from skewgalois import modpoly as mp


def rand_poly(rng, p, max_deg):
    return mp.normalize([rng.randrange(p) for _ in range(rng.randrange(max_deg + 2))], p)


def test_mul_matches_schoolbook():
    rng = random.Random(1)
    for p in (2, 3, 5, 7):
        for _ in range(100):
            f, g = rand_poly(rng, p, 5), rand_poly(rng, p, 5)
            got = mp.mul(f, g, p)
            # brute-force convolution
            out = [0] * (len(f) + len(g) + 1)
            for i, a in enumerate(f):
                for j, b in enumerate(g):
                    out[i + j] = (out[i + j] + a * b) % p
            assert got == mp.normalize(out, p)


def test_divmod_roundtrip():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(200):
            f, g = rand_poly(rng, p, 6), rand_poly(rng, p, 3)
            if not g:
                continue
            q, r = mp.divmod_poly(f, g, p)
            assert mp.degree(r) < mp.degree(g)
            assert mp.add(mp.mul(q, g, p), r, p) == f


def test_gcd_divides_both():
    rng = random.Random(3)
    for p in (2, 5):
        for _ in range(100):
            f, g = rand_poly(rng, p, 5), rand_poly(rng, p, 5)
            if not f and not g:
                continue
            d = mp.gcd(f, g, p)
            for h in (f, g):
                if h:
                    assert not mp.divmod_poly(h, d, p)[1]


def test_xgcd_bezout_identity():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        # zero polynomials, and coprime pairs (two distinct irreducibles)
        irr = mp.least_irreducible(p, 3)
        cases = [([], []), ([], [2, 1]), ([0, 3, 1], []), (irr, [1, 1]), ([1], irr)]
        cases += [(rand_poly(rng, p, 7), rand_poly(rng, p, 5)) for _ in range(100)]
        for f, g in cases:
            f, g = mp.normalize(f, p), mp.normalize(g, p)
            d, s, t = xgcd(f, g, p)
            assert mp.add(mp.mul(s, f, p), mp.mul(t, g, p), p) == d
            assert d == mp.gcd(f, g, p) if (f or g) else d == []
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
                brute = all(mp.divmod_poly(f, g, p)[1] for g in lower)
                assert mp.is_irreducible(f, p) == brute, (p, f)


def _divisor_test_irreducible(f, p):
    """The distinct-degree test: x^(p^n) = x mod f and gcd(x^(p^d) - x, f) = 1
    at every proper divisor d of n = deg f."""
    n = mp.degree(f)
    for d in range(1, n):
        if n % d == 0 and mp.degree(mp.gcd(mp.sub(mp.x_q_pow_mod(f, p, d), [0, 1], p), f, p)):
            return False
    return not mp.sub(mp.x_q_pow_mod(f, p, n), [0, 1], p)


def test_ben_or_matches_the_divisor_test():
    for p, n in ((2, 8), (2, 10), (3, 5), (5, 4)):
        count = 0
        for idx in range(p**n):
            f = mp._monic_from_index(idx, n, p)
            got = mp.is_irreducible(f, p)
            assert got == _divisor_test_irreducible(f, p), (p, f)
            count += got
        # Gauss: (1/n) sum_{d | n} mu(d) p^(n/d) monic irreducibles
        assert count == {(2, 8): 30, (2, 10): 99, (3, 5): 48, (5, 4): 150}[p, n]


def test_least_irreducible_known():
    assert mp.least_irreducible(2, 1) == [0, 1]
    assert mp.least_irreducible(2, 2) == [1, 1, 1]
    assert mp.least_irreducible(2, 3) == [1, 1, 0, 1]  # x^3+x+1
    assert mp.least_irreducible(3, 1) == [0, 1]
    assert mp.least_irreducible(5, 2) == [2, 0, 1]  # x^2+2 irreducible mod 5


def test_ddf_pattern_products():
    # assemble squarefree products with known factor degrees and recover them
    rng = random.Random(4)
    for p in (2, 3, 5):
        irr = {d: mp.least_irreducible(p, d) for d in (1, 2, 3)}
        f = mp.mul(irr[2], irr[3], p)
        assert mp.ddf_pattern(f, p) == [2, 3]
        # product of distinct linears
        lin = [1]
        count = min(p, 3)
        for r in range(count):
            lin = mp.mul(lin, [(-r) % p, 1], p)
        assert mp.ddf_pattern(lin, p) == [1] * count


def test_ddf_pattern_is_partition():
    rng = random.Random(9)
    for _ in range(100):
        p = rng.choice([2, 3, 5, 7, 11])
        f = rand_poly(rng, p, 6)
        if mp.degree(f) < 1:
            continue
        f = mp.scalar_mul(pow(f[-1], -1, p), f, p)
        if not mp.is_squarefree(f, p):
            continue
        pattern = mp.ddf_pattern(f, p)
        assert sum(pattern) == mp.degree(f)


def test_roots_mod_p():
    # roots of x^2 - 1 mod 8-ish primes
    assert mp.roots_mod_p([4, 0, 1], 5) == [1, 4]  # x^2 + 4 = x^2 - 1 mod 5
    assert mp.roots_mod_p([1, 0, 1], 3) == []
    # large-p path goes through equal-degree splitting
    big = 10007
    f = mp.mul([(-3) % big, 1], [(-77) % big, 1], big)
    assert mp.roots_mod_p(f, big) == [3, 77]
