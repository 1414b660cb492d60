import random

from skewgalois.zarith import (
    centered_rep,
    crt,
    factorize,
    is_prime,
    is_square,
    nearest_rep,
    next_prime,
    prime_power_base,
    primes_up_to,
    sqrt_mod_prime,
    valuation,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_agrees_with_sieve():
    sieve = set(primes_up_to(5000))
    for n in range(2, 5000):
        assert is_prime(n) == (n in sieve)


def test_next_prime():
    assert next_prime(1) == 2
    assert next_prime(2) == 3
    assert next_prime(13) == 17
    assert next_prime(89) == 97


def test_factorize_roundtrip():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 10**6)
        fac = factorize(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factorize_below_2_32_is_trial_division_alone(monkeypatch):
    from skewgalois import zarith

    monkeypatch.setattr(zarith, "_prime_factors", None)  # must not be reached
    rng = random.Random(11)
    for n in [2**32 - 1, 2**32 - 5, 65521 * 65519, 65537] + [rng.randrange(1, 2**32) for _ in range(50)]:
        fac = factorize.__wrapped__(n)
        assert [p for p, _ in fac] == sorted({p for p, _ in fac})
        assert all(is_prime(p) for p, _ in fac)
        assert n == _product(fac)


def _product(fac):
    out = 1
    for p, e in fac:
        out *= p**e
    return out


def test_factorize_splits_large_cofactors_by_rho():
    primes = [next_prime(2**16), next_prime(10**6), next_prime(10**9), next_prime(10**12)]
    cases = [
        ([primes[1], primes[2]], [1, 1]),
        ([primes[0]], [3]),                  # a cube of a prime past the trial bound
        ([2, 3, primes[0], primes[2]], [5, 2, 2, 1]),
        ([primes[2], primes[3]], [1, 1]),
        ([7, primes[1], primes[3]], [1, 2, 1]),
    ]
    for ps, es in cases:
        n = _product(zip(ps, es))
        assert factorize(n) == tuple(zip(ps, es))
    assert factorize(primes[3]) == ((primes[3], 1),)


def test_prime_power_base():
    assert prime_power_base(8) == 2
    assert prime_power_base(81) == 3
    assert prime_power_base(12) is None
    assert prime_power_base(1) is None


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(48, 3) == 1
    assert valuation(7, 2) == 0


def test_crt_pairwise():
    rng = random.Random(6)
    for _ in range(100):
        moduli = [4, 9, 25, 49]
        residues = [rng.randrange(m) for m in moduli]
        x, m = crt(residues, moduli)
        assert m == 4 * 9 * 25 * 49
        for r, mi in zip(residues, moduli):
            assert x % mi == r


def test_centered_and_nearest_rep():
    assert centered_rep(7, 10) == -3
    assert centered_rep(3, 10) == 3
    assert centered_rep(5, 10) == 5  # tie goes positive
    assert nearest_rep(3, 10, 100) == 103
    assert nearest_rep(3, 10, -100) == -97
    # representative stays in the class
    rng = random.Random(7)
    for _ in range(200):
        r, m, t = rng.randrange(50), rng.randrange(2, 50), rng.randrange(-1000, 1000)
        rep = nearest_rep(r, m, t)
        assert rep % m == r % m
        assert abs(rep - t) <= m // 2 + 1


def test_sqrt_mod_prime():
    for p in primes_up_to(200)[1:]:
        squares = {x * x % p for x in range(p)}
        for a in range(p):
            r = sqrt_mod_prime(a, p)
            if a in squares:
                assert r is not None and r * r % p == a
            else:
                assert r is None


def test_is_square():
    for n in range(200):
        assert is_square(n * n)
    assert not is_square(2)
    assert not is_square(-4)
