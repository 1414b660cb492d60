import random
import time

import pytest

from skewgalois.zarith import (
    PRIME_BOUND,
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
    assert [n for n in range(10**6) if is_prime(n)] == primes_up_to(10**6 - 1)


PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def _strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x in (1, n - 1) or any(pow(x, 2**r, n) == n - 1 for r in range(1, s))


def test_psi_12_is_refuted_by_base_41():
    # psi_12 = psi_13 does not hold: psi_12 fools every base below 41
    assert all(_strong_probable_prime(PSI_12, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
    assert not _strong_probable_prime(PSI_12, 41)
    assert is_prime(PSI_12) is False


def test_is_prime_refuses_from_the_bound():
    # psi_13 fools all 13 bases, so no answer from it on would be proved
    assert PRIME_BOUND == PSI_13 == 1287836182261 * 2575672364521
    assert all(_strong_probable_prime(PSI_13, a) for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41))
    for n in (PSI_13, PSI_13 + 2, 2**89 - 1, 4 * PSI_13):  # 2^89 - 1 is prime
        with pytest.raises(ValueError, match=f"proved only below {PSI_13}"):
            is_prime(n)
    assert is_prime(2**61 - 1) and not is_prime(PSI_13 - 1)  # answered below it


def test_huge_integer_is_refused_at_once():
    n = 10**4000 + 1
    times = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(ValueError):
            is_prime(n)
        times.append(time.perf_counter() - start)
    assert min(times) < 1e-3


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
    assert valuation(-48, 2) == 4 and valuation(-2 * 3**300, 3) == 300
    with pytest.raises(ValueError):
        valuation(0, 3)


def _reference_valuation(n, p):
    """One division per unit of valuation."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def test_valuation_matches_the_division_loop():
    rng = random.Random(30)
    for _ in range(20000):
        p = rng.choice((2, 3, 5, 7, 11, 101, 65537))
        unit = rng.randrange(1, 10**6)
        n = rng.choice((-1, 1)) * unit * p ** rng.randrange(301)
        assert valuation(n, p) == _reference_valuation(n, p), (n, p)


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
