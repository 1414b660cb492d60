import random
import time
from fractions import Fraction

import pytest

from skewgalois.quat import (
    INFINITY,
    QUAT_I,
    QUAT_J,
    QUAT_K,
    QUAT_ONE,
    Quaternion,
    QuadraticField,
    hilbert_minus_one_places,
    is_division_ring,
    level_local,
    parse_field_descriptor,
    theorem13_feasible,
    two_adic_three_square_scan,
)


def rand_quat(rng):
    return Quaternion.of(*[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)])


def test_hamilton_relations():
    assert QUAT_I * QUAT_I == -QUAT_ONE
    assert QUAT_J * QUAT_J == -QUAT_ONE
    assert QUAT_K * QUAT_K == -QUAT_ONE
    assert (QUAT_I * QUAT_J) * QUAT_K == -QUAT_ONE
    # the full table of the nine unit products
    table = {
        ("i", "j"): QUAT_K, ("j", "k"): QUAT_I, ("k", "i"): QUAT_J,
        ("j", "i"): -QUAT_K, ("k", "j"): -QUAT_I, ("i", "k"): -QUAT_J,
        ("i", "i"): -QUAT_ONE, ("j", "j"): -QUAT_ONE, ("k", "k"): -QUAT_ONE,
    }
    units = {"i": QUAT_I, "j": QUAT_J, "k": QUAT_K}
    for (a, b), want in table.items():
        assert units[a] * units[b] == want


def test_mul_conj_norm_inv_examples():
    assert QUAT_I * QUAT_J == QUAT_K
    assert Quaternion.of(1, 1) * Quaternion.of(1, -1) == Quaternion.of(2)
    assert QUAT_I.inverse() == -QUAT_I
    assert Quaternion.of(1, 2, 3, 4).conj() == Quaternion.of(1, -2, -3, -4)
    assert Quaternion.of(1, 2, 3, 4).norm() == 30
    with pytest.raises(ZeroDivisionError):
        Quaternion.of(0).inverse()


def test_norm_multiplicative_random():
    rng = random.Random(11)
    for i in range(10_000):
        x, y = rand_quat(rng), rand_quat(rng)
        assert (x * y).norm() == x.norm() * y.norm()
        if i % 10 == 0 and x.norm() != 0:
            assert x * x.inverse() == QUAT_ONE


def test_conj_is_antiautomorphism():
    rng = random.Random(12)
    for _ in range(300):
        x, y = rand_quat(rng), rand_quat(rng)
        assert (x * y).conj() == y.conj() * x.conj()
        assert x * x.conj() == Quaternion.of(x.norm())


def test_level_local_small_primes():
    r = level_local(5)
    assert r.level == 1 and (r.witness["x"] ** 2 + 1) % 5 == 0
    r = level_local(3)
    assert r.level == 2 and (r.witness["x"] ** 2 + r.witness["y"] ** 2 + 1) % 3 == 0
    r = level_local(13)
    assert r.level == 1
    r = level_local(7)
    assert r.level == 2
    assert level_local("REAL").level == INFINITY


def test_level_local_two():
    r = level_local(2)
    assert r.level == 4
    scan = r.witness["no_three_squares_mod"]
    assert scan["excluded"] and scan["modulus"] == 16
    vec = r.witness["four_squares"]["vector"]
    assert sum(x * x for x in vec) % 16 == 15
    assert any(x % 2 for x in vec)


def test_three_square_scan_rederivation():
    scan = two_adic_three_square_scan()
    assert scan["excluded"]
    # sanity: without the unit condition, 0 is trivially a sum of squares
    sums = {(x * x + y * y + z * z) % 16 for x in range(16) for y in range(16) for z in range(16)}
    assert 15 not in sums  # -1 mod 16 unreachable by any three squares


def test_feasibility_fixtures():
    assert theorem13_feasible("Q").feasible
    assert theorem13_feasible("Q").witness_place == "REAL"
    assert not theorem13_feasible("Q(sqrt:-1)").feasible
    assert theorem13_feasible("Q(sqrt:2)").feasible
    # 2 splits in Q(sqrt -7), so a completion is Q_2 itself
    r = theorem13_feasible("Q(sqrt:-7)")
    assert r.feasible and r.witness_place == 2


def test_feasibility_infeasible_cases_carry_witnesses():
    for m in (-1, -2, -3, -5, -6, -10, -11):
        r = theorem13_feasible(f"Q(sqrt:{m})")
        assert not r.feasible
        w = r.detail["two_square_witness"]
        assert w is not None
        # verify the witness arithmetic in the quadratic order mod 2^k
        mod = w["modulus"]
        half = m % 4 == 1
        def sq(a, b):
            if half:
                c = (m - 1) // 4
                return ((a * a + b * b * c) % mod, (2 * a * b + b * b) % mod)
            return ((a * a + b * b * m) % mod, (2 * a * b) % mod)
        x0, x1 = sq(*w["x"])
        y0, y1 = sq(*w["y"])
        assert (x0 + y0 + 1) % mod == 0 and (x1 + y1) % mod == 0


def test_division_ring_fixtures():
    assert is_division_ring("Q").feasible
    assert not is_division_ring("Q(sqrt:-1)").feasible
    assert is_division_ring("Q(sqrt:-7)").feasible
    assert is_division_ring("Q(sqrt:2)").feasible
    d = is_division_ring("Q(sqrt:-2)")
    assert not d.feasible


def test_division_ring_bounded_height_cross_check():
    # Q(sqrt -2) splits: -1 = 1^2 + (sqrt-2)^2 exists at tiny height
    found = None
    for a in range(-3, 4):
        for b in range(-3, 4):
            for c in range(-3, 4):
                for d in range(-3, 4):
                    # (a + b w)^2 + (c + d w)^2 with w^2 = -2
                    re = a * a - 2 * b * b + c * c - 2 * d * d
                    im = 2 * (a * b + c * d)
                    if re == -1 and im == 0:
                        found = (a, b, c, d)
    assert found is not None
    # Q(sqrt -7) is a division-ring base: the bounded search over
    # half-integer coordinates (a+bw)/2 finds no two-square sum equal to -1
    for a in range(-6, 7):
        for b in range(-6, 7):
            if (a - b) % 2:
                continue
            for c in range(-6, 7):
                for d in range(-6, 7):
                    if (c - d) % 2:
                        continue
                    re = a * a - 7 * b * b + c * c - 7 * d * d
                    im = 2 * (a * b + c * d)
                    assert not (re == -4 and im == 0), (a, b, c, d)


def test_hilbert_symbol_parity():
    for K in ("Q", "Q(sqrt:-1)", "Q(sqrt:2)", "Q(sqrt:-7)", "Q(sqrt:-2)", "Q(sqrt:5)", "Q(sqrt:-5)"):
        places = hilbert_minus_one_places(K)
        assert len(places) % 2 == 0, (K, places)
    assert set(hilbert_minus_one_places("Q")) == {"REAL", 2}


def test_field_descriptor_validation():
    assert parse_field_descriptor("Q") == "Q"
    K = parse_field_descriptor("Q(sqrt:-7)")
    assert K.m == -7 and K.two_splits()
    with pytest.raises(ValueError):
        parse_field_descriptor("Q(sqrt:4)")  # not squarefree
    with pytest.raises(ValueError):
        parse_field_descriptor("Q(sqrt:12)")
    with pytest.raises(ValueError):
        parse_field_descriptor("Z")
    with pytest.raises(ValueError):
        QuadraticField(1)


def test_squarefree_check_near_the_cap():
    start = time.perf_counter()
    assert QuadraticField(999999999937).m == 999999999937  # prime
    assert QuadraticField(-999999999937).m == -999999999937
    with pytest.raises(ValueError, match="not squarefree"):
        QuadraticField(999966000289)  # 999983^2
    with pytest.raises(ValueError, match="not squarefree"):
        QuadraticField(-4 * 249999999983)  # 4 times a prime
    assert time.perf_counter() - start < 1.0


def test_splitting_classification():
    assert QuadraticField(17).two_splits()
    assert not QuadraticField(-7).two_ramifies()
    assert QuadraticField(-5).two_ramifies()   # -5 = 3 mod 4
    assert QuadraticField(-2).two_ramifies()
    assert not QuadraticField(-3).two_splits() and not QuadraticField(-3).two_ramifies()


def test_level_result_json():
    data = level_local(5).to_json()
    assert data["place"] == 5 and data["level"] == 1 and "x" in data["witness"]
