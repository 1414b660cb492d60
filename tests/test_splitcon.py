import contextlib
import io
import json
import random
import time
from fractions import Fraction

import pytest
import tuple_field
from test_zpoly import _sylvester_det
from tuple_field import xgcd

from skewgalois import cli, modpoly, splitcon, zpoly
from skewgalois.splitcon import (
    DEGREE_MAX,
    REAL,
    LocalSpec,
    SpecError,
    build_local_poly,
    certified_padic_roots,
    certify_local_behavior,
    certify_sn,
    construct_lprime,
    odd_prime_for_case_c,
    parse_spec,
    plan_aux_primes,
    real_root_scale,
    report_from_json,
    required_patterns,
    spec_from_json,
    validate_request,
    verify_report,
    weak_approximation,
)
from skewgalois.zarith import is_prime, primes_up_to, valuation
from skewgalois.zpoly import (
    count_real_roots, discriminant, reduce_mod, zadd, zderivative, zeval, zmul, znormalize,
)


HUGE_SPECS = ("3:rq", "inf:ts", "7:ts:ramL")
SMALL_SPECS = ("3:rq", "7:ts:ramL")


def test_odd_prime_for_case_c_examples():
    assert odd_prime_for_case_c(2) == 7
    assert odd_prime_for_case_c(3) == 13
    assert odd_prime_for_case_c(4) == 3
    with pytest.raises(SpecError):
        odd_prime_for_case_c(6)  # not a prime power


def test_odd_prime_divides():
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 121):
        pp = odd_prime_for_case_c(q)
        assert is_prime(pp) and pp % 2 == 1
        assert (q**3 - 1) % pp == 0
        assert pow(q, 3, pp) == 1


def test_odd_prime_for_case_c_large_q_is_fast():
    # q^2 + q + 1 is prime for q = 10000079 and near 10^24 for q near 10^12
    for q, expected in ((10000079, 11), (999999999989, 7), (10**12 + 39, 3)):
        start = time.process_time()
        assert odd_prime_for_case_c(q) == expected
        assert time.process_time() - start < 1.0


def test_spec_grammar():
    s = parse_spec("3:rq")
    assert s.prime == 3 and s.kind == "rq" and not s.ram_in_L
    s = parse_spec("2:ts:ramL")
    assert s.prime == 2 and s.kind == "ts" and s.ram_in_L
    s = parse_spec("5:ur3")
    assert s.kind == "ur" and s.degree == 3
    s = parse_spec("inf:ts")
    assert s.prime == REAL
    assert parse_spec(s.to_string()) == s
    with pytest.raises(SpecError):
        parse_spec("4:rq")  # not a prime
    with pytest.raises(SpecError):
        parse_spec("inf:rq")
    with pytest.raises(SpecError):
        parse_spec("3:xx")
    # json roundtrip
    s = parse_spec("7:ur2:ramL")
    assert spec_from_json(s.to_json()) == s
    # ram_in_L is read as given, never by truthiness
    for value in ([], "no", 1, None):
        with pytest.raises(SpecError, match="ram_in_L"):
            spec_from_json({"prime": 3, "kind": "rq", "ram_in_L": value})


def test_validate_request_kind_rule():
    # unramified in L: ramified quadratic; ramified in L: totally split;
    # archimedean: totally split
    validate_request([parse_spec("3:rq"), parse_spec("2:ts:ramL"), parse_spec("inf:ts")], 5)
    with pytest.raises(SpecError, match="must be ramified quadratic"):
        validate_request([parse_spec("3:ts")], 5)
    with pytest.raises(SpecError, match="must be totally split"):
        validate_request([parse_spec("2:rq:ramL")], 5)


def test_plan_aux_primes_examples():
    # the ramified-quadratic auxiliary is the least odd prime >= n - 1 that
    # is neither a spec place nor ramified in L
    aux = plan_aux_primes([3, REAL], {3}, 5)
    assert [a.prime for a in aux] == [5, 2, 7, 11]
    assert aux[0].kind == "rq"
    assert [a.degree for a in aux[1:]] == [5, 4, 2]
    aux = plan_aux_primes([], set(), 2)
    assert [a.prime for a in aux] == [3, 2, 5, 7]
    aux = plan_aux_primes([2, 3, 5, 7, 11], set(), 3)
    assert aux[0].prime == 13
    aux = plan_aux_primes([], {2, 3}, 3)
    assert aux[0].prime == 5
    aux = plan_aux_primes([], set(), 20)
    assert [a.prime for a in aux] == [19, 2, 3, 23]
    # n - 1 = 7 a spec place, or ramified in L
    assert plan_aux_primes([7], set(), 8)[0].prime == 11
    assert plan_aux_primes([], {7, 11}, 8)[0].prime == 13
    assert plan_aux_primes([19], {23}, 20)[0].prime == 29


def test_build_local_poly_examples():
    lp = build_local_poly(LocalSpec(5, "ts"), 3, 1)
    assert list(lp.coeffs) == [0, 2, 2, 1]  # (X)(X-1)(X-2) mod 5
    lp = build_local_poly(LocalSpec(3, "rq"), 3, 2)
    assert list(lp.coeffs) == [3, 6, 8, 1]  # (X^2-3)(X-1) mod 9
    lp = build_local_poly(LocalSpec(2, "ur", degree=2), 3, 1)
    assert list(lp.coeffs) == [0, 1, 1, 1]  # (X^2+X+1) X mod 2
    real = build_local_poly(LocalSpec(REAL, "ts"), 3, 0)
    assert list(real.coeffs) == [-6, 11, -6, 1]  # (X-1)(X-2)(X-3)
    with pytest.raises(SpecError):
        build_local_poly(LocalSpec(5, "ur", degree=4), 3, 1)  # degree too small


def test_local_spec_rejects_r3p():
    # the odd-degree ramified kind is not constructed, so no spec has it
    with pytest.raises(SpecError, match="unknown kind"):
        LocalSpec(5, "r3p")
    with pytest.raises(SpecError, match="unknown kind"):
        spec_from_json({"prime": 5, "kind": "r3p", "q": 4})
    with pytest.raises(SpecError):
        parse_spec("5:r3p")


def test_weak_approximation_examples():
    lp5 = build_local_poly(LocalSpec(5, "ts"), 3, 1)
    assert weak_approximation([lp5]) == [0, 2, 2, 1]  # smallest-magnitude reps
    assert weak_approximation([], real_target=[2, -3, 1]) == [2, -3, 1]
    lp2 = build_local_poly(LocalSpec(2, "ur", degree=2), 3, 1)
    Q = weak_approximation([lp2, lp5])
    for lp, m in ((lp2, 2), (lp5, 5)):
        assert all((a - b) % m == 0 for a, b in zip(Q, lp.coeffs))
    assert max(abs(c) for c in Q) <= 5  # centered representatives mod 10


def test_weak_approximation_rejects_bad_input():
    lp5 = build_local_poly(LocalSpec(5, "ts"), 3, 1)
    lp5b = build_local_poly(LocalSpec(5, "ts"), 3, 2)
    with pytest.raises(SpecError):
        weak_approximation([lp5, lp5b])  # duplicate primes
    lp2 = build_local_poly(LocalSpec(2, "ts"), 2, 1)
    with pytest.raises(SpecError):
        weak_approximation([lp5, lp2])  # degree mismatch


def test_weak_approximation_real_scaling():
    # with congruence constraints and a scaled target, real-rootedness holds
    lp5 = build_local_poly(LocalSpec(5, "ts"), 3, 2)
    lp7 = build_local_poly(LocalSpec(7, "ur", degree=2), 3, 2)
    target = [-6, 11, -6, 1]
    Q = weak_approximation([lp5, lp7], real_target=target, root_scale=97)
    assert count_real_roots(Q) == 3
    for lp, m in ((lp5, 25), (lp7, 49)):
        assert all((a - b) % m == 0 for a, b in zip(Q, lp.coeffs))


def test_certify_sn_patterns():
    assert required_patterns(3) == [(3,), (2, 1)]
    assert required_patterns(4) == [(4,), (3, 1), (2, 1, 1)]
    assert required_patterns(2) == [(2,), (1, 1)]
    # n = 3: a cubic irreducible mod 2 and (quadratic)(linear) mod 5 is
    # certified as fully symmetric; the n-cycle and the transposition
    # suffice since the 2-cycle pattern doubles as the (n-1)-cycle
    specs = [LocalSpec(2, "ur", degree=3), LocalSpec(5, "ur", degree=2)]
    locals_ = [build_local_poly(s, 3, 2) for s in specs]
    Q = weak_approximation(locals_)
    cert = certify_sn(Q, specs)
    assert cert.patterns[2] == (3,)
    assert cert.patterns[5] == (2, 1)
    assert cert.conclusion, cert.reasons


def test_certify_sn_negative_cases():
    # not squarefree mod p: conclusion false with a reason
    Q = zmul([0, 1], zmul([0, 1], [1, 1]))  # X^2 (X+1)
    cert = certify_sn(Q, [LocalSpec(2, "ur", degree=3)])
    assert not cert.conclusion
    assert any("squarefree" in r for r in cert.reasons)
    # n = 1: trivially certified
    cert1 = certify_sn([5, 1], [])
    assert cert1.conclusion


def test_certify_local_behavior_examples():
    # Eisenstein at 3
    c = certify_local_behavior([-3, 0, 1], LocalSpec(3, "rq"))
    assert c.passed and c.evidence["v_b"] == 1
    # split into distinct linears mod 5 at the targets 0 and 1
    c = certify_local_behavior([0, -1, 1], LocalSpec(5, "ts"))
    assert c.passed and c.evidence["simple_roots_mod_p"] == [0, 1]
    # X^2 - 1 splits mod 5 too, but at 1 and 4, not at the targets
    c = certify_local_behavior([-1, 0, 1], LocalSpec(5, "ts"))
    assert (c.passed, c.reason) == (False, "Newton's condition fails at target 0")
    # X^2 + 1 has no real roots: its signs cannot alternate, and no count is claimed
    c = certify_local_behavior([1, 0, 1], LocalSpec(REAL, "ts"))
    assert not c.passed and c.evidence == {"degree": 2}


def test_eisenstein_detector_fixture():
    # hand-checked (Q, p, expected) pairs: valuation arithmetic done by hand
    fixture = [
        ([-3, 0, 1], 3, True),           # X^2 - 3: Eisenstein
        ([3, 3, 1], 3, True),            # X^2 + 3X + 3: Eisenstein
        ([-9, 0, 1], 3, False),          # X^2 - 9 = (X-3)(X+3): v(b) = 2
        ([9, 3, 1], 3, False),           # v(b) = 2
        ([-3, 1, 1], 3, False),          # unit linear coefficient: reduction X(X+1)
        ([-2, 0, 1], 2, True),           # X^2 - 2
        ([2, 2, 1], 2, True),            # X^2 + 2X + 2
        ([-4, 0, 1], 2, False),          # v(b) = 2
        ([-5, 0, 1], 5, True),
        ([-25, 0, 1], 5, False),
        ([5, 10, 1], 5, True),           # v(a) = 1 >= 1, v(b) = 1
        ([-6, 0, 1], 3, True),           # v_3(6) = 1
        ([-6, 0, 1], 2, True),           # v_2(6) = 1
        ([-12, 0, 1], 2, False),         # v_2(12) = 2
        ([-12, 0, 1], 3, True),          # v_3(12) = 1
        ([7, 0, 1], 7, True),
        ([-1, 0, 1], 3, False),          # splits mod 3: reduction (X-1)(X+1)
        ([3, 0, 1], 2, False),           # reduction (X+1)^2 mod 2, not X^2
        ([2, 0, 1], 3, False),           # irreducible but unramified at 3
        ([-18, 0, 1], 3, False),         # v_3(18) = 2
    ]
    for coeffs, p, expected in fixture:
        got = certify_local_behavior(coeffs, LocalSpec(p, "rq")).passed
        assert got == expected, (coeffs, p, got, expected)


def test_certify_rq_with_linear_part():
    # (X^2 - 3)(X - 1)(X - 2) exactly: certificate works at full precision
    Q = zmul([-3, 0, 1], zmul([-1, 1], [-2, 1]))
    c = certify_local_behavior(Q, LocalSpec(3, "rq"))
    assert c.passed
    assert len(c.evidence["unramified_part_roots"]) == 2


def test_certified_padic_roots_shared_residue():
    # roots 1 and 3 share the residue class mod 2 and are both certified
    Q = zmul(zmul([-1, 1], [-3, 1]), [1, 0, 1])  # (X-1)(X-3)(X^2+1)
    ok, ev, reason = certified_padic_roots(Q, 2, [1, 3])
    assert ok, reason
    # integer roots are reported with exact lift radius, known mod 2^2 > 3
    assert ev == [{"root": t, "known_mod": "2^2", "lift_radius_valuation": "exact"} for t in (1, 3)]


def test_certified_padic_roots_radius_and_depth():
    # X^2 - 17 at 2, target 1: v(Q(1)) = 4, v(Q'(1)) = 1, radius 3
    assert certified_padic_roots([-17, 0, 1], 2, [1]) == (
        True, [{"root": 1, "known_mod": "2^1", "lift_radius_valuation": 3}], None)
    # no targets: nothing to certify
    assert certified_padic_roots([-3, 0, 1], 3, []) == (True, [], None)


def test_certified_padic_roots_insufficient():
    # X^2 + 1 has no 2-adic roots: v(Q(1)) = v(Q'(1)) = 1
    assert certified_padic_roots([1, 0, 1], 2, [1]) == (False, [], "Newton's condition fails at target 1")


def test_certified_padic_roots_newton_failure_names_its_target():
    # X^2 + X + 1 at 2, target 0: v(Q(0)) = 0 = 2 v(Q'(0)), so the condition
    # fails at equality
    assert certified_padic_roots([1, 1, 1], 2, [0, 1])[2] == "Newton's condition fails at target 0"
    # a double root: Q'(1) = 0
    Q = zmul(zmul([-1, 1], [-1, 1]), [-2, 1])
    assert certified_padic_roots(Q, 5, [2, 1])[2] == "Newton's condition fails at target 1"


def test_certified_padic_roots_separation_failure():
    # X (X - 1) at 2: Newton holds at 0 (exact) and at 4 (radius 2), but
    # v(4 - 0) = 2 reaches the radius 2, so both targets may lift to the root 0
    assert certified_padic_roots([0, -1, 1], 2, [0, 4]) == (
        False, [], "targets 0 and 4 may lift to one root")
    # at 3, v(4 - 0) = 0 is below both radii
    assert certified_padic_roots(zmul([0, -1, 1], [-4, 1]), 3, [0, 4])[0]


def test_newton_check_on_a_huge_valuation_is_fast():
    # Q(t) = 2^14000 at every target: 1.2 s with one division per unit of
    # valuation, under a millisecond by doubling powers
    Q = [1]
    for t in range(20):
        Q = zmul(Q, [-t, 1])
    Q[0] += 2**14000
    start = time.perf_counter()
    ok, ev, _ = certified_padic_roots(Q, 2, range(20))
    assert time.perf_counter() - start < 0.1
    assert ok and [e["root"] for e in ev] == list(range(20))


def test_certify_ur_pattern():
    Q = [1, 1, 0, 1]  # irreducible cubic mod 2
    c = certify_local_behavior(Q, LocalSpec(2, "ur", degree=3))
    assert c.passed and tuple(c.evidence["pattern"]) == (3,)
    c = certify_local_behavior(Q, LocalSpec(2, "ur", degree=2))
    assert not c.passed


def test_construct_lprime_end_to_end():
    specs = [parse_spec("3:rq"), parse_spec("inf:ts")]
    report = construct_lprime(specs, p_kernel=5, n_min=3)
    assert report.n == 4  # smallest even degree >= 3
    result = verify_report(report)
    assert result.ok, result.failures
    assert count_real_roots(list(report.Q)) == report.n
    assert report.disjoint["odd_valuation"]
    v = valuation(discriminant(list(report.Q)), report.aux_specs[0].prime)
    assert v % 2 == 1 and v == report.disjoint["disc_valuation"]


def test_construct_lprime_degenerate_empty_specs():
    report = construct_lprime([], p_kernel=3, n_min=2)
    assert report.n == 2
    assert verify_report(report).ok


def test_construct_lprime_ts_at_two():
    # totally split at 2 forces the lifted-precision root certificates
    specs = [parse_spec("2:ts:ramL")]
    report = construct_lprime(specs, p_kernel=3, n_min=4)
    assert report.n == 4
    check = next(c for c in report.local_checks if c.spec.prime == 2)
    assert check.passed and "padic_roots" in check.evidence
    assert verify_report(report).ok


def test_construct_lprime_validation():
    with pytest.raises(SpecError):
        construct_lprime([], p_kernel=2, n_min=2)  # even kernel prime out of scope
    with pytest.raises(SpecError):
        construct_lprime([LocalSpec(3, "ts", ram_in_L=False)], p_kernel=5, n_min=2)
    with pytest.raises(SpecError):
        construct_lprime([LocalSpec(3, "rq", ram_in_L=True)], p_kernel=5, n_min=2)
    with pytest.raises(SpecError):
        construct_lprime([LocalSpec(3, "rq"), LocalSpec(3, "rq")], p_kernel=5, n_min=2)


def test_report_json_roundtrip_and_tamper_detection():
    specs = [parse_spec("3:rq"), parse_spec("inf:ts")]
    report = construct_lprime(specs, p_kernel=5, n_min=3)
    data = json.loads(json.dumps(report.to_json()))
    back = report_from_json(data)
    assert back.Q == report.Q
    assert verify_report(back).ok
    # tampering with Q must be detected by re-derivation
    data_bad = json.loads(json.dumps(data))
    data_bad["Q"][0] += 3
    assert not verify_report(report_from_json(data_bad)).ok


def test_dedekind_partition_property():
    # for squarefree reductions the degree pattern partitions n
    rng = random.Random(17)
    for _ in range(120):
        n = rng.randrange(2, 7)
        Q = [rng.randrange(-30, 31) for _ in range(n)] + [1]
        p = rng.choice([2, 3, 5, 7, 11, 13])
        qbar = modpoly.normalize(reduce_mod(Q, p), p)
        if modpoly.degree(qbar) != n or not modpoly.is_squarefree(qbar, p):
            continue
        pattern = modpoly.ddf_pattern(qbar, p)
        assert sum(pattern) == n


def test_sn_certificate_soundness_degree_3():
    # run the pipeline by hand at n = 3 and compare with the cubic oracle
    from skewgalois.selftest import galois_group_cubic

    aux = plan_aux_primes([], set(), 3)
    locals_ = [build_local_poly(s, 3, 3) for s in aux]
    Q = weak_approximation(locals_)
    cert = certify_sn(Q, aux)
    if cert.conclusion:
        assert galois_group_cubic(Q) == "S3"


def _constructor_q(spec_strings, n, precision):
    """The constructor's candidate Q for these specs at one precision."""
    specs = [parse_spec(t) for t in spec_strings]
    L_ram = {s.prime for s in specs if s.prime != REAL and s.ram_in_L}
    aux = plan_aux_primes([s.prime for s in specs], L_ram, n)
    locals_ = [build_local_poly(s, n, precision) for s in specs if s.prime != REAL]
    locals_ += [build_local_poly(s, n, precision) for s in aux]
    real = [s for s in specs if s.prime == REAL]
    target = list(build_local_poly(real[0], n, 0).coeffs) if real else None
    scale = real_root_scale(n) if real else None
    return weak_approximation(locals_, target, root_scale=scale), aux


def test_newton_check_alone_decides_a_ts_place(monkeypatch):
    # a ts place takes no discriminant even when Q is squarefree modulo no
    # small prime: 614889782588491410 is the product of the primes <= 47, so
    # X^2 - 614889782588491410 reduces to X^2 modulo every one of them; it is
    # Eisenstein at 5, with no root in Z_5
    def refuse(*args):
        raise AssertionError("a ts place takes no discriminant")

    monkeypatch.setattr(zpoly, "discriminant", refuse)
    primorial = 614889782588491410
    Q = [-primorial, 0, 1]
    assert not any(modpoly.is_squarefree(reduce_mod(Q, ell), ell) for ell in primes_up_to(47))
    check = certify_local_behavior(Q, LocalSpec(5, "ts"))
    assert not check.passed and check.reason == "Newton's condition fails at target 0"


def test_separability_short_cut_skips_the_discriminant(monkeypatch):
    # n certified pairwise-distinct p-adic roots prove separability, so a
    # passing ts place takes no discriminant
    def refuse(*args):
        raise AssertionError("a ts place takes no discriminant")

    monkeypatch.setattr(zpoly, "discriminant", refuse)
    Q = [1]
    for r in range(8):
        Q = zmul(Q, [-r, 1])  # roots 0..7 collide mod 7 but not mod 11
    check = certify_local_behavior(Q, LocalSpec(7, "ts"))
    assert check.passed and len(check.evidence["padic_roots"]) == 8


def test_repeated_root_is_not_separable():
    # (X - 1)^2 (X - 2)(X - 3): no reduction is squarefree, disc = 0, and
    # Newton's condition fails at the double root's target 1
    Q = zmul(zmul([-1, 1], [-1, 1]), zmul([-2, 1], [-3, 1]))
    assert discriminant(Q) == 0
    check = certify_local_behavior(Q, LocalSpec(5, "ts"))
    assert not check.passed
    assert certify_local_behavior(zmul([0, 1], Q), LocalSpec(5, "ts")).reason == (
        "Newton's condition fails at target 1")


def _seeded_q(rng, p):
    """A monic integer Q with 2-6 roots that are clustered p-adically, lie
    in p^j Z, or are exact, times an optional quadratic, perturbed (or not)
    by a multiple of a power of p."""
    roots = []
    for _ in range(rng.randrange(2, 7)):
        shape = rng.randrange(3)
        if shape == 0 and roots:  # clustered around an earlier root
            roots.append(rng.choice(roots) + p ** rng.randrange(1, 6) * rng.randrange(1, 4))
        elif shape == 1:  # in p^j Z
            roots.append(p ** rng.randrange(1, 5) * rng.randrange(-3, 4))
        else:
            roots.append(rng.randrange(-20, 21))
    Q = [1]
    for r in roots:
        Q = zmul(Q, [-r, 1])
    if rng.random() < 0.5:
        Q = zmul(Q, [rng.randrange(1, 5), rng.randrange(-2, 3), 1])
    if rng.random() < 0.7:
        e = rng.randrange(1, 12)
        Q = [c + p**e * rng.randrange(-2, 3) for c in Q[:-1]] + [1]
    return Q


def _reference_hensel_split(Q, p, A0, B0, precision):
    """_hensel_factor_split as it was: one linear lifting step per power of p."""
    A0 = tuple_field.normalize(A0, p)
    B0 = tuple_field.normalize(B0, p)
    d, u, v = xgcd(A0, B0, p)
    assert d == [1]
    da, db = len(A0) - 1, len(B0) - 1
    A, B = list(A0), list(B0)
    pk = p
    for _ in range(precision - 1):
        E = zadd(Q, [-c for c in zmul(A, B)])
        assert not any(c % pk for c in E)
        Ebar = tuple_field.normalize([(c // pk) % p for c in E], p)
        dA = tuple_field.divmod_poly(tuple_field.mul(v, Ebar, p), A0, p)[1]
        num = tuple_field.sub(Ebar, tuple_field.mul(dA, B0, p), p)
        dB, rem = tuple_field.divmod_poly(num, A0, p)
        assert not rem
        A = [a + pk * c for a, c in zip(A, list(dA) + [0] * (da + 1 - len(dA)))]
        B = [b + pk * c for b, c in zip(B, list(dB) + [0] * (db + 1 - len(dB)))]
        pk *= p
    pm = p**precision
    return [a % pm for a in A], [b % pm for b in B]


def test_rq_check_agrees_with_the_lifted_quadratic_factor():
    # Q = X^2 W mod p with W(0) a unit: the factor A = X^2 + aX + b lifted to
    # p^64 by the linear lift has v(a) >= 1 and v(b) = v(Q(0)), so the rq
    # check reads v(b) off Q(0) and calls A Eisenstein exactly when it is 1
    rng = random.Random(9)
    verdicts = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        W = [rng.randrange(1, p)] + [rng.randrange(p) for _ in range(rng.randrange(0, 6))] + [1]
        A = [p * rng.randrange(-3, 4), p * rng.randrange(-3, 4), 1]
        Q = zmul(A, W)
        Q = [c + p * rng.randrange(-9, 10) for c in Q[:-1]] + [1]
        if rng.random() < 0.1:
            Q[0] = 0
        (b, a, _), _ = _reference_hensel_split(Q, p, [0, 0, 1], W, 64)
        assert a % p == 0
        vb = valuation(b, p) if b else 64
        check = certify_local_behavior(Q, LocalSpec(p, "rq"))
        eisenstein = check.reason != "lifted quadratic factor is not Eisenstein"
        assert eisenstein == (vb == 1), (Q, p)
        assert set(check.evidence) == ({"v_b", "unramified_part_roots"} if eisenstein else {"v_b"})
        got = check.evidence["v_b"]
        assert (got == vb) if vb < 64 else (got == "infinite" or got >= 64), (Q, p, got)
        verdicts.add((check.passed, eisenstein, got == "infinite"))
    assert {(True, True, False), (False, False, False), (False, False, True)} <= verdicts


def _reference_certify_sn(Q, aux_specs):
    """certify_sn as it was: its own reduction, squarefree test and DDF per
    unramified auxiliary prime."""
    Q = znormalize(Q)
    n = len(Q) - 1
    if not Q or Q[-1] != 1:
        raise SpecError("certificate requires a monic polynomial")
    patterns = {}
    reasons = []
    for spec in aux_specs:
        if spec.kind != "ur":
            continue
        p = spec.prime
        qb = modpoly.normalize(reduce_mod(Q, p), p)
        if modpoly.degree(qb) != n:
            reasons.append(f"mod {p}: leading coefficient vanished")
            continue
        if not modpoly.is_squarefree(qb, p):
            reasons.append(f"mod {p}: not squarefree")
            continue
        pattern = tuple(sorted(modpoly.ddf_pattern(qb, p), reverse=True))
        patterns[p] = pattern
        declared = tuple(sorted([spec.degree] + [1] * (n - spec.degree), reverse=True))
        if pattern != declared:
            reasons.append(f"mod {p}: pattern {pattern} != declared {declared}")
    have = set(patterns.values())
    missing = [pt for pt in required_patterns(n) if pt not in have]
    conclusion = not missing and not reasons
    if missing:
        reasons.append(f"missing patterns: {missing}")
    return splitcon.SnCertificate(n=n, patterns=patterns, conclusion=conclusion, reasons=tuple(reasons))


def test_certify_sn_matches_the_standalone_reference():
    rng = random.Random(11)
    cases = []
    for n in (4, 6, 8):
        for specs in (SMALL_SPECS, HUGE_SPECS):
            cases.append(_constructor_q(specs, n, 4))  # certified: every pattern present
    for _ in range(300):
        n = rng.randrange(2, 9)
        Q = [rng.randrange(-30, 31) for _ in range(n)] + [1]
        if rng.random() < 0.25:  # a repeated factor: not squarefree anywhere
            r = rng.randrange(-3, 4)
            Q = zmul(Q[:-2] + [1], zmul([-r, 1], [-r, 1]))
        aux = [LocalSpec(rng.choice((2, 3, 5, 7, 11, 13)), "ur", degree=rng.randrange(1, len(Q)))
               for _ in range(rng.randrange(0, 5))]
        aux += rng.sample([LocalSpec(3, "rq"), LocalSpec(5, "ts")], rng.randrange(0, 3))
        rng.shuffle(aux)
        cases.append((Q, aux))
    reasons = set()
    for Q, aux in cases:
        got = certify_sn(Q, aux).to_json()
        assert got == _reference_certify_sn(Q, aux).to_json(), (Q, aux)
        reasons.update(r.split()[0 if r.startswith("missing") else 2] for r in got["reasons"])
        reasons.add(got["conclusion"])
    assert {True, False, "not", "pattern", "missing"} <= reasons
    for Q in ([2, 3], [0, 1, 0, 2], []):
        with pytest.raises(SpecError, match="monic"):
            certify_sn(Q, [])
        with pytest.raises(SpecError, match="monic"):
            _reference_certify_sn(Q, [])


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("spec_strings,n", [(HUGE_SPECS, 6), (HUGE_SPECS, 8), (SMALL_SPECS, 10)])
def test_each_certificate_is_derived_once(monkeypatch, spec_strings, n):
    ddf = _count_calls(monkeypatch, modpoly, "ddf_pattern")
    verify = _count_calls(monkeypatch, splitcon, "verify_report")
    report = construct_lprime([parse_spec(t) for t in spec_strings], 5, n)
    ur = sorted(s.prime for s in report.aux_specs if s.kind == "ur")
    assert len(ur) == 3 and sorted(p for _, p in ddf) == ur
    assert verify == []
    ddf.clear()
    assert splitcon.verify_report(report).ok
    assert sorted(p for _, p in ddf) == ur


def test_an_unramified_place_tests_squarefreeness_once(monkeypatch):
    # the check inside ddf_pattern is the only one; a reduction it refuses
    # gives the same negative certificate as a check of its own would
    calls = _count_calls(monkeypatch, modpoly, "is_squarefree")
    c = certify_local_behavior([1, 1, 0, 1], LocalSpec(2, "ur", degree=3))
    assert c.passed and len(calls) == 1
    calls.clear()
    c = certify_local_behavior([1, 2, 1], LocalSpec(3, "ur", degree=2))  # (X + 1)^2
    assert (c.passed, c.evidence, c.reason) == (False, {}, "not squarefree mod p")
    assert len(calls) == 1


def test_constructor_still_checks_the_auxiliary_order(monkeypatch):
    # the last three auxiliary specs out of order: every certificate still
    # passes, and the structural check refuses the report
    derived = []

    def reordered(*args):
        aux = plan_aux_primes(*args)
        return aux[:1] + aux[:0:-1]  # degrees 2, n-1, n

    def certificates(*args):
        derived.append(original(*args))
        return derived[-1]

    original = splitcon._certificates
    monkeypatch.setattr(splitcon, "plan_aux_primes", reordered)
    monkeypatch.setattr(splitcon, "_certificates", certificates)
    with pytest.raises(AssertionError, match="fresh report failed its own verification") as exc:
        construct_lprime([parse_spec(t) for t in SMALL_SPECS], 5, 6)
    assert len(derived) == 1
    checks, sn, disjoint = derived[0]
    assert all(c.passed for c in checks) and sn.conclusion and disjoint["odd_valuation"]
    assert "auxiliary degrees [2, 5, 6] != [6, 5, 2]" in str(exc.value)


def test_disc_valuation_matches_the_exact_discriminant(monkeypatch):
    # v_p(disc Q) when it is below 2, None otherwise (zero discriminants
    # included), with the exact discriminant as the oracle
    rng = random.Random(10)
    seen = {"zero": 0, 0: 0, 1: 0, "past": 0}
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        Q = _seeded_q(rng, p)
        if rng.random() < 0.2:  # a repeated factor: zero discriminant
            r = rng.randrange(-5, 6)
            Q = zmul(Q, zmul([-r, 1], [-r, 1]))
        disc = discriminant(Q)
        if not disc:
            seen["zero"] += 1
            assert splitcon._disc_valuation(Q, p) is None, (Q, p)
            continue
        v = valuation(disc, p)
        seen[v if v < 2 else "past"] += 1
        assert splitcon._disc_valuation(Q, p) == (v if v < 2 else None), (Q, p)
    # the first auxiliary place's shape: (X^2 - p) prod (X - r) at distinct
    # unit residues r, moved by multiples of p^2, has v_p(disc Q) = 1
    for _ in range(40):
        p = rng.choice((3, 5, 7, 11))
        Q = [-p, 0, 1]
        for r in rng.sample(range(1, p), rng.randrange(p)):
            Q = zmul(Q, [-r, 1])
        Q = [c + p * p * rng.randrange(-9, 10) for c in Q[:-1]] + [1]
        assert valuation(discriminant(Q), p) == 1 and splitcon._disc_valuation(Q, p) == 1, (Q, p)
        seen[1] += 1
    assert seen["zero"] >= 10 and seen["past"] >= 100 and seen[0] >= 10 and seen[1] >= 40, seen
    assert splitcon._disc_valuation([1], 3) is None
    # the Eisenstein quadratic: disc = 4p
    assert [splitcon._disc_valuation([-p, 0, 1], p) for p in (3, 5, 7)] == [1, 1, 1]
    # one resultant per call, however far the valuation lies past 2
    calls = _count_calls(monkeypatch, splitcon, "resultant")
    Q = zmul([0, 1], [-(3**3000), 1])
    assert splitcon._disc_valuation(Q, 3) is None and len(calls) == 1


def test_first_auxiliary_target_has_discriminant_valuation_one():
    # at every degree the plan's first auxiliary prime p is odd and >= n - 1,
    # so the exact discriminant of its target (X^2 - p) prod (X - r) has
    # v_p = v_p(4p) = 1, and the place needs precision 2 only
    for n in range(2, DEGREE_MAX + 1):
        for L_ram in (set(), {n - 1, n, n + 1}):
            spec = plan_aux_primes([], L_ram, n)[0]
            p = spec.prime
            assert p % 2 == 1 and p >= n - 1 and p not in L_ram, (n, p)
            target = [-p, 0, 1]
            for r in splitcon._target_roots(spec, n):
                target = zmul(target, [-r, 1])
            assert valuation(discriminant(target), p) == 1, (n, p)
            assert splitcon._place_precision(spec, n) == 2, (n, p)


@pytest.mark.parametrize("spec_strings", [HUGE_SPECS, ("2:rq", "inf:ts")])
def test_disc_valuation_takes_one_resultant_at_degree_20(monkeypatch, spec_strings):
    # one resultant modulo p^2 at the first auxiliary prime, 19 on the
    # three-spec set and 23 on the two-spec set, for the constructor and
    # again for the verifier
    calls = _count_calls(monkeypatch, splitcon, "resultant")
    report = construct_lprime([parse_spec(t) for t in spec_strings], 5, 20)
    assert len(calls) == 1
    calls.clear()
    assert splitcon.verify_report(report).ok
    assert len(calls) == 1


@pytest.mark.parametrize("spec_strings,n_min,aux1", [
    (("3:rq", "inf:ts"), 4, 2), (("2:ts:ramL", "inf:ts"), 8, 5),
], ids=["aux1-even", "aux1-below-n-minus-1"])
def test_verify_refuses_a_first_auxiliary_prime_even_or_below_n_minus_1(monkeypatch, spec_strings,
                                                                         n_min, aux1):
    # a report built and certified like the constructor's, at the first
    # auxiliary prime the rule "least prime avoiding the spec places and L's
    # ramification" picks: its target roots collide mod aux1, so the
    # discriminant certificate fails too, as the Hensel argument predicts
    plan, built = plan_aux_primes, []
    monkeypatch.setattr(splitcon, "plan_aux_primes", lambda s_primes, L_ram, n: [
        LocalSpec(aux1, "rq"), *plan([*s_primes, aux1], L_ram, n)[1:]])
    monkeypatch.setattr(splitcon, "_failures", lambda report, *certificates: built.append(report) or [])
    construct_lprime([parse_spec(t) for t in spec_strings], 5, n_min)
    monkeypatch.undo()
    report = built[0]
    assert report.aux_specs[0].prime == aux1 and report.n == n_min
    failures = [f"first auxiliary prime {aux1} must be odd and at least n - 1",
                f"discriminant valuation at {aux1} is at least 2"]
    result = verify_report(report)
    assert result.failures == tuple(failures)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(["verify-report", "--report", json.dumps(report.to_json())])
    assert code == cli.EXIT_CERT
    assert json.loads(out.getvalue()) == result.to_json()


def test_real_place_fails_without_sign_alternation():
    fail = (False, {"degree": 3}, "signs do not alternate at the constructor's points")
    # (X - 2)(X - 4)(X - 6) has S = 2: the signs alternate at 1, 3, 5, 7
    c = certify_local_behavior(zmul(zmul([-2, 1], [-4, 1]), [-6, 1]), LocalSpec(REAL, "ts"))
    assert c.passed and c.evidence == {"sturm_real_roots": 3, "degree": 3}
    # X (X - 1)(X - 10) has S = round(22 / 12) = 2, and its first point S / 2
    # is the root 1: three real roots by the Sturm count, but no certificate
    Q = zmul(zmul([0, 1], [-1, 1]), [-10, 1])
    assert count_real_roots(Q) == 3
    c = certify_local_behavior(Q, LocalSpec(REAL, "ts"))
    assert (c.passed, c.evidence, c.reason) == fail
    # X^3 + X has S = 0, so every point is its one real root 0
    c = certify_local_behavior([0, 1, 0, 1], LocalSpec(REAL, "ts"))
    assert (c.passed, c.evidence, c.reason) == fail
    # a monic constant has its 0 real roots
    assert certify_local_behavior([1], LocalSpec(REAL, "ts")).passed


@pytest.mark.parametrize("n", [6, 8, 12])
def test_constructor_certifies_without_sturm_chains_or_discriminants(monkeypatch, n):
    def refuse(*args):
        raise AssertionError("no certificate takes a Sturm chain or a discriminant")

    for name in ("sturm_chain", "count_real_roots", "discriminant"):
        monkeypatch.setattr(zpoly, name, refuse)
        assert not hasattr(splitcon, name)
    report = construct_lprime([parse_spec(t) for t in ("3:rq", "inf:ts", "7:ts:ramL")], 5, n)
    assert report.n == n
    real = next(c for c in report.local_checks if c.spec.prime == REAL)
    assert real.evidence["sturm_real_roots"] == n
    assert verify_report(report).ok


@pytest.mark.parametrize("spec_strings", [("3:rq", "inf:ts", "7:ts:ramL"), ("3:rq", "7:ts:ramL")])
@pytest.mark.parametrize("n", [4, 6])
def test_constructor_galois_group_against_sympy(spec_strings, n):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.numberfields.galoisgroups import galois_group

    report = construct_lprime([parse_spec(t) for t in spec_strings], p_kernel=5, n_min=n)
    assert report.n == n
    group, is_alt = galois_group(sympy.Poly(list(report.Q)[::-1], sympy.Symbol("x")), by_name=True)
    assert group.name == f"S{n}" and not is_alt


@pytest.mark.parametrize("spec_strings", [("3:rq", "inf:ts", "7:ts:ramL"), ("3:rq", "7:ts:ramL")])
@pytest.mark.parametrize("n", [4, 6])
def test_constructor_ddf_patterns_against_sympy(spec_strings, n):
    # the factor degrees of Q mod each unramified auxiliary prime, recorded
    # by modpoly.ddf_pattern in the S_n certificate, from sympy's factoring
    sympy = pytest.importorskip("sympy")

    report = construct_lprime([parse_spec(t) for t in spec_strings], p_kernel=5, n_min=n)
    ur = [s.prime for s in report.aux_specs if s.kind == "ur"]
    assert len(ur) == 3
    for ell in ur:
        _, factors = sympy.Poly(list(report.Q)[::-1], sympy.Symbol("x"), modulus=ell).factor_list()
        degrees = sorted((f.degree() for f, e in factors for _ in range(e)), reverse=True)
        assert tuple(degrees) == report.sn.patterns[ell], ell  # stored descending


def _newton_roots(spec, n):
    """The integer roots of a ts or rq place's local target, written out
    independently of the constructor: 0..n-1, or the first n-2 positive
    integers prime to p."""
    if spec.kind == "ts":
        return list(range(n))
    return [c for c in range(1, 2 * n + 2) if c % spec.prime][: n - 2]


@pytest.mark.parametrize("n", [8, 12, 20])
def test_constructed_q_meets_newton_at_every_target_root(n):
    report = construct_lprime([parse_spec(t) for t in HUGE_SPECS], 5, n)
    Q = list(report.Q)
    Qd = zderivative(Q)
    places = [s for s in report.specs + report.aux_specs if s.kind in ("ts", "rq") and s.prime != REAL]
    assert {s.kind for s in places} == {"ts", "rq"}
    for spec in places:
        p = spec.prime
        for r in _newton_roots(spec, n):
            q, d = zeval(Q, r), zeval(Qd, r)
            assert d != 0 and (q == 0 or valuation(q, p) > 2 * valuation(d, p)), (spec, r)
    assert report.precision == max(report.place_precision.values())


def test_place_precision_examples():
    # ts at 7, n = 8: 0 and 7 collide mod 7, so k = 2 * 1 + 1
    assert splitcon._place_precision(LocalSpec(7, "ts"), 8) == 3
    # roots distinct mod p: k = 1, or 2 for the Eisenstein factor
    assert splitcon._place_precision(LocalSpec(11, "ts"), 8) == 1
    assert splitcon._place_precision(LocalSpec(11, "rq"), 8) == 2
    # rq at 3, n = 8: roots 1, 2, 4, 5, 7, 8; 1 - 4 and 1 - 7 have v_3 = 1
    assert splitcon._place_precision(LocalSpec(3, "rq"), 8) == 5
    assert splitcon._place_precision(LocalSpec(5, "ur", degree=8), 8) == 1


def test_a_failing_certificate_raises_with_the_one_report(monkeypatch):
    # precision 1 everywhere breaks the place precisions' argument; Q is built
    # once, its certificates are judged by the verifier's failure list, and a
    # failure is a fault of the constructor: AssertionError, CLI exit 4
    calls = _count_calls(monkeypatch, splitcon, "weak_approximation")
    judged = []
    failures = splitcon._failures

    def recording(report, *certificates):
        judged.append(report)
        return failures(report, *certificates)

    # (n = 4 passes at precision 1, since every target root is a distinct
    # residue at the first auxiliary prime 5; n = 6 fails at 3:rq)
    monkeypatch.setattr(splitcon, "_place_precision", lambda spec, n: 1)
    monkeypatch.setattr(splitcon, "_failures", recording)
    with pytest.raises(AssertionError, match="fresh report failed its own verification") as exc:
        construct_lprime([parse_spec("3:rq"), parse_spec("inf:ts")], 5, 6)
    assert len(calls) == 1 and len(judged) == 1
    assert [lp.precision for lp in calls[0][0]] == [1] * 5
    monkeypatch.setattr(splitcon, "_failures", failures)
    result = verify_report(judged[0])
    assert not result.ok and str(result.failures) in str(exc.value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                        "--p-kernel", "5", "--n-min", "6"])
    assert code == cli.EXIT_INTERNAL and out.getvalue() == ""
    payload = json.loads(err.getvalue())
    assert (payload["error"], payload["type"]) == ("InternalError", "AssertionError")
    assert str(result.failures) in payload["message"]


def _random_valid_request(rng):
    """Places at primes up to 13, each rq or ts:ramL, maybe the real place,
    maybe extra primes ramified in L, any n_min up to DEGREE_MAX."""
    primes = rng.sample([2, 3, 5, 7, 11, 13], rng.randint(0, 4))
    specs = [f"{p}:ts:ramL" if rng.random() < 0.5 else f"{p}:rq" for p in primes]
    if rng.random() < 0.5:
        specs.append("inf:ts")
    rq = {p for p, t in zip(primes, specs) if t.endswith(":rq")}
    extra = rng.sample([q for q in (2, 3, 5, 7, 11, 13, 17, 19) if q not in rq], rng.randint(0, 2))
    return specs, frozenset(extra), rng.randint(1, DEGREE_MAX), rng.choice([3, 5, 7])


def _sylvester_disc_mod_p2(Q, p):
    """disc(Q mod p^2) mod p^2 for a monic Q of degree n, from test_zpoly's
    Fraction Sylvester determinant (no resultant of skewgalois): the matrix
    of Q mod p^2 and its derivative at their declared degrees n and n - 1."""
    n, m = len(Q) - 1, p * p
    QM = [c % m for c in Q]
    dQ = [i * c for i, c in enumerate(QM)][1:]
    assert QM[-1] == 1 and dQ[-1] == n
    sign = -1 if n * (n - 1) // 2 % 2 else 1
    return sign * _sylvester_det(QM, dQ) % m


def test_every_valid_request_constructs_at_the_derived_precisions():
    # the constructor has no retry: Q at the _place_precision precisions
    # must pass every certificate, at every degree up to DEGREE_MAX
    rng = random.Random(20)
    cases = [_random_valid_request(rng) for _ in range(60)]
    cases += [([f"{p}:{kind}", "inf:ts"], frozenset(), DEGREE_MAX, 5)
              for p in (2, 3) for kind in ("rq", "ts:ramL")]
    # Q is squarefree modulo no prime up to 47 here
    cases.append((["2:ts:ramL", *(f"{p}:rq" for p in primes_up_to(47)[1:]), "inf:ts"],
                   frozenset(), DEGREE_MAX, 5))
    # places above every target: each root is known mod p^1
    cases += [(["4099:rq", "inf:ts"], frozenset(), 12, 5), (["4111:ts:ramL"], frozenset(), DEGREE_MAX, 5),
              (["1000003:rq", "inf:ts"], frozenset(), DEGREE_MAX, 5)]
    for specs, extra, n_min, p_kernel in cases:
        report = construct_lprime([parse_spec(t) for t in specs], p_kernel, n_min, extra)
        assert verify_report(report).ok, (specs, extra, n_min)
        # an odd first auxiliary prime p >= n - 1, read at precision 2, and
        # v_p(disc Q) = 1 (splitcon docstring), by the Sylvester determinant too
        p = report.aux_specs[0].prime
        assert p % 2 == 1 and p >= report.n - 1, (specs, extra, n_min)
        assert report.place_precision[p] == 2, (specs, extra, n_min)
        assert report.disjoint["disc_valuation"] == 1, (specs, extra, n_min)
        disc = _sylvester_disc_mod_p2(list(report.Q), p)
        assert disc % p == 0 and disc != 0, (specs, extra, n_min)
        # every ts or rq place certifies exactly its target roots
        for check in report.local_checks:
            if check.spec.kind == "ur" or check.spec.prime == REAL:
                continue
            ev = check.evidence
            roots = ev.get("simple_roots_mod_p") or [
                e["root"] for e in ev.get("padic_roots", ev.get("unramified_part_roots"))]
            assert roots == splitcon._target_roots(check.spec, report.n), (specs, check.spec)
            if check.spec.prime > 2 * DEGREE_MAX:
                assert {e["known_mod"] for e in ev.get("unramified_part_roots", [])} <= {f"{check.spec.prime}^1"}


def test_real_place_margin_beats_the_crt_rounding():
    # Q's coefficient i is within M/2 of s^(n-i) T_i, T = prod_{j=1..n} (X - j)
    # and s = c M with c = real_root_scale(n).  At x = (j + 1/2) s, for
    # j = 0..n, the signs of Q alternate when s^n |T(j + 1/2)| beats
    # (M/2) sum_{i<n} x^i.  Divided by s^n the bound has terms
    # c^(i-n) M^(1+i-n) (j + 1/2)^i, largest at M = 1.
    margins = []
    for n in range(1, DEGREE_MAX + 1):
        c = real_root_scale(n)
        T = [1]
        for j in range(1, n + 1):
            T = zmul(T, [-j, 1])
        points = [Fraction(2 * j + 1, 2) for j in range(n + 1)]
        margins.append(min(
            abs(sum(t * x**i for i, t in enumerate(T)))
            / (sum(x**i * Fraction(1, c ** (n - i)) for i in range(n)) / 2)
            for x in points
        ))
    assert min(margins) > 1
    assert [round(float(m), 1) for m in margins[:2]] == [3.0, 4.1]
    assert all(a < b for a, b in zip(margins, margins[1:]))


@pytest.mark.parametrize("spec_strings,n", [
    (HUGE_SPECS, 4), (HUGE_SPECS, 6), (HUGE_SPECS, 8), (HUGE_SPECS, 10),
    (SMALL_SPECS, 4), (SMALL_SPECS, 8), (SMALL_SPECS, 10), (SMALL_SPECS, 12),
])
def test_derived_precision_needs_no_fallback(monkeypatch, spec_strings, n):
    calls = _count_calls(monkeypatch, splitcon, "weak_approximation")
    report = construct_lprime([parse_spec(t) for t in spec_strings], 5, n)
    assert len(calls) == 1
    assert report.place_precision == {
        s.prime: splitcon._place_precision(s, n) for s in report.specs + report.aux_specs if s.prime != REAL
    }
