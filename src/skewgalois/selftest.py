"""Self-verification suites: one callable per advertised guarantee.

Each criterion function returns {"name", "passed", "details"}; the CLI
selftest verb aggregates them and the acceptance test module asserts each
one individually.  Oracles here are deliberately independent of the code
paths they check (the largest normal subgroup passing the Sylow-count
nilpotency test for the Fitting subgroup, N x| G' built as a table for the
reduction step, resolvent formulas for quartic Galois groups, residue
scans for levels).
"""

from __future__ import annotations

import math
import random
import time

from .catalog import catalog, catalog_upto
from .embed import (
    CoprimalityFailure,
    FFGaloisExt,
    decide_sigma_solvability,
    find_section,
    lemma1_check,
    lift_sigma,
    problem_from_quotient,
)
# make_field is read through its module: perfbench's tracer may wrap it
# while this module loads, and would then leave the wrapper bound here
from . import ffield
from .ffield import FieldAut, frobenius
from .groups import (
    FiniteGroup,
    GroupHom,
    ReductionStep,
    conjugation_action,
    fitting_subgroup,
    is_nilpotent,
    quotient_table,
    semidirect_product,
    solvable_tower,
)
from .orepoly import (
    OreRing,
    ore_mul,
    ore_right_divmod,
    ore_witness,
)
from .quat import level_local, theorem13_feasible, two_adic_three_square_scan
from .splitcon import (
    construct_lprime,
    odd_prime_for_case_c,
    parse_spec,
    verify_report,
)
from .zarith import is_prime, is_square, primes_up_to, prime_power_base
from .zpoly import count_real_roots, discriminant, integer_roots_monic

ORE_FIELDS = ((2, 2), (2, 4), (3, 3), (5, 2))
# division and witnesses also past the log-table limit, in the packed tier
DIVISION_FIELDS = ORE_FIELDS + ((2, 16),)
LEMMA_RANGE = {2: 12, 3: 8, 5: 6, 7: 4}
CASES_PER_LAW = 10_000


def _random_ore_poly(ring: OreRing, rng: random.Random, max_deg: int = 3):
    from .orepoly import OrePoly

    base = ring.base
    d = rng.randrange(max_deg + 1)
    idx = rng.randrange(base.order ** (d + 1))
    coeffs = []
    for _ in range(d + 1):
        idx, rem = divmod(idx, base.order)
        coeffs.append(base.from_index(rem))
    return OrePoly(ring, tuple(coeffs))


def criterion_1() -> dict:
    """Ore ring laws on >= 10^4 random cases per law per field, every twist."""
    t0 = time.time()
    checked = {"assoc": 0, "distrib": 0, "deg_add": 0, "twist": 0}
    for p, n in ORE_FIELDS:
        F = ffield.make_field(p, n)
        twists = list(range(n))
        per_twist = -(-CASES_PER_LAW // len(twists))  # ceil division
        for k in twists:
            ring = OreRing(F, frobenius(F, k))
            rng = random.Random(10_000 * p + 100 * n + k)
            tau = ring.twist
            T = ring.T()
            for _ in range(per_twist):
                f = _random_ore_poly(ring, rng, max_deg=2)
                g = _random_ore_poly(ring, rng, max_deg=2)
                h = _random_ore_poly(ring, rng, max_deg=2)
                fg = ore_mul(f, g)
                fh = ore_mul(f, h)
                gh = ore_mul(g, h)
                if ore_mul(fg, h) != ore_mul(f, gh):
                    return _fail("criterion_1", f"associativity failed over {ring!r}")
                checked["assoc"] += 1
                if ore_mul(f, g + h) != fg + fh or ore_mul(f + g, h) != fh + gh:
                    return _fail("criterion_1", f"distributivity failed over {ring!r}")
                checked["distrib"] += 1
                if not f.is_zero() and not g.is_zero():
                    if fg.degree != f.degree + g.degree:
                        return _fail("criterion_1", f"degree additivity failed over {ring!r}")
                    checked["deg_add"] += 1
                a = F.from_index(rng.randrange(F.order))
                if ore_mul(T, ring.scalar(a)) != ring.poly([F.zero(), tau(a)]):
                    return _fail("criterion_1", f"twist law failed over {ring!r}")
                checked["twist"] += 1
    elapsed = time.time() - t0
    passed = all(v >= CASES_PER_LAW for k, v in checked.items() if k != "deg_add")
    passed = passed and checked["deg_add"] >= CASES_PER_LAW // 2 and elapsed < 10.0
    return {
        "name": "criterion_1",
        "passed": passed,
        "details": {"checked": checked, "elapsed_s": round(elapsed, 2), "budget_s": 10.0},
    }


def criterion_2() -> dict:
    """Right division reconstructs bit-exactly; Ore witnesses verified."""
    t0 = time.time()
    div_cases = witness_cases = 0
    for p, n in DIVISION_FIELDS:
        F = ffield.make_field(p, n)
        ring = OreRing(F, frobenius(F, 1 % n))
        rng = random.Random(777 * p + n)
        for _ in range(2500):
            f = _random_ore_poly(ring, rng, max_deg=6)
            g = _random_ore_poly(ring, rng, max_deg=3)
            if g.is_zero():
                continue
            q, r = ore_right_divmod(f, g)
            if not (r.degree < g.degree and ore_mul(q, g) + r == f):
                return _fail("criterion_2", "division reconstruction failed")
            div_cases += 1
        for _ in range(250):
            x = _random_ore_poly(ring, rng, max_deg=3)
            y = _random_ore_poly(ring, rng, max_deg=3)
            if x.is_zero() or y.is_zero():
                continue
            r_, s_ = ore_witness(x, y)  # re-verified internally by multiplication
            prod = ore_mul(x, r_)
            if prod != ore_mul(y, s_) or prod.is_zero():
                return _fail("criterion_2", "Ore witness failed")
            witness_cases += 1
    return {
        "name": "criterion_2",
        "passed": div_cases >= 9000 and witness_cases >= 900,
        "details": {
            "division_cases": div_cases,
            "witness_cases": witness_cases,
            "elapsed_s": round(time.time() - t0, 2),
        },
    }


def _field_tower(p: int, max_n: int):
    """All extensions L/K with L = F_{p^N}, N <= max_n."""
    for N in range(1, max_n + 1):
        L = ffield.make_field(p, N)
        for m in range(1, N + 1):
            if N % m:
                continue
            K = ffield.make_field(p, m)
            yield FFGaloisExt(K, L)


def criterion_3() -> dict:
    """Order-coprimality test vs direct-product test: zero disagreements,
    exhaustively over the stated field range, under 60 s."""
    t0 = time.time()
    checks = 0
    for p, max_n in LEMMA_RANGE.items():
        for ext in _field_tower(p, max_n):
            m, N = ext.K.n, ext.L.n
            for s in range(m):
                sigma = FieldAut(ext.K, s)
                for i in range(ext.degree):
                    tau = FieldAut(ext.L, (s + i * m) % N)
                    res = lemma1_check(ext, sigma, tau)  # raises on disagreement
                    if res["cond2"] != res["cond3"]:
                        return _fail("criterion_3", "equivalence disagreement")
                    checks += 1
    elapsed = time.time() - t0
    return {
        "name": "criterion_3",
        "passed": elapsed < 60.0 and checks > 0,
        "details": {"tuples_checked": checks, "elapsed_s": round(elapsed, 2), "budget_s": 60.0},
    }


def criterion_4() -> dict:
    """Unique order-d extension iff gcd(d, [L:K]) = 1, over the same range."""
    t0 = time.time()
    unique_cases = failure_cases = 0
    for p, max_n in LEMMA_RANGE.items():
        for ext in _field_tower(p, max_n):
            m, N = ext.K.n, ext.L.n
            e = ext.degree
            for s in range(m):
                sigma = FieldAut(ext.K, s)
                d = sigma.order
                order_d = [
                    (s + i * m) % N
                    for i in range(e)
                    if FieldAut(ext.L, (s + i * m) % N).order == d
                ]
                if math.gcd(d, e) == 1:
                    tau = lift_sigma(ext, sigma)
                    if not (tau.order == d and len(order_d) == 1
                            and tau.k == order_d[0]):
                        return _fail("criterion_4", f"uniqueness failed at {ext!r}, s={s}")
                    unique_cases += 1
                else:
                    if order_d:
                        return _fail("criterion_4", f"order-d extension exists at {ext!r}")
                    try:
                        lift_sigma(ext, sigma)
                        return _fail("criterion_4", "expected CoprimalityFailure")
                    except CoprimalityFailure:
                        failure_cases += 1
    return {
        "name": "criterion_4",
        "passed": unique_cases > 0 and failure_cases > 0,
        "details": {
            "coprime_cases": unique_cases,
            "blocked_cases": failure_cases,
            "elapsed_s": round(time.time() - t0, 2),
        },
    }


def _cyclic_quotient_epis(G: FiniteGroup):
    """All epimorphisms from G onto canonical cyclic groups: for each normal
    subgroup with cyclic quotient, one epi per generator of the quotient."""
    for N in G.all_normal_subgroups():
        e = G.order // N.order
        coset, _, Q = quotient_table(G, N)
        gens = [c for c in range(e) if Q.element_order(c) == e]
        if not gens:
            continue  # quotient is not cyclic
        for c in gens:
            # epi: g -> discrete log of its coset w.r.t. generator c
            dlog = {Q.power(c, k): k for k in range(e)}
            yield e, [dlog[i] for i in coset], N


def criterion_5() -> dict:
    """Split nilpotent-kernel problems over F_2, F_4, F_9: SOLVABLE exactly
    when the order of sigma is coprime to [L:K]; witness search agrees with
    the coprimality criterion."""
    t0 = time.time()
    base_fields = [ffield.make_field(2, 1), ffield.make_field(2, 2), ffield.make_field(3, 2)]
    ext_cache: dict[tuple, FFGaloisExt] = {}
    instances = 0
    for name, G in catalog_upto(16):
        for e, images, N in _cyclic_quotient_epis(G):
            if not is_nilpotent(G, N.elements):
                continue
            for K in base_fields:
                key = (K.p, K.n, e)
                if key not in ext_cache:
                    L = ffield.make_field(K.p, K.n * e)
                    ext_cache[key] = FFGaloisExt(K, L)
                ext = ext_cache[key]
                ep = problem_from_quotient(ext, G, images)
                if find_section(ep) is None:
                    continue  # criterion scopes split problems
                for s in range(K.n):
                    sigma = FieldAut(K, s)
                    v = decide_sigma_solvability(ep, sigma)
                    want = "SOLVABLE" if math.gcd(sigma.order, e) == 1 else "UNSOLVABLE"
                    if v.status != want:
                        return _fail(
                            "criterion_5",
                            f"{name}, e={e}, K={K.descriptor()}, s={s}: "
                            f"{v.status} != {want}",
                        )
                    if v.cond_a != v.cond_c:
                        return _fail("criterion_5", "witness/criterion disagreement")
                    instances += 1
    return {
        "name": "criterion_5",
        "passed": instances > 0,
        "details": {"instances": instances, "elapsed_s": round(time.time() - t0, 2)},
    }


def _brute_fitting(G: FiniteGroup) -> tuple[int, ...]:
    """The largest normal subgroup that passes the nilpotency test."""
    return max((N.elements for N in G.all_normal_subgroups() if is_nilpotent(G, N.elements)), key=len)


def reduction_step_failure(step: ReductionStep) -> str | None:
    """Why step.phi is not a surjective homomorphism from N x| G' (built here)
    onto the group with kernel of order step.kernel_order() = |N meet G'|, or None."""
    action = conjugation_action(step.group, step.N, step.Gp)
    semi, _, _ = semidirect_product(step.N.as_group("N"), step.Gp.as_group("G'"), action)
    try:
        phi = GroupHom(semi, step.group, step.phi)
    except ValueError:
        return "phi not a homomorphism"
    if not phi.is_surjective():
        return "phi not surjective"
    meet = len(set(step.N.elements) & set(step.Gp.elements))
    if not phi.kernel().order == step.kernel_order() == meet:
        return "kernel order is not |N meet G'|"
    return None


def criterion_6() -> dict:
    """Fitting subgroup and the reduction tower vs brute-force oracles on
    the whole catalog; phi is checked on N x| G', which the step never builds."""
    t0 = time.time()
    groups_checked = steps_checked = 0
    for name, G in catalog():
        if fitting_subgroup(G).elements != _brute_fitting(G):
            return _fail("criterion_6", f"Fitting mismatch on {name}")
        for step in solvable_tower(G):
            reason = reduction_step_failure(step)
            if reason:
                return _fail("criterion_6", f"{reason} on {name}")
            if not is_nilpotent(step.group, step.N.elements):
                return _fail("criterion_6", f"N not nilpotent on {name}")
            if step.Gp.order >= step.group.order > 1 and not is_nilpotent(step.group):
                return _fail("criterion_6", f"G' not proper on {name}")
            steps_checked += 1
        groups_checked += 1
    return {
        "name": "criterion_6",
        "passed": groups_checked > 0,
        "details": {
            "groups": groups_checked,
            "tower_steps": steps_checked,
            "elapsed_s": round(time.time() - t0, 2),
        },
    }


# -- brute-force Galois groups for low degree (criterion 7 oracle) ---------------
#
# Rational roots of monic integer polynomials are integers, found by Sturm
# bisection (zpoly.integer_roots_monic), so the oracle stays exact for the
# enormous coefficients the constructor emits.


def galois_group_quartic(Q: list[int]) -> str:
    """Galois group of a monic integer quartic via its resolvent cubic and
    the discriminant square test: S4, A4, D4orC4, V4, or reducible.

    A quartic with no rational root and no rational resolvent root is
    irreducible (a quadratic-quadratic split over Q would make the sum of
    the two constant terms a rational resolvent root).
    """
    if len(Q) != 5 or Q[-1] != 1:
        raise ValueError("monic quartic expected")
    if integer_roots_monic(Q):
        return "reducible"
    e, d, c, b, _ = Q[0], Q[1], Q[2], Q[3], Q[4]
    # resolvent cubic for X^4 + bX^3 + cX^2 + dX + e, roots x1x2 + x3x4 etc.
    res = [
        -(b * b * e - 4 * c * e + d * d),
        b * d - 4 * e,
        -c,
        1,
    ]
    res_roots = integer_roots_monic(res)
    disc = discriminant(Q)
    square = is_square(disc)
    if not res_roots:
        return "A4" if square else "S4"
    if len(res_roots) == 3 or square:
        return "V4"
    return "D4orC4"


def galois_group_cubic(Q: list[int]) -> str:
    if len(Q) != 4 or Q[-1] != 1:
        raise ValueError("monic cubic expected")
    if integer_roots_monic(Q):
        return "reducible"
    return "A3" if is_square(discriminant(Q)) else "S3"


def criterion_7() -> dict:
    """End-to-end constructions for n_min in {3,4,5} with independent
    re-verification, plus the brute-force Galois oracle at degree 4."""
    t0 = time.time()
    per_n = {}
    for n_min in (3, 4, 5):
        t1 = time.time()
        specs = [parse_spec("3:rq"), parse_spec("inf:ts")]
        report = construct_lprime(specs, p_kernel=5, n_min=n_min)
        result = verify_report(report)
        elapsed = time.time() - t1
        ok = result.ok and elapsed < 60.0
        if not ok:
            return _fail("criterion_7", f"n_min={n_min}: {result.failures}")
        if count_real_roots(list(report.Q)) != report.n:
            return _fail("criterion_7", f"n_min={n_min}: real-root count mismatch")
        rq_check = next(c for c in report.local_checks if c.spec.prime == 3)
        if not (rq_check.passed and rq_check.evidence.get("v_b") == 1):
            return _fail("criterion_7", f"n_min={n_min}: Eisenstein residual missing")
        if not report.disjoint.get("odd_valuation"):
            return _fail("criterion_7", f"n_min={n_min}: disjointness evidence missing")
        oracle = None
        if report.n == 4:
            oracle = galois_group_quartic(list(report.Q))
            if oracle != "S4":
                return _fail("criterion_7", f"n_min={n_min}: oracle got {oracle}")
        per_n[n_min] = {
            "n": report.n,
            "elapsed_s": round(elapsed, 2),
            "oracle": oracle,
            "aux": [s.prime for s in report.aux_specs],
        }
    return {
        "name": "criterion_7",
        "passed": True,
        "details": {"runs": per_n, "elapsed_s": round(time.time() - t0, 2)},
    }


def criterion_8() -> dict:
    """Divisibility of the derived odd prime for every prime power q <= 10^4."""
    t0 = time.time()
    count = 0
    for q in range(2, 10_001):
        if prime_power_base(q) is None:
            continue
        pp = odd_prime_for_case_c(q)
        if not (is_prime(pp) and pp % 2 == 1 and (q**3 - 1) % pp == 0):
            return _fail("criterion_8", f"q={q}: bad odd prime {pp}")
        count += 1
    if odd_prime_for_case_c(2) != 7:
        return _fail("criterion_8", "q=2 must give 7")
    return {
        "name": "criterion_8",
        "passed": count > 0,
        "details": {"prime_powers_checked": count, "elapsed_s": round(time.time() - t0, 2)},
    }


def criterion_9() -> dict:
    """Levels of completions of Q for p <= 10^3 with verified witnesses,
    the 2-adic case re-derived by residue scan, and the two feasibility
    fixtures."""
    t0 = time.time()
    counts = {1: 0, 2: 0, 4: 0}
    for p in primes_up_to(1000):
        res = level_local(p)
        if p == 2:
            if res.level != 4 or not res.witness["no_three_squares_mod"]["excluded"]:
                return _fail("criterion_9", "2-adic level must be 4 via the scan")
            vec = res.witness["four_squares"]["vector"]
            if sum(x * x for x in vec) % 16 != 15 or not any(x % 2 for x in vec):
                return _fail("criterion_9", "bad four-square witness")
        elif p % 4 == 1:
            if res.level != 1 or (res.witness["x"] ** 2 + 1) % p:
                return _fail("criterion_9", f"level of Q_{p} should be 1")
        else:
            w = res.witness
            if res.level != 2 or (w["x"] ** 2 + w["y"] ** 2 + 1) % p:
                return _fail("criterion_9", f"level of Q_{p} should be 2")
        counts[res.level] += 1
    scan = two_adic_three_square_scan()
    if not scan["excluded"]:
        return _fail("criterion_9", "three-square scan found a false solution")
    if not theorem13_feasible("Q").feasible:
        return _fail("criterion_9", "Q must be feasible")
    if theorem13_feasible("Q(sqrt:-1)").feasible:
        return _fail("criterion_9", "Q(i) must be infeasible")
    return {
        "name": "criterion_9",
        "passed": True,
        "details": {"levels": counts, "elapsed_s": round(time.time() - t0, 2)},
    }


def criterion_10() -> dict:
    """Every CLI verb emits byte-identical JSON on repeated runs and the
    output re-parses; exercised in-process (the aggregation itself is the
    selftest verb)."""
    import io
    import json as _json
    from contextlib import redirect_stderr, redirect_stdout

    from . import cli

    t0 = time.time()
    group_json = _json.dumps({"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]})
    alpha_json = _json.dumps({"map": [0, 1, 0, 1]})
    f_json = _json.dumps({"base": "2^2", "frob": 1, "coeffs": [[0, 1], [1, 0]]})
    g_json = _json.dumps({"base": "2^2", "frob": 1, "coeffs": [[1, 1], [1, 0]]})
    invocations = [
        ["decide", "--group", group_json, "--alpha", alpha_json,
         "--K", "2^2", "--L", "2^4", "--sigma", "1"],
        ["lift-tau", "--K", "2^2", "--L", "2^6", "--sigma", "1"],
        ["lemma1", "--K", "2^2", "--L", "2^6", "--sigma", "1", "--tau", "3"],
        ["ore", "--op", "mul", "--f", f_json, "--g", g_json],
        ["ore", "--op", "witness", "--f", f_json, "--g", g_json],
        ["tower", "--group", group_json],
        ["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
         "--p-kernel", "5", "--n-min", "3"],
        ["level", "--place", "2"],
        ["level", "--place", "REAL"],
        ["feasible-13", "--field", "Q(sqrt:-1)"],
    ]
    outputs = []
    for argv in invocations:
        runs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.run(argv)
            if code != 0:
                return _fail("criterion_10", f"{argv[0]} exited {code}: {err.getvalue()}")
            runs.append(out.getvalue())
        if runs[0] != runs[1]:
            return _fail("criterion_10", f"{argv[0]} output not deterministic")
        parsed = _json.loads(runs[0])
        if _json.loads(_json.dumps(parsed, sort_keys=True)) != parsed:
            return _fail("criterion_10", f"{argv[0]} output does not round-trip")
        outputs.append(argv[0])
    # verify-report round-trip on a fresh construction
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                        "--p-kernel", "5", "--n-min", "3"])
    report_json = out.getvalue()
    out2 = io.StringIO()
    with redirect_stdout(out2), redirect_stderr(io.StringIO()):
        code = cli.run(["verify-report", "--report", report_json])
    if code != 0:
        return _fail("criterion_10", "verify-report rejected a fresh report")
    return {
        "name": "criterion_10",
        "passed": True,
        "details": {"verbs": outputs, "elapsed_s": round(time.time() - t0, 2)},
    }


def _fail(name: str, reason: str) -> dict:
    return {"name": name, "passed": False, "details": {"reason": reason}}


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
]


def run_all(only: int | None = None) -> dict:
    if only is not None and not 1 <= only <= len(CRITERIA):
        raise ValueError(f"criterion number must be in 1..{len(CRITERIA)}")
    results = []
    for i, fn in enumerate(CRITERIA, start=1):
        if only is not None and i != only:
            continue
        results.append(fn())
    return {"criteria": results, "all_passed": all(r["passed"] for r in results)}
