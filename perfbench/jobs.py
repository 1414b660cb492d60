"""Workload definitions: the job list of one pass, the warm-up jobs and the
cold-start command of each workload, all generated from the workload seed.

The seed only chooses values that leave a job's cost alone (coefficients,
relabelings of table elements, the order in which generators and cycles are
written, the parity of `n_min`, job order), so runs with different seeds
measure the same amount of work.  Every job's input is JSON, and the program rebuilds its objects
from that JSON on every run of the job, as the CLI does.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field


@dataclass
class Job:
    """One job: a CLI argv, or for `ore.left_divmod` (no CLI verb) the two
    polynomial JSON strings of a direct library call.

    `report_of` names the index of an earlier job whose stdout is passed
    as `--report`; `check` holds what the oracle needs to judge the output.
    """

    kind: str
    argv: list[str] | None = None
    check: dict = field(default_factory=dict)
    report_of: int | None = None


@dataclass
class Workload:
    jobs: list[Job]
    warmup: list[Job]
    cold: Job  # run as a fresh `python -m skewgalois` process
    pass_seconds: float  # nominal pass length here; fixes the pass count


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# -- twisted polynomials --------------------------------------------------------

ORE_OPS = ("mul", "divmod", "gcd", "lcm", "witness", "left_divmod")


def _ore_poly(rng: random.Random, p: int, n: int, deg: int, frob: int) -> dict:
    coeffs = [[rng.randrange(p) for _ in range(n)] for _ in range(deg)]
    lead = [0] * n
    while not any(lead):
        lead = [rng.randrange(p) for _ in range(n)]
    return {"base": f"{p}^{n}", "frob": frob, "coeffs": coeffs + [lead]}


def _ore_job(rng: random.Random, p: int, n: int, op: str, frob: int, df: int, dg: int) -> Job:
    f = _ore_poly(rng, p, n, df, frob)
    g = _ore_poly(rng, p, n, dg, frob)
    check = {"f": f, "g": g}
    if op == "left_divmod":
        return Job("ore.left_divmod", [_dumps(f), _dumps(g)], check)
    return Job(f"ore.{op}", ["ore", "--op", op, "--f", _dumps(f), "--g", _dumps(g)], check)


def _twists(n: int) -> list[int]:
    return sorted({0, 1, n // 2, n - 1})


def _ore_workload(rng, fields, degrees, variants, warm_full_degree, cold, pass_seconds) -> Workload:
    """`degrees[op]` is (deg f, deg g); each field runs every op `variants`
    times, cycling through the twists 0, 1, n/2 and n-1."""
    jobs = []
    for fi, (p, n) in enumerate(fields):
        tw = _twists(n)
        for v in range(variants):
            for oi, op in enumerate(ORE_OPS):
                frob = tw[(fi + oi + v * len(ORE_OPS)) % len(tw)]
                jobs.append(_ore_job(rng, p, n, op, frob, *degrees[op]))
    rng.shuffle(jobs)
    warmup = []
    for p, n in fields:
        for frob in _twists(n):
            # a product of degree >= n touches every power of the twist, so
            # the per-field Frobenius tables are built here and not in a pass
            warmup.append(_ore_job(rng, p, n, "mul", frob, n if warm_full_degree else 2, 1))
            for op in ORE_OPS:
                warmup.append(_ore_job(rng, p, n, op, frob, 3, 2))
    (p, n), op, frob, df, dg = cold
    return Workload(jobs, warmup, _ore_job(random.Random(0), p, n, op, frob, df, dg), pass_seconds)


def ore_large(rng: random.Random, tiny: bool) -> Workload:
    # F_2^16, F_2^20 and F_3^12 all lie past the log-table limit (2^15)
    fields = [(2, 16), (2, 20), (3, 12)]
    degrees = {
        "mul": (18, 18), "divmod": (36, 18), "gcd": (22, 18),
        "lcm": (15, 13), "witness": (11, 9), "left_divmod": (36, 18),
    }
    if tiny:
        fields, degrees = fields[:1], {op: (4, 3) for op in ORE_OPS}
    cold = ((2, 20), "witness", 1, 20, 18)
    return _ore_workload(rng, fields, degrees, 1, False, cold, 3.0)


def ore_small(rng: random.Random, tiny: bool) -> Workload:
    # pair tables (F_2^4, F_3^3) and log tables (F_2^8, F_5^4, F_2^14)
    fields = [(2, 4), (3, 3), (2, 8), (5, 4), (2, 14)]
    degrees = {
        "mul": (84, 84), "divmod": (168, 84), "gcd": (84, 70),
        "lcm": (56, 50), "witness": (44, 40), "left_divmod": (168, 84),
    }
    if tiny:
        fields, degrees = fields[:2], {op: (6, 4) for op in ORE_OPS}
    cold = ((2, 14), "witness", 1, 100, 96)
    return _ore_workload(rng, fields, degrees, 2, True, cold, 3.0)


# -- groups: subgroup scans and table validation ------------------------------------

# permutation generators as 0-based cycle lists; orders in the names
TOWER_GROUPS = {
    "S4xC2": [[[0, 1]], [[0, 1, 2, 3]], [[4, 5]]],
    "S3xS3": [[[0, 1]], [[0, 1, 2]], [[3, 4]], [[3, 4, 5]]],
    "A4xC3": [[[0, 1, 2]], [[1, 2, 3]], [[4, 5, 6]]],
    "S4": [[[0, 1]], [[0, 1, 2, 3]]],
    "S3xC4": [[[0, 1]], [[0, 1, 2]], [[3, 4, 5, 6]]],
}
COLD_TOWER = [[[0, 1]], [[0, 1, 2]], [[3, 4, 5]], [[6, 7, 8]]]  # S3xC3xC3
TOWER_ORDERS = {"S4xC2": 48, "S3xS3": 36, "A4xC3": 36, "S4": 24, "S3xC4": 24, "S3": 6, "S3xC3xC3": 54}


def _reorder_perm_gens(rng: random.Random, gens: list) -> list:
    """The same permutations, listed in another order and with each cycle
    started at another point.  Relabeling the points would not do: the
    element order, and with it the subgroup-scan cost, depends on them."""
    out = []
    for g in gens:
        cycles = []
        for cyc in g:
            k = rng.randrange(len(cyc))
            cycles.append(cyc[k:] + cyc[:k])
        out.append(cycles)
    rng.shuffle(out)
    return out


def _tower_job(rng: random.Random, name: str, gens: list) -> Job:
    group = {"perm_gens": _reorder_perm_gens(rng, gens)}
    return Job("tower", ["tower", "--group", _dumps(group)], {"order": TOWER_ORDERS[name]})


# Decide groups G = A x|_phi Z/E with A = Z/m^k, phi an automorphism of A
# whose order divides e, and alpha(v, h) = h mod e onto C_e.  The kernel
# A x eZ/E is abelian, hence nilpotent.  E > e gives non-split problems.
# Fields: (K, L, sigma) with [L:K] = e.
ROT3 = [[0, -1], [1, -1]]   # order 3 on Z/m^2
ROT4 = [[0, -1], [1, 0]]    # order 4 on Z/m^2
SHIFT3 = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
DECIDE_CASES = [
    # (m, k, phi, E, e, K, L, sigma)
    (8, 2, ROT3, 3, 3, "2^2", "2^6", 1),          # 192, N x| C3, solvable
    (8, 2, None, 3, 3, "2^3", "2^9", 1),          # 192, N x C3, gcd(d, e) = 3
    (7, 2, ROT3, 3, 3, "5^1", "5^3", 0),          # 147, N x| C3
    (6, 2, ROT3, 3, 3, "2^2", "2^6", 0),          # 108
    (5, 2, ROT4, 4, 4, "3^1", "3^4", 0),          # 100, N x| C4
    (2, 2, None, 9, 3, "2^2", "2^6", 1),          # 36, non-split onto C3
    (4, 2, ROT3, 3, 3, "3^1", "3^3", 0),          # 48
    (2, 3, SHIFT3, 3, 3, "2^1", "2^3", 0),        # 24
]


def _decide_table(m: int, k: int, phi, E: int, e: int) -> tuple[list[list[int]], list[int]]:
    vecs = list(itertools.product(range(m), repeat=k))

    def act(v):
        if phi is None:
            return v
        return tuple(sum(phi[i][j] * v[j] for j in range(k)) % m for i in range(k))

    powers = [{v: v for v in vecs}]  # powers[h][v] = phi^h(v)
    for _ in range(1, E):
        powers.append({v: act(w) for v, w in powers[-1].items()})
    elems = [(v, h) for v in vecs for h in range(E)]
    index = {x: i for i, x in enumerate(elems)}
    table = [
        [index[(tuple((a + b) % m for a, b in zip(v, powers[h][w])), (h + g) % E)] for (w, g) in elems]
        for (v, h) in elems
    ]
    return table, [h % e for (_, h) in elems]


def _decide_job(rng: random.Random, case) -> Job:
    m, k, phi, E, e, K, L, sigma = case
    table, alpha = _decide_table(m, k, phi, E, e)
    n = len(table)
    perm = [0] + rng.sample(range(1, n), n - 1)  # the identity stays at 0
    inv = [0] * n
    for i, x in enumerate(perm):
        inv[x] = i
    table = [[perm[table[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]
    alpha = [alpha[inv[a]] for a in range(n)]
    group = {"order": n, "table": table}
    argv = ["decide", "--group", _dumps(group), "--alpha", _dumps({"map": alpha}),
            "--K", K, "--L", L, "--sigma", str(sigma)]
    return Job("decide", argv, {"table": table, "alpha": alpha, "K": K, "L": L, "sigma": sigma})


def tower_decide(rng: random.Random, tiny: bool) -> Workload:
    towers = list(TOWER_GROUPS)
    cases = DECIDE_CASES
    if tiny:
        towers, cases = ["S4"], [DECIDE_CASES[-1]]
    jobs = [_tower_job(rng, name, TOWER_GROUPS[name]) for name in towers]
    jobs += [_decide_job(rng, case) for case in cases]
    rng.shuffle(jobs)
    warmup = [_tower_job(rng, "S3", [[[0, 1]], [[0, 1, 2]]])]
    for K, L in sorted({(c[5], c[6]) for c in cases}):
        e = int(L.split("^")[1]) // int(K.split("^")[1])
        warmup.append(_decide_job(rng, (1, 1, None, e, e, K, L, 0)))
    cold = _tower_job(random.Random(0), "S3xC3xC3", COLD_TOWER)
    return Workload(jobs, warmup, cold, 3.4)


# -- the certified S_n constructor ----------------------------------------------------

HUGE_SPECS = ["3:rq", "inf:ts", "7:ts:ramL"]   # huge coefficients: discriminants, Sturm
SMALL_SPECS = ["3:rq", "7:ts:ramL"]            # small coefficients: root trees, DDF


def _construct_argv(specs: list[str], n_min: int) -> list[str]:
    argv = ["construct-lprime"]
    for s in specs:
        argv += ["--spec", s]
    return argv + ["--p-kernel", "5", "--n-min", str(n_min)]


def _construct_pair(specs: list[str], n_min: int, at: int) -> list[Job]:
    construct = Job("construct", _construct_argv(specs, n_min), {"n_min": n_min})
    verify = Job("verify", None, {}, report_of=at)
    return [construct, verify]


def sn_construct(rng: random.Random, tiny: bool) -> Workload:
    # the constructed degree is the even number at or above n_min, so the
    # seed's choice between n-1 and n leaves the work unchanged
    plan = [(HUGE_SPECS, 6), (HUGE_SPECS, 8), (SMALL_SPECS, 8), (SMALL_SPECS, 10), (SMALL_SPECS, 12)]
    if tiny:
        plan = [(HUGE_SPECS, 4), (SMALL_SPECS, 4)]
    rng.shuffle(plan)
    jobs: list[Job] = []
    for specs, n in plan:
        jobs += _construct_pair(specs, n - rng.randrange(2), len(jobs))
    warmup = _construct_pair(HUGE_SPECS, 4, 0) + _construct_pair(SMALL_SPECS, 4, 2)
    cold = Job("construct", _construct_argv(HUGE_SPECS, 10), {"n_min": 10})
    return Workload(jobs, warmup, cold, 4.5)


WORKLOADS = {
    "ore-large": ore_large,
    "ore-small": ore_small,
    "tower-decide": tower_decide,
    "sn-construct": sn_construct,
}


def build(workload: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), tiny)
