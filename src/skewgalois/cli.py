"""Batch command-line front end: every decision procedure and constructor
behind one verb each, JSON in and JSON out.

Output on stdout is a function of the command line (keys sorted, no
timestamps); errors, usage errors included, go to stderr as structured
JSON.  Exit codes: 0 for success or a passing certificate, 1 for domain
errors, 2 for usage errors, 3 for a failing certificate or verification
(its result on stdout), 4 for an internal error (any other exception,
reported without a traceback).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import embed, ffield, groups, orepoly, quat, selftest, splitcon

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_CERT = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    """A malformed command line."""


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line by raising UsageError, so that it
    reaches stderr as JSON like every other error (argparse would print
    its usage text and exit)."""

    def error(self, message):
        raise UsageError(message)


def _load(arg: str):
    """Accept inline JSON or a path to a JSON file."""
    text = arg
    if not arg.lstrip().startswith(("{", "[")):
        with open(arg, "r", encoding="utf-8") as fh:
            text = fh.read()
    return json.loads(text)


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    keeps its results in a fresh namespace and leaves the parser as it was."""
    ap = _Parser(
        prog="skewgalois",
        description="decision procedures for twisted polynomial rings, "
        "embedding problems over finite fields, symmetric-group "
        "constructions, and quaternion level checks",
    )
    ap.add_argument("--pretty", action="store_true", help="indent the JSON output")
    sub = ap.add_subparsers(dest="verb", required=True)

    d = sub.add_parser("decide", help="solvability of an embedding problem over the twisted function field")
    d.add_argument("--group", required=True, help="group JSON (inline or file)")
    d.add_argument("--alpha", required=True, help='{"map": [...]} image list onto C_[L:K]')
    d.add_argument("--K", required=True, help='base field descriptor "p^n"')
    d.add_argument("--L", required=True, help='extension field descriptor "p^m"')
    d.add_argument("--sigma", type=int, required=True, help="Frobenius exponent of sigma on K")

    lt = sub.add_parser("lift-tau", help="unique same-order extension of sigma to L")
    lt.add_argument("--K", required=True)
    lt.add_argument("--L", required=True)
    lt.add_argument("--sigma", type=int, required=True)

    lm = sub.add_parser("lemma1", help="both Galois-condition characterizations for (L/K, sigma, tau)")
    lm.add_argument("--K", required=True)
    lm.add_argument("--L", required=True)
    lm.add_argument("--sigma", type=int, required=True)
    lm.add_argument("--tau", type=int, required=True)

    o = sub.add_parser("ore", help="twisted polynomial arithmetic")
    o.add_argument("--op", required=True, choices=["mul", "divmod", "gcd", "lcm", "witness"])
    o.add_argument("--f", required=True, help="polynomial JSON (inline or file)")
    o.add_argument("--g", required=True)

    tw = sub.add_parser("tower", help="nilpotent-kernel reduction tower of a solvable group")
    tw.add_argument("--group", required=True)

    cl = sub.add_parser("construct-lprime", help="certified construction with prescribed local behavior")
    cl.add_argument("--spec", action="append", required=True,
                    help='place spec "<prime>:ts|rq|ur<m>[:ramL]" or "inf:ts" (repeatable)')
    cl.add_argument("--p-kernel", type=int, required=True)
    cl.add_argument("--n-min", type=int, required=True)
    cl.add_argument("--extra-l-ram", default="",
                    help="comma-separated primes known ramified in L beyond the specs")

    lv = sub.add_parser("level", help="level of a completion of Q")
    lv.add_argument("--place", required=True, help='a prime, "REAL", or "inf"')

    fe = sub.add_parser("feasible-13", help="does some completion of the field have level >= 4")
    fe.add_argument("--field", required=True, help='"Q" or "Q(sqrt:m)"')
    fe.add_argument("--division-ring", action="store_true",
                    help="also report whether the quaternions form a division ring")

    vr = sub.add_parser("verify-report", help="re-check a construction report from its JSON")
    vr.add_argument("--report", required=True)

    st = sub.add_parser("selftest", help="run the bundled verification suites")
    st.add_argument("--only", type=int, default=None, help="run a single criterion (1-10)")
    return ap


def _verb_decide(args) -> tuple[dict, int]:
    G = groups.group_from_json(_load(args.group))
    K = ffield.field_from_descriptor(args.K)
    L = ffield.field_from_descriptor(args.L)
    ext = embed.FFGaloisExt(K, L)
    alpha = _load(args.alpha)
    if not isinstance(alpha, dict) or not isinstance(alpha.get("map"), list):
        raise ValueError('alpha must be {"map": [...]}, an image list')
    ep = embed.problem_from_quotient(ext, G, alpha["map"])
    verdict = embed.decide_sigma_solvability(ep, ffield.FieldAut(K, args.sigma))
    return verdict.to_json(), EXIT_OK


def _verb_lift_tau(args) -> tuple[dict, int]:
    K = ffield.field_from_descriptor(args.K)
    L = ffield.field_from_descriptor(args.L)
    ext = embed.FFGaloisExt(K, L)
    tau = embed.lift_sigma(ext, ffield.FieldAut(K, args.sigma))
    # lift_sigma returns only when the same-order extension is unique
    return {"tau": tau.to_json(), "order": tau.order, "unique": True}, EXIT_OK


def _verb_lemma1(args) -> tuple[dict, int]:
    K = ffield.field_from_descriptor(args.K)
    L = ffield.field_from_descriptor(args.L)
    ext = embed.FFGaloisExt(K, L)
    res = embed.lemma1_check(ext, ffield.FieldAut(K, args.sigma), ffield.FieldAut(L, args.tau))
    return res, EXIT_OK


def _verb_ore(args) -> tuple[dict, int]:
    f = orepoly.ore_poly_from_json(_load(args.f))
    g = orepoly.ore_poly_from_json(_load(args.g))
    if args.op == "mul":
        return {"product": orepoly.ore_mul(f, g).to_json()}, EXIT_OK
    if args.op == "divmod":
        res = orepoly.ore_right_divmod(f, g)
        return {"quotient": res.quotient.to_json(), "remainder": res.remainder.to_json()}, EXIT_OK
    if args.op == "gcd":
        return {"gcd": orepoly.ore_right_gcd(f, g).to_json()}, EXIT_OK
    if args.op == "lcm":
        return {"lcm": orepoly.ore_left_lcm(f, g).to_json()}, EXIT_OK
    r, s, common = orepoly._witness(f, g)
    return {"r": r.to_json(), "s": s.to_json(), "common_multiple": common.to_json()}, EXIT_OK


def _verb_tower(args) -> tuple[dict, int]:
    G = groups.group_from_json(_load(args.group))
    steps = []
    for step in groups.solvable_tower(G):
        steps.append(
            {
                "group_order": step.group.order,
                "N": list(step.N.elements),
                "Gp": list(step.Gp.elements),
                "phi": list(step.phi),
                "kernel_order": step.kernel_order(),
                "note": step.note,
            }
        )
    return {"steps": steps}, EXIT_OK


def _verb_construct(args) -> tuple[dict, int]:
    specs = [splitcon.parse_spec(s) for s in args.spec]
    try:
        extra = {int(p) for p in args.extra_l_ram.split(",") if p.strip()}
    except ValueError:
        raise splitcon.SpecError(f"bad --extra-l-ram list {args.extra_l_ram!r}") from None
    report = splitcon.construct_lprime(specs, p_kernel=args.p_kernel, n_min=args.n_min,
                                       extra_L_ram=frozenset(extra))
    return report.to_json(), EXIT_OK


def _verb_level(args) -> tuple[dict, int]:
    place = args.place
    if place in (quat.REAL_PLACE, "inf"):
        result = quat.level_local(quat.REAL_PLACE)
    else:
        result = quat.level_local(int(place))
    return result.to_json(), EXIT_OK


def _verb_feasible(args) -> tuple[dict, int]:
    res = quat.theorem13_feasible(args.field)
    payload = res.to_json()
    if args.division_ring:
        payload["division_ring"] = quat.is_division_ring(args.field).to_json()
    return payload, EXIT_OK


def _verb_verify_report(args) -> tuple[dict, int]:
    report = splitcon.report_from_json(_load(args.report))
    result = splitcon.verify_report(report)
    return result.to_json(), EXIT_OK if result.ok else EXIT_CERT


def _verb_selftest(args) -> tuple[dict, int]:
    summary = selftest.run_all(only=args.only)
    for r in summary["criteria"]:
        status = "PASS" if r["passed"] else "FAIL"
        print(f"{r['name']}: {status}", file=sys.stderr)
    return summary, EXIT_OK if summary["all_passed"] else EXIT_CERT


_VERBS = {
    "decide": _verb_decide,
    "lift-tau": _verb_lift_tau,
    "lemma1": _verb_lemma1,
    "ore": _verb_ore,
    "tower": _verb_tower,
    "construct-lprime": _verb_construct,
    "level": _verb_level,
    "feasible-13": _verb_feasible,
    "verify-report": _verb_verify_report,
    "selftest": _verb_selftest,
}

def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _error({"error": "UsageError", "message": str(exc)})
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        payload, code = _VERBS[args.verb](args)
        # json refuses ints past sys.get_int_max_str_digits() with ValueError
        _emit(payload, args.pretty)
    except (ValueError, KeyError, ZeroDivisionError, OSError) as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        # only embed.CoprimalityFailure carries extensions; naming the class
        # here would load embed on every error
        if hasattr(exc, "extensions"):
            payload["extensions"] = exc.extensions
        _error(payload)
        return EXIT_DOMAIN
    except Exception as exc:
        _error({"error": "InternalError", "type": type(exc).__name__, "message": str(exc)})
        return EXIT_INTERNAL
    return code


def _error(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
