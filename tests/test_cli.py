import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from skewgalois import cli


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def run_module(argv, timeout=None):
    """Run `python -m skewgalois` in a fresh interpreter."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "skewgalois", *argv],
        capture_output=True, text=True, env=env, cwd=root, timeout=timeout,
    )


C3_JSON = json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})
V4_JSON = json.dumps({"order": 4, "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]})


def test_decide_solvable():
    code, out, err = run_cli([
        "decide", "--group", C3_JSON, "--alpha", json.dumps({"map": [0, 1, 2]}),
        "--K", "2^2", "--L", "2^6", "--sigma", "1",
    ])
    assert code == 0, err
    data = json.loads(out)
    assert data["status"] == "SOLVABLE"
    assert data["tau"] == {"frob": 3}
    assert data["witness"] == {"g": 1, "ord": 3}


def test_decide_unsolvable():
    code, out, _ = run_cli([
        "decide", "--group", V4_JSON, "--alpha", json.dumps({"map": [0, 1, 0, 1]}),
        "--K", "2^2", "--L", "2^4", "--sigma", "1",
    ])
    assert code == 0
    assert json.loads(out)["status"] == "UNSOLVABLE"


def test_lift_tau_success_and_failure():
    code, out, _ = run_cli(["lift-tau", "--K", "2^2", "--L", "2^6", "--sigma", "1"])
    assert code == 0
    data = json.loads(out)
    assert data["tau"] == {"frob": 3} and data["order"] == 2 and data["unique"]
    code, out, err = run_cli(["lift-tau", "--K", "2^2", "--L", "2^4", "--sigma", "1"])
    assert code == 1 and out == ""
    edata = json.loads(err)
    assert edata["error"] == "CoprimalityFailure"
    assert sorted(o for _, o in edata["extensions"]) == [4, 4]
    assert err == ('{"error": "CoprimalityFailure", "extensions": [[1, 4], [3, 4]], '
                   '"message": "gcd(order of sigma = 2, [L:K] = 2) > 1: no extension of sigma '
                   'has order 2; extension orders are [4]"}\n')


def test_lemma1_verb():
    code, out, _ = run_cli(["lemma1", "--K", "2^2", "--L", "2^6", "--sigma", "1", "--tau", "3"])
    assert code == 0
    assert json.loads(out) == {"cond2": True, "cond3": True}
    code, out, _ = run_cli(["lemma1", "--K", "2^2", "--L", "2^4", "--sigma", "1", "--tau", "1"])
    assert json.loads(out) == {"cond2": False, "cond3": False}


def test_ore_ops():
    f = json.dumps({"base": "2^2", "frob": 1, "coeffs": [[0, 1], [1, 0]]})
    g = json.dumps({"base": "2^2", "frob": 1, "coeffs": [[1, 1], [1, 0]]})
    code, out, _ = run_cli(["ore", "--op", "mul", "--f", f, "--g", g])
    assert code == 0
    # (w + T)(w^2 + T) = 1 + T^2 over F_4 with the Frobenius twist
    product = json.loads(out)["product"]
    assert product["coeffs"] == [[1, 0], [0, 0], [1, 0]]
    code, out, _ = run_cli(["ore", "--op", "divmod", "--f", json.dumps(product), "--g", g])
    assert code == 0
    data = json.loads(out)
    assert data["remainder"]["coeffs"] == []
    code, out, _ = run_cli(["ore", "--op", "witness", "--f", f, "--g", g])
    assert code == 0
    assert "common_multiple" in json.loads(out)
    code, out, _ = run_cli(["ore", "--op", "gcd", "--f", f, "--g", f])
    assert json.loads(out)["gcd"]["coeffs"] == json.loads(f)["coeffs"]


def test_ore_past_the_table_limit():
    # F_2^20 is past the log-table limit; (f*g) right-divided by g gives f
    f = json.dumps({"base": "2^20", "frob": 19, "coeffs": [[1, 0, 1], [0, 1], [1] * 20]})
    g = json.dumps({"base": "2^20", "frob": 19, "coeffs": [[0, 0, 0, 1], [1, 1]]})
    code, out, _ = run_cli(["ore", "--op", "mul", "--f", f, "--g", g])
    assert code == 0
    product = json.dumps(json.loads(out)["product"])
    code, out, _ = run_cli(["ore", "--op", "divmod", "--f", product, "--g", g])
    assert code == 0
    data = json.loads(out)
    assert data["remainder"]["coeffs"] == []
    assert data["quotient"]["coeffs"] == [c + [0] * (20 - len(c)) for c in json.loads(f)["coeffs"]]


def test_division_by_zero_polynomial_is_structured_error():
    f = json.dumps({"base": "2^4", "frob": 1, "coeffs": [[1]]})
    g = json.dumps({"base": "2^4", "frob": 1, "coeffs": []})
    proc = run_module(["ore", "--op", "divmod", "--f", f, "--g", g])
    assert proc.returncode == cli.EXIT_DOMAIN
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "ZeroDivisionError"


def test_tower_verb():
    code, out, _ = run_cli(["tower", "--group", json.dumps({"perm_gens": [[[0, 1]], [[0, 1, 2]]]})])
    assert code == 0
    steps = json.loads(out)["steps"]
    assert len(steps) == 2
    assert steps[0]["group_order"] == 6 and len(steps[0]["N"]) == 3


TOWER_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "tower_golden.json")


def test_tower_output_matches_golden():
    # stdout of `tower` recorded before the subgroup scan and the table
    # validation were rewritten: every catalog group given as a table, and
    # permutation groups up to S3xS3xC2 and S4xC3 (order 72)
    from skewgalois.catalog import catalog

    with open(TOWER_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert {name for name, _ in catalog()} <= {c["name"] for c in cases}
    for case in cases:
        code, out, err = run_cli(["tower", "--group", json.dumps(case["group"])])
        assert code == 0, err
        assert out == case["stdout"], case["name"]


TOWER_SHA256 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "tower_sha256.json")


def test_tower_output_near_the_synthesis_cap_matches_recorded_sha256():
    # stdout sha256 of `tower` on permutation groups of order 2400-4608,
    # near the synthesis cap, where the golden file's groups do not reach
    with open(TOWER_SHA256, encoding="utf-8") as fh:
        cases = json.load(fh)
    for case in cases:
        code, out, err = run_cli(["tower", "--group", json.dumps(case["group"])])
        assert code == 0, err
        assert json.loads(out)["steps"][0]["group_order"] == case["order"], case["name"]
        assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"], case["name"]


@pytest.mark.parametrize("argv,desc", [
    (["lift-tau", "--K", "2", "--L", "2^128", "--sigma", "0"], "2^128"),
    (["lift-tau", "--K", "3", "--L", "3^41", "--sigma", "0"], "3^41"),
    (["decide", "--group", C3_JSON, "--alpha", json.dumps({"map": [0, 1, 2]}),
      "--K", "2^22", "--L", "2^66", "--sigma", "1"], "2^66"),
    (["ore", "--op", "mul", "--f", json.dumps({"base": "2^65", "frob": 1, "coeffs": [[1]]}),
      "--g", json.dumps({"base": "2^2", "frob": 1, "coeffs": [[1]]})], "2^65"),
])
def test_field_order_past_the_cap_is_refused(argv, desc):
    start = time.perf_counter()
    code, out, err = run_cli(argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": f"field order {desc} exceeds the cap 2^64"}


@pytest.mark.parametrize("K,L,sigma,want", [
    ("2^32", "2^64", 0, {"order": 1, "tau": {"frob": 0}, "unique": True}),
    ("3^8", "3^40", 1, {"order": 8, "tau": {"frob": 25}, "unique": True}),
])
def test_field_order_at_the_cap_is_answered(K, L, sigma, want):
    code, out, err = run_cli(["lift-tau", "--K", K, "--L", L, "--sigma", str(sigma)])
    assert code == 0, err
    assert json.loads(out) == want


EXTENSION_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                                "extension_golden.json")


def _extension_golden():
    with open(EXTENSION_GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_decision_verbs_match_golden():
    # stdout, stderr and exit code of lift-tau for every K in L and sigma of
    # selftest's LEMMA_RANGE, lemma1 for every tau extending each such sigma,
    # and decide on the README example and on the split cyclic-quotient
    # problems of catalog_upto(8) over F_2 and F_4, recorded while
    # FFGaloisExt still built an explicit embedding of K into L
    cases = _extension_golden()
    assert {c["argv"][0] for c in cases} == {"lift-tau", "lemma1", "decide"}
    for case in cases:
        code, out, err = run_cli(case["argv"])
        assert (out, err, code) == (case["stdout"], case["stderr"], case["exit"]), case["argv"]


ORE_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "ore_golden.json")
ORE_OPS = ("mul", "divmod", "gcd", "lcm", "witness")


def test_ore_verb_matches_golden():
    # stdout, stderr and exit code of every `ore --op`, recorded while the
    # gcd, lcm and witness chains still ran on OrePoly sums with both
    # cofactors: F_2, F_7, F_2^4, F_3^3, F_5^4, F_2^14, F_2^16 and F_3^12,
    # every twist, on random pairs, a common right factor, equal inputs,
    # g | f, deg g > deg f, unit, constant and zero inputs
    with open(ORE_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    fields = {json.loads(c["f"])["base"] for c in cases}
    assert fields == {"2^1", "7^1", "2^4", "3^3", "5^4", "2^14", "2^16", "3^12"}
    assert len(cases) == 630
    for case in cases:
        for op in ORE_OPS:
            code, out, err = run_cli(["ore", "--op", op, "--f", case["f"], "--g", case["g"]])
            assert [out, err, code] == case[op], (case["case"], op, case["f"], case["g"])


with open(os.path.join(os.path.dirname(ORE_GOLDEN), "cli_pins.json"), encoding="utf-8") as fh:
    CLI_PINS = json.load(fh)


def _seeded_pair(pin):
    """f and g as the seeded generator of a pin makes them: degree random
    coefficients of the base's n digits below p each, then the lead."""
    p, n = map(int, pin["base"].split("^"))
    rng = random.Random(pin["seed"])

    def poly():
        coeffs = [[rng.randrange(p) for _ in range(n)] for _ in range(pin["degree"])]
        return {"base": pin["base"], "frob": pin["frob"], "coeffs": coeffs + [pin["lead"]]}
    return poly(), poly()


@pytest.mark.parametrize("pin", CLI_PINS, ids=[pin["name"] for pin in CLI_PINS])
def test_ore_pins_replay(pin):
    # ore runs whose stdout was recorded by earlier kernels: the README's two
    # examples and two products by 1 whose coefficients take the
    # per-coefficient route, byte for byte, and seeded products at degree 64
    # and witnesses at degree 1000 (within their time bound) by the sha256 of
    # their stdout
    f, g = (pin["f"], pin["g"]) if "f" in pin else _seeded_pair(pin)
    start = time.perf_counter()
    code, out, err = run_cli(["ore", "--op", pin["op"], "--f", json.dumps(f), "--g", json.dumps(g)])
    elapsed = time.perf_counter() - start
    assert code == 0, err
    if "stdout" in pin:
        assert out == pin["stdout"]
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == pin["stdout_sha256"]
    assert elapsed < pin.get("timeout_s", math.inf)


def test_decision_verbs_build_no_embedding(monkeypatch):
    # the verdicts depend on p and the degrees alone: no embedding is built
    # and no field modulus is searched for
    from skewgalois import ffield, modpoly, selftest

    def no_embedding(*args, **kwargs):
        raise AssertionError("a field embedding was built")

    def no_modulus(*args, **kwargs):
        raise AssertionError("a field modulus was searched for")

    ffield.make_field.cache_clear()
    modpoly._least_irreducible_index.cache_clear()
    monkeypatch.setattr(ffield, "embed_subfield", no_embedding)
    monkeypatch.setattr(ffield.SubfieldEmbedding, "__init__", no_embedding)
    monkeypatch.setattr(modpoly, "is_irreducible", no_modulus)
    monkeypatch.setattr(modpoly, "least_irreducible", no_modulus)
    cases = _extension_golden()
    for verb in ("decide", "lift-tau", "lemma1"):
        case = next(c for c in cases if c["argv"][0] == verb and c["exit"] == 0)
        assert run_cli(case["argv"]) == (0, case["stdout"], case["stderr"])
    code, out, err = run_cli(["lift-tau", "--K", "2^32", "--L", "2^64", "--sigma", "0"])
    assert code == 0 and json.loads(out) == {"order": 1, "tau": {"frob": 0}, "unique": True}, err
    for criterion in (selftest.criterion_3, selftest.criterion_4, selftest.criterion_5):
        assert criterion()["passed"]


@pytest.mark.parametrize("base", ["2^20", "3^12"])
def test_packed_tier_never_reads_base_p_digits(monkeypatch, base):
    # past the log-table limit coefficient vectors are packed into slots and
    # read back from them directly, never through an index and its digits
    from skewgalois import ffield

    def no_digits(*args, **kwargs):
        raise AssertionError("base-p digits in the packed tier")

    monkeypatch.setattr(ffield.FqField, "_digits", no_digits)
    monkeypatch.setattr(ffield._PackedField, "_index_v", no_digits)
    p, n = map(int, base.split("^"))
    f = json.dumps({"base": base, "frob": 1, "coeffs": [[1, 2 % p, 1], [0, 1], [1] * n]})
    g = json.dumps({"base": base, "frob": 1, "coeffs": [[0, 0, 0, 1], [1, 1], [p - 1, 0, 1]]})
    for op in ("mul", "gcd", "witness"):
        code, out, err = run_cli(["ore", "--op", op, "--f", f, "--g", g])
        assert code == 0 and out, err


@pytest.mark.parametrize("base", ["2^20", "3^12"])
def test_packed_tier_inverts_without_euclid(monkeypatch, base):
    # past the log-table limit an inverse is a Frobenius chain: once the
    # modulus is known, no F_p[x] Euclid or division runs.  The names are
    # patched with raising=True, so a rename fails here instead of leaving
    # the guard checking nothing.
    from skewgalois import ffield, modpoly

    def no_euclid(*args, **kwargs):
        raise AssertionError("F_p[x] Euclid ran in the packed tier")

    assert ffield.field_from_descriptor(base).modulus  # the search divides in F_p[x]
    for name in ("_divmod", "_gcd", "_monic"):
        monkeypatch.setattr(modpoly.QuotientRing, name, no_euclid, raising=True)
    inverses, inv = [], ffield._PackedField._inv
    monkeypatch.setattr(ffield._PackedField, "_inv", lambda F, a: inverses.append(a) or inv(F, a))
    p, n = map(int, base.split("^"))
    f = json.dumps({"base": base, "frob": 1, "coeffs": [[1, 2 % p, 1], [0, 1], [1] * n]})
    g = json.dumps({"base": base, "frob": 1, "coeffs": [[0, 0, 0, 1], [1, 1], [p - 1, 0, 1]]})
    code, out, err = run_cli(["ore", "--op", "gcd", "--f", f, "--g", g])
    assert code == 0 and json.loads(out)["gcd"]["coeffs"] == [[1] + [0] * (n - 1)], err
    code, out, err = run_cli(["ore", "--op", "lcm", "--f", f, "--g", g])
    assert code == 0, err
    lcm = json.dumps(json.loads(out)["lcm"])
    assert len(json.loads(lcm)["coeffs"]) == 5  # deg f + deg g, as the gcd is 1
    for h in (f, g):
        code, out, err = run_cli(["ore", "--op", "divmod", "--f", lcm, "--g", h])
        assert code == 0 and json.loads(out)["remainder"]["coeffs"] == [], err
    code, out, err = run_cli(["ore", "--op", "witness", "--f", f, "--g", g])
    assert code == 0, err
    data = json.loads(out)
    code, out, err = run_cli(["ore", "--op", "mul", "--f", g, "--g", json.dumps(data["s"])])
    assert code == 0 and json.loads(out)["product"] == data["common_multiple"], err
    assert data["common_multiple"]["coeffs"]
    assert inverses


@pytest.mark.parametrize("group", [
    {"table": [[0, 1], [1, "a"]]},
    {"perm_gens": "ab"},
    {"perm_gens": [[[0, "x"]]]},
    {"perm_gens": [[[1.5, 0]]]},
    {"perm_gens": [[[0, -1]]]},
    {"perm_gens": [[[0, True]]]},
    {"order": 3, "table": [[0, 1], [1, 0]]},
])
def test_malformed_group_json_is_structured_error(group):
    proc = run_module(["tower", "--group", json.dumps(group)])
    assert proc.returncode == cli.EXIT_DOMAIN
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "ValueError"


@pytest.mark.parametrize("entry", [True, 1.0])
def test_decide_table_entry_that_is_not_an_int_is_structured_error(entry):
    # True and 1.0 equal the index 1, so the type check must run before the
    # table's entries are compared with its indices
    group = json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, entry]]})
    code, out, err = run_cli(["decide", "--group", group, "--alpha", json.dumps({"map": [0, 1, 2]}),
                              "--K", "2^2", "--L", "2^6", "--sigma", "1"])
    assert (code, out) == (cli.EXIT_DOMAIN, "")
    assert json.loads(err) == {"error": "ValueError", "message": "'table' must be a list of integer rows"}


@pytest.mark.parametrize("gens,message", [
    ([[[0, 1, 0]]], "a cycle of a permutation generator repeats a point"),
    ([[[0, 1], [1, 2]]], "two cycles of one permutation generator share a point"),
])
def test_bad_cycles_are_rejected_at_parse_time(gens, message):
    code, out, err = run_cli(["tower", "--group", json.dumps({"perm_gens": gens})])
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": message}


def test_construct_and_verify_roundtrip(tmp_path):
    code, out, _ = run_cli([
        "construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
        "--p-kernel", "5", "--n-min", "3",
    ])
    assert code == 0
    report = json.loads(out)
    assert report["n"] == 4
    assert report["certificates"]["sn"]["conclusion"]
    # verify from a file path as well as inline
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out2, _ = run_cli(["verify-report", "--report", str(path)])
    assert code == 0 and json.loads(out2)["ok"]
    # a report written while reports still carried a "seed" key verifies
    assert "seed" not in report
    code, out2, _ = run_cli(["verify-report", "--report", json.dumps(dict(report, seed=0))])
    assert code == 0 and json.loads(out2)["ok"]
    # a report written while rq evidence still carried "v_a" verifies
    rq = [c for c in report["certificates"]["locals"] if c["spec"]["kind"] == "rq"]
    assert len(rq) == 2 and all(set(c["evidence"]) == {"v_b", "unramified_part_roots"} for c in rq)
    with_v_a = json.loads(out)
    for c in with_v_a["certificates"]["locals"]:
        if c["spec"]["kind"] == "rq":
            c["evidence"]["v_a"] = 1
    code, out2, _ = run_cli(["verify-report", "--report", json.dumps(with_v_a)])
    assert code == 0 and json.loads(out2)["ok"]
    # tampered report: exit 3
    report["Q"][1] += 1
    code, _, _ = run_cli(["verify-report", "--report", json.dumps(report)])
    assert code == 3


def _drop_spec_checks(report):
    locals_ = report["certificates"]["locals"]
    report["certificates"]["locals"] = [c for c in locals_ if c["spec"] not in report["specs"]]


def _false_claim(report):
    report["specs"].append({"prime": 17, "kind": "ts", "ram_in_L": True})


def _unramify_7(report):
    next(s for s in report["specs"] if s["prime"] == 7)["ram_in_L"] = False


def _place_3_twice(report):
    report["specs"].append({"prime": 3, "kind": "ts", "ram_in_L": True})


@pytest.mark.parametrize("tamper,failure", [
    (_drop_spec_checks, "local certificate changed at 7:ts:ramL"),
    (_false_claim, "local certificate fails at 17:ts:ramL: Newton's condition fails at target 0"),
    (_unramify_7, "stored certificates at unclaimed places: 7:ts:ramL"),
    (_place_3_twice, "duplicate place 3"),
], ids=["spec-checks-dropped", "false-claim", "ramL-flipped", "place-twice"])
def test_verify_checks_every_claimed_place(tamper, failure):
    # the places come from the report's claims, not from its stored checks
    code, out, err = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                              "--spec", "7:ts:ramL", "--p-kernel", "5", "--n-min", "6"])
    assert code == cli.EXIT_OK, err
    report = json.loads(out)
    tamper(report)
    code, out, err = run_cli(["verify-report", "--report", json.dumps(report)])
    assert code == cli.EXIT_CERT, err
    result = json.loads(out)
    assert result["ok"] is False and failure in result["failures"]


@pytest.mark.parametrize("key,value", [("odd_valuation", False), ("prime_unramified_in_L", False),
                                       ("prime", 999983), ("disc_valuation", 3), ("note", "kept")])
def test_verify_rechecks_the_stored_disjointness_certificate(key, value):
    # every re-derived key must equal the stored one; a key the verifier
    # does not derive is ignored, as in the local evidence
    code, out, err = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                              "--p-kernel", "5", "--n-min", "6"])
    assert code == cli.EXIT_OK, err
    report = json.loads(out)
    assert report["certificates"]["disjoint"].get(key) != value
    report["certificates"]["disjoint"][key] = value
    code, out, err = run_cli(["verify-report", "--report", json.dumps(report)])
    if key == "note":
        assert code == cli.EXIT_OK and json.loads(out) == {"ok": True, "failures": []}, err
    else:
        assert code == cli.EXIT_CERT, err
        assert json.loads(out) == {"ok": False, "failures": ["stored disjointness certificate mismatch"]}


@pytest.mark.parametrize("tamper,failures", [
    (lambda Q: Q[:-1] + [2], ["Q is not monic"]),
    (lambda Q: [], ["Q is not monic", "stated degree does not match Q"]),
    (lambda Q: Q + [0], ["Q is not monic", "stated degree does not match Q"]),
])
def test_non_monic_report_is_a_certificate_failure(monkeypatch, tamper, failures):
    code, out, _ = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                            "--p-kernel", "5", "--n-min", "3"])
    assert code == 0
    report = json.loads(out)
    report["Q"] = tamper(report["Q"])
    # every certificate reads a monic Q, so none is re-derived
    from skewgalois import splitcon

    monkeypatch.setattr(splitcon, "certify_local_behavior", None)
    code, out, err = run_cli(["verify-report", "--report", json.dumps(report)])
    assert code == 3, err
    assert json.loads(out) == {"ok": False, "failures": failures}


def _malformed_q(report):
    report["Q"][1] = 1.5


def _malformed_n(report):
    report["n"] = str(report["n"])


def _malformed_aux(report):
    report["aux"] = []


def _aux_not_objects(report):
    report["aux"] = [1, 2, 3, 4]


def _sn_as_list(report):
    report["certificates"]["sn"] = [report["certificates"]["sn"]]


def _locals_as_string(report):
    report["certificates"]["locals"] = "locals"


def _degree_as_string(report):
    aux = next(s for s in report["aux"] if "degree" in s)
    aux["degree"] = str(aux["degree"])


def _ram_in_L_as_list(report):
    report["specs"][0]["ram_in_L"] = []


def _ram_in_L_as_string(report):
    report["specs"][0]["ram_in_L"] = "no"


def _ram_in_L_as_int(report):
    report["specs"][0]["ram_in_L"] = 1


@pytest.mark.parametrize("tamper", [_malformed_q, _malformed_n, _malformed_aux, _aux_not_objects,
                                    _sn_as_list, _locals_as_string, _degree_as_string,
                                    _ram_in_L_as_list, _ram_in_L_as_string, _ram_in_L_as_int])
def test_verify_report_malformed_shape_is_structured_error(tamper):
    code, out, _ = run_cli([
        "construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
        "--p-kernel", "5", "--n-min", "3",
    ])
    assert code == 0
    report = json.loads(out)
    tamper(report)
    proc = run_module(["verify-report", "--report", json.dumps(report)])
    assert proc.returncode == cli.EXIT_DOMAIN
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    assert json.loads(proc.stderr)["error"] == "SpecError"


CONSTRUCT_GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                                "construct_golden.json")


def test_constructor_output_matches_golden():
    # exit code and stdout sha256 of construct-lprime, and of verify-report on
    # its output: specs "3:rq, inf:ts, 7:ts:ramL" and "3:rq, 7:ts:ramL" at
    # n_min 3-12, "3:rq, inf:ts, 7:ts:ramL" and "2:rq, inf:ts" at 16, 18, 20;
    # and "3:rq" at n_min 2, the one degree with a degree-1 auxiliary; recorded
    # with the first auxiliary prime odd and at least n - 1
    with open(CONSTRUCT_GOLDEN, encoding="utf-8") as fh:
        cases = json.load(fh)
    assert len(cases) == 27
    for case in cases:
        code, out, err = run_cli(case["argv"])
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (case["exit"], case["stdout_sha256"]), err
        code, out, err = run_cli(["verify-report", "--report", out])
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert (code, digest) == (case["verify_exit"], case["verify_stdout_sha256"]), err


def test_level_and_feasible_verbs():
    code, out, _ = run_cli(["level", "--place", "5"])
    assert code == 0 and json.loads(out)["level"] == 1
    code, out, _ = run_cli(["level", "--place", "2"])
    assert json.loads(out)["level"] == 4
    code, out, _ = run_cli(["level", "--place", "REAL"])
    assert json.loads(out)["level"] == "INFINITY"
    code, out, _ = run_cli(["feasible-13", "--field", "Q"])
    assert json.loads(out)["feasible"] is True
    code, out, _ = run_cli(["feasible-13", "--field", "Q(sqrt:-1)", "--division-ring"])
    data = json.loads(out)
    assert data["feasible"] is False and data["division_ring"]["feasible"] is False


# a 30-digit prime: trial division up to its square root would not finish
_HUGE_PRIME = 10**29 + 319


@pytest.mark.parametrize("m", [_HUGE_PRIME, -_HUGE_PRIME])
def test_feasible_rejects_oversized_m(m):
    proc = run_module(["feasible-13", "--field", f"Q(sqrt:{m})"], timeout=30)
    assert proc.returncode == cli.EXIT_DOMAIN
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ValueError" and "at most" in err["message"]


def test_verify_report_rejects_r3p_spec():
    code, out, _ = run_cli([
        "construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
        "--p-kernel", "5", "--n-min", "3",
    ])
    assert code == 0
    report = json.loads(out)
    report["specs"][0] = {"prime": 5, "kind": "r3p", "q": _HUGE_PRIME}
    proc = run_module(["verify-report", "--report", json.dumps(report)], timeout=30)
    assert proc.returncode == cli.EXIT_DOMAIN
    assert proc.stdout == "" and "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "SpecError" and "unknown kind" in err["message"]


def test_exit_codes():
    code, _, _ = run_cli(["decide", "--bogus"])
    assert code == 2  # usage error
    code, out, err = run_cli(["--seed", "1", "level", "--place", "5"])
    assert code == cli.EXIT_USAGE == 2 and out == ""
    assert json.loads(err)["error"] == "UsageError"  # there is no --seed option
    code, _, err = run_cli(["level", "--place", "nonsense"])
    assert code == 1 and json.loads(err)["error"]
    code, _, err = run_cli(["construct-lprime", "--spec", "3:rq", "--p-kernel", "2", "--n-min", "2"])
    assert code == 1  # even kernel prime is a domain error


@pytest.mark.parametrize("exc", [AssertionError("invariant broken"), TypeError("bad operand")])
def test_unexpected_exception_is_internal_error(monkeypatch, exc):
    def boom(args):
        raise exc

    monkeypatch.setitem(cli._VERBS, "level", boom)
    code, out, err = run_cli(["level", "--place", "5"])
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err) == {"error": "InternalError", "type": type(exc).__name__,
                               "message": str(exc)}


def test_determinism_byte_identical():
    argv = ["decide", "--group", C3_JSON, "--alpha", json.dumps({"map": [0, 1, 2]}),
            "--K", "2^2", "--L", "2^6", "--sigma", "1"]
    outs = {run_cli(argv)[1] for _ in range(3)}
    assert len(outs) == 1
    argv = ["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
            "--p-kernel", "5", "--n-min", "4"]
    outs = {run_cli(argv)[1] for _ in range(2)}
    assert len(outs) == 1


def test_pretty_flag():
    code, out, _ = run_cli(["--pretty", "level", "--place", "5"])
    assert code == 0 and "\n" in out
    assert json.loads(out)["level"] == 1


def test_module_entrypoint_subprocess():
    proc = run_module(["level", "--place", "3"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["level"] == 2


TWO_SPECS = ["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts", "--p-kernel", "5", "--n-min", "3"]


def _without_timings(result):
    """A run's (code, stdout, stderr) with selftest's elapsed times blanked."""
    code, out, err = result
    return code, re.sub(r'"elapsed_s":[0-9.]+', '"elapsed_s":0', out), err


def test_parser_is_built_once_and_reused(monkeypatch):
    report = run_cli(TWO_SPECS)[1]
    ore_f = json.dumps({"base": "2^2", "frob": 1, "coeffs": [[0, 1], [1, 0]]})
    sequence = [
        ["decide", "--bogus"],
        ["--help"],
        TWO_SPECS,
        TWO_SPECS,
        ["--pretty", "level", "--place", "5"],
        ["level", "--place", "5"],
        ["decide", "--group", C3_JSON, "--alpha", json.dumps({"map": [0, 1, 2]}),
         "--K", "2^2", "--L", "2^6", "--sigma", "1"],
        ["lift-tau", "--K", "2^2", "--L", "2^6", "--sigma", "1"],
        ["lemma1", "--K", "2^2", "--L", "2^6", "--sigma", "1", "--tau", "3"],
        ["ore", "--op", "witness", "--f", ore_f, "--g", ore_f],
        ["tower", "--group", json.dumps({"perm_gens": [[[0, 1]], [[0, 1, 2]]]})],
        ["feasible-13", "--field", "Q(sqrt:-1)", "--division-ring"],
        ["verify-report", "--report", report],
        ["selftest", "--only", "9"],
    ]
    assert {argv[0] for argv in sequence[6:]} | {"construct-lprime", "level"} == set(cli._VERBS)
    assert cli._build_parser() is cli._build_parser()
    reused = [_without_timings(run_cli(argv)) for argv in sequence]
    assert [code for code, _, _ in reused[:4]] == [cli.EXIT_USAGE, cli.EXIT_OK, cli.EXIT_OK, cli.EXIT_OK]
    assert reused[2] == reused[3] and len(json.loads(reused[3][1])["specs"]) == 2
    assert "\n " in reused[4][1] and "\n" not in reused[5][1].rstrip("\n")
    # every call again, each on a parser of its own
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [_without_timings(run_cli(argv)) for argv in sequence]
    for argv, got, want in zip(sequence, reused, fresh):
        assert got == want, argv


def test_degree_past_the_cap_is_refused():
    from skewgalois.splitcon import DEGREE_MAX

    for argv, message in [
        (TWO_SPECS[:-1] + [str(DEGREE_MAX + 1)], f"degree {DEGREE_MAX + 2} exceeds the cap {DEGREE_MAX}"),
        (TWO_SPECS[:-1] + [str(10**30)], f"degree {10**30} exceeds the cap {DEGREE_MAX}"),
        (["construct-lprime", "--spec", f"3:ur{DEGREE_MAX + 1}", "--p-kernel", "5", "--n-min", "3"],
         f"unramified degree {DEGREE_MAX + 1} exceeds the cap {DEGREE_MAX}"),
    ]:
        start = time.perf_counter()
        code, out, err = run_cli(argv)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_DOMAIN and out == ""
        assert json.loads(err) == {"error": "SpecError", "message": message}


@pytest.mark.parametrize("extra,message", [
    ("4", "extra ramified prime 4 is not a prime"),
    ("0", "extra ramified prime 0 is not a prime"),
    ("-3", "extra ramified prime -3 is not a prime"),
    ("3", "extra ramified prime 3 is a spec place not marked :ramL"),
    ("13,4", "extra ramified prime 4 is not a prime"),
])
def test_extra_l_ram_is_validated(extra, message):
    code, out, err = run_cli(TWO_SPECS + ["--extra-l-ram", extra])
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err) == {"error": "SpecError", "message": message}


def _report_argv(tamper):
    """verify-report on the TWO_SPECS report after tamper(report)."""
    def argv():
        code, out, err = run_cli(TWO_SPECS)
        assert code == cli.EXIT_OK, err
        report = json.loads(out)
        tamper(report)
        return ["verify-report", "--report", json.dumps(report)]
    return argv


def _pop(*path):
    def tamper(report):
        *head, last = path
        node = report
        for key in head:
            node = node[key]
        del node[last]
    return tamper


def _pattern_key(report):
    patterns = report["certificates"]["sn"]["patterns"]
    patterns["x"] = patterns.pop(next(iter(patterns)))


def _extra_l_ram(value):
    def tamper(report):
        report["extra_L_ram"] = value
    return tamper


@pytest.mark.parametrize("argv", [
    _report_argv(_pop("certificates", "sn", "n")),
    _report_argv(_pop("certificates", "sn", "conclusion")),
    _report_argv(_pop("certificates", "locals", 0, "spec")),
    _report_argv(_pop("certificates", "locals", 0, "passed")),
    _report_argv(_pop("aux", 0, "prime")),
    _report_argv(_pop("aux", 0, "kind")),
    _report_argv(_pattern_key),
    _report_argv(_extra_l_ram("2")),
    _report_argv(_extra_l_ram([True])),
    lambda: TWO_SPECS + ["--extra-l-ram", "x"],
    lambda: TWO_SPECS + ["--extra-l-ram", "13,1.5"],
    lambda: ["construct-lprime", "--spec", "x:ts", "--p-kernel", "5", "--n-min", "3"],
    lambda: ["construct-lprime", "--spec", "3:urx", "--p-kernel", "5", "--n-min", "3"],
], ids=["sn-n", "sn-conclusion", "local-spec", "local-passed", "aux-prime", "aux-kind",
        "pattern-key", "report-extra-l-ram-string", "report-extra-l-ram-bool", "extra-l-ram",
        "extra-l-ram-float", "spec-prime", "spec-degree"])
def test_malformed_fields_are_spec_errors(argv):
    # a malformed report field or construct-lprime flag is a SpecError, exit 1
    code, out, err = run_cli(argv())
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"] == "SpecError", err


# psi_13 = 1287836182261 * 2575672364521, a strong pseudoprime to every
# Miller-Rabin base up to 41 and the least integer is_prime refuses
PSI_13 = 3317044064679887385961981
_PSI_13_REFUSED = f"{PSI_13} is not provably prime: primality is proved only below {PSI_13}"


def _psi_13_spec(report):
    report["specs"][0]["prime"] = PSI_13


def _psi_13_kernel(report):
    report["p_kernel"] = PSI_13


@pytest.mark.parametrize("argv", [
    lambda: ["construct-lprime", "--spec", f"{PSI_13}:rq", "--spec", "inf:ts", "--p-kernel", "5",
             "--n-min", "3"],
    lambda: ["construct-lprime", "--spec", f"{PSI_13}:ts:ramL", "--spec", "3:rq", "--p-kernel", "5",
             "--n-min", "3"],
    lambda: TWO_SPECS + ["--extra-l-ram", str(PSI_13)],
    lambda: TWO_SPECS[:6] + [str(PSI_13)] + TWO_SPECS[7:],
    _report_argv(_psi_13_spec),
], ids=["spec", "spec-ramL", "extra-l-ram", "p-kernel", "report-spec"])
def test_psi_13_is_refused_as_a_prime(argv):
    code, out, err = run_cli(argv())
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err) == {"error": "SpecError", "message": _PSI_13_REFUSED}


@pytest.mark.parametrize("tamper", [_psi_13_kernel, _extra_l_ram([PSI_13])], ids=["p-kernel", "extra-l-ram"])
def test_report_naming_psi_13_fails_verification(tamper):
    # a stored kernel or extra ramified prime is judged like a composite one:
    # a failed request check, exit 3
    code, out, err = run_cli(_report_argv(tamper)())
    assert code == cli.EXIT_CERT, err
    assert _PSI_13_REFUSED in json.loads(out)["failures"]


def test_level_refuses_psi_13():
    code, out, err = run_cli(["level", "--place", str(PSI_13)])
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err) == {"error": "ValueError", "message": f"primality is proved only below {PSI_13}"}


def _aux_at_the_real_place(report, cap):
    report["aux"][0] = {"prime": "inf", "kind": "ts"}


def _n_past_the_cap(report, cap):
    report["n"] = cap + 2


def _q_past_the_cap(report, cap):
    rng = random.Random(cap)
    report["Q"] = [rng.randint(-5, 5) for _ in range(cap + 2)] + [1]


@pytest.mark.parametrize("tamper,message", [
    (_aux_at_the_real_place, "an auxiliary spec must be at a finite prime"),
    (_n_past_the_cap, "degree {over} exceeds the cap {cap}"),
    (_q_past_the_cap, "degree {over} exceeds the cap {cap}"),
], ids=["aux-real-place", "n-past-the-cap", "Q-past-the-cap"])
def test_verify_report_refuses_what_no_construction_makes(tamper, message):
    # no construction makes either report: the real place has no p-adic
    # discriminant valuation, and past the cap that valuation's resultant
    # takes seconds to minutes
    from skewgalois.splitcon import DEGREE_MAX

    code, out, err = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                              "--spec", "7:ts:ramL", "--p-kernel", "5", "--n-min", "6"])
    assert code == cli.EXIT_OK, err
    report = json.loads(out)
    tamper(report, DEGREE_MAX)
    message = message.format(over=DEGREE_MAX + 2, cap=DEGREE_MAX)
    start = time.perf_counter()
    code, out, err = run_cli(["verify-report", "--report", json.dumps(report)])
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err) == {"error": "SpecError", "message": message}


PRIMORIAL_47 = 614889782588491410  # the product of the primes up to 47


@pytest.fixture(scope="module")
def report_at_the_cap():
    # the first auxiliary prime of this request is 19
    from skewgalois.splitcon import DEGREE_MAX

    code, out, err = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                              "--spec", "7:ts:ramL", "--p-kernel", "5", "--n-min", str(DEGREE_MAX)])
    assert code == cli.EXIT_OK, err
    return out


def _hostile_q(shape, report):
    """Q replaced by a shape no construction makes, of the report's degree n."""
    n, rng = report["n"], random.Random(shape)
    if shape.startswith("random-"):
        digits = int(shape.split("-")[1])
        return [rng.choice((-1, 1)) * rng.randrange(10 ** (digits - 1), 10**digits)
                for _ in range(n)] + [1]
    if shape == "x-to-the-n-mod-primorial":
        return [PRIMORIAL_47 * rng.randrange(10**4180) for _ in range(n)] + [1]
    # X^(n-2) (X - 1)^2 mod p^k, p^k the largest power of the first auxiliary
    # prime p below 2^14000, so v_p(disc Q) >= k, and the genuine Q modulo the
    # other finite places
    p = report["aux"][0]["prime"]
    m1 = p ** int(14000 / math.log2(p))
    m2 = math.prod(int(q) ** k for q, k in report["place_precision"].items() if q != str(p))
    target = [0] * (n - 2) + [1, -2, 1]
    return [a + m1 * ((b - a) * pow(m1, -1, m2) % m2) for a, b in zip(target, report["Q"])]


@pytest.mark.parametrize("shape", ["random-1200", "random-4250", "x-to-the-n-mod-primorial",
                                   "disc-valuation-14000"])
def test_verify_report_rejects_a_hostile_q_in_bounded_time(report_at_the_cap, shape):
    # each shape took 8.6 to 278 s (one CLI run each, shared 2-vCPU host)
    # while the verifier kept the Sturm count, the exact discriminant and
    # the doubling of the discriminant's modulus
    report = json.loads(report_at_the_cap)
    report["Q"] = _hostile_q(shape, report)
    assert max(len(str(abs(c))) for c in report["Q"]) < 4300  # the int parse limit
    start = time.perf_counter()
    code, out, err = run_cli(["verify-report", "--report", json.dumps(report)])
    assert time.perf_counter() - start < 5.0
    assert code == cli.EXIT_CERT, err
    result = json.loads(out)
    assert result["ok"] is False
    if shape == "disc-valuation-14000":
        aux1 = report["aux"][0]["prime"]
        assert f"discriminant valuation at {aux1} is at least 2" in result["failures"]


def test_extra_l_ram_prime_is_answered():
    code, out, err = run_cli(TWO_SPECS + ["--extra-l-ram", "13"])
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["certificates"]["sn"]["conclusion"]
    # the first auxiliary prime, 5 without the flag, avoids the primes
    # ramified in L, and the report records them for the verifier
    code, out, err = run_cli(TWO_SPECS + ["--extra-l-ram", "5"])
    assert code == cli.EXIT_OK, err
    report = json.loads(out)
    assert report["aux"][0]["prime"] == 7 and report["extra_L_ram"] == [5]
    code, out, err = run_cli(["verify-report", "--report", out])
    assert code == cli.EXIT_OK and json.loads(out) == {"ok": True, "failures": []}, err
    # a spec place marked :ramL may be named again
    code, _, err = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "7:ts:ramL",
                            "--p-kernel", "5", "--n-min", "3", "--extra-l-ram", "7"])
    assert code == cli.EXIT_OK, err


@pytest.mark.parametrize("extra,stored_unramified,failures", [
    (["aux1"], True, ["stored disjointness certificate mismatch", "first auxiliary prime {aux1} is ramified in L"]),
    (["aux1"], False, ["first auxiliary prime {aux1} is ramified in L"]),
    ([4], True, ["extra ramified prime 4 is not a prime"]),
])
def test_verify_requires_the_first_auxiliary_prime_unramified_in_L(extra, stored_unramified, failures):
    # the report without the flag has aux1 = 5; claiming L ramified there
    # ("aux1" below) fails it even when the stored certificate agrees
    code, out, err = run_cli(TWO_SPECS)
    assert code == cli.EXIT_OK, err
    report = json.loads(out)
    aux1 = report["aux"][0]["prime"]
    assert "extra_L_ram" not in report and aux1 == 5
    report["extra_L_ram"] = [aux1 if q == "aux1" else q for q in extra]
    report["certificates"]["disjoint"]["prime_unramified_in_L"] = stored_unramified
    code, out, err = run_cli(["verify-report", "--report", json.dumps(report)])
    assert code == cli.EXIT_CERT, err
    assert json.loads(out) == {"ok": False, "failures": [f.format(aux1=aux1) for f in failures]}


def _construct_argv(specs, n):
    argv = ["construct-lprime"]
    for spec in specs:
        argv += ["--spec", spec]
    return argv + ["--p-kernel", "5", "--n-min", str(n)]


@pytest.mark.parametrize("specs", [("3:rq", "inf:ts", "7:ts:ramL"), ("2:rq", "inf:ts")])
@pytest.mark.parametrize("n", [16, 18, 20])
def test_large_degree_reports_stay_under_the_int_string_limit(specs, n):
    code, out, err = run_cli(_construct_argv(specs, n))
    assert code == cli.EXIT_OK, err
    report = json.loads(out)
    assert report["n"] == n
    assert max(len(str(abs(c))) for c in report["Q"]) < 4300
    assert isinstance(report["precision"], int)
    code, out, err = run_cli(["verify-report", "--report", out])
    assert code == cli.EXIT_OK, err
    assert json.loads(out) == {"ok": True, "failures": []}


def test_degree_12_report_digits():
    code, out, err = run_cli(_construct_argv(("3:rq", "inf:ts", "7:ts:ramL"), 12))
    assert code == cli.EXIT_OK, err
    assert max(len(str(abs(c))) for c in json.loads(out)["Q"]) <= 902


def test_output_past_the_int_string_limit_is_structured_error():
    # at n = 20 with a real place, Q has coefficients of 937 digits: the
    # report is printed under the default limit of 4300 digits
    argv = _construct_argv(("3:rq", "inf:ts", "7:ts:ramL"), 20)
    code, out, err = run_cli(argv)
    assert code == cli.EXIT_OK, err
    assert json.loads(out)["n"] == 20
    # json refuses ints past sys.get_int_max_str_digits(): under a lower
    # limit the same report ends in a structured ValueError
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run_cli(argv)
    finally:
        sys.set_int_max_str_digits(limit)
    assert "Traceback" not in out + err
    assert code == cli.EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"] == "ValueError"


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _readme_usage_commands():
    """The argv of each `skewgalois ...` line in the README's command-line
    usage block, with continuation lines joined."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    block = text.split("## Command-line interface", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("skewgalois ")]


def test_readme_usage_block_runs(tmp_path):
    # every documented command exits 0 with JSON on stdout; the
    # construct-lprime > report.json / verify-report pair goes through a
    # file, and selftest is left to test_acceptance.py
    commands = _readme_usage_commands()
    verbs = [argv[0] for argv in commands]
    assert verbs.count("ore") == 2 and ["ore", "--op", "witness"] in [a[:3] for a in commands]
    assert {"decide", "tower", "construct-lprime", "verify-report", "selftest"} <= set(verbs)
    report = str(tmp_path / "report.json")
    for argv in commands:
        if argv[0] == "selftest":
            continue
        argv = [report if a == "report.json" else a for a in argv]
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[argv.index(">") + 1]
        code, out, err = run_cli(argv)
        assert code == 0 and err == "", (argv, err)
        assert isinstance(json.loads(out), dict), argv
        if target is not None:
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(out)
    assert os.path.exists(report)
