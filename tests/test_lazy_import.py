"""`import skewgalois` runs no submodule; each one runs on its first use.

Every check that depends on what has been loaded runs in a fresh
interpreter without a bytecode cache, the way the benchmark starts the CLI.
A module still waiting for its first use is an instance of a subclass of
`types.ModuleType`, and reading its type does not load it.
"""

import json
import os
import subprocess
import sys
import types

import pytest

import skewgalois

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "perfbench", "spans.py")

# the names the package exported before its submodules were loaded lazily
PUBLIC = [
    "FieldAut", "FqElem", "FqField", "SubfieldEmbedding", "embed_subfield",
    "field_from_descriptor", "frobenius", "galois_group", "make_field", "restrict_aut",
    "InducedRingAut", "OreDivResult", "OrePoly", "OreRing", "anti_involution",
    "induced_ring_aut", "ore_left_lcm", "ore_mul", "ore_right_divmod", "ore_right_gcd",
    "ore_witness",
    "FiniteGroup", "GroupHom", "ReductionStep", "Subgroup", "cyclic_group",
    "fitting_subgroup", "is_nilpotent", "is_solvable", "semidirect_product",
    "shafarevich_step", "solvable_tower",
    "CoprimalityFailure", "EmbeddingProblem", "FFGaloisExt", "Verdict",
    "decide_sigma_solvability", "find_section", "find_weak_solutions", "lemma1_check",
    "lift_sigma", "problem_from_quotient", "split_problem",
    "ConstructionReport", "LocalPoly", "LocalSpec", "SnCertificate",
    "build_local_poly", "certify_local_behavior", "certify_sn", "construct_lprime",
    "odd_prime_for_case_c", "parse_spec", "plan_aux_primes", "verify_report",
    "weak_approximation",
    "LevelResult", "Quaternion", "is_division_ring", "level_local", "theorem13_feasible",
]

LOADED = """
def loaded():
    import types
    return sorted(k.split(".", 1)[1] for k, m in sys.modules.items()
                  if k.startswith("skewgalois.") and type(m) is types.ModuleType)
"""

# runs one command line through cli.run and reports what it loaded
RUN_VERB = LOADED + """
import contextlib, io, json
from skewgalois import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                  "loaded": loaded()}))
"""

F4 = json.dumps({"base": "2^2", "frob": 1, "coeffs": [[0, 1], [1, 0]]})
F16 = json.dumps({"base": "2^4", "frob": 1, "coeffs": [[0, 1], [1, 0]]})
S3 = json.dumps({"perm_gens": [[[0, 1]], [[0, 1, 2]]]})


def fresh(script, *argv):
    """Run script in a new interpreter with no bytecode cache; its last
    stdout line is JSON."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", "import sys\n" + script, *argv],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_importing_the_package_runs_no_submodule():
    got = fresh(LOADED + "import json, skewgalois\nprint(json.dumps(loaded()))")
    assert got == []


def test_ore_runs_only_the_ore_stack():
    got = fresh(RUN_VERB, "ore", "--op", "witness", "--f", F4, "--g", F4)
    assert got["code"] == 0 and "common_multiple" in json.loads(got["stdout"])
    assert got["loaded"] == ["cli", "ffield", "modpoly", "orepoly", "zarith"]


def test_tower_runs_only_groups():
    got = fresh(RUN_VERB, "tower", "--group", S3)
    assert got["code"] == 0 and json.loads(got["stdout"])["steps"]
    assert got["loaded"] == ["cli", "groups", "zarith"]


def test_constructor_runs_no_group_or_ring_module(tmp_path):
    # nor ffield: modpoly's F_p[x] kernel stands alone, so the constructor
    # and the audit of its report do not compile the field module
    got = fresh(RUN_VERB, "construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                "--p-kernel", "5", "--n-min", "3")
    assert got["code"] == 0
    assert {"groups", "embed", "quat", "orepoly", "ffield"}.isdisjoint(got["loaded"])
    assert "splitcon" in got["loaded"]
    report = tmp_path / "report.json"
    report.write_text(got["stdout"], encoding="utf-8")
    got = fresh(RUN_VERB, "verify-report", "--report", str(report))
    assert got["code"] == 0 and json.loads(got["stdout"])["ok"] is True
    assert {"groups", "embed", "quat", "orepoly", "ffield"}.isdisjoint(got["loaded"])
    assert "splitcon" in got["loaded"]


# standard modules no verb uses; a module loaded before the package (site
# may load typing) does not count
UNUSED = ("dataclasses", "inspect", "typing")
RUN_UNUSED = """
import contextlib, io, json
before = {m for m in %r if m in sys.modules}
from skewgalois import cli
with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
    code = cli.run(sys.argv[1:])
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "loaded": [m for m in %r if m in sys.modules and m not in before]}))
""" % (UNUSED, UNUSED)
C3 = json.dumps({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]})


def test_no_verb_imports_a_standard_module_it_does_not_use(tmp_path):
    report = tmp_path / "report.json"
    for argv in (["tower", "--group", S3],
                 ["decide", "--group", C3, "--alpha", '{"map": [0, 1, 2]}', "--K", "2^2",
                  "--L", "2^6", "--sigma", "1"],
                 ["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts", "--p-kernel", "5",
                  "--n-min", "3"],
                 ["verify-report", "--report", str(report)],
                 ["level", "--place", "2"],
                 ["feasible-13", "--field", "Q(sqrt:-7)"]):
        got = fresh(RUN_UNUSED, *argv)
        assert got["code"] == 0 and got["loaded"] == [], (argv[0], got)
        if argv[0] == "construct-lprime":
            report.write_text(got["stdout"], encoding="utf-8")


def test_ore_domain_error_runs_neither_embed_nor_splitcon():
    got = fresh(RUN_VERB, "ore", "--op", "mul", "--f", F4, "--g", F16)
    assert got["code"] == 1 and got["stdout"] == ""
    assert got["stderr"] == ('{"error": "ValueError", '
                             '"message": "operands live in different twisted rings"}\n')
    assert {"embed", "splitcon"}.isdisjoint(got["loaded"])


TRACE_FIRST = LOADED + """
import contextlib, importlib.util, io, json
import skewgalois.cli as cli

spec = importlib.util.spec_from_file_location("perfbench_spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)

def job():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(sys.argv[2:])
    return code, out.getvalue()

before = loaded()
tracer = spans.Tracer()
tracer.install()
traced = job()
tracer.uninstall()
spans_after_install = len(tracer.start)
plain = job()
left = sorted(f"{k}.{a}" for k, m in sys.modules.items() if k.startswith("skewgalois")
              for a, v in vars(m).items()
              if getattr(getattr(v, "__code__", None), "co_name", "") == "wrapper")
print(json.dumps({"before": before, "traced": traced, "plain": plain,
                  "calls": tracer.totals()[0], "spans": [spans_after_install, len(tracer.start)],
                  "left_wrapped": left}))
"""


def test_tracer_installs_before_any_module_has_run():
    # no warm-up: the tracer itself loads every module it patches
    got = fresh(TRACE_FIRST, SPANS, "ore", "--op", "mul", "--f", F4, "--g", F4)
    assert got["before"] == ["cli"]
    assert got["traced"] == got["plain"] == [
        0, '{"product":{"base":"2^2","coeffs":[[1,1],[1,0],[1,0]],"frob":1}}\n']
    assert got["calls"]["orepoly.mul"] == 1
    # uninstalled: the untraced job records nothing and no wrapper stays bound
    assert got["spans"][0] == got["spans"][1] > 0
    assert got["left_wrapped"] == []


def test_public_names_are_pinned():
    assert len(PUBLIC) == 61
    assert skewgalois.__all__ == PUBLIC


def test_public_names_resolve():
    listed = dir(skewgalois)
    for name in PUBLIC:
        namespace = {}
        exec(f"from skewgalois import {name}", namespace)
        assert namespace[name] is getattr(skewgalois, name), name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        skewgalois.no_such_name
    with pytest.raises(ImportError):
        exec("from skewgalois import no_such_name", {})
    assert not hasattr(skewgalois, "_no_such_private_name")


def test_submodules_are_package_attributes():
    for name in ("zarith", "modpoly", "ffield", "orepoly", "groups", "embed", "zpoly",
                 "splitcon", "quat", "catalog", "selftest"):
        module = sys.modules[f"skewgalois.{name}"]
        assert getattr(skewgalois, name) is module
        assert isinstance(module, types.ModuleType)
