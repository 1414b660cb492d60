"""Property tests of the JSON-taking CLI verbs on malformed and edge-case
input: every run either answers or fails with one structured JSON object on
stderr and a documented exit code, and none prints a traceback.

Strategies are bounded (lists of at most 8 items, field descriptors within
the order cap, permutation points below 5, constructed degrees up to 8 or
past the degree cap) so that every accepted input stays small.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from skewgalois import cli  # noqa: E402
from skewgalois.splitcon import DEGREE_MAX  # noqa: E402

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

small_ints = st.integers(min_value=-3, max_value=9)
leaves = (st.none() | st.booleans() | small_ints | st.integers()
          | st.floats(allow_nan=False, width=16) | st.text(max_size=4))
any_json = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=8) | st.dictionaries(st.text(max_size=6), inner, max_size=8),
    max_leaves=24,
)


def lists(elements):
    return st.lists(elements, max_size=8)


def maybe(value_strategy):
    """The value itself, or any JSON in its place."""
    return value_strategy | any_json


descriptors = st.one_of(
    st.builds(lambda p, n: f"{p}^{n}", st.sampled_from([2, 3, 4, 5, 7, 1, 0, -2]),
              st.integers(min_value=-1, max_value=6)),
    st.sampled_from(["2", "2^64", "3^40", "2^", "^2", "x^2", "2^2^2", "", " 2^2"]),
    st.text(max_size=5),
)

tables = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: lists(lists(maybe(st.integers(min_value=-1, max_value=n)))))
cycles = lists(lists(maybe(st.integers(min_value=0, max_value=4))))
groups = st.one_of(
    st.fixed_dictionaries({"table": maybe(tables)},
                          optional={"order": maybe(st.integers(min_value=0, max_value=8))}),
    st.fixed_dictionaries({"perm_gens": maybe(lists(cycles))},
                          optional={"order": maybe(st.integers(min_value=0, max_value=120))}),
    any_json,
)
alphas = st.fixed_dictionaries({"map": maybe(lists(st.integers(min_value=-1, max_value=8)))}) | any_json
ore_polys = st.fixed_dictionaries({
    "base": maybe(descriptors),
    "frob": maybe(small_ints),
    "coeffs": maybe(lists(maybe(lists(maybe(small_ints))))),
}) | any_json


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def check_outcome(argv):
    """Exit 0 prints a JSON object; exit 3, a failed certificate, prints its
    result the same way; every other exit prints nothing on stdout and one
    JSON object on stderr.  Exit 4, an internal error, is a fault."""
    code, out, err = run_cli(argv)
    assert code in range(5), (argv, code)
    assert "Traceback" not in out + err
    if code == cli.EXIT_INTERNAL:
        pytest.fail(f"internal error on {argv}: {err}")
    if code == cli.EXIT_OK:
        assert isinstance(json.loads(out), dict) and err == ""
    elif code == cli.EXIT_CERT:
        assert isinstance(json.loads(out), dict) and err == ""
    else:
        assert out == ""
        assert isinstance(json.loads(err), dict), err


def dumps(value):
    return json.dumps(value, separators=(",", ":"))


@SETTINGS
@given(group=groups, alpha=alphas, K=descriptors, L=descriptors, sigma=small_ints)
def test_decide_fuzz(group, alpha, K, L, sigma):
    check_outcome(["decide", "--group", dumps(group), "--alpha", dumps(alpha),
                   "--K", K, "--L", L, "--sigma", str(sigma)])


@SETTINGS
@given(op=st.sampled_from(["mul", "divmod", "gcd", "lcm", "witness"]), f=ore_polys, g=ore_polys)
def test_ore_fuzz(op, f, g):
    check_outcome(["ore", "--op", op, "--f", dumps(f), "--g", dumps(g)])


@SETTINGS
@given(group=groups)
def test_tower_fuzz(group):
    check_outcome(["tower", "--group", dumps(group)])


# place specs: valid ones, others from the grammar's parts, and short text
spec_strings = st.one_of(
    st.sampled_from(["3:rq", "5:rq", "inf:ts", "7:ts:ramL", "11:ts:ramL", "2:rq"]),
    st.builds(
        lambda head, kind, suffix: f"{head}:{kind}{suffix}",
        st.sampled_from(["2", "3", "5", "7", "11", "4", "1", "0", "-3", "inf", "x", ""]),
        st.sampled_from(["ts", "rq", "ur1", "ur2", "ur4", "ur0", "ur-1", "ur", "urx",
                         f"ur{DEGREE_MAX + 1}", f"ur{10**30}", "r3p", "TS", ""]),
        st.sampled_from(["", ":ramL", ":ram", ":ramL:ramL"]),
    ),
    st.text(max_size=6),
)
# degrees up to 8 build in well under a second; past the cap they are refused
n_mins = (st.integers(min_value=-3, max_value=8).map(str)
          | st.sampled_from([str(DEGREE_MAX + 1), str(10**6), str(10**30), "x"]))
p_kernels = (st.sampled_from(["5", "3", "7"])
             | st.sampled_from(["2", "1", "0", "-5", "9", str(10**30 + 57), "x"]))


@SETTINGS
@given(specs=st.lists(spec_strings, min_size=1, max_size=4), n_min=n_mins, p_kernel=p_kernels)
def test_construct_lprime_fuzz(specs, n_min, p_kernel):
    argv = ["construct-lprime", "--p-kernel", p_kernel, "--n-min", n_min]
    for spec in specs:
        argv += ["--spec", spec]
    check_outcome(argv)


def _valid_report():
    code, out, _ = run_cli(["construct-lprime", "--spec", "3:rq", "--spec", "inf:ts",
                            "--p-kernel", "5", "--n-min", "3"])
    assert code == 0
    return json.loads(out)


REPORT = _valid_report()


def _replace_at(report, path, value):
    """A deep copy of report with the item at path replaced by value."""
    out = json.loads(json.dumps(report))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _paths(node, prefix=()):
    """Every key path into a JSON value."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


REPORT_PATHS = sorted(_paths(REPORT), key=repr)


@SETTINGS
@given(path=st.sampled_from(REPORT_PATHS), value=any_json)
def test_verify_report_fuzz(path, value):
    check_outcome(["verify-report", "--report", dumps(_replace_at(REPORT, path, value))])


@SETTINGS
@given(report=any_json)
def test_verify_report_fuzz_any_json(report):
    check_outcome(["verify-report", "--report", dumps(report)])
