"""The decide verdict against sympy's permutation groups, an implementation
that shares no code with the library.

Each case is a decide command line, and the oracle reads only that
command's input and the verdict the CLI prints.  It rebuilds the group as
permutations: a supplied table as its right regular representation, the
element a as the column x -> x a (the permutation that sends 0 to a);
perm_gens by the rule from_permutations documents (test_tower_sympy's
_elements).  The columns of a table form a group of its order exactly when
the table is associative with identity 0, so that is asserted first.  It
then checks:
- alpha is a homomorphism onto C_[L:K]: alpha(x s) = alpha(x) + alpha(s)
  for every element x and each of sympy's generators s, and the alpha(s)
  generate Z/[L:K];
- the kernel of alpha is nilpotent;
- the verdict is SOLVABLE exactly when the order d of sigma is coprime to
  [L:K], and its witness g has the stated order, coprime to d, with
  alpha(g) the relative Frobenius 1, which generates C_[L:K].
Skipped without sympy.
"""

import io
import itertools
import json
import math
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from test_tower_sympy import _elements, _mul, _sympy_group  # noqa: E402

from skewgalois import cli  # noqa: E402

Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup

ROOT = Path(__file__).resolve().parent.parent


def _decide_argv(group, alpha, K, L, sigma):
    return ["decide", "--group", json.dumps(group), "--alpha", json.dumps({"map": alpha}),
            "--K", K, "--L", L, "--sigma", str(sigma)]


def _degree(descriptor):
    """n of the field descriptor "p^n"."""
    return int(descriptor.split("^")[1])


def _permutations(group):
    """The group's elements as image tuples in the library's index order,
    and its sympy group."""
    if "table" in group:
        table = group["table"]
        elements = [tuple(row[a] for row in table) for a in range(len(table))]
        assert [x[0] for x in elements] == list(range(len(table))), "row 0 is not the identity"
        return elements, _sympy_group(elements)
    elements, gens = _elements(group["perm_gens"])
    return elements, PermutationGroup([Permutation(list(g)) for g in gens])


def check_verdict(argv, verdict):
    """Assert the verdict of the decide command argv on permutations."""
    args = dict(zip(argv[1::2], argv[2::2]))
    alpha = json.loads(args["--alpha"])["map"]
    elements, G = _permutations(json.loads(args["--group"]))
    pos = {x: i for i, x in enumerate(elements)}
    k, e = _degree(args["--K"]), _degree(args["--L"]) // _degree(args["--K"])
    assert G.order() == len(elements) == len(alpha)
    assert all(0 <= a < e for a in alpha)
    gens = [tuple(s.array_form) for s in G.generators]
    for s in gens:
        a_s = alpha[pos[s]]
        assert all(alpha[pos[_mul(x, s)]] == (a + a_s) % e for x, a in zip(elements, alpha)), \
            "alpha is not a homomorphism"
    assert math.gcd(e, *(alpha[pos[s]] for s in gens)) == 1, "alpha is not onto C_[L:K]"
    kernel = [x for x, a in zip(elements, alpha) if a == 0]
    assert _sympy_group(kernel).is_nilpotent, "the kernel is not nilpotent"
    d = k // math.gcd(k, int(args["--sigma"]))  # the order of frob^sigma on K
    assert (verdict["status"] == "SOLVABLE") == (math.gcd(d, e) == 1)
    witness = verdict.get("witness")
    assert (witness is not None) == (verdict["status"] == "SOLVABLE")
    if witness is not None:
        g = witness["g"]
        assert Permutation(list(elements[g])).order() == witness["ord"], "the witness has another order"
        assert math.gcd(d, witness["ord"]) == 1
        assert alpha[g] == 1 % e, "alpha(g) is not the relative Frobenius"


def _run(argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    assert code == cli.EXIT_OK
    return json.loads(out.getvalue())


def _perfbench_decides():
    """The decide command lines of tower-decide at seed 101: tables of
    order 24 to 192."""
    jobs = runpy.run_path(str(ROOT / "perfbench" / "jobs.py"))
    return [job.argv for job in jobs["build"]("tower-decide", 101).jobs if job.kind == "decide"]


def _c3_7_by_c2():
    """C3^7 x| C2 onto C2 by the sign map, C2 inverting each C3 (order 4374,
    as CI ran it): an element x inverts every C3 exactly when it inverts the
    first, that is, when x(1) - x(0) = -1 mod 3."""
    gens = [[[3 * i, 3 * i + 1, 3 * i + 2]] for i in range(7)] + [[[3 * i + 1, 3 * i + 2] for i in range(7)]]
    elements, _ = _elements(gens)
    alpha = [int((x[1] - x[0]) % 3 == 2) for x in elements]
    return _decide_argv({"perm_gens": gens}, alpha, "2^3", "2^6", 1)


def _s3_by_sign():
    gens = [[[0, 1]], [[0, 1, 2]]]
    elements, _ = _elements(gens)
    alpha = [int(sum(x[i] > x[j] for i, j in itertools.combinations(range(3), 2)) % 2) for x in elements]
    return _decide_argv({"perm_gens": gens}, alpha, "3^1", "3^2", 0)


CASES = [
    ("README-C3", _decide_argv({"order": 3, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}, [0, 1, 2],
                               "2^2", "2^6", 1)),
    *((f"tower-decide-{i}", argv) for i, argv in enumerate(_perfbench_decides())),
    ("C2^8-onto-C2", _decide_argv({"table": [[a ^ b for b in range(256)] for a in range(256)]},
                                  [a & 1 for a in range(256)], "2^2", "2^4", 1)),
    ("C257-onto-C1", _decide_argv({"table": [[(a + b) % 257 for b in range(257)] for a in range(257)]},
                                  [0] * 257, "2^3", "2^3", 1)),
    ("S3-by-sign", _s3_by_sign()),
    ("C3^7xC2-by-sign", _c3_7_by_c2()),
]


@pytest.mark.parametrize("argv", [argv for _, argv in CASES], ids=[name for name, _ in CASES])
def test_decide_verdict_holds_on_permutations(argv):
    check_verdict(argv, _run(argv))


def test_the_oracle_refuses_a_wrong_witness():
    # S3 onto C2 by the sign: the witness is a transposition, of order 2
    argv = _s3_by_sign()
    verdict = _run(argv)
    check_verdict(argv, verdict)
    g, order = verdict["witness"]["g"], verdict["witness"]["ord"]
    assert order == 2
    three_cycle = json.loads(argv[4])["map"].index(0, 1)  # in the kernel, of order 3
    for wrong in ({"g": g, "ord": 4}, {"g": 0, "ord": order}, {"g": 0, "ord": 1},
                  {"g": three_cycle, "ord": 3}):
        with pytest.raises(AssertionError):
            check_verdict(argv, dict(verdict, witness=wrong))
