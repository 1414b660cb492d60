"""Traced runs: timing wrappers around each layer's public functions,
installed from outside the program and removed again after each pass.

A wrapper records one span per call: name, start, end and the span that
was open when the call began (its parent).  Spans stay in memory in flat
arrays and are written out when the run ends.  A span's self time is its
duration minus the durations of its child spans (calls do not overlap in
one thread, so the children cover exactly that much of it).
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from functools import update_wrapper
from pathlib import Path

# (metric name, module, attribute path) -- a dotted attribute is a method
LAYERS = [
    ("ffield.mul", "ffield", "FqElem.__mul__"),
    ("ffield.inv", "ffield", "FqElem.inverse"),
    ("ffield.pow", "ffield", "FqElem.__pow__"),
    ("ffield.frob", "ffield", "FieldAut.__call__"),
    ("ffield.make_field", "ffield", "make_field"),
    ("ffield.embed_subfield", "ffield", "embed_subfield"),
    ("orepoly.mul", "orepoly", "ore_mul"),
    ("orepoly.right_divmod", "orepoly", "ore_right_divmod"),
    ("orepoly.left_divmod", "orepoly", "ore_left_divmod"),
    ("orepoly.gcd", "orepoly", "ore_right_gcd"),
    ("orepoly.lcm", "orepoly", "ore_left_lcm"),
    ("orepoly.witness", "orepoly", "ore_witness"),
    ("orepoly.anti_involution", "orepoly", "anti_involution"),
    ("groups.group_from_json", "groups", "group_from_json"),
    ("groups.closure", "groups", "FiniteGroup.closure"),
    ("groups.all_subgroups", "groups", "FiniteGroup.all_subgroups"),
    ("groups.fitting_subgroup", "groups", "fitting_subgroup"),
    ("groups.is_solvable", "groups", "is_solvable"),
    ("groups.is_nilpotent", "groups", "is_nilpotent"),
    ("groups.shafarevich_step", "groups", "shafarevich_step"),
    ("groups.semidirect_product", "groups", "semidirect_product"),
    ("embed.decide", "embed", "decide_sigma_solvability"),
    ("embed.find_section", "embed", "find_section"),
    ("embed.find_weak_solutions", "embed", "find_weak_solutions"),
    ("embed.lift_sigma", "embed", "lift_sigma"),
    ("embed.FFGaloisExt", "embed", "FFGaloisExt.__init__"),
    ("splitcon.construct_lprime", "splitcon", "construct_lprime"),
    ("splitcon.verify_report", "splitcon", "verify_report"),
    ("splitcon.certify_sn", "splitcon", "certify_sn"),
    ("splitcon.certify_local_behavior", "splitcon", "certify_local_behavior"),
    ("splitcon.certified_padic_roots", "splitcon", "certified_padic_roots"),
    ("splitcon.weak_approximation", "splitcon", "weak_approximation"),
    ("zpoly.discriminant", "zpoly", "discriminant"),
    ("zpoly.resultant", "zpoly", "resultant"),
    ("zpoly.sturm_chain", "zpoly", "sturm_chain"),
    ("zpoly.count_real_roots", "zpoly", "count_real_roots"),
    ("modpoly.ddf_pattern", "modpoly", "ddf_pattern"),
    ("modpoly.roots_mod_p", "modpoly", "roots_mod_p"),
    ("modpoly.is_irreducible", "modpoly", "is_irreducible"),
    ("zarith.is_prime", "zarith", "is_prime"),
    ("zarith.factorize", "zarith", "factorize"),
]

# traced so that the tower verb's top-level call is not counted as CLI
# overhead; not reported as a layer of its own
EXTRA = [("groups.solvable_tower", "groups", "solvable_tower")]

JOB = "job"  # root span around each job


class Tracer:
    def __init__(self):
        self.names: list[str] = [JOB]
        self.name_id = {JOB: 0}
        self.nid = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.subgroups_returned = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        ids, parent, start, end, stack = self.nid, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter
        count_result = name == "groups.all_subgroups"

        def wrapper(*args, **kwargs):
            idx = len(start)
            ids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count_result:
                self.subgroups_returned += len(result)
            return result

        return update_wrapper(wrapper, fn)

    def job(self, fn):
        """Run fn() inside a root span."""
        return self._wrap(JOB, fn)()

    # -- installing and removing -----------------------------------------------

    def install(self) -> None:
        """Patch each function where it is defined and at every module
        attribute of the package that rebinds it (`from x import f`)."""
        modules = [m for k, m in sys.modules.items() if k == "skewgalois" or k.startswith("skewgalois.")]
        for name, mod, path in LAYERS + EXTRA:
            owner = sys.modules[f"skewgalois.{mod}"]
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0])
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig)
            self._patch(owner, attr, orig, wrapped)
            if not cls:
                for m in modules:
                    for key, val in list(vars(m).items()):
                        if val is orig and not (m is owner and key == attr):
                            self._patch(m, key, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], int]:
        """Calls and self seconds per span name, and the number of closure
        calls made directly by all_subgroups."""
        n = len(self.start)
        start, end, parent, ids = self.start, self.end, self.parent, self.nid
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        closure = self.name_id.get("groups.closure", -1)
        scan = self.name_id.get("groups.all_subgroups", -1)
        scan_closures = 0
        for i in range(n):
            k = ids[i]
            calls[k] += 1
            self_s[k] += end[i] - start[i] - child[i]
            if k == closure and parent[i] >= 0 and ids[parent[i]] == scan:
                scan_closures += 1
        names = self.names
        return (
            {names[k]: calls[k] for k in range(len(names))},
            {names[k]: self_s[k] for k in range(len(names))},
            scan_closures,
        )

    def write(self, path: Path) -> None:
        """One JSON header line, then the int16 name ids, int64 parents and
        float64 starts and ends, each as a native-endian array."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["nid:H", "parent:l", "start:d", "end:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.nid, self.parent, self.start, self.end):
                arr.tofile(fh)
