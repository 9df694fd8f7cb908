"""The benchmark's workloads: their items, the calls each item makes, and
the checks on each item's output.

An item is one request a user would make: one report, or one crowns call.
Every item is a function ``item(ctx) -> (output, stages, skipped, timed)``.
``output`` is a JSON-shaped dict that is checked against the reference file,
published values and theorem identities; ``stages`` and ``skipped`` count the
stages the item attempted and the ones a cap or the budget stopped; ``timed``
is the time a report's own ``timings`` account for (None for other items).

An item calls the program's public functions as the matching command does:
a report item calls ``report.compute_report``, a crowns item the ``crowns``
call behind ``groupgen phi``, ``crown`` or ``h1``.  Items run the same code
traced or not.  A traced pass first calls ``Tracer.install``, which replaces
the public functions listed in ``LAYERS`` with wrappers that record a span
around every call, wherever in groupgen the call is made.  Spans of nested
calls nest, so each layer's self time shows: the subgroup lattice that
``compute_report`` builds inside the first Frattini flag is a
``structure.lattice`` span inside ``structure.frattini_flags``.

This module imports groupgen, so it is loaded only by the pass process.
"""

import contextlib
import functools
import json
import os
import random
import sys
import time

from groupgen import builder, crowns, genset, perm, report, structure, verify
from groupgen.perm import CapExceeded, TimeBudgetExceeded, omega

WORKLOADS = ("quick-corpus", "big-lattice", "wreath", "crowns")

BIG_LATTICE = ("D(A5, C2)", "PSL2(7)", "PGL2(7)")
WREATH = ("WREATH(1)",)

# The item each workload runs in smoke mode: the cheapest one that still
# reaches the workload's layers.
SMOKE = {"quick-corpus": "report:S4", "big-lattice": "report:D(A5, C2)",
         "wreath": "report:WREATH(1)", "crowns": "phi+factors:S4"}

# The S3 sign module over GF(3): S3 is built from a 3-cycle and a
# transposition, in that order.
SIGN_MODULE = (3, [[[1]], [[2]]])

REPORT_STAGES = ("chief_series", "d", "m", "spectrum", "verdicts")

# Published values and the sources they come from.
PUBLISHED = {
    "report:S4": {"m": 3},                      # Whiston (2000): m(S_n) = n-1
    "report:S5": {"m": 4},
    "phi+factors:A5": {"eulerian": 2280},       # P. Hall (1936)
    "phi+factors:PSL2(5)": {"eulerian": 2280},  # PSL(2,5) is A5
    "aut_order:A5": {"aut_order": 120},         # Aut(A5) = S5
    "phi:PSL2(7):2": {"eulerian": 19152},       # P. Hall (1936)
    "h1:S3:sign3": {"h1": 1},
    # phi_A5(2) / |Aut A5| = 19: 19 copies of A5 are 2-generated, 20 are not
    "crown_check:A5:2:19": {"holds": True},
    "crown_check:A5:2:20": {"holds": False},
}

# Report fields that are not answers: the format version, wall clock data and
# the wording of skip reasons.
UNCHECKED_REPORT_KEYS = ("schema", "timings", "skipped")

# The public calls a traced pass times: span name -> (module or class,
# attribute).  A layer's busy time is the self time of its spans.
LAYERS = {
    "builder.build": (builder, "build"),
    "perm.chain": (perm, "build_chain"),
    "perm.elements": (perm.PermGroup, "elements"),
    "perm.classes": (perm.PermGroup, "conjugacy_classes"),
    "structure.lattice": (structure, "subgroup_lattice"),
    "structure.chief_series": (structure, "chief_series"),
    "structure.frattini_flags": (structure.ChiefFactor, "is_frattini"),
    "structure.minimal_normal": (structure, "unique_minimal_normal"),
    "genset.d": (genset, "d"),
    "genset.m": (genset, "m"),
    "genset.spectrum": (genset, "spectrum"),
    "verify.verify_all": (verify, "verify_all"),
    "crowns.eulerian": (crowns, "eulerian"),
    "crowns.factor_invariants": (crowns, "factor_invariants"),
    "crowns.aut_order": (crowns, "aut_order"),
    "crowns.generation_check": (crowns, "crown_generation_check"),
    "crowns.h1": (crowns, "h1_dimension"),
    "crowns.crown_power": (crowns, "crown_power"),
    "report.cache_load": (report, "load_cache"),
    "report.cache_append": (report, "append_cache"),
    "report.canonical_json": (report, "canonical_json"),
}

# Work the traced calls count: span name -> (counter, memo, size).  A call
# counts size(result) when the memo attribute of its first argument was empty
# before it (memo None: every call), that is when it did the work instead of
# returning what an earlier call left.
COUNTED = {
    "perm.chain": ("perm.chains_built", None, lambda out: 1),
    "perm.elements": ("perm.elements_swept", "_elements", len),
    "perm.classes": ("perm.class_sweeps", "_classes", lambda out: 1),
    "structure.lattice": ("structure.subgroups_built", "_lattice_cache", len),
    "report.cache_load": ("report.cache_records_read", None, len),
}


class Tracer:
    """Spans and counters of one pass, kept in memory.

    A span is [name, start, end, parent index, item id].  Until ``install``
    is called the spans are no-ops and nothing is counted.
    """

    def __init__(self):
        self.on = False
        self.spans = []
        self.counts = {}
        self.item = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        if not self.on:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.item]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            self._stack.pop()
            rec[2] = time.perf_counter()

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        counter, memo, size = COUNTED.get(name, (None, None, None))
        capped = name.split(".")[0] + ".capped"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cold = memo is None or getattr(args[0], memo, None) is None
            rec = [name, clock(), None, stack[-1] if stack else None,
                   self.item]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            except (CapExceeded, TimeBudgetExceeded):
                counts[capped] = counts.get(capped, 0) + 1
                raise
            finally:
                stack.pop()
                rec[2] = clock()
            if counter is not None and cold:
                counts[counter] = counts.get(counter, 0) + size(out)
            return out
        return traced

    def install(self):
        """Wrap every call in ``LAYERS`` for the rest of the process."""
        self.on = True
        modules = [m for n, m in sys.modules.items()
                   if n == "groupgen" or n.startswith("groupgen.")]
        for name, (owner, attr) in LAYERS.items():
            orig = vars(owner)[attr]
            if isinstance(orig, functools.cached_property):
                prop = functools.cached_property(self._wrap(name, orig.func))
                prop.__set_name__(owner, attr)
                setattr(owner, attr, prop)
            elif isinstance(owner, type):
                setattr(owner, attr, self._wrap(name, orig))
            else:
                traced = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, traced)


def _report_item(text):
    def run(ctx):
        rep = report.compute_report(text, seed=ctx["seed"], cache=ctx["cache"])
        out = json.loads(report.canonical_json(rep))
        timed = sum(v for v in rep["timings"].values()
                    if isinstance(v, float))
        return out, len(REPORT_STAGES), len(rep.get("skipped", {})), timed
    return run


def _phi_factors_item(text):
    """eulerian(G, 2) and factor_invariants(G) on one group, as ``phi`` and
    the module invariants of its chief factors."""
    def run(ctx):
        G = builder.build(text)
        phi = crowns.eulerian(G, 2)
        factors = [[f.order, f.prime, f.dim, inv.r, inv.s, inv.t, inv.delta,
                    inv.h, inv.end_dim]
                   for f, inv in crowns.factor_invariants(G)]
        return {"eulerian": phi, "factors": factors}, 2, 0, None
    return run


def _crown_check_item(m, k):
    def run(ctx):
        A = builder.build("A5")
        return {"holds": crowns.crown_generation_check(A, A, m, k)}, 1, 0, None
    return run


def _aut_order_item(ctx):
    S = builder.build("A5")
    return {"aut_order": crowns.aut_order(S)}, 1, 0, None


def _phi_item(text, m):
    def run(ctx):
        G = builder.build(text)
        return {"eulerian": crowns.eulerian(G, m)}, 1, 0, None
    return run


def _crown_item(k):
    """``groupgen crown S3 k``: the crown-based power over S3's socle."""
    def run(ctx):
        L = builder.build("S3")
        A = structure.unique_minimal_normal(L)
        C = crowns.crown_power(L, A, k)
        return {"order": C.order(), "degree": C.degree,
                "fingerprint": C.fingerprint()}, 1, 0, None
    return run


def _h1_item(ctx):
    G = builder.build("S3")
    h1 = crowns.h1_dimension(G, crowns.GfpModule(G, *SIGN_MODULE))
    return {"h1": h1}, 1, 0, None


def quick_corpus_texts(root):
    """The expressions of the non-slow corpus files, in file order."""
    texts = []
    for path in report.corpus_files(os.path.join(root, "corpus")):
        texts.extend(report.read_expressions(path))
    return texts


def items(workload, root):
    """[(item id, item function)] of one workload, in a fixed order."""
    if workload == "quick-corpus":
        texts = quick_corpus_texts(root)
    elif workload == "big-lattice":
        texts = BIG_LATTICE
    elif workload == "wreath":
        texts = WREATH
    elif workload == "crowns":
        out = [(f"phi+factors:{t}", _phi_factors_item(t))
               for t in quick_corpus_texts(root)]
        out += [(f"crown_check:A5:2:{k}", _crown_check_item(2, k))
                for k in (19, 20)]
        out.append(("aut_order:A5", _aut_order_item))
        out.append(("phi:PSL2(7):2", _phi_item("PSL2(7)", 2)))
        out += [(f"crown:S3:{k}", _crown_item(k)) for k in range(1, 6)]
        out.append(("h1:S3:sign3", _h1_item))
        return out
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [(f"report:{t}", _report_item(t)) for t in texts]


def shuffled(workload, root, seed, smoke=False):
    """The workload's items in the order the seed gives them."""
    out = items(workload, root)
    if smoke:
        return [it for it in out if it[0] == SMOKE[workload]]
    random.Random(seed).shuffle(out)
    return out


def _same(a, b):
    return (json.dumps(a, sort_keys=True, separators=(",", ":"))
            == json.dumps(b, sort_keys=True, separators=(",", ":")))


def check(item_id, out, reference):
    """The reasons an output is wrong; empty when it is right.

    A field the reference has non-null must match it exactly.  A field the
    reference has null (a stage the reference run skipped) may be computed,
    and is then held to the identities below like every other field.
    """
    errors = []
    ref = reference.get(item_id)
    if ref is None:
        errors.append("no reference output")
        ref = {}
    ignored = UNCHECKED_REPORT_KEYS if item_id.startswith("report:") else ()
    for key, want in ref.items():
        if key in ignored or want is None:
            continue
        if not _same(out.get(key), want):
            errors.append(f"{key}: {out.get(key)!r} != reference {want!r}")
    for key, want in PUBLISHED.get(item_id, {}).items():
        if out.get(key) != want:
            errors.append(f"{key}: {out.get(key)!r} != published {want!r}")
    if item_id.startswith("report:"):
        errors += _report_identities(out)
    for f in out.get("factors", ()):
        _, _, _, r, s, t, delta, h, _ = f
        if s != t + delta or not t < r or h > delta + 1:
            errors.append(f"factor {f}: needs s = t + delta, t < r, "
                          "h <= delta + 1")
    return errors


def _report_identities(rep):
    errors = []
    d, m, a, b = rep.get("d"), rep.get("m"), rep.get("a"), rep.get("b")
    spec = rep.get("spectrum")
    if spec is not None and (d is None or m is None
                             or spec != list(range(d, m + 1))):
        errors.append(f"spectrum {spec} is not [d, m] = [{d}, {m}]")
    if m is not None and a is not None:
        if not a + b <= m <= omega(rep["order"]):
            errors.append(f"needs a + b <= m <= Omega(|G|): a={a} b={b} m={m}")
        if rep.get("soluble") and m != a:
            errors.append(f"soluble group needs m = a: a={a} m={m}")
    for v in rep.get("verdicts") or ():
        if v.get("ok") is False:
            errors.append(f"verdict {v['theorem']} is a red flag")
    return errors
