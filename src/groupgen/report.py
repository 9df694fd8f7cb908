"""Invariant reports: one JSON document per group, plus caching and corpus runs.

A report gathers everything the toolkit computes about one group built from a
DSL expression: order, degree, solubility, the chief series counts a and b,
the generation invariants d and m, the spectrum of independent generating set
sizes, a per-factor summary of a chief series, and the verdicts of the three
structure checks.  Reports are plain dicts shaped for JSON with stable key
names (``schema`` is bumped if they ever change).

Knobs: ``max_order`` bounds the group the expression may build;
``lattice_cap`` and ``time_budget`` become the one ``perm.Limits`` value
every stage runs under, its deadline starting after the build and the cache
lookup; ``seed`` drives the randomized generation probes.  The other caps
are fixed module constants.

Sharing: the stages read one ``genset.Analysis`` made under the report's
limits and seed, so each invariant is computed once per report.  Only the
subgroup lattice and the minimal normal subgroups, which no limit changes,
stay memoized on the group.

Determinism: the same expression with the same knobs yields byte-identical
canonical JSON, except for the ``timings`` entry, which holds wall clock data
and a cache marker and is excluded from :func:`canonical_json`.

Degradation: stages that hit a cap or the time budget are skipped, the
reason is recorded under ``skipped``, and the remaining stages still run when
they can.  The budget is checked before each stage starts, so a spent budget
skips the rest at once.  A report carries ``error`` only when the group
itself could not be built.  This keeps one oversized or broken expression
from poisoning a corpus run.

Cache: a JSONL file mapping group fingerprints to finished reports.  Appends
happen under an exclusive advisory lock so concurrent runs may share one
cache; unreadable lines are skipped with a warning.  A process parses each
version of the file once, so a corpus run reads each line once.  A cache
hit replays the stored invariants (the id is taken from the current
expression, since two different expressions can build the same group).  A
report with ``skipped`` stages depends on the limits it ran under, so it is
never cached, and a cached record with ``skipped`` counts as a miss.
"""

import concurrent.futures
import json
import os
import time
import warnings

from . import builder
from . import genset
from . import verify
from .perm import (DEFAULT_LATTICE_CAP, CapExceeded, GroupError, Limits,
                   TimeBudgetExceeded)

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback, lock is advisory
    fcntl = None

SCHEMA = 1

# Report keys that a cache hit must reproduce exactly.
INVARIANT_KEYS = ("schema", "fingerprint", "order", "degree", "soluble",
                  "d", "m", "a", "b", "spectrum", "chief_factors", "verdicts")


def canonical_json(rep):
    """Serialize a report minus ``timings``, with sorted keys.

    Two reports for the same group compare equal exactly when these strings
    match, which is what the determinism and cache soundness tests check.
    """
    body = {k: v for k, v in rep.items() if k != "timings"}
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _normalize(text):
    return " ".join(text.split())


def compute_report(text, max_order=builder.DEFAULT_ORDER_CAP,
                   lattice_cap=DEFAULT_LATTICE_CAP, time_budget=None, seed=0,
                   cache=None):
    """Build the group for one expression and report its invariants.

    Parse and construction failures produce a report whose only substance is
    the ``error`` field (and ``error_kind``: "parse", "cap", "time" or
    "group").  Stage failures caused by caps or the budget are recorded under
    ``skipped`` instead and leave the affected fields null.
    """
    rep = {"schema": SCHEMA, "id": _normalize(text)}
    timings = {}
    start = time.perf_counter()
    try:
        G = builder.build(text, order_cap=max_order)
    except GroupError as exc:
        rep["error"] = str(exc)
        rep["error_kind"] = _error_kind(exc)
        rep["timings"] = {"build": time.perf_counter() - start}
        return rep
    timings["build"] = time.perf_counter() - start

    rep["fingerprint"] = G.fingerprint()
    rep["order"] = G.order()
    rep["degree"] = G.degree
    rep["soluble"] = G.is_soluble()

    if cache is not None:
        hit = load_cache(cache).get(rep["fingerprint"])
        if hit is not None and "skipped" not in hit:
            out = {k: hit[k] for k in hit if k not in ("id", "timings")}
            out["id"] = rep["id"]
            out["timings"] = dict(timings, cached=True)
            return out

    limits = Limits(lattice_cap, time_budget)
    an = genset.Analysis(G, limits, seed)
    skipped = {}

    def stage(name, fn):
        t0 = time.perf_counter()
        try:
            limits.check()
            return fn()
        except (CapExceeded, TimeBudgetExceeded) as exc:
            skipped[name] = str(exc)
            return None
        finally:
            timings[name] = time.perf_counter() - t0

    def chief_data():
        # the Frattini flags run inside the stage, so a time budget they
        # exhaust is recorded like any other
        factors = [
            {"order": f.order, "abelian": f.is_abelian,
             "frattini": f.is_frattini, "prime": f.prime, "dim": f.dim}
            for f in an.series]
        return an.a, an.b, factors

    chief = stage("chief_series", chief_data)
    rep["a"], rep["b"], rep["chief_factors"] = chief or (None, None, None)

    rep["d"] = stage("d", lambda: an.d)
    rep["m"] = stage("m", lambda: an.m)

    rep["spectrum"] = rep["verdicts"] = None
    if rep["d"] is not None and rep["m"] is not None:
        spec = stage("spectrum", lambda: an.spectrum)
        if spec is not None:
            rep["spectrum"] = sorted(spec)
        verdicts = stage("verdicts", lambda: verify.verify_all(an))
        if verdicts is not None:
            rep["verdicts"] = [
                {"theorem": v.theorem, "applicable": v.applicable,
                 "case": v.case, "ok": v.ok}
                for v in verdicts]
    else:
        skipped["spectrum"] = "spectrum needs both d and m"
        skipped["verdicts"] = "verdicts need both d and m"

    if skipped:
        rep["skipped"] = skipped
    rep["timings"] = timings
    if cache is not None and not skipped:
        append_cache(cache, rep)
    return rep


def _error_kind(exc):
    if isinstance(exc, builder.ParseError):
        return "parse"
    if isinstance(exc, CapExceeded):
        return "cap"
    if isinstance(exc, TimeBudgetExceeded):
        return "time"
    return "group"


# Parsed cache files: real path -> (st_size, st_mtime_ns, records).  An
# entry is used only while the file's size and modification time still
# match, so a file changed outside the process is read again.
_parsed = {}


def load_cache(path):
    """Read a JSONL cache into {fingerprint: report}, skipping bad lines.

    The records are parsed once per version of the file and kept for the
    rest of the process; the caller gets its own copy of the dict."""
    key = os.path.realpath(path)
    try:
        st = os.stat(key)
    except FileNotFoundError:
        return {}
    memo = _parsed.get(key)
    if memo is None or memo[:2] != (st.st_size, st.st_mtime_ns):
        memo = _parsed[key] = (st.st_size, st.st_mtime_ns, _parse_cache(path))
    return dict(memo[2])


def _parse_cache(path):
    out = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError:
                    warnings.warn(f"{path}:{lineno}: unreadable cache line "
                                  "skipped")
                    continue
                if isinstance(rec, dict) and "fingerprint" in rec:
                    out[rec["fingerprint"]] = rec
                else:
                    warnings.warn(f"{path}:{lineno}: cache line without a "
                                  "fingerprint skipped")
    except FileNotFoundError:
        pass
    return out


def append_cache(path, rep):
    """Append one report to the cache under an exclusive advisory lock.

    When the parsed records of the file were current before the append,
    the new record joins them, so the next ``load_cache`` reads nothing."""
    line = canonical_json(rep) + "\n"
    key = os.path.realpath(path)
    with open(path, "a", encoding="utf-8") as fh:
        if fcntl is not None:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        try:
            st = os.fstat(fh.fileno())
            memo = _parsed.pop(key, None)
            if st.st_size == 0:
                records = {}
            elif memo is not None and memo[:2] == (st.st_size,
                                                   st.st_mtime_ns):
                records = memo[2]
            else:
                records = None
            fh.write(line)
            fh.flush()
            if records is not None and "fingerprint" in rep:
                records[rep["fingerprint"]] = json.loads(line)
                st = os.fstat(fh.fileno())
                _parsed[key] = (st.st_size, st.st_mtime_ns, records)
        finally:
            if fcntl is not None:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)


def read_expressions(path):
    """Expression texts from one file: one per line, # comments allowed."""
    texts = []
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                texts.append(line)
    return texts


def corpus_files(directory, slow=False):
    """Sorted *.expr paths; names containing ".slow" only when slow is set."""
    import pathlib
    files = sorted(pathlib.Path(directory).glob("*.expr"))
    if not slow:
        files = [p for p in files if ".slow" not in p.name]
    return files


def _corpus_entry(job):
    text, knobs = job
    return compute_report(text, **knobs)


def run_corpus(directory, slow=False, threads=1, **knobs):
    """One report per expression found under ``directory``.

    Every failure stays inside its own report, so a bad file never affects
    its neighbours.  Results are merged into fingerprint order (reports
    without a fingerprint sort last, by id) no matter how many workers ran.
    """
    reports = []
    pending = []
    for path in corpus_files(directory, slow):
        try:
            texts = read_expressions(path)
        except OSError as exc:
            reports.append({"schema": SCHEMA, "id": str(path),
                            "error": str(exc), "error_kind": "group"})
            continue
        pending.extend((text, knobs) for text in texts)

    if threads > 1 and len(pending) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=threads) as ex:
            reports.extend(ex.map(_corpus_entry, pending))
    else:
        reports.extend(_corpus_entry(job) for job in pending)

    reports.sort(key=lambda r: (0, r["fingerprint"]) if "fingerprint" in r
                 else (1, r["id"]))
    return reports
