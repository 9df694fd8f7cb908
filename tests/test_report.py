import hashlib
import json
import pathlib
import warnings

import pytest

from groupgen import builder, genset, report, structure
from groupgen.perm import PermGroup
from groupgen.report import (canonical_json, compute_report, load_cache,
                             run_corpus, INVARIANT_KEYS, SCHEMA)

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"


def test_report_fields_s4():
    rep = compute_report("S4")
    assert rep["schema"] == SCHEMA
    assert rep["id"] == "S4"
    assert rep["order"] == 24
    assert rep["degree"] == 4
    assert rep["soluble"] is True
    assert (rep["d"], rep["m"], rep["a"], rep["b"]) == (2, 3, 3, 0)
    assert rep["spectrum"] == [2, 3]
    assert len(rep["fingerprint"]) == 64
    assert "error" not in rep and "skipped" not in rep
    assert "build" in rep["timings"]


def test_chief_factor_summaries():
    rep = compute_report("S4")
    facts = rep["chief_factors"]
    assert [f["order"] for f in facts] == [4, 3, 2]
    assert all(f["abelian"] for f in facts)
    assert not any(f["frattini"] for f in facts)
    assert [(f["prime"], f["dim"]) for f in facts] == [(2, 2), (3, 1), (2, 1)]

    rep = compute_report("A5")
    (f,) = rep["chief_factors"]
    assert f == {"order": 60, "abelian": False, "frattini": False,
                 "prime": None, "dim": None}

    rep = compute_report("C4")
    assert [f["frattini"] for f in rep["chief_factors"]] == [True, False]


def test_verdict_rows():
    rep = compute_report("EX2B(1)")
    rows = {v["theorem"]: v for v in rep["verdicts"]}
    assert rows["SOLUBLE_CASES"] == {"theorem": "SOLUBLE_CASES",
                                     "applicable": True, "case": 2,
                                     "ok": True}
    assert rows["MD_EQUAL"]["applicable"] is False
    assert rows["NONSOLUBLE_MONOLITHIC"]["applicable"] is False


def test_parse_error_isolated():
    rep = compute_report("D(C2")
    assert rep["error_kind"] == "parse"
    assert "column" in rep["error"]
    assert "fingerprint" not in rep
    assert rep["id"] == "D(C2"


def test_order_cap_error():
    rep = compute_report("S11", max_order=1000)
    assert rep["error_kind"] == "cap"


def test_semantic_error_kind():
    rep = compute_report("Q(C6; g2)")
    assert rep["error_kind"] == "group"


def test_nonsoluble_over_search_cap_skips_m():
    rep = compute_report("W(A5, 2)")
    assert rep["order"] == 7200
    assert rep["soluble"] is False
    assert rep["d"] == 2
    assert rep["m"] is None
    assert "m" in rep["skipped"]
    assert "order" in rep["skipped"]["m"]
    assert rep["spectrum"] is None and rep["verdicts"] is None
    assert "error" not in rep


def test_determinism_excludes_timings():
    a = compute_report("EX1(2)", seed=7)
    b = compute_report("EX1(2)", seed=7)
    assert canonical_json(a) == canonical_json(b)
    assert "timings" not in json.loads(canonical_json(a))
    assert a["timings"] != {} and "d" in a["timings"]


def test_id_normalizes_whitespace():
    assert compute_report("D( S3 ,  C2 )")["id"] == "D( S3 , C2 )"


def test_cache_round_trip(tmp_path):
    cache = tmp_path / "cache.jsonl"
    fresh = compute_report("S4", cache=str(cache))
    assert "cached" not in fresh["timings"]
    hit = compute_report("S4", cache=str(cache))
    assert hit["timings"]["cached"] is True
    for key in INVARIANT_KEYS:
        assert hit[key] == fresh[key], key
    assert len(cache.read_text().splitlines()) == 1


def test_cache_keyed_by_fingerprint_not_text(tmp_path):
    cache = tmp_path / "cache.jsonl"
    fresh = compute_report("S4", cache=str(cache))
    hit = compute_report("SUB(S4; g1, g2)", cache=str(cache))
    assert hit["timings"]["cached"] is True
    assert hit["id"] == "SUB(S4; g1, g2)"
    assert hit["fingerprint"] == fresh["fingerprint"]


def test_cache_corrupt_line_skipped(tmp_path):
    cache = tmp_path / "cache.jsonl"
    compute_report("S3", cache=str(cache))
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write("{broken json\n")
        fh.write("[1, 2, 3]\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        seen = load_cache(str(cache))
    assert len(seen) == 1
    messages = [str(w.message) for w in caught]
    assert any("unreadable" in m for m in messages)
    assert any("without a fingerprint" in m for m in messages)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = compute_report("S3", cache=str(cache))
    assert rep["timings"]["cached"] is True


def test_cache_missing_file_is_empty(tmp_path):
    assert load_cache(str(tmp_path / "nope.jsonl")) == {}


def test_errors_never_cached(tmp_path):
    cache = tmp_path / "cache.jsonl"
    compute_report("BAD(", cache=str(cache))
    assert not cache.exists()


def test_skipped_reports_are_never_cached(tmp_path):
    cache = tmp_path / "cache.jsonl"
    starved = compute_report("S5", time_budget=0.0, cache=str(cache))
    assert starved["d"] is None and starved["m"] is None
    assert len(starved["skipped"]) == 5
    assert not cache.exists()
    rep = compute_report("S5", cache=str(cache))
    assert (rep["d"], rep["m"]) == (2, 4)
    assert "cached" not in rep["timings"]
    # a record with skips left by an older run is a miss, and the full
    # report appended after it is the one replayed from then on
    cache.write_text(canonical_json(starved) + "\n")
    rep = compute_report("S5", cache=str(cache))
    assert (rep["d"], rep["m"]) == (2, 4)
    assert "cached" not in rep["timings"]
    hit = compute_report("S5", cache=str(cache))
    assert hit["timings"]["cached"] is True
    assert canonical_json(hit) == canonical_json(rep)


def test_a_run_parses_each_cache_line_once(tmp_path, monkeypatch):
    d = tmp_path / "corpus"
    d.mkdir()
    texts = ["C2", "C3", "C4", "S3", "K4"]
    (d / "groups.expr").write_text("\n".join(texts) + "\n")
    cache = tmp_path / "cache.jsonl"
    parsed = []
    real_loads = json.loads

    def loads(text, *args, **kwargs):
        parsed.append(text.strip())
        return real_loads(text, *args, **kwargs)

    monkeypatch.setattr(report.json, "loads", loads)
    run_corpus(str(d), cache=str(cache))
    lines = cache.read_text().splitlines()
    assert len(lines) == len(texts)
    assert sorted(parsed) == sorted(lines)
    again = run_corpus(str(d), cache=str(cache))
    assert all(r["timings"]["cached"] for r in again)
    assert len(parsed) == len(texts)
    # a record with skips appended in the same process is still a miss
    starved = compute_report("A4", time_budget=0.0)
    report.append_cache(str(cache), starved)
    rep = compute_report("A4", cache=str(cache))
    assert "cached" not in rep["timings"] and "skipped" not in rep
    assert compute_report("A4", cache=str(cache))["timings"]["cached"]
    assert len(parsed) == len(texts) + 2


def _write_corpus(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "basics.expr").write_text("# comment line\nS3\nC6\n\n")
    (d / "broken.expr").write_text("D(C2\n")
    (d / "extras.slow.expr").write_text("A5\n")
    return d


def test_run_corpus_isolates_failures(tmp_path):
    d = _write_corpus(tmp_path)
    reps = run_corpus(str(d))
    by_id = {r["id"]: r for r in reps}
    assert set(by_id) == {"S3", "C6", "D(C2"}
    assert by_id["D(C2"]["error_kind"] == "parse"
    assert by_id["S3"]["order"] == 6 and by_id["C6"]["order"] == 6


def test_run_corpus_slow_gate(tmp_path):
    d = _write_corpus(tmp_path)
    ids = {r["id"] for r in run_corpus(str(d), slow=True)}
    assert "A5" in ids


def test_run_corpus_empty(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    assert run_corpus(str(d)) == []


def test_run_corpus_merge_order_is_fingerprint(tmp_path):
    d = _write_corpus(tmp_path)
    reps = run_corpus(str(d))
    with_fp = [r["fingerprint"] for r in reps if "fingerprint" in r]
    assert with_fp == sorted(with_fp)
    assert "fingerprint" not in reps[-1]  # error reports sort last


def test_run_corpus_threads_match_serial(tmp_path):
    d = _write_corpus(tmp_path)
    serial = [canonical_json(r) for r in run_corpus(str(d))]
    pooled = [canonical_json(r) for r in run_corpus(str(d), threads=2)]
    assert serial == pooled


def test_run_corpus_uses_cache(tmp_path):
    d = _write_corpus(tmp_path)
    cache = tmp_path / "cache.jsonl"
    first = run_corpus(str(d), cache=str(cache))
    second = run_corpus(str(d), cache=str(cache))
    assert [canonical_json(r) for r in first] == \
        [canonical_json(r) for r in second]
    hits = [r for r in second if r.get("timings", {}).get("cached")]
    assert len(hits) == 2


# sha256 of the canonical JSON of every report of the corpus, one line
# each in run order; a change that keeps every report byte-identical keeps
# these, the slow corpus adding the groups of its ".slow" files
CORPUS_DIGESTS = {
    False: "c850e813cab4a81536049aa98d9db7f8ba7d314a2df35c0ef073eef9d5f00051",
    True: "9e4b2ccad1feb63313e9836e0d62ce6b5fd3923f8fc65dd615bd9e0cabfb306d",
}


def _corpus_digest(slow):
    reps = run_corpus(str(CORPUS_DIR), slow=slow)
    text = "".join(canonical_json(r) + "\n" for r in reps)
    return hashlib.sha256(text.encode()).hexdigest()


def test_quick_corpus_reports_are_pinned():
    assert _corpus_digest(False) == CORPUS_DIGESTS[False]


@pytest.mark.slow
def test_slow_corpus_reports_are_pinned():
    assert _corpus_digest(True) == CORPUS_DIGESTS[True]


def test_budget_degrades_to_skips():
    rep = compute_report("EX1(3)", time_budget=0.0)
    assert "error" not in rep
    assert rep["order"] == 48
    assert rep["skipped"]
    assert rep["d"] is None or rep["m"] is None or rep["verdicts"] is None


def test_spent_budget_skips_stages_without_running_them(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("a stage ran after the budget was spent")

    for name in ("d", "m", "spectrum"):
        monkeypatch.setattr(genset, name, never)
    monkeypatch.setattr(structure, "chief_series", never)
    rep = compute_report("S5", time_budget=0.0)
    for name in ("chief_series", "d", "m"):
        assert "time budget" in rep["skipped"][name]
    assert set(rep["skipped"]) == {"chief_series", "d", "m", "spectrum",
                                   "verdicts"}


def test_one_report_computes_each_invariant_of_g_once(monkeypatch):
    # every stage reads one analysis: the series feeds a, b, m and the
    # verdicts, the d search feeds d and the spectrum, and d, m and the
    # spectrum share one oracle
    built = []
    calls = {}
    real_build = builder.build

    def build(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def count(owner, name, group_of):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            if group_of(args[0]) is built[0]:
                calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    monkeypatch.setattr(builder, "build", build)
    count(structure, "chief_series", lambda G: G)
    count(genset, "d_with_witness", lambda an: an.G)
    count(genset, "GenOracle", lambda G: G)
    rep = compute_report("S4")
    assert len(built) == 1 and "skipped" not in rep
    assert (rep["d"], rep["m"], rep["spectrum"]) == (2, 3, [2, 3])
    assert calls == {"chief_series": 1, "d_with_witness": 1, "GenOracle": 1}


def test_one_report_checks_the_solubility_of_g_once(monkeypatch):
    calls = []
    real = PermGroup.derived_series

    def counted(self):
        if self.label == "S4":
            calls.append(self)
        return real(self)

    monkeypatch.setattr(PermGroup, "derived_series", counted)
    rep = compute_report("S4")
    assert rep["soluble"] is True
    assert len(calls) == 1


def test_lattice_cap_in_frattini_flags_is_a_skip(tmp_path):
    # S3's chief series and its Frattini flags need no lattice (the flags
    # are a linear splitting test); only the verdicts do
    rep = compute_report("S3", lattice_cap=3)
    assert "error" not in rep
    assert (rep["a"], rep["d"], rep["m"]) == (2, 2, 2)
    assert rep["spectrum"] == [2]
    assert [f["frattini"] for f in rep["chief_factors"]] == [False, False]
    assert set(rep["skipped"]) == {"verdicts"}
    assert "subgroup lattice exceeds 3" in rep["skipped"]["verdicts"]
    assert rep["verdicts"] is None
    reps = run_corpus(str(_write_corpus(tmp_path)), lattice_cap=3)
    assert sorted(r["id"] for r in reps) == ["C6", "D(C2", "S3"]


def test_reports_whose_lattice_is_over_the_cap():
    # their chief series, m and spectrum need no lattice of G; the
    # verdicts need G's lattice, which is over the default cap
    for text, m, spectrum in [("D(S4, S4)", 6, [2, 3, 4, 5, 6]),
                              ("W(S4, 2)", 4, [2, 3, 4])]:
        rep = compute_report(text)
        assert "error" not in rep, text
        assert (rep["d"], rep["m"], rep["a"]) == (2, m, m), text
        assert rep["spectrum"] == spectrum, text
        assert set(rep["skipped"]) == {"verdicts"}, text
        assert "subgroup lattice exceeds" in rep["skipped"]["verdicts"]


def test_big_wreath_report_skips_m_with_reason():
    rep = compute_report("WREATH(1)")
    assert rep["order"] == 112896
    assert rep["m"] is None
    assert "m" in rep["skipped"]
    assert (rep["a"], rep["b"], rep["d"]) == (2, 1, 2)
    assert rep["chief_factors"] == [
        {"order": 28224, "abelian": False, "prime": None, "dim": None,
         "frattini": False},
        {"order": 2, "abelian": True, "prime": 2, "dim": 1, "frattini": True},
        {"order": 2, "abelian": True, "prime": 2, "dim": 1,
         "frattini": False}]
    assert "error" not in rep


def test_big_wreath_report_makes_no_perm_per_element(monkeypatch):
    # its classes and its d probe read the element table: no group of
    # order above 1000 is swept into Perms
    swept = []
    real = PermGroup.elements

    def elements(self, *args, **kwargs):
        swept.append(self.order())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "elements", elements)
    rep = compute_report("WREATH(1)")
    assert rep["order"] == 112896 and rep["d"] == 2
    assert max(swept, default=0) <= 1000


def test_big_wreath_report_builds_no_order_map(monkeypatch):
    # WREATH(1)'s d comes from the probe and its m from the soluble fast
    # path, so no order map of a group of order above 1000 is read
    read = []
    real = PermGroup.element_orders

    def element_orders(self, *args, **kwargs):
        read.append(self.order())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "element_orders", element_orders)
    rep = compute_report("WREATH(1)")
    assert rep["order"] == 112896 and rep["d"] == 2
    assert max(read, default=0) <= 1000
