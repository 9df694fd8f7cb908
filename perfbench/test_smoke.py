"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke run takes about half a minute, most of it WREATH(1).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _listed(section):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


@pytest.fixture(scope="module")
def smoke_results():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_smoke_checks_one_item_per_workload(smoke_results):
    assert [r["workload"] for r in smoke_results] == list(workloads.WORKLOADS)
    for r in smoke_results:
        assert r["correct"] and r["failed"] == 0
        assert r["attempted"] == 2  # one item, untraced and traced


def test_smoke_prints_every_listed_metric_with_its_unit(smoke_results):
    listed = {**_listed("end_to_end"), **_listed("per_layer")}
    for r in smoke_results:
        assert {k: m["unit"] for k, m in r["metrics"].items()} == listed


def _traced_pass_wall(workload):
    path = run.OUT / f"result-{workload}-seedsmoke-trace1.json"
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    return next(p["wall_raw_s"] / p["factor"] for p in record["passes"]
                if p["traced"])


def test_layer_self_times_account_for_the_traced_pass(smoke_results):
    for r in smoke_results:
        m = {k: v["value"] for k, v in r["metrics"].items()}
        layers = sum(m[name + "_s"] for name in run.LAYER_SPANS)
        total = layers + m["trace.unattributed_s"]
        assert total == pytest.approx(_traced_pass_wall(r["workload"]),
                                      rel=1e-3)


def test_every_traced_call_is_a_reported_layer():
    assert set(workloads.LAYERS) == set(run.LAYER_SPANS)
    assert {c for c, _, _ in workloads.COUNTED.values()} | {
        "genset.capped"} == set(run.COUNTERS)


def test_layer_split_matches_the_predictions(smoke_results):
    by = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
          for r in smoke_results}
    # G's lattice is never built on wreath; two quotient lattices of order
    # at most 4 are, inside the Frattini flags
    assert by["wreath"]["structure.lattice_s"] < 0.001 * by["wreath"]["wall_s"]
    assert by["wreath"]["structure.subgroups_built"] < 10
    assert by["wreath"]["stage_ratio"] == pytest.approx(0.4)
    for name in ("quick-corpus", "big-lattice"):
        assert by[name]["structure.lattice_s"] > 0
        assert by[name]["stage_ratio"] == 1
    for name in ("quick-corpus", "big-lattice", "wreath"):
        assert all(v == 0 for k, v in by[name].items()
                   if k.startswith("crowns."))
    assert by["crowns"]["crowns.factor_invariants_s"] > 0


def test_outside_a_checkout_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quick-corpus",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _reference():
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("field,value", [
    ("m", 2),                      # Whiston: m(S4) = 3
    ("spectrum", [2]),             # the spectrum is [d, m]
    ("chief_factors", []),         # differs from the reference
])
def test_check_rejects_a_wrong_report(field, value):
    reference = _reference()
    out = dict(reference["report:S4"], **{field: value})
    assert workloads.check("report:S4", out, reference)
    assert not workloads.check("report:S4", reference["report:S4"], reference)


def test_check_holds_a_newly_computed_field_to_the_identities():
    reference = _reference()
    ref = reference["report:WREATH(1)"]
    assert ref["m"] is None
    # a + b = 3 and Omega(112896) = Omega(2^8 3^2 7^2) = 12
    assert not workloads.check("report:WREATH(1)", dict(ref, m=4), reference)
    assert workloads.check("report:WREATH(1)", dict(ref, m=2), reference)
    assert workloads.check("report:WREATH(1)", dict(ref, m=13), reference)


def test_check_rejects_broken_module_identities():
    reference = _reference()
    out = json.loads(json.dumps(reference["phi+factors:S4"]))
    out["factors"][0][4] += 1   # s = t + delta no longer holds
    assert workloads.check("phi+factors:S4", out, reference)
