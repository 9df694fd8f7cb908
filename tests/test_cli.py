import json

import pytest

from groupgen import cli
from groupgen import genset
from groupgen.perm import PermGroup


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_expression(capsys):
    code, out, _ = run(capsys, "invariants", "S4")
    assert code == 0
    assert "order 24" in out
    assert "d = 2  m = 3" in out
    assert "SOLUBLE_CASES: applicable case 2, ok" in out


def test_invariants_json_output(capsys, tmp_path):
    path = tmp_path / "out.json"
    code, _, _ = run(capsys, "invariants", "A4", "--json", str(path))
    assert code == 0
    rep = json.loads(path.read_text())
    assert rep["order"] == 12
    assert rep["spectrum"] == [2]
    assert rep["id"] == "A4"


def test_invariants_file_input(capsys, tmp_path):
    exprs = tmp_path / "groups.expr"
    exprs.write_text("S3\nC4  # with a comment\n")
    path = tmp_path / "out.json"
    code, out, _ = run(capsys, "invariants", str(exprs),
                       "--json", str(path))
    assert code == 0
    assert "S3:" in out and "C4:" in out
    reps = json.loads(path.read_text())
    assert [r["id"] for r in reps] == ["S3", "C4"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "invariants", "D(C2")
    assert code == 2
    code, _, err = run(capsys, "spectrum", "NOPE(3)")
    assert code == 2
    assert "parse error" in err


def test_cap_exit_code(capsys):
    code, _, _ = run(capsys, "invariants", "S11", "--max-order", "100")
    assert code == 3
    code, _, err = run(capsys, "build", "/dev/null")
    assert code == 0


def test_build_command(capsys, tmp_path):
    exprs = tmp_path / "groups.expr"
    exprs.write_text("S4\nW(C2, 3)\nBROKEN(\n")
    code, out, err = run(capsys, "build", str(exprs))
    assert code == 2
    assert "S4: order 24, degree 4" in out
    assert "W(C2, 3): order 24, degree 6" in out
    assert "parse error" in err


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "soluble", "S4")
    assert code == 0
    assert "applicable case 2, ok" in out
    assert "m_of_complement = 2" in out

    code, out, _ = run(capsys, "verify", "nonsoluble", "A5")
    assert code == 0
    assert "applicable, ok" in out

    code, out, _ = run(capsys, "verify", "md-equal", "S4")
    assert code == 0
    assert "not applicable" in out


def test_verify_red_flag_exit(capsys, monkeypatch):
    # force d = m on a nonsoluble group so the applicable check fails
    monkeypatch.setattr(genset, "d", lambda G, *a, **k: 2)
    monkeypatch.setattr(genset, "m", lambda G, *a, **k: 2)
    code, out, _ = run(capsys, "verify", "md-equal", "A5")
    assert code == 4
    assert "RED FLAG" in out


SPECTRUM_OUTPUT = {
    "S4": "2: (1,3,2) (1,3,4,2)\n"
          "3: (3,4) (2,3) (1,2)\n",
    "A4": "2: (1,3)(2,4) (1,3,4)\n",
    "C12": "1: (1,2,3,4,5,6,7,8,9,10,11,12)\n"
           "2: (1,5,9)(2,6,10)(3,7,11)(4,8,12) (1,4,7,10)(2,5,8,11)(3,6,9,12)\n",
    "W(C2, 3)": "2: (1,4,6,2,3,5) (1,4,6)(2,3,5)\n"
                "3: (3,4)(5,6) (1,2)(3,4)(5,6) (1,3,5)(2,4,6)\n",
    "A5": "2: (1,5,4,2,3) (1,3,2)\n"
          "3: (2,3)(4,5) (2,4)(3,5) (1,2)(4,5)\n",
}


def test_spectrum_command(capsys):
    # the witnesses users see are part of the output and must not drift
    for expr, expected in SPECTRUM_OUTPUT.items():
        code, out, _ = run(capsys, "spectrum", expr)
        assert code == 0
        assert out == expected, expr


def test_phi_command(capsys):
    code, out, _ = run(capsys, "phi", "S3", "2")
    assert code == 0
    assert out.strip() == "18"
    # soluble within COHOMOLOGY_CAP: Gaschuetz's product, no lattice, so
    # the default lattice cap of 2000 subgroups does not apply
    code, out, _ = run(capsys, "phi", "D(C2, K4, S4)", "4")
    assert code == 0
    assert out.strip() == "396264960"


def test_crown_command(capsys):
    code, out, _ = run(capsys, "crown", "S3", "3")
    assert code == 0
    assert "order 54" in out

    code, _, err = run(capsys, "crown", "C6", "2")
    assert code == 1
    assert "unique minimal normal" in err


def test_h1_command(capsys, tmp_path):
    mod = tmp_path / "module.json"
    mod.write_text(json.dumps({"prime": 5, "matrices": [[[1]], [[1]]]}))
    code, out, _ = run(capsys, "h1", "S3", str(mod))
    assert code == 0
    assert out.strip() == "0"

    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    code, _, err = run(capsys, "h1", "S3", str(bad))
    assert code == 2
    assert "matrices" in err


@pytest.mark.parametrize("data", [
    {"prime": 3.5, "matrices": [[[1]], [[1]]]},
    {"prime": True, "matrices": [[[1]], [[1]]]},
    {"prime": "3", "matrices": [[[1]], [[1]]]},
    {"prime": 5, "matrices": [[["a"]], [[1]]]},
    {"prime": 5, "matrices": [[[2.9]], [[1]]]},
    {"prime": 5, "matrices": [[[False]], [[1]]]},
    {"prime": 5, "matrices": [[[1, 0], [1]], [[1, 0], [0, 1]]]},
    {"prime": 5, "matrices": [[1], [1]]},
    {"prime": 5, "matrices": [[[2 ** 70]], [[1]]]},
])
def test_h1_rejects_a_module_file_that_is_not_integer_matrices(
        capsys, tmp_path, data):
    mod = tmp_path / "module.json"
    mod.write_text(json.dumps(data))
    code, out, err = run(capsys, "h1", "S3", str(mod))
    assert code == 2
    assert out == ""
    assert "integer" in err and "Traceback" not in err


@pytest.mark.parametrize("data, message", [
    ({"prime": 4, "matrices": [[[1]], [[1]]]}, "prime"),
    # S3's 3-cycle cannot act as 2, of multiplicative order 4 mod 5
    ({"prime": 5, "matrices": [[[2]], [[1]]]}, "inconsistent"),
    # S3's sign module over a prime whose products overflow int64
    ({"prime": 4294967311, "matrices": [[[1]], [[4294967310]]]}, "2^63"),
])
def test_h1_rejects_a_module_that_is_not_an_action(capsys, tmp_path, data,
                                                   message):
    mod = tmp_path / "module.json"
    mod.write_text(json.dumps(data))
    code, out, err = run(capsys, "h1", "S3", str(mod))
    assert code == 1
    assert out == ""
    assert message in err


def test_h1_above_the_element_cap_is_a_cap_error(capsys, tmp_path):
    mod = tmp_path / "module.json"
    mod.write_text(json.dumps({"prime": 2, "matrices": [[[1]], [[1]]]}))
    code, out, err = run(capsys, "h1", "S9", str(mod))
    assert code == 3
    assert "cap" in err


def test_h1_refuses_a_group_above_the_cohomology_cap_before_its_table(
        capsys, tmp_path, monkeypatch):
    # the walk would build C1000's element table, 2 MB, and a cyclic group
    # of large degree a table of gigabytes; the cap refuses it first
    tables = []
    real = PermGroup.element_table

    def counting(self, *args, **kwargs):
        tables.append(self.order())
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "element_table", counting)
    mod = tmp_path / "module.json"
    mod.write_text(json.dumps({"prime": 2, "matrices": [[[1]]]}))
    code, out, err = run(capsys, "h1", "C1000", str(mod))
    assert code == 3
    assert out == ""
    assert "cohomology cap: needs order <= 500, group has order 1000" in err
    assert tables == []


def test_corpus_command(capsys, tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "fast.expr").write_text("S3\nC6\n")
    (d / "more.slow.expr").write_text("A5\n")
    cache = tmp_path / "cache.jsonl"

    code, out, _ = run(capsys, "corpus", str(d), "--cache", str(cache))
    assert code == 0
    assert "2 groups, 0 with errors" in out
    assert "A5" not in out

    code, out, _ = run(capsys, "corpus", str(d), "--slow",
                       "--cache", str(cache), "--threads", "2")
    assert code == 0
    assert "A5: order 60" in out
    assert "3 groups" in out


def test_corpus_error_exit(capsys, tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "bad.expr").write_text("OOPS(\nS3\n")
    code, out, _ = run(capsys, "corpus", str(d))
    assert code == 2
    assert "parse error" in out
    assert "S3: order 6" in out
    assert "1 with errors" in out


def test_report_code_red_flag():
    rep = {"verdicts": [{"theorem": "MD_EQUAL", "applicable": True,
                         "case": None, "ok": False}]}
    assert cli._report_code(rep) == cli.EXIT_RED_FLAG


def test_group_error_exit(capsys):
    code, out, _ = run(capsys, "invariants", "Q(C6; g2)")
    assert code == 1
    assert "group error" in out
