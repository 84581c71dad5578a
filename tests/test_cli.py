import json
import math

import pytest

from isoquintic.cli import main
from isoquintic.qpoly import parse_expr


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


CASE_I_DOC = {"family": "quintic-uic", "d": "1", "e": "2", "f": "-3", "g": "1"}
CASE_I_PARTNER = {"p": "x*(1 + 2*x^4 - 4*x^3*y - y^4)",
                  "q": "y*(1 + 2*x^4 - 4*x^3*y - y^4)"}


class TestPlconst:
    def test_symbolic_family(self, capsys):
        code, out, _ = run(capsys, "plconst",
                           "--family", "a,b,c,d,e,f,g,h", "-m", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "D1 = a + c"
        assert lines[1] == "D2 = -4*a*b - 4*b*c + 3*d + f + 3*h"

    def test_output_reparses(self, capsys):
        code, out, _ = run(capsys, "plconst",
                           "--family", "a,b,c,d,e,f,g,h", "-m", "4")
        assert code == 0
        for line in out.splitlines():
            _, expr = line.split(" = ", 1)
            parse_expr(expr)  # must be valid grammar

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "plconst", "--json",
                           "--family", "a,b,c,d,e,f,g,h", "-m", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "plconst"
        assert doc["constants"][0] == "a + c"

    def test_system_document(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": "y + x*(x^2 + y^2)",
                                                "q": "-x + y*(x^2 + y^2)"})
        code, out, _ = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 0
        assert out.splitlines()[0] == "D1 = 1"

    def test_bindings_applied(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json",
                         {"family": "quintic-uic", "a": "a", "c": "c",
                          "bindings": {"a": "1", "c": "-1"}})
        code, out, _ = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 0
        assert out.splitlines()[0] == "D1 = 0"

    def test_missing_source(self, capsys):
        code, _, err = run(capsys, "plconst")
        assert code == 2 and "error:" in err

    def test_numeric_family(self, capsys):
        code, out, _ = run(capsys, "plconst",
                           "--family", "1,0,0,0,0,0,0,0", "-m", "1")
        assert code == 0
        assert out.splitlines()[0] == "D1 = 1"


class TestClassify:
    def test_center_case_ii(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "0,1,0,0,2,0,3,0")
        assert code == 0
        assert out.strip() == "CENTER case=ii"

    def test_center_case_i(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "0,0,0,1,2,-3,1,0")
        assert code == 0
        assert out.strip() == "CENTER case=i"

    def test_center_case_iii(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "1,0,-1,0,0,0,0,0")
        assert code == 0
        assert out.strip() == "CENTER case=iii"

    def test_focus_positive(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "1,0,0,0,0,0,0,0")
        assert code == 1
        assert out.strip() == "FOCUS k=1 sign=+"

    def test_focus_negative_second(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "0,0,0,-1,0,0,0,0")
        assert code == 1
        assert out.strip() == "FOCUS k=2 sign=-"

    def test_symbolic_rejected(self, capsys):
        code, _, err = run(capsys, "classify", "--family", "a,0,0,0,0,0,0,0")
        assert code == 2 and "error:" in err

    def test_malformed_family(self, capsys):
        code, _, err = run(capsys, "classify", "--family", "1,2,3")
        assert code == 2 and "error:" in err


class TestVerify:
    def test_commute_pass(self, capsys, tmp_path):
        sys_doc = write_doc(tmp_path, "sys.json", CASE_I_DOC)
        other = write_doc(tmp_path, "other.json", CASE_I_PARTNER)
        code, out, _ = run(capsys, "verify", "commute",
                           "--system", sys_doc, "--other", other)
        assert code == 0
        assert out.splitlines()[0] == "PASS"

    def test_commute_fail(self, capsys, tmp_path):
        sys_doc = write_doc(tmp_path, "sys.json", {"p": "y", "q": "-x"})
        other = write_doc(tmp_path, "other.json", {"p": "x^2", "q": "0"})
        code, out, _ = run(capsys, "verify", "commute",
                           "--system", sys_doc, "--other", other)
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL"
        assert lines[1] == "bracket1 = 2*x*y"

    @pytest.mark.parametrize("kind, flag", [("commute", "other"),
                                            ("invariant", "curve"),
                                            ("integral", "num"),
                                            ("reversible", "line")])
    def test_missing_flag(self, capsys, kind, flag):
        code, _, err = run(capsys, "verify", kind,
                           "--family", "0,1,0,0,1,0,-1,0")
        assert code == 2
        assert err == f"error: verify {kind} needs --{flag}\n"

    def test_invariant_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "invariant",
                           "--family", "a,b,c,d,e,f,g,h",
                           "--curve", "x^2 + y^2")
        assert code == 0
        assert out.splitlines()[0] == "PASS"
        assert "cofactor =" in out

    def test_invariant_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "invariant",
                           "--family", "1,0,0,0,0,0,0,0", "--curve", "x")
        assert code == 1
        assert out.splitlines()[0] == "FAIL"

    def test_integral_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "integral",
                           "--family", "1,0,-1,0,0,0,0,0",
                           "--num", "x^2 + y^2", "--den", "1 - 2*x*y")
        assert code == 0
        assert out.splitlines() == ["PASS", "residual = 0"]

    def test_integral_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "integral",
                           "--family", "1,0,-1,0,0,0,0,0",
                           "--num", "x^2 + y^2", "--den", "1 + 2*x*y")
        assert code == 1
        assert out.splitlines()[0] == "FAIL"

    def test_reversible_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "reversible",
                           "--family", "0,1,0,0,1,0,-1,0", "--line", "0,1")
        assert code == 0
        assert out.splitlines() == ["PASS", "residual = 0"]

    def test_reversible_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "reversible",
                           "--family", "1,0,0,0,0,0,0,0", "--line", "0,1")
        assert code == 1

    def test_reversible_bad_line(self, capsys):
        code, _, err = run(capsys, "verify", "reversible",
                           "--family", "0,1,0,0,0,0,0,0", "--line", "1")
        assert code == 2 and "error:" in err

    def test_form1_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "form1",
                           "--family", "a,b,c,d,e,f,g,h")
        assert code == 0
        assert out.splitlines() == ["PASS", "residual = 0"]

    def test_form1_fail(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": "y + x^2", "q": "-x"})
        code, out, _ = run(capsys, "verify", "form1", "--system", path)
        assert code == 1
        assert out.splitlines() == ["FAIL", "residual = -x^2*y"]

    def test_json_verdict(self, capsys):
        code, out, _ = run(capsys, "verify", "form1", "--json",
                           "--family", "a,b,c,d,e,f,g,h")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "PASS"


class TestOrbit:
    def test_center_orbit(self, capsys, tmp_path):
        out_csv = tmp_path / "orbit.csv"
        code, out, _ = run(capsys, "orbit",
                           "--family", "0,1,0,0,1,0,-1,0",
                           "--x0", "0.3", "--y0", "0",
                           "--out", str(out_csv))
        assert code == 0
        lines = out.splitlines()
        T = float(lines[0].split(" = ")[1])
        defect = float(lines[1].split(" = ")[1])
        assert abs(T - 2 * math.pi) < 1e-8
        assert defect < 1e-7
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "t,x,y"
        t0, x0, y0 = (float(v) for v in rows[1].split(","))
        assert (t0, x0, y0) == (0.0, 0.3, 0.0)
        for row in rows[1:]:
            assert len(row.split(",")) == 3

    def test_deterministic(self, capsys, tmp_path):
        csv1 = tmp_path / "a.csv"
        csv2 = tmp_path / "b.csv"
        _, out1, _ = run(capsys, "orbit", "--family", "0,0,0,1,2,-3,1,0",
                         "--x0", "0.2", "--y0", "0.1", "--out", str(csv1))
        _, out2, _ = run(capsys, "orbit", "--family", "0,0,0,1,2,-3,1,0",
                         "--x0", "0.2", "--y0", "0.1", "--out", str(csv2))
        assert out1 == out2
        assert csv1.read_bytes() == csv2.read_bytes()

    def test_symbolic_rejected(self, capsys):
        code, _, err = run(capsys, "orbit", "--family", "a,0,0,0,0,0,0,0",
                           "--x0", "0.1", "--y0", "0")
        assert code == 2 and "error:" in err

    def test_escape_reported(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": "y + x*(x^2 + y^2)",
                                                "q": "-x + y*(x^2 + y^2)"})
        code, _, err = run(capsys, "orbit", "--system", path,
                           "--x0", "2", "--y0", "0", "--t-end", "10")
        assert code == 1
        assert "integration failed" in err


class TestBoundary:
    def test_four_maximizers(self, capsys, tmp_path):
        out_csv = tmp_path / "b.csv"
        code, out, _ = run(capsys, "boundary", "--params", "0,1,-1,0",
                           "--out", str(out_csv))
        assert code == 0
        lines = out.splitlines()
        assert abs(float(lines[0].split(" = ")[1]) - 1.0) < 1e-9
        assert lines[1] == "maximizers = 4"
        assert lines[2] == "type = B4"
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "phi,rho"
        assert len(rows) == 257
        assert any(row.endswith(",inf") for row in rows[1:])

    def test_two_maximizers(self, capsys):
        code, out, _ = run(capsys, "boundary", "--params", "0,1,1,0")
        assert code == 0
        assert "type = B2" in out

    def test_inapplicable(self, capsys):
        code, _, err = run(capsys, "boundary", "--params", "0,-1,1,0")
        assert code == 1
        assert "inapplicable" in err

    def test_malformed_params(self, capsys):
        code, _, err = run(capsys, "boundary", "--params", "1,2")
        assert code == 2 and "error:" in err


class TestDocuments:
    def test_unknown_keys_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json",
                         {"p": "y", "q": "-x", "extra": 1})
        code, _, err = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 2 and "unknown keys" in err

    def test_unknown_family_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"family": "cubic", "a": "1"})
        code, _, err = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 2

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "plconst", "--system", str(path), "-m", "1")
        assert code == 2 and "invalid JSON" in err

    def test_missing_components(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": "y"})
        code, _, err = run(capsys, "plconst", "--system", str(path), "-m", "1")
        assert code == 2

    def test_parse_error_in_component(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": "y +", "q": "-x"})
        code, _, err = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 2

    def test_non_string_component(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": 5, "q": "-x"})
        code, _, err = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 2 and "p and q must be expression strings" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "plconst",
                           "--system", str(tmp_path / "nope.json"), "-m", "1")
        assert code == 2 and "cannot read" in err
