import contextlib
import io
import itertools
import json
import math
import re
import shlex
import sys
import time
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from isoquintic import orbits, quintic
from isoquintic.orbits import integral_value
from isoquintic.cli import build_parser, main
from isoquintic.qpoly import MAX_DIGITS, parse_expr, parse_rational
from conftest import (CASE_I_BTYPES, b_type, case_i_point, requires_numpy,
                      run_fresh)


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

    def test_m_below_one(self, capsys):
        assert run(capsys, "plconst", "--family", "a,b,c,d,e,f,g,h",
                   "-m", "0") == (2, "", "error: m must be >= 1\n")

    @pytest.mark.parametrize("family", ["x,0,0,0,0,0,0,0", "a,b,c,d,e,f,g,y"])
    def test_state_variable_as_parameter(self, capsys, family):
        name = family[0] if family[0] == "x" else "y"
        assert run(capsys, "plconst", "--family", family) == (
            2, "", f"error: parameter {name} uses the variables x, y\n")


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

    def test_negative_first_entry_with_equals(self, capsys):
        code, out, _ = run(capsys, "classify", "--family=-1,2,1,1/2,-3,2,1,-1")
        assert code == 1
        assert out.strip() == "FOCUS k=2 sign=+"

    def test_focus_negative_second(self, capsys):
        code, out, _ = run(capsys, "classify", "--family", "0,0,0,-1,0,0,0,0")
        assert code == 1
        assert out.strip() == "FOCUS k=2 sign=-"

    def test_focus_beyond_first_constant(self, capsys):
        """R decides every point, so classify takes no -m and never answers
        UNDETERMINED, also where D1 = 0."""
        # D1 = a + c = 0 and D2 = 3 d = 3
        argv = ["classify", "--family", "1,0,-1,1,0,0,0,0"]
        assert run(capsys, *argv) == (1, "FOCUS k=2 sign=+\n", "")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "-m", "1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert captured.err.endswith("error: unrecognized arguments: -m 1\n")

    @pytest.mark.parametrize("m, error", [
        ("0", "m must be >= 1"), ("7", "requested 7 constants exceeds the cap 6")])
    @pytest.mark.parametrize("family", ["0,1,0,0,2,0,3,0", "1,0,0,0,0,0,0,0"])
    def test_m_checked_on_centers_and_foci(self, capsys, family, m, error):
        """plconst checks m on a center and a focus alike; classify has no
        -m to check."""
        assert run(capsys, "plconst", "--family", family,
                   "-m", m) == (2, "", f"error: {error}\n")
        with pytest.raises(SystemExit) as exc:
            main(["classify", "--family", family, "-m", m])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: unrecognized arguments: -m {m}\n")

    def test_symbolic_rejected(self, capsys):
        assert run(capsys, "classify", "--family", "a,0,0,0,0,0,0,0") == (
            2, "", "error: parameters are not fully numeric\n")

    def test_malformed_family(self, capsys):
        code, _, err = run(capsys, "classify", "--family", "1,2,3")
        assert code == 2 and "error:" in err

    def test_non_ascii_digit_rejected(self, capsys):
        # Fraction reads U+0661 ARABIC-INDIC DIGIT ONE as 1
        code, out, err = run(capsys, "classify", "--family", "\u0661,0,0,0,0,0,0,0")
        assert (code, out) == (2, "")
        assert err == "error: malformed rational '\u0661'\n"


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

    def test_long_residual_truncated(self, capsys):
        code, out, _ = run(capsys, "verify", "integral",
                           "--family", "a,b,c,d,e,f,g,h",
                           "--num", "x^2+y^2", "--den", "1+x^2*y")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "FAIL" and len(lines) == 2
        assert lines[1].startswith("residual = -x^8*y*d - x^7*y^2*e")
        assert lines[1].endswith(" + 2*x^4*y^2*f + ... (35 terms)")
        assert lines[1].count(" + ") + lines[1].count(" - ") == 20

    def test_reversible_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "reversible",
                           "--family", "0,1,0,0,1,0,-1,0", "--line", "0,1")
        assert code == 0
        assert out.splitlines() == ["PASS", "residual = 0"]

    def test_reversible_fail(self, capsys):
        code, out, _ = run(capsys, "verify", "reversible",
                           "--family", "1,0,0,0,0,0,0,0", "--line", "0,1")
        assert code == 1

    def test_reversible_needs_reversed_flow(self, capsys, tmp_path):
        # (x, y) is symmetric about x = 0 but the reflection keeps its flow
        path = write_doc(tmp_path, "sys.json", {"p": "x", "q": "y"})
        code, out, _ = run(capsys, "verify", "reversible", "--system", path,
                           "--line", "1,0")
        assert code == 1
        assert out.splitlines() == ["FAIL", "residual = 2*x"]

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
    @requires_numpy
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

    @requires_numpy
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
        assert run(capsys, "orbit", "--family", "a,0,0,0,0,0,0,0",
                   "--x0", "0.1", "--y0", "0") == (
            2, "", "error: system has parameters left\n")

    def test_nonuniform_angular_speed_rejected(self, capsys, tmp_path):
        """The orbit itself integrates; the ray return needs the form."""
        path = write_doc(tmp_path, "sys.json", {"p": "y+x^2", "q": "-x"})
        assert run(capsys, "orbit", "--system", path, "--x0", "0.1",
                   "--y0", "0") == (
            2, "", "error: system is not of the constant-angular-speed form\n")

    @pytest.mark.parametrize("x0", ["1", "5"])
    def test_form_checked_before_integrating(self, capsys, tmp_path, x0):
        """From these points the orbit escapes before any ray return: the
        form is still an input error, not the verdict "orbit escaped"."""
        path = write_doc(tmp_path, "sys.json", {"p": "y+x^2", "q": "-x"})
        assert run(capsys, "orbit", "--system", path, "--x0", x0,
                   "--y0", "0") == (
            2, "", "error: system is not of the constant-angular-speed form\n")

    @requires_numpy
    def test_out_is_a_directory(self, capsys, tmp_path):
        code, out, err = run(capsys, "orbit", "--family", "0,1,0,0,1,0,-1,0",
                             "--x0", "0.3", "--y0", "0", "--out", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    @requires_numpy
    def test_escape_reported(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json", {"p": "y + x*(x^2 + y^2)",
                                                "q": "-x + y*(x^2 + y^2)"})
        code, _, err = run(capsys, "orbit", "--system", path,
                           "--x0", "2", "--y0", "0", "--t-end", "10")
        assert code == 1
        assert "integration failed" in err

    @requires_numpy
    def test_crossing_at_step_end_is_no_input_error(self, capsys):
        """From far out the orbit crosses its ray at a step end, within
        rounding of zero, where the step's continuous extension does not
        change sign: the step end is the crossing, too early to count, and
        the orbit goes on to stall, a failed integration."""
        code, out, err = run(capsys, "orbit",
                             "--family=1,1/4,3/4,0,1/4,0,3/4,1/4",
                             "--x0=-13103.010434717424",
                             "--y0=-25181.089514334704",
                             "--tol=1e-7", "--t-end=1e-30")
        assert (code, out) == (1, "")
        assert err.startswith("integration failed: solver stalled at t = ")

    @requires_numpy
    def test_nan_initial_step_stalls(self, capsys):
        """The first slope is (inf, nan), so the initial step is nan: a stall
        at t = 0, from the finite start, not a call budget spent on nan."""
        assert run(capsys, "orbit", "--family=1e300,0,0,0,0,0,0,0",
                   "--x0=1e5", "--y0=0") == (
            1, "", "integration failed: solver stalled at t = 0 "
                   "(|state| = 1e+05): Required step size is less than "
                   "spacing between numbers.\n")

    def test_tol_default_is_orbits_tol(self, capsys):
        args = build_parser().parse_args(["orbit", "--x0", "0", "--y0", "0"])
        assert args.tol == orbits.TOL
        with pytest.raises(SystemExit):
            main(["orbit", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"--tol TOL rtol = atol of RK45 (default: {orbits.TOL:g})" in help_text

    @requires_numpy
    def test_overflow_not_reported(self, capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "orbit", "--family=1,0,0,0,0,0,0,0",
                                 "--x0=1e8", "--y0=0", "--t-end=63", "--tol=63")
        assert code == 1 and out == ""
        assert err.startswith("integration failed: orbit escaped")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert [str(w.message) for w in caught] == []

    @requires_numpy
    def test_rhs_budget_ends_costly_solve(self, capsys):
        # 397790 right-hand side calls in `integrate` alone without the budget
        start = time.perf_counter()
        code, out, err = run(capsys, "orbit", "--family=0,1,0,0,1,0,-1,0",
                             "--x0=63", "--y0=0", "--t-end=63", "--tol=2.3e-14")
        assert time.perf_counter() - start < 5.0
        assert code == 1 and out == ""
        assert err.startswith(f"integration failed: budget of "
                              f"{orbits.MAX_RHS_CALLS} right-hand side calls "
                              f"spent at t = ")
        assert "(|state| = " in err and err.count("\n") == 1

    @requires_numpy
    def test_return_before_budget_is_kept(self, capsys):
        # --t-end=0.1 keeps `integrate` cheap; the ray return stops at
        # t = 2 pi, where running on to 2.5 pi would spend the call budget
        # at t = 6.60318
        assert run(capsys, "orbit", "--family=0,1,0,0,1,0,-1,0", "--x0=120",
                   "--y0=0", "--t-end=0.1", "--tol=2.3e-14")[:2] == (
            0, "ray return time = 6.2831853071796004\n"
               "closure defect = 5.8849544672057164e-05\n")

    @requires_numpy
    @pytest.mark.parametrize("family, x0, message", [
        # finite terms whose sum passes the float range
        ("1e308,1e308,0,0,0,0,0,0", "1", "intermediate overflow in fsum"),
        # terms that overflow to +inf and -inf
        ("1e300,0,0,0,0,0,0,-1e300", "1e5", "-inf + inf in fsum"),
    ])
    def test_rhs_overflow_is_stiffness(self, capsys, family, x0, message):
        code, out, err = run(capsys, "orbit", f"--family={family}",
                             f"--x0={x0}", f"--y0={x0}")
        assert code == 1 and out == ""
        assert err.startswith("integration failed: right-hand side overflowed "
                              "at t = 0 (|state| = ")
        assert err.endswith(f"): {message}\n") and err.count("\n") == 1
        assert "Traceback" not in err

    @requires_numpy
    @pytest.mark.parametrize("family, x0, y0, message", [
        # the step size falls below the spacing of floats near t
        ("1,0,1,1,0,1,0,1", "0.4", "0",
         "solver stalled at t = 2.2049 (|state| = 1.38e+03): Required step "
         "size is less than spacing between numbers."),
        # the first steps overflow the state, and the field with it
        ("1e300,0,0,0,0,0,0,0", "100", "3",
         "right-hand side overflowed at t = 4.23646e-305 (|state| = inf): "
         "-inf + inf in fsum"),
    ])
    def test_failed_integration_has_no_nan(self, capsys, family, x0, y0,
                                           message):
        assert run(capsys, "orbit", "--family", family, "--x0", x0,
                   "--y0", y0) == (1, "", f"integration failed: {message}\n")

    def test_coefficient_beyond_float_range(self, capsys):
        assert run(capsys, "orbit", "--family", "1e400,0,0,0,0,0,0,0",
                   "--x0", "0.1", "--y0", "0") == (
            2, "", "error: coefficient 1E+400 is beyond the float range\n")

    @pytest.mark.parametrize("flag,value", [
        ("--tol", "nan"), ("--tol", "inf"), ("--tol", "0"), ("--tol", "-1e-8"),
        ("--t-end", "nan"), ("--t-end", "inf"), ("--t-end", "-1"),
        ("--t-end", "1e6"), ("--t-end", "834")])
    def test_unbounded_input_rejected(self, capsys, flag, value):
        start = time.perf_counter()
        code, _, err = run(capsys, "orbit", "--family", "0,1,0,0,1,0,-1,0",
                           "--x0", "0.3", "--y0", "0", f"{flag}={value}")
        assert code == 2 and err.startswith("error:")
        assert time.perf_counter() - start < 5.0


class TestNumericFlags:
    """Numeric flags read ASCII text only, and otherwise as int and float do."""

    ARGV = {"-m": ["plconst", "--family", "0,0,0,1,0,0,0,0"],
            "-N": ["boundary", "--params", "0,1,-1,0"],
            "--x0": ["orbit", "--family", "0,1,0,0,1,0,-1,0", "--y0", "0"],
            "--y0": ["orbit", "--family", "0,1,0,0,1,0,-1,0", "--x0", "0.3"],
            "--t-end": ["orbit", "--family", "0,1,0,0,1,0,-1,0",
                        "--x0", "0.3", "--y0", "0"],
            "--tol": ["orbit", "--family", "0,1,0,0,1,0,-1,0",
                      "--x0", "0.3", "--y0", "0"]}

    # Arabic-Indic digits, which int() and float() read as 3, 400, 0.3, ...
    @pytest.mark.parametrize("flag, convert, text", [
        ("-m", int, "\u0663"),
        ("-N", int, "\u0664\u0660\u0660"),
        ("--x0", float, "\u0660.\u0663"),
        ("--y0", float, "\u0660"),
        ("--t-end", float, "\u0661"),
        ("--tol", float, "\u0661e-8"),
    ])
    def test_non_ascii_number_rejected(self, capsys, flag, convert, text):
        convert(text)  # what argparse's plain type= would accept
        with pytest.raises(SystemExit) as exc:
            main(self.ARGV[flag] + [f"{flag}={text}"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.endswith(
            f"error: argument {flag}: invalid {convert.__name__} value: {text!r}\n")
        assert "Traceback" not in captured.err

    def test_ascii_parsed_as_int_and_float(self):
        args = build_parser().parse_args(
            ["orbit", "--x0", " 1_0.5 ", "--y0", "-0", "--t-end", "1e1",
             "--tol", "INF"])
        assert (args.x0, args.t_end, args.tol) == (10.5, 10.0, math.inf)
        assert math.copysign(1.0, args.y0) == -1.0
        args = build_parser().parse_args(["boundary", "--params", "0,1,-1,0",
                                          "-N", " +1_024 "])
        assert args.n == 1024
        assert build_parser().parse_args(["plconst", "-m", " +3 "]).m == 3
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plconst", "-m", "3.0"])


def case_i_params(tag):
    """--params of CASE_I_BTYPES[tag], and its evidence as `boundary` prints
    it: "maximizers = 4", "inapplicable"."""
    quartic, evidence = CASE_I_BTYPES[tag]
    printed = evidence.replace("(", " = ").rstrip(")")
    return ",".join(map(str, quartic)), printed


class TestBoundary:
    def test_four_maximizers(self, capsys, tmp_path):
        out_csv = tmp_path / "b.csv"
        params, evidence = case_i_params("B4")
        code, out, _ = run(capsys, "boundary", "--params", params,
                           "--out", str(out_csv))
        assert code == 0
        lines = out.splitlines()
        assert abs(float(lines[0].split(" = ")[1]) - 1.0) < 1e-9
        assert lines[1] == evidence
        assert lines[2] == "type = B4"
        rows = out_csv.read_text().splitlines()
        assert rows[0] == "phi,rho"
        assert len(rows) == 257
        assert any(row.endswith(",inf") for row in rows[1:])

    def test_two_maximizers(self, capsys):
        params, evidence = case_i_params("B2")
        code, out, _ = run(capsys, "boundary", "--params", params)
        assert code == 0
        assert out.splitlines()[1:3] == [evidence, "type = B2"]

    def test_inapplicable(self, capsys):
        params, evidence = case_i_params("Unknown")
        code, _, err = run(capsys, "boundary", "--params", params)
        assert code == 1
        assert evidence in err

    def test_malformed_params(self, capsys):
        code, _, err = run(capsys, "boundary", "--params", "1,2")
        assert code == 2 and "error:" in err

    def test_out_in_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.csv"
        code, out, err = run(capsys, "boundary", "--params", "0,1,-1,0",
                             "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("params, tag", [
        ("1e308,0,0,0", "B2"), ("1e308,1,1,1e308", "B4"),
        ("0,1e-320,-1e-320,0", None), ("0,1e-400,-1e-400,0", None),
        ("1.7e308,1.7e308,-1.7e308,1.7e308", None)])
    def test_outside_normal_float_range(self, capsys, tmp_path, params, tag):
        """Scaled to the edge of the float range, the quartic gets the
        B-type of `center_type` (here B2 and B4) with a normal c0 and normal
        finite rho; where c0 is no normal float (subnormal, zero, or above
        the largest float, as in the last case), an input error."""
        out_csv = tmp_path / "b.csv"
        code, out, err = run(capsys, "boundary", f"--params={params}",
                             "--out", str(out_csv))
        if tag is None:
            assert (code, out, err) == (
                2, "", "error: boundary c0 is outside the normal float range "
                       "[2.22507e-308, 1.79769e+308]\n")
            return
        point = case_i_point(*map(parse_rational, params.split(",")))
        assert b_type(point).tag == tag
        assert code == 0
        lines = out.splitlines()
        assert lines[2] == f"type = {tag}"
        rhos = [float(row.split(",")[1])
                for row in out_csv.read_text().splitlines()[1:]]
        for v in [float(lines[0].split(" = ")[1]), *rhos]:
            assert v == math.inf or sys.float_info.min <= v < math.inf

    @pytest.mark.parametrize("params, value", [("1e400,1,1,1", "1E+400"),
                                               ("0,1,-1e400,0", "-1E+400")])
    def test_coefficient_beyond_float_range(self, capsys, params, value):
        assert run(capsys, "boundary", f"--params={params}") == (
            2, "", f"error: coefficient {value} is beyond the float range\n")


class TestDocuments:
    def test_nested_too_deeply(self, capsys, tmp_path):
        path = tmp_path / "sys.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert run(capsys, "plconst", "--system", str(path)) == (
            2, "", f"error: {path}: JSON nested too deeply to read\n")

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json",
                         {"p": "y", "q": "-x", "extra": 1})
        code, _, err = run(capsys, "plconst", "--system", path, "-m", "1")
        assert code == 2 and "unknown keys" in err

    def test_unknown_family_key_rejected(self, capsys, tmp_path):
        path = write_doc(tmp_path, "sys.json",
                         {"family": "quintic-uic", "a": "1", "z": "2"})
        assert run(capsys, "plconst", "--system", path, "-m", "1") == (
            2, "", "error: unknown keys ['z']\n")

    def test_bindings_not_an_object(self, capsys, tmp_path):
        # falsy values too: the type is checked whenever the key is present
        for bindings in (["a", 1], 0, "", False, [], None):
            path = write_doc(tmp_path, "sys.json",
                             {"p": "y + a*x^2", "q": "-x", "bindings": bindings})
            assert run(capsys, "plconst", "--system", path, "-m", "1") == (
                2, "", "error: bindings must be an object\n"), bindings

    @pytest.mark.parametrize("name", ["x", "y"])
    def test_binding_names_state_variable(self, capsys, tmp_path, name):
        path = write_doc(tmp_path, "sys.json",
                         {"family": "quintic-uic", "a": "1", "c": "-1",
                          "bindings": {name: "2"}})
        assert run(capsys, "verify", "form1", "--system", path) == (
            2, "", f"error: binding {name} names a state variable\n")

    @pytest.mark.parametrize("name", ["a ", "1", "", "a b", "a*b"])
    def test_binding_key_not_a_symbol(self, capsys, tmp_path, name):
        """A key that names no symbol would bind nothing."""
        path = write_doc(tmp_path, "sys.json",
                         {"family": "quintic-uic", "a": "a", "c": "c",
                          "bindings": {name: "1", "c": "-1"}})
        assert run(capsys, "plconst", "--system", path, "-m", "1") == (
            2, "", f"error: {name!r} is not a symbol name\n")

    # json reads 1e400 as inf; true and false are ints to Python
    @pytest.mark.parametrize("value", ["1e400", "-1e400", "NaN", "null",
                                       "true", "false", "[1]"])
    def test_family_value_not_string_or_finite(self, capsys, tmp_path, value):
        path = tmp_path / "sys.json"
        path.write_text(f'{{"family": "quintic-uic", "a": {value}, "c": 2}}',
                        encoding="utf-8")
        assert run(capsys, "plconst", "--system", str(path), "-m", "1") == (
            2, "", "error: family value 'a' must be a string or a finite "
                   "number\n")

    @pytest.mark.parametrize("value, d1", [("0.5", "1"), ("-3", "-1")])
    def test_family_value_string_or_number(self, capsys, tmp_path, value, d1):
        path = tmp_path / "sys.json"
        path.write_text(f'{{"family": "quintic-uic", "a": {value}, "c": 2}}',
                        encoding="utf-8")
        assert run(capsys, "plconst", "--system", str(path), "-m", "1") == (
            0, f"D1 = {d1}\n", "")

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

    @pytest.mark.parametrize("source", ["parentheses", "minus", "document"])
    def test_deep_nesting_rejected(self, capsys, tmp_path, source):
        if source == "document":
            path = write_doc(tmp_path, "sys.json",
                             {"p": "(" * 3000 + "y" + ")" * 3000, "q": "-x"})
            argv = ["plconst", "--system", path, "-m", "1"]
        else:
            curve = ("(" * 5000 + "x" + ")" * 5000 if source == "parentheses"
                     else "-" * 5000 + "x")
            argv = ["verify", "invariant", "--family", "1,0,0,0,0,0,0,0",
                    f"--curve={curve}"]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error:" in err and "nested too deeply" in err
        assert "Traceback" not in err

    def test_long_integer_literal(self, capsys):
        code, out, err = run(capsys, "verify", "invariant",
                             "--family", "1,0,0,0,0,0,0,0",
                             "--curve=x^" + "9" * 5000)
        assert code == 2 and out == ""
        assert err == "error: integer literal too long (at position 2)\n"
        code, _, err = run(capsys, "verify", "invariant",
                           "--family", "1,0,0,0,0,0,0,0",
                           "--curve=x + " + "9" * MAX_DIGITS)
        assert code == 1 and err == ""

    @pytest.mark.parametrize("curve, message", [
        ("x^\u00b2", "expected an unsigned integer (at position 2)"),
        ("\u0663*x", "expected a factor (at position 0)"),
    ])
    def test_non_ascii_digit_in_curve(self, capsys, curve, message):
        code, out, err = run(capsys, "verify", "invariant",
                             "--family", "1,0,0,0,0,0,0,0", f"--curve={curve}")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "plconst",
                           "--system", str(tmp_path / "nope.json"), "-m", "1")
        assert code == 2 and "cannot read" in err


# 16 factors of two-symbol sums with 32 distinct names: 127 characters whose
# expansion has 65536 terms
_NAMES = ["".join(pair) for pair in itertools.product("abcdefgh", repeat=2)]
SIXTEEN_FACTORS = "*".join(f"({_NAMES[2 * i]}+{_NAMES[2 * i + 1]})"
                           for i in range(16))


class TestCostlyInputs:
    """Inputs measured to run for seconds, minutes or without end; each is
    now an input error (exit 2) found before the costly work starts."""

    @pytest.mark.parametrize("source, message", [
        ("product", "more than 10000 terms"),
        ("power-800", "degree above 100"),
        ("power-1600", "degree above 100"),
        ("x0-2e9", "inside |state| = 1e+09"),
        ("x0-1e100", "inside |state| = 1e+09"),
        ("x0-1e200", "inside |state| = 1e+09"),
        ("n-1e6", "N must be in [64, 65536]"),
        ("n-1e7", "N must be in [64, 65536]"),
        ("den-0", "denominator must be nonzero"),
        ("exp-family", "exponent above 4300 in '1e10000000'"),
        ("exp-params", "exponent above 4300 in '-1e10000000'"),
        ("exp-line", "exponent above 4300 in '1e-10000000'"),
        ("exp-bindings", "exponent above 4300 in '1E+10_000_000'"),
    ])
    def test_rejected_fast(self, capsys, tmp_path, source, message):
        kind, _, value = source.partition("-")
        if kind == "product":
            argv = ["verify", "invariant", "--family", "1,0,0,0,0,0,0,0",
                    f"--curve={SIXTEEN_FACTORS}"]
        elif kind == "power":
            path = write_doc(tmp_path, "sys.json",
                             {"p": f"y + x^{value}", "q": "-x"})
            argv = ["verify", "reversible", "--system", path, "--line", "1,2"]
        elif kind == "x0":
            argv = ["orbit", "--family", "0,1,0,0,1,0,-1,0",
                    "--x0", value, "--y0", "0"]
        elif kind == "exp":
            # each would expand to ten million digits before any arithmetic
            argv = {"family": ["classify", "--family=1e10000000,0,0,0,0,0,0,0"],
                    "params": ["boundary", "--params=-1e10000000,1,-1,0"],
                    "line": ["verify", "reversible", "--family=0,1,0,0,1,0,-1,0",
                             "--line=1e-10000000,1"],
                    "bindings": ["plconst", "--system", write_doc(
                        tmp_path, "sys.json", {"family": "quintic-uic", "a": "a",
                                               "bindings": {"a": "1E+10_000_000"}})],
                    }[value]
        elif kind == "n":
            argv = ["boundary", "--params", "0,1,-1,0", "-N", str(int(float(value)))]
        else:
            argv = ["verify", "integral", "--family", "1,0,0,0,0,0,0,0",
                    "--num", "x", "--den", "0"]
        start = time.perf_counter()
        code, _, err = run(capsys, *argv)
        assert time.perf_counter() - start < 5.0
        assert code == 2
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, stdout lines, exit code) of each README CLI example that shows
    its output: `# ...` lines after the command, or one `# ... (exit N)`
    comment on it.  Without an `(exit N)` the example reports success, 0."""
    examples = []
    text = README.read_text(encoding="utf-8")
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            command, _, comment = line.partition("#")
            if command.startswith("isoquintic "):
                examples.append((shlex.split(command)[1:], [], [0]))
            elif command or not comment or not examples:
                continue
            if comment:
                shown = re.fullmatch(r" (.*?)\s*(?:\(exit (\d)\))?", comment)
                examples[-1][1].append(shown[1])
                if shown[2]:
                    examples[-1][2][0] = int(shown[2])
    return [(argv, out, code) for argv, out, (code,) in examples if out]


README_EXAMPLES = readme_examples()


class TestReadme:
    """The README's CLI examples print what the README shows."""

    def test_examples_found(self):
        assert [argv[0] for argv, _, _ in README_EXAMPLES] == [
            "plconst", "classify", "classify", "orbit", "boundary"]

    @pytest.mark.parametrize("argv, stdout, code", [
        pytest.param(argv, stdout, code, id=f"{argv[0]}-{i}",
                     marks=requires_numpy if argv[0] == "orbit" else ())
        for i, (argv, stdout, code) in enumerate(README_EXAMPLES)])
    def test_example(self, capsys, monkeypatch, tmp_path, argv, stdout, code):
        monkeypatch.chdir(tmp_path)  # where --out writes its CSV
        assert run(capsys, *argv)[:2] == (code, "".join(f"{line}\n"
                                                      for line in stdout))
        for flag, path in zip(argv, argv[1:]):
            if flag == "--out":
                assert (tmp_path / path).read_text().count("\n") > 1

# Runs `cli.main` on each argv list of sys.argv[1] in one fresh interpreter
# and prints, after the import and after each call, the exit code, whether
# numpy is loaded and which modules of scipy are.
IMPORT_PROBE = """
import contextlib, io, json, sys
def loaded():
    return sorted(m for m in sys.modules
                  if m == "numpy" or m.split(".")[0] == "scipy")
import isoquintic.cli as cli
seen = [[None, loaded()]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        seen.append([cli.main(argv), loaded()])
print(json.dumps(seen))
"""


# Prints the B-type of a case (i) boundary, the case and B-type of a center
# of each case, the kind and value at (0.3, 0.1) of a rational and a Darboux
# integral (`INTEGRAL_POINTS`), and whether numpy is loaded afterwards.
INTEGRAL_POINTS = ([0, 0, 0, 1, 0, -3, 0, 0], [0, 1, 0, 0, 1, 0, -1, 0])
NUMPY_FREE_PROBE = f"""
import json, sys
from isoquintic import orbits, quintic
tags = [orbits.boundary_curve(0, 1, -1, 0).btype]
for values in ([0, 0, 0, 0, 1, 0, -1, 0], [0, 1, 0, 0, 1, 0, -1, 0],
               [1, 0, -1, 1, 0, 0, 0, -1]):
    params = quintic.QuinticParams.numeric(*values)
    case = quintic.theorem_case(params)
    tags.append([case.tag.value, orbits.center_type(params, case).tag])
integrals = []
for values in {INTEGRAL_POINTS}:
    params = quintic.QuinticParams.numeric(*values)
    spec = quintic.first_integral(params, quintic.theorem_case(params))
    integrals.append([spec.kind, orbits.integral_value(spec.payload, 0.3, 0.1)])
print(json.dumps([tags, integrals, "numpy" in sys.modules]))
"""


def probe_imports(steps):
    """IMPORT_PROBE's report on the argv lists `steps`."""
    return run_fresh(IMPORT_PROBE, json.dumps(steps))


class TestImports:
    """The exact commands never load the float layer's dependencies."""

    @requires_numpy
    def test_float_layer_loaded_only_where_used(self):
        steps = [["classify", "--family", "0,1,0,0,2,0,3,0"],
                 ["plconst", "--family", "a,b,c,d,e,f,g,h", "-m", "2"],
                 ["verify", "form1", "--family", "a,b,c,d,e,f,g,h"],
                 ["boundary", "--params", "0,1,-1,0"],
                 ["orbit", "--family", "0,1,0,0,1,0,-1,0",
                  "--x0", "0.3", "--y0", "0"]]
        seen = probe_imports(steps)
        assert seen[:5] == [[None, []], [0, []], [0, []], [0, []], [0, []]]
        # the orbit steps on numpy alone: no scipy module is loaded
        assert seen[5] == [0, ["numpy"]]

    def test_symbolic_orbit_rejected_before_scipy(self):
        """compile_rhs refuses parameters before numpy is imported."""
        seen = probe_imports([["orbit", "--family", "a,0,0,0,0,0,0,0",
                               "--x0", "0.1", "--y0", "0"]])
        assert seen == [[None, []], [2, []]]

    def test_runs_without_numpy(self):
        """The boundary, a B-type of each case and the value of a rational
        and a Darboux integral, in a fresh interpreter: only the solve
        imports numpy, and the values are those of this process."""
        integrals = []
        for values in INTEGRAL_POINTS:
            params = quintic.QuinticParams.numeric(*values)
            spec = quintic.first_integral(params, quintic.theorem_case(params))
            integrals.append([spec.kind, integral_value(spec.payload, 0.3, 0.1)])
        assert [kind for kind, _ in integrals] == ["rational", "darboux-exp"]
        assert run_fresh(NUMPY_FREE_PROBE) == [
            ["B4", ["i", "B4"], ["ii", "B4"], ["iii", "B2"]], integrals, False]


EXTREMES = ["0", "-0", "1e-300", "-1e-300", "1e8", "1e9", "1e200",
            "nan", "inf", "63", "10000000", "1e400", "-1e400"]
extreme = st.sampled_from(EXTREMES)


def timed_exit(argv):
    """Exit code (argparse's own exits included) and wall time of one
    in-process CLI call, its output discarded."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, time.perf_counter() - start


class TestHostileFlags:
    """Extreme numeric flags end in a verdict or an input error, fast."""

    @requires_numpy
    @seed(20240824)
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["0,1,0,0,1,0,-1,0", "1,0,0,0,0,0,0,0",
                            "1e300,0,0,0,0,0,0,-1e300", "-1e300,0,1e300,0,0,0,0,0",
                            "1e308,1e308,0,0,0,0,0,0", "0,0,0,-1e308,0,0,0,1e308",
                            "1e400,0,0,0,0,0,0,0"]),
           extreme, extreme, extreme, extreme)
    @example("1e400,0,0,0,0,0,0,0", "0.1", "0", "63", "1e8")
    def test_orbit(self, family, x0, y0, t_end, tol):
        code, seconds = timed_exit(["orbit", f"--family={family}",
                                    f"--x0={x0}", f"--y0={y0}",
                                    f"--t-end={t_end}", f"--tol={tol}"])
        assert code in (0, 1, 2)
        assert seconds < 5.0

    @seed(20240824)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(extreme, min_size=4, max_size=4),
           st.one_of(st.none(), extreme))
    def test_boundary(self, params, n):
        argv = ["boundary", f"--params={','.join(params)}"]
        if n is not None:
            argv.append(f"-N={n}")
        code, seconds = timed_exit(argv)
        assert code in (0, 1, 2)
        assert seconds < 5.0


# expressions: mostly well formed, with powers, products and parameters, some
# text from the grammar's alphabet in no order, and the odd non-ASCII digit
_leaves = st.one_of(
    st.sampled_from(["x", "y", "a", "b", "0", "1", "2/3", "10000000000",
                     "1/1000000"]),
    st.tuples(st.sampled_from("xyab"), st.integers(0, 12)).map(
        lambda t: f"{t[0]}^{t[1]}"))
_grammar = st.recursive(_leaves, lambda inner: st.one_of(
    st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
    inner.map(lambda e: f"({e})"), inner.map(lambda e: f"-{e}")),
    max_leaves=10)
_soup = st.text(alphabet="xyab0123456789/+-*^() .e\u0663\u00b2", max_size=24)
expressions = st.one_of(_grammar, _grammar, _soup)
# components with the linear part (y, -x) that `plconst` needs, or near it
_p = st.one_of(_grammar.map(lambda e: f"y + x*y*({e})"),
               _grammar.map(lambda e: f"y + {e}"), expressions)
_q = st.one_of(_grammar.map(lambda e: f"-x + x^2*({e})"),
               _grammar.map(lambda e: f"-x + {e}"), expressions)
_values = st.one_of(_leaves, expressions, st.integers(-10, 10), st.none(),
                    st.sampled_from(["1/0", "", [], {}, "-2.5e-3", "1e400",
                                     "1e10000000", math.inf, math.nan, True,
                                     0.25]))
_explicit = st.fixed_dictionaries({"p": _p, "q": _q}, optional={
    "bindings": st.dictionaries(st.sampled_from(["a", "b", "x"]), _values,
                                max_size=2)})
_family = st.fixed_dictionaries({"family": st.just("quintic-uic")},
                                optional={n: _values for n in "acdh"})
documents = st.one_of(
    _explicit, _explicit, _explicit, _family, _family,
    st.dictionaries(st.sampled_from(["p", "q", "family", "bindings", "e"]),
                    _values, max_size=3),
    st.sampled_from([None, 5, "y", [], ["p", "q"]]))


def family_value_ok(value):
    """A family document's value is a string or a finite, non-boolean
    number; anything else is an input error, whatever the command."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        return False
    return isinstance(value, str) or math.isfinite(value)


class TestExpressionFuzz:
    """Generated system documents and `verify` expressions end in a verdict
    or an input error, fast; the calls run in-process like TestHostileFlags."""

    @seed(20240824)
    @settings(max_examples=150, deadline=None)
    @given(documents, documents,
           st.sampled_from(["plconst", "form1", "invariant", "integral",
                            "reversible", "commute"]),
           expressions, expressions, st.integers(1, 6))
    def test_documents_and_expressions(self, tmp_path_factory, doc, other,
                                       command, text, den, m):
        folder = tmp_path_factory.mktemp("fuzz")
        path = write_doc(folder, "sys.json", doc)
        if command == "plconst":
            argv = ["plconst", "--system", path, f"-m={m}"]
        else:
            argv = ["verify", command, "--system", path,
                    f"--other={write_doc(folder, 'other.json', other)}",
                    f"--curve={text}", f"--num={text}", f"--den={den}",
                    f"--line={den},{m}"]
        code, seconds = timed_exit(argv)
        assert code in (0, 1, 2)
        assert seconds < 5.0
        if isinstance(doc, dict) and "family" in doc and not all(
                family_value_ok(doc[n]) for n in "abcdefgh" if n in doc):
            assert code == 2
        bindings = doc.get("bindings") if isinstance(doc, dict) else None
        if isinstance(bindings, dict) and {"x", "y"} & set(bindings):
            assert code == 2
