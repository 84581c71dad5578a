"""Command-line front end: `qpoly` reads all caller text, and the checks the
library makes end here as input errors.

Exit codes: 0 = affirmative/success, 1 = a property fails or the verdict is
negative but valid, 2 = input error.  Output is deterministic for identical
inputs; every report is also available as JSON via --json.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .qpoly import (Poly, ParseError, QPolyError, ascii_only, parse_expr,
                    parse_rational)
from .lyapunov import PlanarSystem, pl_constants, LyapunovError
from . import quintic, structure

MAX_DISPLAY_TERMS = 20


class InputError(Exception):
    pass


def _family_value(key, value):
    """A family document's value as text: a symbol or rational string, or a
    finite JSON number (json reads 1e400 as inf, and true is an int)."""
    if not (isinstance(value, str) or type(value) is int
            or type(value) is float and math.isfinite(value)):
        raise InputError(
            f"family value {key!r} must be a string or a finite number")
    return str(value)


def parse_family(text):
    parts = text.split(",")
    if len(parts) != 8:
        raise InputError("--family needs eight comma-separated values a,...,h")
    return quintic.QuinticParams(*parts)


def load_system_document(path):
    """Read a SystemDocument JSON file into a PlanarSystem."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: document must be a JSON object")

    keys = set(doc)
    bindings = doc.get("bindings", {})
    if "family" in keys:
        allowed = {"family", "bindings", *quintic.PARAM_NAMES}
        unknown = keys - allowed
        if unknown:
            raise InputError(f"unknown keys {sorted(unknown)}")
        if doc["family"] != "quintic-uic":
            raise InputError(f"unknown family {doc['family']!r}")
        entries = [_family_value(n, doc.get(n, "0"))
                   for n in quintic.PARAM_NAMES]
        sysm = quintic.build_system(quintic.QuinticParams(*entries))
    elif {"p", "q"} <= keys:
        unknown = keys - {"p", "q", "bindings"}
        if unknown:
            raise InputError(f"unknown keys {sorted(unknown)}")
        if not (isinstance(doc["p"], str) and isinstance(doc["q"], str)):
            raise InputError(f"{path}: p and q must be expression strings")
        try:
            sysm = PlanarSystem(parse_expr(doc["p"]), parse_expr(doc["q"]))
        except ParseError as exc:
            raise InputError(f"{path}: {exc}")
    else:
        raise InputError("document needs either p and q or a family block")

    if not isinstance(bindings, dict):
        raise InputError("bindings must be an object")
    if bindings:
        for name in bindings:
            Poly.var(name)  # a symbol name, else a ValueError that names it
            if name in ("x", "y"):
                raise InputError(f"binding {name} names a state variable")
        subs = {k: parse_rational(str(v)) for k, v in bindings.items()}
        sysm = PlanarSystem(sysm.p.subs(subs), sysm.q.subs(subs))
    return sysm


def _system_from_args(args):
    if getattr(args, "system", None):
        return load_system_document(args.system)
    if getattr(args, "family", None):
        return quintic.build_system(parse_family(args.family))
    raise InputError("provide --system PATH or --family a,b,c,d,e,f,g,h")


def _truncated(poly):
    terms = poly.sorted_terms()
    if len(terms) <= MAX_DISPLAY_TERMS:
        return str(poly)
    head = Poly(dict(terms[:MAX_DISPLAY_TERMS]))
    return f"{head} + ... ({len(terms)} terms)"


def _emit(args, lines, payload):
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def fmt17(v):
    if math.isinf(v):
        return "inf"
    return f"{v:.17g}"


# ----------------------------------------------------------------------
# commands

def cmd_plconst(args):
    sysm = _system_from_args(args)
    report = pl_constants(sysm, args.m)
    lines = [f"D{i} = {d}" for i, d in enumerate(report.constants, 1)]
    _emit(args, lines, {
        "command": "plconst",
        "m": args.m,
        "constants": [str(d) for d in report.constants],
    })
    return 0


def cmd_classify(args):
    verdict = quintic.classify(parse_family(args.family))
    if verdict.kind == "center":
        line = f"CENTER case={verdict.case.tag.value}"
        code = 0
    else:  # a focus: at m = 4, R decides every point
        sign = "+" if verdict.focus_sign == "positive" else "-"
        line = f"FOCUS k={verdict.focus_index} sign={sign}"
        code = 1
    _emit(args, [line], {"command": "classify", "verdict": line,
                         "inputs": args.family})
    return code


def _required(args, flag):
    value = getattr(args, flag)
    if value is None:
        raise InputError(f"verify {args.kind} needs --{flag}")
    return value


def _verify_commute(sys1, args):
    sys2 = load_system_document(_required(args, "other"))
    b1, b2 = structure.lie_bracket(sys1, sys2)
    ok = b1.is_zero and b2.is_zero
    return ok, [f"bracket1 = {_truncated(b1)}", f"bracket2 = {_truncated(b2)}"]


def _verify_invariant(sysm, args):
    curve = parse_expr(_required(args, "curve"))
    cof = structure.cofactor_of(sysm, curve)
    if cof is None:
        return False, ["no polynomial cofactor (curve is not invariant)"]
    return True, [f"cofactor = {_truncated(cof)}"]


def _verify_integral(sysm, args):
    num = parse_expr(_required(args, "num"))
    den = parse_expr(_required(args, "den"))
    res = structure.rational_integral_residual(sysm, num, den)
    return res.is_zero, [f"residual = {_truncated(res)}"]


def _verify_reversible(sysm, args):
    parts = _required(args, "line").split(",")
    if len(parts) != 2:
        raise InputError("--line needs 'alpha,beta'")
    alpha, beta = (parse_rational(p) for p in parts)
    first, second = structure.reversibility_residual(sysm, alpha, beta)
    res = first or second  # the first nonzero component, if any
    return res.is_zero, [f"residual = {_truncated(res)}"]


def _verify_form1(sysm, args):
    res = structure.angular_speed_residual(sysm)
    return res.is_zero, [f"residual = {_truncated(res)}"]


_VERIFY = {
    "commute": _verify_commute,
    "invariant": _verify_invariant,
    "integral": _verify_integral,
    "reversible": _verify_reversible,
    "form1": _verify_form1,
}


def cmd_verify(args):
    ok, detail = _VERIFY[args.kind](_system_from_args(args), args)
    verdict = "PASS" if ok else "FAIL"
    _emit(args, [verdict, *detail],
          {"command": "verify", "kind": args.kind, "verdict": verdict,
           "detail": detail})
    return 0 if ok else 1


def _write_csv(path, header, rows):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(fmt17(v) for v in row) + "\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def cmd_orbit(args):
    # the float layer is imported only by the commands that use it
    from . import orbits

    sysm = _system_from_args(args)
    # the ray return needs this form; checked before integrating, so that an
    # orbit that escapes first is still an input error, not a verdict
    if not structure.angular_speed_residual(sysm).is_zero:
        raise InputError("system is not of the constant-angular-speed form")
    try:
        traj = orbits.integrate(sysm, args.x0, args.y0, args.t_end, args.tol)
        T, endpoint = orbits.ray_return_time(sysm, args.x0, args.y0, args.tol)
    except orbits.OrbitError as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 1
    defect = math.hypot(endpoint[0] - args.x0, endpoint[1] - args.y0)
    if args.out:
        _write_csv(args.out, ("t", "x", "y"),
                   zip(traj.t, traj.x, traj.y))
    lines = [f"ray return time = {fmt17(T)}",
             f"closure defect = {fmt17(defect)}"]
    _emit(args, lines, {"command": "orbit", "ray_return_time": T,
                        "closure_defect": defect, "out": args.out})
    return 0


def cmd_boundary(args):
    from . import orbits

    parts = args.params.split(",")
    if len(parts) != 4:
        raise InputError("--params needs 'd,e,g,h'")
    d, e, g, h = (parse_rational(p) for p in parts)
    try:
        res = orbits.boundary_curve(d, e, g, h, N=args.n)
    except orbits.InapplicableBoundaryError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    k = len(res.maximizers)
    if args.out:
        _write_csv(args.out, ("phi", "rho"), zip(res.phis, res.rhos))
    lines = [f"c0 = {fmt17(res.c0)}",
             f"maximizers = {k}",
             f"type = {res.btype}"]
    _emit(args, lines, {"command": "boundary", "c0": res.c0,
                        "maximizers": k, "type": res.btype, "out": args.out})
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="isoquintic",
        description="Exact Lyapunov constants and center certificates for "
                    "uniformly isochronous planar quintic systems.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_system_flags(p):
        p.add_argument("--system", help="SystemDocument JSON path")
        p.add_argument("--family", help="a,b,c,d,e,f,g,h (rationals or symbols)")
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("plconst", help="print Lyapunov constants")
    add_system_flags(p)
    p.add_argument("-m", type=ascii_only(int), default=4)
    p.set_defaults(run=cmd_plconst)

    p = sub.add_parser("classify", help="center/focus verdict for the family")
    p.add_argument("--family", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_classify)

    p = sub.add_parser("verify", help="check a structural identity")
    p.add_argument("kind", choices=sorted(_VERIFY))
    add_system_flags(p)
    p.add_argument("--other", help="second SystemDocument (commute)")
    p.add_argument("--curve", help="invariant curve expression")
    p.add_argument("--num", help="integral numerator expression")
    p.add_argument("--den", help="integral denominator expression")
    p.add_argument("--line", help="alpha,beta of the symmetry line")
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("orbit", help="integrate one orbit, report closure")
    add_system_flags(p)
    p.add_argument("--x0", type=ascii_only(float), required=True)
    p.add_argument("--y0", type=ascii_only(float), required=True)
    p.add_argument("--t-end", type=ascii_only(float), default=2 * math.pi)
    p.add_argument("--tol", type=ascii_only(float), default=1e-10,
                   help="rtol = atol of RK45 (default: %(default)g)")
    p.add_argument("--out", help="CSV output path")
    p.set_defaults(run=cmd_orbit)

    p = sub.add_parser("boundary", help="case (i) period-annulus boundary")
    p.add_argument("--params", required=True, help="d,e,g,h")
    p.add_argument("-N", dest="n", type=ascii_only(int), default=256)
    p.add_argument("--out", help="CSV output path")
    p.add_argument("--json", action="store_true")
    p.set_defaults(run=cmd_boundary)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.run(args)
    except (InputError, QPolyError, LyapunovError,
            quintic.QuinticError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
