"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they are produced; without -s they appear in the captured output.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from isoquintic.qpoly import Poly, parse_expr
from isoquintic.lyapunov import (PlanarSystem, pl_constants, first_nonzero,
                                 stage_constants)
from isoquintic import quintic, structure, orbits
from isoquintic.quintic import QuinticParams, CaseTag
from conftest import (case_iii_fgh, radial_factor, requires_numpy,
                      rotated_params, scaled_case_iii_system)

X = Poly.var("x")
Y = Poly.var("y")

RNG = random.Random(774412)


def report(number, title, ok):
    print(f"criterion {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({title}) failed"


def frac(lo=-9, hi=9, den=3):
    return Fraction(RNG.randint(lo, hi), RNG.randint(1, den))


def symbolic_report(m=4, _cache={}):
    if m not in _cache:
        _cache[m] = pl_constants(
            quintic.build_system(QuinticParams.symbolic()), m)
    return _cache[m]


REFERENCE = [
    "2*a + 2*c",
    "-4*a*b - 4*b*c + 3*d + f + 3*h",
    "2*(-85*a^3 + 15*a*b^2 - 67*a^2*c + 15*b^2*c + 61*a*c^2 + 43*c^3"
    " - 24*b*d - 34*a*e - 22*c*e - 12*b*f - 50*a*g - 38*c*g - 48*b*h)",
    "44600*a^3*b + 2736*a*b^3 + 84696*a^2*b*c + 2736*b^3*c + 47688*a*b*c^2"
    " + 7592*b*c^3 - 37120*a^2*d - 1782*b^2*d - 32552*a*c*d - 2704*c^2*d"
    " + 2364*a*b*e + 1284*b*c*e - 2673*d*e - 6120*a^2*f - 234*b^2*f"
    " - 3384*a*c*f + 792*c^2*f - 891*e*f + 6876*a*b*g + 5076*b*c*g"
    " - 3807*d*g - 1269*f*g + 4720*a^2*h + 1098*b^2*h + 31448*a*c*h"
    " + 19456*c^2*h - 2673*e*h - 3807*g*h",
]


def is_positive_multiple(p, q):
    """p == lam * q for a positive rational lam."""
    if p.is_zero or q.is_zero:
        return p.is_zero and q.is_zero
    _, cp = p.leading_term()
    _, cq = q.leading_term()
    lam = cp / cq
    return lam > 0 and p == lam * q


def test_criterion_1_d_constants():
    rep = symbolic_report()
    ok = True
    for got, text in zip(rep.constants, REFERENCE):
        expected = parse_expr(text)
        ok = ok and is_positive_multiple(expected, got)
    ok = ok and len(parse_expr(REFERENCE[2]).terms) == 13
    ok = ok and len(parse_expr(REFERENCE[3]).terms) == 28
    report(1, "D-constant reproduction", ok)


def satisfying_point():
    """A random rational point satisfying all four reduced relations."""
    branch = RNG.randrange(4)
    if branch == 0:
        # generic: solve the last two relations for (f, h), then d
        while True:
            b, c, e, g = frac(), frac(), frac(), frac()
            det = 3 * b ** 3 - 12 * b * c ** 2
            if det:
                break
        f = (9 * b ** 2 * c * (e + g) - 18 * b ** 2 * c * g) / det
        h = (3 * b ** 2 * c * g - 6 * c ** 3 * (e + g)) / det
        d = (-f - 3 * h) / 3
        return {"a": -c, "b": b, "c": c, "d": d, "e": e, "f": f,
                "g": g, "h": h}
    if branch == 1:
        d, e, g, h = frac(), frac(), frac(), frac()
        return {"a": 0, "b": 0, "c": 0, "d": d, "e": e,
                "f": -3 * (d + h), "g": g, "h": h}
    if branch == 2:
        return {"a": 0, "b": frac(), "c": 0, "d": 0, "e": frac(),
                "f": 0, "g": frac(), "h": 0}
    while True:
        a = frac()
        if a:
            break
    b, d, e = frac(), frac(), frac()
    f, g, h = case_iii_fgh(a, b, d, e)
    return {"a": a, "b": b, "c": -a, "d": d, "e": e, "f": f, "g": g, "h": h}


def test_criterion_2_reduced_relations():
    rep = symbolic_report()
    rels = quintic.reduced_conditions(QuinticParams.symbolic())
    ok = True

    # forward: imposing the relations kills every constant exactly
    for _ in range(500):
        pt = satisfying_point()
        ok = ok and all(r.eval_rational(pt) == 0 for r in rels)
        ok = ok and all(d.eval_rational(pt) == 0 for d in rep.raw)
        if not ok:
            break

    # converse: a violated relation leaves some constant nonzero
    count = 0
    while ok and count < 500:
        pt = {n: frac(-6, 6) for n in quintic.PARAM_NAMES}
        if all(r.eval_rational(pt) == 0 for r in rels):
            continue
        ok = any(d.eval_rational(pt) != 0 for d in rep.raw)
        count += 1

    ok = ok and necessity_identities_hold()
    report(2, "reduced-relation equivalence", ok)


def necessity_identities_hold():
    """D1 = ... = D4 = 0 exactly when R = 0, as polynomial identities.

    With sigma = {c -> -a, f -> -3d - 3h} and d_k the raw numerators of
    `stage_constants`, d_k is a combination of R_1..R_k under sigma, and
    sigma is what R_1 = R_2 = 0 impose.  With c = -a, R_2..R_4 are linear in
    (f, g, h) with determinant 18 a^3: for a != 0 the only solution is
    `case_iii_fgh` (case (iii)).  With a = c = 0, R_3 = -b (f + 6 h) and
    R_4 = 3 b^2 h: b = 0 (case (i)) or d = f = h = 0 (case (ii)).
    """
    params = QuinticParams.symbolic()
    nums = [num for num, _, _ in itertools.islice(
        stage_constants(*quintic.family_forms(params)), 4)]
    r = quintic.reduced_conditions(params)
    a, b, d, f, h = (Poly.var(n) for n in "abdfh")
    c_only, sigma = {"c": -a}, {"c": -a, "f": -3 * d - 3 * h}
    ok = nums[0] == 192 * r[0]
    ok = ok and nums[1].subs(c_only) == 8640 * r[1]
    ok = ok and nums[2].subs(sigma) == 38707200 * r[2].subs(sigma)
    ok = ok and (nums[3].subs(sigma) == 24385536000 * r[3].subs(sigma)
                 - 36578304000 * b * r[2].subs(sigma))

    m = [[rk.subs(c_only).coefficient(v, 1) for v in "fgh"] for rk in r[1:]]
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    ok = ok and det == 18 * a ** 3

    at_a0 = [rk.subs({"a": 0, "c": 0}) for rk in r]
    ok = ok and at_a0 == [Poly.zero(), 3 * d + f + 3 * h,
                          -b * (f + 6 * h), 3 * b ** 2 * h]
    return ok


def test_criterion_3_center_certificates():
    rep = symbolic_report()
    ok = all(quintic.vanishes_under_case(d, tag)
             for tag in CaseTag for d in rep.raw)
    report(3, "theorem center certificates", ok)


def test_criterion_4_commuting_partners():
    a = Poly.var("a")
    d = Poly.var("d")
    h = Poly.var("h")
    configs = [
        (QuinticParams(0, 0, 0, "d", "e", -3 * (d + h), "g", "h"),
         CaseTag.CASE_I),
        (QuinticParams(0, "b", 0, 0, "e", 0, "g", 0), CaseTag.CASE_II),
        (QuinticParams("a", "b", -a, 0, 0, 0, 0, 0), CaseTag.CASE_III),
    ]
    ok = True
    for params, tag in configs:
        sysm = quintic.build_system(params)
        other = quintic.commuting_partner(params, quintic.CenterCase(tag))
        b1, b2 = structure.lie_bracket(sysm, other)
        ok = ok and b1.is_zero and b2.is_zero
    report(4, "commuting partners", ok)


def test_criterion_5_darboux_certificates():
    e, g = Poly.var("e"), Poly.var("g")
    sysm = quintic.build_system(QuinticParams(0, 1, 0, 0, "e", 0, "g", 0))
    u = e * X ** 2 + g * Y ** 2
    c1 = X ** 2 + Y ** 2
    c2 = (e - g) + u + u ** 2
    l1 = 2 * X * Y * (1 + u)
    l2 = 2 * X * Y * (1 + 2 * u)
    l3 = 2 * X * Y

    ok = structure.cofactor_of(sysm, c1) == l1
    ok = ok and structure.cofactor_of(sysm, c2) == l2
    ok = ok and structure.directional_derivative(sysm, u) == l3 * c2
    ok = ok and (2 * l1 - l2 - l3).is_zero

    # e = g variant, with the 1/e weight cleared: e(2 L1 - L2) + L3 = 0
    ue = e * (X ** 2 + Y ** 2)
    l1e = 2 * X * Y * (1 + ue)
    l2e = 2 * X * Y * (1 + 2 * ue)
    l3e = -2 * e * X * Y
    ok = ok and (e * (2 * l1e - l2e) + l3e).is_zero

    # full candidates certify
    ok = ok and structure.verify_darboux_integral(
        sysm, structure.darboux_candidate(e, g)).certified
    sys_eq = quintic.build_system(QuinticParams.numeric(0, 1, 0, 0, 2, 0, 2, 0))
    ok = ok and structure.verify_darboux_integral(
        sys_eq, structure.darboux_candidate_equal(Fraction(2))).certified

    # cleared dH/dt for the quartic rational integral
    d, h = Poly.var("d"), Poly.var("h")
    params_i = QuinticParams(0, 0, 0, "d", "e", -3 * (d + h), "g", "h")
    sys_i = quintic.build_system(params_i)
    den_i = (1 + Poly.var("e") * X ** 4 - 4 * d * X ** 3 * Y
             + 4 * h * X * Y ** 3 - Poly.var("g") * Y ** 4)
    ok = ok and structure.rational_integral_residual(
        sys_i, (X ** 2 + Y ** 2) ** 2, den_i).is_zero

    # and for the cubic subfamily integral
    a, b = Poly.var("a"), Poly.var("b")
    sys_c = quintic.build_system(QuinticParams("a", "b", -a, 0, 0, 0, 0, 0))
    ok = ok and structure.rational_integral_residual(
        sys_c, X ** 2 + Y ** 2, 1 + b * X ** 2 - 2 * a * X * Y).is_zero
    report(5, "Darboux certificates", ok)


def test_criterion_6_integrating_factors():
    d, h = Poly.var("d"), Poly.var("h")
    params_i = QuinticParams(0, 0, 0, "d", "e", -3 * (d + h), "g", "h")
    sys_i = quintic.build_system(params_i)
    part_i = quintic.commuting_partner(params_i,
                                       quintic.CenterCase(CaseTag.CASE_I))
    mu_i = structure.integrating_factor_from_pair(sys_i, part_i)
    q4 = parse_expr("e*x^4 - 4*d*x^3*y + 4*h*x*y^3 - g*y^4")
    ok = mu_i.den == (X ** 2 + Y ** 2) * (1 + q4)

    params_ii = QuinticParams(0, "b", 0, 0, "e", 0, "g", 0)
    sys_ii = quintic.build_system(params_ii)
    part_ii = quintic.commuting_partner(params_ii,
                                        quintic.CenterCase(CaseTag.CASE_II))
    mu_ii = structure.integrating_factor_from_pair(sys_ii, part_ii)
    e, g, b = Poly.var("e"), Poly.var("g"), Poly.var("b")
    u = e * X ** 2 + g * Y ** 2
    ok = ok and mu_ii.den == (X ** 2 + Y ** 2) * ((e - g) + u * (b + u))
    report(6, "integrating factors", ok)


@requires_numpy
def test_criterion_7_reversibility():
    sys_ii = quintic.build_system(QuinticParams(0, "b", 0, 0, "e", 0, "g", 0))
    ok = all(r.is_zero for line in ((0, 1), (1, 0))
             for r in structure.reversibility_residual(sys_ii, *line))

    constraint = (Poly.var("a") * Poly.var("s") ** 2
                  - Poly.var("b") * Poly.var("s") - Poly.var("a"))
    verdict = structure.reversible_modulo_constraint(scaled_case_iii_system(),
                                                     constraint)
    ok = ok and verdict.reversible

    # numeric equivariance of the reflection matrices at random points
    worst = 0.0
    for _ in range(10):
        while True:
            a = frac(-3, 3)
            if a:
                break
        b, d, e = frac(-3, 3), frac(-3, 3), frac(-3, 3)
        f, g, h = case_iii_fgh(a, b, d, e)
        field = orbits.compile_rhs(
            quintic.build_system(QuinticParams(a, b, -a, d, e, f, g, h)))
        af, bf = float(a), float(b)
        nrm = 1.0 / math.sqrt(4 * af * af + bf * bf)
        for sign in (1.0, -1.0):
            s11, s12 = sign * nrm * -bf, sign * nrm * 2 * af
            s21, s22 = sign * nrm * 2 * af, sign * nrm * bf
            for _ in range(50):
                x = RNG.uniform(-1, 1)
                y = RNG.uniform(-1, 1)
                px, py = field(0.0, (x, y))
                rx, ry = s11 * x + s12 * y, s21 * x + s22 * y
                qx, qy = field(0.0, (rx, ry))
                worst = max(worst,
                            abs(s11 * px + s12 * py + qx),
                            abs(s21 * px + s22 * py + qy))
    ok = ok and worst < 1e-9
    report(7, "reversibility", ok)


def center_draw(tag):
    if tag is CaseTag.CASE_I:
        while True:
            d, e, g, h = (frac(-3, 3) for _ in range(4))
            f = -3 * (d + h)
            if abs(f) <= 3:
                return QuinticParams(0, 0, 0, d, e, f, g, h)
    if tag is CaseTag.CASE_II:
        b, e, g = (frac(-3, 3) for _ in range(3))
        return QuinticParams(0, b, 0, 0, e, 0, g, 0)
    while True:
        a = frac(-3, 3)
        if not a:
            continue
        b, d, e = (frac(-3, 3) for _ in range(3))
        f, g, h = case_iii_fgh(a, b, d, e)
        if max(abs(f), abs(g), abs(h)) <= 3:
            return QuinticParams(a, b, -a, d, e, f, g, h)


@requires_numpy
def test_criterion_8_isochronicity():
    ok = True
    for tag in CaseTag:
        for _ in range(30):
            params = center_draw(tag)
            sysm = quintic.build_system(params)
            for r in (0.1, 0.25, 0.4):
                T, (xe, ye) = orbits.ray_return_time(sysm, r, 0.0)
                defect = math.hypot(xe - r, ye)
                ok = ok and abs(T - 2 * math.pi) < 1e-7 and defect < 1e-6
            if not ok:
                break

    rep = symbolic_report()
    draws = 0
    while ok and draws < 30:
        if draws < 25:
            pt = {n: frac(-1, 1, 2) for n in quintic.PARAM_NAMES}
            if abs(pt["a"] + pt["c"]) < Fraction(1, 2):
                continue
        else:
            # first constant tuned to zero, second nonzero
            pt = {n: Fraction(0) for n in quintic.PARAM_NAMES}
            pt["a"] = frac(-1, 1, 2)
            pt["c"] = -pt["a"]
            while 3 * pt["d"] + pt["f"] + 3 * pt["h"] == 0:
                pt["d"], pt["f"], pt["h"] = (frac(-1, 1, 2) for _ in range(3))
        hit = first_nonzero(rep, pt)
        if hit is None:
            continue
        params = QuinticParams(**pt)
        sysm = quintic.build_system(params)
        _, (xe, ye) = orbits.ray_return_time(sysm, 0.1, 0.0)
        growth = math.hypot(xe, ye) - 0.1
        if abs(growth) < 1e-9:
            continue  # drift below solver noise, draw again
        want_positive = hit[1] == "positive"
        ok = (growth > 0) == want_positive
        draws += 1
    report(8, "isochronicity at desk scale", ok)


def test_criterion_9_rotation():
    ok = True
    for _ in range(100):
        while True:
            a = frac(-3, 3)
            if a:
                break
        b, d, e = (frac(-3, 3) for _ in range(3))
        f, g, h = case_iii_fgh(a, b, d, e)
        params = QuinticParams(a, b, -a, d, e, f, g, h)
        form = quintic.rotate_to_canonical(params)
        ok = ok and radial_factor(params) == form.ell * (form.beta + form.u)
        ok = ok and form.shift == (b * d - a * e) / (2 * a ** 3)
        rep = pl_constants(quintic.build_system(rotated_params(params)), 4)
        ok = ok and all(abs(float(dc.constant_value())) < 1e-6
                        for dc in rep.raw)
        if not ok:
            break
    report(9, "rotation to canonical form", ok)


def test_criterion_10_b_type():
    ok = True
    for e, g in ((1, 2), (2, 1), (-1, -1), (0, 3), (1, -1), (-2, 1)):
        params = QuinticParams.numeric(0, 1, 0, 0, e, 0, g, 0)
        verdict = orbits.center_type(params, quintic.theorem_case(params))
        want = "B2" if e * g >= 0 else "B4"
        ok = ok and verdict.tag == want and verdict.evidence == "eg-rule"

    p_b2 = QuinticParams.numeric(0, 0, 0, 0, 1, 0, 1, 0)
    v_b2 = orbits.center_type(p_b2, quintic.theorem_case(p_b2))
    ok = ok and (v_b2.tag, v_b2.evidence) == ("B2", "maximizers(2)")

    p_b4 = QuinticParams.numeric(0, 0, 0, 0, 1, 0, -1, 0)
    v_b4 = orbits.center_type(p_b4, quintic.theorem_case(p_b4))
    ok = ok and (v_b4.tag, v_b4.evidence) == ("B4", "maximizers(4)")

    try:
        orbits.boundary_curve(0, -1, 1, 0)
        ok = False
    except orbits.InapplicableBoundaryError:
        pass
    p_bad = QuinticParams.numeric(0, 0, 0, 0, -1, 0, 1, 0)
    v_bad = orbits.center_type(p_bad, quintic.theorem_case(p_bad))
    ok = ok and v_bad.tag == "Unknown" \
        and v_bad.evidence.startswith("inapplicable")
    report(10, "B-type rule", ok)


@requires_numpy
def test_criterion_11_core_properties():
    from isoquintic.qpoly import solve_linear_exact, SingularMatrixError
    from conftest import random_poly

    rnd = random.Random(991100)
    ok = True

    # ring laws on random polynomials
    for _ in range(50):
        p = random_poly(rnd)
        q = random_poly(rnd)
        r = random_poly(rnd)
        ok = ok and (p + q) + r == p + (q + r)
        ok = ok and p * (q + r) == p * q + p * r
        ok = ok and p * q == q * p

    # parser round trip
    for _ in range(200):
        p = random_poly(rnd, vars=("x", "y", "a", "b", "c"), max_terms=6)
        ok = ok and parse_expr(str(p)) == p

    # exact solver residual
    solved = 0
    while solved < 25:
        n = rnd.randint(1, 4)
        m = [[Fraction(rnd.randint(-5, 5)) for _ in range(n)]
             for _ in range(n)]
        rhs = [random_poly(rnd, vars=("a", "b")) for _ in range(n)]
        try:
            sol = solve_linear_exact(m, rhs)
        except SingularMatrixError:
            continue
        for i in range(n):
            acc = Poly.zero()
            for j in range(n):
                acc = acc + m[i][j] * sol[j]
            ok = ok and acc == rhs[i]
        solved += 1

    # the integrator's error is proportional to its tolerance, over one turn
    # of the rotation; above 1e-8 MAX_STEP, not tol, bounds the error
    rot = PlanarSystem(Y, -X)

    def endpoint_error(tol):
        xe, ye = orbits.integrate(rot, 1.0, 0.0, 2 * math.pi, tol).endpoint()
        return math.hypot(xe - 1.0, ye)

    errors = [endpoint_error(tol) for tol in (1e-9, 1e-10, 1e-11)]
    ok = ok and all(8.0 < big / small < 12.5
                    for big, small in zip(errors, errors[1:]))
    ok = ok and errors[0] < 5e-9
    report(11, "core property suites", ok)
