"""Acceptance gate: one test per criterion, one printed verdict line each,
and `test_theorem`, the paper's center theorem for every parameter value.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they are produced; without -s they appear in the captured output.
"""

import itertools
import math
import random
from fractions import Fraction

from isoquintic.qpoly import Poly, parse_expr
from isoquintic.lyapunov import pl_constants, first_nonzero, stage_constants
from isoquintic import quintic, structure, orbits
from isoquintic.quintic import QuinticParams, CaseTag
from conftest import (CASE_I_BTYPES, CASE_I_Q, CASE_I_SYMBOLIC, CASE_II_Q,
                      CASE_II_SYMBOLIC, CASE_II_U, ROT, X, Y, b_type,
                      case_i_point, case_iii_point, case_iii_symbolic,
                      composes, eg_rule, quartic_mean_is_r2_over_8,
                      radial_factor, requires_numpy, rotate,
                      scaled_case_iii_system, turn)

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


def test_criterion_2_reduced_relations():
    report(2, "reduced-relation equivalence", necessity_identities_hold())


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


# The three center components, symbolic, each with the strata on which its
# partner factor or its integral takes another form (`_partner_factor`,
# `structure.form_candidate`): b = 0 (case (i) as well), u = 0, shift = 0.
COMPONENTS = [
    ("(i)", CaseTag.CASE_I, CASE_I_SYMBOLIC),
    ("(ii)", CaseTag.CASE_II, CASE_II_SYMBOLIC),
    ("(ii) b = 0", CaseTag.CASE_II, QuinticParams(0, 0, 0, 0, "e", 0, "g", 0)),
    ("(ii) e = g", CaseTag.CASE_II,
     QuinticParams(0, "b", 0, 0, "e", 0, "e", 0)),
    ("(ii) e = g = 0", CaseTag.CASE_II,
     QuinticParams(0, "b", 0, 0, 0, 0, 0, 0)),
    ("(iii)", CaseTag.CASE_III, case_iii_symbolic()),
    ("(iii) u = v = 0", CaseTag.CASE_III, case_iii_symbolic(u=0, v=0)),
    ("(iii) u = a t, v = b t", CaseTag.CASE_III,
     case_iii_symbolic(u=Poly.var("a") * Poly.var("t"),
                       v=Poly.var("b") * Poly.var("t"))),
]


def partners_commute():
    """Does every entry of COMPONENTS commute with its `commuting_partner`?"""
    return all(structure.commutes(
        quintic.build_system(params),
        quintic.commuting_partner(params, quintic.CenterCase(tag)))
        for _, tag, params in COMPONENTS)


def test_criterion_4_commuting_partners():
    other = quintic.commuting_partner(CASE_I_SYMBOLIC,
                                      quintic.CenterCase(CaseTag.CASE_I))
    report(4, "commuting partners",
           partners_commute() and other.p == X * CASE_I_Q)


def test_theorem():
    """The origin of the family is a center iff R_1 = ... = R_4 = 0, iff
    (a..h) lies on component (i), (ii) or (iii); checked exactly, for every
    parameter value, on the symbolic COMPONENTS.

    - Necessity (criterion 2): D_1..D_4 are combinations of R_1..R_4, so a
      center has R = 0.  With c = -a, R_2..R_4 are linear in (f, g, h) with
      determinant 18 a^3, and at a = c = 0 they force b = 0 (case (i)) or
      d = f = h = 0 (case (ii)).
    - The decomposition: every R_k vanishes on every component, so R = 0
      is their union; for a != 0 the unique solution is case (iii).
    - Sufficiency: on every entry a first integral certifies and a
      transversal commuting system brackets to zero, and the commuting
      system alone makes the origin a center (Sabatini, Differential
      Equations Dynam. Systems 5, 1997).
    - A second proof, by composition (Alwash & Lloyd 1987): in polar form
      dr/dtheta = -r (r^2 P2 + r^4 P4) on the unit circle, and each case
      makes the right side a function of r and one periodic W(theta), so
      every orbit closes (the README's "Composition centers").  In cases
      (ii) and (iii), with ell = A x^2 + B x y - A y^2, W = A x y -
      (B/4)(x^2 - y^2) has y W_x - x W_y = -ell, so dW/dtheta = ell on the
      circle, and u + 2 shift W is a multiple of x^2 + y^2, so u is affine
      in W there.  In case (i), P2 = 0 and dr/dtheta = -r^5 P4 closes iff
      P4 has mean zero on the circle: a quartic form is c (x^2 + y^2)^2 +
      (x^2 + y^2) H2 + H4 with H2, H4 harmonic, so its mean c is its
      bilaplacian over 64, which for P4 is R_2 / 8.
    """
    assert necessity_identities_hold()
    rels = quintic.reduced_conditions(QuinticParams.symbolic())
    assert all(quintic.vanishes_under_case(r, tag)
               for r in rels for tag in CaseTag)

    assert partners_commute()
    for label, tag, params in COMPONENTS:
        # raises QuinticError unless the integral certifies
        quintic.first_integral(params, quintic.CenterCase(tag))
        assert tag is CaseTag.CASE_I or composes(params), label
    assert quartic_mean_is_r2_over_8()


def test_criterion_5_darboux_certificates():
    e, g = Poly.var("e"), Poly.var("g")
    sysm = quintic.build_system(QuinticParams(0, 1, 0, 0, "e", 0, "g", 0))
    u = CASE_II_U
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
    ok = ok and structure.rational_integral_residual(
        quintic.build_system(CASE_I_SYMBOLIC), (X ** 2 + Y ** 2) ** 2,
        CASE_I_Q).is_zero

    # and for the cubic subfamily integral
    a, b = Poly.var("a"), Poly.var("b")
    sys_c = quintic.build_system(QuinticParams("a", "b", -a, 0, 0, 0, 0, 0))
    ok = ok and structure.rational_integral_residual(
        sys_c, X ** 2 + Y ** 2, 1 + b * X ** 2 - 2 * a * X * Y).is_zero
    report(5, "Darboux certificates", ok)


def test_criterion_6_integrating_factors():
    ok = True
    for params, tag, q in ((CASE_I_SYMBOLIC, CaseTag.CASE_I, CASE_I_Q),
                           (CASE_II_SYMBOLIC, CaseTag.CASE_II, CASE_II_Q)):
        partner = quintic.commuting_partner(params, quintic.CenterCase(tag))
        mu = structure.integrating_factor_from_pair(
            quintic.build_system(params), partner)
        ok = ok and mu.den == (X ** 2 + Y ** 2) * q
    report(6, "integrating factors", ok)


def test_criterion_7_reversibility():
    sys_ii = quintic.build_system(CASE_II_SYMBOLIC)
    ok = all(r.is_zero for line in ((0, 1), (1, 0))
             for r in structure.reversibility_residual(sys_ii, *line))

    constraint = (Poly.var("a") * Poly.var("s") ** 2
                  - Poly.var("b") * Poly.var("s") - Poly.var("a"))
    verdict = structure.reversible_modulo_constraint(scaled_case_iii_system(),
                                                     constraint)
    ok = ok and verdict.reversible

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
        params = case_iii_point(a, *(frac(-3, 3) for _ in range(3)))
        if max(abs(params.f), abs(params.g), abs(params.h)) <= 3:
            return params


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
        params = case_iii_point(a, b, d, e)
        form = quintic.rotate_to_canonical(params)
        ok = ok and radial_factor(params) == form.ell * (form.beta + form.u)
        ok = ok and form.shift == (b * d - a * e) / (2 * a ** 3)
        rep = pl_constants(quintic.build_system(rotate(params, turn(RNG))), 4)
        ok = ok and all(dc.is_zero for dc in rep.raw)
        if not ok:
            break
    report(9, "rotation to canonical form", ok)


def test_criterion_10_b_type():
    ok = True
    for e, g in ((1, 2), (2, 1), (-1, -1), (0, 3), (1, -1), (-2, 1)):
        v = b_type(QuinticParams.numeric(0, 1, 0, 0, e, 0, g, 0))
        ok = ok and (v.tag, v.evidence) == (eg_rule(e, g), "eg-rule")

    for tag, (quartic, evidence) in CASE_I_BTYPES.items():
        v = b_type(case_i_point(*quartic))
        ok = ok and v.tag == tag and v.evidence.startswith(evidence)
        try:
            ok = ok and orbits.boundary_curve(*quartic).btype == tag
        except orbits.InapplicableBoundaryError:
            ok = ok and tag == "Unknown"
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
    def endpoint_error(tol):
        xe, ye = orbits.integrate(ROT, 1.0, 0.0, 2 * math.pi, tol).endpoint()
        return math.hypot(xe - 1.0, ye)

    errors = [endpoint_error(tol) for tol in (1e-9, 1e-10, 1e-11)]
    ok = ok and all(8.0 < big / small < 12.5
                    for big, small in zip(errors, errors[1:]))
    ok = ok and errors[0] < 5e-9
    report(11, "core property suites", ok)
