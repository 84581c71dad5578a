import math
from fractions import Fraction

import pytest

from isoquintic.qpoly import Poly, as_poly, parse_expr
from isoquintic import quintic, structure
from isoquintic.quintic import (
    QuinticParams, QuinticError, NoSymbolicPartner, CaseTag,
    build_system, radial_factor, reduced_conditions, case_iii_fgh,
    theorem_case, classify, case_substitution, vanishes_under_case,
    commuting_partner, first_integral, normalize_b, rotate_to_canonical,
)
from isoquintic.lyapunov import pl_constants

X = Poly.var("x")
Y = Poly.var("y")


def numeric(**kw):
    full = {n: Fraction(0) for n in quintic.PARAM_NAMES}
    full.update({k: Fraction(v) for k, v in kw.items()})
    return QuinticParams(**full)


class TestBuild:
    def test_symbolic_components(self):
        sysm = build_system(QuinticParams.symbolic())
        P = radial_factor(QuinticParams.symbolic())
        assert sysm.p == Y + X * P
        assert sysm.q == -X + Y * P
        assert P == parse_expr(
            "a*x^2 + b*x*y + c*y^2 + d*x^4 + e*x^3*y + f*x^2*y^2"
            " + g*x*y^3 + h*y^4")

    def test_numeric(self):
        sysm = build_system(numeric(b=1))
        assert sysm.p == Y + X ** 2 * Y
        assert sysm.q == -X + X * Y ** 2

    def test_angular_speed_is_uniform(self):
        sysm = build_system(QuinticParams.symbolic())
        assert (X * sysm.q - Y * sysm.p + X ** 2 + Y ** 2).is_zero


class TestReducedConditions:
    def test_symbolic_forms(self):
        rels = reduced_conditions(QuinticParams.symbolic())
        assert [str(r) for r in rels] == [
            "a + c",
            "3*d + f + 3*h",
            "-b*f - 6*b*h + 3*c*e + 3*c*g",
            "3*b^2*h - 3*b*c*g + 2*c^2*f",
        ]

    def test_values_at_a1(self):
        rels = reduced_conditions(numeric(a=1))
        assert [r.constant_value() for r in rels] == [1, 0, 0, 0]

    def test_equivalent_to_constants(self, rng):
        """On random rational points the four relations vanish exactly when
        the first four Lyapunov constants do."""
        rep = pl_constants(build_system(QuinticParams.symbolic()), 4)
        rels = reduced_conditions(QuinticParams.symbolic())
        for _ in range(60):
            pt = {n: Fraction(rng.randint(-4, 4), rng.randint(1, 2))
                  for n in quintic.PARAM_NAMES}
            rel_zero = all(r.eval_rational(pt) == 0 for r in rels)
            d_zero = all(d.eval_rational(pt) == 0 for d in rep.raw)
            assert rel_zero == d_zero


class TestCaseIII:
    def test_hand_example(self):
        assert case_iii_fgh(1, 2, 1, 1) == (Fraction(-3), Fraction(1),
                                            Fraction(0))

    def test_requires_nonzero_a(self):
        with pytest.raises(QuinticError):
            case_iii_fgh(0, 1, 1, 1)

    def test_satisfies_relations(self, rng):
        for _ in range(50):
            a = Fraction(rng.choice([v for v in range(-5, 6) if v]))
            b, d, e = (Fraction(rng.randint(-5, 5)) for _ in range(3))
            f, g, h = case_iii_fgh(a, b, d, e)
            pt = {"a": a, "b": b, "c": -a, "d": d, "e": e,
                  "f": f, "g": g, "h": h}
            rels = reduced_conditions(QuinticParams.symbolic())
            assert all(r.eval_rational(pt) == 0 for r in rels)


class TestTheoremCase:
    def test_case_i(self):
        case = theorem_case(numeric(d=1, e=5, f=-3, g=7))
        assert case.tag is CaseTag.CASE_I

    def test_case_ii(self):
        case = theorem_case(numeric(b=1, e=2, g=3))
        assert case.tag is CaseTag.CASE_II

    def test_case_iii(self):
        case = theorem_case(numeric(a=1, c=-1))
        assert case.tag is CaseTag.CASE_III
        assert case.witness == (0, 0, 0)

    def test_case_iii_with_quartic(self):
        f, g, h = case_iii_fgh(1, 2, 1, 1)
        case = theorem_case(numeric(a=1, b=2, c=-1, d=1, e=1, f=f, g=g, h=h))
        assert case.tag is CaseTag.CASE_III

    def test_zero_quartic_overlap_prefers_case_i(self):
        # a = b = c = 0 with vanishing quartic satisfies both (i) and (ii)
        assert theorem_case(numeric()).tag is CaseTag.CASE_I

    def test_none_for_focus(self):
        assert theorem_case(numeric(a=1)) is None
        assert theorem_case(numeric(a=1, b=2, c=-1, d=1)) is None


class TestClassify:
    def test_center(self):
        res = classify(numeric(b=1, e=2, g=3))
        assert res.kind == "center"
        assert res.case.tag is CaseTag.CASE_II

    def test_focus_first_constant(self):
        res = classify(numeric(a=1))
        assert res.kind == "focus"
        assert (res.focus_index, res.focus_sign) == (1, "positive")

    def test_focus_second_constant(self):
        res = classify(numeric(d=1))
        assert res.kind == "focus"
        assert (res.focus_index, res.focus_sign) == (2, "positive")

    def test_focus_negative(self):
        res = classify(numeric(a=-1))
        assert (res.focus_index, res.focus_sign) == (1, "negative")


class TestCaseSubstitution:
    @pytest.mark.parametrize("tag", list(CaseTag))
    def test_constants_vanish(self, tag):
        rep = pl_constants(build_system(QuinticParams.symbolic()), 4)
        for d in rep.raw:
            assert vanishes_under_case(d, tag)

    def test_nonmember_survives(self):
        assert not vanishes_under_case(Poly.var("d"), CaseTag.CASE_III)
        assert not vanishes_under_case(Poly.var("d"), CaseTag.CASE_I)
        assert not vanishes_under_case(Poly.var("b"), CaseTag.CASE_II)

    def test_case_iii_matches_numeric_formula(self, rng):
        sub = case_substitution(CaseTag.CASE_III)
        for _ in range(20):
            a = Fraction(rng.choice([v for v in range(-4, 5) if v]))
            b, d, e = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            f, g, h = case_iii_fgh(a, b, d, e)
            pt = {"a": a, "b": b, "d": d, "e": e, "ainv": 1 / a}
            for name, expect in (("f", f), ("g", g), ("h", h)):
                got = as_poly(sub[name]).eval_rational(pt)
                assert got == expect


class TestCommutingPartner:
    def test_case_i_symbolic(self):
        sub = case_substitution(CaseTag.CASE_I)
        params = QuinticParams(0, 0, 0, "d", "e", sub["f"], "g", "h")
        sysm = build_system(params)
        other = commuting_partner(params, theorem_case_like(CaseTag.CASE_I))
        assert structure.commutes(sysm, other)
        # the expected transversal factor
        q4 = parse_expr("e*x^4 - 4*d*x^3*y + 4*h*x*y^3 - g*y^4")
        assert other.p == X * (1 + q4)

    def test_case_ii_symbolic(self):
        params = QuinticParams(0, "b", 0, 0, "e", 0, "g", 0)
        sysm = build_system(params)
        other = commuting_partner(params, theorem_case_like(CaseTag.CASE_II))
        assert structure.commutes(sysm, other)

    def test_case_iii_cubic(self):
        params = numeric(a=1, b=3, c=-1)
        sysm = build_system(params)
        other = commuting_partner(params, theorem_case(params))
        assert structure.commutes(sysm, other)
        assert other.p == X + X * (3 * X ** 2 - 2 * X * Y)

    def test_case_iii_quartic_has_none(self):
        f, g, h = case_iii_fgh(1, 0, 1, 0)
        params = numeric(a=1, c=-1, d=1, f=f, g=g, h=h)
        with pytest.raises(NoSymbolicPartner):
            commuting_partner(params, theorem_case(params))


def theorem_case_like(tag):
    return quintic.CenterCase(tag)


def orbit_sample_pairs(sysm, x0, y0, n=4):
    """A few points along a short numeric orbit, for level-set checks."""
    from isoquintic.orbits import integrate
    traj = integrate(sysm, x0, y0, 1.5)
    idx = [len(traj.t) * k // n for k in range(1, n)]
    return [(traj.x[i], traj.y[i]) for i in idx]


class TestFirstIntegral:
    def test_case_iii_cubic_rational(self):
        params = numeric(a=1, c=-1)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "rational"
        rf = spec.payload
        assert rf.num == X ** 2 + Y ** 2
        assert rf.den == 1 - 2 * X * Y

    def test_case_i_rational(self):
        params = numeric(d=1, e=2, f=-3, g=1)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "rational"
        assert spec.payload.den == 1 + 2 * X ** 4 - 4 * X ** 3 * Y - Y ** 4

    def test_case_ii_b0_rational(self):
        params = numeric(e=1, g=-1)
        spec = first_integral(params, quintic.CenterCase(CaseTag.CASE_II))
        assert spec.kind == "rational"
        assert spec.payload.den == 1 + X ** 4 + Y ** 4

    def test_case_ii_generic_exponential(self):
        params = numeric(b=1, e=1, g=-1)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        val = spec.eval_float(0.3, 0.1)
        assert math.isfinite(val) and val > 0

    def test_case_ii_equal_eg(self):
        params = numeric(b=1, e=2, g=2)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        assert spec.payload.equal_variant

    def test_case_ii_rescaled(self):
        params = numeric(b=4, e=16, g=-16)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        assert spec.payload.e == 1 and spec.payload.g == -1

    def test_case_iii_quartic_numeric_only(self):
        f, g, h = case_iii_fgh(1, 0, 1, 0)
        params = numeric(a=1, c=-1, d=1, f=f, g=g, h=h)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "numeric-only"
        assert spec.payload.residual < 1e-9
        with pytest.raises(QuinticError):
            spec.eval_float(0.1, 0.1)

    @pytest.mark.parametrize("kw", [
        dict(a=1, c=-1),
        dict(d=1, e=2, f=-3, g=1),
        dict(b=1, e=1, g=-1),
        dict(b=1, e=2, g=2),
    ])
    def test_constant_along_orbits(self, kw):
        params = numeric(**kw)
        case = theorem_case(params)
        spec = first_integral(params, case)
        sysm = build_system(params)
        base = spec.eval_float(0.3, 0.05)
        for x, y in orbit_sample_pairs(sysm, 0.3, 0.05):
            assert abs(spec.eval_float(x, y) - base) < 1e-6 * abs(base)


class TestNormalizeB:
    def test_positive_exact(self):
        new, sc = normalize_b(numeric(b=4, e=16, g=0))
        v = new.fractions()
        assert (v["b"], v["e"], v["g"]) == (1, 1, 0)
        assert sc.scale == 2 and sc.exact
        assert not sc.swapped and not sc.time_reversed

    def test_identity(self):
        params = numeric(b=1, e=2, g=3)
        new, sc = normalize_b(params)
        assert new == params
        assert sc.scale == 1 and sc.exact

    def test_negative_swaps(self):
        new, sc = normalize_b(numeric(b=-1, e=2, g=5))
        v = new.fractions()
        assert (v["b"], v["e"], v["g"]) == (1, -5, -2)
        assert sc.swapped and sc.time_reversed

    def test_inexact_root(self):
        _, sc = normalize_b(numeric(b=2))
        assert not sc.exact
        assert abs(sc.scale - math.sqrt(2)) < 1e-15

    def test_zero_rejected(self):
        with pytest.raises(QuinticError):
            normalize_b(numeric(b=0, e=1))

    @pytest.mark.parametrize("kw", [dict(b=4, e=16, g=-8),
                                    dict(b=-9, e=3, g=27)])
    def test_pushforward_identity(self, kw):
        """The normalized field really is the original one in the rescaled
        (and possibly swapped, time-reversed) coordinates."""
        params = numeric(**kw)
        new, sc = normalize_b(params)
        orig = build_system(params)
        norm = build_system(new)
        s = float(sc.scale)
        for u, v in ((0.3, 0.7), (-0.5, 0.2), (1.1, -0.4)):
            fu, fv = norm.eval_float(u, v)
            if not sc.swapped:
                p0, q0 = orig.eval_float(u / s, v / s)
                assert abs(fu - s * p0) < 1e-12
                assert abs(fv - s * q0) < 1e-12
            else:
                p0, q0 = orig.eval_float(v / s, u / s)
                assert abs(fu + s * q0) < 1e-12
                assert abs(fv + s * p0) < 1e-12


class TestRotation:
    def test_pure_quadratic(self):
        rot = rotate_to_canonical(numeric(a=1, c=-1))
        assert abs(rot.phi - math.pi / 4) < 1e-15
        assert abs(rot.b1 - 2.0) < 1e-12
        assert rot.residual < 1e-12

    def test_requires_nonzero_a(self):
        with pytest.raises(QuinticError):
            rotate_to_canonical(numeric(b=1))

    def test_random_case_iii_residuals(self, rng):
        for _ in range(30):
            a = Fraction(rng.choice([v for v in range(-4, 5) if v]))
            b, d, e = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            f, g, h = case_iii_fgh(a, b, d, e)
            params = QuinticParams(a, b, -a, d, e, f, g, h)
            rot = rotate_to_canonical(params)
            assert rot.residual < 1e-9
