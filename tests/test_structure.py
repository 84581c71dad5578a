import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from isoquintic.qpoly import (Poly, RationalFunction, UnboundVariableError,
                              as_poly, parse_expr)
from isoquintic.lyapunov import PlanarSystem
from isoquintic import quintic, structure
from isoquintic.structure import (
    StructureError, NotCommutingError, DegeneratePairError, DomainError,
    lie_bracket, commutes, cofactor_of, directional_derivative,
    integrating_factor_from_pair, rational_integral_residual,
    AlgebraicInvariant, DarbouxCandidate, verify_darboux_integral,
    darboux_candidate, darboux_candidate_equal,
    reversibility_residual, reversible_modulo_constraint,
    _pseudo_rem_quadratic, angular_speed_residual, c3_exponent,
)
from conftest import (case_iii_fgh, polys, radial_factor, random_poly,
                      scaled_case_iii_system)

X = Poly.var("x")
Y = Poly.var("y")
ROT = PlanarSystem(Y, -X)


class TestBracket:
    def test_rotation_with_horizontal_shear(self):
        b1, b2 = lie_bracket(ROT, PlanarSystem(X ** 2, Poly.zero()))
        assert b1 == 2 * X * Y
        assert b2 == X ** 2

    def test_rotation_commutes_with_dilation(self):
        assert commutes(ROT, PlanarSystem(X, Y))

    @given(polys(vars=("x", "y")), polys(vars=("x", "y")),
           polys(vars=("x", "y")), polys(vars=("x", "y")))
    @settings(max_examples=30, deadline=None)
    def test_antisymmetry(self, p, q, r, s):
        s1 = PlanarSystem(p, q)
        s2 = PlanarSystem(r, s)
        f1, f2 = lie_bracket(s1, s2)
        g1, g2 = lie_bracket(s2, s1)
        assert f1 == -g1 and f2 == -g2

    def test_self_bracket_vanishes(self):
        sysm = quintic.build_system(quintic.QuinticParams.symbolic())
        b1, b2 = lie_bracket(sysm, sysm)
        assert b1.is_zero and b2.is_zero


class TestCofactor:
    def test_circle_cofactor_is_twice_radial_part(self):
        params = quintic.QuinticParams.symbolic()
        sysm = quintic.build_system(params)
        K = cofactor_of(sysm, X ** 2 + Y ** 2)
        assert K == 2 * radial_factor(params)

    def test_euler_cofactor(self):
        # x Q_x + y Q_y on a homogeneous Q is deg(Q) * Q
        sysm = PlanarSystem(X, Y)
        Q = X ** 4 - 3 * X * Y ** 3
        assert cofactor_of(sysm, Q) == Poly.const(4)

    def test_non_invariant_curve(self):
        assert cofactor_of(ROT, X) is None

    def test_zero_curve_rejected(self):
        with pytest.raises(ValueError):
            cofactor_of(ROT, Poly.zero())


def radial_cofactor_theorem_check(R, Q):
    """Residual of the invariance identity for the commuting radial pair.

    With p = y + x R, q = -x + y R and the radial partner (x Q, y Q), the
    curve Q = 0 must be invariant with cofactor x R_x + y R_y.  Returns
    x (Q_x p + Q_y q) - x (x R_x + y R_y) Q, which is zero whenever the pair
    commutes.
    """
    sys1 = PlanarSystem(Y + X * R, -X + Y * R)
    sys2 = PlanarSystem(X * Q, Y * Q)
    if not commutes(sys1, sys2):
        raise NotCommutingError("the radial pair does not commute")
    cof = X * R.diff("x") + Y * R.diff("y")
    return X * directional_derivative(sys1, Q) - X * cof * Q


class TestRadialPair:
    def test_case_i_identity(self):
        d, e, g, h = (Poly.var(n) for n in ("d", "e", "g", "h"))
        f = -3 * (d + h)
        R = (d * X ** 4 + e * X ** 3 * Y + f * X ** 2 * Y ** 2
             + g * X * Y ** 3 + h * Y ** 4)
        Q = 1 + e * X ** 4 - 4 * d * X ** 3 * Y + 4 * h * X * Y ** 3 - g * Y ** 4
        assert radial_cofactor_theorem_check(R, Q).is_zero

    def test_case_ii_identity(self):
        b, e, g = (Poly.var(n) for n in ("b", "e", "g"))
        R = b * X * Y + e * X ** 3 * Y + g * X * Y ** 3
        u = e * X ** 2 + g * Y ** 2
        Q = (e - g) + u * (b + u)
        assert radial_cofactor_theorem_check(R, Q).is_zero

    def test_rejects_non_commuting(self):
        with pytest.raises(NotCommutingError):
            radial_cofactor_theorem_check(X ** 2, 1 + X)


class TestIntegratingFactor:
    def test_case_i_denominator(self):
        d = Poly.var("d")
        params = quintic.QuinticParams(0, 0, 0, "d", "e",
                                       -3 * (d + Poly.var("h")), "g", "h")
        sysm = quintic.build_system(params)
        other = quintic.commuting_partner(params, quintic.CenterCase(
            quintic.CaseTag.CASE_I))
        mu = integrating_factor_from_pair(sysm, other)
        q4 = parse_expr("e*x^4 - 4*d*x^3*y + 4*h*x*y^3 - g*y^4")
        assert mu.den == (X ** 2 + Y ** 2) * (1 + q4)

    def test_case_ii_denominator(self):
        params = quintic.QuinticParams(0, "b", 0, 0, "e", 0, "g", 0)
        sysm = quintic.build_system(params)
        other = quintic.commuting_partner(params, quintic.CenterCase(
            quintic.CaseTag.CASE_II))
        mu = integrating_factor_from_pair(sysm, other)
        u = Poly.var("e") * X ** 2 + Poly.var("g") * Y ** 2
        Q = (Poly.var("e") - Poly.var("g")) + u * (Poly.var("b") + u)
        assert mu.den == (X ** 2 + Y ** 2) * Q

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePairError):
            integrating_factor_from_pair(ROT, ROT)

    def test_non_commuting_pair(self):
        with pytest.raises(NotCommutingError):
            integrating_factor_from_pair(ROT, PlanarSystem(X ** 2, Poly.zero()))


class TestRationalIntegral:
    def test_cubic_integral_certificate(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, -1, 0, 0, 0, 0, 0))
        res = rational_integral_residual(sysm, X ** 2 + Y ** 2, 1 - 2 * X * Y)
        assert res.is_zero

    def test_zero_denominator_rejected(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, 0, 0, 0, 0, 0, 0))
        with pytest.raises(ValueError, match="denominator must be nonzero"):
            rational_integral_residual(sysm, X, Poly.zero())

    def test_wrong_denominator_fails(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, -1, 0, 0, 0, 0, 0))
        res = rational_integral_residual(sysm, X ** 2 + Y ** 2, 1 + 2 * X * Y)
        assert not res.is_zero


def case_ii_system(e="e", g="g", b=1):
    return quintic.build_system(quintic.QuinticParams(0, b, 0, 0, e, 0, g, 0))


class TestDarboux:
    def test_generic_certified_symbolic(self):
        cand = darboux_candidate(Poly.var("e"), Poly.var("g"))
        assert verify_darboux_integral(case_ii_system(), cand).certified

    def test_generic_certified_numeric(self):
        cand = darboux_candidate(Fraction(1), Fraction(-2))
        sysm = case_ii_system(Fraction(1), Fraction(-2))
        assert verify_darboux_integral(sysm, cand).certified

    def test_symbolic_b_certified(self):
        """With b a symbol the C3 weight -b is a Poly, added as it is."""
        cand = darboux_candidate("e", "g", "b")
        assert cand.exponential[0][1] == -Poly.var("b")
        assert verify_darboux_integral(case_ii_system(b="b"), cand).certified

    @pytest.mark.parametrize("b", [4, -2, Fraction(1, 3)])
    def test_numeric_b_certified(self, b):
        cand = darboux_candidate(Fraction(1), Fraction(-2), b)
        sysm = case_ii_system(Fraction(1), Fraction(-2), b)
        assert verify_darboux_integral(sysm, cand).certified
        # the b = 1 candidate's cofactors are not this system's
        wrong = darboux_candidate(Fraction(1), Fraction(-2))
        with pytest.raises(StructureError):
            verify_darboux_integral(sysm, wrong)

    def test_known_cofactors(self):
        sysm = case_ii_system(b="b")
        b = Poly.var("b")
        u = Poly.var("e") * X ** 2 + Poly.var("g") * Y ** 2
        c1 = X ** 2 + Y ** 2
        c2 = (Poly.var("e") - Poly.var("g")) + b * u + u ** 2
        assert cofactor_of(sysm, c1) == 2 * X * Y * (b + u)
        assert cofactor_of(sysm, c2) == 2 * X * Y * (b + 2 * u)
        assert directional_derivative(sysm, u) == 2 * X * Y * c2

    def test_equal_variant_certified(self):
        cand = darboux_candidate_equal(Fraction(2))
        sysm = case_ii_system(Fraction(2), Fraction(2))
        assert verify_darboux_integral(sysm, cand).certified

    @pytest.mark.parametrize("b", [4, -2, Fraction(1, 3), "b"])
    def test_equal_variant_any_b(self, b):
        cand = darboux_candidate_equal(Fraction(3), b)
        sysm = case_ii_system(Fraction(3), Fraction(3), b)
        assert verify_darboux_integral(sysm, cand).certified
        assert cand.exponential[0][1] == as_poly(b) * Fraction(1, 3)

    def test_eval_float_is_the_product(self):
        """H = C1^2 C2^-1 C3^-b, written out by hand at one point."""
        b, e, g, x, y = 2.0, 1.0, -2.0, 0.3, 0.2
        cand = darboux_candidate(Fraction(1), Fraction(-2), 2)
        u = e * x * x + g * y * y
        c2 = (e - g) + b * u + u * u
        want = (x * x + y * y) ** 2 / c2 * math.exp(-b * c3_exponent(u, e - g, b))
        assert cand.eval_float(x, y) == pytest.approx(want, rel=1e-14)

    def test_eval_float_needs_numbers(self):
        with pytest.raises(UnboundVariableError):
            darboux_candidate("e", "g", "b").eval_float(0.1, 0.2)
        with pytest.raises(ValueError, match="not constant"):
            darboux_candidate(1, 2, "b").eval_float(0.1, 0.2)

    def test_equal_variant_rejects_zero(self):
        with pytest.raises(ValueError):
            darboux_candidate_equal(0)

    def test_equal_variant_rejects_zero_b(self):
        """With shift = 0 and b = 0, H = C1^2 C2^-1 is the constant 1/e^2."""
        with pytest.raises(ValueError, match="beta != 0"):
            darboux_candidate_equal(2, b=0)

    def test_wrong_weight_not_certified(self):
        sysm = case_ii_system()
        u = Poly.var("e") * X ** 2 + Poly.var("g") * Y ** 2
        c1 = AlgebraicInvariant(X ** 2 + Y ** 2, 2 * X * Y * (1 + u))
        verdict = verify_darboux_integral(
            sysm, DarbouxCandidate(algebraic=((c1, Fraction(1)),)))
        assert not verdict.certified
        assert verdict.residual is not None and not verdict.residual.is_zero

    def test_bad_invariant_raises(self):
        bad = AlgebraicInvariant(X, Poly.const(1))
        with pytest.raises(StructureError):
            verify_darboux_integral(ROT,
                                    DarbouxCandidate(algebraic=((bad, 1),)))


def reversible(sysm, alpha, beta):
    """Do both components of reversibility_residual vanish?"""
    return all(r.is_zero for r in reversibility_residual(sysm, alpha, beta))


def subs_reflection_residual(sys, alpha, beta):
    """reversibility_residual computed with Poly.subs on whole homogeneous
    parts instead of substitute_form on their coefficient lists."""
    alpha, beta = as_poly(alpha), as_poly(beta)
    den = alpha ** 2 + beta ** 2
    xp = (beta ** 2 - alpha ** 2) * X - 2 * alpha * beta * Y
    yp = -2 * alpha * beta * X + (alpha ** 2 - beta ** 2) * Y
    n = max(sys.p.degree_in(), sys.q.degree_in())

    def reflected(poly):  # den^n poly(xp / den, yp / den)
        parts = {}
        for m, c in poly.terms.items():
            k = sum(e for v, e in m if v in ("x", "y"))
            parts[k] = parts.get(k, Poly.zero()) + Poly({m: c})
        return sum((part.subs({"x": xp, "y": yp}) * den ** (n - k)
                    for k, part in parts.items()), Poly.zero())

    pr, qr = reflected(sys.p), reflected(sys.q)
    scale = den ** (n + 1)
    return ((beta ** 2 - alpha ** 2) * pr - 2 * alpha * beta * qr + scale * sys.p,
            -2 * alpha * beta * pr + (alpha ** 2 - beta ** 2) * qr + scale * sys.q)


class TestReversibility:
    def test_axis_symmetric_family(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            0, 1, 0, 0, 1, 0, -1, 0))
        assert reversible(sysm, 0, 1)
        assert reversible(sysm, 1, 0)

    def test_focus_not_reversible_about_axis(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, 0, 0, 0, 0, 0, 0))
        assert not reversible(sysm, 0, 1)

    def test_cubic_diagonal_symmetry(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, -1, 0, 0, 0, 0, 0))
        assert reversible(sysm, 1, -1)
        assert reversible(sysm, 1, 1)
        assert not reversible(sysm, 0, 1)

    def test_float_line_entry(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, 0, 0, 0, 0, 0, 0))
        assert (reversibility_residual(sysm, 0.5, 1)
                == reversibility_residual(sysm, Fraction(1, 2), 1))

    def test_zero_line_rejected(self):
        with pytest.raises(ValueError):
            reversibility_residual(ROT, 0, 0)

    def test_zero_system(self):
        zero = PlanarSystem(Poly.zero(), Poly.zero())
        assert reversibility_residual(zero, 1, 2) == (Poly.zero(), Poly.zero())

    def test_matches_subs_reflection(self):
        """Seeded systems of degree <= 4 in x, y, every third with a symbol
        a, about numeric and symbolic lines, against the Poly.subs
        reflection."""
        rng = random.Random(1307)
        lines = [(0, 1), (1, 0), (1, -1), (Fraction(2, 3), Fraction(-5, 4)),
                 ("s", -1), ("a", "b")]
        for i in range(30):
            vars = ("x", "y", "a") if i % 3 == 0 else ("x", "y")
            sysm = PlanarSystem(random_poly(rng, vars, max_exp=2),
                                random_poly(rng, vars, max_exp=2))
            for line in lines:
                assert (reversibility_residual(sysm, *line)
                        == subs_reflection_residual(sysm, *line)), (sysm, line)

    def constraint(self, a="a", b="b"):
        a, b, s = as_poly(a), as_poly(b), Poly.var("s")
        return a * s ** 2 - b * s - a

    def test_constrained_lines(self):
        sysm = scaled_case_iii_system()
        verdict = reversible_modulo_constraint(sysm, self.constraint())
        assert verdict.reversible
        assert self.oracle(sysm, self.constraint())

    def test_constrained_lines_perturbed(self):
        # g x^2 y^2 added to P keeps the radial form and breaks the symmetry
        sysm = scaled_case_iii_system()
        g = Poly.var("g") * X ** 2 * Y ** 2
        bad = PlanarSystem(sysm.p + X * g, sysm.q + Y * g)
        verdict = reversible_modulo_constraint(bad, self.constraint())
        assert not verdict.reversible
        assert verdict.witness is not None and not verdict.witness.is_zero
        assert not self.oracle(bad, self.constraint())

    @pytest.mark.parametrize("p,q", [
        (Y + 1, -X),                              # a constant term
        (Y + X ** 2, -X),                         # x^2 added to p only
        (Y + Poly.var("g") * X ** 3 * Y ** 2, -X),  # g x^3 y^2 in p only
        (2 * Y, -X),                              # linear part no rotation
    ])
    def test_requires_radial_form(self, p, q):
        with pytest.raises(ValueError, match="radial form"):
            reversible_modulo_constraint(PlanarSystem(p, q), self.constraint())

    def test_zero_angular_speed(self):
        # with w = 0 the reflected field is parallel to (x P, y P) whatever
        # P is; reversing the flow also needs P odd in the normal
        # coordinate, which x^2 is not
        sysm = PlanarSystem(X ** 3, X ** 2 * Y)
        # M F(M x) = F(x): the reflection keeps the flow instead of reversing it
        assert reversibility_residual(sysm, 1, 0) == (2 * sysm.p, 2 * sysm.q)
        verdict = reversible_modulo_constraint(sysm, self.constraint(1, 0))
        assert not verdict.reversible

    def test_constraint_must_be_quadratic(self):
        with pytest.raises(ValueError):
            reversible_modulo_constraint(ROT, Poly.var("s") ** 3)
        with pytest.raises(ValueError):
            reversible_modulo_constraint(ROT, Poly.var("s") - 1)

    def oracle(self, sysm, constraint):
        """The verdict of reflecting the whole system with Poly.subs: both
        cleared components of the residual, pseudo-reduced modulo the
        constraint."""
        lead = constraint.coefficient("s", 2)
        return all(_pseudo_rem_quadratic(r, constraint, lead).is_zero
                   for r in subs_reflection_residual(sysm, Poly.var("s"), -1))

    def test_agrees_with_oracle_numeric(self):
        """Case (iii) points, each with its own constraint a s^2 - b s - a,
        and the same points with one of d..h moved off case (iii).  Where
        b^2 + 4 a^2 is a square the constraint splits into two lines."""
        rng = random.Random(20261018)

        def draw(lo=-3, hi=3):
            return Fraction(rng.randint(lo, hi), rng.randint(1, 3))

        split = [(2, 3), (-2, 3), (2, -3), (1, 0), (3, 8), (6, -5),
                 (Fraction(1, 2), Fraction(3, 4))]
        ab = [tuple(map(Fraction, pair)) for pair in split]
        while len(ab) < 50:
            a = draw()
            if a:
                ab.append((a, draw()))
        disagree = []
        for i, (a, b) in enumerate(ab):
            d, e = draw(), draw()
            values = dict(zip("abcdefgh", (a, b, -a, d, e,
                                           *case_iii_fgh(a, b, d, e))))
            for perturbed in (False, True):
                if perturbed:
                    values[rng.choice("defgh")] += draw(1, 3) * rng.choice((-1, 1))
                sysm = quintic.build_system(
                    quintic.QuinticParams(*values.values()))
                constraint = self.constraint(a, b)
                verdict = reversible_modulo_constraint(sysm, constraint)
                assert verdict.reversible is not perturbed
                if verdict.reversible is not self.oracle(sysm, constraint):
                    disagree.append((i, perturbed))
        assert disagree == []

    def test_scaled_system_matches_family(self):
        """The cleared form really is 2 a^3 times the case (iii) family."""
        a = Poly.var("a")
        sub = quintic.case_substitution(quintic.CaseTag.CASE_III)
        params = quintic.QuinticParams("a", "b", *(sub[n] for n in "cdefgh"))
        fam = quintic.build_system(params)
        scaled = scaled_case_iii_system()
        de = {"d": sub["d"], "e": sub["e"]}
        for lhs, rhs in ((scaled.p, fam.p), (scaled.q, fam.q)):
            assert lhs.subs(de) == 2 * a ** 3 * rhs


class TestAngularSpeed:
    def test_family_is_uniform(self):
        sysm = quintic.build_system(quintic.QuinticParams.symbolic())
        assert angular_speed_residual(sysm).is_zero

    def test_perturbed(self):
        assert angular_speed_residual(
            PlanarSystem(Y + X ** 2, -X)) == -X ** 2 * Y


class TestC3Exponent:
    def test_zero_upper_limit(self):
        assert c3_exponent(0.0, 0.7) == 0.0

    def test_boundary_branch_closed_form(self):
        # e - g = 1/4 integrates 1/(t + 1/2)^2; b = 4, e - g = 4 1/(t + 2)^2
        assert abs(c3_exponent(1.0, 0.25) - 4.0 / 3.0) < 1e-14
        assert abs(c3_exponent(1.0, 4.0, 4.0) - (0.5 - 1.0 / 3.0)) < 1e-14

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            c3_exponent(2.0, -2.0)
        with pytest.raises(DomainError):  # the double pole t = -2 of b = 4
            c3_exponent(-3.0, 4.0, 4.0)

    def test_branch_continuity(self):
        ref = c3_exponent(1.0, 0.25)
        for eps in (1e-8, -1e-8):
            assert abs(c3_exponent(1.0, 0.25 + eps) - ref) < 1e-6

    # the log branch beside both poles (b = 4, shift 3 and b = -2.5,
    # shift 1) and between them (b = 4, shift -3); b = 1/3 takes atan
    QUADRATURE = [(2.0, 1.0, 1.0), (0.5, -1.0, 1.0), (-0.3, 0.5, 1.0),
                  (1.5, 3.0, 1.0), (0.7, 3.0, 4.0), (-0.5, -3.0, 4.0),
                  (0.4, 1.0, -2.5), (1.2, 0.5, 1 / 3)]

    @pytest.mark.parametrize(
        "u,shift,b", QUADRATURE,
        ids=[f"{u}-{s}" + ("" if b == 1 else f"-b{b:.3g}")
             for u, s, b in QUADRATURE])
    def test_against_quadrature(self, u, shift, b):
        val, err = quad(lambda t: 1.0 / (shift + b * t + t * t),
                        0.0, u, epsabs=1e-12, epsrel=1e-12)
        assert abs(c3_exponent(u, shift, b) - val) < 1e-9

    def test_matches_equal_variant_derivative(self):
        # numeric sanity: d/du of the integral is the integrand
        h = 1e-6
        shift = 2.0
        num = (c3_exponent(1.0 + h, shift) - c3_exponent(1.0 - h, shift)) / (2 * h)
        assert abs(num - 1.0 / (shift + 1.0 + 1.0)) < 1e-8
