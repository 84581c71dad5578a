import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from scipy.integrate import quad

from isoquintic.qpoly import Poly, parse_expr, RationalFunction
from isoquintic.lyapunov import PlanarSystem
from isoquintic import quintic, structure
from isoquintic.structure import (
    StructureError, NotCommutingError, DegeneratePairError, DomainError,
    lie_bracket, commutes, cofactor_of, radial_cofactor_theorem_check,
    integrating_factor_from_pair, rational_integral_residual,
    AlgebraicInvariant, DarbouxCandidate, verify_darboux_integral,
    darboux_candidate, darboux_candidate_equal,
    reversibility_residual, reversible_modulo_constraint,
    angular_speed_residual, c3_exponent,
)
from conftest import polys

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
        assert K == 2 * quintic.radial_factor(params)

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

    def test_wrong_denominator_fails(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, -1, 0, 0, 0, 0, 0))
        res = rational_integral_residual(sysm, X ** 2 + Y ** 2, 1 + 2 * X * Y)
        assert not res.is_zero


def case_ii_system(e="e", g="g"):
    return quintic.build_system(quintic.QuinticParams(0, 1, 0, 0, e, 0, g, 0))


class TestDarboux:
    def test_generic_certified_symbolic(self):
        cand = darboux_candidate(Poly.var("e"), Poly.var("g"))
        assert verify_darboux_integral(case_ii_system(), cand).certified

    def test_generic_certified_numeric(self):
        cand = darboux_candidate(Fraction(1), Fraction(-2))
        sysm = case_ii_system(Fraction(1), Fraction(-2))
        assert verify_darboux_integral(sysm, cand).certified

    def test_known_cofactors(self):
        sysm = case_ii_system()
        u = Poly.var("e") * X ** 2 + Poly.var("g") * Y ** 2
        c1 = X ** 2 + Y ** 2
        c2 = (Poly.var("e") - Poly.var("g")) + u + u ** 2
        assert cofactor_of(sysm, c1) == 2 * X * Y * (1 + u)
        assert cofactor_of(sysm, c2) == 2 * X * Y * (1 + 2 * u)

    def test_equal_variant_certified(self):
        cand = darboux_candidate_equal(Fraction(2))
        sysm = case_ii_system(Fraction(2), Fraction(2))
        assert verify_darboux_integral(sysm, cand).certified

    def test_equal_variant_rejects_zero(self):
        with pytest.raises(ValueError):
            darboux_candidate_equal(0)

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


class TestReversibility:
    def test_axis_symmetric_family(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            0, 1, 0, 0, 1, 0, -1, 0))
        assert reversibility_residual(sysm, 0, 1).is_zero
        assert reversibility_residual(sysm, 1, 0).is_zero

    def test_focus_not_reversible_about_axis(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, 0, 0, 0, 0, 0, 0))
        assert not reversibility_residual(sysm, 0, 1).is_zero

    def test_cubic_diagonal_symmetry(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, -1, 0, 0, 0, 0, 0))
        assert reversibility_residual(sysm, 1, -1).is_zero
        assert reversibility_residual(sysm, 1, 1).is_zero
        assert not reversibility_residual(sysm, 0, 1).is_zero

    def test_float_line_entry(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, 0, 0, 0, 0, 0, 0))
        assert (reversibility_residual(sysm, 0.5, 1)
                == reversibility_residual(sysm, Fraction(1, 2), 1))

    def test_zero_line_rejected(self):
        with pytest.raises(ValueError):
            reversibility_residual(ROT, 0, 0)

    def scaled_case_iii_system(self):
        a, b, d, e = (Poly.var(n) for n in "abde")
        quad = a * X ** 2 + b * X * Y - a * Y ** 2
        big = (2 * a ** 3 + 2 * a ** 2 * d * X ** 2 - 2 * a * b * d * X * Y
               + 2 * a ** 2 * e * X * Y + 2 * a ** 2 * d * Y ** 2
               - b ** 2 * d * Y ** 2 + a * b * e * Y ** 2)
        P = quad * big
        return PlanarSystem(2 * a ** 3 * Y + X * P, -2 * a ** 3 * X + Y * P)

    def constraint(self):
        a, b, s = Poly.var("a"), Poly.var("b"), Poly.var("s")
        return a * s ** 2 - b * s - a

    def test_constrained_lines(self):
        verdict = reversible_modulo_constraint(self.scaled_case_iii_system(),
                                               self.constraint())
        assert verdict.reversible

    def test_constrained_lines_perturbed(self):
        sysm = self.scaled_case_iii_system()
        bad = PlanarSystem(sysm.p + Poly.var("g") * X ** 3 * Y ** 2, sysm.q)
        verdict = reversible_modulo_constraint(bad, self.constraint())
        assert not verdict.reversible
        assert verdict.witness is not None and not verdict.witness.is_zero

    def test_constraint_must_be_quadratic(self):
        with pytest.raises(ValueError):
            reversible_modulo_constraint(ROT, Poly.var("s") ** 3)
        with pytest.raises(ValueError):
            reversible_modulo_constraint(ROT, Poly.var("s") - 1)

    def test_scaled_system_matches_family(self):
        """The cleared form really is 2 a^3 times the case (iii) family."""
        a = Poly.var("a")
        sub = quintic.case_substitution(quintic.CaseTag.CASE_III)
        params = quintic.QuinticParams("a", "b", sub["c"], "d", "e",
                                       sub["f"], sub["g"], sub["h"])
        fam = quintic.build_system(params)
        scaled = self.scaled_case_iii_system()
        for lhs, rhs in ((scaled.p, fam.p), (scaled.q, fam.q)):
            diff = lhs - 2 * a ** 3 * rhs
            assert diff.reduce_inverse_pairs("a", "ainv").is_zero


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
        # e - g = 1/4 integrates 1/(t + 1/2)^2
        assert abs(c3_exponent(1.0, 0.25) - 4.0 / 3.0) < 1e-14

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            c3_exponent(2.0, -2.0)

    def test_branch_continuity(self):
        ref = c3_exponent(1.0, 0.25)
        for eps in (1e-8, -1e-8):
            assert abs(c3_exponent(1.0, 0.25 + eps) - ref) < 1e-6

    @pytest.mark.parametrize("u,shift", [(2.0, 1.0), (0.5, -1.0),
                                         (-0.3, 0.5), (1.5, 3.0)])
    def test_against_quadrature(self, u, shift):
        val, err = quad(lambda t: 1.0 / (shift + t + t * t),
                        0.0, u, epsabs=1e-12, epsrel=1e-12)
        assert abs(c3_exponent(u, shift) - val) < 1e-9

    def test_matches_equal_variant_derivative(self):
        # numeric sanity: d/du of the integral is the integrand
        h = 1e-6
        shift = 2.0
        num = (c3_exponent(1.0 + h, shift) - c3_exponent(1.0 - h, shift)) / (2 * h)
        assert abs(num - 1.0 / (shift + 1.0 + 1.0)) < 1e-8
