import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from isoquintic.qpoly import Poly, as_poly
from isoquintic.lyapunov import PlanarSystem
from isoquintic import quintic, structure
from isoquintic.structure import (
    StructureError, NotCommutingError, DegeneratePairError,
    lie_bracket, commutes, cofactor_of, directional_derivative,
    integrating_factor_from_pair, rational_integral_residual,
    AlgebraicInvariant, DarbouxCandidate, verify_darboux_integral,
    darboux_candidate, darboux_candidate_equal,
    reversibility_residual, reversible_modulo_constraint,
    _pseudo_rem_quadratic, angular_speed_residual,
)
from conftest import (CASE_I_Q, CASE_I_SYMBOLIC, CASE_II_Q, CASE_II_SYMBOLIC,
                      CASE_II_U, ROT, X, Y, case_iii_fgh, polys,
                      radial_factor, random_poly, scaled_case_iii_system)


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
        R = radial_factor(CASE_I_SYMBOLIC)
        assert radial_cofactor_theorem_check(R, CASE_I_Q).is_zero

    def test_case_ii_identity(self):
        R = radial_factor(CASE_II_SYMBOLIC)
        assert radial_cofactor_theorem_check(R, CASE_II_Q).is_zero

    def test_rejects_non_commuting(self):
        with pytest.raises(NotCommutingError):
            radial_cofactor_theorem_check(X ** 2, 1 + X)


class TestIntegratingFactor:
    @staticmethod
    def denominator(params, tag):
        other = quintic.commuting_partner(params, quintic.CenterCase(tag))
        return integrating_factor_from_pair(quintic.build_system(params),
                                            other).den

    def test_case_i_denominator(self):
        assert (self.denominator(CASE_I_SYMBOLIC, quintic.CaseTag.CASE_I)
                == (X ** 2 + Y ** 2) * CASE_I_Q)

    def test_case_ii_denominator(self):
        assert (self.denominator(CASE_II_SYMBOLIC, quintic.CaseTag.CASE_II)
                == (X ** 2 + Y ** 2) * CASE_II_Q)

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
        b, u = Poly.var("b"), CASE_II_U
        c1 = X ** 2 + Y ** 2
        assert cofactor_of(sysm, c1) == 2 * X * Y * (b + u)
        assert cofactor_of(sysm, CASE_II_Q) == 2 * X * Y * (b + 2 * u)
        assert directional_derivative(sysm, u) == 2 * X * Y * CASE_II_Q

    def test_equal_variant_certified(self):
        cand = darboux_candidate_equal(Fraction(2))
        sysm = case_ii_system(Fraction(2), Fraction(2))
        assert verify_darboux_integral(sysm, cand).certified

    @pytest.mark.parametrize("e, b", [
        (3, 4), (3, -2), (3, Fraction(1, 3)), (3, "b"), ("e", "b"),
    ], ids=["4", "-2", "b2", "b", "e"])
    def test_equal_variant_any_b(self, e, b):
        """With e = g the weights of C1, C2, C3 are 2 e, -e and b, for e a
        number or a symbol."""
        cand = darboux_candidate_equal(e, b)
        assert verify_darboux_integral(case_ii_system(e, e, b), cand).certified
        e = as_poly(e)
        assert [w for _, w in cand.algebraic + cand.exponential] == [
            2 * e, -e, as_poly(b)]

    def test_equal_variant_rejects_zero(self):
        with pytest.raises(ValueError):
            darboux_candidate_equal(0)

    def test_equal_variant_rejects_zero_b(self):
        """With shift = 0 and b = 0, H = C1^2 C2^-1 is the constant 1/e^2."""
        with pytest.raises(ValueError, match="beta != 0"):
            darboux_candidate_equal(2, b=0)

    def test_zero_shift_needs_u_on_the_circle(self):
        """With shift = 0, u must be kappa (x^2 + y^2) for a number kappa."""
        with pytest.raises(ValueError,
                           match=r"u must be a number times x\^2 \+ y\^2"):
            structure.form_candidate(X * Y, X ** 2, Poly.zero(), 1, X ** 2)

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

    @pytest.mark.parametrize("cand, sysm, message", [
        (darboux_candidate_equal(2), case_ii_system(2, 2),
         "exponential invariant failed"),
        (darboux_candidate(1, -2), case_ii_system(1, -2),
         "integral-exponent invariant failed")], ids=["rational", "integral"])
    def test_wrong_exponential_cofactor_raises(self, cand, sysm, message):
        """A certifying candidate with its C3 cofactor changed: each kind of
        exponential invariant is checked against its own certificate."""
        (c3, weight), = cand.exponential
        wrong = dataclasses.replace(c3, cofactor=c3.cofactor + X * Y)
        with pytest.raises(StructureError, match=message):
            verify_darboux_integral(sysm, dataclasses.replace(
                cand, exponential=((wrong, weight),)))

    def test_unknown_exponential_invariant_raises(self):
        circle = AlgebraicInvariant(X ** 2 + Y ** 2, Poly.zero())
        with pytest.raises(TypeError, match="^unknown exponential invariant "
                                            "AlgebraicInvariant$"):
            verify_darboux_integral(ROT, DarbouxCandidate(
                algebraic=(), exponential=((circle, 1),)))


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

    def test_constraint_beyond_degree_two_rejected(self):
        s = Poly.var("s")
        with pytest.raises(ValueError, match="terms beyond degree 2 in the slope"):
            reversible_modulo_constraint(ROT, s ** 3 + s ** 2)

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
