from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from isoquintic.qpoly import (
    Poly, ParseError, UnboundVariableError, SingularMatrixError,
    parse_expr, divide_exact, solve_linear_exact,
)
from conftest import polys, random_poly

X = Poly.var("x")
Y = Poly.var("y")


class TestArith:
    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X ** 2 - Y ** 2

    def test_additive_identity(self):
        p = parse_expr("3*x^2 - y + 1/2")
        assert p + Poly.zero() == p

    def test_square_of_sum_of_squares(self):
        # schoolbook expansion by hand
        r2 = X ** 2 + Y ** 2
        assert r2 * r2 == X ** 4 + 2 * X ** 2 * Y ** 2 + Y ** 4

    def test_scalar_mixing(self):
        assert 2 * X - X - X == Poly.zero()
        assert Fraction(1, 2) * (2 * X) == X

    def test_pow(self):
        assert (X + 1) ** 3 == X ** 3 + 3 * X ** 2 + 3 * X + 1
        with pytest.raises(ValueError):
            (X + 1) ** -1


class TestDiff:
    def test_basic(self):
        assert (X ** 2 * Y).diff("x") == 2 * X * Y
        assert (X ** 2).diff("y") == Poly.zero()

    def test_chain_rule_by_hand(self):
        p = (X ** 2 + Y ** 2) ** 2
        assert p.diff("x") == 4 * X * (X ** 2 + Y ** 2)

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, p, q):
        assert (p * q).diff("x") == p.diff("x") * q + p * q.diff("x")


class TestSubstitute:
    def test_rotation_invariance_of_circle(self):
        c, s = Poly.var("cc"), Poly.var("ss")
        rotated = (X ** 2 + Y ** 2).subs({"x": c * X + s * Y,
                                          "y": -s * X + c * Y})
        # reduce modulo ss^2 = 1 - cc^2
        reduced = rotated.reduce_var_square("ss", 1 - c ** 2)
        assert reduced == X ** 2 + Y ** 2

    def test_first_constant_vanishes(self):
        d1 = 2 * (Poly.var("a") + Poly.var("c"))
        assert d1.subs({"c": -Poly.var("a")}).is_zero

    def test_shift(self):
        assert (X ** 2).subs({"x": X + 1}) == X ** 2 + 2 * X + 1


class TestEval:
    def test_zero_sum(self):
        p = Poly.var("a") + Poly.var("c")
        assert p.eval_rational({"a": 1, "c": -1}) == 0

    def test_hand_arithmetic(self):
        p = parse_expr("2*c^2*f - 3*b*c*g + 3*b^2*h")
        val = p.eval_rational({"b": 1, "c": 2, "f": 3, "g": 1, "h": 0})
        assert val == 18

    def test_unbound(self):
        with pytest.raises(UnboundVariableError):
            X.eval_rational({})

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_eval_is_ring_homomorphism(self, p, q):
        pt = {v: Fraction(3, 2) for v in ("x", "y", "a", "b")}
        assert ((p * q).eval_rational(pt)
                == p.eval_rational(pt) * q.eval_rational(pt))
        assert ((p + q).eval_rational(pt)
                == p.eval_rational(pt) + q.eval_rational(pt))


class TestHomogeneous:
    def test_split(self):
        p = Y + X * (Poly.var("a") * X ** 2)
        parts = p.homogeneous_parts()
        assert set(parts) == {1, 3}
        assert parts[1] == Y
        assert parts[3] == Poly.var("a") * X ** 3

    def test_zero(self):
        assert Poly.zero().homogeneous_parts() == {}

    def test_sum_reassembles(self, rng):
        for _ in range(25):
            p = random_poly(rng)
            total = Poly.zero()
            for part in p.homogeneous_parts().values():
                total = total + part
            assert total == p


class TestRingLaws:
    @given(polys(), polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_laws(self, p, q, r):
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


class TestParser:
    def test_family_expression(self):
        p = parse_expr("y + x*(a*x^2 + b*x*y)")
        a, b = Poly.var("a"), Poly.var("b")
        assert p == Y + a * X ** 3 + b * X ** 2 * Y

    def test_rational_coefficient(self):
        assert parse_expr("3/2*x^4 - y") == Fraction(3, 2) * X ** 4 - Y

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError, match="negative exponent"):
            parse_expr("x^-1")

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_expr("x + + y")

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("2 x")

    def test_unary_minus(self):
        assert parse_expr("-x*y") == -(X * Y)
        assert parse_expr("-(x - y)") == Y - X

    def test_round_trip_1000(self, rng):
        for _ in range(1000):
            p = random_poly(rng, vars=("x", "y", "a", "b", "c"), max_terms=6)
            assert parse_expr(str(p)) == p


class TestCanonical:
    def test_primitive(self):
        p = Fraction(2, 3) * X + Fraction(4, 3) * Y
        assert p.canonical() == X + 2 * Y

    def test_sign_preserved(self):
        p = Fraction(-2, 3) * X
        assert p.canonical() == -X

    def test_str_examples(self):
        assert str(parse_expr("-4*a*b - 4*b*c + 3*d + f + 3*h")) \
            == "-4*a*b - 4*b*c + 3*d + f + 3*h"
        assert str(Poly.zero()) == "0"
        assert str(Poly.var("a") + Poly.var("c")) == "a + c"


class TestDivision:
    def test_exact(self):
        p = (X ** 2 + Y ** 2) * (X - 3 * Y)
        assert divide_exact(p, X ** 2 + Y ** 2) == X - 3 * Y

    def test_not_divisible(self):
        assert divide_exact(Y, X) is None

    @given(polys(), polys())
    @settings(max_examples=60, deadline=None)
    def test_product_always_divides(self, p, q):
        if q.is_zero:
            return
        assert divide_exact(p * q, q) == p


@st.composite
def rank_deficient(draw):
    """n x n integer matrix A B with A n x r, B r x n and r < n <= 5."""
    n = draw(st.integers(1, 5))
    r = draw(st.integers(0, n - 1))
    ints = st.integers(-4, 4)
    A = draw(st.lists(st.lists(ints, min_size=r, max_size=r),
                      min_size=n, max_size=n))
    B = draw(st.lists(st.lists(ints, min_size=n, max_size=n),
                      min_size=r, max_size=r))
    return [[Fraction(sum(A[i][k] * B[k][j] for k in range(r)))
             for j in range(n)] for i in range(n)]


class TestSolver:
    def test_identity(self):
        a, b = Poly.var("a"), Poly.var("b")
        eye = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        assert solve_linear_exact(eye, [a, b]) == [a, b]

    def test_diagonal(self):
        a, b, c = Poly.var("a"), Poly.var("b"), Poly.var("c")
        m = [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]]
        sol = solve_linear_exact(m, [a + c, b])
        assert sol == [Fraction(1, 2) * (a + c), Fraction(1, 4) * b]

    def test_singular_gives_null_vector(self):
        m = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear_exact(m, [Poly.var("a"), Poly.var("b")])
        v = exc.value.null_vector
        assert any(v) and all(
            sum(m[i][j] * v[j] for j in range(2)) == 0 for i in range(2))

    def test_singular_dependent_rows(self):
        m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear_exact(m, [Poly.zero(), Poly.zero()])
        v = exc.value.null_vector
        assert any(v)
        assert all(sum(m[i][j] * v[j] for j in range(2)) == 0 for i in range(2))

    @seed(20240824)
    @settings(max_examples=200, deadline=None)
    @given(rank_deficient())
    def test_singular_null_vector_property(self, m):
        n = len(m)
        with pytest.raises(SingularMatrixError) as exc:
            solve_linear_exact(m, [Poly.var("a")] * n)
        v = exc.value.null_vector
        assert any(v)
        assert all(sum(m[i][j] * v[j] for j in range(n)) == 0 for i in range(n))

    def test_residual_zero_random(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)]
                 for _ in range(n)]
            rhs = [random_poly(rng, vars=("a", "b")) for _ in range(n)]
            try:
                sol = solve_linear_exact(m, rhs)
            except SingularMatrixError:
                continue
            for i in range(n):
                acc = Poly.zero()
                for j in range(n):
                    acc = acc + m[i][j] * sol[j]
                assert acc == rhs[i]
