import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from isoquintic.qpoly import (
    Poly, ParseError, QPolyError, UnboundVariableError, SingularMatrixError,
    MAX_DEGREE, MAX_DIGITS, MAX_TERMS, parse_expr, parse_rational,
    divide_exact, solve_linear_exact, as_poly, form_poly, substitute_form,
    to_float, RationalFunction,
)
from isoquintic import qpoly
from conftest import X, Y, clear_product_memo, coeffs, polys, random_poly

try:  # the differential oracle is an optional test dependency
    import sympy
except ImportError:
    sympy = None


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

    @pytest.mark.parametrize("n, products", [
        (0, 0), (1, 1), (2, 2), (6, 4), (7, 5), (8, 4)])
    def test_pow_squares_only_what_it_reads(self, monkeypatch, n, products):
        """One square per bit after the first and one product per set bit:
        p ** 6 is p^2 * p^4, and p^8 is never formed."""
        calls = []
        mul = Poly.__mul__

        def counted(p, q):
            calls.append(q)
            return mul(p, q)

        with monkeypatch.context() as patch:
            patch.setattr(Poly, "__mul__", counted)
            power = (X + Y) ** n
        assert len(calls) == products
        expected = Poly.const(1)
        for _ in range(n):
            expected = expected * (X + Y)
        assert power == expected


class TestText:
    """`as_poly` reads caller text by one rule: stripped, a run of letters
    is a symbol, anything else a rational of `parse_rational`."""

    @pytest.mark.parametrize("text, value", [
        ("b", Poly.var("b")), (" uv ", Poly.var("uv")), ("x", X),
        ("1/2", Fraction(1, 2)), (" -3/2 ", Fraction(-3, 2)),
        ("0.25", Fraction(1, 4)), ("1e-3", Fraction(1, 1000)),
        (f"1e{MAX_DIGITS}", Fraction(10 ** MAX_DIGITS)),
    ])
    def test_symbols_and_rationals(self, text, value):
        assert as_poly(text) == value

    @pytest.mark.parametrize("text, message", [
        ("", "malformed rational ''"),
        ("x y", "malformed rational 'x y'"),
        ("2a", "malformed rational '2a'"),
        ("a1", "malformed rational 'a1'"),
        ("1/0", "malformed rational '1/0'"),
        ("\u0661", "malformed rational '\u0661'"),  # Fraction reads it as 1
        ("1e10000000", f"exponent above {MAX_DIGITS} in '1e10000000'"),
        (f"1e-{MAX_DIGITS + 1}", f"exponent above {MAX_DIGITS} in '1e-4301'"),
    ])
    def test_anything_else_rejected(self, text, message):
        with pytest.raises(QPolyError, match=f"^{re.escape(message)}$"):
            as_poly(text)

    def test_a_rational_is_no_symbol(self):
        assert parse_rational(" 3 ") == 3
        with pytest.raises(QPolyError, match="^malformed rational 'a'$"):
            parse_rational("a")

    @pytest.mark.parametrize("name", ["1/2", "", "x y", "a1", "-a", 2])
    def test_var_takes_symbol_names_only(self, name):
        with pytest.raises(ValueError, match="is not a symbol name"):
            Poly.var(name)

    def test_const_and_eval_read_text_by_the_same_rule(self):
        a = Poly.var("a")
        assert Poly.const(" -3/2 ") == Fraction(-3, 2)
        assert a.eval_rational({"a": "1e-3"}) == Fraction(1, 1000)
        assert (a * a).eval_float({"a": " 0.5 "}) == 0.25
        # Fraction and float read U+0661 ARABIC-INDIC DIGIT ONE as 1
        for read in (Poly.const, lambda t: a.eval_rational({"a": t}),
                     lambda t: a.eval_float({"a": t})):
            with pytest.raises(QPolyError, match="^malformed rational '\u0661'$"):
                read("\u0661")
            with pytest.raises(QPolyError, match="^malformed rational 'inf'$"):
                read("inf")
        # float("1e400") is inf; the exact value is checked by to_float
        with pytest.raises(ValueError, match="^coefficient 1E\\+400 is beyond"):
            a.eval_float({"a": "1e400"})


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
        # the rational angle (cos, sin) = (3/5, 4/5) needs no reduction
        c, s = Fraction(3, 5), Fraction(4, 5)
        rotated = (X ** 2 + Y ** 2).subs({"x": c * X + s * Y,
                                          "y": -s * X + c * Y})
        assert rotated == X ** 2 + Y ** 2

    def test_first_constant_vanishes(self):
        d1 = 2 * (Poly.var("a") + Poly.var("c"))
        assert d1.subs({"c": -Poly.var("a")}).is_zero

    def test_shift(self):
        assert (X ** 2).subs({"x": X + 1}) == X ** 2 + 2 * X + 1


KNOWN_ORDER = "xyabcdefgh"


def variable_rank(name):
    """x, y, a..h in that order, then any other symbol alphabetically."""
    return (0, KNOWN_ORDER.index(name)) if name in KNOWN_ORDER else (1, name)


def plain_product(m1, m2):
    """The product of two canonical monomials, merged and sorted afresh."""
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items(), key=lambda pair: variable_rank(pair[0])))


monomials = st.dictionaries(
    st.sampled_from(list(KNOWN_ORDER) + ["alpha", "k", "uv", "z"]),
    st.integers(1, 6), max_size=5).map(lambda d: plain_product((), d.items()))


class TestProductMemo:
    """`_mono_mul` merges each pair of nonempty monomials once, in a memo of
    at most `_MEMO_SIZE` products that shares its (variable, exponent)
    pairs."""

    @seed(23)
    @settings(max_examples=300, deadline=None)
    @given(monomials, monomials)
    def test_equals_the_plain_merge(self, m1, m2):
        want = plain_product(m1, m2)
        assert qpoly._mono_mul(m1, m2) == want
        assert qpoly._mono_mul(m1, m2) == want  # now from the memo
        if not m1 or not m2:
            assert qpoly._mono_mul(m1, m2) is (m2 if not m1 else m1)

    def test_bounded_and_right_after_a_reset(self):
        clear_product_memo()
        size = qpoly._MEMO_SIZE
        pairs = [((("x", i),), (("y", 1), ("z", i))) for i in range(1, size + 100)]
        for m1, m2 in pairs:
            qpoly._mono_mul(m1, m2)
            assert len(qpoly._PRODUCTS) <= size
        assert len(qpoly._PRODUCTS) == 99  # cleared once, when full
        for m1, m2 in pairs[:3] + pairs[-3:]:
            assert qpoly._mono_mul(m1, m2) == plain_product(m1, m2)

    def test_equal_pairs_are_one_object(self):
        clear_product_memo()
        p = qpoly._mono_mul((("x", 1),), (("a", 2),))
        q = qpoly._mono_mul((("x", 1), ("b", 1)), (("a", 2), ("k", 3)))
        assert p == (("x", 1), ("a", 2))
        assert q == (("x", 1), ("a", 2), ("b", 1), ("k", 3))
        assert p[0] is q[0] and p[1] is q[1]
        # and so are those of the keys of a Poly product
        (m,) = (Poly.var("a", 2) * X).terms
        assert m == p and m[0] is p[0] and m[1] is p[1]


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


form_entries = st.one_of(st.just(0), coeffs, polys(vars=("a", "b"), max_terms=3))
dyadic = st.integers(-8, 8).map(lambda n: n / 4)  # floats whose products are exact


def forms_of(entries):
    return st.integers(0, 5).flatmap(
        lambda k: st.lists(entries, min_size=k + 1, max_size=k + 1))


def subs_form(form, lx, ly):
    """substitute_form's polynomial by Poly.subs on the whole form."""
    (a, b), (c, d) = [as_poly(v) for v in lx], [as_poly(v) for v in ly]
    return form_poly(form).subs({"x": a * X + b * Y, "y": c * X + d * Y})


class TestForms:
    def test_split(self):
        a = Poly.var("a")
        p = Y + X * (a * X ** 2) + 3 * X * Y ** 2 + (a + 2) * Y ** 3
        assert p.forms() == {1: [0, 1], 3: [a, 0, 3, a + 2]}
        assert [type(c) for c in p.forms()[3]] == [Poly, int, Fraction, Poly]

    def test_zero(self):
        assert Poly.zero().forms() == {}

    def test_round_trip(self, rng):
        for _ in range(25):
            p = random_poly(rng)
            forms = p.forms()
            assert list(forms) == sorted(forms)
            total = Poly.zero()
            for k, form in forms.items():
                assert len(form) == k + 1
                assert all(c == 0 or isinstance(c, Fraction) or c.variables()
                           for c in form)
                assert form_poly(form).forms() == {k: form}
                total = total + form_poly(form)
            assert total == p

    @seed(13)
    @settings(max_examples=60, deadline=None)
    @given(forms_of(form_entries), st.lists(form_entries, min_size=4, max_size=4))
    def test_substitute_matches_subs(self, form, m):
        out = substitute_form(form, m[:2], m[2:])
        assert len(out) == len(form)
        assert form_poly(out) == subs_form(form, m[:2], m[2:])

    @seed(14)
    @settings(max_examples=60, deadline=None)
    @given(forms_of(dyadic), st.lists(dyadic, min_size=4, max_size=4))
    def test_substitute_floats_matches_subs(self, form, m):
        out = substitute_form(form, m[:2], m[2:])
        assert all(type(c) is float for c in out)
        form, m = [Fraction(v) for v in form], [Fraction(v) for v in m]
        assert form_poly([Fraction(c) for c in out]) == subs_form(form, m[:2], m[2:])


class TestToFloat:
    def test_in_range(self):
        assert to_float(Fraction(1, 3)) == 1 / 3
        assert to_float(Fraction(1, 10 ** 400)) == 0.0

    @pytest.mark.parametrize("value, text", [
        (Fraction(10 ** 400), "1E+400"),
        (Fraction(-10 ** 400), "-1E+400"),
        (Fraction(10 ** 800, 10 ** 400 - 1), "1E+400"),
        (Fraction(2 ** 1024), "1.79769E+308"),
        (Fraction(-10 ** 400, 7), "-1.42857E+399"),
    ])
    def test_beyond_range_named(self, value, text):
        message = f"coefficient {text} is beyond the float range"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            to_float(value)

    def test_eval_float_converts_by_to_float(self):
        p = Poly.const(10 ** 400) * X + 1
        with pytest.raises(ValueError, match=r"^coefficient 1E\+400 is beyond"):
            p.eval_float({"x": 1.0})

    def test_beyond_decimal_emax(self, beyond_decimal_emax):
        with pytest.raises(ValueError, match=r"coefficient 1E\+1000001 is beyond"):
            to_float(beyond_decimal_emax)
        with pytest.raises(ValueError, match=r"coefficient 3.33333E\+1000000 is"):
            to_float(beyond_decimal_emax / 3)


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

    def test_nesting_cap(self):
        assert parse_expr("(" * 50 + "x" + ")" * 50) == X
        assert parse_expr("-" * 50 + "x") == X
        assert parse_expr("-(" * 50 + "y" + ")" * 50) == Y
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_expr("-" * 50 + "(" * 51 + "x" + ")" * 51)

    def test_digit_cap(self):
        nines = "9" * MAX_DIGITS
        assert parse_expr(nines) == Poly.const(10 ** MAX_DIGITS - 1)
        assert parse_expr(f"1/{nines}") == Poly.const(Fraction(1, 10 ** MAX_DIGITS - 1))
        for text, pos in ((f"x^{nines}9", 2), (f"1 + {nines}9*x", 4),
                          (f"x + 1/{nines}9", 6)):
            with pytest.raises(ParseError, match=rf"integer literal too long \(at position {pos}\)"):
                parse_expr(text)

    @pytest.mark.parametrize("text, message, pos", [
        ("x^\u00b2", "expected an unsigned integer", 2),      # superscript two
        ("\u0663*x", "expected a factor", 0),                 # Arabic-Indic three
        ("x + 1/\u0663", "expected an unsigned integer", 6),
        ("x + 1\u0663", "unexpected character", 5),
    ])
    def test_only_ascii_digits(self, text, message, pos):
        with pytest.raises(ParseError, match=rf"{message}.*\(at position {pos}\)"):
            parse_expr(text)

    def test_term_cap(self):
        names = ["".join(pair) for pair in itertools.product("abcdefghij", repeat=2)]
        # 100 x 100 term pairs is exactly the cap
        left = " + ".join(names)
        right = " + ".join(n.upper() for n in names)
        assert len(parse_expr(f"({left})*({right})").terms) == MAX_TERMS
        with pytest.raises(ParseError, match="more than 10000 terms"):
            parse_expr(f"({left} + z)*({right})")

    def test_degree_cap(self):
        assert parse_expr(f"x^{MAX_DEGREE}") == Poly.var("x", MAX_DEGREE)
        assert parse_expr("x^50*y^40*(a^5 + b^10)").degree_in(
            ("x", "y", "a", "b")) == MAX_DEGREE
        for text in (f"x^{MAX_DEGREE + 1}", "x^60*y^41",
                     "x^50*y^40*(a^5 + b^11)", "*".join(["x"] * 101)):
            with pytest.raises(ParseError, match="degree above 100"):
                parse_expr(text)

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


class TestInputErrors:
    @pytest.mark.parametrize("call, error, message", [
        (lambda: Poly({(): 0.5}), TypeError, "cannot use float as a coefficient"),
        (lambda: Poly.var("x", -1), ValueError, "negative exponent"),
        (lambda: Poly().leading_term(), ValueError,
         "zero polynomial has no leading term"),
        (lambda: RationalFunction(X, 0), ZeroDivisionError,
         "zero denominator in rational function"),
        (lambda: divide_exact(X, Poly()), ZeroDivisionError,
         "division by the zero polynomial"),
        (lambda: parse_expr("(x + 1"), ParseError, "expected ')' (at position 6)"),
        (lambda: parse_expr("1/0"), ParseError, "zero denominator (at position 3)"),
    ], ids=["float-coefficient", "negative-exponent", "zero-leading-term",
            "zero-denominator-function", "divide-by-zero", "unclosed-paren",
            "zero-denominator-literal"])
    def test_raises(self, call, error, message):
        with pytest.raises(error) as exc:
            call()
        assert str(exc.value) == message


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


# ----------------------------------------------------------------------
# term order: byte-stable printing and build_system's pinned term order rely on
# the insertion order of `.terms`, so the ring ops are compared, order
# included, with plain copies of the earlier algorithms kept here

ORDER = ("x", "y", "a", "b", "c", "d", "e", "f", "g", "h")


def ref_mono(pairs):
    merged = {}
    for v, e in pairs:
        if e:
            merged[v] = merged.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in merged.items() if e),
                        key=lambda p: ((0, ORDER.index(p[0])) if p[0] in ORDER
                                       else (1, p[0]))))


def ref_add(t1, t2):
    out = dict(t1)
    for m, c in t2.items():
        s = out.get(m, Fraction(0)) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def ref_mul(t1, t2):
    out = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            m = m2 if not m1 else m1 if not m2 else ref_mono(list(m1) + list(m2))
            s = out.get(m, Fraction(0)) + c1 * c2
            if s:
                out[m] = s
            elif m in out:
                del out[m]
    return out


def ref_pow(t, n):
    result, base = {(): Fraction(1)}, t
    while n:
        if n & 1:
            result = ref_mul(result, base)
        base = ref_mul(base, base)
        n >>= 1
    return result


def ref_subs(t, bindings):
    total = {}
    for m, c in t.items():
        term = {(): c}
        for v, e in m:
            base = bindings.get(v)
            term = ref_mul(term, ref_pow(base, e) if base is not None
                           else {((v, e),): Fraction(1)})
        total = ref_add(total, term)
    return total


def ref_diff(t, var):
    out = {}
    for m, c in t.items():
        d = dict(m)
        e = d.get(var, 0)
        if not e:
            continue
        d[var] = e - 1
        out[ref_mono(d.items())] = out.get(ref_mono(d.items()), Fraction(0)) + c * e
    return {m: c for m, c in out.items() if c}


# ranked symbols and two that rank after them (u as in case (iii), s as in
# the reversibility slope)
SYMBOLS = ORDER + ("u", "s")


@st.composite
def ordered_polys(draw, n):
    """n polys over one draw of three symbols, with terms in drawn order.

    Exponents up to 2 and coefficients +-1, +-2 keep the monomial pool small,
    so sums and products cancel terms and later terms bring them back.
    """
    names = draw(st.lists(st.sampled_from(SYMBOLS), min_size=3, max_size=3,
                          unique=True))
    mono = st.lists(st.tuples(st.sampled_from(names), st.integers(1, 2)),
                    max_size=2).map(ref_mono)
    coeff = st.sampled_from([Fraction(c) for c in (-2, -1, 1, 2)])
    out = []
    for _ in range(n):
        terms = {}
        for m, c in draw(st.lists(st.tuples(mono, coeff), max_size=6)):
            terms[m] = c
        out.append(Poly(terms))
    return names, out


def items(p):
    return list(p.terms.items())


class TestTermOrder:
    """Every ring op gives the terms of the earlier algorithms, in their order."""

    @seed(21)
    @settings(max_examples=100, deadline=None)
    @given(ordered_polys(3))
    def test_add(self, drawn):
        _, (p, q, r) = drawn
        # q cancels part of p, r brings some of those monomials back
        part = Poly(dict(list(p.terms.items())[::2]))
        assert items(p + q) == list(ref_add(p.terms, q.terms).items())
        got = p - part + q + r + p
        want = ref_add(ref_add(ref_add(ref_add(p.terms, (-part).terms),
                                       q.terms), r.terms), p.terms)
        assert items(got) == list(want.items())

    @seed(22)
    @settings(max_examples=100, deadline=None)
    @given(ordered_polys(2))
    def test_mul(self, drawn):
        _, (p, q) = drawn
        assert items(p * q) == list(ref_mul(p.terms, q.terms).items())
        # (p + q)(p - q): the cross terms cancel
        s, d = p + q, p - q
        assert items(s * d) == list(ref_mul(s.terms, d.terms).items())

    @seed(25)
    @settings(max_examples=50, deadline=None)
    @given(ordered_polys(1))
    def test_int_scalar(self, drawn):
        _, (p,) = drawn
        for n in (0, 1, -1, 7, -7, 10 ** 30):
            want = list(ref_mul(p.terms, {(): Fraction(n)}).items())
            for got in (p * n, n * p):
                assert items(got) == want
                assert all(type(c) is Fraction for c in got.terms.values())
            # integer coefficients stay int
            assert all(type(c) is int for c in (p // 1 * n).terms.values())

    @seed(26)
    @settings(max_examples=50, deadline=None)
    @given(ordered_polys(1))
    def test_floordiv_of_a_multiple(self, drawn):
        _, (p,) = drawn
        for n in (1, -1, 7, -7, 10 ** 30):
            assert items(p * n // n) == items(p)
            assert items(p // 1 * n // n) == items(p)

    @seed(23)
    @settings(max_examples=100, deadline=None)
    @given(ordered_polys(3))
    def test_subs(self, drawn):
        (v, w, _), (p, q, r) = drawn
        # q and r may hold v and w themselves: the substitution is simultaneous
        got = p.subs({v: q, w: r})
        want = ref_subs(p.terms, {v: q.terms, w: r.terms})
        assert items(got) == list(want.items())
        assert items(p.subs({v: 0})) == list(ref_subs(p.terms, {v: {}}).items())

    @seed(24)
    @settings(max_examples=100, deadline=None)
    @given(ordered_polys(1))
    def test_diff(self, drawn):
        names, (p,) = drawn
        for v in names + ["x"]:
            assert items(p.diff(v)) == list(ref_diff(p.terms, v).items())


GENS = sympy.symbols("x y a b") if sympy else ()


def to_sympy(p):
    """The sympy expression of a Poly, built term by term."""
    return sympy.Add(*(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(sympy.Symbol(v) ** e for v, e in m))
        for m, c in p.terms.items()))


def same(expr, p):
    """Do a sympy expression and a Poly expand to the same polynomial?"""
    return sympy.Poly(expr, *GENS) == sympy.Poly(to_sympy(p), *GENS)


@pytest.mark.skipif(sympy is None, reason="needs sympy")
class TestSympyOracle:
    """qpoly against sympy.expand and sympy's polynomial division."""

    @seed(11)
    @settings(max_examples=15, deadline=None)
    @given(polys(), polys())
    def test_mul(self, p, q):
        assert same(sympy.expand(to_sympy(p) * to_sympy(q)), p * q)

    @seed(12)
    @settings(max_examples=15, deadline=None)
    @given(polys(), polys(max_terms=2, max_exp=2), polys(max_terms=2, max_exp=2))
    def test_subs(self, p, q, r):
        # simultaneous: x -> q and a -> r, with q and r free to contain x, a
        x, a = sympy.Symbol("x"), sympy.Symbol("a")
        expected = to_sympy(p).xreplace({x: to_sympy(q), a: to_sympy(r)})
        assert same(sympy.expand(expected), p.subs({"x": q, "a": r}))

    @seed(13)
    @settings(max_examples=15, deadline=None)
    @given(polys(), polys(), st.fractions(min_value=-9, max_value=9, max_denominator=4))
    def test_divide_exact(self, p, q, c):
        if q.is_zero:
            return
        quo, rem = sympy.div(to_sympy(p * q), to_sympy(q), *GENS)
        assert rem == 0 and same(quo, divide_exact(p * q, q))
        if c and q.variables():
            # p q + c is no multiple of a nonconstant q
            _, rem = sympy.div(to_sympy(p * q + c), to_sympy(q), *GENS)
            assert rem != 0 and divide_exact(p * q + c, q) is None

    @seed(14)
    @settings(max_examples=15, deadline=None)
    @given(polys(), polys())
    def test_divide_exact_decides_divisibility(self, p, q):
        if q.is_zero:
            return
        quo, rem = sympy.div(to_sympy(p), to_sympy(q), *GENS)
        got = divide_exact(p, q)
        assert (got is None) == (rem != 0)
        if got is not None:
            assert same(quo, got)

    @seed(15)
    @settings(max_examples=15, deadline=None)
    @given(polys())
    def test_canonical(self, p):
        if p.is_zero:
            assert p.canonical().is_zero
            return
        # sympy's content is positive and its primitive part keeps the sign
        content, primitive = sympy.primitive(to_sympy(p), *GENS)
        assert content > 0 and same(primitive, p.canonical())

    @seed(16)
    @settings(max_examples=15, deadline=None)
    @given(polys())
    def test_print_parse_round_trip(self, p):
        text = str(p)
        assert parse_expr(text) == p
        assert same(sympy.parse_expr(text.replace("^", "**")), p)
