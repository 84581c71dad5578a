import dataclasses
import math
import re
from fractions import Fraction

import pytest

from isoquintic.qpoly import (Poly, QPolyError, as_poly, divide_exact,
                              form_poly, parse_expr)
from isoquintic import lyapunov, orbits, quintic, structure
from isoquintic.quintic import (
    QuinticParams, QuinticError, CaseTag,
    build_system, family_forms, reduced_conditions,
    theorem_case, classify, case_substitution,
    vanishes_under_case, commuting_partner, first_integral,
    rotate_to_canonical, case_i_quartic,
)
from isoquintic.lyapunov import LyapunovError, pl_constants
from conftest import (CASE_I_BTYPES, CASE_I_Q, CASE_I_SYMBOLIC,
                      CASE_II_SYMBOLIC, CASE_II_U, X, Y, b_type, case_i_point,
                      case_iii_fgh, case_iii_point, case_iii_symbolic,
                      composes, eg_rule, expected_classification, first_hit,
                      numeric, on_stratum, quartic_mean_is_r2_over_8,
                      radial_factor, random_point, requires_numpy, rotate,
                      rotate_form, turn)


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


def seeded_params(rnd):
    """Parameters with zero entries, integers, rationals, symbols, and
    Poly values: constant, zero, and sums in the other symbols."""
    d, h = Poly.var("d"), Poly.var("h")
    values = [0, 0, 1, -2, Fraction(3, 7), Fraction(-10 ** 6, 999_999),
              "a", "e", "u", Poly.const(Fraction(5, 2)), Poly.zero(),
              -3 * (d + h), Poly.var("b") * Poly.var("g") + 1]
    return QuinticParams(*(rnd.choice(values) for _ in quintic.PARAM_NAMES))


class TestBuildOnForms:
    """`build_system` on `family_forms` against the construction
    (y + x P, -x + y P) with P from `radial_factor`."""

    @staticmethod
    def check(params):
        P = radial_factor(params)
        sysm = build_system(params)
        for got, want in ((sysm.p, Y + X * P), (sysm.q, -X + Y * P)):
            assert list(got.terms.items()) == list(want.terms.items())
            assert ([type(c) for c in got.terms.values()]
                    == [type(c) for c in want.terms.values()])
        nonzero = [{k: c for k, c in forms.items() if any(c)}
                   for forms in family_forms(params)]
        assert nonzero == [sysm.p.forms(), sysm.q.forms()]

    def test_symbolic(self):
        self.check(QuinticParams.symbolic())

    def test_seeded(self, rng):
        for _ in range(200):
            self.check(seeded_params(rng))
        for _ in range(100):
            self.check(QuinticParams.numeric(*(
                Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                for _ in quintic.PARAM_NAMES)))

    @pytest.mark.parametrize("value", ["x", "y", Poly.var("a") * Y])
    def test_state_variable_rejected(self, value):
        with pytest.raises(QuinticError, match="uses the variables x, y"):
            build_system(QuinticParams(value, 0, 0, 0, 0, 0, 0, 0))


class TestParams:
    """`QuinticParams` checks a..h once, on construction."""

    def test_fields_are_fractions_or_parameter_polys(self, rng):
        for _ in range(200):
            params = seeded_params(rng)
            for n in quintic.PARAM_NAMES:
                v = getattr(params, n)
                assert type(v) is Fraction or (
                    isinstance(v, Poly) and v.variables()
                    and not v.variables() & {"x", "y"})
            assert params.is_numeric == all(
                type(getattr(params, n)) is Fraction for n in quintic.PARAM_NAMES)

    def test_fraction_kept(self):
        half = Fraction(1, 2)
        assert QuinticParams(half, 0, 0, 0, 0, 0, 0, 0).a is half

    @pytest.mark.parametrize("value", ["x", "y", Poly.var("a") * Y + 1])
    @pytest.mark.parametrize("name", quintic.PARAM_NAMES)
    def test_state_variable_rejected_on_construction(self, name, value):
        """So `reduced_conditions`, `commuting_partner` and
        `rotate_to_canonical` never read x or y as a parameter."""
        kw = dict.fromkeys(quintic.PARAM_NAMES, 0)
        kw[name] = value
        with pytest.raises(QuinticError, match="uses the variables x, y"):
            QuinticParams(**kw)

    def test_text_read_by_as_poly(self):
        """A run of letters is a symbol and anything else a rational."""
        params = QuinticParams("1/2", " b ", "-0.25", "1e-3", 0, 0, 0, 0)
        assert (params.a, params.b, params.c, params.d) == (
            Fraction(1, 2), Poly.var("b"), Fraction(-1, 4), Fraction(1, 1000))

    @pytest.mark.parametrize("text, message", [
        ("", "malformed rational ''"),
        ("x y", "malformed rational 'x y'"),
        ("2a", "malformed rational '2a'"),
        ("1e10000000", "exponent above 4300 in '1e10000000'"),
    ])
    def test_unreadable_text_rejected(self, text, message):
        with pytest.raises(QPolyError, match=f"^{message}$"):
            QuinticParams(0, 0, 0, 0, text, 0, 0, 0)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("name", ["a", "h"])
    def test_non_finite_float_rejected(self, name, value):
        """Fraction raises a bare OverflowError or ValueError on these."""
        kw = dict.fromkeys(quintic.PARAM_NAMES, 0)
        kw[name] = value
        with pytest.raises(QuinticError, match=f"^parameter {name} = {value!r} "
                                               f"is not a finite number$"):
            QuinticParams(**kw)

    @pytest.mark.parametrize("value", [None, 1j, [1]], ids=["None", "1j", "list"])
    @pytest.mark.parametrize("name", ["a", "h"])
    def test_non_number_rejected(self, name, value):
        """Fraction raises a bare TypeError on these, naming no field."""
        kw = dict.fromkeys(quintic.PARAM_NAMES, 0)
        kw[name] = value
        with pytest.raises(QuinticError, match="^" + re.escape(
                f"parameter {name} = {value!r} is not a number, a Poly or text")
                + "$"):
            QuinticParams(**kw)

    def test_numeric_reads_like_the_constructor(self):
        params = QuinticParams.numeric("1/2", 0.25, 3, Fraction(1, 3), 0, 0, 0, 0)
        assert params == QuinticParams(Fraction(1, 2), Fraction(1, 4), 3,
                                       Fraction(1, 3), 0, 0, 0, 0)
        # Fraction reads U+0661 ARABIC-INDIC DIGIT ONE as 1
        with pytest.raises(QPolyError, match="malformed rational"):
            QuinticParams.numeric("\u0661", 0, 0, 0, 0, 0, 0, 0)
        with pytest.raises(QuinticError, match="not fully numeric"):
            QuinticParams.numeric("a", 0, 0, 0, 0, 0, 0, 0)

    def test_symbolic_not_classified(self):
        with pytest.raises(QuinticError, match="not fully numeric"):
            classify(QuinticParams.symbolic())
        with pytest.raises(QuinticError, match="not fully numeric"):
            orbits.center_type(QuinticParams(0, 0, 0, "d", 0, 0, 0, 0),
                               quintic.CenterCase(CaseTag.CASE_I))


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

class TestCaseIII:
    def test_hand_example(self):
        assert case_iii_fgh(1, 2, 1, 1) == (Fraction(-3), Fraction(1),
                                            Fraction(0))

    def test_requires_nonzero_a(self):
        with pytest.raises(QuinticError):
            case_iii_fgh(0, 1, 1, 1)

    def test_satisfies_relations(self, rng):
        rels = reduced_conditions(QuinticParams.symbolic())
        for _ in range(50):
            a = Fraction(rng.choice([v for v in range(-5, 6) if v]))
            b, d, e = (Fraction(rng.randint(-5, 5)) for _ in range(3))
            params = case_iii_point(a, b, d, e)
            pt = {n: getattr(params, n) for n in quintic.PARAM_NAMES}
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
        assert case == quintic.CenterCase(CaseTag.CASE_III)

    def test_case_iii_with_quartic(self):
        assert theorem_case(case_iii_point(1, 2, 1, 1)).tag is CaseTag.CASE_III

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

    @pytest.mark.parametrize("m, error", [(0, ValueError), (7, LyapunovError)])
    def test_m_checked_before_center(self, m, error):
        with pytest.raises(error):
            classify(numeric(b=1, e=2, g=3), m=m)


def focus_point(rnd, k, height, den):
    """A seeded point whose first nonzero constant is D_k: D_1..D_(k-1)
    are made to vanish through `reduced_conditions`, and a draw is kept only
    when the full report agrees and no center case applies."""
    while True:
        params = QuinticParams(**on_stratum(random_point(rnd, height, den),
                                            k - 1))
        if (theorem_case(params) is None and pl_constants(
                build_system(params), 4).first_nonzero_index == k):
            return params


def center_point(rnd, tag, height=9, den=3):
    v = random_point(rnd, height, den)
    if tag is CaseTag.CASE_I:
        v.update(a=0, b=0, c=0, f=-3 * (v["d"] + v["h"]))
    elif tag is CaseTag.CASE_II:
        v.update(a=0, c=0, d=0, f=0, h=0, b=v["b"] or 1)
    else:
        v["a"] = v["a"] or 1
        v["c"] = -v["a"]
        v["f"], v["g"], v["h"] = case_iii_fgh(v["a"], v["b"], v["d"], v["e"])
    return QuinticParams(**v)


class TestClassifyAgainstFullReport:
    """`classify`, which stops at the first nonzero constant, against the
    first nonzero index and sign of the full `pl_constants` report."""

    @staticmethod
    def verdict(params, m):
        return classify(params, m), pl_constants(build_system(params), m)

    @pytest.mark.parametrize("height, den", [(9, 3), (10 ** 6, 10 ** 6)])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_focus(self, rng, k, height, den):
        for _ in range(6):
            params = focus_point(rng, k, height, den)
            m = rng.randint(k, lyapunov.CAP)
            got, report = self.verdict(params, m)
            assert report.first_nonzero_index == k
            assert got == expected_classification(k, report.sign, m)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_undetermined_below_k(self, rng, k):
        for height, den in ((9, 3), (10 ** 6, 10 ** 6)):
            params = focus_point(rng, k, height, den)
            for m in range(1, k):
                got, report = self.verdict(params, m)
                assert got == expected_classification(k, None, m)
                assert report.first_nonzero_index is None

    @pytest.mark.parametrize("tag", list(CaseTag))
    def test_center(self, rng, tag):
        for _ in range(4):
            params = center_point(rng, tag)
            got, report = self.verdict(params, 4)
            assert got == expected_classification(None, None, 4, tag)
            assert report.first_nonzero_index is None
            assert all(d.is_zero for d in report.raw)


def explicit_case(v):
    """The three center cases as the paper states them, matched in the
    order (i), (ii), (iii): the oracle for the case `classify` reads off R."""
    a, b, c, d, e, f, g, h = (v[n] for n in quintic.PARAM_NAMES)
    if a == b == c == 0 and f == -3 * (d + h):
        return CaseTag.CASE_I
    if a == c == d == f == h == 0:
        return CaseTag.CASE_II
    if a != 0 and c == -a and (f, g, h) == case_iii_fgh(a, b, d, e):
        return CaseTag.CASE_III
    return None


def stratum_point(rnd):
    """A point of height at most 3, zeros allowed, on a random stratum:
    a = c = 0, b = 0 and d = h = 0 are each imposed with probability 1/2,
    then c = -a and f = -3 (d + h).  With a != 0, R_3 = 0 is imposed
    through e, or all of case (iii) through (f, g, h), now and then."""
    v = random_point(rnd, 3, 3)
    for zeros in ("ac", "b", "dh"):
        if rnd.random() < 0.5:
            v.update(dict.fromkeys(zeros, Fraction(0)))
    if rnd.random() < 0.5:
        v["c"] = -v["a"]
    if rnd.random() < 0.5:
        v["f"] = -3 * (v["d"] + v["h"])
    if v["a"] and rnd.random() < 0.2:
        v = on_stratum(v, 3)
    elif v["a"] and rnd.random() < 0.1:
        v["c"] = -v["a"]
        v["f"], v["g"], v["h"] = case_iii_fgh(v["a"], v["b"], v["d"], v["e"])
    return v


class TestStratumSweep:
    """`classify` against one full `pl_constants` report on 1000 seeded
    stratum points, where R and D_1..D_6 vanish often: the report is a
    second derivation of every verdict, and each center also meets the
    explicit statement of its case."""

    def test_classify_matches_full_report(self, rng):
        seen = set()
        for _ in range(1000):
            v = stratum_point(rng)
            params = QuinticParams(**v)
            report = pl_constants(build_system(params), lyapunov.CAP)
            k = report.first_nonzero_index
            for m in range(1, lyapunov.CAP + 1):
                got = classify(params, m)
                assert got == expected_classification(
                    k, report.sign, m, explicit_case(v)), v
            if k is None:
                assert all(d.is_zero for d in report.raw), v
                seen.add(got.case.tag)
            else:
                assert explicit_case(v) is None, v
                seen.add((k, report.sign))
        assert seen == ({(k, s) for k in range(1, 5)
                         for s in ("positive", "negative")} | set(CaseTag))


class TestClassifyWork:
    """classify and theorem_case read R alone: on numeric parameters they
    solve no Lyapunov stage and form no Poly product."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"stages": 0, "mul": 0}
        solve, mul = lyapunov._solve_stage, Poly.__mul__

        def counted_solve(*args):
            counts["stages"] += 1
            return solve(*args)

        def counted_mul(self, other):
            counts["mul"] += 1
            return mul(self, other)

        monkeypatch.setattr(lyapunov, "_solve_stage", counted_solve)
        monkeypatch.setattr(Poly, "__mul__", counted_mul)
        monkeypatch.setattr(Poly, "__rmul__", counted_mul)
        return counts

    @staticmethod
    def run(counts, params, m):
        """classify(params, m) and theorem_case(params), counted from 0."""
        counts.update(stages=0, mul=0)
        got = classify(params, m), theorem_case(params)
        assert counts == {"stages": 0, "mul": 0}
        return got

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_focus(self, rng, counts, k):
        params = focus_point(rng, k, 10 ** 6, 10 ** 6)
        verdict, case = self.run(counts, params, 6)
        assert (verdict.focus_index, case) == (k, None)

    @pytest.mark.parametrize("tag", list(CaseTag))
    def test_center(self, rng, counts, tag):
        params = center_point(rng, tag)
        verdict, case = self.run(counts, params, 4)
        assert verdict.kind == "center" and case.tag is tag

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_undetermined(self, rng, counts, m):
        params = focus_point(rng, 4, 9, 3)
        verdict, case = self.run(counts, params, m)
        assert (verdict, case) == (expected_classification(4, None, m), None)


FLIP = {"positive": "negative", "negative": "positive"}


def reflect(params):
    """The image under (x, y, t) -> (x, -y, -t): P -> -P(x, -y), which
    negates a, c, d, f and h, and turns a stable focus into an unstable
    one."""
    return QuinticParams(*(-getattr(params, n) if n in "acdfh"
                           else getattr(params, n)
                           for n in quintic.PARAM_NAMES))


def scale(params, lam):
    """The image under (x, y) -> lam (x, y): P -> P(lam x, lam y), which
    scales (a, b, c) by lam^2 and d..h by lam^4."""
    v = [getattr(params, n) for n in quintic.PARAM_NAMES]
    return QuinticParams(*(lam ** 2 * x for x in v[:3]),
                         *(lam ** 4 * x for x in v[3:]))


def symmetry_images(rnd, params):
    """(name, image, does a focus sign flip) for four maps that take the
    family to itself: a..h times a seeded lambda > 0, which scales R_k by
    lambda^deg; `scale` by 2/3; `reflect`; and the rotation
    x -> (3x - 4y)/5, y -> (4x + 3y)/5, `rotate` at k = -1/2."""
    lam = Fraction(rnd.randint(1, 10 ** 6), rnd.randint(1, 10 ** 6))
    yield "homogeneity", QuinticParams(*(
        lam * getattr(params, n) for n in quintic.PARAM_NAMES)), False
    yield "scaling", scale(params, Fraction(2, 3)), False
    yield "reflection", reflect(params), True
    yield "rotation", rotate(params, Fraction(-1, 2)), False


HEIGHTS = [(9, 3), (10 ** 6, 10 ** 6), (10 ** 30, 10 ** 30)]


class TestClassifySymmetries:
    """Under each map of `symmetry_images`, at every m, the kind, case and
    index of `classify` stay, and so does the focus sign unless the map
    flips it.  The rotation may move a center between cases (ii) and (iii),
    which `classify` tells apart by a != 0, no rotation invariant; case (i),
    a zero quadratic part, stays."""

    @staticmethod
    def check(rnd, params):
        for m in range(1, lyapunov.CAP + 1):
            base = classify(params, m)
            for name, image, flips in symmetry_images(rnd, params):
                if name == "rotation" and base.kind == "center":
                    got = classify(image, m)
                    assert got.kind == "center", (name, m, params)
                    assert ((got.case.tag is CaseTag.CASE_I)
                            == (base.case.tag is CaseTag.CASE_I)), (
                        name, m, params)
                    continue
                want = base
                if flips and base.kind == "focus":
                    want = dataclasses.replace(
                        base, focus_sign=FLIP[base.focus_sign])
                assert classify(image, m) == want, (name, m, params)

    @pytest.mark.parametrize("height, den", HEIGHTS)
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_focus(self, rng, k, height, den):
        for _ in range(4):
            params = focus_point(rng, k, height, den)
            assert classify(params).focus_index == k
            self.check(rng, params)

    @pytest.mark.parametrize("height, den", HEIGHTS)
    @pytest.mark.parametrize("tag", list(CaseTag))
    def test_center(self, rng, tag, height, den):
        for _ in range(3):
            params = center_point(rng, tag, height, den)
            assert classify(params).case.tag is tag
            self.check(rng, params)

    def test_mixed_points(self, rng):
        """`mixed_point`'s draws, where every R_k comes first and each case
        of center occurs."""
        for _ in range(200):
            self.check(rng, QuinticParams(**mixed_point(rng)))


class TestExactSymmetries:
    """The full constants, the certificates and the B-type of a point,
    against those of its exact images under `rotate`, `reflect` and
    `scale`."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_first_nonzero_constant(self, rng, k):
        """The first nonzero D_k keeps its index under a rotation and the
        reflection, and its sign, which the reflection flips.  D_k itself
        is no rotation invariant past D_1."""
        for _ in range(3):
            params = focus_point(rng, k, 9, 3)
            sign = pl_constants(build_system(params), 4).sign
            for image, want in ((rotate(params, turn(rng)), sign),
                                (reflect(params), FLIP[sign])):
                report = pl_constants(build_system(image), 4)
                assert (report.first_nonzero_index, report.sign) == (k, want)

    def test_scaling_multiplies_each_constant(self, rng):
        """(x, y) -> lam (x, y) multiplies every raw D_k by lam^(2k)."""
        for _ in range(10):
            params = QuinticParams(**random_point(rng, 9, 3))
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            base = pl_constants(build_system(params), lyapunov.CAP).raw
            image = pl_constants(build_system(scale(params, lam)),
                                 lyapunov.CAP).raw
            assert image == [lam ** (2 * k) * d
                             for k, d in enumerate(base, start=1)]

    @pytest.mark.parametrize("k", [Fraction(-1, 2), 8])
    def test_symbolic_constants_on_their_strata(self, k):
        """As polynomials in a..h: D_1 is rotation invariant, D_2 is on
        D_1 = 0 (c = -a) but not off it, and D_3 is on D_1 = D_2 = 0
        (sigma = {c -> -a, f -> -3d - 3h})."""
        params = QuinticParams.symbolic()
        base = pl_constants(build_system(params), 3).raw
        image = pl_constants(build_system(rotate(params, k)), 3).raw
        a, d, h = (Poly.var(n) for n in "adh")
        sigma = {"c": -a, "f": -3 * (d + h)}
        assert image[0] == base[0] and image[1] != base[1]
        assert image[1].subs({"c": -a}) == base[1].subs({"c": -a})
        assert image[2].subs(sigma) == base[2].subs(sigma)

    @pytest.mark.parametrize("tag", list(CaseTag))
    def test_centers(self, rng, tag):
        """Each image of a center is a center whose `first_integral` and
        `commuting_partner` certify.  The eg-rule of cases (ii) and (iii) is
        exactly invariant, so the B-type stays.  In case (i) only the
        maximizer count is compared, where both sides report one: a
        rotation moves c0 (`test_case_i_quartic_under_rotation`), and with
        it the verdict `Unknown`.  Case (i) adds criterion 10's B4 point."""
        points = [center_point(rng, tag) for _ in range(8)]
        if tag is CaseTag.CASE_I:
            points.append(case_i_point(*CASE_I_BTYPES["B4"][0]))
        seen = set()
        for params in points:
            base = orbits.center_type(params, theorem_case(params))
            lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            for image in (rotate(params, turn(rng)), reflect(params),
                          scale(params, lam)):
                case = theorem_case(image)
                first_integral(image, case)  # raises unless it certifies
                bracket = structure.lie_bracket(
                    build_system(image), commuting_partner(image, case))
                assert all(c.is_zero for c in bracket)
                got = orbits.center_type(image, case)
                if "Unknown" in (got.tag, base.tag):
                    assert tag is CaseTag.CASE_I, image
                    continue
                assert (got.tag, got.evidence) == (base.tag, base.evidence), (
                    image)
                seen.add(got.tag)
        assert seen == {"B2", "B4"}

    def test_case_i_quartic_under_rotation(self, rng):
        """R o M - R' = kappa (x^2 + y^2)^2, where R is the partner quartic
        of a case (i) point and R' that of its image under M: R' is R o M
        with its x^2 y^2 term normalized away.  So the maximizers on the
        circle turn with M, and c0 moves by -kappa.  At (d, e, g, h) =
        (0, -1/2, 1, 1) and k = 8, kappa = 17883936/17850625 takes c0 from
        0.7572 (B2) to -0.2447, which `center_type` reports `Unknown`."""
        d, e, g, h = (Poly.var(n) for n in "degh")
        params = QuinticParams(0, 0, 0, d, e, -3 * (d + h), g, h)
        for k in (8, turn(rng), turn(rng)):
            image = rotate(params, k)
            drift = (form_poly(rotate_form(case_i_quartic(d, e, g, h), k))
                     - form_poly(case_i_quartic(image.d, image.e, image.g,
                                                image.h)))
            kappa = divide_exact(drift, (X ** 2 + Y ** 2) ** 2)
            assert kappa is not None and not kappa.variables() & {"x", "y"}
            if k == 8:
                assert kappa.eval_rational(
                    {"d": 0, "e": Fraction(-1, 2), "g": 1, "h": 1}) == (
                        Fraction(17883936, 17850625))


def mixed_point(rnd):
    """A seeded point whose entries have denominators of mixed size, from 1
    to 10^30, mostly coprime, and are zero one time in four; c = -a,
    f = -3 (d + h) and then R_3 = 0 or all of case (iii) are imposed now
    and then, so that every R_k comes first."""
    def entry():
        if rnd.random() < 0.25:
            return Fraction(0)
        digits = rnd.choice((1, 6, 30))
        return Fraction(rnd.randint(-10 ** digits, 10 ** digits),
                        rnd.randint(1, 10 ** rnd.choice((0, 1, 6, 30))))

    v = {n: entry() for n in quintic.PARAM_NAMES}
    level = 0
    if rnd.random() < 0.6:
        level = 1
        if rnd.random() < 0.6:
            level = 3 if v["a"] and rnd.random() < 0.5 else 2
    v = on_stratum(v, level)
    if v["a"] and rnd.random() < 0.1:
        v["c"] = -v["a"]
        v["f"], v["g"], v["h"] = case_iii_fgh(v["a"], v["b"], v["d"], v["e"])
    return v


class TestClassifyOnIntegers:
    """`classify` clears a..h to integers before it evaluates R; the
    reference is the first nonzero of R evaluated in Fractions, by
    `reduced_conditions`, and a center's case is the paper's statement of
    it, `explicit_case`."""

    def test_matches_fraction_conditions(self, rng):
        seen = set()
        for _ in range(2000):
            v = mixed_point(rng)
            params = QuinticParams(**v)
            index, sign = first_hit(r.constant_value()
                                    for r in reduced_conditions(params))
            m = rng.randint(1, lyapunov.CAP)
            got = classify(params, m)
            assert got == expected_classification(index, sign, m,
                                                  explicit_case(v)), v
            if got.kind == "center":
                seen.add(got.case.tag)
            elif got.kind == "focus":
                seen.add((index, sign))
        assert seen == ({(k, s) for k in range(1, 5) for s in FLIP}
                        | set(CaseTag))


class TestCaseSubstitution:
    def test_nonmember_survives(self):
        assert not vanishes_under_case(Poly.var("d"), CaseTag.CASE_III)
        assert not vanishes_under_case(Poly.var("d"), CaseTag.CASE_I)
        assert not vanishes_under_case(Poly.var("b"), CaseTag.CASE_II)

    def test_bindings_are_polynomials_in_a_b_u_v(self):
        sub = case_substitution(CaseTag.CASE_III)
        assert sorted(sub) == ["c", "d", "e", "f", "g", "h"]
        for value in sub.values():
            assert as_poly(value).variables() <= {"a", "b", "u", "v"}

    def test_case_iii_cleared_relations(self):
        # case_iii_fgh with denominators cleared, and a + c
        for text in ("a + c", "2*a^2*f - 3*b*(a*e - b*d)",
                     "2*a^3*g - 2*a^2*b*d - (2*a^2 - b^2)*(b*d - a*e)",
                     "2*a^2*h + 2*a^2*d - b*(b*d - a*e)"):
            assert vanishes_under_case(parse_expr(text), CaseTag.CASE_III)
        # the case needs a != 0, so a itself survives
        assert not vanishes_under_case(Poly.var("a"), CaseTag.CASE_III)

    def test_case_iii_matches_numeric_formula(self, rng):
        sub = case_substitution(CaseTag.CASE_III)
        for _ in range(20):
            a = Fraction(rng.choice([v for v in range(-4, 5) if v]))
            b, d, e = (Fraction(rng.randint(-4, 4)) for _ in range(3))
            params = case_iii_point(a, b, d, e)
            pt = {"a": a, "b": b, "u": d / a ** 3, "v": e / a ** 3}
            for name in "cdefgh":
                got = as_poly(sub[name]).eval_rational(pt)
                assert got == getattr(params, name)


class TestCommutingPartner:
    def test_case_i_symbolic(self):
        sysm = build_system(CASE_I_SYMBOLIC)
        other = commuting_partner(CASE_I_SYMBOLIC,
                                  quintic.CenterCase(CaseTag.CASE_I))
        assert structure.commutes(sysm, other)
        assert other.p == X * CASE_I_Q  # the expected transversal factor

    def test_case_ii_symbolic(self):
        sysm = build_system(CASE_II_SYMBOLIC)
        other = commuting_partner(CASE_II_SYMBOLIC,
                                  quintic.CenterCase(CaseTag.CASE_II))
        assert structure.commutes(sysm, other)

    def test_case_iii_cubic(self):
        params = numeric(a=1, b=3, c=-1)
        sysm = build_system(params)
        other = commuting_partner(params, theorem_case(params))
        assert structure.commutes(sysm, other)
        assert other.p == X + X * (3 * X ** 2 - 2 * X * Y)

    def test_case_iii_quartic(self):
        # P = (x^2 - y^2)(1 + x^2 + y^2): shift = 0, so C2 = u + u^2
        params = case_iii_point(1, 0, 1, 0)
        other = commuting_partner(params, theorem_case(params))
        assert structure.commutes(build_system(params), other)
        u = X ** 2 + Y ** 2
        assert other.p == X * (u + u ** 2)

    def test_case_ii_without_quartic(self):
        """e = g = 0 with b != 0: u = 0, so Q = 1 + b x^2, not the zero
        C2 = shift + b u + u^2."""
        params = numeric(b=1)
        sysm = build_system(params)
        other = commuting_partner(params, theorem_case(params))
        assert (other.p, other.q) == (X + X ** 3, Y + X ** 2 * Y)
        mu = structure.integrating_factor_from_pair(sysm, other)
        assert mu.den == (X ** 2 + Y ** 2) * (1 + X ** 2)

    @pytest.mark.parametrize("kw, tag", [
        pytest.param(dict(d=1, e=2, f=-3, g=1), CaseTag.CASE_I, id="kw0"),
        pytest.param(dict(a=2, b=3, c=-2), CaseTag.CASE_III, id="kw1"),
        # b = 0 is case (i) too, so Q = 1 + R under either label
        pytest.param(dict(e=2, g=-1), CaseTag.CASE_II, id="case-ii-b0"),
        pytest.param(dict(b=1), CaseTag.CASE_II, id="case-ii-u0"),
    ])
    def test_partner_factor_is_integral_denominator(self, kw, tag):
        params = numeric(**kw)
        case = quintic.CenterCase(tag)
        other = commuting_partner(params, case)
        assert structure.commutes(build_system(params), other)
        den = first_integral(params, case).payload.den
        assert (other.p, other.q) == (X * den, Y * den)


def integral_drift(spec, sysm, x0, y0, n=4):
    """The largest change of the integral `spec` from (x0, y0) to a few
    points along a short numeric orbit, relative to its value there."""
    traj = orbits.integrate(sysm, x0, y0, 1.5)
    base = orbits.integral_value(spec.payload, x0, y0)
    return max(abs(orbits.integral_value(spec.payload, traj.x[i], traj.y[i])
                   - base) for i in (len(traj.t) * k // n
                                     for k in range(1, n))) / abs(base)


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

    def test_beyond_float_range_named(self):
        """integral_value converts by qpoly.to_float, whose ValueError names
        the coefficient, not by float(), which raises OverflowError."""
        params = numeric(e=10 ** 400, g=1)
        spec = first_integral(params, theorem_case(params))
        with pytest.raises(ValueError, match=r"^coefficient 1E\+400 is beyond"):
            orbits.integral_value(spec.payload, 0.1, 0.2)

    def test_case_ii_b0_rational(self):
        params = numeric(e=1, g=-1)
        spec = first_integral(params, quintic.CenterCase(CaseTag.CASE_II))
        assert spec.kind == "rational"
        assert spec.payload.den == 1 + X ** 4 + Y ** 4

    def test_case_ii_generic_exponential(self):
        params = numeric(b=1, e=1, g=-1)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        val = orbits.integral_value(spec.payload, 0.3, 0.1)
        assert math.isfinite(val) and val > 0

    def test_case_ii_equal_eg(self):
        # C3 = exp((1 + b x^2)/(x^2 + y^2)); C1, C2, C3 weigh 2e, -e, b
        params = numeric(b=4, e=2, g=2)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        (_, two_e), (_, minus_e) = spec.payload.algebraic
        (c3, weight), = spec.payload.exponential
        assert isinstance(c3, structure.RationalExponent)
        assert c3.exponent.num == 1 + 4 * X ** 2
        assert c3.cofactor == -4 * X * Y
        assert (two_e, minus_e, weight) == (4, -2, 4)

    def test_case_ii_rescaled(self):
        """b = 4, e = 16, g = -16 is b = 1, e = 1, g = -1 rescaled by
        x -> x/2, y -> y/2; its candidate is written in its own b."""
        params = numeric(b=4, e=16, g=-16)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        (_, two), (c2, minus_one) = spec.payload.algebraic
        (c3, weight), = spec.payload.exponential
        u = 16 * X ** 2 - 16 * Y ** 2
        assert (two, minus_one, weight) == (2, -1, -4)
        assert c2.curve == 32 + 4 * u + u ** 2
        assert (c3.u, c3.shift, c3.b) == (u, 32, 4)

    def test_case_ii_symbolic_b(self):
        spec = first_integral(CASE_II_SYMBOLIC,
                              quintic.CenterCase(CaseTag.CASE_II))
        assert spec.kind == "darboux-exp"
        assert spec.payload.exponential[0][1] == -Poly.var("b")

    @pytest.mark.parametrize("b", [2 * 10 ** 400, Fraction(2, 10 ** 400)],
                             ids=["huge", "tiny"])
    def test_b_beyond_float_range(self, b):
        # exact certification needs no float of b
        params = numeric(b=b, e=1, g=2)
        spec = first_integral(params, quintic.CenterCase(CaseTag.CASE_II))
        assert spec.kind == "darboux-exp"
        assert spec.payload.exponential[0][1] == -b

    def test_case_iii_quartic_darboux(self):
        # u = x^2 + y^2 and shift = 0: C3 = exp((1 - 2 x y)/(x^2 + y^2))
        params = case_iii_point(1, 0, 1, 0)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "darboux-exp"
        (c3, weight), = spec.payload.exponential
        assert c3.exponent.num == 1 - 2 * X * Y
        assert c3.cofactor == -2 * (X ** 2 - Y ** 2)
        assert weight == 1

    def test_case_ii_without_quartic(self):
        params = numeric(b=1)
        spec = first_integral(params, theorem_case(params))
        assert spec.kind == "rational"
        assert (spec.payload.num, spec.payload.den) == (X ** 2 + Y ** 2,
                                                        1 + X ** 2)

    @requires_numpy
    @pytest.mark.parametrize("kw", [
        dict(a=1, c=-1),
        dict(d=1, e=2, f=-3, g=1),
        dict(b=1, e=1, g=-1),
        dict(b=1, e=2, g=2),
        dict(b=4, e=16, g=-16),
        dict(b=2, e=1, g=-1),
        dict(b=-1, e=1, g=-1),
        dict(b=Fraction(1, 3), e=1, g=-1),
        dict(b=4, e=2, g=2),
        dict(b=-2, e=3, g=3),
        dict(b=1),
    ])
    def test_constant_along_orbits(self, kw):
        params = numeric(**kw)
        spec = first_integral(params, theorem_case(params))
        assert integral_drift(spec, build_system(params), 0.3, 0.05) < 1e-6


class TestRotation:
    """`rotate_to_canonical`: the exact form P = ell (beta + u)."""

    def test_pure_quadratic(self):
        form = rotate_to_canonical(numeric(a=1, c=-1))
        assert (form.ell, form.beta) == (X ** 2 - Y ** 2, 1)
        assert form.u.is_zero and form.shift.is_zero
        assert form.r == -2 * X * Y

    def test_case_ii(self):
        form = rotate_to_canonical(CASE_II_SYMBOLIC)
        assert (form.ell, form.beta) == (X * Y, Poly.var("b"))
        assert form.u == CASE_II_U
        assert form.shift == Poly.var("e") - Poly.var("g")

    @pytest.mark.parametrize("kw", [
        dict(a=1, c=1), dict(b=1, c=1), dict(b=1, d=1), dict(b=1, f=1),
        dict(a=1, c=-1, d=1),
    ], ids=["c=a", "a=0,c!=0", "ell=xy,d!=0", "ell=xy,f!=0", "P2-no-divisor"])
    def test_requires_the_form(self, kw):
        with pytest.raises(QuinticError):
            rotate_to_canonical(numeric(**kw))

    def test_coefficient_beyond_float_range(self):
        # no float is formed: u = 10^400 (x^2 + y^2) exactly
        big = 10 ** 400
        form = rotate_to_canonical(case_iii_point(1, 0, big, 0))
        assert form.u == big * (X ** 2 + Y ** 2)
        assert form.shift.is_zero

    def test_random_case_iii_residuals(self):
        """On the symbolic case (iii) component in a, b, u, v (d = a^3 u,
        e = a^3 v): P - ell (beta + u) is exactly zero, and the shift
        (b d - a e) / (2 a^3) is (b u - a v) / 2."""
        params = case_iii_symbolic()
        form = rotate_to_canonical(params)
        assert (radial_factor(params)
                - form.ell * (form.beta + form.u)).is_zero
        a, b, u, v = (Poly.var(n) for n in "abuv")
        assert form.shift == (b * u - a * v) * Fraction(1, 2)


class TestCompositionCenters:
    """Every center is a composition center: in polar form, dr/dtheta =
    -r (r^2 P2 + r^4 P4) on the unit circle, and each case makes the right
    side a function of r and one periodic W(theta), so every orbit closes
    (the README's "Composition centers")."""

    def test_symbolic_cases_ii_and_iii(self):
        """With ell = A x^2 + B x y - A y^2, W = A x y - (B/4)(x^2 - y^2)
        has y W_x - x W_y = -ell, so dW/dtheta = ell on the circle, and
        u + 2 shift W is a multiple of x^2 + y^2, so u is affine in W
        there: P = ell (beta + u) is dW/dtheta times a function of W."""
        assert composes(CASE_II_SYMBOLIC) and composes(case_iii_symbolic())

    def test_symbolic_case_i(self):
        """With P2 = 0, dr/dtheta = -r^5 P4 closes iff P4 has mean zero on
        the circle.  A quartic form F is c (x^2 + y^2)^2 + (x^2 + y^2) H2 +
        H4 with H2, H4 harmonic, so its mean c is the bilaplacian over 64;
        for P4 that is R_2 / 8, and case (i) sets R_2 = 3d + f + 3h = 0."""
        assert quartic_mean_is_r2_over_8()


def start_radius(form):
    """A radius r0 such that from (r0, r0/4) the integral from 0 to u of
    dt / C2 meets no root of C2 = shift + u + u^2 (C2 = 0 is invariant, so
    no orbit crosses it later)."""
    r0 = 0.2
    shift = float(form.shift.constant_value())
    if 1 - 4 * shift >= 0 and shift != 0:
        root = min(abs(-1 + s * math.sqrt(1 - 4 * shift)) / 2 for s in (1, -1))
        while abs(form.u.eval_float({"x": r0, "y": r0 / 4})) >= root / 2:
            r0 /= 2
    return r0


class TestCaseIIISeeded:
    @requires_numpy
    def test_certified_commuting_and_b_type(self, rng):
        """200 seeded case (iii) points, each the exact rotation of a case
        (ii) point (0, b, 0, 0, e, 0, g, 0), b != 0, by a k with c s != 0,
        so that a = -b c s != 0; every tenth has u = 0 (e = g = 0) and every
        tenth shift = 0 (e = g).  Each integral certifies exactly and drifts
        at most 1e-6 along an orbit, the partner commutes, and the B-type is
        the case (ii) point's, which a rotation keeps: B4 iff e g < 0."""
        kinds = set()
        for i in range(200):
            b = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 2))
            e, g = (Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                    for _ in range(2))
            if i % 10 == 0:
                e = g = Fraction(0)
            elif i % 10 == 1:
                g = e
            params = rotate(QuinticParams(0, b, 0, 0, e, 0, g, 0), turn(rng))
            case = theorem_case(params)
            assert case.tag is CaseTag.CASE_III
            form = rotate_to_canonical(params)
            kinds.add((form.u.is_zero, form.shift.is_zero))

            spec = first_integral(params, case)
            assert spec.kind == ("rational" if form.u.is_zero else "darboux-exp")
            sysm = build_system(params)
            r0 = start_radius(form)
            assert integral_drift(spec, sysm, r0, r0 / 4) <= 1e-6

            bracket = structure.lie_bracket(
                sysm, commuting_partner(params, case))
            assert all(c.is_zero for c in bracket)
            assert b_type(params).tag == eg_rule(e, g), params
        assert kinds == {(True, True), (False, True), (False, False)}
