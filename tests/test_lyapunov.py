import dataclasses
import functools
import hashlib
import itertools
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import clear_product_memo, coeffs, polys, random_poly
from isoquintic.qpoly import Poly, QPolyError, as_poly, form_poly
from isoquintic.lyapunov import (
    PlanarSystem, LyapunovError, LyapunovReport, check_linear_center,
    pl_constants, first_nonzero, stage_constants, _circle_average,
    _solve_stage, _stage_known,
)
from isoquintic import quintic
from isoquintic.cli import load_system_document

X = Poly.var("x")
Y = Poly.var("y")

# sha256 of str(D_k): the canonical constants equal bench/reference.json
# (symbolic.constant_sha256, general_quadratic_sha256); the raw ones pin the
# scale that canonicalization hides.
FAMILY_CONSTANT_SHA256 = [
    "693f963da04a275eeabd76de1d756100bc19e748ec66da640d418235a21e0f5b",
    "13bd63a75882bf652089c8105dc6e8cd958232d548341e79b4c171adf082d9a2",
    "d92d8d31b82dee51f08d59a9e3a2a939b93710d374cbc96595b17c9292f2874b",
    "a35f1687f08790a965dc97277e778db90a74744b136e8bdc1b1131084fee3978",
    "e22a7d500c1b9ba00120e8dd6db7ba215464243d0db7a59a2ad8dcac88566ab4",
    "d54b005f972d126900df63c979da360f71263e4776c3bc20d90f0888ec14c963",
]
FAMILY_RAW_SHA256 = [
    "5dc159fe110f6cbf1f6c25aeec505c4232f2c37387bd2ceb3199500cf130eefa",
    "bdf88a403a742fef07e5cd8ebba00021b5718f67eb096a208dbd303d9a627e2a",
    "fb25ff8d59fb9dd780c8666dd2273ea9be5408d855fcb4c5469141efdd2ed319",
    "99746434ca8cb3592380dca76d18501326d343934c5da761863e779a65ea582b",
    "4069993ddea238546237041b4e31e6551adb26ca1d31c50d75b116072337e108",
    "14ebe79ad7bd4854f88f66365c3e5aba5f5438d722c722f30a5a185fd2676365",
]
QUADRATIC_CONSTANT_SHA256 = [
    "7b696d2a421db42b92cfef92abad1e45db00ab23fc5c135556a159fe398716a7",
    "72427004c6559c553e878ee54b8237ae676dffaa293c26a6e3e8d1e2af930ccc",
    "52aebc78ba3d30de4766416e2a02a449c44b6811cc20d8371c5cc44d3812d5ff",
]
QUADRATIC_RAW_SHA256 = [
    "ca845efebaa9e5d14f07cec871ea629c49d86d3cb1b7246f68c7d42b67c20fa4",
    "97a1d6553c8ccd1bfa75164c95f9426da996fd5de94ac0d67c1dd7e15d0893b1",
    "2a8167f8c57d89e2c30a2b21f686e2bc744b0dc476876006e8522409d00a00bb",
]

# report_sha of the numeric_points() reports at m = 4, and of the family
# (1, b, -1, d, 1/2, f, 0, h) at m = 4
NUMERIC_REPORTS_SHA256 = "184e311b5cc23b4d8f64e71f3f47ff9b7230bd7b19277498e56dfa661990a19a"
PARTIAL_REPORT_SHA256 = "8cb1752db206f256ea9e5e03faa8b784388e0f9f5af6b04b9086d188a6bd85c1"
# terms_sha of the same reports, of the numeric_points() reports at m = 6, of
# the numeric general quadratic and system document below, and of the
# symbolic family at m = 6 and general quadratic at m = 3, all recorded on
# the Fraction-entry stages
NUMERIC_TERMS_SHA256 = {
    "points-m4":
        "70aab84a0317a1a250a711fa65017a94aa7c946a04c94e5eec55203c6a6c164d",
    "points-m6":
        "11a4de394b529af6d2cf555a9038dfc05b6a5bd6b30a271b8e8a0d02c7b804ff",
    "partial-m4":
        "359112ed5edca90ea9d8424d514e12d809d9cd1107a499848d83eee56aba1dde",
    "quadratic-m3":
        "d8b12f03ebd83a19cf66af61f5924a8ee06e2f571453fdda8381481ea32dd0b3",
    "document-m6":
        "836c7aa27fabed11096811c3d7e9ccca08b4b03f4e74a0f2fea605f1706ffd32",
    "family-m6":
        "18ad7f02897d11b04caa7322edf4b11a00501b74dc0ea1272e83f8bfe516a281",
    "symbolic-quadratic-m3":
        "b52f27c99fb013cdeb77a5d65903cfd23d43090fcd0ad6d4d68cb99fe529ea61",
}


def over(x, n):
    """x / n for Fraction and parameter-Poly entries, the division of the
    Fraction-entry stages."""
    return x * Fraction(1, n)


def f_parts(sys, m):
    """f_2..f_(2m+2) of `sys` as `stage_constants` solves them on the way to
    D_1..D_m, as Polys with Fraction coefficients."""
    *_, (_, _, f) = itertools.islice(stage_constants(*check_linear_center(sys)), m)
    return {k: form_poly(c, den) for k, (c, den) in f.items()}


def reported(sys, m):
    """`pl_constants(sys, m)` and the f_k of the same stages."""
    return pl_constants(sys, m), f_parts(sys, m)


def fraction_stages(sys, m):
    """The report and f_k of the stage loop run on Fraction and parameter-Poly
    entries divided with `over`: no cleared denominators, no scaling, no gcd.
    An oracle for `reported`, which runs the same stages on integers."""
    p, q = check_linear_center(sys)
    f = {2: [Fraction(1, 2), 0, Fraction(1, 2)]}
    raw = []
    for k in range(3, 2 * m + 2, 2):
        f[k] = _solve_stage([-c for c in _stage_known(f, p, q, k)], k, over)
        known = _stage_known(f, p, q, k + 1)
        d = _circle_average(known, k + 1, over)
        rhs = [-c for c in known]
        rhs[0] = rhs[0] + d
        f[k + 1] = _solve_stage(rhs, k + 1, over)
        raw.append(as_poly(d))
    constants, index, sign = [d.canonical() for d in raw], None, None
    if all(not d.variables() for d in raw):
        index, sign = first_nonzero(LyapunovReport(constants, raw), {}) or (None, None)
    return (LyapunovReport(constants, raw, index, sign),
            {k: form_poly(c) for k, c in f.items()})


def sha(p):
    return hashlib.sha256(str(p).encode()).hexdigest()


def vec(poly, k):
    """Coefficients of x^(k-j) y^j, j = 0..k, of a degree-k form in x, y."""
    forms = poly.forms()
    assert set(forms) <= {k}, f"{poly} is not homogeneous of degree {k}"
    return forms.get(k, [0] * (k + 1))


def rotate(g):
    """L g = y g_x - x g_y, computed by differentiation."""
    return Y * g.diff("x") - X * g.diff("y")


def random_form(rnd, k):
    """Homogeneous degree-k form in x, y with random Poly coefficients in a, b."""
    g = Poly.zero()
    for j in range(k + 1):
        c = random_poly(rnd, vars=("a", "b"), max_terms=3, max_exp=2)
        g = g + c * X ** (k - j) * Y ** j
    return g


class TestRotationOperator:
    """The stage solver against L f = y f_x - x f_y applied directly."""

    def test_k1(self):
        # L(x) = y and L(y) = -x, inverted
        assert form_poly(_solve_stage(vec(Y, 1), 1, over)) == X
        assert form_poly(_solve_stage(vec(-X, 1), 1, over)) == Y

    def test_k2_by_direct_differentiation(self):
        assert rotate(X ** 2) == 2 * X * Y
        assert rotate(X * Y) == Y ** 2 - X ** 2
        assert rotate(Y ** 2) == -2 * X * Y
        # inverted up to the kernel x^2 + y^2, with the y^2 coefficient 0
        assert form_poly(_solve_stage(vec(2 * X * Y, 2), 2, over)) == X ** 2
        assert form_poly(_solve_stage(vec(Y ** 2 - X ** 2, 2), 2, over)) == X * Y
        assert form_poly(_solve_stage(vec(-2 * X * Y, 2), 2, over)) == -X ** 2

    @pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
    def test_odd_degrees_nonsingular(self, k):
        # L is invertible on odd degrees: each form comes back unchanged
        for j in range(k + 1):
            g = X ** (k - j) * Y ** j
            assert form_poly(_solve_stage(vec(rotate(g), k), k, over)) == g

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_even_degrees_singular(self, k):
        # (x^2 + y^2)^(k/2) spans the kernel, and the image of L misses
        # x^k + y^k: every L g has circle average 0, x^k + y^k has 1
        assert rotate((X ** 2 + Y ** 2) ** (k // 2)).is_zero
        for j in range(k + 1):
            image = vec(rotate(X ** (k - j) * Y ** j), k)
            assert _circle_average(image, k, over) == 0
        assert _circle_average(vec(X ** k + Y ** k, k), k, over) == 1

    def test_matches_operator_action(self):
        rnd = random.Random(4)
        for k in range(1, 14):
            g = random_form(rnd, k)
            r = rotate(g)
            f = _solve_stage(vec(r, k), k, over)
            assert rotate(form_poly(f)) == r, k
            if k % 2 == 0:
                assert f[k] == 0, k

    def test_circle_average_of_monomials(self):
        # mean of cos^4, cos^2 sin^2, sin^4 is 3/8, 1/8, 3/8; x^4 + y^4 has 3/4
        for j, avg in enumerate([3, 0, 1, 0, 3]):
            form = vec(X ** (4 - j) * Y ** j, 4)
            assert _circle_average(form, 4, over) == Fraction(avg, 6)


class TestFormLists:
    @seed(7)
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 8).flatmap(lambda k: st.lists(
        st.one_of(polys(vars=("a", "b"), max_terms=3), coeffs),
        min_size=k + 1, max_size=k + 1)))
    def test_list_poly_round_trip(self, c):
        assert vec(form_poly(c), len(c) - 1) == c

    def test_numeric_and_symbolic_entries_mix(self):
        # a list may hold Fractions, ints and parameter Polys side by side
        a = Poly.var("a")
        r = [Fraction(1, 3), a, 0, 2 * a + 1]
        f = _solve_stage(r, 3, over)
        assert rotate(form_poly(f)) == form_poly(r)


def family_system():
    return quintic.build_system(quintic.QuinticParams.symbolic())


def numeric_points(n=40):
    """Seeded rational points, a quarter each generic and on the strata where
    D1, D1..D2 and D1..D3 vanish; the last quarter at height 10^6."""
    rnd = random.Random(2718)
    for i in range(n):
        height, den = (10 ** 6, 10 ** 6) if i % 4 == 3 else (9, 3)
        v = {name: Fraction(rnd.randint(-height, height), rnd.randint(1, den))
             for name in quintic.PARAM_NAMES}
        if i % 4 >= 1:
            v["c"] = -v["a"]
        if i % 4 >= 2:
            v["f"] = -3 * (v["d"] + v["h"])
        if i % 4 == 3 and v["a"]:
            v["e"] = (v["b"] * v["d"] - v["a"] * v["g"] - v["b"] * v["h"]) / v["a"]
        yield quintic.QuinticParams(**v)


def terms_sha(reports):
    """sha256 of the ordered terms of every raw and canonical constant and
    f_k of (report, f_k) pairs, with the first nonzero index and sign."""
    text = []
    for rep, parts in reports:
        text += [repr(list(d.terms.items())) for d in rep.raw + rep.constants]
        text += [f"{k}: {list(part.terms.items())!r}"
                 for k, part in parts.items()]
        text.append(f"{rep.first_nonzero_index} {rep.sign}")
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


# explicit components with terms outside the family (even degrees, a cubic
# that is not x P, y P), made numeric by its bindings
NUMERIC_DOCUMENT = {
    "p": "y + 3/2*x^2 - x*y + 2*y^3 - 5/3*x^4*y + 7*x^5 + b*x^3",
    "q": "-x + b*x*y - 1/4*y^2 + x^3 + 2/9*x^2*y^3 - 1000000*y^4",
    "bindings": {"b": "-999999/1000000"},
}


def report_sha(reports):
    """sha256 of str of every raw and canonical constant and f_k of
    (report, f_k) pairs."""
    text = []
    for rep, parts in reports:
        text += [str(d) for d in rep.raw + rep.constants]
        text += [f"{k}: {part}" for k, part in parts.items()]
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def general_quadratic(v=None):
    """y + a x^2 + b x y + c y^2, -x + d x^2 + e x y + f y^2, symbolic or at v."""
    a, b, c, d, e, f = (Poly.var(n) if v is None else Poly.const(v[n])
                        for n in "abcdef")
    return PlanarSystem(Y + a * X ** 2 + b * X * Y + c * Y ** 2,
                        -X + d * X ** 2 + e * X * Y + f * Y ** 2)


NUMERIC_QUADRATIC = general_quadratic(dict(zip("abcdef", (
    Fraction(3, 2), -5, Fraction(-7, 9), Fraction(2, 3), 4, Fraction(1, 1000003)))))


@functools.cache
def symbolic_reports():
    """The family's report and f_k at m = 4, the general quadratic's at
    m = 3."""
    return reported(family_system(), 4), reported(general_quadratic(), 3)


def evaluated(symbolic, point, m):
    """Raw D_1..D_m and f_2..f_(2m+2) of a symbolic report and its f_k at a
    point."""
    report, parts = symbolic
    bindings = {n: Poly.const(v) for n, v in point.items()}
    return ([d.eval_rational(point) for d in report.raw[:m]],
            {k: f.subs(bindings) for k, f in parts.items() if k <= 2 * m + 2})


def rationals(height):
    return st.builds(Fraction, st.integers(-height, height),
                     st.integers(1, height))


def on_stratum(point, level):
    """The point moved onto the stratum where D_1..D_level vanish."""
    v = dict(point)
    if level >= 1:
        v["c"] = -v["a"]
    if level >= 2:
        v["f"] = -3 * (v["d"] + v["h"])
    if level >= 3 and v["a"]:
        v["e"] = (v["b"] * v["d"] - v["a"] * v["g"] - v["b"] * v["h"]) / v["a"]
    return v


family_points = st.builds(on_stratum, st.sampled_from([9, 10 ** 6]).flatmap(
    lambda height: st.fixed_dictionaries(
        {n: rationals(height) for n in quintic.PARAM_NAMES})), st.integers(0, 3))


class TestNumericAgainstSymbolic:
    """The stages of a numeric system against the parameter-Poly stages
    evaluated at the same point: two derivations, one answer."""

    @staticmethod
    def check(numeric, raw, f):
        report, parts = numeric
        assert [d.constant_value() for d in report.raw] == raw
        assert parts == f
        hit = next(((i, "positive" if d > 0 else "negative")
                    for i, d in enumerate(raw, 1) if d), (None, None))
        assert (report.first_nonzero_index, report.sign) == hit

    @seed(31)
    @settings(max_examples=30, deadline=None)
    @given(family_points, st.integers(1, 4))
    def test_family(self, point, m):
        numeric = reported(quintic.build_system(quintic.QuinticParams(**point)), m)
        self.check(numeric, *evaluated(symbolic_reports()[0], point, m))

    @seed(32)
    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from([9, 10 ** 6]).flatmap(lambda height: st.fixed_dictionaries(
        {n: rationals(height) for n in "abcdef"})))
    def test_general_quadratic(self, point):
        numeric = reported(general_quadratic(point), 3)
        self.check(numeric, *evaluated(symbolic_reports()[1], point, 3))


def mixed_family(rnd):
    """Seeded parameters: some symbols, the rest integers and non-integer
    rationals such as 1/3 and -5/7."""
    values = [0, 1, -1, 2, Fraction(1, 3), Fraction(-5, 7),
              Fraction(10 ** 6 + 1, 3), Fraction(-7, 10 ** 6)]
    return [name if rnd.random() < 0.3 else rnd.choice(values)
            for name in quintic.PARAM_NAMES]


class TestIntegerLoopAgainstFractionStages:
    """`pl_constants` and `stage_constants` against `fraction_stages`: the
    same ordered terms in every raw and canonical constant and f_k, and
    Fraction coefficients only."""

    @staticmethod
    def check(system, m):
        (report, parts), (oracle, oracle_parts) = (reported(system, m),
                                                   fraction_stages(system, m))
        assert list(parts) == list(oracle_parts)
        got = report.raw + report.constants + list(parts.values())
        want = oracle.raw + oracle.constants + list(oracle_parts.values())
        for g, w in zip(got, want, strict=True):
            assert list(g.terms.items()) == list(w.terms.items())
            assert all(type(c) is Fraction for c in g.terms.values())
        assert (report.first_nonzero_index, report.sign) == (
            oracle.first_nonzero_index, oracle.sign)

    def test_symbolic_family(self):
        self.check(family_system(), 6)

    def test_symbolic_general_quadratic(self):
        self.check(general_quadratic(), 3)

    @pytest.mark.parametrize("seed", range(8))
    def test_mixed_families(self, seed):
        rnd = random.Random(seed)
        for _ in range(4):
            params = quintic.QuinticParams(*mixed_family(rnd))
            self.check(quintic.build_system(params), rnd.randint(1, 4))
        quadratic = dict(zip("abcdef", mixed_family(rnd)))
        a, b, c, d, e, f = (as_poly(v) for v in quadratic.values())
        self.check(PlanarSystem(Y + a * X ** 2 + b * X * Y + c * Y ** 2,
                                -X + d * X ** 2 + e * X * Y + f * Y ** 2), 3)


class TestPlConstants:
    def test_first_constant_of_family(self):
        rep = pl_constants(family_system(), 1)
        assert rep.constants[0] == Poly.var("a") + Poly.var("c")
        # the raw value is a positive rational multiple of the canonical one
        assert rep.raw[0] == Fraction(2, 3) * (Poly.var("a") + Poly.var("c"))

    def test_linear_center_all_zero(self):
        rep = pl_constants(PlanarSystem(Y, -X), 4)
        assert all(d.is_zero for d in rep.raw)
        assert rep.first_nonzero_index is None

    def test_numeric_a1(self):
        sysm = quintic.build_system(quintic.QuinticParams.numeric(
            1, 0, 0, 0, 0, 0, 0, 0))
        rep = pl_constants(sysm, 1)
        assert rep.raw[0].eval_rational({}) == Fraction(2, 3)
        assert rep.first_nonzero_index == 1
        assert rep.sign == "positive"

    def test_parameter_cancelled_from_constants(self):
        """A parameter that reaches the stages but cancels from every D_k
        leaves a Poly numerator without variables (here D_2's, zero); the
        report still names the first nonzero constant."""
        a = Poly.var("a")
        sysm = PlanarSystem(Y + 5 * a * X * Y ** 4, -X - Y ** 3 - a * Y ** 5)
        numerators = [d for d, _, _ in itertools.islice(
            stage_constants(*check_linear_center(sysm)), 3)]
        assert [type(d) for d in numerators] == [int, Poly, int]
        assert numerators[1].is_zero
        rep = pl_constants(sysm, 3)
        assert all(not d.variables() for d in rep.raw)
        assert (rep.first_nonzero_index, rep.sign) == (1, "negative")

    def test_no_index_while_a_constant_is_symbolic(self):
        a = Poly.var("a")
        sysm = PlanarSystem(Y + X ** 3 + a * X ** 2 * Y, -X - a * X ** 3)
        assert pl_constants(sysm, 1).first_nonzero_index == 1
        rep = pl_constants(sysm, 2)
        assert rep.raw[1].variables() == {"a"}
        assert (rep.first_nonzero_index, rep.sign) == (None, None)

    def test_report_is_frozen_and_holds_the_constants_alone(self):
        rep = pl_constants(family_system(), 2)
        assert [f.name for f in dataclasses.fields(rep)] == [
            "constants", "raw", "first_nonzero_index", "sign"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.sign = "positive"

    def test_invalid_linear_part(self):
        with pytest.raises(LyapunovError):
            pl_constants(PlanarSystem(Y + X ** 2, -X + Y), 1)
        with pytest.raises(LyapunovError):
            check_linear_center(PlanarSystem(Y + 1, -X))

    def test_cap(self):
        with pytest.raises(LyapunovError):
            pl_constants(PlanarSystem(Y, -X), 7)

    def test_exactness_oracle(self):
        """Independent check: assemble F from the solved components, compute
        dF/dt directly, and compare with sum D_i (x^(2i+2) + y^(2i+2))."""
        m = 3
        sysm = family_system()
        rep = pl_constants(sysm, m)
        F = Poly.zero()
        for part in f_parts(sysm, m).values():
            F = F + part
        dF = F.diff("x") * sysm.p + F.diff("y") * sysm.q
        expected = Poly.zero()
        for i, d in enumerate(rep.raw, 1):
            k = 2 * i + 2
            expected = expected + d * (X ** k + Y ** k)
        diff = dF - expected
        # agreement through every fully-determined degree
        low = {deg: form for deg, form in diff.forms().items() if deg <= 2 * m + 2}
        assert not low, f"residual forms {low}"

    def test_constants_pinned(self):
        rep, parts = reported(family_system(), 6)
        assert [sha(d) for d in rep.constants] == FAMILY_CONSTANT_SHA256
        assert [sha(d) for d in rep.raw] == FAMILY_RAW_SHA256
        assert terms_sha([(rep, parts)]) == NUMERIC_TERMS_SHA256["family-m6"]
        a, b, c, d, e, f = (Poly.var(n) for n in "abcdef")
        quad = PlanarSystem(Y + a * X ** 2 + b * X * Y + c * Y ** 2,
                            -X + d * X ** 2 + e * X * Y + f * Y ** 2)
        rep, parts = reported(quad, 3)
        assert [sha(d) for d in rep.constants] == QUADRATIC_CONSTANT_SHA256
        assert [sha(d) for d in rep.raw] == QUADRATIC_RAW_SHA256
        assert terms_sha([(rep, parts)]) == NUMERIC_TERMS_SHA256["symbolic-quadratic-m3"]

    def test_numeric_reports_pinned(self):
        # the reports of Fraction-entry stages, digested before they were
        # lists, and those of a family with some parameters left
        reps = [reported(quintic.build_system(p), 4) for p in numeric_points()]
        assert [r.first_nonzero_index for r, _ in reps] == [1, 2, 3, 4] * 10
        assert report_sha(reps) == NUMERIC_REPORTS_SHA256
        partial = quintic.QuinticParams(1, "b", -1, "d", Fraction(1, 2), "f", 0, "h")
        rep = reported(quintic.build_system(partial), 4)
        assert report_sha([rep]) == PARTIAL_REPORT_SHA256
        # the ordered terms too, as `Poly.eval_float` adds them in that order
        assert terms_sha(reps) == NUMERIC_TERMS_SHA256["points-m4"]
        assert terms_sha([rep]) == NUMERIC_TERMS_SHA256["partial-m4"]

    def test_numeric_terms_pinned(self, tmp_path):
        reps = [reported(quintic.build_system(p), 6) for p in numeric_points()]
        assert terms_sha(reps) == NUMERIC_TERMS_SHA256["points-m6"]
        rep, parts = reported(NUMERIC_QUADRATIC, 3)
        assert rep.first_nonzero_index == 1
        assert terms_sha([(rep, parts)]) == NUMERIC_TERMS_SHA256["quadratic-m3"]
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(NUMERIC_DOCUMENT), encoding="utf-8")
        rep, parts = reported(load_system_document(str(path)), 6)
        assert rep.first_nonzero_index is not None
        assert terms_sha([(rep, parts)]) == NUMERIC_TERMS_SHA256["document-m6"]


class TestProductMemo:
    """`qpoly`'s memo of monomial products is a cache: neither its state nor
    threads racing on it change a report."""

    def test_cold_and_warm_agree(self):
        clear_product_memo()
        cold = terms_sha([reported(family_system(), 6)])
        warm = terms_sha([reported(family_system(), 6)])
        assert cold == warm == NUMERIC_TERMS_SHA256["family-m6"]

    def test_threads_agree_with_serial(self):
        clear_product_memo()
        serial = terms_sha([reported(family_system(), 5)])
        start = threading.Barrier(4, timeout=60)

        def run():
            start.wait()
            clear_product_memo()
            return terms_sha([reported(family_system(), 5)])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run) for _ in range(4)]
                digests = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert digests == [serial] * 4


class TestFirstNonzero:
    def test_positive_focus(self):
        rep = pl_constants(family_system(), 2)
        zeros = {n: 0 for n in quintic.PARAM_NAMES}
        assert first_nonzero(rep, {**zeros, "a": 1}) == (1, "positive")

    def test_case_ii_center_point(self):
        rep = pl_constants(family_system(), 4)
        zeros = {n: 0 for n in quintic.PARAM_NAMES}
        assert first_nonzero(rep, {**zeros, "b": 1}) is None

    def test_second_constant(self):
        rep = pl_constants(family_system(), 2)
        zeros = {n: 0 for n in quintic.PARAM_NAMES}
        assert first_nonzero(rep, {**zeros, "d": 1}) == (2, "positive")

    def test_unbound_parameter(self):
        rep = pl_constants(family_system(), 1)
        with pytest.raises(Exception):
            first_nonzero(rep, {"a": 1})

    def test_values_read_as_rational_text(self):
        """By `qpoly.as_poly`, the reader of every caller's text."""
        rep = pl_constants(family_system(), 2)
        zeros = dict.fromkeys(quintic.PARAM_NAMES, "0")
        assert first_nonzero(rep, {**zeros, "a": "1/2", "c": " -1/2 ",
                                   "d": "0.25"}) == (2, "positive")
        # Fraction reads U+0661 ARABIC-INDIC DIGIT ONE as 1
        with pytest.raises(QPolyError, match="^malformed rational '\u0661'$"):
            first_nonzero(rep, {**zeros, "a": "\u0661"})
