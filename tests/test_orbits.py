import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq as scipy_brentq

from isoquintic.qpoly import Poly, UnboundVariableError
from isoquintic.lyapunov import PlanarSystem
from isoquintic import orbits, quintic
from isoquintic.orbits import (
    DomainError, EscapedError, NoReturnError, StiffnessError,
    InapplicableBoundaryError, integrate, integral_value, ray_return_time,
    boundary_curve, center_type, c3_exponent,
)
from isoquintic.structure import darboux_candidate
from conftest import case_iii_fgh, run_fresh

X = Poly.var("x")
Y = Poly.var("y")
ROT = PlanarSystem(Y, -X)
TWO_PI = 2.0 * math.pi


def numeric(**kw):
    full = {n: 0 for n in quintic.PARAM_NAMES}
    full.update(kw)
    return quintic.QuinticParams.numeric(*(full[n] for n in quintic.PARAM_NAMES))


def closure_defect(sys, x0, y0):
    """Distance between start and the first ray return; ~0 for a center."""
    _, (xe, ye) = ray_return_time(sys, x0, y0)
    return math.hypot(xe - x0, ye - y0)


def integral_of(spec):
    """The certified first integral of `spec` as a function of (x, y)."""
    return lambda x, y: integral_value(spec.payload, x, y)


def conservation_drift(integral, traj):
    """Max relative drift of a first integral, a function of (x, y), along a
    trajectory."""
    try:
        h0 = integral(float(traj.x[0]), float(traj.y[0]))
    except (ZeroDivisionError, ValueError) as exc:
        raise DomainError(f"integral undefined at the initial sample: {exc}")
    if h0 == 0:
        raise DomainError("integral vanishes at the initial sample")
    worst = 0.0
    for x, y in zip(traj.x, traj.y):
        try:
            h = integral(float(x), float(y))
        except (ZeroDivisionError, ValueError) as exc:
            raise DomainError(f"integral undefined at ({x}, {y}): {exc}")
        worst = max(worst, abs(h - h0) / abs(h0))
    return worst


def count_rhs_calls(monkeypatch):
    """A list to which every right-hand side call of later solves appends."""
    compile_rhs = orbits.compile_rhs
    calls = []

    def counting(sys):
        rhs = compile_rhs(sys)

        def counted(t, state):
            calls.append(t)
            return rhs(t, state)

        return counted

    monkeypatch.setattr(orbits, "compile_rhs", counting)
    return calls


class TestIntegrate:
    def test_rotation_full_circle(self):
        traj = integrate(ROT, 1.0, 0.0, TWO_PI)
        xe, ye = traj.endpoint()
        assert math.hypot(xe - 1.0, ye) < 1e-8
        assert traj.t[-1] == pytest.approx(TWO_PI)

    def test_matches_closed_form_midway(self):
        traj = integrate(ROT, 1.0, 0.0, 2.0)
        for t, x, y in zip(traj.t, traj.x, traj.y):
            assert abs(x - math.cos(t)) < 1e-7
            assert abs(y + math.sin(t)) < 1e-7

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            integrate(ROT, 1.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            integrate(ROT, math.nan, 0.0, 1.0)

    @pytest.mark.parametrize("x0, y0", [(1e9, 0.0), (0.0, -2e9), (8e8, 8e8),
                                        (1e200, 0.0)])
    def test_start_outside_escape_radius_rejected(self, x0, y0):
        for run in (lambda: integrate(ROT, x0, y0, 1.0),
                    lambda: ray_return_time(ROT, x0, y0)):
            with pytest.raises(ValueError, match="inside"):
                run()

    def test_tol_floor(self):
        assert orbits.MIN_TOL == 100 * np.finfo(float).eps
        integrate(ROT, 1.0, 0.0, 1.0, tol=orbits.MIN_TOL)
        with pytest.raises(ValueError, match="at least"):
            integrate(ROT, 1.0, 0.0, 1.0, tol=orbits.MIN_TOL / 2)

    def test_escape_guard(self):
        # dx/dt = 1 + x^2 blows up at t = pi/2 - atan(x0)
        blow = PlanarSystem(1 + X ** 2, Poly.zero())
        with pytest.raises(EscapedError):
            integrate(blow, 1.0, 0.0, 2.0)

    def test_rhs_call_budget(self):
        rhs = orbits.compile_rhs(ROT)
        for _ in range(orbits.MAX_RHS_CALLS):
            rhs(0.0, (1.0, 0.0))
        with pytest.raises(StiffnessError,
                           match=r"calls spent at t = 2\.5 \(\|state\| = 5\)"):
            rhs(2.5, (3.0, 4.0))

    def test_rhs_call_budget_ends_each_integrator(self, monkeypatch):
        monkeypatch.setattr(orbits, "MAX_RHS_CALLS", 100)
        for run in (lambda: integrate(ROT, 1.0, 0.0, 10.0),
                    lambda: ray_return_time(ROT, 1.0, 0.0)):
            with pytest.raises(StiffnessError, match="budget of 100 right-hand"):
                run()
        # each solve has its own budget
        integrate(ROT, 1.0, 0.0, 0.5)
        integrate(ROT, 1.0, 0.0, 0.5)

    def test_rhs_bit_identical_to_numpy_scalars(self):
        # the right-hand side on numpy scalars, as iterating the state gives;
        # fsum itself may raise OverflowError or, on inf - inf, ValueError,
        # which the right-hand side reports as StiffnessError
        def reference(pterms, qterms, state):
            x, y = state
            try:
                return (math.fsum(c * x ** i * y ** j for c, i, j in pterms),
                        math.fsum(c * x ** i * y ** j for c, i, j in qterms))
            except (ArithmeticError, ValueError):
                return StiffnessError

        def outcome(rhs, state):
            try:
                return rhs(0.0, state)
            except (ArithmeticError, ValueError, StiffnessError) as exc:
                return type(exc)

        rnd = np.random.default_rng(20240824)
        overflowed = failed = 0
        for _ in range(20):
            params = numeric(**{n: Fraction(int(rnd.integers(-9, 10)),
                                            int(rnd.integers(1, 5)))
                                for n in quintic.PARAM_NAMES})
            sysm = quintic.build_system(params)
            terms = [[(float(c), dict(m).get("x", 0), dict(m).get("y", 0))
                      for m, c in poly.terms.items()]
                     for poly in (sysm.p, sysm.q)]
            rhs = orbits.compile_rhs(sysm)
            scales = 10.0 ** rnd.uniform(-3, 200, size=500)
            states = rnd.uniform(-1, 1, size=(500, 2)) * scales[:, None]
            with np.errstate(over="ignore", invalid="ignore"):
                for state in states:
                    try:
                        float(state[0]) ** 5
                    except OverflowError:
                        overflowed += 1
                    want = reference(*terms, state)
                    got = outcome(rhs, state)
                    assert repr(got) == repr(want), state
                    failed += want is StiffnessError
        assert overflowed > 1000  # the numpy fallback ran
        assert failed > 0  # and so did the StiffnessError

    def test_rk45_call_count_bounds_t_end(self, monkeypatch):
        # MAX_T_END assumes RK45 spends at least 2 + 6 calls per MAX_STEP
        calls = count_rhs_calls(monkeypatch)
        integrate(ROT, 1.0, 0.0, 10.0)
        assert len(calls) >= 2 + 6 * math.ceil(10.0 / orbits.MAX_STEP)

    def test_steps_are_python_floats(self):
        # numpy scalars subclass float, and each later operation on one
        # costs about as much as a numpy call
        blow = PlanarSystem(1 + X ** 2, Poly.zero())
        for sysm, t_end in ((ROT, 1.0), (blow, 0.78)):
            steps = list(orbits._rk45_steps(orbits.compile_rhs(sysm), 1.0, 0.0,
                                            t_end, orbits.TOL))
            assert len(steps) > 10
            for t_old, t, y_old, y, _ in steps:
                assert [type(v) for v in (t_old, t, *y_old, *y)] == [float] * 6

    def test_t_end_beyond_call_budget_rejected(self, monkeypatch):
        assert orbits.MAX_T_END == pytest.approx(833.3)
        assert orbits.RETURN_T_MAX <= orbits.MAX_T_END
        with pytest.raises(ValueError, match=r"t_end must be in \(0, 833\.3\]"):
            integrate(ROT, 1.0, 0.0, 834.0)
        monkeypatch.setattr(orbits, "RETURN_T_MAX", 834.0)
        with pytest.raises(ValueError, match=r"t_end must be in \(0, 833\.3\]"):
            ray_return_time(ROT, 1.0, 0.0)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            integrate(ROT, 1.0, 0.0, 1.0, tol=0.0)


class TestRayReturn:
    def test_center_returns_in_2pi(self):
        sysm = quintic.build_system(numeric(b=1, e=1, g=-1))
        T, (xe, ye) = ray_return_time(sysm, 0.3, 0.0)
        assert abs(T - TWO_PI) < 1e-9
        assert math.hypot(xe - 0.3, ye) < 1e-8

    def test_focus_returns_in_2pi_but_drifts(self):
        sysm = quintic.build_system(numeric(a=1))
        T, (xe, ye) = ray_return_time(sysm, 0.1, 0.0)
        assert abs(T - TWO_PI) < 1e-9
        # first constant positive: the return point is strictly outward
        assert math.hypot(xe, ye) > 0.1 + 1e-4

    def test_oblique_ray(self):
        T, _ = ray_return_time(ROT, 0.3, 0.4)
        assert abs(T - TWO_PI) < 1e-9

    def test_rejects_nonuniform_angular_speed(self):
        with pytest.raises(ValueError, match="constant-angular-speed form"):
            ray_return_time(PlanarSystem(Y + X ** 2, -X), 1.0, 0.0)

    def test_rejects_origin(self):
        with pytest.raises(ValueError):
            ray_return_time(ROT, 0.0, 0.0)

    def test_no_return_within_budget(self, monkeypatch):
        monkeypatch.setattr(orbits, "RETURN_T_MAX", 1.0)
        with pytest.raises(NoReturnError):
            ray_return_time(ROT, 1.0, 0.0)

    def test_stall_is_stiffness(self, monkeypatch):
        # a finite-time blow-up stalls RK45 near t = 2.2 at |state| ~ 1.4e3,
        # far below the escape radius
        sysm = quintic.build_system(numeric(a=1, c=1, d=1, f=1, h=1))
        with pytest.raises(StiffnessError, match=r"stalled at t = 2\.2"):
            ray_return_time(sysm, 0.4, 0.0)
        with pytest.raises(StiffnessError, match=r"stalled at t = 2\.2"):
            integrate(sysm, 0.4, 0.0, TWO_PI)
        monkeypatch.setattr(orbits, "RETURN_T_MAX", 1.0)
        with pytest.raises(NoReturnError):
            ray_return_time(sysm, 0.4, 0.0)

    def test_return_before_stall_is_kept(self):
        # r' = r^3 from r0^2 = 1/14 blows up at t = 7, after the return at 2 pi
        sysm = quintic.build_system(numeric(a=1, c=1))
        T, _ = ray_return_time(sysm, math.sqrt(1 / 14), 0.0)
        assert abs(T - TWO_PI) < 1e-9

    def test_stops_at_the_return(self, monkeypatch):
        # the return comes at 2 pi, the search span ends at 2.5 pi
        calls = count_rhs_calls(monkeypatch)
        sysm = quintic.build_system(numeric(b=1, e=1, g=-1))
        ray_return_time(sysm, 0.3, 0.0)
        returned = len(calls)
        integrate(sysm, 0.3, 0.0, orbits.RETURN_T_MAX)
        assert returned < len(calls) - returned

    @pytest.mark.parametrize("kw", [{"tol": math.nan}, {"tol": -1.0}])
    def test_rejects_unbounded_inputs(self, kw):
        with pytest.raises(ValueError):
            ray_return_time(ROT, 1.0, 0.0, **kw)

    def test_closure_defect_center_vs_focus(self):
        center = quintic.build_system(numeric(d=1, f=-3))
        focus = quintic.build_system(numeric(a=1))
        assert closure_defect(center, 0.3, 0.0) < 1e-8
        assert closure_defect(focus, 0.1, 0.0) > 1e-3


def reference_solve(sys, x0, y0, t_end, tol, events=()):
    """scipy's solve_ivp with RK45, rtol = atol = tol, MAX_STEP and a
    terminal escape event: the call the step loop of `orbits` reproduces."""
    def escape(t, state):
        return math.hypot(state[0], state[1]) - orbits.ESCAPE_RADIUS

    escape.terminal = True
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(orbits.compile_rhs(sys), (0.0, t_end), (x0, y0),
                         method="RK45", rtol=tol, atol=tol,
                         max_step=orbits.MAX_STEP, events=(*events, escape))


def stall_message(sol):
    x, y = sol.y[0][-1], sol.y[1][-1]
    return (f"StiffnessError: solver stalled at t = {sol.t[-1]:.6g} "
            f"(|state| = {math.hypot(x, y):.3g}): {sol.message}")


def reference_ray_return(sys, x0, y0, tol):
    """The first return as solve_ivp finds it, with a non-terminal crossing
    event and its spurious hits up to t = 1e-3 dropped; a return before an
    escape is kept.  A call budget spent after the return is not modelled."""
    r0 = math.hypot(x0, y0)
    ux, uy = x0 / r0, y0 / r0

    def cross(t, state):
        return -uy * state[0] + ux * state[1]

    cross.direction = -1.0
    try:
        sol = reference_solve(sys, x0, y0, orbits.RETURN_T_MAX, tol, (cross,))
    except (StiffnessError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}", False
    spurious = any(0 < t <= 1e-3 for t in sol.t_events[0])
    hits = [i for i, t in enumerate(sol.t_events[0]) if t > 1e-3]
    if hits:
        xs, ys = sol.y_events[0][hits[0]]
        return repr((float(sol.t_events[0][hits[0]]),
                     (float(xs), float(ys)))), spurious
    if sol.t_events[1].size:
        return f"EscapedError: {EscapedError(float(sol.t_events[1][0]))}", spurious
    if sol.status == -1:
        return stall_message(sol), spurious
    return "NoReturnError: no ray return located", spurious


def reference_integrate(sys, x0, y0, t_end, tol):
    try:
        sol = reference_solve(sys, x0, y0, t_end, tol)
    except (StiffnessError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if sol.t_events[0].size:
        return f"EscapedError: {EscapedError(float(sol.t_events[0][0]))}"
    if sol.status == -1:
        return stall_message(sol)
    return repr((sol.t.tolist(), sol.y[0].tolist(), sol.y[1].tolist()))


def outcome(run):
    try:
        result = run()
    except (orbits.OrbitError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(result, orbits.Trajectory):
        result = (result.t, result.x, result.y)
    return repr(result)


class TestSolveIvpParity:
    """The in-package stepper and `brentq` give scipy's solve_ivp floats and
    messages, bit for bit, RK45 steps and event times alike, where solve_ivp
    finds its events.  A change to the stepper, to numpy's dot or to scipy's
    RK45 or brentq fails here.  One departure is deliberate and drawn by no
    start here: a nan initial step stalls at t = 0, where solve_ivp steps on
    nan until the call budget is spent (`tests/test_cli.py`,
    `TestOrbit::test_nan_initial_step_stalls`)."""

    # solve_ivp's event locator raises here: the step ends show a ray
    # crossing within rounding of zero that the step's continuous extension
    # misses.  The step loop takes the step end as the crossing, one before
    # t = 1e-3 that does not count, and the orbit goes on to stall.
    SIGN_ERROR = "ValueError: f(a) and f(b) must have different signs"
    STEP_END_CROSSINGS = {
        (-13103.010434717424, -25181.089514334704):
            "StiffnessError: solver stalled at t = 9.20503e-19 "
            "(|state| = 8.61e+07): Required step size is less than spacing "
            "between numbers."}

    @staticmethod
    def draws():
        rnd = random.Random(20261020)
        q = lambda lo=-4, hi=4: Fraction(rnd.randint(lo, hi), 4)
        for r0 in (0.1, 0.25, 0.4):
            d, e, g, h = q(), q(), q(), q()
            yield numeric(d=d, e=e, f=-3 * (d + h), g=g, h=h), r0, 0.0
            yield numeric(b=q(), e=q(), g=q()), r0, 0.0
            a, b, d, e = q(1, 4), q(), q(), q()
            f, g, h = case_iii_fgh(a, b, d, e)
            yield numeric(a=a, b=b, c=-a, d=d, e=e, f=f, g=g, h=h), r0, 0.0
        for _ in range(3):  # foci, on oblique rays
            phi = rnd.uniform(0, TWO_PI)
            r0 = rnd.choice((0.1, 0.25))
            params = numeric(**{n: q() for n in quintic.PARAM_NAMES})
            yield params, r0 * math.cos(phi), r0 * math.sin(phi)
        for _ in range(2):  # blow-ups before t = 2 pi, as in the benchmark
            yield numeric(a=q(3, 4), b=q(-1, 1), c=q(3, 4), d=q(2, 4),
                          e=q(-1, 1), f=q(0, 4), g=q(-1, 1), h=q(2, 4)), 0.4, 0.0
        # blow-ups from far out on oblique rays, which cross the ray in
        # rounding noise before they have turned: spurious hits below 1e-3
        for x0, y0 in ((7187.6487107513885, 14355.423443952617),
                       (-13103.010434717424, -25181.089514334704),
                       (-11124.566935347859, -7036.685629540917)):
            yield numeric(a=1, b=Fraction(1, 4), c=Fraction(3, 4),
                          e=Fraction(1, 4), g=Fraction(3, 4),
                          h=Fraction(1, 4)), x0, y0
        # an escape: from near the escape radius it comes before a stall
        yield numeric(b=Fraction(1, 4), c=1, d=Fraction(1, 4), e=Fraction(3, 4),
                      f=1, g=Fraction(3, 4), h=Fraction(3, 4)), \
            -454711966.11308384, -128884555.02755252
        # overflow in the right-hand side
        yield numeric(a=Fraction(10) ** 300, h=-Fraction(10) ** 300), 1e5, 1e5
        # an infinite first slope: the initial step is 0, over which numpy
        # divides to nan, and the right-hand side overflows on the first step
        yield numeric(a=Fraction(10) ** 300), 100.0, 3.0
        yield numeric(d=Fraction(10) ** 300), 100.0, 0.0

    def test_ray_return_time(self):
        rnd = random.Random(28)
        got, want, spurious, fixed = [], [], 0, []
        for params, x0, y0 in self.draws():
            sysm = quintic.build_system(params)
            tol = 10.0 ** -rnd.randint(6, 12)
            ref, noisy = reference_ray_return(sysm, x0, y0, tol)
            if ref == self.SIGN_ERROR:
                ref = self.STEP_END_CROSSINGS[x0, y0]
                fixed.append((x0, y0))
            want.append(ref)
            spurious += noisy
            got.append(outcome(lambda: ray_return_time(sysm, x0, y0, tol)))
        assert got == want
        assert fixed == list(self.STEP_END_CROSSINGS)
        kinds = {w.split(":")[0] if ":" in w else "returned" for w in want}
        assert kinds == {"returned", "EscapedError", "StiffnessError"}
        assert spurious

    def test_integrate(self):
        rnd = random.Random(29)
        got, want = [], []
        for params, x0, y0 in self.draws():
            sysm = quintic.build_system(params)
            tol = 10.0 ** -rnd.randint(6, 12)
            t_end = rnd.choice((0.5, 1.0))
            want.append(reference_integrate(sysm, x0, y0, t_end, tol))
            got.append(outcome(lambda: integrate(sysm, x0, y0, t_end, tol)))
        assert got == want
        assert sum(w.startswith("([0.0") for w in want) >= 10
        assert any(w.startswith("EscapedError") for w in want)


class TestBrentq:
    """`orbits.brentq` gives scipy's brentq floats and errors at xtol = rtol
    = 4 eps, bit for bit."""

    @staticmethod
    def functions(rnd):
        """(f, a, b): smooth and steep sign changes at a random point, steps,
        zeros at either end, same signs and nan values."""
        for _ in range(300):
            a = rnd.uniform(-10, 10)
            b = a + rnd.choice((1, -1)) * 10 ** rnd.uniform(-12, 1)
            r = rnd.uniform(min(a, b), max(a, b))
            k = 10 ** rnd.uniform(-3, 9)
            yield lambda x: (x - r) * (1 + k * x * x), a, b
            yield lambda x: (x - r) ** 3 + (x - r) / k, a, b
            yield lambda x: math.tanh(k * (x - r)), a, b
            yield lambda x: math.exp(min(k * (x - r), 700.0)) - 1, a, b
            yield lambda x: 1.0 if x > r else -k, a, b
            yield lambda x: (x - a) * k, a, b
            yield lambda x: (x - b) * k, a, b
            yield lambda x: k + (x - r) ** 2, a, b
            yield lambda x: math.nan if x > r else -1.0, a, b

    def test_bit_identical_to_scipy(self):
        def run(solve, f, a, b):
            try:
                return repr(solve(f, a, b))
            except (ValueError, RuntimeError) as exc:
                return f"{type(exc).__name__}: {exc}"

        eps4 = 4 * np.finfo(float).eps
        got, want = [], []
        for f, a, b in self.functions(random.Random(29)):
            got.append(run(orbits.brentq, f, a, b))
            want.append(run(lambda *fab: scipy_brentq(*fab, xtol=eps4,
                                                      rtol=eps4), f, a, b))
        assert got == want
        assert sum(w.startswith("ValueError: f(a) and f(b)") for w in want) >= 300
        assert any(w.startswith("ValueError: The function value") for w in want)


def maximizer_count(q):
    try:
        return len(boundary_curve(*q).maximizers)
    except InapplicableBoundaryError:
        return None


@st.composite
def quartic_images(draw):
    """A nonzero integer quartic (d, e, g, h) and its image under a positive
    rational scaling in [1e-16, 1e16], quarter turns and a reflection."""
    q = tuple(Fraction(draw(st.integers(-3, 3))) for _ in range(4))
    assume(any(q))
    scale = (Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
             * Fraction(10) ** draw(st.integers(-15, 15)))
    d, e, g, h = (scale * c for c in q)
    for _ in range(draw(st.integers(0, 3))):
        d, e, g, h = h, -g, -e, d
    if draw(st.booleans()):
        d, h = -d, -h
    return q, (d, e, g, h)


class TestBeyondFloatRange:
    def test_compile_rhs(self, beyond_decimal_emax):
        sysm = PlanarSystem(Y + beyond_decimal_emax * X ** 2, -X)
        with pytest.raises(ValueError, match=r"coefficient 1E\+1000001 is beyond"):
            orbits.compile_rhs(sysm)

    def test_boundary_curve(self, beyond_decimal_emax):
        with pytest.raises(ValueError, match=r"coefficient 1E\+1000001 is beyond"):
            boundary_curve(0, beyond_decimal_emax, 1, 0)

    def test_parameters_left(self):
        with pytest.raises(ValueError, match="parameters left"):
            orbits.compile_rhs(PlanarSystem(Y + Poly.var("a") * X ** 2, -X))


class TestBoundary:
    def test_four_fold_example(self):
        res = boundary_curve(0, 1, -1, 0)
        assert abs(res.c0 - 1.0) < 1e-9
        assert len(res.maximizers) == 4
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        for got, want in zip(res.maximizers, expected):
            assert abs(got - want) < 1e-6

    def test_two_fold_example(self):
        res = boundary_curve(0, 1, 1, 0)
        assert abs(res.c0 - 1.0) < 1e-9
        assert len(res.maximizers) == 2

    def test_inapplicable_when_max_not_positive(self):
        with pytest.raises(InapplicableBoundaryError):
            boundary_curve(0, -1, 1, 0)

    def test_zero_quartic_inapplicable(self):
        with pytest.raises(InapplicableBoundaryError) as exc:
            boundary_curve(0, 0, 0, 0)
        assert str(exc.value) == "boundary formula inapplicable (c0 = 0 <= 0)"

    @pytest.mark.parametrize("first", [1e-9, 8e-7])
    def test_cluster_wraps_through_two_pi(self, first):
        """An angle within tol below 2 pi joins a cluster that starts within
        tol of 0, even 1.6 tol from its start (first = 8e-7)."""
        angles = [first, TWO_PI - first]
        assert orbits._cluster_angles(angles, 1e-6) == [first]

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            boundary_curve(0, 1, -1, 0, N=8)

    def test_n_cap(self):
        res = boundary_curve(0, 1, -1, 0, N=orbits.MAX_BOUNDARY_N)
        assert len(res.rhos) == orbits.MAX_BOUNDARY_N
        with pytest.raises(ValueError, match="N must be in"):
            boundary_curve(0, 1, -1, 0, N=orbits.MAX_BOUNDARY_N + 1)

    def test_defining_identity(self):
        """Finite samples satisfy rho^4 (c0 - Q) = 1; maximizers give inf."""
        d, e, g, h = 1, 2, -1, 0
        res = boundary_curve(d, e, g, h)

        def Q(phi):
            c, s = math.cos(phi), math.sin(phi)
            return (e * c ** 4 - 4 * d * c ** 3 * s
                    + 4 * h * c * s ** 3 - g * s ** 4)

        saw_finite = False
        for phi, rho in zip(res.phis, res.rhos):
            if math.isinf(rho):
                assert res.c0 - Q(phi) < 1e-9
            else:
                saw_finite = True
                assert abs(rho ** 4 * (res.c0 - Q(phi)) - 1.0) < 1e-9
        assert saw_finite

    def test_sample_count(self):
        res = boundary_curve(0, 1, -1, 0, N=128)
        assert len(res.phis) == len(res.rhos) == 128

    def test_tiny_scale_four_fold(self):
        res = boundary_curve(0, Fraction("1e-13"), Fraction("-1e-13"), 0)
        assert res.btype == "B4"

    @seed(20240824)
    @settings(max_examples=200, deadline=None)
    @given(quartic_images())
    def test_maximizer_count_invariant(self, pair):
        """Positive scaling, quarter turns and reflections of the plane keep
        the maximizer count (and whether the formula applies)."""
        q, image = pair
        assert maximizer_count(image) == maximizer_count(q)


# Prints the B-type of a case (i) boundary, the case and B-type of a center
# of each case, the kind and value at (0.3, 0.1) of a rational and a Darboux
# integral (`INTEGRAL_POINTS`), and whether numpy is loaded afterwards.
INTEGRAL_POINTS = ([0, 0, 0, 1, 0, -3, 0, 0], [0, 1, 0, 0, 1, 0, -1, 0])
NUMPY_FREE_PROBE = f"""
import json, sys
from isoquintic import orbits, quintic
tags = [orbits.boundary_curve(0, 1, -1, 0).btype]
for values in ([0, 0, 0, 0, 1, 0, -1, 0], [0, 1, 0, 0, 1, 0, -1, 0],
               [1, 0, -1, 1, 0, 0, 0, -1]):
    params = quintic.QuinticParams.numeric(*values)
    case = quintic.theorem_case(params)
    tags.append([case.tag.value, orbits.center_type(params, case).tag])
integrals = []
for values in {INTEGRAL_POINTS}:
    params = quintic.QuinticParams.numeric(*values)
    spec = quintic.first_integral(params, quintic.theorem_case(params))
    integrals.append([spec.kind, orbits.integral_value(spec.payload, 0.3, 0.1)])
print(json.dumps([tags, integrals, "numpy" in sys.modules]))
"""


class TestCenterType:
    def test_case_ii_same_signs(self):
        params = numeric(b=1, e=1, g=2)
        verdict = center_type(params, quintic.theorem_case(params))
        assert (verdict.tag, verdict.evidence) == ("B2", "eg-rule")

    def test_case_ii_opposite_signs(self):
        params = numeric(b=1, e=1, g=-1)
        verdict = center_type(params, quintic.theorem_case(params))
        assert verdict.tag == "B4"

    def test_case_i_by_maximizers(self):
        params = numeric(e=1, g=-1)
        verdict = center_type(params, quintic.theorem_case(params))
        assert (verdict.tag, verdict.evidence) == ("B4", "maximizers(4)")
        params2 = numeric(e=1, g=1)
        verdict2 = center_type(params2, quintic.theorem_case(params2))
        assert (verdict2.tag, verdict2.evidence) == ("B2", "maximizers(2)")

    def test_case_i_inapplicable(self):
        params = numeric(e=-1, g=1)
        verdict = center_type(params, quintic.theorem_case(params))
        assert verdict.tag == "Unknown"
        assert verdict.evidence.startswith("inapplicable")

    def test_case_iii_via_rotation(self):
        f, g, h = case_iii_fgh(1, 0, 1, 0)
        params = numeric(a=1, c=-1, d=1, f=f, g=g, h=h)
        verdict = center_type(params, quintic.theorem_case(params))
        assert (verdict.tag, verdict.evidence) == ("B2", "eg-rule")

    def test_coefficient_beyond_float_range(self):
        # both cases read exact coefficients: u = 10^400 (x^2 + y^2) here
        big = 10 ** 400
        f, g, h = case_iii_fgh(1, 0, big, 0)
        params = numeric(a=1, c=-1, d=big, f=f, g=g, h=h)
        verdict = center_type(params, quintic.theorem_case(params))
        assert (verdict.tag, verdict.evidence) == ("B2", "eg-rule")

    @pytest.mark.parametrize("e,g,tag", [
        (Fraction(1, 10 ** 200), Fraction(-1, 10 ** 200), "B4"),
        (10 ** 400, -1, "B4"),
        (-(10 ** 400), Fraction(-1, 10 ** 400), "B2"),
        (0, -1, "B2"),
    ], ids=["underflow", "overflow", "same-sign", "zero"])
    def test_case_ii_exact_signs(self, e, g, tag):
        """The float product e g underflows to -0.0 for the first point
        and overflows for the second; the signs decide."""
        params = numeric(b=1, e=e, g=g)
        verdict = center_type(params, quintic.theorem_case(params))
        assert (verdict.tag, verdict.evidence) == (tag, "eg-rule")

    @pytest.mark.parametrize("e,g,tag", [
        (1e-200, -1e-200, "B4"), (-1e-200, -1e-200, "B2"), (0.0, 1.0, "B2"),
        (-0.0, 1.0, "B2"), (3.0, -2.0, "B4")])
    def test_eg_rule_on_floats(self, e, g, tag):
        """Float coefficients enter as their exact binary values, in case
        (ii) and in case (iii), here with u = (e x^2 + g y^2) / 2 rotated by
        45 degrees: d = (e + g) / 4 and e3 = (e - g) / 2 at a = 1, b = 0."""
        e, g = Fraction(e), Fraction(g)
        params = numeric(b=1, e=e, g=g)
        assert center_type(params, quintic.theorem_case(params)).tag == tag
        d, e3 = (e + g) / 4, (e - g) / 2
        f, g3, h = case_iii_fgh(1, 0, d, e3)
        params = numeric(a=1, c=-1, d=d, e=e3, f=f, g=g3, h=h)
        assert center_type(params, quintic.theorem_case(params)).tag == tag

    @pytest.mark.parametrize("scale", [1, 10 ** 300, Fraction(1, 10 ** 300),
                                       10 ** 400, Fraction(1, 10 ** 400)],
                             ids=["1", "1e300", "1e-300", "1e400", "1e-400"])
    @pytest.mark.parametrize("d,e,g,h,tag", [
        (0, 1, 1, 0, "B2"), (0, 1, -1, 0, "B4"), (0, -1, 1, 0, "Unknown")])
    def test_case_i_scale_invariant(self, d, e, g, h, tag, scale):
        """A positive scaling of d, e, g, h is x, y -> x, y / s^(1/4) up to
        time: the verdict, its evidence included, is that at scale 1, also
        where the scaled coefficients leave the float range."""
        def verdict(s):
            params = numeric(d=s * d, e=s * e, f=-3 * s * (d + h), g=s * g,
                             h=s * h)
            return center_type(params, quintic.theorem_case(params))

        assert verdict(scale) == verdict(1)
        assert verdict(1).tag == tag

    def test_rules_agree_where_both_apply(self):
        # the quartic-only subfamily satisfies (i) and, when b = 0, the
        # boundary count must match the sign rule on (e, g)
        for e, g in ((1, 2), (1, -1), (2, 1), (-1, -2)):
            params = numeric(e=e, g=g)
            case = quintic.theorem_case(params)
            by_boundary = center_type(params, case)
            if by_boundary.tag == "Unknown":
                continue
            eg_tag = "B2" if e * g >= 0 else "B4"
            assert by_boundary.tag == eg_tag

    def test_runs_without_numpy(self):
        """The boundary, a B-type of each case and the value of a rational
        and a Darboux integral, in a fresh interpreter: only the solve
        imports numpy, and the values are those of this process."""
        integrals = []
        for values in INTEGRAL_POINTS:
            params = quintic.QuinticParams.numeric(*values)
            spec = quintic.first_integral(params, quintic.theorem_case(params))
            integrals.append([spec.kind, integral_value(spec.payload, 0.3, 0.1)])
        assert [kind for kind, _ in integrals] == ["rational", "darboux-exp"]
        assert run_fresh(NUMPY_FREE_PROBE) == [
            ["B4", ["i", "B4"], ["ii", "B4"], ["iii", "B2"]], integrals, False]


class TestIntegralValue:
    def test_darboux_is_the_product(self):
        """H = C1^2 C2^-1 C3^-b, written out by hand at one point."""
        b, e, g, x, y = 2.0, 1.0, -2.0, 0.3, 0.2
        cand = darboux_candidate(Fraction(1), Fraction(-2), 2)
        u = e * x * x + g * y * y
        c2 = (e - g) + b * u + u * u
        want = (x * x + y * y) ** 2 / c2 * math.exp(-b * c3_exponent(u, e - g, b))
        assert integral_value(cand, x, y) == pytest.approx(want, rel=1e-14)

    def test_darboux_needs_numbers(self):
        with pytest.raises(UnboundVariableError):
            integral_value(darboux_candidate("e", "g", "b"), 0.1, 0.2)
        with pytest.raises(ValueError, match="not constant"):
            integral_value(darboux_candidate(1, 2, "b"), 0.1, 0.2)


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

    def test_double_pole_within_rounding_raises(self):
        """A shift within rounding of b^2 / 4 takes the double-root branch,
        whose pole -b/2 lies in [-1, 0]: the integral there is about
        -pi 10^7 at shift = 1/4 + 1e-14, not the finite -2/(2t + 1) jump."""
        for shift in (0.25, 0.25 + 1e-14, 0.25 - 1e-14):
            with pytest.raises(DomainError):
                c3_exponent(-1.0, shift)
        assert abs(c3_exponent(1.0, 0.25 + 1e-14) - 4.0 / 3.0) < 1e-12

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


class TestConservation:
    def test_drift_rational_integral(self):
        params = numeric(d=1, f=-3)
        spec = quintic.first_integral(params, quintic.theorem_case(params))
        sysm = quintic.build_system(params)
        traj = integrate(sysm, 0.3, 0.0, TWO_PI)
        assert conservation_drift(integral_of(spec), traj) < 1e-7

    def test_drift_exponential_integral(self):
        params = numeric(b=1, e=1, g=-1)
        spec = quintic.first_integral(params, quintic.theorem_case(params))
        sysm = quintic.build_system(params)
        traj = integrate(sysm, 0.3, 0.0, TWO_PI)
        assert conservation_drift(integral_of(spec), traj) < 1e-6

    def test_focus_orbit_is_not_conserved(self):
        params = numeric(b=1, e=1, g=-1)
        spec = quintic.first_integral(params, quintic.theorem_case(params))
        focus = quintic.build_system(numeric(a=1, b=1, e=1, g=-1))
        traj = integrate(focus, 0.2, 0.0, 2 * TWO_PI)
        assert conservation_drift(integral_of(spec), traj) > 1e-3

    def test_zero_value_rejected(self):
        traj = integrate(ROT, 0.0, 0.5, 1.0)
        with pytest.raises(DomainError):
            conservation_drift(lambda x, y: x, traj)

    def test_pole_rejected(self):
        traj = integrate(ROT, 1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            conservation_drift(lambda x, y: 1.0 / (x - 1.0), traj)
