import cmath
import math
import random
import re
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import poly_roots, run_script
from karpelevic.algebra import charpoly_exact
from karpelevic.boundary import (
    NEWTON_ITERS,
    STEP_FLOOR,
    ArcTrace,
    ContinuationError,
    Region,
    _Branch,
    boundary_svg,
    contains,
    point_at,
    radius_at,
    region_boundary,
    trace_arc,
    trace_csv,
    traces_json_payload,
)
from karpelevic.farey import ArcParams, ArcType, arc_params, arcs_of_order
from karpelevic.itopoly import reduced_ito, reduced_shifts
from karpelevic.realize import build_sparsest

F = Fraction


def _ends(arc):
    """The arc's endpoints as fractions, ascending."""
    return sorted((F(arc.p, arc.q), F(arc.r, arc.s)))


class TestPolyRoots:
    def test_cube_roots_of_unity(self):
        roots = poly_roots([-1, 0, 0, 1])
        expected = [1, cmath.exp(2j * math.pi / 3), cmath.exp(-2j * math.pi / 3)]
        for e in expected:
            assert min(abs(r - e) for r in roots) < 1e-10

    def test_zero_and_one(self):
        roots = poly_roots([0, -1, 1])
        assert sorted(round(r.real, 12) for r in roots) == [0.0, 1.0]

    def test_residuals_only(self):
        # (t^4 - 2/3)^3 - (1/27) t^3, the order-12 arc polynomial at 1/3
        import numpy as np

        base = np.zeros(5)
        base[0], base[4] = -2 / 3, 1.0
        coeffs = np.array([1.0])
        for _ in range(3):
            coeffs = np.convolve(coeffs, base)
        coeffs[3] -= 1 / 27
        roots = poly_roots(coeffs)
        assert len(roots) == 12
        bound = 1e-10 * 12 * max(abs(c) for c in coeffs)
        for r in roots:
            assert abs(sum(c * r ** k for k, c in enumerate(coeffs))) <= bound

    def test_deterministic_order(self):
        assert poly_roots([-1, 0, 0, 0, 1]) == poly_roots([-1, 0, 0, 0, 1])

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            poly_roots([1])
        with pytest.raises(ValueError):
            poly_roots([1, 0])


class TestTraceArc:
    def test_type0_matches_closed_form(self):
        arc = arcs_of_order(3)[0]
        trace = trace_arc(arc, 128)
        omega = cmath.exp(2j * math.pi / 3)
        for a, z in trace.samples:
            assert abs(z - ((1 - a) + a * omega)) < 1e-10

    def test_order4_lens_arc_endpoints(self):
        arc = ArcParams(4, 1, 2, 1, 3)  # 1/3-1/2
        trace = trace_arc(arc, 64)
        assert abs(trace.samples[0][1] - (-1)) < 1e-9
        assert abs(trace.samples[-1][1] - cmath.exp(2j * math.pi / 3)) < 1e-9

    def test_endpoints_on_unit_circle(self):
        for n in (2, 3, 4, 5, 6):
            for arc in arcs_of_order(n):
                trace = trace_arc(arc, 32)
                assert abs(abs(trace.samples[0][1]) - 1) < 1e-9
                assert abs(abs(trace.samples[-1][1]) - 1) < 1e-9

    def test_order3_sting_goes_real(self):
        arc = arcs_of_order(3)[1]
        trace = trace_arc(arc, 128)
        below = [z for a, z in trace.samples if 0 < a < 0.24]
        assert below and all(abs(z.imag) < 1e-9 for z in below)
        assert all(z.imag > -1e-12 for _, z in trace.samples)
        assert abs(point_at(trace, F(1, 4)) - (-0.5)) < 1e-6

    def test_samples_sorted_and_bounded(self):
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        trace = trace_arc(arc, 64)
        alphas = [a for a, _ in trace.samples]
        assert alphas == sorted(alphas)
        assert alphas[0] == 0.0 and alphas[-1] == 1.0
        assert trace.residual_bound < 1e-9

    def test_start_and_end_points_are_the_arc_endpoints(self):
        for n in (3, 5, 12):
            for arc in arcs_of_order(n):
                trace = trace_arc(arc, 16)
                assert trace.start_point == trace.samples[0][1]
                assert trace.end_point == trace.samples[-1][1]
                assert abs(trace.start_point - cmath.exp(2j * math.pi * arc.p / arc.q)) < 1e-15
                assert abs(trace.end_point - cmath.exp(2j * math.pi * arc.r / arc.s)) < 1e-15

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            trace_arc(arc_params(ArcType.TYPE_0, n=3), 1)

    def test_residual_bound_is_the_worst_exact_residual(self):
        """residual_bound against |reduced_ito(arc, a)(t)| evaluated exactly
        at each float sample (a, t), on every arc of orders 2..10."""

        def exact_residual(poly, t):
            x, y = F(t.real), F(t.imag)
            re = im = F(0)
            for c in reversed(poly.coeffs):
                re, im = re * x - im * y + c, re * y + im * x
            return math.hypot(re, im)

        for n in range(2, 11):
            for arc in arcs_of_order(n):
                trace = trace_arc(arc, 32)
                worst = max(exact_residual(reduced_ito(arc, F(a)).poly, t) for a, t in trace.samples)
                worst = max(worst, 1e-15)
                assert abs(trace.residual_bound - worst) <= 1e-12, arc
                # The two differ by rounding only, not by a factor.
                assert worst / 2 <= trace.residual_bound <= 2 * worst, arc


def _upper_half_arcs(n):
    return [arc for arc in arcs_of_order(n) if _ends(arc)[1] <= F(1, 2)]


def _reference_newton(branch, a, u):
    for _ in range(NEWTON_ITERS):
        f, df, _, size = branch.terms(a, u)
        if abs(f) <= 16 * sys.float_info.epsilon * size:
            return u
        if df == 0:
            return None
        u -= f / df
    return None


def reference_trace(arc, m):
    """Test-only reference: the predictor-then-Newton walk that evaluates
    each accepted root twice, once as Newton's converged point and again
    for the next tangent predictor, so trace_arc, which reads the second
    evaluation off the first, must give the same samples bit for bit."""
    goal = cmath.exp(2j * math.pi * arc.r / arc.s)
    grid = [k / m for k in range(m - 1, 0, -1)]
    tail = 1.0 / m
    while tail / 2 >= 1e-6:
        tail /= 2
        grid.append(tail)
    if arc.type_tag is ArcType.TYPE_0:
        points = [(a, (1.0 - a) + a * goal) for a in grid]
    else:
        branch, points = _Branch.of(arc), []

        def step(a0, u0, a1):
            _, df, fa, _ = branch.terms(a0, u0)
            guess = u0 - (a1 - a0) * fa / df
            u1 = _reference_newton(branch, a1, guess)
            if u1 is None or abs(u1 - guess) > 0.5 * abs(guess - u0):
                return None
            return u1

        a, u = 1.0, goal / branch.omega
        for target in grid:
            while a > target:
                a_try = target
                while (u_try := step(a, u, a_try)) is None:
                    a_try = 0.5 * (a + a_try)
                    assert a - a_try >= STEP_FLOOR, (arc, a)
                a, u = a_try, u_try
                points.append((a, branch.omega * u))
    samples = [(0.0, cmath.exp(2j * math.pi * arc.p / arc.q))] + points[::-1] + [(1.0, goal)]
    q, d, (y, z) = arc.q, arc.d, reduced_shifts(arc)
    worst = max(abs(t ** y * (t ** q - (1.0 - a)) ** d - a ** d * t ** z) for a, t in samples)
    return ArcTrace(arc=arc, samples=tuple(samples), residual_bound=max(worst, 1e-15))


def reference_point_at(trace, alpha):
    """Test-only reference for point_at: one Newton solve from the chord."""
    a, arc = float(alpha), trace.arc
    if arc.type_tag is ArcType.TYPE_0:
        return (1.0 - a) + a * cmath.exp(2j * math.pi * arc.r / arc.s)
    hi = next(k for k, (ak, _) in enumerate(trace.samples) if ak > a or k == len(trace.samples) - 1)
    (a0, z0), (a1, z1) = trace.samples[hi - 1], trace.samples[hi]
    seed, branch = z0 + (a - a0) / (a1 - a0) * (z1 - z0), _Branch.of(arc)
    return branch.omega * _reference_newton(branch, a, seed / branch.omega)


class TestReuseOfNewtonEvaluations:
    """trace_arc hands each converged Newton evaluation to the next step's
    predictor instead of evaluating the root again."""

    @pytest.mark.parametrize("m", [16, 64, 128])
    def test_bit_identical_to_the_reference(self, m):
        # Every upper-half arc of orders 2..20 but the order-3 Type I arc
        # 1/3-1/2, which has its own closed form (TestOrder3TypeI).
        arcs = [arc for n in range(2, 21) for arc in _upper_half_arcs(n)]
        for arc in arcs:
            if arc.type_tag is ArcType.TYPE_I and arc.q == 2:
                continue
            trace, expected = trace_arc(arc, m), reference_trace(arc, m)
            # repr tells -0.0 from 0.0 and prints every float exactly.
            assert repr(trace) == repr(expected), (arc, m)
            for alpha in (F(3, 1000), F(1, 17), F(5, 7)):
                assert repr(point_at(trace, alpha)) == repr(reference_point_at(expected, alpha))

    def test_no_point_evaluated_twice(self, monkeypatch):
        terms = _Branch.terms
        calls = []

        def recording_terms(self, a, u):
            calls.append((a, u))
            return terms(self, a, u)

        monkeypatch.setattr(_Branch, "terms", recording_terms)
        for n in range(2, 13):
            for arc in arcs_of_order(n):
                calls.clear()
                trace_arc(arc, 128)
                repeated = len(calls) - len(set(calls))
                assert repeated == 0, (arc, repeated, len(calls))


class TestBranchContinuation:
    def test_orders_11_to_14_trace_and_meet_residual_target(self):
        # The q = 2 arcs of orders 12..14 once defeated the root solver.
        for n in range(11, 15):
            for arc in _upper_half_arcs(n):
                trace = trace_arc(arc, 128)
                assert abs(trace.samples[0][1] - cmath.exp(2j * math.pi * arc.p / arc.q)) <= 1e-9
                assert abs(trace.samples[-1][1] - cmath.exp(2j * math.pi * arc.r / arc.s)) <= 1e-9
                for alpha in (F(1, 1000), F(1, 100), F(1, 10), F(1, 2)):
                    coeffs = [float(c) for c in reduced_ito(arc, alpha).poly.coeffs]
                    z = point_at(trace, alpha)
                    residual = abs(sum(c * z ** k for k, c in enumerate(coeffs)))
                    bound = 1e-10 * (len(coeffs) - 1) * max(abs(c) for c in coeffs)
                    assert residual <= bound, (arc, alpha, residual, bound)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.sampled_from([arc for n in range(2, 31) for arc in arcs_of_order(n)]),
        st.fractions(0, 1, max_denominator=10**4),
    )
    def test_generated_arcs_meet_residual_target(self, arc, alpha):
        # Any arc of orders 2..30, either half plane, at any alpha in [0, 1].
        coeffs = [float(c) for c in reduced_ito(arc, alpha).poly.coeffs]
        z = point_at(trace_arc(arc, 64), alpha)
        residual = abs(sum(c * z ** k for k, c in enumerate(coeffs)))
        bound = 1e-10 * (len(coeffs) - 1) * max(abs(c) for c in coeffs)
        assert residual <= bound, (arc, alpha, residual, bound)

    def test_every_upper_half_arc_to_order_40_traces(self):
        # No arc but the two order-3 Type I ones meets another root, so no
        # step is halved below STEP_FLOOR, which raises ContinuationError.
        for n in range(2, 41):
            for arc in _upper_half_arcs(n):
                assert trace_arc(arc, 16).residual_bound <= 1e-12, arc

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(_Branch, "solve", lambda self, a, u: None)
        with pytest.raises(ContinuationError, match=r"continuation stalled at a = 1$"):
            trace_arc(arc_params(ArcType.TYPE_II, q=4, d=3, z=3), 16)

    @pytest.mark.parametrize("alpha", [-0.5, F(-1, 100), 1.0000001, F(3, 2), float("nan")])
    # 3/4-7/9 and 0/1-1/5 as (p, q, r, s)
    @pytest.mark.parametrize("n, pair", [(12, (3, 4, 7, 9)), (5, (0, 1, 1, 5))])
    def test_point_at_rejects_parameters_outside_the_unit_interval(self, n, pair, alpha):
        trace = trace_arc(ArcParams(n, *pair), 16)  # Type II; Type 0 in closed form
        with pytest.raises(ValueError, match=rf"^parameter must lie in \[0, 1\], got {re.escape(str(alpha))}$"):
            point_at(trace, alpha)

    @pytest.mark.parametrize("alpha", [True, False])
    def test_point_at_rejects_a_bool(self, alpha):
        trace = trace_arc(arc_params(ArcType.TYPE_II, q=4, d=3, z=3), 16)
        with pytest.raises(ValueError, match=f"^parameter must be a number, got {alpha}$"):
            point_at(trace, alpha)  # was a TypeError from rat

    def test_point_at_raises_when_newton_does_not_converge(self):
        # Seeds a million times too far out: Newton on u^4 - ... only
        # shrinks them by about 3/4 a step, so it is still far after
        # NEWTON_ITERS steps.
        trace = trace_arc(arc_params(ArcType.TYPE_II, q=4, d=3, z=3), 16)
        far = replace(trace, samples=tuple((a, 1e6 * z) for a, z in trace.samples))
        with pytest.raises(ContinuationError, match=r"^Newton did not converge at a = 0\.5$"):
            point_at(far, F(1, 2))
        assert abs(point_at(trace, F(1, 2))) < 1  # the trace itself answers there

    def test_solve_gives_none_at_a_critical_point(self):
        # f = u^2 - 1/2 - u/2 at a = 1/2 (e = 1, c = 1): f' = 2u - 1/2
        # vanishes at u = 1/4, where Newton cannot step.
        branch = _Branch(q=2, e=1.0, c=1 + 0j, omega=1 + 0j)
        assert branch.solve(0.5, 0.25 + 0j) is None
        assert abs(branch.solve(0.5, 1 + 0j)[0] - 1) < 1e-15  # the root u = 1

    def test_solve_gives_none_when_newton_does_not_converge(self):
        # f = u^2 + 1 at a = 1 (e = 0, c = -1): from a real seed every
        # iterate stays real, so it never reaches the roots +-i.
        branch = _Branch(q=2, e=0.0, c=-1 + 0j, omega=1 + 0j)
        assert branch.solve(1.0, 0.5 + 0j) is None
        assert abs(branch.solve(1.0, 0.5 + 0.5j)[0] - 1j) < 1e-15

    def test_forward_error_against_companion_roots(self):
        # Each sample at a = k/16 sits on an independently computed root of
        # the reduced polynomial, except where two roots nearly coincide.
        # Type 0 samples are the closed form b + a*e^(2*pi*i*r/s), while the
        # companion roots of the expanded (t - b)^n - a^n drift by up to
        # 4e-4 at n = 10, so they are no reference there.
        for n in range(2, 11):
            for arc in arcs_of_order(n):
                if arc.type_tag is ArcType.TYPE_0:
                    continue
                samples = dict(reversed(trace_arc(arc, 128).samples))
                for k in range(1, 17):
                    alpha = F(k, 16)
                    z = samples[float(alpha)]
                    roots = poly_roots(reduced_ito(arc, alpha).poly.coeffs)
                    nearest = min(roots, key=lambda r: abs(r - z))
                    if min(abs(r - nearest) for r in roots if r is not nearest) < 1e-4:
                        continue
                    assert abs(nearest - z) <= 1e-8, (arc, alpha, abs(nearest - z))


ORDER3_TYPE_I = [ArcParams(3, 1, 2, 1, 3), ArcParams(3, 1, 2, 2, 3)]  # 1/3-1/2, 1/2-2/3


class TestOrder3TypeI:
    """The two order-3 Type I arcs are the root of t^2 + t + a that runs
    from -1 along the real axis to the double root -1/2 at a = 1/4, and
    then into the arc's half plane."""

    @staticmethod
    def check_root(arc, a, t):
        assert abs(t * t + t + a) <= 8 * sys.float_info.epsilon * (abs(t * t) + abs(t) + a), (a, t)
        if a <= 0.25:
            assert t.imag == 0.0 and -1.0 <= t.real <= -0.5, (a, t)
        elif arc.r * 2 < arc.s:  # the upper arc, r/s = 1/3
            assert t.imag > 0.0, (a, t)
        else:
            assert t.imag < 0.0, (a, t)

    @pytest.mark.parametrize("m", [16, 128])
    def test_samples(self, m, monkeypatch):
        # Sampled in closed form: no Newton solve is needed.
        monkeypatch.setattr(_Branch, "solve", lambda self, a, u: None)
        for arc in ORDER3_TYPE_I:
            trace = trace_arc(arc, m)
            for a, t in trace.samples[1:-1]:
                self.check_root(arc, a, t)
            for a, t in (trace.samples[0], trace.samples[-1]):  # the exact endpoints
                assert abs(t * t + t + a) <= 1e-15, (a, t)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from(ORDER3_TYPE_I), st.floats(0, 1))
    def test_point_at(self, arc, a):
        self.check_root(arc, a, point_at(trace_arc(arc, 16), a))

    def test_double_root_and_midpoint(self):
        upper, lower = (trace_arc(arc, 16) for arc in ORDER3_TYPE_I)
        assert point_at(upper, F(1, 4)) == point_at(lower, F(1, 4)) == -0.5
        assert point_at(upper, F(1, 2)) == complex(-0.5, 0.5)
        assert point_at(lower, F(1, 2)) == complex(-0.5, -0.5)


class TestRegionBoundary:
    def test_counts(self):
        for n in (2, 3, 4, 5):
            assert [t.arc for t in region_boundary(n, 16)] == arcs_of_order(n)

    def test_conjugate_symmetry(self):
        traces = region_boundary(4, 32)
        by_pair = {tuple(_ends(t.arc)): t for t in traces}
        for (lo, hi), t in by_pair.items():
            mirror = by_pair[(1 - hi, 1 - lo)]
            for (a1, z1), (a2, z2) in zip(t.samples, mirror.samples):
                assert a1 == a2
                assert abs(z1 - z2.conjugate()) < 1e-12

    def test_traced_independently_mirrors_match(self):
        # Tracing a lower-half arc directly agrees with the reflected trace.
        lower = arcs_of_order(3)[2]
        upper = arcs_of_order(3)[1]
        tr_lower = trace_arc(lower, 64)
        tr_upper = trace_arc(upper, 64)
        for a, z in tr_lower.samples:
            assert abs(z - point_at(tr_upper, a).conjugate()) < 1e-9


class TestRegionMembership:
    def test_order2_is_the_real_segment(self):
        region = Region(2, 64)
        assert radius_at(2, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert radius_at(2, math.pi) == pytest.approx(1.0, abs=1e-12)
        assert radius_at(2, math.pi / 3) < 1e-12
        assert not region.contains(0.999 * cmath.exp(1j * math.pi / 3), 1e-7)
        assert region.contains(0.5)
        assert region.contains(-0.973)

    def test_circle_points(self):
        region = Region(3, 128)
        assert region.contains(cmath.exp(2j * math.pi / 3), 1e-7)
        assert region.contains(1.0, 1e-7)
        assert region.contains(0)

    def test_outside_circle(self):
        assert not contains(3, 1.2, 1e-7)
        assert not contains(3, 1j, 1e-7)  # i needs order 4

    def test_order4_contains_i(self):
        assert contains(4, 1j, 1e-7)

    def test_monotone_small(self):
        r5 = Region(5, 128)
        for trace in Region(4, 128).traces:
            for _, z in trace.samples:
                assert r5.contains(z, 1e-7)


def _traced_radius(traces, theta):
    """Boundary radius at theta from the traced branch: bisect a until arg t(a) = theta.

    Independent of the sign test.  Lower-half rays use the mirrored upper
    arc, since the region is symmetric about the real axis.
    """
    x = theta / (2 * math.pi) % 1.0
    if x > 0.5:
        theta, x = -theta, 1.0 - x
    for trace in traces:
        arc = trace.arc
        ends = sorted((F(arc.p, arc.q), F(arc.r, arc.s)))
        if ends[0] < x < ends[1]:
            break
    ray = cmath.exp(-1j * theta)

    def side(a):  # > 0 on the far side of the ray from the a = 0 endpoint
        return cmath.phase(point_at(trace, a) * ray) * (1 if F(arc.p, arc.q) < x else -1)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if side(mid) > 0 else (mid, hi)
    t = point_at(trace, lo)
    assert abs(cmath.phase(t * ray)) < 1e-12, (arc, theta)
    return abs(t)


class TestExactMembership:
    @pytest.mark.parametrize("n", [4, 5, 7, 10])
    def test_points_1e7_off_the_boundary(self, n):
        # A traced polyline's chords lie up to 1.4e-6 outside the arcs, so
        # the points just outside once came out inside.
        traces = [trace_arc(arc, 128) for arc in arcs_of_order(n) if max(
            F(arc.p, arc.q), F(arc.r, arc.s)) <= F(1, 2)]
        rng = random.Random(n)
        wrong = []
        for _ in range(300):
            theta = rng.uniform(0, 2 * math.pi)
            radius = _traced_radius(traces, theta)
            ray = cmath.exp(1j * theta)
            if contains(n, (radius + 1e-7) * ray, 1e-9):
                wrong.append(("outside", theta, radius))
            if not contains(n, (radius - 1e-7) * ray, 1e-9):
                wrong.append(("inside", theta, radius))
        assert wrong == []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(3, 60), st.floats(0, 1, exclude_min=True, exclude_max=True))
    def test_carrier_changes_sign_once_on_a_ray(self, n, x):
        arc = next(arc for arc in arcs_of_order(n) if x < _ends(arc)[1])
        lo, hi = _ends(arc)
        # Within 1e-9 of a Farey direction the change lies within rounding
        # of rho = 1, where the scan ends.
        assume(min(x - lo, hi - x) > 1e-9)
        branch, start = _Branch.of(arc), arc.p / arc.q
        values = [branch.carrier(k / 2000, 2 * math.pi * (x - start)) for k in range(1, 2001)]
        signs = [v > 0 for v in values if v != 0]
        assert sum(s0 != s1 for s0, s1 in zip(signs, signs[1:])) == 1
        # The reference point, the unit circle at the arc's mid angle, is
        # on the outer side too.
        mid = math.pi * float(lo + hi) - 2 * math.pi * start
        assert signs[-1] == (branch.carrier(1.0, mid) > 0)

    def test_outside_sign_is_read_from_the_denominators(self):
        # The membership test's rule: for neighbours lo = a/b < hi = c/d,
        # the carrier on the unit circle at the arc's mid angle is positive
        # iff b > d, and never 0 (the identity in the module docstring).
        arcs = 0
        for n in range(2, 101):
            for arc in arcs_of_order(n):
                lo, hi = _ends(arc)
                mid = math.pi * float(lo + hi) - 2 * math.pi * arc.p / arc.q
                value = _Branch.of(arc).carrier(1.0, mid)
                assert value != 0.0 and (value > 0) == (lo.denominator > hi.denominator), (arc, value)
                arcs += 1
        assert arcs == 104358

    def test_carrier_is_the_imaginary_part_of_the_branch_equation(self):
        # Zero on traced points, where a is real; else the sign of
        # Im[(1 - u^q) * conj(1 - c*u^e)] computed directly.
        rng = random.Random(5)
        for n in range(2, 13):
            for arc in arcs_of_order(n):
                branch, start = _Branch.of(arc), arc.p / arc.q
                for a, t in trace_arc(arc, 16).samples[1:-1]:
                    u = t / branch.omega
                    assert abs(branch.carrier(abs(u), cmath.phase(u))) < 1e-12, (arc, a)
                for _ in range(20):
                    rho, x = rng.uniform(0.05, 1), rng.uniform(start, arc.r / arc.s)
                    u = cmath.rect(rho, 2 * math.pi * (x - start))
                    direct = ((1 - u ** branch.q) * (1 - branch.c * u ** branch.e).conjugate()).imag
                    if abs(direct) > 1e-12:
                        assert (direct > 0) == (branch.carrier(rho, cmath.phase(u)) > 0), (arc, u)

    def test_no_overflow_near_zero(self):
        # Type I arcs have e = q - s, far below 0 at high order: u^e alone
        # overflows at |u| = 1e-200.
        for n in (60, 200):
            arc = min(arcs_of_order(n), key=lambda arc: _Branch.of(arc).e)
            assert arc.type_tag is ArcType.TYPE_I and _Branch.of(arc).e <= -n / 3
            theta = math.pi * (arc.p / arc.q + arc.r / arc.s)
            assert contains(n, 1e-200 * cmath.exp(1j * theta), 0.0)

    def test_nesting_on_rays(self):
        rng = random.Random(7)
        for n in range(2, 51):
            for _ in range(20):
                theta = rng.uniform(0, 2 * math.pi)
                z = radius_at(n, theta) * cmath.exp(1j * theta)
                assert contains(n + 1, z, 1e-9), (n, theta)

    def test_random_spectra_inside(self):
        gen = np.random.default_rng(12)
        for n in range(2, 13):
            for k in range(60):
                if k % 3 == 0:  # dense
                    a = gen.random((n, n)) ** 3
                elif k % 3 == 1:  # one to three nonzeros a row
                    a = np.zeros((n, n))
                    for row in a:
                        cols = gen.choice(n, size=gen.integers(1, min(n, 3) + 1), replace=False)
                        row[cols] = gen.random(len(cols))
                else:  # a permutation, slightly mixed
                    a = np.eye(n)[gen.permutation(n)] + 0.05 * gen.random((n, n))
                a /= a.sum(axis=1, keepdims=True)
                for z in np.linalg.eigvals(a):
                    assert contains(n, complex(z), 1e-7), (n, a, z)

    def test_region_reads_the_same_test(self):
        region = Region(5, 16)
        for theta in (0.1, 1.0, 2.5, 4.0):
            z = 0.9 * cmath.exp(1j * theta)
            assert region.contains(z) == contains(5, z)

    def test_within_tol_of_the_real_segment(self):
        # Order 2 has no interior, so a radial tol alone would put
        # e^(i*pi) = -1 + 1.2e-16j outside.
        assert contains(2, cmath.exp(1j * math.pi))
        assert contains(2, 0.3 - 1e-10j, 1e-9) and contains(3, 1 + 1e-10 + 1e-10j, 1e-9)
        assert not contains(2, 0.3 - 1e-8j, 1e-9)
        assert not contains(2, 1 + 1e-8, 1e-9)

    def test_rejects_order_below_2(self):
        for call in (lambda: contains(1, 0.5j), lambda: contains(1, 0.5),
                     lambda: radius_at(1, 0.5), lambda: Region(1, 16)):
            with pytest.raises(ValueError, match="^order must be at least 2$"):
                call()

    @pytest.mark.parametrize("call, got", [
        (lambda: contains(4.5, 0.5j), "4.5"),  # was True
        (lambda: contains(True, 0.5j), "True"),
        (lambda: Region(4.5, 16).contains(0.5j), "4.5"),
        (lambda: radius_at(4.5, 0.3), "4.5"),
    ], ids=["contains", "bool", "Region", "radius_at"])
    def test_rejects_an_order_that_is_not_an_int(self, call, got):
        with pytest.raises(ValueError, match=f"^order must be an integer, got {re.escape(got)}$"):
            call()

    @pytest.mark.parametrize("call, got", [
        (lambda: trace_arc(arcs_of_order(5)[1], 2.5), "2.5"),  # was a TypeError from range
        (lambda: region_boundary(5, 16.0), "16.0"),
        (lambda: Region(5, 16.0), "16.0"),
        (lambda: trace_arc(arcs_of_order(5)[1], True), "True"),
    ], ids=["trace_arc", "region_boundary", "Region", "bool"])
    def test_rejects_a_sample_count_that_is_not_an_int(self, call, got):
        with pytest.raises(ValueError, match=f"^m must be an integer, got {re.escape(got)}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: contains(7, complex("nan")), "z must be finite, got (nan+0j)"),  # was True
        (lambda: contains(7, complex(math.inf, 0.0)), "z must be finite, got (inf+0j)"),
        (lambda: Region(4, 16).contains(complex(0.5, math.nan)), "z must be finite, got (0.5+nanj)"),
        # was True, though 2 lies outside every region
        (lambda: contains(7, 2, math.nan), "tol must be finite, got nan"),
        (lambda: contains(7, 0.5, math.inf), "tol must be finite, got inf"),
        (lambda: radius_at(7, math.nan), "theta must be finite, got nan"),  # was 1.0
        (lambda: radius_at(7, -math.inf), "theta must be finite, got -inf"),
    ], ids=["z-nan", "z-inf", "Region-z", "tol-nan", "tol-inf", "theta-nan", "theta-inf"])
    def test_rejects_a_value_that_is_not_finite(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("call, message", [
        (lambda: contains(5, 1.5, True), "tol must be a number, got True"),  # was True
        (lambda: contains(5, True), "z must be a number, got True"),
        (lambda: Region(4, 16).contains(0.5j, False), "tol must be a number, got False"),
        (lambda: radius_at(5, True), "theta must be a number, got True"),
    ], ids=["tol", "z", "Region-tol", "theta"])
    def test_rejects_a_bool(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


class TestEigenvalueOnArc:
    def test_order12_eigenvalue_hits_arc(self):
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        trace = trace_arc(arc, 128)
        m = build_sparsest(arc, F(1, 3), (0, 3, 3))
        roots = poly_roots([float(c) for c in charpoly_exact(m).coeffs])
        target = point_at(trace, F(1, 3))
        assert min(abs(r - target) for r in roots) < 1e-8


class TestEmitters:
    def test_csv_shape(self):
        trace = trace_arc(arc_params(ArcType.TYPE_0, n=3), 16)
        text = trace_csv(trace)
        lines = text.strip().splitlines()
        assert lines[0] == "alpha,re,im"
        assert len(lines) == len(trace.samples) + 1

    def test_json_payload(self):
        traces = region_boundary(3, 16)
        payload = traces_json_payload(traces)
        assert len(payload) == 4
        assert all(set(p) == {"arc", "residual_bound", "samples"} for p in payload)

    def test_svg(self):
        svg = boundary_svg(region_boundary(3, 16))
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert svg.count("<polyline") == 4


class TestWithoutNumpy:
    """The package runs on the standard library alone: tracing, membership
    and the CLI verbs that reach them run where importing numpy fails."""

    SCRIPT = textwrap.dedent(
        """
        import cmath, contextlib, io, json, sys
        sys.modules["numpy"] = None  # any import of numpy now raises
        from fractions import Fraction as F
        from karpelevic.boundary import Region, contains, point_at, radius_at, trace_arc
        from karpelevic.cli import main
        from karpelevic.farey import ArcType, arc_params, arcs_of_order

        arcs = arcs_of_order(7)
        for arc in arcs[: len(arcs) // 2]:
            z = point_at(trace_arc(arc, 64), F(1, 3))
            assert contains(7, z) and not contains(7, 1.01 * z), arc
            assert abs(radius_at(7, cmath.phase(z)) - abs(z)) < 1e-9, arc
        region = Region(4, 64)
        assert len(region.traces) == len(arcs_of_order(4))
        assert region.contains(0.5j) and not region.contains(0.7 + 0.7j)

        region_out, matrix_out = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(region_out):
            assert main(["region", "5", "--json"]) == 0
        assert len(json.loads(region_out.getvalue())["arcs"]) == len(arcs_of_order(5))
        with contextlib.redirect_stdout(matrix_out):
            assert main(["realize", "II", "--q", "4", "--d", "3", "--z", "3",
                         "--alpha", "1/3", "--composition", "0,3,3"]) == 0
        with open(sys.argv[1], "w") as f:
            f.write(matrix_out.getvalue())
        arc12 = json.dumps(arc_params(ArcType.TYPE_II, q=4, d=3, z=3).to_json())
        sys.exit(main(["verify", "--matrix", sys.argv[1], "--arc", arc12, "--alpha", "1/3"]))
        """
    )

    def test_boundary_and_cli_verbs(self, tmp_path):
        result = run_script(self.SCRIPT, str(tmp_path / "m12.json"))
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("OK")
