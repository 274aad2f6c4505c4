import cmath
import math
from fractions import Fraction

import pytest

from karpelevic.algebra import charpoly_exact
from karpelevic.boundary import (
    Region,
    boundary_svg,
    contains,
    point_at,
    poly_roots,
    region_boundary,
    trace_arc,
    trace_csv,
    traces_json_payload,
)
from karpelevic.farey import ArcType, FareyPair, arc_params, arcs_of_order, classify_arc, farey_pairs
from karpelevic.itopoly import reduced_ito
from karpelevic.realize import Composition, type2_sparsest

F = Fraction


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
        arc = classify_arc(3, farey_pairs(3)[0])
        trace = trace_arc(arc, 128)
        omega = cmath.exp(2j * math.pi / 3)
        for a, z in trace.samples:
            assert abs(z - ((1 - a) + a * omega)) < 1e-10

    def test_order4_lens_arc_endpoints(self):
        arc = classify_arc(4, FareyPair(F(1, 3), F(1, 2), 4))
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
        arc = classify_arc(3, farey_pairs(3)[1])
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

    def test_rejects_tiny_m(self):
        with pytest.raises(ValueError):
            trace_arc(arc_params(ArcType.TYPE_0, n=3), 1)


def _upper_half_arcs(n):
    return [classify_arc(n, pair) for pair in farey_pairs(n) if pair.hi <= F(1, 2)]


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


class TestRegionBoundary:
    def test_counts(self):
        for n in (2, 3, 4, 5):
            assert len(region_boundary(n, 16)) == len(farey_pairs(n))

    def test_conjugate_symmetry(self):
        traces = region_boundary(4, 32)
        by_pair = {
            (min(F(t.arc.p, t.arc.q), F(t.arc.r, t.arc.s)),
             max(F(t.arc.p, t.arc.q), F(t.arc.r, t.arc.s))): t
            for t in traces
        }
        for (lo, hi), t in by_pair.items():
            mirror = by_pair[(1 - hi, 1 - lo)]
            for (a1, z1), (a2, z2) in zip(t.samples, mirror.samples):
                assert a1 == a2
                assert abs(z1 - z2.conjugate()) < 1e-12

    def test_traced_independently_mirrors_match(self):
        # Tracing a lower-half arc directly agrees with the reflected trace.
        lower = classify_arc(3, farey_pairs(3)[2])
        upper = classify_arc(3, farey_pairs(3)[1])
        tr_lower = trace_arc(lower, 64)
        tr_upper = trace_arc(upper, 64)
        for a, z in tr_lower.samples:
            assert abs(z - point_at(tr_upper, a).conjugate()) < 1e-9


class TestRegionMembership:
    def test_order2_is_the_real_segment(self):
        region = Region(2, 64)
        assert region.radius_at(0.0) == pytest.approx(1.0, abs=1e-12)
        assert region.radius_at(math.pi) == pytest.approx(1.0, abs=1e-12)
        assert region.radius_at(math.pi / 3) < 1e-12
        assert not region.contains(0.999 * cmath.exp(1j * math.pi / 3), 1e-7)
        assert region.contains(0.5)
        assert region.contains(-0.973)

    def test_circle_points(self):
        region = Region(3, 128)
        assert region.contains(cmath.exp(2j * math.pi / 3), 1e-7)
        assert region.contains(1.0, 1e-7)
        assert region.contains(0)

    def test_outside_circle(self):
        assert not contains(3, 1.2, 1e-7, m=64)
        assert not contains(3, 1j, 1e-7, m=64)  # i needs order 4

    def test_order4_contains_i(self):
        assert contains(4, 1j, 1e-7, m=64)

    def test_monotone_small(self):
        r5 = Region(5, 128)
        for trace in Region(4, 128).traces:
            for _, z in trace.samples:
                assert r5.contains(z, 1e-7)


class TestEigenvalueOnArc:
    def test_order12_eigenvalue_hits_arc(self):
        arc = arc_params(ArcType.TYPE_II, q=4, d=3, z=3)
        trace = trace_arc(arc, 128)
        m = type2_sparsest(4, 3, 3, F(1, 3), Composition((0, 3, 3), 4))
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
