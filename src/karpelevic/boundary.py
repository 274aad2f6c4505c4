"""Numerical tracing of the boundary arcs and region membership tests.

This is the only floating-point module; everything upstream hands over
exact data.

Each arc is one root of t^s (t^q - b)^d = a^d t^(q d), b = 1 - a, as the
parameter a runs over [0, 1].  Taking the d-th root makes it a *simple*
root of one branch equation (Johnson & Paparella, "A matricial view of
the Karpelevic theorem", LAA 2017).  With t = omega*u and
omega = e^(2*pi*i*p/q) it reads

    u^q - (1 - a) - a*c*u^e = 0,    e = q - s/d,
                                     c = e^(2*pi*i*(q*r - p*s)/(q*d)),

with the principal power u^e: u runs from 1 at a = 0 to
e^(2*pi*i*(r/s - p/q)) at a = 1, far from the cut.  The exponent is z/d
for Type II, -y/d for Type III and q - s for Type I.  Away from a
touchdown |df/du| is of order q, so Newton continuation follows the root
without ever looking at the other roots of the reduced polynomial.  Type 0
(q = 1, e = 0) is linear and sampled in closed form, b + a*e^(2*pi*i*r/s).

Two roots of a branch equation meet only at a real double root, where an
arc touches down on the real axis (the two order-3 Type I arcs).  There
the touchdown rule picks the root in the arc's half plane nearest the
parameter-0 endpoint.

Membership in the region uses its star shape: the boundary radius at a
given argument is read off the traced polylines and compared with the
query's modulus.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

import numpy as np

from karpelevic.algebra import RatLike, rat
from karpelevic.farey import ArcParams, ArcType, classify_arc, farey_pairs

__all__ = [
    "ComplexPoint",
    "ArcTrace",
    "RootFindingError",
    "ContinuationError",
    "poly_roots",
    "trace_arc",
    "point_at",
    "region_boundary",
    "Region",
    "contains",
    "trace_csv",
    "traces_json_payload",
    "boundary_svg",
]

ComplexPoint = complex

DEFAULT_RESIDUAL_SCALE = 1e-10
NEWTON_ITERS = 30
STEP_FLOOR = 1e-12
TOUCHDOWN_GAP = 1e-4
_EPS = sys.float_info.epsilon


class RootFindingError(RuntimeError):
    """Polishing failed to reach the residual target."""


class ContinuationError(RuntimeError):
    """Step refinement hit its floor away from a real double root."""


def _as_float_coeffs(coeffs: Sequence) -> np.ndarray:
    arr = np.asarray([float(c) for c in coeffs], dtype=float)
    if arr.size == 0 or arr[-1] == 0.0:
        raise ValueError("leading coefficient must be nonzero")
    return arr


def _eval_with_derivative(coeffs: np.ndarray, z: complex) -> tuple[complex, complex]:
    p = 0.0 + 0.0j
    dp = 0.0 + 0.0j
    for c in coeffs[::-1]:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def _newton_polish(coeffs: np.ndarray, z: complex, target: float, iters: int = 60) -> complex:
    best = z
    best_res = abs(_eval_with_derivative(coeffs, z)[0])
    for _ in range(iters):
        p, dp = _eval_with_derivative(coeffs, z)
        if abs(p) < best_res:
            best, best_res = z, abs(p)
        if abs(p) <= target:
            return z
        if dp == 0:
            break
        step = p / dp
        z = z - step
        if abs(step) < 1e-17 * max(1.0, abs(z)):
            break
    p = _eval_with_derivative(coeffs, z)[0]
    if abs(p) < best_res:
        best, best_res = z, abs(p)
    if best_res <= target:
        return best
    raise RootFindingError(
        f"Newton polish stalled at residual {best_res:.3e} (target {target:.3e})"
    )


def _residual_target(coeffs: np.ndarray, scale: float) -> float:
    degree = len(coeffs) - 1
    return scale * degree * float(np.max(np.abs(coeffs)))


def poly_roots(coeffs: Sequence, residual_scale: float = DEFAULT_RESIDUAL_SCALE) -> list[complex]:
    """All complex roots of a polynomial given by ascending coefficients.

    Companion-matrix start (numpy.roots) followed by a Newton polish to
    residual |p(root)| <= residual_scale * degree * max|coeff|.  Roots are
    returned sorted by (argument in [0, 2*pi), modulus), so the ordering
    is deterministic.
    """
    arr = _as_float_coeffs(coeffs)
    if len(arr) < 2:
        raise ValueError("degree must be at least 1")
    target = _residual_target(arr, residual_scale)
    raw = np.roots(arr[::-1])
    polished = []
    for z in raw:
        try:
            polished.append(_newton_polish(arr, complex(z), target))
        except RootFindingError:
            # Multiple roots converge slowly; accept the companion value if
            # it already meets a relaxed residual, else re-raise.
            res = abs(_eval_with_derivative(arr, complex(z))[0])
            if res <= 100 * target:
                polished.append(complex(z))
            else:
                raise

    def key(z: complex):
        angle = cmath.phase(z) % (2 * math.pi)
        if angle > 2 * math.pi - 1e-12:
            angle = 0.0
        return (round(angle, 12), round(abs(z), 12))

    return sorted(polished, key=key)


def _endpoint(fraction_num: int, fraction_den: int) -> complex:
    return cmath.exp(2j * math.pi * fraction_num / fraction_den)


def _reduced_value(arc: ArcParams, a: float, t: complex) -> complex:
    """The arc's reduced polynomial (the itopoly closed form) at (a, t)."""
    b = 1.0 - a
    if arc.type_tag is ArcType.TYPE_0:
        return (t - b) ** arc.d - a ** arc.d
    if arc.type_tag is ArcType.TYPE_I:
        return t ** arc.s - b * t ** (arc.s - arc.q) - a
    power = (t ** arc.q - b) ** arc.d
    if arc.type_tag is ArcType.TYPE_II:
        return power - a ** arc.d * t ** arc.z
    return t ** arc.y * power - a ** arc.d


@dataclass(frozen=True)
class _Branch:
    """The branch equation f(u) = u^q - (1 - a) - a*c*u^e of one arc, t = omega*u."""

    q: int
    e: float
    c: complex
    omega: complex

    @classmethod
    def of(cls, arc: ArcParams) -> "_Branch":
        c = _endpoint(arc.q * arc.r - arc.p * arc.s, arc.q * arc.d)
        return cls(arc.q, arc.q - arc.s / arc.d, c, _endpoint(arc.p, arc.q))

    def terms(self, a: float, u: complex) -> tuple[complex, complex, complex, float]:
        """f, df/du and df/da at (a, u), and the size of f's terms."""
        uq = u ** self.q
        w = self.c * u ** self.e
        f = uq - (1.0 - a) - a * w
        return f, (self.q * uq - a * self.e * w) / u, 1.0 - w, abs(uq) + (1.0 - a) + a * abs(w)

    def curvature(self, a: float, u: complex) -> complex:
        """d^2 f/du^2 at (a, u)."""
        w = self.c * u ** self.e
        return (self.q * (self.q - 1) * u ** self.q - a * self.e * (self.e - 1) * w) / (u * u)

    def solve(self, a: float, u: complex) -> complex | None:
        """Newton from u to a root at a, or None if it does not converge.

        Converged means the residual is down at rounding level.
        """
        for _ in range(NEWTON_ITERS):
            f, df, _, size = self.terms(a, u)
            if abs(f) <= 16 * _EPS * size:
                return u
            if df == 0:
                return None
            u -= f / df
        return None

    def step(self, a0: float, u0: complex, a1: float) -> complex | None:
        """Tangent predictor from the root u0 at a0 to a1, then Newton.

        None unless Newton converges within half the predictor's move, so
        the result is the same root continued, not a neighbour.
        """
        _, df, fa, _ = self.terms(a0, u0)
        guess = u0 - (a1 - a0) * fa / df
        u1 = self.solve(a1, guess)
        if u1 is None or abs(u1 - guess) > 0.5 * abs(guess - u0):
            return None
        return u1

    def touchdown(self, arc: ArcParams, a0: float, u0: complex, a1: float) -> complex:
        """Cross the real double root next to (a0, u0) and land at a1.

        Both roots of the local quadratic model are polished; the one in
        the arc's closed half plane nearest the parameter-0 endpoint wins.
        """
        f, df, fa, _ = self.terms(a0, u0)
        d2f = self.curvature(a0, u0)
        if abs((self.omega * u0).imag) > TOUCHDOWN_GAP or abs(2 * df / d2f) > TOUCHDOWN_GAP:
            raise ContinuationError(
                f"continuation stalled at a = {a0:.6g}, away from a real double root"
            )
        root = cmath.sqrt(df * df - 2 * d2f * (f + fa * (a1 - a0)))
        points = []
        for sign in (1, -1):
            u = self.solve(a1, u0 + (sign * root - df) / d2f)
            if u is not None:
                points.append(self.omega * u)
        if not points:
            raise ContinuationError(f"no root found past the double root at a = {a0:.6g}")
        mid = (Fraction(arc.p, arc.q) + Fraction(arc.r, arc.s)) / 2
        half_sign = 1.0 if mid <= Fraction(1, 2) else -1.0
        best = min(points, key=lambda t: (-half_sign * round(t.imag, 12), abs(t - self.omega)))
        return best / self.omega


@dataclass(frozen=True)
class ArcTrace:
    """A traced arc: (parameter, point) samples ascending in the parameter.

    samples[0] and samples[-1] are the exact endpoints e^(2*pi*i*p/q) at 0
    and e^(2*pi*i*r/s) at 1.  ``residual_bound`` is the largest residual of
    any sample in the arc's reduced polynomial.
    """

    arc: ArcParams
    samples: tuple[tuple[float, complex], ...]
    residual_bound: float

    @property
    def start_point(self) -> complex:
        return self.samples[0][1]

    @property
    def end_point(self) -> complex:
        return self.samples[-1][1]

    def conjugated(self, arc: ArcParams) -> "ArcTrace":
        """The mirror trace across the real axis, for the mirror arc."""
        return ArcTrace(
            arc=arc,
            samples=tuple((a, z.conjugate()) for a, z in self.samples),
            residual_bound=self.residual_bound,
        )


def trace_arc(arc: ArcParams, m: int) -> ArcTrace:
    """Trace one arc on m linear parameter steps plus a geometric tail.

    Continuation runs down from a = 1.  Each step is a tangent predictor
    and a Newton solve of the branch equation, halved whenever Newton does
    not converge; a step halved below ``STEP_FLOOR`` crosses a real double
    root by the touchdown rule.  Every accepted point is a sample.
    """
    if m < 2:
        raise ValueError("need at least 2 samples")
    goal = _endpoint(arc.r, arc.s)

    # Linear grid, then geometric refinement toward 0, where the arcs meet
    # the circle in cusps and the finer tail keeps polyline chords tight.
    grid = [k / m for k in range(m - 1, 0, -1)]
    tail = 1.0 / m
    while tail / 2 >= 1e-6:
        tail /= 2
        grid.append(tail)

    points = []
    if arc.type_tag is ArcType.TYPE_0:
        points = [(a, (1.0 - a) + a * goal) for a in grid]
    else:
        branch = _Branch.of(arc)
        a, u = 1.0, goal / branch.omega
        for target in grid:
            while a > target:
                a_try = target
                while (u_try := branch.step(a, u, a_try)) is None:
                    a_try = 0.5 * (a + a_try)
                    if a - a_try < STEP_FLOOR:
                        a_try, u_try = target, branch.touchdown(arc, a, u, target)
                        break
                a, u = a_try, u_try
                points.append((a, branch.omega * u))

    samples = [(0.0, _endpoint(arc.p, arc.q))] + points[::-1] + [(1.0, goal)]
    worst = max(abs(_reduced_value(arc, a, t)) for a, t in samples)
    return ArcTrace(arc=arc, samples=tuple(samples), residual_bound=max(worst, 1e-15))


def point_at(trace: ArcTrace, alpha: Union[RatLike, float]) -> complex:
    """The traced branch's root at an arbitrary parameter value.

    One Newton solve of the branch equation, seeded by the linear
    interpolation of the bracketing samples.
    """
    a = float(alpha if isinstance(alpha, float) else rat(alpha))
    if not (0.0 <= a <= 1.0):
        raise ValueError("parameter must lie in [0, 1]")
    arc = trace.arc
    if arc.type_tag is ArcType.TYPE_0:
        return (1.0 - a) + a * _endpoint(arc.r, arc.s)
    pts = trace.samples
    hi = min(bisect_right(pts, a, key=lambda sample: sample[0]), len(pts) - 1)
    (a0, z0), (a1, z1) = pts[hi - 1], pts[hi]
    seed = z0 + (a - a0) / (a1 - a0) * (z1 - z0)
    branch = _Branch.of(arc)
    u = branch.solve(a, seed / branch.omega)
    if u is None:
        raise ContinuationError(f"Newton did not converge at a = {a:.6g}")
    return branch.omega * u


def region_boundary(n: int, m: int) -> list[ArcTrace]:
    """Traces of every boundary arc of the order-n region, in circular order.

    Arcs in the closed upper half plane are traced by continuation; lower
    half arcs are the exact mirror images of their conjugates, which both
    enforces the region's symmetry and halves the work.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    pairs = farey_pairs(n)
    half = Fraction(1, 2)
    traced: dict[tuple[Fraction, Fraction], ArcTrace] = {}
    for pair in pairs:
        if pair.hi <= half:
            traced[(pair.lo, pair.hi)] = trace_arc(classify_arc(n, pair), m)
    out: list[ArcTrace] = []
    for pair in pairs:
        if pair.hi <= half:
            out.append(traced[(pair.lo, pair.hi)])
        else:
            mirror = (1 - pair.hi, 1 - pair.lo)
            out.append(traced[mirror].conjugated(classify_arc(n, pair)))
    return out


class Region:
    """The traced region of one order, with a radial membership test.

    The boundary polyline segments are bucketed by angle so a membership
    query touches only a handful of segments.
    """

    BUCKETS = 4096

    def __init__(self, n: int, m: int = 512):
        self.n = n
        self.m = m
        self.traces = region_boundary(n, m)
        self._segments: list[tuple[complex, complex]] = []
        for trace in self.traces:
            pts = [z for _, z in trace.samples]
            self._segments.extend(zip(pts, pts[1:]))
        self._buckets: list[list[int]] = [[] for _ in range(self.BUCKETS)]
        two_pi = 2 * math.pi
        for idx, (p1, p2) in enumerate(self._segments):
            a1 = cmath.phase(p1) % two_pi
            a2 = cmath.phase(p2) % two_pi
            lo, hi = min(a1, a2), max(a1, a2)
            if hi - lo > math.pi:
                # Segment straddles the 0/2pi cut.
                spans = [(0.0, lo), (hi, two_pi)]
            else:
                spans = [(lo, hi)]
            for s_lo, s_hi in spans:
                b_lo = int(s_lo / two_pi * self.BUCKETS)
                b_hi = int(s_hi / two_pi * self.BUCKETS)
                for b in range(max(b_lo - 1, 0), min(b_hi + 1, self.BUCKETS - 1) + 1):
                    self._buckets[b].append(idx)

    def radius_at(self, theta: float) -> float:
        """Boundary radius along the ray at angle theta (0 when no arc covers it)."""
        two_pi = 2 * math.pi
        theta = theta % two_pi
        u = cmath.exp(1j * theta)
        bucket = self._buckets[int(theta / two_pi * self.BUCKETS) % self.BUCKETS]
        best = 0.0
        for idx in bucket:
            p1, p2 = self._segments[idx]
            c1 = (u.conjugate() * p1).imag
            c2 = (u.conjugate() * p2).imag
            r1 = (u.conjugate() * p1).real
            r2 = (u.conjugate() * p2).real
            eps = 1e-15
            if abs(c1) <= eps and abs(c2) <= eps:
                # Collinear with the ray (e.g. the real segment of order 2).
                if r1 >= 0:
                    best = max(best, r1)
                if r2 >= 0:
                    best = max(best, r2)
                continue
            if (c1 <= 0 <= c2) or (c2 <= 0 <= c1):
                t = c1 / (c1 - c2)
                r = r1 + t * (r2 - r1)
                if r >= 0:
                    best = max(best, r)
        return best

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        """Radial membership: |z| <= boundary radius at arg(z), within tol."""
        if abs(z) <= tol:
            return True
        return abs(z) <= self.radius_at(cmath.phase(z)) + tol


@lru_cache(maxsize=8)
def _cached_region(n: int, m: int) -> Region:
    return Region(n, m)


def contains(n: int, z: complex, tol: float = 1e-9, m: int = 512) -> bool:
    """Membership of z in the order-n region (cached traced boundary)."""
    return _cached_region(n, m).contains(z, tol)


# -- emitters ------------------------------------------------------------


def _fmt(x: float) -> str:
    return repr(float(x))


def trace_csv(trace: ArcTrace) -> str:
    lines = ["alpha,re,im"]
    for a, z in trace.samples:
        lines.append(f"{_fmt(a)},{_fmt(z.real)},{_fmt(z.imag)}")
    return "\n".join(lines) + "\n"


def traces_json_payload(traces: Sequence[ArcTrace]) -> list[dict]:
    return [
        {
            "arc": trace.arc.to_json(),
            "residual_bound": trace.residual_bound,
            "samples": [[a, z.real, z.imag] for a, z in trace.samples],
        }
        for trace in traces
    ]


def boundary_svg(traces: Sequence[ArcTrace], size: int = 800) -> str:
    """Static SVG: unit-circle underlay plus one polyline per arc."""
    half = size / 2
    scale = size / 2.4

    def sx(z: complex) -> float:
        return half + z.real * scale

    def sy(z: complex) -> float:
        return half - z.imag * scale

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{half}" cy="{half}" r="{scale}" fill="none" '
        f'stroke="#bbbbbb" stroke-dasharray="4 4"/>',
        f'<line x1="0" y1="{half}" x2="{size}" y2="{half}" stroke="#dddddd"/>',
        f'<line x1="{half}" y1="0" x2="{half}" y2="{size}" stroke="#dddddd"/>',
    ]
    for trace in traces:
        pts = " ".join(f"{sx(z):.3f},{sy(z):.3f}" for _, z in trace.samples)
        lines.append(
            f'<polyline points="{pts}" fill="none" stroke="#23427b" stroke-width="1.2"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
