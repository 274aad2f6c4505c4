"""Numerical tracing of the boundary arcs and region membership tests.

This is the only floating-point module; everything upstream hands over
exact data.

Each arc is one root of the reduced form t^y (t^q - b)^d = a^d t^z,
b = 1 - a, as the parameter a runs over [0, 1]; (y, z) are the shifts of
``itopoly.reduced_shifts``, the same for all four arc types.  Taking the
d-th root makes it a *simple* root of one branch equation (Johnson &
Paparella, "A matricial view of the Karpelevic theorem", LAA 2017).  With
t = omega*u and omega = e^(2*pi*i*p/q) it reads

    u^q - (1 - a) - a*c*u^e = 0,    e = q - s/d = (z - y)/d,
                                     c = e^(2*pi*i*(q*r - p*s)/(q*d)),

with the principal power u^e: u runs from 1 at a = 0 to
e^(2*pi*i*(r/s - p/q)) at a = 1, far from the cut.  Away from a touchdown
|df/du| is of order q, so Newton continuation follows the root without
ever looking at the other roots of the reduced polynomial, each step's
tangent predictor read off the last Newton evaluation at the root before.
Type 0 (q = 1, e = 0) is linear and sampled in closed form,
b + a*e^(2*pi*i*r/s).  Every sample's residual is read in the reduced form.

Two roots of a branch equation meet only at a real double root, where an
arc touches down on the real axis (the two order-3 Type I arcs).  There
the touchdown rule picks the root in the arc's half plane nearest the
parameter-0 endpoint.

Membership needs no trace.  On the arc over arg(t) the branch equation
is linear in a: a = (1 - u^q) / (1 - c*u^e), so t lies on the arc exactly
where Im[(1 - u^q) * conj(1 - c*u^e)] vanishes (a product with no pole).
Along a ray this sign carrier changes sign once on (0, 1], at the
boundary; the unit circle at the arc's mid angle lies outside the region,
so a point is inside iff its carrier's sign differs from the one there.
The arc comes from a Stern-Brocot descent to denominators <= n, and on a
Farey direction (the real axis included) the boundary radius is 1.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Sequence, Union

from karpelevic.algebra import RatLike, rat
from karpelevic.farey import ArcParams, ArcType, arcs_of_order
from karpelevic.itopoly import reduced_shifts

__all__ = [
    "ArcTrace",
    "ContinuationError",
    "trace_arc",
    "point_at",
    "region_boundary",
    "Region",
    "contains",
    "radius_at",
    "trace_csv",
    "traces_json_payload",
    "boundary_svg",
]

NEWTON_ITERS = 30
STEP_FLOOR = 1e-12
TOUCHDOWN_GAP = 1e-4
_EPS = sys.float_info.epsilon
_Solved = tuple[complex, complex, complex, complex]  # a root u, then f, df/du, df/da at u


class ContinuationError(RuntimeError):
    """Step refinement hit its floor away from a real double root."""


def _endpoint(fraction_num: int, fraction_den: int) -> complex:
    return cmath.exp(2j * math.pi * fraction_num / fraction_den)


@dataclass(frozen=True)
class _Branch:
    """The branch equation f(u) = u^q - (1 - a) - a*c*u^e of one arc,
    t = omega*u, with e = q - s/d = (z - y)/d."""

    q: int
    e: float
    c: complex
    omega: complex

    @classmethod
    def between(cls, n: int, p: int, q: int, r: int, s: int) -> "_Branch":
        """The branch of the order-n arc from p/q to r/s, q < s."""
        d = n // q
        return cls(q, q - s / d, _endpoint(q * r - p * s, q * d), _endpoint(p, q))

    @classmethod
    def of(cls, arc: ArcParams) -> "_Branch":
        return cls.between(arc.n, arc.p, arc.q, arc.r, arc.s)

    def carrier(self, rho: float, phi: float) -> float:
        """Im[(1 - u^q) * conj(1 - c*u^e)] at u = rho*e^(i*phi), 0 < rho <= 1.

        The second factor is scaled by rho^max(-e, 0) > 0, which keeps the
        sign and keeps u^e from overflowing near 0; in polar form the
        product has three sine terms.
        """
        gain, loss, power = rho ** max(self.e, 0.0), rho ** max(-self.e, 0.0), rho ** self.q
        turn, angle = self.q * phi, cmath.phase(self.c) + self.e * phi
        return (gain * math.sin(angle) - loss * power * math.sin(turn)
                + power * gain * math.sin(turn - angle))

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

    def solve(self, a: float, u: complex) -> _Solved | None:
        """Newton from u to a root at a, or None if it does not converge.

        Converged means the residual is down at rounding level.  The root
        comes back as (u, f, df/du, df/da), the last evaluation Newton made,
        so the next tangent predictor from it evaluates nothing.
        """
        for _ in range(NEWTON_ITERS):
            f, df, fa, size = self.terms(a, u)
            if abs(f) <= 16 * _EPS * size:
                return u, f, df, fa
            if df == 0:
                return None
            u -= f / df
        return None

    def touchdown(self, arc: ArcParams, a0: float, here: _Solved, a1: float) -> _Solved:
        """Cross the real double root next to ``here``, solved at a0, to a1.

        Both roots of the local quadratic model are polished; the one in
        the arc's closed half plane nearest the parameter-0 endpoint wins,
        returned as Newton's solve left it.
        """
        u0, f, df, fa = here
        d2f = self.curvature(a0, u0)
        if abs((self.omega * u0).imag) > TOUCHDOWN_GAP or abs(2 * df / d2f) > TOUCHDOWN_GAP:
            raise ContinuationError(
                f"continuation stalled at a = {a0:.6g}, away from a real double root"
            )
        root = cmath.sqrt(df * df - 2 * d2f * (f + fa * (a1 - a0)))
        seeds = (u0 + (sign * root - df) / d2f for sign in (1, -1))
        landed = [found for found in (self.solve(a1, seed) for seed in seeds) if found is not None]
        if not landed:
            raise ContinuationError(f"no root found past the double root at a = {a0:.6g}")
        half_sign = 1.0 if arc.p * arc.s + arc.r * arc.q <= arc.q * arc.s else -1.0  # mid <= 1/2

        def rank(found: _Solved) -> tuple[float, float]:
            t = self.omega * found[0]
            return -half_sign * round(t.imag, 12), abs(t - self.omega)

        return min(landed, key=rank)


@dataclass(frozen=True)
class ArcTrace:
    """A traced arc: (parameter, point) samples ascending in the parameter.

    samples[0] and samples[-1] are the exact endpoints e^(2*pi*i*p/q) at 0
    and e^(2*pi*i*r/s) at 1.  ``residual_bound`` is the largest residual of
    any sample in the arc's reduced form t^y (t^q - b)^d - a^d t^z.
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
        return replace(self, arc=arc, samples=tuple((a, z.conjugate()) for a, z in self.samples))


def _check_samples(m: int) -> None:
    if m < 2:
        raise ValueError("need at least 2 samples")


def trace_arc(arc: ArcParams, m: int) -> ArcTrace:
    """Trace one arc on m linear parameter steps plus a geometric tail.

    Continuation runs down from a = 1.  A step is a tangent predictor, read
    off Newton's last evaluation at the previous sample, and a Newton solve
    of the branch equation; it is halved until Newton lands within half the
    predictor's move, and one halved below ``STEP_FLOOR`` crosses a real
    double root by the touchdown rule.  Every accepted point is a sample.
    """
    _check_samples(m)
    goal = _endpoint(arc.r, arc.s)

    # Linear grid, then geometric refinement toward 0, where the arcs meet
    # the circle in cusps and the finer tail keeps polyline chords tight.
    grid = [k / m for k in range(m - 1, 0, -1)]
    tail = 1.0 / m
    while tail / 2 >= 1e-6:
        tail /= 2
        grid.append(tail)

    points = []
    # Type 0 is sampled in closed form: at n = 2 its root passes through
    # u = 0 at a = 1/2, where df/du divides by u.
    if arc.type_tag is ArcType.TYPE_0:
        points = [(a, (1.0 - a) + a * goal) for a in grid]
    else:
        branch = _Branch.of(arc)
        u = goal / branch.omega
        a, here = 1.0, (u, *branch.terms(1.0, u)[:3])
        for target in grid:
            while a > target:
                u, _, df, fa = here
                a_try = target
                while True:
                    guess = u - (a_try - a) * fa / df
                    found = branch.solve(a_try, guess)
                    if found is not None and abs(found[0] - guess) <= 0.5 * abs(guess - u):
                        break
                    a_try = 0.5 * (a + a_try)
                    if a - a_try < STEP_FLOOR:
                        a_try, found = target, branch.touchdown(arc, a, here, target)
                        break
                a, here = a_try, found
                points.append((a, branch.omega * here[0]))

    samples = [(0.0, _endpoint(arc.p, arc.q))] + points[::-1] + [(1.0, goal)]
    q, d, (y, z) = arc.q, arc.d, reduced_shifts(arc)
    worst = max(abs(t ** y * (t ** q - (1.0 - a)) ** d - a ** d * t ** z) for a, t in samples)
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
    found = branch.solve(a, seed / branch.omega)
    if found is None:
        raise ContinuationError(f"Newton did not converge at a = {a:.6g}")
    return branch.omega * found[0]


def region_boundary(n: int, m: int) -> list[ArcTrace]:
    """Traces of every boundary arc of the order-n region, in circular order.

    Arcs in the closed upper half plane are traced by continuation; lower
    half arcs are the exact mirror images of their conjugates, which both
    enforces the region's symmetry and halves the work.  The sequence is
    symmetric about 1/2, so arc k from the end mirrors arc k.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    arcs = arcs_of_order(n)
    upper = [trace_arc(arc, m) for arc in arcs[: len(arcs) // 2]]
    return upper + [trace.conjugated(arc) for trace, arc in zip(upper[::-1], arcs[len(upper):])]


def _inside(n: int, theta: float, rho: float) -> bool:
    """Whether rho*e^(i*theta), rho > 0, lies in the order-n region."""
    if n < 2:
        raise ValueError("order must be at least 2")
    if rho > 1.0:
        return False
    x = theta / (2 * math.pi) % 1.0
    # Stern-Brocot descent to the order-n neighbours a/b < x < c/d.
    a, b, c, d = 0, 1, 1, 1
    while x * b != a and x * d != c:
        if b + d > n:
            p, q, r, s = (a, b, c, d) if b < d else (c, d, a, b)
            branch, start = _Branch.between(n, p, q, r, s), p / q
            inner = branch.carrier(rho, 2 * math.pi * (x - start))
            outer = branch.carrier(1.0, math.pi * (a / b + c / d - 2 * start))
            return inner == 0.0 or (inner > 0.0) != (outer > 0.0)
        if x * (b + d) < a + c:
            c, d = a + c, b + d
        else:
            a, b = a + c, b + d
    return True  # a Farey direction: the radius is 1


def contains(n: int, z: complex, tol: float = 1e-9) -> bool:
    """Membership of z in the order-n region, within tol radially.

    z is moved towards 0 by tol and decided by the sign test of the module
    docstring on the arc over arg(z); nothing is traced.
    """
    if n < 2:
        raise ValueError("order must be at least 2")
    # [-1, 1] lies in every region, so a point within tol of it is inside.
    near_axis = abs(z.imag) <= tol and abs(z.real) <= 1.0 + tol
    return near_axis or _inside(n, cmath.phase(z), abs(z) - tol)


def radius_at(n: int, theta: float) -> float:
    """Boundary radius of the order-n region along the ray at angle theta,
    by bisection on the membership test (0 off the real axis at order 2)."""
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if _inside(n, theta, mid) else (lo, mid)
    return lo


class Region:
    """The traced boundary of one order, with its membership test.

    ``traces`` (m linear steps per arc) are kept for drawing and export;
    ``contains`` decides exactly and never reads them.
    """

    def __init__(self, n: int, m: int = 512):
        self.n = n
        self.traces = region_boundary(n, m)

    def contains(self, z: complex, tol: float = 1e-9) -> bool:
        """Radial membership: |z| <= boundary radius at arg(z), within tol."""
        return contains(self.n, z, tol)


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
