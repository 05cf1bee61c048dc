"""Balls with rational centres and radii, and their inscribed polygons.

A ball's inscribed 64-gon takes its vertices from a checked-in integer
tangent table, so no float reaches it.  The dendrite's cut probes
are these polygons; the plotted tree's probe balls are measured exactly from
their centres in `continua.trees`.
"""

from __future__ import annotations

from fractions import Fraction

from . import Record
from .geom import ConvexPoly, Point, frac, to_ints
from .intgeom import Hom, reduced


class BallSpec(Record):
    """Euclidean ball with rational center/radius; kind 'open' or 'closed'."""

    __slots__ = _fields = ("center", "radius", "kind")

    def __init__(self, center: Point, radius: Fraction, kind: str = "closed"):
        self.center = (frac(center[0]), frac(center[1]))
        self.radius = frac(radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if kind not in ("open", "closed"):
            raise ValueError("ball kind must be open or closed")
        self.kind = kind


# round(tan(pi * j / 64) * 2^16) for j = 0..63; at j = 32 the tangent is
# infinite and the point is (-1, 0)
_TAN_TABLE = (
    0, 3220, 6455, 9721, 13036, 16416, 19880, 23449, 27146, 30996, 35030, 39281, 43790,
    48605, 53784, 59398, 65536, 72308, 79856, 88365, 98082, 109340, 122609, 138564,
    158218, 183161, 216043, 261634, 329472, 441808, 665398, 1334016, None, -1334016,
    -665398, -441808, -329472, -261634, -216043, -183161, -158218, -138564, -122609,
    -109340, -98082, -88365, -79856, -72308, -65536, -59398, -53784, -48605, -43790,
    -39281, -35030, -30996, -27146, -23449, -19880, -16416, -13036, -9721, -6455, -3220,
)


def _unit_circle_points() -> list[Hom]:
    """64 rational points on the unit circle, counterclockwise from (1, 0)
    and roughly evenly spaced, as homogeneous ints (X, Y, W).

    Tangent-half-angle parametrization keeps every vertex exactly on the
    circle, so the polygon they span is inscribed in the disk: with
    t = T / 2^16 the point is ((1 - t^2) / (1 + t^2), 2t / (1 + t^2)).
    """
    return [
        (-1, 0, 1) if t is None else ((1 << 32) - t * t, t << 17, (1 << 32) + t * t)
        for t in _TAN_TABLE
    ]


def ball_polygon(ball: BallSpec) -> ConvexPoly:
    """Inscribed 64-gon with rational vertices on (or within) the circle.

    For open balls the radius is shrunk by 2^-20 so the polygon is a subset
    of the open ball as well.  The vertices are distinct and counterclockwise
    on the circle, so no hull is run.
    """
    r = ball.radius
    if ball.kind == "open":
        r = r * (Fraction(1) - Fraction(1, 1 << 20))
    (cx, cy, r), d = to_ints(*ball.center, r)
    return ConvexPoly._convex(
        [reduced(cx * w + r * x, cy * w + r * y, d * w) for x, y, w in _unit_circle_points()]
    )
