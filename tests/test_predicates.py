"""Unit tests for the exact geometric predicates."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import incircle, orient2d, point_in_triangle
from repro.geometry.predicates import _incircle_exact, _orient2d_exact


class TestOrient2d:
    def test_counter_clockwise(self):
        assert orient2d((0, 0), (1, 0), (0, 1)) == 1

    def test_clockwise(self):
        assert orient2d((0, 0), (0, 1), (1, 0)) == -1

    def test_collinear_exact(self):
        assert orient2d((0, 0), (1, 1), (2, 2)) == 0

    def test_collinear_tiny_offsets(self):
        # Points collinear up to exact float representation.
        a = (0.1, 0.1)
        b = (0.2, 0.2)
        c = (0.30000000000000004, 0.30000000000000004)
        assert orient2d(a, b, c) == 0

    def test_near_degenerate_decided_exactly(self):
        # A perturbation of one ulp must be detected as a turn.
        a = (0.0, 0.0)
        b = (1.0, 1.0)
        eps = 2.220446049250313e-16
        c_up = (2.0, 2.0 + 4 * eps)
        c_dn = (2.0, 2.0 - 4 * eps)
        assert orient2d(a, b, c_up) == 1
        assert orient2d(a, b, c_dn) == -1

    def test_antisymmetry(self):
        a, b, c = (0.13, 0.77), (0.52, 0.11), (0.95, 0.63)
        assert orient2d(a, b, c) == -orient2d(a, c, b)


class TestIncircle:
    def test_inside_unit_circle(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)  # ccw on the unit circle
        assert incircle(a, b, c, (0, 0)) == 1

    def test_outside_unit_circle(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert incircle(a, b, c, (2, 2)) == -1

    def test_cocircular_is_zero(self):
        a, b, c = (1, 0), (0, 1), (-1, 0)
        assert incircle(a, b, c, (0, -1)) == 0

    def test_clockwise_triangle_flips_sign(self):
        ccw = incircle((1, 0), (0, 1), (-1, 0), (0, 0))
        cw = incircle((1, 0), (-1, 0), (0, 1), (0, 0))
        assert ccw == 1
        assert cw == -1

    def test_near_cocircular_exact(self):
        # Shrink the query point radially by 1 part in 1e15: strictly
        # inside, which floats alone may miss.
        a, b, c = (1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)
        d = (0.0, -(1.0 - 1e-15))
        assert incircle(a, b, c, d) == 1

    def test_fraction_verification(self):
        # Independent exact computation of a random instance.
        a, b, c, d = (0.12, 0.3), (0.9, 0.21), (0.55, 0.88), (0.5, 0.4)
        assert incircle(a, b, c, d) == incircle_fraction(a, b, c, d)


def _sign(value):
    return (value > 0) - (value < 0)


def orient2d_fraction(a, b, c):
    """The rational form the integer ``_orient2d_exact`` replaced."""
    ax, ay = Fraction(a[0]), Fraction(a[1])
    bx, by = Fraction(b[0]), Fraction(b[1])
    cx, cy = Fraction(c[0]), Fraction(c[1])
    return _sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))


def incircle_fraction(a, b, c, d):
    """The rational form the integer ``_incircle_exact`` replaced."""
    ax, ay = Fraction(a[0]) - Fraction(d[0]), Fraction(a[1]) - Fraction(d[1])
    bx, by = Fraction(b[0]) - Fraction(d[0]), Fraction(b[1]) - Fraction(d[1])
    cx, cy = Fraction(c[0]) - Fraction(d[0]), Fraction(c[1]) - Fraction(d[1])
    a_sq = ax * ax + ay * ay
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    return _sign(ax * (by * c_sq - cy * b_sq)
                 - ay * (bx * c_sq - cx * b_sq)
                 + a_sq * (bx * cy - cx * by))


#: Unit-square coordinates, and ones at a 1e6 and a 1e-3 scale so one
#: determinant mixes magnitudes.
_UNIT = st.floats(min_value=0.0, max_value=1.0)
_MIXED = st.one_of(
    _UNIT,
    st.floats(min_value=-3e6, max_value=3e6),
    st.floats(min_value=-1e-3, max_value=1e-3),
)
#: Small integers over a power of two: differences, products and
#: sums are all exact, so constructed degeneracies are exact too.
_DYADIC = st.integers(min_value=-64, max_value=64).map(
    lambda k: k / 64.0)


def _points(coordinate, count):
    return st.lists(st.tuples(coordinate, coordinate),
                    min_size=count, max_size=count)


class TestExactFormsAgainstFractions:
    @settings(max_examples=300, deadline=None)
    @given(points=st.one_of(_points(_UNIT, 4), _points(_MIXED, 4)))
    def test_random_and_mixed_magnitudes(self, points):
        a, b, c, d = points
        assert _orient2d_exact(a, b, c) == orient2d_fraction(a, b, c)
        assert _incircle_exact(a, b, c, d) == \
            incircle_fraction(a, b, c, d)
        assert orient2d(a, b, c) == orient2d_fraction(a, b, c)
        assert incircle(a, b, c, d) == incircle_fraction(a, b, c, d)

    @settings(max_examples=200, deadline=None)
    @given(origin=st.tuples(_DYADIC, _DYADIC),
           step=st.tuples(_DYADIC, _DYADIC),
           multiples=st.lists(st.integers(-8, 8), min_size=2,
                              max_size=2))
    def test_exactly_collinear(self, origin, step, multiples):
        a = origin
        b, c = [(origin[0] + m * step[0], origin[1] + m * step[1])
                for m in multiples]
        assert orient2d_fraction(a, b, c) == 0
        assert _orient2d_exact(a, b, c) == 0
        assert orient2d(a, b, c) == 0

    @settings(max_examples=200, deadline=None)
    @given(center=st.tuples(_DYADIC, _DYADIC),
           p=st.integers(1, 8), q=st.integers(1, 8),
           corners=st.permutations(
               [(1, 1), (-1, 1), (-1, -1), (1, -1)]))
    def test_exactly_cocircular(self, center, p, q, corners):
        # Reflections of (p, q) / 64 about a center: one circle.
        a, b, c, d = [(center[0] + sx * p / 64.0,
                       center[1] + sy * q / 64.0)
                      for sx, sy in corners]
        assert incircle_fraction(a, b, c, d) == 0
        assert _incircle_exact(a, b, c, d) == 0
        assert incircle(a, b, c, d) == 0


class TestPointInTriangle:
    def test_inside(self):
        assert point_in_triangle((0.2, 0.2), (0, 0), (1, 0), (0, 1))

    def test_outside(self):
        assert not point_in_triangle((1, 1), (0, 0), (1, 0), (0, 1))

    def test_on_edge(self):
        assert point_in_triangle((0.5, 0.0), (0, 0), (1, 0), (0, 1))

    def test_on_vertex(self):
        assert point_in_triangle((0, 0), (0, 0), (1, 0), (0, 1))

    def test_orientation_independent(self):
        p = (0.3, 0.3)
        assert point_in_triangle(p, (0, 0), (1, 0), (0, 1))
        assert point_in_triangle(p, (0, 0), (0, 1), (1, 0))
