"""The case (i) boundary's coarse scan, which reads its powers of cos and
sin from a table built once per process.  These tests use no numpy, so they
run on the requires-python floor too."""

import math
import random
from fractions import Fraction

from isoquintic import orbits, quintic


def reference_scan(q0, q1, q3, q4):
    """Q at each scan angle, from cos, sin and ** at every point."""
    step = 2.0 * math.pi / orbits.SCAN_N

    def Q(phi):
        c, s = math.cos(phi), math.sin(phi)
        return q0 * c ** 4 + q1 * c ** 3 * s + q3 * c * s ** 3 + q4 * s ** 4

    return [Q(i * step) for i in range(orbits.SCAN_N)]


def seeded_quartics(seed, count):
    """(d, e, g, h) with small rational entries, d and h zero half the time
    and g = -e or e a third of the time each, so that B2, B4 and c0 <= 0 all
    occur; the zero quartic left out."""
    rnd = random.Random(seed)
    draw = lambda: Fraction(rnd.randint(-9, 9), rnd.randint(1, 7))
    out = []
    while len(out) < count:
        d, h = (rnd.choice((0, draw())) for _ in range(2))
        e = draw()
        quartic = (d, e, rnd.choice((-e, e, draw())), h)
        if any(quartic):
            out.append(quartic)
    return out


def boundary_outcome(quartic):
    """The B-type and repr of `boundary_curve`'s result, or of its error."""
    try:
        result = orbits.boundary_curve(*quartic)
    except orbits.InapplicableBoundaryError as exc:
        return "inapplicable", repr(exc)
    return result.btype, repr(result)


class TestScanTable:
    def test_table_values_are_the_pointwise_scan(self):
        for quartic in seeded_quartics(20261025, 40):
            scale = max(map(abs, quartic))
            q0, q1, _, q3, q4 = quintic.case_i_quartic(
                *(float(v / scale) for v in quartic))
            got = orbits._scan(q0, q1, q3, q4)
            want = reference_scan(q0, q1, q3, q4)
            assert [v.hex() for v in got] == [v.hex() for v in want], quartic

    def test_boundary_is_that_of_the_pointwise_scan(self, monkeypatch):
        quartics = seeded_quartics(20261026, 40)
        got = [boundary_outcome(quartic) for quartic in quartics]
        monkeypatch.setattr(orbits, "_scan", reference_scan)
        want = [boundary_outcome(quartic) for quartic in quartics]
        assert got == want  # c0, the maximizers and every rho, by repr
        assert {tag for tag, _ in got} == {"B2", "B4", "inapplicable"}

    def test_table_is_built_once(self):
        assert orbits._scan_table() is orbits._scan_table()
        assert [len(column) for column in orbits._scan_table()] == [
            orbits.SCAN_N] * 6

