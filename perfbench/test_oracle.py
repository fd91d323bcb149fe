"""The benchmark's oracle on hand-computed examples.

    python3 -m pytest -q perfbench/test_oracle.py
"""

import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from oracle import CircleLift, blocks, fixed_count, in_ball, min_separated, orbit_sups  # noqa: E402

# Four points on a line, d(i, j) = |i - j|, and the map swapping 0<->1, 2<->3.
LINE = [[abs(i - j) for j in range(4)] for i in range(4)]
SWAP = [1, 0, 3, 2]


def test_line_swap_orbit_sup_exceeds_distance():
    sups = orbit_sups(LINE, SWAP)
    # d(1, 2) = 1, but the swap carries the pair to (0, 3) at distance 3.
    assert sups[1][2] == sups[2][1] == 3
    assert sups[0][1] == sups[2][3] == 1
    assert sups[0][2] == sups[1][3] == 2


def test_line_swap_derived_quantities():
    sups = orbit_sups(LINE, SWAP)
    assert blocks(sups, ["0", "1", "2", "3"], 1) == [["0", "1"], ["2", "3"]]
    assert blocks(sups, ["0", "1", "2", "3"], 2) == [["0", "1", "2", "3"]]
    split = [(0, 0), (0, 0), (2, 0), (2, 0)]
    assert min_separated(sups, split) == 2
    assert min_separated(sups, [(1, 1)] * 4) is None
    assert [fixed_count(SWAP, k) for k in (1, 2, 3)] == [0, 4, 0]


def test_hand_example_is_the_library_system():
    from expobs.library import line_swap_system

    system = line_swap_system()
    assert [[int(v) for v in row] for row in system.metric] == LINE
    assert list(system.perm) == SWAP


def test_ball_membership_from_coordinates():
    homoclinic = ("0", "1", "0", 0)   # ...000 1 000..., the 1 at coordinate 0
    zero = ("0", "", "0", 0)
    assert in_ball(homoclinic, zero, 0, "s") is False
    assert in_ball(homoclinic, ("0", "", "0", 1), 0, "s") is False
    shifted = ("0", "1", "0", -3)     # the 1 at coordinate -3
    assert in_ball(shifted, zero, 2, "s") is True
    assert in_ball(shifted, zero, 3, "s") is False
    assert in_ball(homoclinic, zero, 1, "u") is False


def test_circle_lift_and_inverse():
    lift = CircleLift({"breakpoints": ["0", "1/4", "1/2", "3/4"],
                       "lift_values": ["0", "3/8", "1/2", "7/8"]})
    assert lift(Fraction(1, 4)) == Fraction(3, 8)
    assert lift(Fraction(5, 4)) == Fraction(11, 8)
    for x in (Fraction(0), Fraction(1, 3), Fraction(7, 5), Fraction(-2, 3)):
        assert lift.inverse(lift(x)) == x
