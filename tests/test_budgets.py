"""Wall-time budgets for theta at its size extremes, run in process.

Each row is the largest input of one family that the theta grammar takes, with a few decisions on it;
it must end within ``BUDGET_S``, a wide margin over what a row takes on a 2-CPU machine (tens to a
few hundred milliseconds).  A row that misses its budget is a defect of the code it runs: never raise
a budget to make a row pass.
"""

import math
import time

import pytest

from nctorus.theta import _MAX_DECIMAL_PLACE, parse_theta

BUDGET_S = 2.0
B = 10**4000  # a theta-coefficient of 4001 digits, under the 4300 that int() reads from text


def longest_decimal():
    # 10,000 places, the most the grammar takes: theta = 0.61803398876180339887...
    digits = "6180339887" * (_MAX_DECIMAL_PLACE // 10)
    th = parse_theta("0." + digits)
    # B*theta - floor(B*r) > 0 for r the first 4000 places, since the later places are not all zero
    assert th.sign_linear(-int(digits[:4000]), B) == 1
    assert th.turns(0, B) == pytest.approx(int(digits[4000:4017]) / 10**17, abs=1e-15)


def longest_cf_prefix():
    # 20,000 terms of 1: golden = (sqrt 5 - 1)/2, whose floor(B*theta) is (isqrt(5 B^2) - B) // 2
    th = parse_theta("cf:" + ",".join(["1"] * 20_000))
    floor = (math.isqrt(5 * B * B) - B) // 2
    assert th.sign_linear(-floor, B) == 1
    assert th.turns(0, 1) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert th.reflect().sign_linear(floor + 1 - B, B) == 1  # floor(B*(1 - theta)) = B - floor(B*theta) - 1


ROWS = {"decimal-10000-places": longest_decimal, "cf-20000-terms": longest_cf_prefix}


@pytest.mark.parametrize("row", ROWS)
def test_row_ends_within_its_budget(row):
    start = time.perf_counter()
    ROWS[row]()
    assert time.perf_counter() - start < BUDGET_S
