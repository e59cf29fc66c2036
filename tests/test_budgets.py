"""Wall-time budgets for inputs at their size extremes.

Each row is the largest input of one family that a grammar takes, with a few decisions on it; it must
end within ``BUDGET_S``, a wide margin over what a row takes on a 2-CPU machine (tens to a few hundred
milliseconds).  A row runs in process, or, when it may not end at all, as a command in its own
interpreter that is killed at the budget.  A row that misses its budget is a defect of the code it
runs: never raise a budget to make a row pass.  A row that fails today is marked ``xfail(strict=True)``
with the open ROADMAP item that mends it, so that the mending change flips it.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nctorus
from nctorus.theta import _MAX_DECIMAL_PLACE, parse_theta

BUDGET_S = 2.0
B = 10**4000  # a theta-coefficient of 4001 digits, under the 4300 that int() reads from text
SRC = str(Path(nctorus.__file__).resolve().parent.parent)


def golden_floor(b: int) -> int:
    """floor(b*theta) on golden = (sqrt 5 - 1)/2, exactly: (isqrt(5 b^2) - b) // 2."""
    return (math.isqrt(5 * b * b) - b) // 2


def longest_decimal():
    # 10,000 places, the most the grammar takes: theta = 0.61803398876180339887...
    digits = "6180339887" * (_MAX_DECIMAL_PLACE // 10)
    th = parse_theta("0." + digits)
    # B*theta - floor(B*r) > 0 for r the first 4000 places, since the later places are not all zero
    assert th.sign_linear(-int(digits[:4000]), B) == 1
    assert th.turns(0, B) == pytest.approx(int(digits[4000:4017]) / 10**17, abs=1e-15)


def longest_cf_prefix():
    # 20,000 terms of 1: golden
    th = parse_theta("cf:" + ",".join(["1"] * 20_000))
    floor = golden_floor(B)
    assert th.sign_linear(-floor, B) == 1
    assert th.turns(0, 1) == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)
    assert th.reflect().sign_linear(floor + 1 - B, B) == 1  # floor(B*(1 - theta)) = B - floor(B*theta) - 1


def fourier_on_a_long_prefix():
    # frac(b*theta) on a 2000-term golden prefix, which places theta far past b's 80 digits: the fourier
    # kind splits b into four squares, and four_squares scans about b^(1/8) candidates for its tail
    b = 31415926535897932384626433832795028841971693993751058209749445923078164062862089
    argv = ["realize", "--theta", "cf:" + ",".join(["1"] * 2000), "--kind", "fourier_invariant",
            f"--trace={-golden_floor(b)}+{b}t"]
    proc = subprocess.run([sys.executable, "-m", "nctorus.cli", *argv], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=BUDGET_S)
    assert proc.returncode in (0, 2), proc.stderr  # an answer or a rejection, never a crash


ROWS = {"decimal-10000-places": longest_decimal, "cf-20000-terms": longest_cf_prefix,
        "fourier-80-digits": fourier_on_a_long_prefix}
# the fourier row runs until it is killed; ROADMAP's "four_squares ends in bounded time" mends it
UNBOUNDED = pytest.mark.xfail(raises=subprocess.TimeoutExpired, strict=True,
                              reason="four_squares has no bound on the theta-coefficient")


@pytest.mark.parametrize("row", ["decimal-10000-places", "cf-20000-terms",
                                 pytest.param("fourier-80-digits", marks=UNBOUNDED)])
def test_row_ends_within_its_budget(row):
    start = time.perf_counter()
    ROWS[row]()
    assert time.perf_counter() - start < BUDGET_S
