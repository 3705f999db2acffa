"""Cross-check of the benchmark's reference arithmetic against naive loops.

Run with ``python3 perfbench/test_exact.py`` or ``python3 -m pytest
perfbench/test_exact.py``.
"""

import os
import random
import sys
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import exact  # noqa: E402


def naive(v, x, min_len=1):
    total, count = Fraction(0), 0
    for k in range(len(v)):
        for end in range(k + min_len, len(v) + 1):
            gap = x - sum(v[k:end], Fraction(0))
            if gap > 0:
                total += gap
                count += 1
    return total, count


def random_case(rng):
    n = rng.randint(1, 14)
    x = Fraction(rng.randint(1, 9), rng.randint(1, 5))
    v = [Fraction(rng.randint(0, 12), rng.randint(1, 7)) * x / 4 for _ in range(n)]
    return v, x


def test_shortfall_matches_triple_loop():
    rng = random.Random(20231017)
    for _ in range(2000):
        v, x = random_case(rng)
        for min_len in (1, 2):
            assert exact.shortfall(v, x, min_len) == naive(v, x, min_len), (v, x, min_len)


def test_float_evaluator_matches_exact():
    rng = random.Random(7)
    for _ in range(300):
        v, x = random_case(rng)
        floats = [float(e) for e in v]
        assert abs(exact.f_float(floats, float(x)) - float(exact.f_exact(v, x))) < 1e-9


def test_closed_forms_match_structured_search():
    one = Fraction(1)
    for n in range(2, 10):
        for twelfths in range(1, 12 * n):
            w = Fraction(twelfths, 12)
            m = twelfths // 12
            best = exact.structured_minimum(n, one, w)
            if m == 0:
                assert best == exact.middle_point_value(n, one, w), (n, w)
            if twelfths % 12 == 0:
                assert best == exact.equidistant_value(n, one, w, m), (n, w)
            sup = [w] + [Fraction(0)] * (n - 1)
            assert exact.shortfall(sup, one, 2)[0] == exact.supremum_bracket(n, one, w)


if __name__ == "__main__":
    test_shortfall_matches_triple_loop()
    test_float_evaluator_matches_exact()
    test_closed_forms_match_structured_search()
    print("ok")
