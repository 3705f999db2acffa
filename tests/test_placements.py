"""The solvers' placements: the nonzero entries they build, check and score."""

from fractions import Fraction

from extopt import ConstructionError, Instance, solve_continuous
from extopt.combinatorial import _gamma_placed, build_gamma_member
from extopt.continuous import build_duo
from extopt.model import as_rational
from helpers import naive_f, twelfths_grid

F = Fraction


def nonzero(vector):
    return [(i, e) for i, e in enumerate(vector) if e]


class TestDuoPlacement:
    def test_layers_add_up_on_the_twelfths_grid(self):
        # collided slots take y + r; at r = x/2 the two layers hold equal
        # values, so slots must be told apart by position
        collided = halves = 0
        for n, x, w in twelfths_grid():
            i = Instance(n, x, w)
            if i.r == 0:
                continue
            duo = build_duo(i)
            assert duo.combined == tuple(a + b for a, b in zip(duo.v_y, duo.v_r))
            assert sum(duo.combined, F(0)) == i.w
            assert list(duo.placed) == nonzero(duo.combined)
            report = solve_continuous(i)
            assert report.objective == naive_f(report.vector, i.x)
            collided += any(a and b for a, b in zip(duo.v_y, duo.v_r))
            halves += i.r == i.x / 2
        assert collided > 1000 and halves > 100


def combinatorial_grids():
    # the instances that test_combinatorial builds structured members on
    for n, x, w in [(7, "1", "2.2"), (9, "1.1", "2.4"), (10, "3/7", "10/7"), (6, "2", "7"),
                    (12, "1/2", "3.25"), (4, "1", "0.5"), (1, "1", "0.5")]:
        yield Instance(n, as_rational(x), as_rational(w))
    for x in (F(1), F("3/7"), F("11/10")):
        for n in range(2, 9):
            for m in range(0, min(3, n - 1) + 1):
                for num in (0, 1, 2, 3):
                    w = m * x + x * F(num, 4)
                    if 0 < w < n * x:
                        yield Instance(n, x, w)


class TestGammaPlacement:
    def test_materializes_to_the_member(self):
        # the scoring reads the placement alone: it must hold exactly the
        # member's nonzero entries, in ascending order
        built = 0
        for i in combinatorial_grids():
            for delta in range(1, i.n + 2):
                try:
                    member = build_gamma_member(i, delta)
                except ConstructionError:
                    continue
                assert _gamma_placed(i, delta) == nonzero(member)
                built += 1
        assert built > 200
