"""Properties of the objective, the solvers and the dual certificate, checked by Hypothesis."""

import json
import math
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extopt import (
    Instance, TrivialRegimeError, ValidationError, eval_f, solve_combinatorial, solve_continuous,
)
from extopt.certificate import DualCertificate, check_certificate, dual_certificate
from extopt.cli import _HOLE, _VECTOR, _dumps, _fill, _form, _vec
from extopt.continuous import minimum
from extopt.model import (
    _eval_placed, _materialize, _placement, as_rational, strict_pair_sum,
)
from helpers import (
    assert_placement, expand, masses_of, naive_f, naive_strict_pairs, placement, shortfall_per_mass,
)

F = Fraction

# the same examples on every run, and no example database written to disk
DERANDOMIZED = settings(derandomize=True, database=None, deadline=None, max_examples=60)

positive_rationals = st.builds(F, st.integers(1, 12), st.integers(1, 6))
masses = st.builds(F, st.integers(1, 20), st.integers(1, 7))


@st.composite
def instances(draw, max_n=7):
    n = draw(st.integers(1, max_n))
    x = draw(positive_rationals)
    # w = x·k/4 for k in 1..4n-1, so 0 < w < n·x
    w = x * F(draw(st.integers(1, 4 * n - 1)), 4)
    return Instance(n, x, w)


@DERANDOMIZED
@given(n=st.integers(1, 10**6), x=st.fractions(), w=st.fractions())
@example(n=3, x=F(1), w=F(3))  # w = n·x
@example(n=3, x=F(7, 5), w=F(21, 5) - F(1, 10**20))  # just below n·x
@example(n=1, x=F(0), w=F(1, 2))
@example(n=2, x=F(-1, 3), w=F(1, 2))
@example(n=2, x=F(1, 3), w=F(0))
@example(n=5, x=F(2**70 + 1, 2**65), w=F(-2**80, 3))
def test_instance_derives_m_r_y_as_the_fraction_formulas(n, x, w):
    # the integer derivation of m, r and y, and each error with its text
    if x <= 0:
        with pytest.raises(ValidationError, match=rf"^x must be positive, got {x}$"):
            Instance(n, x, w)
    elif w <= 0:
        with pytest.raises(ValidationError, match=rf"^w must be positive, got {w}$"):
            Instance(n, x, w)
    elif w >= n * x:
        text = f"trivial regime: w = {w} >= n*x = {n * x}, every interval can be saturated"
        with pytest.raises(TrivialRegimeError) as raised:
            Instance(n, x, w)
        assert str(raised.value) == text
    else:
        inst = Instance(n, x, w)
        m = math.floor(w / x)
        assert (inst.m, inst.r, inst.y) == (m, w - m * x, x - (w - m * x))
        assert type(inst.m) is int and type(inst.r) is F and type(inst.y) is F
        # x, w, r and y as integers over the instance's one denominator
        denom, *scaled = inst._ints
        assert all(type(k) is int for k in inst._ints) and denom > 0
        assert [F(k, denom) for k in scaled] == [x, w, inst.r, inst.y]


@DERANDOMIZED
@given(inst=instances(), data=st.data())
def test_certified_bound_is_below_every_feasible_point(inst, data):
    cert = dual_certificate(solve_continuous(inst).vector, inst)
    assume(isinstance(cert, DualCertificate))
    chosen = sum(hi - lo + 1 for lo, hi, _ in cert.runs)
    bound = inst.x * (cert.unsaturated_count + chosen) - cert.mu * inst.w
    # a feasible rational u: nonnegative parts of w, of which only the total counts
    parts = data.draw(st.lists(st.integers(0, 8), min_size=inst.n, max_size=inst.n))
    assume(sum(parts) > 0)
    spend = data.draw(st.sampled_from([F(1), F(1, 2), F(0)]))
    u = [inst.w * spend * p / sum(parts) for p in parts]
    assert bound <= naive_f(u, inst.x)


@DERANDOMIZED
@given(inst=instances())
def test_certificate_runs_are_exact(inst):
    duo = solve_continuous(inst).vector
    cert = dual_certificate(duo, inst)
    assume(isinstance(cert, DualCertificate))
    assert len(cert.runs) <= inst.n
    bound = check_certificate(duo, inst, cert)
    split = tuple((k, k, e) for lo, hi, e in cert.runs for k in range(lo, hi + 1))
    assert check_certificate(duo, inst, replace(cert, runs=split)) == bound is not None
    for j, (lo, hi, e) in enumerate(cert.runs):
        def with_run(*run):
            return check_certificate(duo, inst, replace(cert, runs=cert.runs[:j] + run + cert.runs[j + 1:]))
        # one start more takes a Σα above f(duo), which weak duality forbids;
        # one start less falls short of f(duo); hi is the last tight start
        # of e, so a shift to later starts takes a start that is not tight
        assert with_run((lo - 1, hi, e)) is None and with_run((lo, hi + 1, e)) is None
        assert with_run((lo + 1, hi, e)) is None and with_run((lo, hi - 1, e)) is None
        assert with_run() is None
        assert with_run((lo + 1, hi + 1, e)) is None
        # a shift to earlier starts keeps Σα, so it proves the same bound or nothing
        assert with_run((lo - 1, hi - 1, e)) in (None, bound)


@DERANDOMIZED
@given(inst=instances(), data=st.data())
def test_certificate_or_a_better_point(inst, data):
    # a random feasible v: nonnegative parts of w, mixed with the duo vector
    # in a drawn share, so that some are certified and some are beaten
    parts = data.draw(st.lists(st.integers(0, 8), min_size=inst.n, max_size=inst.n))
    assume(sum(parts) > 0)
    share = data.draw(st.sampled_from([F(0), F(1, 2), F(1)]))
    duo = solve_continuous(inst).vector
    v = [share * d + (1 - share) * inst.w * p / sum(parts) for d, p in zip(duo, parts)]
    found = dual_certificate(v, inst)
    if isinstance(found, DualCertificate):
        assert check_certificate(v, inst, found) == naive_f(v, inst.x)
    else:
        assert len(found) == inst.n and min(found) >= 0 and sum(found) == inst.w
        assert naive_f(found, inst.x) < naive_f(v, inst.x)


@DERANDOMIZED
@given(
    v=st.lists(st.builds(F, st.integers(0, 20), st.integers(1, 7)), min_size=1, max_size=9),
    x=positive_rationals,
    c=positive_rationals,
)
def test_objective_is_homogeneous(v, x, c):
    assert eval_f([c * e for e in v], c * x) == c * eval_f(v, x)


@st.composite
def sparse_vectors(draw, fewest, most):
    """Vectors of up to 40 entries with fewest..most masses, so long zero runs."""
    n = draw(st.integers(1, 40))
    at = draw(st.sets(st.integers(0, n - 1), min_size=fewest, max_size=min(most, n)))
    return [draw(masses) if i in at else F(0) for i in range(n)]


@DERANDOMIZED
@given(
    v=st.one_of(sparse_vectors(0, 5), sparse_vectors(1, 1),
                st.lists(masses, min_size=1, max_size=40)),
    x=positive_rationals,
)
def test_gap_form_kernel_matches_the_naive_sums(v, x):
    assert eval_f(v, x) == naive_f(v, x)
    assert strict_pair_sum(v, x) == naive_strict_pairs(v, x)


@st.composite
def shared_placements(draw):
    """(n, placed, x) with n <= 40 whose masses are a few shared objects:
    exactly x, above x, just below x and one drawn mass, as a solver's
    placement repeats x and r; fresh objects of equal value recur too."""
    n = draw(st.integers(1, 40))
    x = draw(positive_rationals)
    pool = [x, x + draw(masses), x - x / draw(st.integers(2, 1000)), draw(masses)]
    at = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    placed = []
    for i in at:
        e = pool[draw(st.integers(0, len(pool) - 1))]
        if draw(st.booleans()):
            e = F(e.numerator, e.denominator)  # an equal object, not the same one
        placed.append((i, e))
    return n, placement(placed), x


@DERANDOMIZED
@given(case=shared_placements())
def test_placement_kernel_matches_the_naive_sums(case):
    n, placed, x = case
    vec = _materialize(n, placed)
    assert _eval_placed(n, placed, x) == naive_f(vec, x)
    assert strict_pair_sum(vec, x) == naive_strict_pairs(vec, x)


@st.composite
def run_placements(draw, max_n=14):
    """(n, placed, x): up to four runs of 1-3 token units over a pool of
    values: masses of at least x, masses far below x (scans over many
    repetitions), and others; each count 1, 2 or near c' = ceil(x/U) + 2
    for the unit's mass U, cut so the runs fit in n <= max_n entries, and
    n often just past the last mass (scans that reach the vector's end)."""
    x = draw(positive_rationals)
    pool = (x, x + draw(masses), x / draw(st.integers(2, 8)), x / draw(st.integers(20, 60)),
            x * draw(st.integers(1, 7)) / 8, draw(masses))
    runs, length = [], 0
    for _ in range(draw(st.integers(0, 4))):
        unit = tuple((draw(st.integers(0, 3)), draw(st.integers(0, len(pool) - 1)))
                     for _ in range(draw(st.integers(1, 3))))
        span = sum(zeros + 1 for zeros, _ in unit)
        kept = math.ceil(x / sum(pool[code] for _, code in unit)) + 2
        count = draw(st.sampled_from([1, 2, kept - 1, kept, kept + 1, kept + 5]))
        count = min(count, (max_n - length) // span)
        if count < 1:
            break
        runs.append((unit, count))
        length += count * span
    n = min(max_n, max(length, 1) + draw(st.sampled_from([0, 0, 1, 3])))
    return n, (tuple(runs), pool), x


@settings(DERANDOMIZED, max_examples=150)
@given(case=run_placements())
def test_runs_score_as_the_per_mass_scan_and_the_naive_sums(case):
    # the shortened scan of `_shortfall` against today's per-mass scan and
    # the triple loop over the written-out vector
    n, placed, x = case
    assert_placement(n, placed)
    vec = expand(n, placed)
    assert _materialize(n, placed) == vec
    assert _eval_placed(n, placed, x) == shortfall_per_mass(n, placed, x) == naive_f(vec, x)


@settings(DERANDOMIZED, max_examples=200)
@given(case=run_placements(max_n=300))
def test_long_runs_score_as_the_per_mass_scan(case):
    # counts far above c', where the scan keeps a few repetitions
    n, placed, x = case
    assert _eval_placed(n, placed, x) == shortfall_per_mass(n, placed, x)


@DERANDOMIZED
@given(
    v=st.one_of(sparse_vectors(0, 5), sparse_vectors(1, 40),
                st.lists(st.sampled_from([F(0), F(1, 3), F(2, 3), F(1)]), min_size=1, max_size=40)),
    x=positive_rationals,
    form=st.sampled_from([str, float]),
)
@example(v=[F(0)] * 5, x=F(1), form=str)  # no mass
@example(v=[F(1, 2), F(1, 2), F(0), F(1)], x=F(1), form=float)  # equal values, distinct objects
@example(v=[0, "1/3", 1, "1/3", 0], x=F(1), form=str)  # entries converted from int and str
def test_placement_of_a_vector_scores_and_writes_as_the_vector(v, x, form):
    # a dense vector converts to one placement, which materializes to the
    # validated vector and scores and writes as that vector does
    n, vec = len(v), tuple(map(as_rational, v))
    placed = _placement(v)
    assert_placement(n, placed)
    assert len(placed[1]) == len(set(map(id, placed[1])))  # each value object once
    assert _materialize(n, placed) == vec
    assert _eval_placed(n, placed, x) == naive_f(vec, x)
    assert _dumps(_vec(n, placed, form)) == json.dumps([form(e) for e in vec], indent=2)


@st.composite
def vectors_within_x(draw):
    """(v, x) with up to 40 entries, each a multiple of x/d in [0, x]; about
    half are zero, so zero runs and masses of exactly x both occur."""
    x = draw(positive_rationals)
    d = draw(st.integers(1, 12))
    parts = st.one_of(st.just(0), st.integers(0, d))
    return [x * k / d for k in draw(st.lists(parts, min_size=1, max_size=40))], x


@DERANDOMIZED
@given(case=vectors_within_x())
def test_pair_sum_is_f_less_the_singletons_within_x(case):
    # the identity behind the O(1) variance_min: with every entry in [0, x]
    # the n singleton intervals fall short by n*x - sum(v) in total
    v, x = case
    assert strict_pair_sum(v, x) == eval_f(v, x) - (len(v) * x - sum(v))


def test_pair_sum_identity_needs_entries_within_x():
    # (w, 0, ..., 0) with w > x: the mass's singleton falls short by 0, not
    # x - w, so the identity is off by w - x and the supremum needs its own form
    n, x, w = 5, F(1), F(5, 2)
    v = [w] + [F(0)] * (n - 1)
    assert strict_pair_sum(v, x) == (n - 1) * (n - 2) * x / 2 == 6
    assert eval_f(v, x) - (n * x - w) - strict_pair_sum(v, x) == w - x


def converted_entry_by_entry(v):
    """The vector check applied to every entry on its own, with its error."""
    try:
        vec = tuple(map(as_rational, v))
        if not vec:
            raise ValidationError("service vector must have at least one entry")
        if any(e < 0 for e in vec):
            raise ValidationError("service vector entries must be nonnegative")
    except ValidationError as exc:
        return "error", str(exc)
    return "ok", vec


# ints, "p/q" and decimal strings, Fractions, and entries _placement refuses
entry_objects = st.one_of(
    st.integers(-3, 20),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-5, 30), st.integers(0, 9)),
    st.builds(lambda p, k: f"{p / 10**k:.{k}f}", st.integers(-5, 300), st.integers(0, 3)),
    st.builds(F, st.integers(-4, 40), st.integers(1, 12)),
    st.sampled_from([1.0, True, False, "abc", None]),
)


@st.composite
def vectors_with_shared_entries(draw):
    """A list whose entries are drawn, by reference, from a pool of objects, so
    the same object recurs; fresh objects of equal value recur too."""
    pool = draw(st.lists(entry_objects, min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), max_size=30))
    return [pool[k] for k in picks]


@DERANDOMIZED
@given(v=vectors_with_shared_entries())
@example(v=[])
@example(v=[F(1, 2)] + [F(-1, 3)] * 4)
@example(v=[F(0)] + [1.0] * 3)
@example(v=[True])
@example(v=[F(0), F(0), "0", "1/4", "0.25", 3])
def test_placement_converts_as_entry_by_entry(v):
    try:
        outcome = "ok", _materialize(len(v), _placement(v))
    except ValidationError as exc:
        outcome = "error", str(exc)
    assert outcome == converted_entry_by_entry(v)
    if outcome[0] == "ok":
        assert all(type(e) is F for e in outcome[1])


@DERANDOMIZED
@given(inst=instances(max_n=40))
def test_reports_are_feasible_and_scored_exactly(inst):
    cont, comb = solve_continuous(inst), solve_combinatorial(inst)
    assert cont.objective <= comb.objective
    for report in (cont, comb):
        assert len(report.vector) == inst.n
        assert sum(report.vector) == inst.w
        assert all(0 <= e <= inst.x for e in report.vector)
        assert eval_f(report.vector, inst.x) == report.objective


@DERANDOMIZED
@given(inst=instances(max_n=40), c=st.builds(F, st.integers(1, 50), st.integers(1, 50)))
def test_solvers_scale_with_x_and_w(inst, c):
    # f(c·v; c·x) = c·f(v; x), and m and r/x do not change with c
    scaled = Instance(inst.n, c * inst.x, c * inst.w)
    for solve in (solve_continuous, solve_combinatorial):
        base, report = solve(inst), solve(scaled)
        (runs, values), (base_runs, base_values) = report.placed, base.placed
        # the same runs of the same tokens, every value scaled by c
        assert runs == base_runs
        assert values == tuple(c * e for e in base_values)
        assert masses_of(report.placed)[1] == [c * e for e in masses_of(base.placed)[1]]
        assert report.objective == c * base.objective
        assert report.status == base.status


@DERANDOMIZED
@given(n=st.integers(1, 40), x=positive_rationals, data=st.data())
def test_minimum_does_not_increase_with_w(n, x, data):
    # w = x·k/12 for 0 < k < 12n, so 0 < w < n·x
    low = data.draw(st.integers(1, 12 * n - 2))
    high = data.draw(st.integers(low + 1, 12 * n - 1))
    assert minimum(Instance(n, x, x * high / 12)) <= minimum(Instance(n, x, x * low / 12))


# strings with quotes, backslashes, control and non-ASCII characters
texts = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x7fé€\u2028😀'), st.characters()),
                max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).map(lambda k: k * (-1) ** k),
    st.floats(),  # nan and ±inf included
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e300, 5e-324]),
    texts,
)
payloads = st.recursive(
    st.one_of(scalars, st.lists(scalars, max_size=6)),
    lambda kids: st.lists(kids, max_size=5) | st.dictionaries(texts, kids, max_size=5),
    max_leaves=20,
)


class Level(IntEnum):
    LOW = 1


# one run of a 2-token unit and one of a 1-token unit, then zeros
TWO_RUNS = (11, (((((1, 0), (0, 1)), 2), (((2, 1),), 1)), (F(1, 2), F(-3, 7))), F(1))


# a lone scalar is written by its exact type: a bool is not its int, and an
# int subclass goes to the encoder.  A vector of runs is written as its
# entries, alone, as a dict value and in a list of vectors
@settings(DERANDOMIZED, max_examples=150)
@given(payload=st.one_of(payloads, st.dictionaries(texts, payloads, max_size=6)),
       case=run_placements(max_n=30), form=st.sampled_from([str, float]))
@example(payload=[True, 1, False, 0], case=TWO_RUNS, form=str)
@example(payload={"t": True, "one": 1, "f": False, "zero": 0, "bits": [1, True, 0, False]},
         case=TWO_RUNS, form=float)
@example(payload={"none": None, "nones": [None, {"none": None}]}, case=TWO_RUNS, form=str)
@example(payload=None, case=(1, ((), (F(1),)), F(1)), form=str)  # no mass
@example(payload={"big": 2**64, "neg": -(2**200), "bigs": [2**64, {"big": 2**64 + 1}]},
         case=(5, (((((0, 0),), 5),), (F(2),)), F(1)), form=str)  # no zero
@example(payload={"level": Level.LOW, "levels": [Level.LOW, 1, True]}, case=TWO_RUNS, form=str)
@example(payload=Level.LOW, case=TWO_RUNS, form=float)
@example(payload={"é\x00\n\x1f\u2028😀\"\\": "é\t€", "nan": [float("nan"), {"inf": -math.inf}]},
         case=TWO_RUNS, form=str)
# a "%" in a key or a string is literal text, not a format directive
@example(payload={"%s": "%s", "100%": "100%", "%%": "%%", "%(x)s": "%(x)s"},
         case=TWO_RUNS, form=str)
@example(payload=["%s", {"%(x)s": ["100%", "%%"]}, "%(x)s"], case=TWO_RUNS, form=float)
@example(payload="100%", case=TWO_RUNS, form=str)
def test_writer_matches_the_indented_encoder(payload, case, form):
    assert _dumps(payload) == json.dumps(payload, indent=2)
    n, placed, _ = case
    entries = [form(e) for e in expand(n, placed)]
    assert _dumps(_vec(n, placed, form)) == json.dumps(entries, indent=2)
    written = {"payload": payload, "result": {"vector": _vec(n, placed, form)},
               "members": [_vec(n, placed, form), [], _vec(n, placed, form)]}
    plain = {"payload": payload, "result": {"vector": entries},
             "members": [entries, [], entries]}
    assert _dumps(written) == json.dumps(plain, indent=2)



def test_a_form_writes_its_constants_as_literal_text():
    # in a command's skeleton the keys and constants are written into the
    # form, so a "%" in them must not act on the holes' values
    skeleton = {"%s": "100%", "%(x)s": [_HOLE, "%%", _VECTOR], "hole": _HOLE, "%d": {}}
    written = "".join(_fill(_form(skeleton), ["%d", F(1, 3)], [_vec(3, placement([(1, F(1, 2))]))]))
    plain = {"%s": "100%", "%(x)s": ["%d", "%%", ["0", "1/2", "0"]], "hole": "1/3", "%d": {}}
    assert written == json.dumps(plain, indent=2)

def _plain(value):
    """``value`` with each Fraction replaced by its string, as `_dumps` writes it."""
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_plain(item) for item in value]
    return str(value) if isinstance(value, Fraction) else value


def test_writer_runs_no_encoder_for_lone_str_int_bool_or_none(monkeypatch):
    # nor for a Fraction, alone, as a dict value, in a flat list or in a
    # vector, nor for a finite float, alone or in a vector of floats
    yr = F(2, 3) + F(1, 3)
    placed = placement([(1, yr), (3, F(-1, 3)), (4, yr), (6, F(2**70 + 1, 2**65))])
    payload = {"s": "é\n", "i": -(2**64), "b": True, "n": None,
               "nested": {"f": False, "zero": 0}, "mixed": [{"k": 1}, "x", None],
               "window": [F(37, 28), F(11, 4)], "flat": ["x", -3, True, None],
               "objective": F(-33, 5), "whole": F(3), "queue": {"lambda": F(1, 2)}}
    expected = json.dumps(_plain(payload), indent=2)
    vector = json.dumps({"vector": [str(e) for e in _materialize(7, placed)]}, indent=2)
    floats = json.dumps({"minimizer": [float(e) for e in _materialize(7, placed)]}, indent=2)
    lone = [0.1, -0.0, 1e300, 5e-324]
    lone_text = json.dumps(lone, indent=2)

    def refused(*args, **kwargs):
        raise AssertionError("the encoder ran")

    monkeypatch.setattr(json.JSONEncoder, "iterencode", refused)
    assert _dumps(payload) == expected
    assert _dumps(F(5, 2)) == '"5/2"'
    assert _dumps(F(-7)) == '"-7"'
    assert _dumps({"vector": _vec(7, placed)}) == vector
    assert _dumps({"minimizer": _vec(7, placed, float)}) == floats
    assert _dumps(lone) == lone_text
    assert _dumps(-2.5) == "-2.5"


@DERANDOMIZED
@given(value=st.fractions())
@example(value=F(-3, 7))
@example(value=F(3))  # written "3", not "3/1"
@example(value=F(0))
@example(value=F(-(2**70) - 1, 2**65))  # numerator and denominator above 2**64
@example(value=F(2**64 + 1, 2**64 + 3))
def test_writer_writes_fractions_exactly(value):
    written = {"value": value, "window": [value, -value],
               "vector": _vec(3, placement([(1, value)]))}
    plain = {"value": str(value), "window": [str(value), str(-value)],
             "vector": ["0", str(value), "0"]}
    assert _dumps(value) == json.dumps(str(value))
    assert _dumps(written) == json.dumps(plain, indent=2)


def test_vector_writer_formats_each_distinct_entry_once():
    # 1,000 masses share three value objects: `form` runs for the zero and
    # for each object, not for each mass
    pool = [F(7, 3), F(1, 3), F(2, 3)]
    placed = placement([(2 * i, pool[i % 3]) for i in range(1000)])
    calls = []

    def form(entry):
        calls.append(entry)
        return entry

    written = _vec(2000, placed, form)
    assert len(calls) <= 4
    assert _dumps(written) == json.dumps([str(e) for e in _materialize(2000, placed)], indent=2)


@st.composite
def written_placements(draw):
    """(n, placed) whose masses are drawn by reference from a small pool, so
    one object sits at several indices, as y + r = x does in a duo."""
    n = draw(st.integers(1, 30))
    x = draw(positive_rationals)
    r = x / draw(st.integers(2, 9))
    pool = [x, r, x - r, draw(masses)]
    at = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
    return n, placement([(i, pool[draw(st.integers(0, len(pool) - 1))]) for i in at])


yr = F(2, 3) + F(1, 3)  # one object for every collided y + r slot


@DERANDOMIZED
@given(case=written_placements(), form=st.sampled_from([str, float]))
@example(case=(1, placement([(0, F(5, 2))])), form=str)  # n = 1
@example(case=(1, placement([])), form=float)
@example(case=(6, placement([(0, F(1, 3)), (5, F(2, 3))])), form=str)  # masses at 0 and n - 1
@example(case=(3, placement([(0, yr), (1, F(1, 7)), (2, yr)])), form=str)  # no zeros
@example(case=(7, placement([(1, yr), (3, F(1, 3)), (4, yr), (6, yr)])), form=float)
def test_vector_writer_matches_the_indented_encoder(case, form):
    # `_vec` writes the texts the encoder would write for the entries:
    # "p/q" strings, or floats as `verify` writes its minimizer
    n, placed = case
    entries = [form(e) for e in _materialize(n, placed)]
    written = {"result": {"vector": _vec(n, placed, form), "objective": "1/2"},
               "members": [_vec(n, placed, form), [], _vec(n, placed, form)]}
    plain = {"result": {"vector": entries, "objective": "1/2"},
             "members": [entries, [], entries]}
    assert _dumps(written) == json.dumps(plain, indent=2)
