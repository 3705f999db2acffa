"""Properties of the objective, the solvers and the dual certificate, checked by Hypothesis."""

import json
from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from extopt import Instance, ValidationError, eval_f, solve_combinatorial, solve_continuous
from extopt.certificate import DualCertificate, dual_certificate
from extopt.cli import _dumps
from extopt.model import as_rational, service_vector, strict_pair_sum
from helpers import naive_f, naive_strict_pairs

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
@given(inst=instances(), data=st.data())
def test_certified_bound_is_below_every_feasible_point(inst, data):
    cert = dual_certificate(solve_continuous(inst).vector, inst)
    assume(isinstance(cert, DualCertificate))
    bound = inst.x * (cert.unsaturated_count + len(cert.tight)) - cert.mu * inst.w
    # a feasible rational u: nonnegative parts of w, of which only the total counts
    parts = data.draw(st.lists(st.integers(0, 8), min_size=inst.n, max_size=inst.n))
    assume(sum(parts) > 0)
    spend = data.draw(st.sampled_from([F(1), F(1, 2), F(0)]))
    u = [inst.w * spend * p / sum(parts) for p in parts]
    assert bound <= naive_f(u, inst.x)


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


# ints, "p/q" and decimal strings, Fractions, and entries service_vector refuses
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
def test_service_vector_converts_as_entry_by_entry(v):
    try:
        outcome = "ok", service_vector(v)
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


@settings(DERANDOMIZED, max_examples=150)
@given(payload=st.one_of(payloads, st.dictionaries(texts, payloads, max_size=6)))
def test_writer_matches_the_indented_encoder(payload):
    assert _dumps(payload) == json.dumps(payload, indent=2)
