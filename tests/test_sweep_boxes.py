"""Box propagation on integer forms against the rational reference.

The sweep tightens each region's parameter box with ``form >= 0`` on the
slot forms scaled to integers, in one pass per form, visiting only the
seeded slots and those that read a bound moved since their last visit.
The reference, ``reference_propagate``, is the direct rational version:
every round it visits every form, for every item it re-sums the rest of
the form, and it divides in ``Fraction``.  Seeded with every slot, or,
from boxes the reference leaves unchanged, with the slots that read the
one bound narrowed since, both must give the same verdict and the same
bounds, with the same exclusive flags.  A box whose two ends meet at an
excluded 0 is empty.  The range of a form over the boxes is checked
against ``reference_interval``, which takes each item's least and greatest
value from the two ends of its box in ``Fraction``.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invsp.rat import Rat, rat
from invsp.sweep import _CompiledSlot, _exact, _interval_of, _propagate_box

from conftest import rationals
from reference_kernels import reference_interval, reference_propagate


def readers_of(forms, n):
    """For each of n positions, the forms that read its lo and those that read its hi."""
    readers = [([], []) for _ in range(n)]
    for f, (_, items) in enumerate(forms):
        for pos, w in items:
            readers[pos][w > 0].append(f)
    return readers


def propagate(boxes, forms, seeds=None):
    """``_propagate_box`` on the forms (seeded with every one by default); True
    when no box empties."""
    seeds = range(len(forms)) if seeds is None else seeds
    return _propagate_box(boxes, forms, seeds, readers_of(forms, len(boxes))) is not None


@st.composite
def bound_ends(draw):
    """(bound, excluded): a rational, a 0 that may be excluded, or None."""
    kind = draw(st.sampled_from(("none", "zero", "rational")))
    if kind == "none":
        return None, False
    if kind == "zero":
        return rat(0), draw(st.booleans())
    return draw(rationals()), False


@st.composite
def any_boxes(draw):
    (lo, lo_excl), (hi, hi_excl) = draw(bound_ends()), draw(bound_ends())
    return lo, hi, lo_excl, hi_excl


@st.composite
def problems(draw, box=any_boxes()):
    boxes = draw(st.lists(box, min_size=1, max_size=5))
    n = len(boxes)
    boxes.append(None)  # a parameter fixed at 0, outside every form
    forms = []
    for _ in range(draw(st.integers(1, 4))):
        positions = draw(st.sets(st.integers(0, n - 1), min_size=1))
        nonzero = rationals().filter(lambda w: w != 0)
        items = tuple((p, draw(nonzero)) for p in sorted(positions))
        forms.append((draw(rationals()), items))
    return boxes, forms


def exact_boxes(boxes):
    return [
        None if b is None else (_exact(b[0]), _exact(b[1]), b[2], b[3]) for b in boxes
    ]


def sign(x):
    return None if x is None else (x > 0) - (x < 0)


def assert_same_boxes(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        if e is None:
            assert g is None
            continue
        assert g == e  # == across int and Rat, flags included
        for bound in g[:2]:
            assert bound is None or type(bound) is int or (
                isinstance(bound, Rat) and bound.denominator != 1
            )


@settings(max_examples=400, deadline=None)
@given(problems())
def test_integer_propagation_matches_the_rational_reference(problem):
    """Every slot seeded: the same verdict, bounds and flags as the reference."""
    boxes, forms = problem
    slots = [_CompiledSlot(c, items) for c, items in forms]
    expected = list(boxes)
    verdict = reference_propagate(expected, forms)
    got = exact_boxes(boxes)
    assert propagate(got, [(s.iconst, s.iitems) for s in slots]) == verdict
    assert_same_boxes(got, expected)
    for s, (const, items) in zip(slots, forms):
        scaled = _interval_of(s.iconst, s.iitems, got)
        plain = _interval_of(const, items, expected)
        assert (sign(scaled[0]), scaled[1], sign(scaled[2]), scaled[3]) == (
            sign(plain[0]), plain[1], sign(plain[2]), plain[3])


def test_integer_forms_are_positive_multiples():
    slot = _CompiledSlot(rat(-3, 4), ((0, rat(1, 6)), (2, rat(-5, 2))))
    assert slot.iconst == -9
    assert slot.iitems == ((0, 2), (2, -30))


def test_positive_parameter_forced_to_zero_is_empty():
    # x > 0 with -x >= 0 leaves [0, 0] with 0 excluded
    boxes = [(0, None, True, False)]
    assert not propagate(boxes, [(0, ((0, -1),))])


def test_bounds_stay_integral_where_they_can():
    # 2x - 3 >= 0 and 4 - 2x - 2y >= 0 over x, y >= 0
    boxes = [(0, None, False, False), (0, None, False, False)]
    assert propagate(boxes, [(-3, ((0, 2),)), (4, ((0, -2), (1, -2)))])
    assert boxes[0] == (rat(3, 2), 2, False, False)
    assert boxes[1] == (0, rat(1, 2), False, False)
    assert type(boxes[0][1]) is int and isinstance(boxes[1][1], Rat)


def test_a_move_reaches_later_slots_in_the_same_round():
    """x0 >= x1 >= x2 >= x3 >= x4 over [0, 10], x0 narrowed to [0, 5] and
    only the form reading it seeded.  Forms in chain order pass the move on
    within one round; in reverse order each link waits for the next round,
    so the three rounds reach x3 but not x4."""
    chain = [(0, ((i, 1), (i + 1, -1))) for i in range(4)]
    for forms, reached in ((chain, 5), (chain[::-1], 4)):
        boxes = [(0, 5, False, False)] + [(0, 10, False, False)] * 4
        seeds = [forms.index(chain[0])]
        assert propagate(boxes, forms, seeds)
        assert [hi for _, hi, _, _ in boxes] == [5] * reached + [10] * (5 - reached)


@st.composite
def interval_ends(draw):
    """A box end: None, an int, a non-integral rational, or a 0 that may be excluded."""
    kind = draw(st.sampled_from(("none", "int", "rational", "zero")))
    if kind == "none":
        return None, False
    if kind == "int":
        return draw(st.integers(-9, 9)), False
    if kind == "rational":
        return draw(rationals().filter(lambda q: q.denominator != 1)), False
    return draw(st.sampled_from((0, rat(0)))), draw(st.booleans())


@st.composite
def nonempty_boxes(draw):
    (lo, lo_excl), (hi, hi_excl) = draw(interval_ends()), draw(interval_ends())
    if lo is not None and hi is not None:
        if lo > hi:
            (lo, lo_excl), (hi, hi_excl) = (hi, hi_excl), (lo, lo_excl)
        if lo == hi:
            lo_excl = hi_excl = False
    return lo, hi, lo_excl, hi_excl


@st.composite
def interval_problems(draw):
    boxes = draw(st.lists(nonempty_boxes(), min_size=1, max_size=5))
    weight = st.one_of(st.integers(-9, 9), rationals()).filter(lambda w: w != 0)
    positions = draw(st.sets(st.integers(0, len(boxes) - 1)))
    items = tuple((p, draw(weight)) for p in sorted(positions))
    const = draw(st.one_of(st.integers(-9, 9), rationals()))
    return const, items, boxes


@settings(max_examples=400, deadline=None)
@given(interval_problems())
def test_interval_matches_the_reference(problem):
    """Unbounded ends, excluded zero ends and weights of both signs."""
    const, items, boxes = problem
    fmin, min_att, fmax, max_att = _interval_of(const, items, boxes)
    ref_min, ref_min_att, ref_max, ref_max_att = reference_interval(const, items, boxes)
    assert fmin == ref_min and fmax == ref_max
    if fmin is not None:
        assert min_att == ref_min_att
    if fmax is not None:
        assert max_att == ref_max_att


@settings(max_examples=400, deadline=None)
@given(problems(nonempty_boxes()), st.data())
def test_seeding_the_readers_of_a_narrowed_bound_matches_a_fresh_propagation(problem, data):
    """From boxes the reference leaves unchanged, narrow one bound and seed
    only the forms that read it: the result is the reference's from scratch."""
    boxes, forms = problem
    assume(reference_propagate(boxes, forms, rounds=20))
    settled = list(boxes)
    reference_propagate(settled, forms, rounds=1)
    assume(settled == boxes)  # a fixpoint of the reference
    q = data.draw(st.integers(0, len(boxes) - 2))
    side = data.draw(st.sampled_from((0, 1)))  # narrow lo or hi
    lo, hi, lo_excl, hi_excl = boxes[q]
    end, excluded = data.draw(bound_ends())
    if side == 0 and end is not None and (lo is None or end > lo):
        boxes[q] = (end, hi, excluded, hi_excl)
    elif side == 1 and end is not None and (hi is None or end < hi):
        boxes[q] = (lo, end, lo_excl, excluded)
    expected = list(boxes)
    verdict = reference_propagate(expected, forms)
    slots = [_CompiledSlot(c, items) for c, items in forms]
    int_forms = [(s.iconst, s.iitems) for s in slots]
    got = exact_boxes(boxes)
    seeds = readers_of(int_forms, len(boxes))[q][side]
    assert propagate(got, int_forms, seeds) == verdict
    assert_same_boxes(got, expected)
