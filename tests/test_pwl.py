import copy
import dataclasses
import itertools
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import zero
from epigraph import cuts, expected_cuts
from reservoirplan.pwl import (CONCAVE, CONVEX, NONDECREASING, SLOPE_TOL,
                               VALID_FLAGS, PwlFunction, ShapeReport,
                               capped_linear, hinge, linear)


def test_evaluate_capped_linear_past_cap():
    f = capped_linear(1.0, 2.0)
    assert f.evaluate(3.0) == 2.0


def test_evaluate_hinge_nonpositive_is_zero():
    f = hinge(2.5)
    assert f.evaluate(-1.0) == 0.0


def test_evaluate_hinge_linear_segment():
    f = hinge(2.5)
    assert f.evaluate(2.0) == 5.0


def test_evaluate_interior_interpolation_and_extensions():
    f = PwlFunction(((0.0, 0.0), (2.0, 4.0), (5.0, 4.0)), -1.0, 0.5)
    assert f.evaluate(1.0) == 2.0
    assert f.evaluate(-2.0) == 2.0      # left extension slope -1
    assert f.evaluate(7.0) == 5.0       # right extension slope 0.5
    out = f.evaluate(np.array([1.0, -2.0, 7.0]))
    np.testing.assert_allclose(out, [2.0, 2.0, 5.0])


def test_verify_shape_linear_passes_all_flags():
    f = PwlFunction(((0.0, 0.0), (1.0, 1.0)), 1.0, 1.0)
    report = f.verify_shape([CONVEX, CONCAVE, NONDECREASING])
    assert report.ok


def test_verify_shape_decreasing_slopes_reject_convex_at_segment_1():
    # Slope sequence (2, 1): convexity breaks at segment index 1.
    f = PwlFunction(((0.0, 0.0),), 2.0, 1.0)
    report = f.verify_shape([CONVEX])
    assert not report.ok
    assert report.violations[0] == (CONVEX, 1)


def test_verify_shape_hinge_slopes_accept_convex_nondecreasing():
    f = PwlFunction(((0.0, 0.0),), 0.0, 2.5)
    assert f.verify_shape([CONVEX, NONDECREASING]).ok


def test_verify_shape_negative_slope_rejects_nondecreasing():
    f = PwlFunction(((0.0, 0.0),), -1.0, 2.0)
    report = f.verify_shape([NONDECREASING])
    assert not report.ok
    assert report.violations[0] == (NONDECREASING, 0)


def test_declared_shape_is_verified_at_construction():
    with pytest.raises(ValueError, match="declared shape"):
        PwlFunction(((0.0, 0.0),), 2.0, 1.0, shape=(CONVEX,))


def test_breakpoints_must_strictly_increase():
    with pytest.raises(ValueError, match="strictly increasing"):
        PwlFunction(((1.0, 0.0), (1.0, 2.0)), 0.0, 0.0)
    with pytest.raises(ValueError, match="at least one breakpoint"):
        PwlFunction((), 0.0, 0.0)


def test_cuts_capped_linear():
    f = capped_linear(1.0, 2.0)
    lines = cuts(f)
    assert lines == ((1.0, 0.0), (0.0, 2.0))
    # Concave: min over cuts reproduces the function.
    assert min(s * 1.0 + b for s, b in lines) == 1.0


def test_cuts_hinge():
    f = hinge(2.5)
    lines = cuts(f)
    assert lines == ((0.0, 0.0), (2.5, 0.0))
    assert max(s * 2.0 + b for s, b in lines) == 5.0


def test_cuts_reject_non_convex_non_concave():
    wiggle = PwlFunction(((0.0, 0.0), (1.0, 1.0), (2.0, 1.0)), 1.0, 2.0)
    with pytest.raises(ValueError, match="convex or concave"):
        cuts(wiggle)


def _random_convex(rng, segments=4, min_slope=-4.0):
    xs = np.sort(rng.uniform(-5, 5, size=segments))
    while np.any(np.diff(xs) < 1e-3):
        xs = np.sort(rng.uniform(-5, 5, size=segments))
    slopes = np.sort(rng.uniform(min_slope, 4, size=segments + 1))
    ys = [0.0]
    for i in range(1, len(xs)):
        ys.append(ys[-1] + slopes[i] * (xs[i] - xs[i - 1]))
    return PwlFunction(tuple(zip(xs.tolist(), ys)), float(slopes[0]),
                       float(slopes[-1]), (CONVEX,))


def test_max_of_cuts_equals_evaluate_for_random_convex():
    rng = np.random.default_rng(1234)
    for _ in range(20):
        f = _random_convex(rng)
        lines = cuts(f)
        xs = rng.uniform(-12, 12, size=100)
        expected = f.evaluate(xs)
        via_cuts = np.max(
            np.array([[s * x + b for x in xs] for s, b in lines]), axis=0)
        np.testing.assert_allclose(via_cuts, expected, rtol=1e-12, atol=1e-12)


def test_min_of_cuts_equals_evaluate_for_random_concave():
    rng = np.random.default_rng(99)
    for _ in range(20):
        convex = _random_convex(rng)
        f = PwlFunction(tuple((x, -y) for x, y in convex.breakpoints),
                        -convex.left_slope, -convex.right_slope, (CONCAVE,))
        lines = cuts(f)
        xs = rng.uniform(-12, 12, size=100)
        expected = f.evaluate(xs)
        via_cuts = np.min(
            np.array([[s * x + b for x in xs] for s, b in lines]), axis=0)
        np.testing.assert_allclose(via_cuts, expected, rtol=1e-12, atol=1e-12)


def _expectation(f, support, xs):
    return sum(prob * f.evaluate(xs - value) for value, prob in support)


def _max_of_cuts(lines, xs):
    return np.max([slope * xs + intercept for slope, intercept in lines], axis=0)


def test_expected_cuts_match_expectation_for_random_convex():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        f = _random_convex(rng, segments=int(rng.integers(1, 5)), min_slope=0.0)
        k = int(rng.integers(1, 6))
        values = np.sort(rng.uniform(0, 10, size=k))
        probs = rng.uniform(0.05, 1.0, size=k)
        support = tuple(zip(values.tolist(), (probs / probs.sum()).tolist()))
        shifted = [x + value for x, _ in f.breakpoints for value, _ in support]
        xs = np.concatenate([shifted, rng.uniform(-30, 30, size=200)])
        np.testing.assert_allclose(_max_of_cuts(expected_cuts(f, support), xs),
                                   _expectation(f, support, xs),
                                   rtol=1e-12, atol=1e-11)


def test_expected_cuts_survive_nearly_coincident_kinks():
    # Kinks at 0 and 0.1 + 0.2 shift onto 0.3 and 0.30000000000000004.
    f = PwlFunction(((0.0, 0.0), (0.1 + 0.2, 0.3)), 0.0, 3.0,
                    (CONVEX, NONDECREASING))
    support = ((0.0, 0.2), (0.3, 0.5), (0.6, 0.3))
    lines = expected_cuts(f, support)
    slopes = [slope for slope, _ in lines]
    assert slopes == sorted(slopes)
    assert 0.0 <= min(slopes) and max(slopes) <= 3.0
    xs = np.array([x + value for x, _ in f.breakpoints for value, _ in support]
                  + list(np.linspace(-2.0, 3.0, 501)))
    np.testing.assert_allclose(_max_of_cuts(lines, xs),
                               _expectation(f, support, xs),
                               rtol=1e-12, atol=1e-14)


def test_expected_cuts_of_point_mass_shift_the_cuts():
    f = PwlFunction(((0.0, 0.0), (1.5, 3.0)), 0.0, 4.0, (CONVEX, NONDECREASING))
    assert expected_cuts(f, ((2.5, 1.0),)) == tuple(
        (slope, intercept - slope * 2.5) for slope, intercept in cuts(f))


@st.composite
def _exact_convex(draw):
    """Convex functions on a grid of eighths, so breakpoints, values and
    slopes are exact and construction cannot fail its own shape check."""
    xs = sorted(draw(st.sets(st.integers(-160, 160), min_size=1, max_size=6)))
    slopes = sorted(draw(st.lists(st.integers(-32, 32), min_size=len(xs) + 1,
                                  max_size=len(xs) + 1)))
    ys = [0]
    for i in range(1, len(xs)):
        ys.append(ys[-1] + slopes[i] * (xs[i] - xs[i - 1]))
    return PwlFunction(tuple((x / 8, y / 64) for x, y in zip(xs, ys)),
                       slopes[0] / 8, slopes[-1] / 8, (CONVEX,))


_POINTS = st.lists(st.floats(-100, 100), min_size=1, max_size=30)
_PROPERTY_SETTINGS = settings(max_examples=200, deadline=None,
                              derandomize=True)


@_PROPERTY_SETTINGS
@given(f=_exact_convex(), points=_POINTS)
def test_convex_function_is_the_max_of_its_cuts(f, points):
    xs = np.array(points + [x for x, _ in f.breakpoints])
    np.testing.assert_allclose(_max_of_cuts(cuts(f), xs), f.evaluate(xs),
                               rtol=1e-12, atol=1e-12)


@_PROPERTY_SETTINGS
@given(convex=_exact_convex(), points=_POINTS)
def test_concave_function_is_the_min_of_its_cuts(convex, points):
    f = PwlFunction(tuple((x, -y) for x, y in convex.breakpoints),
                    -convex.left_slope, -convex.right_slope, (CONCAVE,))
    xs = np.array(points + [x for x, _ in f.breakpoints])
    via_cuts = np.min([slope * xs + intercept for slope, intercept in cuts(f)],
                      axis=0)
    np.testing.assert_allclose(via_cuts, f.evaluate(xs), rtol=1e-12, atol=1e-12)


@_PROPERTY_SETTINGS
@given(f=_exact_convex(), points=_POINTS,
       support=st.lists(st.tuples(st.floats(-20, 20), st.floats(1e-3, 1.0)),
                        min_size=1, max_size=5,
                        unique_by=lambda point: point[0]))
def test_expected_cuts_are_the_expectation(f, points, support):
    total = sum(weight for _, weight in support)
    support = tuple((value, weight / total) for value, weight in support)
    shifted = [x + value for x, _ in f.breakpoints for value, _ in support]
    xs = np.array(points + shifted)
    np.testing.assert_allclose(_max_of_cuts(expected_cuts(f, support), xs),
                               _expectation(f, support, xs),
                               rtol=1e-9, atol=1e-9)


def _via_pieces(pieces, lo, xs):
    """g(lo) + sum of slope * clip(x - start, 0, length) over the pieces."""
    value, slopes, lengths = pieces
    starts = lo + np.concatenate(([0.0], np.cumsum(lengths)[:-1]))
    return value + sum((slope * np.clip(xs - start, 0.0, length)
                        for slope, start, length in zip(slopes, starts, lengths)),
                       np.zeros_like(xs))


def _negated(f):
    return PwlFunction(tuple((x, -y) for x, y in f.breakpoints),
                       -f.left_slope, -f.right_slope, (CONCAVE,))


_INTERVAL = st.tuples(st.floats(-30, 30), st.floats(1e-3, 40))
_FRACTIONS = st.lists(st.floats(0, 1), min_size=1, max_size=30)


@_PROPERTY_SETTINGS
@given(convex=_exact_convex(), interval=_INTERVAL, fractions=_FRACTIONS,
       concave=st.booleans())
def test_pieces_rebuild_the_function_on_their_interval(convex, interval,
                                                        fractions, concave):
    f = _negated(convex) if concave else convex
    lo, width = interval
    hi = lo + width
    pieces = f.pieces(lo, hi)
    value, slopes, lengths = pieces
    assert value == f.evaluate(lo)
    assert all(length > 0 for length in lengths)
    assert sum(lengths) == pytest.approx(width, rel=1e-12)
    # Slopes rise along a convex function and fall along a concave one, by
    # more than SLOPE_TOL, so an optimum fills the pieces in order.
    steps = np.diff(slopes) * (-1 if concave else 1)
    assert np.all(steps > SLOPE_TOL)
    assert set(slopes) <= set(f.slopes().tolist())
    xs = lo + width * np.array(fractions + [0.0, 1.0])
    xs = np.concatenate([xs, [x for x, _ in f.breakpoints if lo <= x <= hi]])
    np.testing.assert_allclose(_via_pieces(pieces, lo, xs), f.evaluate(xs),
                               rtol=1e-9, atol=1e-9)


@_PROPERTY_SETTINGS
@given(f=_exact_convex(), interval=_INTERVAL, fractions=_FRACTIONS,
       support=st.lists(st.tuples(st.floats(-20, 20), st.floats(1e-3, 1.0)),
                        min_size=1, max_size=5,
                        unique_by=lambda point: point[0]))
def test_expected_pieces_are_the_expectation(f, interval, fractions, support):
    total = sum(weight for _, weight in support)
    support = tuple((value, weight / total) for value, weight in support)
    lo, width = interval
    pieces = f.pieces(lo, lo + width, support)
    assert pieces[0] == sum(p * f.evaluate(lo - xi) for xi, p in support)
    assert np.all(np.diff(pieces[1]) > SLOPE_TOL)
    shifted = [x + value for x, _ in f.breakpoints for value, _ in support]
    xs = lo + width * np.array(fractions + [0.0, 1.0])
    xs = np.concatenate([xs, [x for x in shifted if lo <= x <= lo + width]])
    np.testing.assert_allclose(_via_pieces(pieces, lo, xs),
                               _expectation(f, support, xs),
                               rtol=1e-9, atol=1e-9)


def test_expected_pieces_survive_nearly_coincident_kinks():
    # Kinks at 0 and 0.1 + 0.2 shift onto 0.3 and 0.30000000000000004.
    f = PwlFunction(((0.0, 0.0), (0.1 + 0.2, 0.3)), 0.0, 3.0,
                    (CONVEX, NONDECREASING))
    support = ((0.0, 0.2), (0.3, 0.5), (0.6, 0.3))
    pieces = f.pieces(-2.0, 3.0, support)
    slopes = pieces[1]
    assert list(slopes) == sorted(slopes)
    assert 0.0 <= min(slopes) and max(slopes) <= 3.0
    assert min(pieces[2]) > 0.0
    xs = np.array([x + value for x, _ in f.breakpoints for value, _ in support]
                  + list(np.linspace(-2.0, 3.0, 501)))
    np.testing.assert_allclose(_via_pieces(pieces, -2.0, xs),
                               _expectation(f, support, xs),
                               rtol=1e-12, atol=1e-14)


def test_pieces_of_the_planning_terms():
    # A demand-capped profit on [0, inf): its last piece is unbounded.
    assert capped_linear(1.5, 2.0).pieces(0.0, math.inf) == (
        0.0, (1.5, 0.0), (2.0, math.inf))
    # Expected hinge risk over the support range: one piece between each two
    # support points, priced at the mass at or below its left end.
    support = ((1.0, 0.25), (2.0, 0.5), (4.0, 0.25))
    assert hinge(2.0).pieces(1.0, 4.0, support) == (0.0, (0.5, 1.5), (1.0, 2.0))
    # A point mass: no piece, and the value at the point.
    assert hinge(2.0).pieces(3.0, 3.0, ((1.0, 1.0),)) == (4.0, (), ())
    # A kink at or left of lo sets the first slope; one at or right of hi is
    # not a kink on [lo, hi].
    f = PwlFunction(((0.0, 1.0), (1.0, 2.0), (3.0, 6.0)), 0.5, 3.0, (CONVEX,))
    assert f.pieces(1.0, 3.0) == (2.0, (2.0,), (2.0,))
    with pytest.raises(ValueError, match="convex or concave"):
        PwlFunction(((0.0, 0.0), (1.0, 1.0), (2.0, 1.0)), 1.0, 2.0).pieces(0.0, 1.0)


def test_pieces_derive_the_starts_once():
    f = capped_linear(1.0, 2.0)
    assert f._derived is None
    first = f.pieces(0.0, 5.0)
    derived = f._derived
    assert derived is not None and f.pieces(0.0, 5.0) == first
    assert f._derived is derived


def test_verified_convexity_implies_midpoint_inequality():
    rng = np.random.default_rng(7)
    for _ in range(20):
        f = _random_convex(rng)
        assert f.verify_shape([CONVEX]).ok
        a = rng.uniform(-10, 10, size=50)
        b = rng.uniform(-10, 10, size=50)
        mid = f.evaluate((a + b) / 2)
        avg = (f.evaluate(a) + f.evaluate(b)) / 2
        assert np.all(mid <= avg + 1e-9)


def test_experiment_shape_constructors_pass_required_flags():
    assert linear(0.25).verify_shape([CONVEX, NONDECREASING]).ok
    assert capped_linear(1.0, 4.0).verify_shape([CONCAVE, NONDECREASING]).ok
    assert hinge(2.5).verify_shape([CONVEX, NONDECREASING]).ok
    assert zero().verify_shape([CONVEX, CONCAVE, NONDECREASING]).ok


def test_scale_preserves_shape_and_scales_values():
    f = capped_linear(1.0, 4.0).scale(2.5)
    assert f.evaluate(4.0) == 10.0
    assert f.verify_shape([CONCAVE, NONDECREASING]).ok
    with pytest.raises(ValueError):
        f.scale(0.0)


def _three_piece() -> PwlFunction:
    return PwlFunction(((0.0, 0.0), (2.0, 4.0), (5.0, 4.0)), -1.0, 0.5,
                       provenance="test")


_PROBES = np.linspace(-3.0, 8.0, 23)


def _scratch_slopes(f: PwlFunction) -> np.ndarray:
    """The slope sequence worked out from the fields alone, with numpy."""
    xs = np.array([x for x, _ in f.breakpoints])
    ys = np.array([y for _, y in f.breakpoints])
    with np.errstate(over="ignore", invalid="ignore"):
        interior = np.diff(ys) / np.diff(xs) if len(xs) > 1 else np.empty(0)
    return np.concatenate(([f.left_slope], interior, [f.right_slope]))


def _numpy_shape_report(slopes: np.ndarray, required) -> ShapeReport:
    """Reference shape check of a slope array, with numpy."""
    violations = []
    with np.errstate(invalid="ignore"):
        steps = np.diff(slopes)
    for flag in required:
        if flag == CONVEX:
            bad = np.nonzero(steps < -SLOPE_TOL)[0] + 1
        elif flag == CONCAVE:
            bad = np.nonzero(steps > SLOPE_TOL)[0] + 1
        else:
            bad = np.nonzero(slopes < -SLOPE_TOL)[0]
        if bad.size:
            violations.append((flag, int(bad[0])))
    return ShapeReport(ok=not violations, violations=tuple(violations))


_FLAG_LISTS = [list(order) for size in range(len(VALID_FLAGS) + 1)
               for subset in itertools.combinations(VALID_FLAGS, size)
               for order in itertools.permutations(subset)]


def _assert_stored_data_is_fresh(f: PwlFunction) -> None:
    """Stored slopes and shape report equal a from-scratch numpy computation,
    the slopes bit for bit, and are read-only."""
    slopes = _scratch_slopes(f)
    assert f.slopes().dtype == slopes.dtype
    assert f.slopes().tobytes() == slopes.tobytes()
    assert not f.slopes().flags.writeable
    for flags in _FLAG_LISTS:
        assert f.verify_shape(flags) == _numpy_shape_report(slopes, flags)


def test_breakpoint_arrays_are_read_only_and_outside_identity():
    f = _three_piece()
    for values in (f._xs, f._ys, f._slopes, f.slopes()):
        with pytest.raises(ValueError):
            values[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        f._shape.violations = ()
    assert isinstance(f._shape.violations, tuple)
    twin = _three_piece()
    # Arrays in == would raise (ambiguous truth value), in hash TypeError.
    assert twin == f and hash(twin) == hash(f)
    assert twin != dataclasses.replace(f, provenance="other")
    assert all(name not in repr(f) for name in ("_xs", "_ys", "_slopes", "_shape"))
    # A different stored report changes neither == nor hash.
    object.__setattr__(twin, "_shape", ShapeReport(ok=True))
    assert twin == f and hash(twin) == hash(f)


_SLOPE_VALUES = st.one_of(st.floats(-8, 8), st.sampled_from([-1.0, 0.0, 1.0]))


@st.composite
def _any_function(draw):
    """Functions of any shape, with repeated slopes and exact ties likely."""
    xs = sorted(draw(st.sets(st.integers(-40, 40), min_size=1, max_size=6)))
    slopes = draw(st.lists(_SLOPE_VALUES, min_size=len(xs) + 1,
                           max_size=len(xs) + 1))
    ys = [draw(st.floats(-10, 10))]
    for i in range(1, len(xs)):
        ys.append(ys[-1] + slopes[i] * (xs[i] - xs[i - 1]))
    return PwlFunction(tuple((x / 4, y) for x, y in zip(xs, ys)),
                       slopes[0], slopes[-1])


@_PROPERTY_SETTINGS
@given(f=_any_function(), factor=st.floats(1e-3, 1e3))
def test_stored_slopes_and_report_equal_a_fresh_check(f, factor):
    _assert_stored_data_is_fresh(f)
    _assert_stored_data_is_fresh(f.scale(factor))
    for flags in _FLAG_LISTS:
        if flags and f.verify_shape(flags).ok:
            _assert_stored_data_is_fresh(dataclasses.replace(f, shape=tuple(flags)))


@st.composite
def _float_function(draw):
    """Functions with arbitrary float breakpoints and slopes, so that slope
    divisions round and may overflow."""
    xs = sorted(draw(st.sets(st.floats(-1e300, 1e300), min_size=1, max_size=5)))
    ys = draw(st.lists(st.floats(-1e300, 1e300), min_size=len(xs),
                       max_size=len(xs)))
    return PwlFunction(tuple(zip(xs, ys)), draw(st.floats(-1e3, 1e3)),
                       draw(st.floats(-1e3, 1e3)))


@_PROPERTY_SETTINGS
@given(f=_float_function())
def test_slopes_and_report_are_bitwise_a_numpy_reference(f):
    _assert_stored_data_is_fresh(f)


def test_unknown_flag_is_refused_by_the_stored_report():
    with pytest.raises(ValueError, match="unknown shape flag 'convx'"):
        _three_piece().verify_shape([CONVEX, "convx"])


def test_cuts_are_derived_once():
    # The starts and slopes that the cuts are read from are derived on first
    # use and kept.
    f = capped_linear(1.0, 2.0)
    derived = f._starts_and_slopes()
    assert isinstance(derived, tuple) and f._starts_and_slopes() is derived
    first = cuts(f)
    assert isinstance(first, tuple) and cuts(f) == first
    assert expected_cuts(f, ((0.5, 1.0),)) == expected_cuts(f, ((0.5, 1.0),))


@pytest.mark.parametrize("duplicate", [
    lambda f: pickle.loads(pickle.dumps(f)),
    copy.deepcopy,
    dataclasses.replace,
], ids=["pickle", "deepcopy", "replace"])
def test_copies_keep_read_only_arrays_and_evaluate_identically(duplicate):
    f = _three_piece()
    g = duplicate(f)
    assert g == f
    assert not g._xs.flags.writeable and not g._ys.flags.writeable
    for x in (-2.0, 0.0, 1.0, 5.0, 7.0):
        assert g.evaluate(x) == f.evaluate(x)
    assert np.array_equal(g.evaluate(_PROBES), f.evaluate(_PROBES))


@pytest.mark.parametrize("duplicate", [
    lambda f: pickle.loads(pickle.dumps(f)),
    copy.deepcopy,
    dataclasses.replace,
    lambda f: f.scale(2.5),
], ids=["pickle", "deepcopy", "replace", "scale"])
def test_copies_rebuild_slopes_report_and_cuts(duplicate):
    f = hinge(2.0)
    cuts(f)    # derived before the copy, so a copied cache would show
    g = duplicate(f)
    _assert_stored_data_is_fresh(g)
    fresh = PwlFunction(g.breakpoints, g.left_slope, g.right_slope, g.shape)
    assert cuts(g) == cuts(fresh)


def test_replace_rebuilds_arrays_from_new_breakpoints():
    f = _three_piece()
    g = dataclasses.replace(f, breakpoints=((0.0, 0.0), (1.0, 3.0)))
    fresh = PwlFunction(((0.0, 0.0), (1.0, 3.0)), -1.0, 0.5)
    assert np.array_equal(g._xs, [0.0, 1.0])
    assert np.array_equal(g.evaluate(_PROBES), fresh.evaluate(_PROBES))
    assert np.array_equal(g.slopes(), [-1.0, 3.0, 0.5])
    assert g.verify_shape([CONVEX]) == fresh.verify_shape([CONVEX])


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


@_PROPERTY_SETTINGS
@given(f=_any_function(), offsets=st.lists(st.floats(-1e3, 1e3), max_size=8))
def test_scalar_evaluate_is_bitwise_the_array_path(f, offsets):
    xs = f._xs.tolist()
    points = xs + [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    points += [xs[0] - abs(d) for d in offsets] + [xs[-1] + abs(d) for d in offsets]
    points += [xs[0] + d for d in offsets] + [-0.0, 0.1 + 0.2]
    array = f.evaluate(np.array(points))
    for point, expected in zip(points, array):
        for arg in (point, np.float64(point), np.array(point)):
            value = f.evaluate(arg)
            assert type(value) is float
            assert _bits(value) == _bits(expected)


def test_concurrent_readers_see_serial_values():
    f = _three_piece()
    expected = f.evaluate(_PROBES)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(f.evaluate, _PROBES) for _ in range(200)]
            results = [future.result(timeout=30) for future in futures]
    finally:
        sys.setswitchinterval(switch)
    assert all(np.array_equal(result, expected) for result in results)
