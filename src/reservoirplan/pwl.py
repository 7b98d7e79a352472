"""Piecewise-linear function algebra: evaluation, shape verification, pieces.

A function is stored as a sorted breakpoint list plus linear extension slopes
beyond the first and last breakpoint, so it is defined on the whole real line.
On an interval, a convex or concave function, or the expectation of one over
shifted arguments, is its value at the left end plus one linear piece per
distinct slope (`PwlFunction.pieces`), which is what the LP compiler needs.

Functions are immutable, so what follows from the breakpoints is worked out
once: construction stores the slope sequence and its shape report for every
flag, and where each piece starts, with its supporting line ("cut"), is
derived on first use. Shape checks, the pieces and scenario validation read
these instead of recomputing them.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Sequence

import numpy as np

CONVEX = "convex"
CONCAVE = "concave"
NONDECREASING = "nondecreasing"

VALID_FLAGS = (CONVEX, CONCAVE, NONDECREASING)

# Breakpoints are user inputs, not computed values, so slope comparisons can be
# near-exact.
SLOPE_TOL = 1e-12


@dataclasses.dataclass(frozen=True)
class ShapeReport:
    """Result of checking a slope sequence against required shape flags."""

    ok: bool
    violations: tuple[tuple[str, int], ...] = ()

    def message(self) -> str:
        if self.ok:
            return "shape verified"
        return "; ".join(f"not {flag} at segment {idx}" for flag, idx in self.violations)


def _check_slopes(slopes: Sequence[float]) -> ShapeReport:
    """The first segment at which `slopes` breaks each of the VALID_FLAGS."""
    steps = [b - a for a, b in zip(slopes, slopes[1:])]
    violations: list[tuple[str, int]] = []
    for flag in VALID_FLAGS:
        if flag == CONVEX:
            bad = next((i + 1 for i, step in enumerate(steps)
                        if step < -SLOPE_TOL), None)
        elif flag == CONCAVE:
            bad = next((i + 1 for i, step in enumerate(steps)
                        if step > SLOPE_TOL), None)
        else:
            bad = next((i for i, slope in enumerate(slopes)
                        if slope < -SLOPE_TOL), None)
        if bad is not None:
            violations.append((flag, bad))
    return ShapeReport(ok=not violations, violations=tuple(violations))


@dataclasses.dataclass(frozen=True)
class PwlFunction:
    """Piecewise-linear function with linear extensions and declared shape flags.

    Immutable after construction; safe to share across concurrent readers.
    The breakpoint coordinates, the slope sequence and its shape report for
    every flag are also kept, read-only: built once from the fields and left
    out of comparison, hashing and repr. Where the pieces start, and their
    slopes, are derived on first use and kept the same way.
    """

    breakpoints: tuple[tuple[float, float], ...]
    left_slope: float
    right_slope: float
    shape: tuple[str, ...] = ()
    provenance: str = "unspecified"
    _xs: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    _ys: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    _slopes: np.ndarray = dataclasses.field(init=False, repr=False, compare=False)
    _shape: ShapeReport = dataclasses.field(init=False, repr=False, compare=False)
    # The pieces' starts and slopes, once `_starts_and_slopes` has derived them.
    _derived: tuple | None = dataclasses.field(default=None, init=False,
                                               repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = tuple((float(x), float(y)) for x, y in self.breakpoints)
        if not pts:
            raise ValueError("PwlFunction needs at least one breakpoint")
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        if not all(map(math.isfinite, xs + ys)):
            raise ValueError("breakpoints must be finite")
        if any(b - a <= 0 for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint arguments must be strictly increasing")
        if not (math.isfinite(self.left_slope)
                and math.isfinite(self.right_slope)):
            raise ValueError("extension slopes must be finite")
        left, right = float(self.left_slope), float(self.right_slope)
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "left_slope", left)
        object.__setattr__(self, "right_slope", right)
        object.__setattr__(self, "shape", tuple(self.shape))
        # Python floats do the arithmetic np.diff and array division would,
        # without a numpy call per two-element array.
        slopes = [left] + [(y1 - y0) / (x1 - x0) for x0, x1, y0, y1
                           in zip(xs, xs[1:], ys, ys[1:])] + [right]
        for name, values in (("_xs", xs), ("_ys", ys), ("_slopes", slopes)):
            values = np.array(values)
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        object.__setattr__(self, "_shape", _check_slopes(slopes))
        if self.shape:
            report = self.verify_shape(self.shape)
            if not report.ok:
                raise ValueError(f"declared shape does not verify: {report.message()}")

    def __reduce__(self):
        # Pickle and copy rebuild through the constructor, which validates the
        # fields and recomputes the stored arrays and report, read-only.
        return (type(self), tuple(getattr(self, field.name)
                                  for field in dataclasses.fields(self)
                                  if field.init))

    # -- geometry ----------------------------------------------------------

    def slopes(self) -> np.ndarray:
        """Slope sequence: left extension, interior segments, right extension.
        The stored, read-only array."""
        return self._slopes

    def evaluate(self, x):
        """Exact piecewise-linear value at `x` (scalar or array), total on reals."""
        xs, ys = self._xs, self._ys
        if np.ndim(x) == 0:
            # One branch instead of the masks below, with the same np.interp
            # and extension arithmetic, so the value is bitwise the same.
            value = float(x)
            if value < xs[0]:
                return float(ys[0] + self.left_slope * (value - xs[0]))
            if value > xs[-1]:
                return float(ys[-1] + self.right_slope * (value - xs[-1]))
            return float(np.interp(value, xs, ys))
        arr = np.asarray(x, dtype=float)
        out = np.interp(arr, xs, ys)
        below = arr < xs[0]
        above = arr > xs[-1]
        if np.any(below):
            out = np.where(below, ys[0] + self.left_slope * (arr - xs[0]), out)
        if np.any(above):
            out = np.where(above, ys[-1] + self.right_slope * (arr - xs[-1]), out)
        return out

    def verify_shape(self, required: Sequence[str]) -> ShapeReport:
        """Accept iff the slope sequence satisfies every required flag: the
        stored report of all flags, restricted to `required` in its order."""
        first = dict(self._shape.violations)
        for flag in required:
            if flag not in VALID_FLAGS:
                raise ValueError(f"unknown shape flag {flag!r}")
        violations = tuple((flag, first[flag]) for flag in required if flag in first)
        return ShapeReport(ok=not violations, violations=violations)

    def _starts_and_slopes(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Where each piece of distinct slope starts, left to right (the
        breakpoint it starts at; the left extension starts at the first), and
        its slope; derived on first use and kept."""
        if self._derived is None:
            broken = {flag for flag, _ in self._shape.violations}
            if CONVEX in broken and CONCAVE in broken:
                raise ValueError("pieces require a convex or concave function")
            xs = self._xs.tolist()
            starts: list[float] = []
            slopes: list[float] = []
            for slope, start in zip(self._slopes.tolist(), [xs[0], *xs]):
                if slopes and abs(slope - slopes[-1]) <= SLOPE_TOL:
                    continue
                starts.append(start)
                slopes.append(slope)
            object.__setattr__(self, "_derived", (tuple(starts), tuple(slopes)))
        return self._derived

    def pieces(self, lo: float, hi: float, support=((0.0, 1.0),)
               ) -> tuple[float, tuple[float, ...], tuple[float, ...]]:
        """g(lo), then the slope and the length of each piece of g on [lo, hi],
        left to right, where g(a) = sum_k p_k * f(a - xi_k) over (xi_k, p_k)
        in `support`: f itself by default.

        `lo` must be finite; `hi` may be infinite, and the last piece is then
        unbounded. g(lo) is taken with `evaluate`. Each slope is the
        probability-weighted sum of the slopes of the pieces of f active
        between two consecutive shifted kinks start + xi_k, read from
        `_starts_and_slopes` rather than from value differences, so nearly
        coincident kinks cannot spoil it. Neighbours whose slopes differ by at
        most SLOPE_TOL are one piece, and a piece has a positive length.
        Rejects functions that are neither convex nor concave.
        """
        starts, piece_slopes = self._starts_and_slopes()
        value = sum(p * self.evaluate(lo - xi) for xi, p in support)
        # At each shifted kink start + xi_k, support point k moves on to the
        # next piece of f. Kinks at or left of lo set the pieces read at lo;
        # each kink inside (lo, hi) may end a piece.
        kinks = sorted((start + xi, k) for k, (xi, _) in enumerate(support)
                       for start in starts[1:])
        active = [0] * len(support)
        for at, k in kinks:
            if at <= lo:
                active[k] += 1

        def slope() -> float:
            return sum([p * piece_slopes[j] for j, (_, p) in zip(active, support)])

        current = slope()
        slopes: list[float] = []
        lengths: list[float] = []
        left = lo
        inside = [kink for kink in kinks if lo < kink[0] < hi]
        for at, group in itertools.groupby(inside, key=lambda kink: kink[0]):
            for _, k in group:
                active[k] += 1
            new = slope()
            if abs(new - current) > SLOPE_TOL:
                slopes.append(current)
                lengths.append(at - left)
                left, current = at, new
        if hi > left:
            slopes.append(current)
            lengths.append(hi - left)
        return value, tuple(slopes), tuple(lengths)

    def max_cut_slope(self) -> float:
        return float(np.max(np.abs(self._slopes)))

    def scale(self, factor: float) -> "PwlFunction":
        """Scale function values by a positive factor; shape flags are preserved."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return PwlFunction(
            breakpoints=tuple((x, y * factor) for x, y in self.breakpoints),
            left_slope=self.left_slope * factor,
            right_slope=self.right_slope * factor,
            shape=self.shape,
            provenance=self.provenance,
        )


# -- constructors for the experiment shapes ---------------------------------


def linear(slope: float) -> PwlFunction:
    """Linear function through the origin."""
    flags = (CONVEX, CONCAVE) + ((NONDECREASING,) if slope >= 0 else ())
    return PwlFunction(((0.0, 0.0),), slope, slope, flags)


def capped_linear(slope: float, cap: float) -> PwlFunction:
    """Rises with `slope` up to argument `cap`, constant beyond (demand cap)."""
    if slope < 0 or cap <= 0:
        raise ValueError("capped_linear needs slope >= 0 and cap > 0")
    return PwlFunction(
        ((0.0, 0.0), (float(cap), float(slope * cap))),
        left_slope=slope,
        right_slope=0.0,
        shape=(CONCAVE, NONDECREASING),
    )


def hinge(slope: float) -> PwlFunction:
    """Zero on nonpositive arguments, rises with `slope` beyond zero."""
    if slope < 0:
        raise ValueError("hinge needs slope >= 0")
    return PwlFunction(((0.0, 0.0),), 0.0, float(slope), (CONVEX, NONDECREASING))
