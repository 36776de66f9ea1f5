"""Exhaustive bounded solution search for monic cubic Thue equations
F(x,y)=1, verification of the family theorem at small t, and the
sporadic tables.

Per y the equation is a monic integer cubic in x.  Integer roots are
extracted by splitting the real line at certified critical-point bounds
into monotone pieces and running exact integer bisection on each; the
accept/reject decision is always an exact integer evaluation, never a
floating-point comparison.  Completeness beyond |y| <= y_bound is NOT
claimed; reports carry an explicit bounded-verification caveat.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .forms import BinaryCubicForm, family_form, known_solutions, monic_cubic
from .parallel import parallel_map

# (form, discriminant, published solution count) for the positive-
# discriminant sporadic classes with N_F >= 6
MANY_SOLUTIONS_TABLE: Tuple[Tuple[BinaryCubicForm, int, int], ...] = (
    (BinaryCubicForm(1, -1, -2, 1), 49, 9),
    (BinaryCubicForm(1, 0, -3, 1), 81, 6),
    (BinaryCubicForm(1, 0, -4, 1), 229, 6),
    (BinaryCubicForm(1, 0, -5, 3), 257, 6),
    (BinaryCubicForm(1, 2, -5, 1), 361, 6),
)

# the nine classes with N_F >= 5 inequivalent to every family member;
# univariate rows homogenized by degree in y
SPORADIC_CLASSES_TABLE: Tuple[Tuple[BinaryCubicForm, int, int], ...] = (
    (BinaryCubicForm(1, 0, -3, 1), 81, 6),
    (BinaryCubicForm(1, 1, -3, -1), 148, 5),
    (BinaryCubicForm(1, 2, -5, 1), 361, 6),
    (BinaryCubicForm(1, 0, -5, -1), 473, 5),
    (BinaryCubicForm(1, 0, -7, -1), 1345, 5),
    (BinaryCubicForm(1, 9, -12, -21), 108729, 5),
    (BinaryCubicForm(1, 21, -2, -21), 783689, 5),
    (BinaryCubicForm(1, 21, -1, -22), 810661, 5),
    (BinaryCubicForm(1, 18, -21, -37), 1257849, 5),
)

# negative-discriminant extremal classes (N_F = 5, 4, 4)
DELONE_NAGELL_TABLE: Tuple[Tuple[BinaryCubicForm, int, int], ...] = (
    (BinaryCubicForm(1, 0, -1, 1), -23, 5),
    (BinaryCubicForm(1, 0, 1, 1), -31, 4),
    (BinaryCubicForm(1, -1, 1, 1), -44, 4),
)


def _monotone_zero(B: int, C: int, D: int, lo: int, hi: int,
                   increasing: bool) -> Optional[int]:
    """The unique integer zero of a cubic monotone on [lo, hi], if any.
    Exact integer bisection; never misses a zero on the piece."""
    if lo > hi:
        return None
    flo = monic_cubic(B, C, D, lo)
    fhi = monic_cubic(B, C, D, hi)
    if flo == 0:
        return lo
    if fhi == 0:
        return hi
    if not increasing:
        flo, fhi = fhi, flo
        # mirror so the bisection below always sees an increasing sweep
    if flo > 0 or fhi < 0:
        return None
    a, b = lo, hi
    while b - a > 1:
        mid = (a + b) // 2
        fm = monic_cubic(B, C, D, mid)
        if fm == 0:
            return mid
        rising = fm < 0 if increasing else fm > 0
        if rising:
            a = mid
        else:
            b = mid
    return None


def integer_roots_monic_cubic(B: int, C: int, D: int) -> List[int]:
    """All integer roots of x^3 + B x^2 + C x + D, exactly."""
    M = 1 + max(abs(B), abs(C), abs(D))
    disc4 = B * B - 3 * C
    roots: List[int] = []
    if disc4 <= 0:
        z = _monotone_zero(B, C, D, -M, M, True)
        return [z] if z is not None else []
    s0 = math.isqrt(disc4)
    # critical points (-B -+ sqrt(disc4))/3 with sqrt in [s0, s0+1];
    # integers outside the bracketing bounds lie on a certified
    # monotone piece, the few inside are tested individually
    left_hi = (-B - s0 - 1) // 3
    mid_lo = -((B + s0) // 3)          # ceil((-B - s0)/3)
    mid_hi = (-B + s0) // 3
    right_lo = -((B - s0 - 1) // 3)    # ceil((-B + s0 + 1)/3)
    for z in (
        _monotone_zero(B, C, D, -M, left_hi, True),
        _monotone_zero(B, C, D, mid_lo, mid_hi, False),
        _monotone_zero(B, C, D, right_lo, M, True),
    ):
        if z is not None and z not in roots:
            roots.append(z)
    # the few integers inside the critical-point uncertainty zones
    for z in range(left_hi + 1, mid_lo):
        if z not in roots and monic_cubic(B, C, D, z) == 0:
            roots.append(z)
    for z in range(mid_hi + 1, right_lo):
        if z not in roots and monic_cubic(B, C, D, z) == 0:
            roots.append(z)
    return sorted(roots)


@dataclass(frozen=True)
class SearchReport:
    form: BinaryCubicForm
    y_bound: int
    solutions: Tuple[Tuple[int, int], ...]
    expected_min_count: Optional[int] = None
    expected_set: Optional[Tuple[Tuple[int, int], ...]] = None
    bounded_verification: bool = True

    @property
    def count(self) -> int:
        return len(self.solutions)

    @property
    def matches_expected(self) -> bool:
        if self.expected_set is not None:
            return self.solutions == self.expected_set
        if self.expected_min_count is not None:
            return self.count >= self.expected_min_count
        return True

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "form": self.form.to_json(),
            "y_bound": self.y_bound,
            "count": self.count,
            "solutions": [list(s) for s in self.solutions],
            "expected_min_count": self.expected_min_count,
            "matches_expected": self.matches_expected,
            "bounded_verification": self.bounded_verification,
        }


def _solutions_for_y_range(F: BinaryCubicForm, y_from: int, y_to: int
                           ) -> List[Tuple[int, int]]:
    _, b, c, d = F.coefficients
    out: List[Tuple[int, int]] = []
    for y in range(y_from, y_to + 1):
        for x in integer_roots_monic_cubic(b * y, c * y * y, d * y ** 3 - 1):
            out.append((x, y))
    return out


def _stripe_star(args):
    return _solutions_for_y_range(*args)


def thue_solutions_bruteforce(F: BinaryCubicForm, y_bound: int,
                              workers: int = 1) -> SearchReport:
    """All integer solutions of F(x,y)=1 with |y| <= y_bound; the form
    must be monic in x."""
    if F.a != 1:
        raise ValueError("search requires leading coefficient 1")
    if y_bound < 0:
        raise ValueError("y_bound must be >= 0")
    stripe = max(1, (2 * y_bound + 1) // (max(workers, 1) * 8))
    jobs = [(F, y, min(y + stripe - 1, y_bound))
            for y in range(-y_bound, y_bound + 1, stripe)]
    sols = [s for chunk in parallel_map(_stripe_star, jobs, workers) for s in chunk]
    return SearchReport(F, y_bound, tuple(sorted(set(sols))))


def verify_theorem(t: int, y_bound: int, workers: int = 1) -> bool:
    """True iff the bounded search finds exactly the published solution
    set of F_{3,t}(x,y)=1 restricted to |y| <= y_bound."""
    F = family_form(3, t)
    found = thue_solutions_bruteforce(F, y_bound, workers).solutions
    expected = tuple(sorted(known_solutions(t).restricted(y_bound)))
    return found == expected


def verify_sporadic_tables(y_bound: int = 10 ** 4,
                           workers: int = 1) -> List[SearchReport]:
    """One report per listed sporadic form, asserting at least the
    published N_F solutions are found within the bound."""
    reports = []
    seen = set()
    for F, disc, n_f in MANY_SOLUTIONS_TABLE + SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE:
        if F.coefficients in seen:
            continue
        seen.add(F.coefficients)
        assert F.discriminant() == disc, (F, disc)
        rep = thue_solutions_bruteforce(F, y_bound, workers)
        reports.append(SearchReport(F, y_bound, rep.solutions,
                                    expected_min_count=n_f))
    return reports
