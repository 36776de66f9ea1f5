"""Exhaustive bounded solution search for monic cubic Thue equations
F(x,y)=1, verification of the family theorem at small t, and the
sporadic tables.

F(x,y) = (x - theta_1 y)(x - theta_2 y)(x - theta_3 y), so F(x,y) = 1
forces some factor to have modulus at most 1: |x - theta y| <= 1 for a
real root theta, and |x - Re(theta) y| <= 1 for a complex one.  Per y
the search therefore tests the few integers x within 1 of theta y on
each root line, with theta taken from certified rational brackets of
the roots of F(x,1) and of the real part of a complex pair.  The
window is found with integer floor and ceiling, and the accept/reject
decision is always an exact integer evaluation, never a floating-point
comparison.  Completeness beyond |y| <= y_bound is NOT claimed; reports
carry an explicit bounded-verification caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .forms import BinaryCubicForm, family_form, known_solutions, monic_cubic
from .roots import isolate_real_roots_monic_cubic

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


def _root_lines(F: BinaryCubicForm, y_bound: int) -> Tuple[List[Tuple[int, int]], int]:
    """([(lo, hi), ...], q): certified brackets [lo/q, hi/q], each at most
    1/(2 y_bound + 2) wide, of every real root of F(x, 1) and, when the
    other two roots are complex, of their common real part."""
    _, b, c, d = F.coefficients
    brackets = isolate_real_roots_monic_cubic(b, c, d, Fraction(1, 2 * y_bound + 2))
    if F.discriminant() < 0:
        # the real parts of the pair sum with the real root to -b
        (lo, hi), = brackets
        brackets.append(((-b - hi) / 2, (-b - lo) / 2))
    q = math.lcm(*(e.denominator for br in brackets for e in br))
    return [(int(lo * q), int(hi * q)) for lo, hi in brackets], q


def thue_solutions_bruteforce(F: BinaryCubicForm, y_bound: int) -> SearchReport:
    """All integer solutions of F(x,y)=1 with |y| <= y_bound; the form
    must be monic in x."""
    if F.a != 1:
        raise ValueError("search requires leading coefficient 1")
    if y_bound < 0:
        raise ValueError("y_bound must be >= 0")
    _, b, c, d = F.coefficients
    lines, q = _root_lines(F, y_bound)
    sols = set()
    for y in range(-y_bound, y_bound + 1):
        by, cy, dy = b * y, c * y * y, d * y ** 3
        for lo, hi in lines:
            # theta*y lies in [u/q, v/q], and x within 1 of it
            u, v = (lo * y, hi * y) if y >= 0 else (hi * y, lo * y)
            for x in range(-(-u // q) - 1, v // q + 2):
                if monic_cubic(by, cy, dy, x) == 1:
                    sols.add((x, y))
    return SearchReport(F, y_bound, tuple(sorted(sols)))


def verify_theorem(t: int, y_bound: int) -> bool:
    """True iff the bounded search finds exactly the published solution
    set of F_{3,t}(x,y)=1 restricted to |y| <= y_bound."""
    F = family_form(3, t)
    found = thue_solutions_bruteforce(F, y_bound).solutions
    expected = tuple(sorted(known_solutions(t).restricted(y_bound)))
    return found == expected


def verify_sporadic_tables(y_bound: int = 10 ** 4) -> List[SearchReport]:
    """One report per listed sporadic form, asserting at least the
    published N_F solutions are found within the bound."""
    reports = []
    seen = set()
    for F, disc, n_f in MANY_SOLUTIONS_TABLE + SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE:
        if F.coefficients in seen:
            continue
        seen.add(F.coefficients)
        assert F.discriminant() == disc, (F, disc)
        rep = thue_solutions_bruteforce(F, y_bound)
        reports.append(SearchReport(F, y_bound, rep.solutions,
                                    expected_min_count=n_f))
    return reports
