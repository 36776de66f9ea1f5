"""Bounded solution search for monic cubic Thue equations F(x,y)=1,
verification of the family theorem at small t, and the sporadic tables.

F(x,y) = (x - theta_1 y)(x - theta_2 y)(x - theta_3 y) over the roots of
F(x,1).  The search covers |y| <= Y in two ranges of y, split at a
threshold y0 that depends on the form:

- |y| < y0, the root-line scan.  F(x,y) = 1 forces some factor to have
  modulus at most 1: |x - theta y| <= 1 for a real root theta, and
  |x - Re(theta) y| <= 1 for a complex one.  Per y the scan tests the
  few integers x within 1 of theta y on each root line, found with
  integer floor and ceiling.
- y0 <= |y| <= Y, the convergents.  There a solution has
  |theta - x/y| < 1/(2 y^2) for a real root theta, so by Legendre's
  theorem x/y is a continued-fraction convergent p/q of theta.  A
  common divisor of x and y divides F(x,y) = 1, so (x, y) = +-(p, q)
  exactly; the search tests F(p, q) = +-1 for each convergent with
  y0 <= q <= Y.  This is the small-solution step of Thue solving
  (Tzanakis & de Weger 1989; Bilu & Hanrot 1996), and its cost is
  logarithmic in Y.

Both ranges read the same certified brackets of the real roots, found
once per form, each as integer numerators over one denominator.  y0
comes from exact rational bounds on those brackets, held as integer
pairs and compared by cross-multiplication (see `_threshold`), every
accepted (x, y) from an exact integer evaluation of F: no decision rests
on floating point, and no Fraction is formed.  The search computes the
form's discriminant once and hands it to its own steps that branch on
it (the threshold and the scan); the root isolation works it out from
the coefficients itself.  Completeness beyond |y| <= Y is NOT claimed;
reports carry an explicit bounded-verification caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

from .errors import VerificationFailedError
from .forms import BinaryCubicForm, family_form, known_solutions, monic_cubic
from .realnum import lockstep_expansion
from .roots import isolate_real_roots_monic_cubic

SPORADIC_Y_BOUND = 10 ** 4    # the |y| to which `verify_sporadic_tables` searches by default

# (form, discriminant, published solution count) for the positive-
# discriminant sporadic classes with N_F >= 6
MANY_SOLUTIONS_TABLE: Tuple[Tuple[BinaryCubicForm, int, int], ...] = (
    (BinaryCubicForm(1, -1, -2, 1), 49, 9),
    (BinaryCubicForm(1, 0, -3, 1), 81, 6),
    (BinaryCubicForm(1, 0, -4, 1), 229, 6),
    (BinaryCubicForm(1, 0, -5, 3), 257, 6),
    (BinaryCubicForm(1, 2, -5, 1), 361, 6),
)

# the paper's nine classes with N_F >= 5, read as a list by discriminant:
# eight have a discriminant no family member has, and the 810661 row is
# F_{3,-2} (and F_{4,2}) under a unimodular substitution; univariate rows
# homogenized by degree in y
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

    @property
    def count(self) -> int:
        return len(self.solutions)

    @property
    def matches_expected(self) -> bool:
        return self.expected_min_count is None or self.count >= self.expected_min_count

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "form": self.form.to_json(),
            "y_bound": self.y_bound,
            "count": self.count,
            "solutions": [list(s) for s in self.solutions],
            "expected_min_count": self.expected_min_count,
            "matches_expected": self.matches_expected,
            "bounded_verification": True,
        }


def _brackets(F: BinaryCubicForm, y_bound: int) -> List[Tuple[int, int, int]]:
    """Certified brackets (N0, N1, M) of [N0/M, N1/M], in increasing
    order, of the real roots of P = F(x, 1), each so narrow that
    `lockstep_expansion` settles every convergent of an irrational root
    up to y_bound.

    The width is 1/W, W = 8 L Y^3 + 2 with Y = max(y_bound, 1), where
    K = 1 + max(|b|, |c|, |d|) is the Cauchy bound, within which every
    bracket lies, and L = 3 K^2 + 2|b| K + |c| bounds |P'| on [-K, K].
    Let p/q (q >= 1) be a rational in the bracket of an irrational root
    theta.  The rational roots of the monic P are integers, and the
    search expands no bracket that holds one, so q^3 P(p/q) is a nonzero
    integer; with the mean value theorem,
    1/q^3 <= |P(p/q)| <= L |p/q - theta|.  The expansion raises only at
    a rational in the bracket with denominator at most
    q_n + q_(n-1) <= 2Y: where the endpoints part, the one whose
    complete quotient there is the lower endpoint's plus 1, and where
    one endpoint's expansion ends, that endpoint.  Such a rational lies
    at least 1/(8 L Y^3) from theta, farther than the bracket is wide,
    so there is none."""
    _, b, c, d = F.coefficients
    K = 1 + max(abs(b), abs(c), abs(d))
    L = 3 * K * K + 2 * abs(b) * K + abs(c)
    return isolate_real_roots_monic_cubic(b, c, d, 1, 8 * L * max(y_bound, 1) ** 3 + 2)


def _threshold(F: BinaryCubicForm, brackets: List[Tuple[int, int, int]],
               y_bound: int, disc: int) -> int:
    """y0 <= y_bound + 1 such that every solution of F(x,y) = 1 with
    |y| >= y0 has |theta - x/y| < 1/(2 y^2) for a real root theta; disc
    is F's discriminant.

    Three real roots: let g > 0 bound the gaps between the roots from
    below.  Take theta_i nearest x/y; each other factor of F(x,y) has
    |x - theta_j y| >= g|y| - 1, so |x - theta_i y| <= 1/(g|y| - 1)^2
    and |theta_i - x/y| < 1/(2 y^2) once (g|y| - 1)^2 > 2|y| with
    g|y| > 1.  The least such y solves it for every larger y too: there
    g (g y - 1) > 2, so (g y - 1)^2 - 2y increases.

    One real root r: the complex pair theta', conj(theta') has
    |x - theta' y| >= |Im theta'| |y|, so |r - x/y| <= 1/(Im^2 theta' |y|^3),
    below 1/(2 y^2) once |y| > 2/Im^2 theta'.  By Vieta,
    Im^2 theta' = (3r^2 + 2br + 4c - b^2)/4, a convex parabola in r whose
    least value m over r's bracket gives y0 = floor(2/m) + 1.

    Both bounds hold for an integer root too: there they leave no
    solution at all near it, since x - theta y is then a nonzero integer.
    g and m are held as integer pairs (numerator, positive denominator)
    and compared by cross-multiplication.

    A triple root (the search solves a double root with
    `_double_root_solutions`), or a bound that is not positive, leaves
    y0 = y_bound + 1: the root-line scan then covers every y."""
    _, b, c, d = F.coefficients
    if disc == 0:
        return y_bound + 1
    if disc > 0:
        # g = n/m: the least gap lo/ld - hi/hd between adjacent brackets,
        # from n/m = 1/0, above every gap
        n, m = 1, 0
        for (_, hi, hd), (lo, _, ld) in zip(brackets, brackets[1:]):
            gn, gm = lo * hd - hi * ld, ld * hd
            if gn * m < n * gm:
                n, m = gn, gm
        if n <= 0:
            return y_bound + 1
        # y > ((g + 1) + sqrt(2g + 1)) / g^2, from below in integers: the
        # start is at most that bound, so the first y that holds is the
        # least; g y > 1 and (g y - 1)^2 > 2y, times m and m^2
        y0 = max(1, m * (n + m + math.isqrt(m * (2 * n + m))) // (n * n))
        while not (n * y0 > m and (n * y0 - m) ** 2 > 2 * y0 * m * m):
            y0 += 1
    else:
        (N0, N1, M), = brackets
        if 3 * N0 <= -b * M <= 3 * N1:
            # the vertex -b/3 lies in the bracket: m = c - b^2/3
            num, den = 3 * c - b * b, 3
        else:
            # Im^2 at r = N/M, times 4 M^2
            num = min(3 * N * N + 2 * b * N * M + (4 * c - b * b) * M * M
                      for N in (N0, N1))
            den = 4 * M * M
        if num <= 0:
            return y_bound + 1
        y0 = 2 * den // num + 1
    return min(y0, y_bound + 1)


def _double_root_solutions(b: int, c: int, d: int,
                           y_bound: int) -> Set[Tuple[int, int]]:
    """Solutions with |y| <= y_bound of x^3 + b x^2 y + c x y^2 + d y^3 = 1
    when the form is (x - r y)^2 (x - s y) with r != s, that is, a zero
    discriminant and b^2 != 3c.  The double root r = (9d - bc) / (2(b^2 - 3c))
    and s = -b - 2r are integers, and the positive square (x - r y)^2 divides
    1, so x - r y = +-1 and x - s y = 1.  Then (r - s) y is 0 or 2: the
    solution (1, 0), and a second one when r - s divides 2."""
    r = (9 * d - b * c) // (2 * (b * b - 3 * c))
    s = -b - 2 * r
    sols = {(1, 0)}
    if 2 % (r - s) == 0 and abs(2 // (r - s)) <= y_bound:
        y = 2 // (r - s)
        sols.add((1 + s * y, y))
    return sols


def _scan(F: BinaryCubicForm, brackets: List[Tuple[int, int, int]],
          y_max: int, disc: int) -> Set[Tuple[int, int]]:
    """Solutions with |y| <= y_max, from the integers within 1 of each
    root line: the real roots in `brackets` (each at most
    1/(2 y_max + 2) wide) and, when the other two roots are complex
    (disc, F's discriminant, is negative), their common real part."""
    _, b, c, d = F.coefficients
    lines = list(brackets)
    if disc < 0:
        # the real parts of the pair sum with the real root to -b
        (N0, N1, M), = brackets
        lines.append((-b * M - N1, -b * M - N0, 2 * M))
    sols = set()
    for y in range(-y_max, y_max + 1):
        by, cy, dy = b * y, c * y * y, d * y ** 3
        for lo, hi, q in lines:
            # theta*y lies in [u/q, v/q], and x within 1 of it
            u, v = (lo * y, hi * y) if y >= 0 else (hi * y, lo * y)
            for x in range(-(-u // q) - 1, v // q + 2):
                if monic_cubic(by, cy, dy, x) == 1:
                    sols.add((x, y))
    return sols


def thue_solutions_bruteforce(F: BinaryCubicForm, y_bound: int) -> SearchReport:
    """All integer solutions of F(x,y)=1 with |y| <= y_bound; the form
    must be monic in x.  The root-line scan covers |y| < y0, and the
    convergents of each real root cover y0 <= |y| <= y_bound; a double
    root beside a simple one is solved in closed form."""
    if F.a != 1:
        raise ValueError("search requires leading coefficient 1")
    if y_bound < 0:
        raise ValueError("y_bound must be >= 0")
    _, b, c, d = F.coefficients
    disc = F.discriminant()
    if disc == 0 and b * b != 3 * c:
        return SearchReport(F, y_bound, tuple(sorted(_double_root_solutions(
            b, c, d, y_bound))))
    brackets = _brackets(F, y_bound)
    y0 = _threshold(F, brackets, y_bound, disc)
    sols = _scan(F, brackets, y0 - 1, disc)
    if y0 <= y_bound:
        for lo, hi, m in brackets:
            # from y0 on, |x - r y| < 1 for the root r nearest x/y; for an
            # integer r, x - r y is a nonzero integer, so r has no solution
            if any(monic_cubic(b, c, d, n) == 0
                   for n in range(-(-lo // m), hi // m + 1)):
                continue
            for cv in lockstep_expansion(lo, m, hi, m, y_bound):
                if cv.q >= y0:
                    # F(-p, -q) = -F(p, q)
                    value = F(cv.p, cv.q)
                    if value in (1, -1):
                        sols.add((value * cv.p, value * cv.q))
    return SearchReport(F, y_bound, tuple(sorted(sols)))


def verify_theorem(t: int, y_bound: int) -> bool:
    """True iff the bounded search finds exactly the published solution
    set of F_{3,t}(x,y)=1 restricted to |y| <= y_bound."""
    F = family_form(3, t)
    found = thue_solutions_bruteforce(F, y_bound).solutions
    expected = tuple(sorted(known_solutions(t).restricted(y_bound)))
    return found == expected


def verify_sporadic_tables(y_bound: int = SPORADIC_Y_BOUND) -> List[SearchReport]:
    """One report per listed sporadic form, asserting at least the
    published N_F solutions are found within the bound."""
    reports, seen = [], set()
    for F, disc, n_f in MANY_SOLUTIONS_TABLE + SPORADIC_CLASSES_TABLE + DELONE_NAGELL_TABLE:
        if F.coefficients in seen:
            continue
        seen.add(F.coefficients)
        if F.discriminant() != disc:
            raise VerificationFailedError(
                "table row %s lists discriminant %d, the form has %d"
                % (F, disc, F.discriminant()))
        rep = thue_solutions_bruteforce(F, y_bound)
        reports.append(SearchReport(F, y_bound, rep.solutions,
                                    expected_min_count=n_f))
    return reports
