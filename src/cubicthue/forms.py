"""Integer binary cubic forms, the parametric families and their known
solution sets.  Everything here is exact integer arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import VerificationFailedError

@dataclass(frozen=True)
class BinaryCubicForm:
    """a*x^3 + b*x^2*y + c*x*y^2 + d*y^3 with integer coefficients."""

    a: int
    b: int
    c: int
    d: int

    def __call__(self, x: int, y: int) -> int:
        return ((self.a * x + self.b * y) * x + self.c * y * y) * x + self.d * y ** 3

    @property
    def coefficients(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def discriminant(self) -> int:
        a, b, c, d = self.coefficients
        return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * a * c ** 3 - 27 * a * a * d * d)

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def __str__(self):
        return "(%d)x^3 + (%d)x^2y + (%d)xy^2 + (%d)y^3" % self.coefficients


@dataclass(frozen=True)
class SolutionSet:
    t: int
    solutions: Tuple[Tuple[int, int], ...]

    def restricted(self, y_bound: int) -> Tuple[Tuple[int, int], ...]:
        return tuple(s for s in self.solutions if abs(s[1]) <= y_bound)

    def __contains__(self, pair):
        return tuple(pair) in self.solutions

    def __len__(self):
        return len(self.solutions)


def monic_cubic(b: int, c: int, d: int, x: int) -> int:
    """x^3 + b x^2 + c x + d, exactly."""
    return ((x + b) * x + c) * x + d


def family_form(index: int, t: int) -> BinaryCubicForm:
    if index == 1:
        return BinaryCubicForm(1, -(t + 1), t, 1)
    if index == 2:
        return BinaryCubicForm(1, 0, -t * t, 1)
    if index == 3:
        return BinaryCubicForm(1, -(t ** 4 - t), t ** 5 - 2 * t * t, 1)
    if index == 4:
        return BinaryCubicForm(1, -(t ** 4 + 4 * t), t ** 5 + 3 * t * t, 1)
    raise ValueError("family index must be 1..4")


def known_solutions(t: int) -> SolutionSet:
    """The published solution list of F_{3,t}(x,y)=1 (degenerate
    duplicates at t in {0,1} removed; the extra pair (6,-5) appears at
    t=-1, and (4,-3) at t=1, where F_{3,1} = x^3 - x y^2 + y^3 is the
    discriminant -23 form with five solutions).  The README's coverage
    says at which t the engine checks it, and how; not below t = -30."""
    sols = [
        (1, 0),
        (0, 1),
        (t, 1),
        (t ** 4 - 2 * t, 1),
        (1 - t ** 3, t ** 8 - 3 * t ** 5 + 3 * t * t),
    ]
    if t == -1:
        sols.append((6, -5))
    elif t == 1:
        sols.append((4, -3))
    F = family_form(3, t)
    uniq = sorted(set(sols))
    for (x, y) in uniq:
        if F(x, y) != 1:
            raise VerificationFailedError(
                "(%d, %d) is not a solution at t=%d" % (x, y, t))
    return SolutionSet(t, tuple(uniq))

