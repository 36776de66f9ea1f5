"""Integer binary cubic forms, the parametric families, their known
solution sets, and GL2(Z) actions.  Everything here is exact integer
arithmetic."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import VerificationFailedError

Matrix = Tuple[Tuple[int, int], Tuple[int, int]]


@dataclass(frozen=True)
class BinaryCubicForm:
    """a*x^3 + b*x^2*y + c*x*y^2 + d*y^3 with integer coefficients."""

    a: int
    b: int
    c: int
    d: int

    def __call__(self, x: int, y: int) -> int:
        return evaluate(self, x, y)

    @property
    def coefficients(self) -> Tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def discriminant(self) -> int:
        return discriminant(self)

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


def evaluate(F: BinaryCubicForm, x: int, y: int) -> int:
    return ((F.a * x + F.b * y) * x + F.c * y * y) * x + F.d * y ** 3


def monic_cubic(b: int, c: int, d: int, x: int) -> int:
    """x^3 + b x^2 + c x + d, exactly."""
    return ((x + b) * x + c) * x + d


def discriminant(F: BinaryCubicForm) -> int:
    a, b, c, d = F.coefficients
    return (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
            - 4 * a * c ** 3 - 27 * a * a * d * d)


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


def family_discriminant_poly(t: int) -> int:
    """The closed form of disc(F_{3,t}) as a polynomial in t."""
    return (t ** 18 - 10 * t ** 15 + 41 * t ** 12 - 90 * t ** 9
            + 102 * t ** 6 - 40 * t ** 3 - 27)


def known_solutions(t: int) -> SolutionSet:
    """The complete solution set of F_{3,t}(x,y)=1 (degenerate duplicates
    at t in {0,1} removed; the extra pair (6,-5) appears at t=-1, and
    (4,-3) at t=1, where F_{3,1} = x^3 - x y^2 + y^3 is the discriminant
    -23 form with five solutions)."""
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
        if evaluate(F, x, y) != 1:
            raise VerificationFailedError(
                "(%d, %d) is not a solution at t=%d" % (x, y, t))
    return SolutionSet(t, tuple(uniq))


def _det(M: Matrix) -> int:
    return M[0][0] * M[1][1] - M[0][1] * M[1][0]


def apply_gl2(F: BinaryCubicForm, M: Matrix) -> BinaryCubicForm:
    """Coefficients of G(x, y) = F(m11*x + m12*y, m21*x + m22*y); M must
    be unimodular.  They come from four exact values of G: G(1, 0) and
    G(0, 1) are the outer coefficients, and G(1, 1) and G(1, -1) give the
    sum and the difference of the inner two."""
    if _det(M) not in (1, -1):
        raise ValueError("matrix must have determinant +-1, got %d" % _det(M))
    (m11, m12), (m21, m22) = M
    a, d = F(m11, m21), F(m12, m22)
    b_plus_c = F(m11 + m12, m21 + m22) - a - d
    c_minus_b = F(m11 - m12, m21 - m22) - a + d
    return BinaryCubicForm(a, (b_plus_c - c_minus_b) // 2, (b_plus_c + c_minus_b) // 2, d)
