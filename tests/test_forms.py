import random

import pytest

from cubicthue.forms import BinaryCubicForm, family_form, known_solutions
from oracles import apply_gl2, family_discriminant_poly

SWAP = ((0, 1), (1, 0))
# generators of GL2(Z), each with its inverse
INVERSE = {((1, 1), (0, 1)): ((1, -1), (0, 1)), ((1, 0), (1, 1)): ((1, 0), (-1, 1)),
           SWAP: SWAP, ((-1, 0), (0, 1)): ((-1, 0), (0, 1))}


def test_evaluate_leading_coefficient():
    for t in (-5, 0, 3, 1000):
        assert family_form(3, t)(1, 0) == 1


def test_evaluate_published_extra_solution():
    F = family_form(3, -1)
    assert F == BinaryCubicForm(1, -2, -3, 1)
    assert F(6, -5) == 1


def test_evaluate_type_one_solution_t2():
    F = family_form(3, 2)
    assert F == BinaryCubicForm(1, -14, 24, 1)
    assert F(-7, 172) == 1


def test_discriminant_table_normalization():
    assert BinaryCubicForm(1, -1, -2, 1).discriminant() == 49
    assert BinaryCubicForm(1, 0, 0, 0).discriminant() == 0


def test_discriminant_family_polynomial():
    for t in range(-100, 101):
        assert family_form(3, t).discriminant() == family_discriminant_poly(t)


def test_discriminant_sign_over_family():
    for t in range(-100, 101):
        d = family_form(3, t).discriminant()
        if t in (0, 1):
            assert d <= 0
        else:
            assert d > 0


def test_family_form_instantiation():
    assert family_form(3, 2) == BinaryCubicForm(1, -14, 24, 1)
    assert family_form(1, 0) == BinaryCubicForm(1, -1, 0, 1)
    assert family_form(4, 1) == BinaryCubicForm(1, -5, 4, 1)


def test_family_form_rejects_bad_index():
    with pytest.raises(ValueError):
        family_form(5, 1)


def test_known_solutions_t2():
    assert set(known_solutions(2).solutions) == {
        (1, 0), (0, 1), (2, 1), (12, 1), (-7, 172)}


def test_known_solutions_t_minus_one():
    assert set(known_solutions(-1).solutions) == {
        (1, 0), (0, 1), (-1, 1), (3, 1), (2, 7), (6, -5)}


def test_known_solutions_always_evaluate_to_one():
    # known_solutions itself asserts F=1 for each member
    for t in range(-1000, 1001):
        sols = known_solutions(t)
        assert len(sols) >= 2


def test_known_solutions_degenerate_dedup():
    # at t=0: (t,1)=(0,1) and (t^4-2t,1)=(0,1) collapse, and so do (1,0)
    # and (1-t^3, t^8-3t^5+3t^2) = (1,0)
    assert known_solutions(0).solutions == ((0, 1), (1, 0))
    # at t=1: (1-t^3, t^8-3t^5+3t^2) = (0,1) collapses, and (4,-3) joins:
    # F_{3,1} = x^3 - xy^2 + y^3 is the discriminant -23 form, N_F = 5
    assert known_solutions(1).solutions == ((-1, 1), (0, 1), (1, 0), (1, 1), (4, -3))


def test_apply_gl2_family_identity():
    M = lambda t: ((1, -t), (0, 1))
    for t in range(-20, 21):
        assert apply_gl2(family_form(3, -t), M(t)) == family_form(4, t)


def test_apply_gl2_identity_matrix():
    F = BinaryCubicForm(1, 2, -5, 1)
    assert apply_gl2(F, ((1, 0), (0, 1))) == F


def test_apply_gl2_family1_swap_shift():
    for t in range(-15, 16):
        assert apply_gl2(family_form(1, -t), SWAP) == family_form(1, t - 1)


def test_apply_gl2_rejects_non_unimodular():
    with pytest.raises(ValueError):
        apply_gl2(family_form(3, 2), ((2, 0), (0, 1)))


def test_apply_gl2_composes():
    # F(M N X): M applied first, then N, is the product M N
    F = family_form(3, 3)
    M, N = ((1, 1), (0, 1)), ((1, 0), (1, 1))
    assert apply_gl2(apply_gl2(F, M), N) == apply_gl2(F, ((2, 1), (1, 1)))
    assert apply_gl2(apply_gl2(F, N), M) == apply_gl2(F, ((1, 1), (1, 2)))
    # a random word, then its inverse, gives F back
    rng = random.Random(1)
    for _ in range(200):
        word = [rng.choice(list(INVERSE)) for _ in range(rng.randrange(1, 7))]
        G = F
        for step in word + [INVERSE[M] for M in reversed(word)]:
            G = apply_gl2(G, step)
        assert G == F


def test_discriminant_gl2_invariant():
    rng = random.Random(2)
    mats = list(INVERSE) + [((1, -2), (0, 1))]
    for t in (-7, -1, 2, 5):
        F = G = family_form(3, t)
        for _ in range(6):
            G = apply_gl2(G, rng.choice(mats))
            assert G.discriminant() == F.discriminant()


def test_gl2_search_cross_family_equivalences():
    # witnesses a bounded search over GL2(Z) found: F_{2,0} is F_{3,0},
    # and a shear takes F_{1,4} to F_{3,-1}
    assert apply_gl2(family_form(2, 0), ((1, 0), (0, 1))) == family_form(3, 0)
    assert apply_gl2(family_form(1, 4), ((1, 1), (0, 1))) == family_form(3, -1)


def test_form_json_roundtrip():
    F = BinaryCubicForm(1, 9, -12, -21)
    assert BinaryCubicForm(**F.to_json()) == F


def test_solution_set_restriction():
    sols = known_solutions(2)
    assert (-7, 172) in sols
    assert (-7, 172) not in sols.restricted(100)
    assert (2, 1) in sols.restricted(100)
