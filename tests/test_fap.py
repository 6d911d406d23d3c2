"""Finitely additive probabilities and their decomposition."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famart.core import InvalidInput, Model, RandVar, expect
from famart.examples import example_bp
from famart.fap import (
    Fap,
    from_p0,
    is_abs_continuous,
    is_equivalent,
    is_pure,
    point_mass,
    yh_decompose,
)


def test_fap_invariants():
    Fap(F(0), (F(1, 2), F(1, 2)))
    Fap(F(1, 2), (F(1, 2), F(1, 4)), F(1, 4))
    with pytest.raises(InvalidInput):
        Fap(F(0), (F(1, 2), F(1, 3)))
    with pytest.raises(InvalidInput):
        Fap(F(2), (F(1),), F(0))
    with pytest.raises(InvalidInput):
        Fap(F(1, 2), (F(1),))  # pure part without a tail state
    with pytest.raises(InvalidInput):
        Fap(F(0), (F(-1, 2), F(3, 2)))


def test_yh_decompose_degenerate_ends():
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    q = Fap(F(0), (F(1, 2), F(1, 4)), F(1, 4))
    alpha, pure, ca = yh_decompose(q)
    assert alpha == 0 and pure is None and ca == q

    p1 = Fap(F(1), (F(0), F(0)), F(1))
    alpha, pure, ca = yh_decompose(p1)
    assert alpha == 1 and ca is None and pure == p1


def test_yh_decompose_bp_even_mix():
    # The half-and-half mix of the comparison pmf and the tail functional.
    m, _, _, q = example_bp(3, 1)
    p = Fap(F(1, 2), q.ca_mass, q.ca_tail)
    alpha, pure, ca = yh_decompose(p)
    assert alpha == F(1, 2)
    assert ca == Fap(F(0), q.ca_mass, q.ca_tail)
    assert is_pure(pure, m)
    # Mixing reproduces the functional on an arbitrary random variable.
    x = RandVar((F(5), F(-3), F(1, 7)), F(2))
    assert expect(p, x) == alpha * expect(pure, x) + (1 - alpha) * expect(ca, x)
    assert is_equivalent(p, m)


def test_is_pure():
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    assert is_pure(Fap(F(1), (F(0), F(0)), F(1)), m)
    assert not is_pure(Fap(F(0), (F(1, 2), F(1, 2)), F(0)), m)
    assert not is_pure(Fap(F(1, 2), (F(1, 2), F(1, 2)), F(0)), m)


def test_pure_charges_no_explicit_state():
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    p = Fap(F(1), (F(0), F(0)), F(1))
    for i in range(m.n_states):
        indicator = RandVar(
            tuple(F(1) if j == i else F(0) for j in range(m.n_states)), F(0)
        )
        assert expect(p, indicator) == 0


def test_is_abs_continuous():
    m = Model((F(1, 2), F(1, 2)))
    assert is_abs_continuous(Fap(F(0), (F(1), F(0))), m)
    m2 = Model((F(1), F(0)))
    assert not is_abs_continuous(Fap(F(0), (F(0), F(1))), m2)
    # Tail sets are null here, so a pure part is not absolutely continuous.
    m3 = Model((F(1, 2), F(1, 2)), F(0))
    assert not is_abs_continuous(Fap(F(1, 2), (F(1, 2), F(1, 2)), F(0)), m3)
    assert is_abs_continuous(Fap(F(0), (F(1, 4), F(3, 4)), F(0)), m3)


def test_is_equivalent():
    m = Model((F(1, 2), F(1, 2)))
    assert is_equivalent(Fap(F(0), (F(1, 4), F(3, 4))), m)
    assert not is_equivalent(Fap(F(0), (F(1), F(0))), m)
    m3, _, _, q = example_bp(3, 1)
    p = Fap(F(1, 2), q.ca_mass, q.ca_tail)
    assert is_equivalent(p, m3)
    assert not is_equivalent(Fap(F(1), (F(0),) * 3, F(1)), m3)  # alpha = 1


def test_equivalent_implies_abs_continuous_and_alpha_below_one():
    m, _, _, q = example_bp(4, 1)
    for alpha in (F(0), F(1, 3), F(9, 10)):
        p = Fap(alpha, q.ca_mass, q.ca_tail)
        assert is_equivalent(p, m)
        assert is_abs_continuous(p, m)
        assert p.alpha < 1


def test_from_p0_and_point_mass():
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    p0 = from_p0(m)
    assert is_equivalent(p0, m)
    d = point_mass(m, 1)
    assert expect(d, RandVar((F(3), F(5)), F(7))) == F(5)
    from famart.core import TAIL

    dt = point_mass(m, TAIL)
    assert expect(dt, RandVar((F(3), F(5)), F(7))) == F(7)


@st.composite
def _tail_model_fap(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    weights = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    tail_w = draw(st.integers(0, 5))
    if sum(weights) + tail_w == 0:
        tail_w = 1
    total = sum(weights) + tail_w
    masses = tuple(F(w, total) for w in weights)
    alpha = draw(st.fractions(min_value=F(0), max_value=F(1), max_denominator=8))
    return Fap(alpha, masses, F(tail_w, total)), n


@given(_tail_model_fap())
@settings(max_examples=60, deadline=None)
def test_decomposition_consistency(fap_n):
    p, n = fap_n
    alpha, pure, ca = yh_decompose(p)
    xs = [
        RandVar(tuple(F(i + k, 3) for i in range(n)), F(k, 2)) for k in range(3)
    ]
    for x in xs:
        mix = (alpha * expect(pure, x) if pure else F(0)) + (
            (1 - alpha) * expect(ca, x) if ca else F(0)
        )
        assert expect(p, x) == mix
