"""The programs a Farkas witness names, defined once as integer rows.

``arbitrage_rows`` and ``martingale_mass_rows`` read the ``arbitrage``
and ``min-mass`` programs off a space's kept integer basis rows;
``arbitrage_lp`` and ``martingale_mass_lp`` wrap those rows in a
``LinearProgram`` that keeps them as the integer form the solver reads.  These tests pin both forms to the
``Fraction`` definitions they replaced, and pin validation of these
programs' Farkas and dual rows to the integer form alone.
"""

from fractions import Fraction as F

import pytest

import famart.lp
from famart import checkers, programs
from famart.certificates import validate_verdict
from famart.core import ZERO, InvalidInput, LinSpace, Model, RandVar
from famart.lp import EQ, GE, IntProgram, LinearProgram
from famart.spaces import (
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
    trading_space,
)


def _reference_arbitrage_lp(m, ls):
    """The ``Fraction`` definition of the arbitrage program."""
    support = m.support()
    rows = [(tuple(x.at(c) for x in ls.basis), GE, ZERO) for c in support]
    total = tuple(sum((x.at(c) for c in support), ZERO) for x in ls.basis)
    rows.append((total, GE, F(1)))
    return LinearProgram((ZERO,) * len(ls.basis), True, rows)


def _reference_martingale_mass_lp(m, ls):
    """The ``Fraction`` definition of the min-mass program."""
    support = m.support()
    ns = len(support)
    rows = [((F(1),) * ns + (F(ns),), EQ, F(1))]
    for x in ls.basis:
        vals = [x.at(c) for c in support]
        rows.append((tuple(vals + [sum(vals, ZERO)]), EQ, ZERO))
    return LinearProgram(
        (ZERO,) * ns + (F(1),), True, rows, (ZERO,) * ns + (None,), (None,) * (ns + 1)
    )


PROGRAMS = [
    (programs.arbitrage_rows, programs.arbitrage_lp, _reference_arbitrage_lp),
    (programs.martingale_mass_rows, programs.martingale_mass_lp, _reference_martingale_mass_lp),
]


def _models():
    for seed in range(400):
        yield random_finite_model(seed)
    for n in (5, 8, 40):
        m, f, s, _q = example_bp(n, n - 2)
        yield m, trading_space(f, s, m)
    for n in (2, 3, 4, 5):
        m, f, s = example_dmw(F(1, 3), n)
        yield m, trading_space(f, s, m)
    yield example_harmonic(5)


def _values(p: IntProgram):
    """Every entry of an integer program as a rational, row by row."""

    def q(xs):
        return tuple(None if x is None else F(x, p.den) for x in xs)

    return [q(row) for row in p.rows], p.relations, q(p.costs), q(p.lower), q(p.upper)


def _lp_values(lp: LinearProgram):
    rows = [(*con.coeffs, con.rhs) for con in lp.constraints]
    relations = tuple(con.relation for con in lp.constraints)
    return rows, relations, lp.objective, lp.lower, lp.upper


def test_integer_rows_equal_their_linear_program_row_for_row():
    checked = 0
    for m, ls in _models():
        for rows_of, lp_of, reference_of in PROGRAMS:
            p = rows_of(m, ls)
            lp = lp_of(m, ls)
            assert p.den > 0
            assert _values(p) == _lp_values(lp)
            assert lp == reference_of(m, ls)
            assert lp.int_form() == p
            assert _values(reference_of(m, ls).int_form()) == _values(p)
            checked += 1
    assert checked == 2 * 408


def test_the_wrapper_keeps_its_rows_and_shares_equal_values():
    m, f, s = example_dmw(F(1, 3), 3)
    ls = trading_space(f, s, m)
    lp = programs.martingale_mass_lp(m, ls)
    assert lp.int_form() is lp.int_form()
    # Equal numerators share one Fraction: the mass row's ones are one object.
    ones = lp.constraints[0].coeffs[:-1]
    assert all(one is ones[0] for one in ones)
    # The kept form is not a field: a program built afresh from the fields
    # is equal and reads an equal integer form of its own.
    fresh = LinearProgram(lp.objective, lp.maximize, lp.constraints, lp.lower, lp.upper)
    assert fresh == lp and hash(fresh) == hash(lp) and repr(fresh) == repr(lp)
    assert _values(fresh.int_form()) == _values(lp.int_form())


def test_a_space_that_does_not_fit_builds_no_program():
    m = Model((F(1, 2), F(1, 2)))
    ls = LinSpace((RandVar((F(1), F(-1)), F(0)),))
    for rows_of, _lp_of, _reference_of in PROGRAMS:
        with pytest.raises(InvalidInput):
            rows_of(m, ls)


def test_a_space_checked_against_another_shape_still_fails():
    ls = LinSpace((RandVar((F(1), F(-1))),))
    fits = Model((F(1, 2), F(1, 2)))
    ls.check_conforms(fits)
    for other in (Model((F(1, 3),) * 3), Model((F(1, 2), F(1, 4)), F(1, 4)), Model((F(1),))):
        with pytest.raises(InvalidInput):
            ls.check_conforms(other)
    ls.check_conforms(Model((F(1, 4), F(3, 4))))  # another model of the same shape
    empty = LinSpace(())
    for m in (fits, Model((F(1, 2), F(1, 4)), F(1, 4))):
        empty.check_conforms(m)


def _farkas_verdicts():
    """(model, space, verdict) for a Farkas or dual row of each program
    and claim a checker emits."""
    m, f, s, _q = example_bp(8, 4)
    ls = trading_space(f, s, m)
    yield m, ls, checkers.check_no_arbitrage(m, ls)  # arbitrage, infeasible
    m, ls = example_harmonic(5)
    yield m, ls, checkers.find_emfap(m, ls)  # min-mass, max_at_most
    for seed in (0, 5, 7):
        m, ls = random_finite_model(seed)
        yield m, ls, checkers.find_emfap(m, ls)
        yield m, ls, checkers.check_no_arbitrage(m, ls)


def test_validating_farkas_rows_builds_no_linear_program(monkeypatch):
    cases = []
    for m, ls, verdict in _farkas_verdicts():
        cert = verdict.certificate
        if cert["kind"] == "farkas_witness":
            cases.append((m, ls, verdict.to_dict()))
    kinds = {(v["certificate"]["lp"], v["certificate"]["claim"]) for _, _, v in cases}
    assert kinds == {
        ("arbitrage", "infeasible"),
        ("min-mass", "infeasible"),
        ("min-mass", "max_at_most"),
    }

    def refuse(self, *args, **kwargs):
        raise AssertionError("validation built a LinearProgram")

    monkeypatch.setattr(famart.lp.LinearProgram, "__init__", refuse)
    for m, ls, verdict in cases:
        # Fresh records: nothing kept from the checker's run.
        m, ls = Model(m.p0_mass, m.p0_tail), LinSpace(ls.basis)
        assert validate_verdict(m, ls, verdict)
        weights = verdict["certificate"]["weights"]
        tampered = dict(weights=[*weights[:-1], str(F(weights[-1]) + 1)])
        cert = dict(verdict["certificate"], **tampered)
        assert not validate_verdict(m, ls, dict(verdict, certificate=cert))

