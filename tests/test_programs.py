"""The programs read off integer basis rows, each defined once.

``arbitrage_rows`` and ``martingale_mass_rows`` read the ``arbitrage``
and ``min-mass`` programs off a space's kept integer basis rows, and
``ratio_bound_rows`` reads the (5) ratio programs off them;
``arbitrage_lp``, ``martingale_mass_lp`` and ``ratio_bound_lp`` wrap
those rows in a ``LinearProgram`` view that keeps them as the integer
form the solver reads.  ``coherence_lp`` and ``expectation_bound_lp``
build integer rows and return such a view too.  These tests pin both
forms to the ``Fraction`` definitions they replaced, pin a view to the
record built from its fields, and pin validation of the Farkas and dual
rows of the programs a witness names to the integer form alone.
"""

import copy
import pickle
from fractions import Fraction as F
from functools import partial

import pytest

import famart.lp
from famart import checkers, programs
from famart.certificates import validate_verdict
from famart.core import ZERO, InvalidInput, LinSpace, Model, RandVar, expect
from famart.examples import (
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
    random_tree_model,
)
from famart.fap import from_p0
from famart.lp import (
    EQ,
    GE,
    LE,
    Infeasible,
    IntProgram,
    LinearProgram,
    Optimal,
    Unbounded,
    _View,
)
from famart.modelio import build_report, parse_model
from famart.spaces import trading_space

from references import fuzz_corpus
from references import ratio_bound_lp as _reference_ratio_bound_lp


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
    (programs.arbitrage_rows, famart.lp.arbitrage_lp, _reference_arbitrage_lp),
    (programs.martingale_mass_rows, famart.lp.martingale_mass_lp, _reference_martingale_mass_lp),
]


def _programs(m):
    """:data:`PROGRAMS`, then the ratio program at every support coordinate."""
    yield from PROGRAMS
    for c in m.support():
        yield (
            partial(programs.ratio_bound_rows, coord=c),
            partial(famart.lp.ratio_bound_lp, coord=c),
            partial(_reference_ratio_bound_lp, coord=c),
        )


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
        for rows_of, lp_of, reference_of in _programs(m):
            p = rows_of(m, ls)
            lp = lp_of(m, ls)
            assert p.den > 0
            assert _values(p) == _lp_values(lp)
            assert lp == reference_of(m, ls)
            assert lp.int_form() == p
            assert _values(reference_of(m, ls).int_form()) == _values(p)
            checked += 1
    # Two programs per model, then one ratio program per support coordinate.
    assert checked == 2 * 408 + 1274


def test_linear_program_equals_the_validating_constructors_on_fuzz_programs():
    # linear_program() fills its records in without the constructors'
    # checks; on every (3) program of the fuzz corpus's shapes (up to 6
    # states and 4 gains) it must build the program they build.
    checked = 0
    for seed in range(600):
        m, ls = random_finite_model(seed, 6, 4)
        if not ls.basis:
            continue
        p = programs.martingale_mass_rows(m, ls)
        lp = p.linear_program()

        def q(n):
            return None if n is None else F(n, p.den)

        rows = [(tuple(map(q, row[:-1])), rel, q(row[-1])) for row, rel in zip(p.rows, p.relations)]
        checked_lp = LinearProgram(
            tuple(map(q, p.costs)), True, rows, tuple(map(q, p.lower)), tuple(map(q, p.upper))
        )
        assert lp == checked_lp and hash(lp) == hash(checked_lp) and repr(lp) == repr(checked_lp)
        assert all(type(c) is famart.lp.Constraint for c in lp.constraints)
        assert lp.int_form() is p
        checked += 1
    assert checked > 500


def test_the_wrapper_keeps_its_rows_and_shares_equal_values():
    m, f, s = example_dmw(F(1, 3), 3)
    ls = trading_space(f, s, m)
    lp = famart.lp.martingale_mass_lp(m, ls)
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
    for rows_of, _lp_of, _reference_of in _programs(m):
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
    m, ls = example_harmonic(5)
    yield m, ls, checkers.find_emfap(m, ls)  # min-mass, max_at_most
    for seed in (0, 5, 7):
        m, ls = random_finite_model(seed)
        yield m, ls, checkers.find_emfap(m, ls)


def test_validating_farkas_rows_builds_no_linear_program(monkeypatch):
    cases = []
    for m, ls, verdict in _farkas_verdicts():
        cert = verdict.certificate
        if cert["kind"] == "farkas_witness":
            cases.append((m, ls, verdict.to_dict()))
    kinds = {(v["certificate"]["lp"], v["certificate"]["claim"]) for _, _, v in cases}
    assert kinds == {
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


# --------------------------------------------------------------------------
# Views: a LinearProgram read off an IntProgram fills its fields on first read
# --------------------------------------------------------------------------


def _reference_coherence_lp(coords, gambles, previsions):
    """The ``Fraction`` definition of the representation program."""
    n = len(coords)
    rows = [((F(1),) * n, EQ, F(1))]
    for x, e in zip(gambles, previsions):
        rows.append((tuple(x.at(c) for c in coords), EQ, e))
    return LinearProgram((ZERO,) * n, True, rows, (ZERO,) * n, (None,) * n)


def _reference_expectation_bound_lp(m, ls, q, c):
    """The ``Fraction`` definition of the expectation-bound program."""
    rows = []
    for coord in m.support():
        row = tuple(x.at(coord) for x in ls.basis)
        rows.append(((*row, F(1)), GE, ZERO))
        rows.append(((*row, ZERO), LE, F(1)))
        rows.append(((*row, ZERO), GE, F(-1)))
    objective = [-c * expect(q, x) for x in ls.basis] + [F(1)]
    return LinearProgram(tuple(objective), False, rows)


def _reference_negative_gain_lp(m, ls):
    """The ``Fraction`` definition of the negative-gain program."""
    rows = [(tuple(x.at(c) for x in ls.basis), LE, F(-1)) for c in m.support()]
    return LinearProgram((ZERO,) * len(ls.basis), True, rows)


def _reference_event_dominance_lp(m, ls, previsions, event):
    """The ``Fraction`` definition of the event-dominance program."""
    rows = []
    for coord in sorted(event):
        rows.append(((*(x.at(coord) for x in ls.basis), F(-1)), LE, ZERO))
    for coord in m.support():
        row = tuple(x.at(coord) for x in ls.basis)
        rows.append(((*row, ZERO), LE, F(1)))
        rows.append(((*row, ZERO), GE, F(-1)))
    objective = [-e for e in previsions] + [F(1)]
    return LinearProgram(tuple(objective), False, rows)


def _events(m):
    """The support, the whole model and one coordinate, as events."""
    return frozenset(m.support()), frozenset(m.all_coords()), frozenset(m.all_coords()[-1:])


def _set_fields(lp):
    """The view fields of ``lp`` that hold a value, read without filling."""
    out = set()
    for name in LinearProgram._LAZY:
        try:
            getattr(LinearProgram, name).__get__(lp, LinearProgram)
        except AttributeError:
            continue
        out.add(name)
    return out


def _builders(m, ls):
    """(build a view, its Fraction definition, the integer program it
    keeps or None) for every builder that returns a view, on one model."""
    for rows_of, lp_of, reference_of in _programs(m):
        rows = rows_of(m, ls)
        yield partial(lp_of, m, ls), partial(reference_of, m, ls), None
        yield rows.linear_program, partial(reference_of, m, ls), rows
    if not ls.basis:
        return
    zeros = (ZERO,) * len(ls.basis)
    some = (F(1, 3),) + zeros[1:]
    for coords in (m.support(), programs.coherence_coords(m), m.all_coords()[:1]):
        for previsions in (zeros, some):
            args = coords, ls.basis, previsions
            yield (
                partial(famart.lp.coherence_lp, *args),
                partial(_reference_coherence_lp, *args),
                None,
            )
    for c in (F(1), F(1, 2)):
        args = m, ls, from_p0(m), c
        yield (
            partial(famart.lp.expectation_bound_lp, *args),
            partial(_reference_expectation_bound_lp, *args),
            None,
        )
    yield (
        partial(famart.lp.negative_gain_lp, m, ls),
        partial(_reference_negative_gain_lp, m, ls),
        None,
    )
    for event in _events(m):
        args = m, ls, some, event
        yield (
            partial(famart.lp.event_dominance_lp, *args),
            partial(_reference_event_dominance_lp, *args),
            None,
        )


def _check_view(view, eager, kept=None):
    """``view`` is an unfilled view behaving as the eager record ``eager``."""
    assert _set_fields(view) == set()
    p = view.int_form()
    assert type(p) is IntProgram and view.int_form() is p
    assert kept is None or p is kept
    assert _values(p) == _values(eager.int_form())
    assert _set_fields(view) == set()  # reading the integer form fills nothing
    assert view == eager and hash(view) == hash(eager) and repr(view) == repr(eager)
    assert _set_fields(view) == set(LinearProgram._LAZY)
    for again in (pickle.loads(pickle.dumps(view)), copy.copy(view), copy.deepcopy(view)):
        assert type(again) is LinearProgram and again == eager and repr(again) == repr(eager)


def test_a_view_is_the_record_of_its_fields_for_every_builder():
    checked = 0
    m, f, s, _q = example_bp(8, 4)
    models = [random_finite_model(seed) for seed in range(60)]
    models += [example_harmonic(5), (m, trading_space(f, s, m))]
    for m, ls in models:
        for build, reference, kept in _builders(m, ls):
            _check_view(build(), reference(), kept)
            for name in LinearProgram._LAZY:  # reading any one field fills all four
                view = build()
                getattr(view, name)
                assert _set_fields(view) == set(LinearProgram._LAZY)
            checked += 1
    assert checked > 1000


def test_negative_gain_and_event_dominance_programs_equal_their_fraction_definitions():
    # Both builders read the space's integer rows into an IntProgram and
    # return its view, as the others do; each is the program the
    # Fraction definition builds.
    checked = 0
    for seed in range(200):
        m, ls = random_finite_model(seed)
        assert famart.lp.negative_gain_lp(m, ls) == _reference_negative_gain_lp(m, ls)
        zeros = (ZERO,) * len(ls.basis)
        for previsions in (zeros, (F(-2, 3),) + zeros[1:], tuple(F(k, 5) for k in range(len(zeros)))):
            for event in _events(m):
                args = m, ls, previsions, event
                view = famart.lp.event_dominance_lp(*args)
                assert type(view.int_form()) is IntProgram
                assert view == _reference_event_dominance_lp(*args)
                checked += 1
    assert checked == 200 * 3 * 3


def test_the_tree_decision_solves_views_of_its_local_programs(monkeypatch):
    # The tree's local max-min programs are integer rows; the solver gets
    # an unfilled view of each, which behaves as the record of its fields.
    solved = []
    solve = checkers.solve

    def recording(lp):
        solved.append((lp, _set_fields(lp)))
        return solve(lp)

    monkeypatch.setattr(checkers, "solve", recording)
    for seed in range(100):
        m, f, s = random_tree_model(seed)
        checkers.tree_min_mass(m, trading_space(f, s, m))
    assert len(solved) > 20
    for lp, fields in solved:
        assert fields == set()
        eager = LinearProgram(lp.objective, lp.maximize, lp.constraints, lp.lower, lp.upper)
        assert lp.int_form() == eager.int_form()
        assert lp == eager and hash(lp) == hash(eager) and repr(lp) == repr(eager)
        assert pickle.loads(pickle.dumps(lp)) == eager


def test_a_report_of_the_fuzz_corpus_fills_no_view(monkeypatch):
    # Every program a report solves or validates is read in integers, so
    # no view builds its Fraction fields.
    fills = []
    fill = LinearProgram.__getattr__

    def counting(self, name):
        value = fill(self, name)
        fills.append(name)
        return value

    monkeypatch.setattr(LinearProgram, "__getattr__", counting)
    docs = list(fuzz_corpus())
    assert len(docs) == 288
    for doc in docs:
        build_report(parse_model(doc))
    assert fills == []
    # A check of explicit previsions solves a representation program,
    # through the memo, and fills no view either.
    m, ls = random_finite_model(7)
    some = (F(1, 3),) + (ZERO,) * (len(ls.basis) - 1)
    with checkers.solving_once():
        for _ in range(2):
            checkers.check_coherence(ls.basis, some, m)
    assert fills == []


def test_a_report_of_the_fuzz_corpus_fills_no_outcome_view(monkeypatch):
    # The (3) decision and the (5) sweep read the simplex's outcomes, and
    # the (3) decision's own record, in integers, as the solver and the
    # validators read the programs: a report builds no Fraction field of
    # a program, an outcome or the decision's gain.
    fills, views = [], []
    view = _View.view.__func__

    def viewing(cls, *args):
        views.append(cls.__name__)
        return view(cls, *args)

    def counting(self, name):
        value = _View.__getattr__(self, name)
        fills.append((type(self).__name__, name))
        return value

    monkeypatch.setattr(_View, "view", classmethod(viewing))
    for cls in (LinearProgram, Optimal, Infeasible, Unbounded, checkers.MinMass):
        monkeypatch.setattr(cls, "__getattr__", counting)
    for doc in fuzz_corpus():
        build_report(parse_model(doc))
    assert fills == []
    # No (5) is unbounded here.
    assert set(views) == {"LinearProgram", "Optimal", "Infeasible", "MinMass"}
    # The fields are still there to read, and reading one fills its record.
    m, ls = random_finite_model(4)
    mm = checkers.min_mass(m, ls)
    assert not mm.verdict.holds and mm.gain.values and fills == [("MinMass", "gain")]
