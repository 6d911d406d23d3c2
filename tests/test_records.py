"""The immutable records: construction, equality, hashing, repr, pickling,
and what importing the command line loads."""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import famart
from famart import checkers
from famart.core import LinSpace, Model, RandVar, Record
from famart.examples import example_dmw, serialize_model
from famart.fap import Fap
from famart.lp import Constraint, Infeasible, LinearProgram, Optimal, Unbounded, arbitrage_lp, solve
from famart.modelio import ModelDoc, parse_model
from famart.spaces import AdaptedProcess, Filtration


def _records():
    """One instance of each record class, built the way the package builds it."""
    m, f, s = example_dmw(F(1, 3), 2)
    doc = parse_model(json.loads(json.dumps(serialize_model(m, filtration=f, process=s))))
    ls = doc.lin_space
    lp = arbitrage_lp(m, ls)
    return [
        m,
        ls.basis[0],
        ls,
        Fap(F(1, 4), (F(1, 2), F(1, 4), F(1, 4)), F(0)),
        lp.constraints[0],
        lp,
        solve(LinearProgram((1,), True, [((1,), "<=", 2)], (0,))),
        solve(LinearProgram((1,), True, [((1,), "<=", -1)], (0,))),
        solve(LinearProgram((1,), True, [], (0,))),
        checkers.find_emfap(m, ls),
        checkers.divergence_study(F(1, 3), [2])[0],
        doc,
        f,
        s,
        checkers.min_mass(m, ls),
        lp.int_form(),
    ]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]


def test_every_record_class_is_covered():
    assert set(IDS) == {
        "Model", "RandVar", "LinSpace", "Fap", "Constraint", "LinearProgram",
        "IntProgram", "Optimal", "Infeasible", "Unbounded", "Verdict", "MinMass", "DivergenceRow",
        "ModelDoc", "Filtration", "AdaptedProcess",
    }
    assert all(isinstance(r, Record) for r in RECORDS)


def _fields(r):
    return {name: getattr(r, name) for name in type(r).__slots__}


def _hashable(r):
    try:
        hash(r)
    except TypeError:  # a Verdict holds its certificate as a dict
        return False
    return True


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(r):
    for name in type(r).__slots__:
        before = getattr(r, name)
        with pytest.raises(AttributeError):
            setattr(r, name, None)
        with pytest.raises(AttributeError):
            delattr(r, name)
        assert getattr(r, name) is before
    with pytest.raises(AttributeError):
        r.extra = 1
    assert not hasattr(r, "__dict__")


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_keyword_construction_uses_the_field_names(r):
    again = type(r)(**_fields(r))
    assert again == r and again is not r
    assert repr(again) == repr(r)


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_equality_and_hash_follow_class_and_fields(r):
    again = type(r)(*_fields(r).values())
    assert again == r
    assert not again != r
    if _hashable(r):
        assert hash(again) == hash(r) == hash(tuple(_fields(r).values()))
    assert r != tuple(_fields(r).values())
    assert r.__eq__(object()) is NotImplemented


def test_records_of_different_classes_with_equal_fields_are_unequal():
    basis = RECORDS[2].basis
    ls, steps = LinSpace(basis), AdaptedProcess(basis)
    assert ls.basis == steps.steps
    assert ls != steps and steps != ls
    assert len({ls, steps}) == 2


def test_records_differing_in_one_field_are_unequal():
    m = Model((F(1, 2), F(1, 2)))
    assert m != Model((F(1, 2), F(1, 2)), F(0))
    assert RandVar((1, 2)) != RandVar((1, 3))
    assert Optimal(F(1), (), ()) != Optimal(F(2), (), ())
    assert Constraint((1,), "<=", 1) != Constraint((1,), ">=", 1)


@pytest.mark.parametrize("r", RECORDS, ids=IDS)
def test_pickle_and_copy_round_trip(r):
    for again in (
        pickle.loads(pickle.dumps(r)),
        copy.copy(r),
        copy.deepcopy(r),
    ):
        assert type(again) is type(r)
        assert again == r
        assert repr(again) == repr(r)


def test_stored_model_and_space_data_are_not_fields():
    # A model reads its coordinates when it is built, and a space its
    # integer rows on first use; neither shows in equality, hashing,
    # printing, pickling or copying.
    m, ls = RECORDS[0], RECORDS[2]
    rows = ls.int_rows()
    assert ls.int_rows() is rows and rows[0] and rows[1] > 0
    assert m.support() is m.support() and m.all_coords() is m.all_coords()
    fresh_m, fresh_ls = Model(*_fields(m).values()), LinSpace(*_fields(ls).values())
    for r, fresh in ((m, fresh_m), (ls, fresh_ls)):
        assert r == fresh and fresh == r and hash(r) == hash(fresh)
        assert repr(r) == repr(fresh)
        assert pickle.dumps(r) == pickle.dumps(fresh)
        for again in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
            assert again == fresh and hash(again) == hash(fresh)
            assert repr(again) == repr(fresh)
    assert copy.deepcopy(ls).int_rows() == rows == fresh_ls.int_rows()
    assert copy.deepcopy(m).support() == m.support() == fresh_m.support()
    for name in ("_charged", "_support", "_coords", "_rows"):
        r = ls if name == "_rows" else m
        with pytest.raises(AttributeError):
            setattr(r, name, None)


def test_repr_reads_like_a_constructor_call():
    assert repr(Optimal(F(1, 2), (F(0),), ())) == (
        "Optimal(value=Fraction(1, 2), primal=(Fraction(0, 1),), dual=())"
    )
    assert repr(Model((1,))) == "Model(p0_mass=(Fraction(1, 1),), p0_tail=None)"
    assert repr(Infeasible((F(-1),))) == "Infeasible(farkas=(Fraction(-1, 1),))"
    assert repr(Unbounded((), ())) == "Unbounded(point=(), ray=())"


def test_constructors_coerce_exact_values_and_keep_defaults():
    assert Model(["1/2", 1 - F(1, 2)]).p0_tail is None
    assert RandVar([1, "1/3"], 0) == RandVar((F(1), F(1, 3)), F(0))
    lp = LinearProgram([1, 2])
    assert (lp.maximize, lp.constraints) == (True, ())
    assert lp.lower == lp.upper == (None, None)
    assert Filtration([[{0, 1}]]).partitions == ((frozenset({0, 1}),),)
    doc = RECORDS[11]
    assert ModelDoc(doc.model, doc.lin_space, (), ()).filtration is None


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    # Every famart process imports famart.cli, and these modules cost
    # start-up time.  Only a report takes a digest, and it imports hashlib
    # when it does.
    src = Path(famart.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = (
        "import famart.cli, sys; "
        "print(sorted({'dataclasses', 'inspect', 'hashlib'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "[]"
