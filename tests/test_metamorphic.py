"""Metamorphic relations from the paper, on whole reports.

Each relation changes a model in a way the paper says cannot change the
answer: the conditions see the reference measure only through its null
sets, and the explicit states only as a set.

- (a) Permute the explicit states, with their masses and values.
- (c) Replace the reference measure by one with the same null sets.
- (d) Append a null state, with any values.

Every row's ``holds``, the (3) ``minimum_weight`` and the (5) ``value``
must stay as they are, and the changed report must certify.  Relation
(c) is checked on basis files and on filtration files, whose (3) is
decided on the filtration tree.
"""

import json
import random
from fractions import Fraction as F

import pytest

from famart.certificates import validate_report
from famart.core import LinSpace, Model, RandVar
from famart.examples import random_finite_model, random_tree_model, serialize_model
from famart.modelio import build_report, parse_model
from famart.spaces import trading_space

SEEDS = range(100)
TREE_SEEDS = range(100)


def _permuted(m, ls, rng):
    """Relation (a): the explicit states in a random order."""
    order = list(range(m.n_states))
    rng.shuffle(order)
    masses = [m.p0_mass[i] for i in order]
    basis = [RandVar([x.values[i] for i in order]) for x in ls.basis]
    return Model(masses), LinSpace(basis)


def _reweighted(m, ls, rng):
    """Relation (c): each reference mass multiplied by a random positive
    rational, then all renormalized, so the null sets stay as they are."""
    masses = [x * F(rng.randint(1, 9), rng.randint(1, 9)) for x in m.p0_mass]
    tail = None if m.p0_tail is None else m.p0_tail * F(rng.randint(1, 9), rng.randint(1, 9))
    total = sum(masses) + (tail or 0)
    return Model([x / total for x in masses], None if tail is None else tail / total), ls


def _with_null_state(m, ls, rng):
    """Relation (d): one more explicit state, of mass zero, where every
    generator takes a random value."""
    basis = [RandVar((*x.values, F(rng.randint(-4, 4), rng.randint(1, 3)))) for x in ls.basis]
    return Model((*m.p0_mass, F(0))), LinSpace(basis)


def _facts(m, ls=None, **filtration):
    """Each row's condition and ``holds``, with the (3) least weight and
    the (5) c* where they hold, of the report on ``m`` and ``ls``, or on
    ``m`` and a ``filtration`` and ``process``; the report, read back from
    JSON, must certify."""
    model = serialize_model(m, lin_space=ls, **filtration)
    doc = parse_model(json.loads(json.dumps(model)))
    rows = json.loads(json.dumps(build_report(doc)))["verdicts"]
    assert validate_report(doc.model, doc.lin_space, rows, doc.extras()) is None
    facts = []
    for row in rows:
        fact = [row["condition"], row["holds"]]
        if row["holds"] and row["condition"] == "(3)":
            fact.append(F(row["certificate"]["minimum_weight"]))
        if row["holds"] and row["condition"] == "(5)":
            fact.append(F(row["certificate"]["value"]))
        facts.append(fact)
    return facts


@pytest.mark.parametrize(
    "relation", [_permuted, _reweighted, _with_null_state], ids=["a", "c", "d"]
)
def test_relation_leaves_every_report_fact(relation):
    holding = 0
    for seed in SEEDS:
        m, ls = random_finite_model(seed)
        expected = _facts(m, ls)
        assert _facts(*relation(m, ls, random.Random(seed))) == expected, seed
        holding += expected[0][1]
    # Both branches of the (3) decision are covered.
    assert 0 < holding < len(SEEDS)


def test_reweighting_leaves_every_filtration_report_fact():
    # Relation (c) on filtration files, with and without generators.
    without = 0
    for seed in TREE_SEEDS:
        m, f, s = random_tree_model(seed)
        expected = _facts(m, filtration=f, process=s)
        reweighted, _ = _reweighted(m, None, random.Random(seed))
        assert _facts(reweighted, filtration=f, process=s) == expected, seed
        without += not trading_space(f, s, m).basis
    assert 0 < without < len(TREE_SEEDS)
