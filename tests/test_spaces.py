"""Trading-space generation and the built-in model generators."""

import copy
import itertools
import json
import random
from fractions import Fraction as F

import pytest

from famart import spaces
from famart.cli import main
from famart.core import MAX_DIGITS, TAIL, InvalidInput, Model, RandVar, expect
from famart.modelio import parse_model
from famart.spaces import (
    MAX_DMW_HORIZON,
    MAX_TRUNCATION,
    MAX_VALUES,
    AdaptedProcess,
    Filtration,
    binomial_pmf,
    dmw_martingale_fap,
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
    trading_space,
)


def test_filtration_validation():
    m = Model((F(1, 2), F(1, 2)))
    Filtration(((frozenset({0, 1}),), (frozenset({0}), frozenset({1})))).check_conforms(m)
    with pytest.raises(InvalidInput):  # time 0 not trivial
        Filtration(((frozenset({0}), frozenset({1})),)).check_conforms(m)
    with pytest.raises(InvalidInput):  # not refining
        Filtration(
            (
                (frozenset({0, 1}),),
                (frozenset({0}), frozenset({1})),
                (frozenset({0, 1}),),
            )
        ).check_conforms(m)
    with pytest.raises(InvalidInput):  # does not cover
        Filtration(((frozenset({0}),),)).check_conforms(m)


def _dynamics_file():
    """Three states and a charged tail; time 1 splits state 0 off the rest."""
    return {
        "states": 3,
        "tail": True,
        "p0": ["1/2", "1/4", "1/8"],
        "p0_tail": "1/8",
        "filtration": [[[0, 1, 2, "tail"]], [[0], [1, 2, "tail"]]],
        "process": [
            {"values": ["0/1", "0/1", "0/1"], "tail": "0/1"},
            {"values": ["1/1", "-1/1", "-1/1"], "tail": "-1/1"},
        ],
    }


def _three_times(doc):
    """Adds a time 2 whose block {0, 1} does not refine time 1."""
    doc["filtration"].append([[0, 1], [2, "tail"]])
    doc["process"].append(copy.deepcopy(doc["process"][1]))


def _tail_less(doc):
    doc.update(tail=False, p0=["1/2", "1/4", "1/4"])
    del doc["p0_tail"]
    for step in doc["process"]:
        del step["tail"]


# Every model-file error of the filtration loader, by the message it
# gives.  The loader reads the filtration and the process in one pass over
# the file; whichever way it does so, these messages are its contract.
LOADER_ERRORS = [
    ("empty block", lambda d: d["filtration"][1].insert(1, []),
     r"^time 1: empty partition block$"),
    ("blocks overlap", lambda d: d["filtration"][1][0].append(1),
     r"^time 1: blocks overlap$"),
    ("does not cover", lambda d: d["filtration"][1][1].remove("tail"),
     r"^time 1: partition does not cover the model$"),
    ("time 0 not trivial", lambda d: d["filtration"].__setitem__(0, [[0], [1, 2, "tail"]]),
     r"^time 0 must carry the trivial partition$"),
    ("does not refine", _three_times,
     r"^time 2: block \[0, 1\] does not refine time 1$"),
    ("not adapted", lambda d: d["process"][1]["values"].__setitem__(2, "1/1"),
     r"^process not adapted: time 1, block \[-1, 1, 2\] takes values "
     r"\[Fraction\(-1, 1\), Fraction\(1, 1\)\]$"),
    ("not adapted at the tail", lambda d: d["process"][1].__setitem__("tail", "2/1"),
     r"^process not adapted: time 1, block \[-1, 1, 2\] takes values "
     r"\[Fraction\(-1, 1\), Fraction\(2, 1\)\]$"),
    ("bad coordinate", lambda d: d["filtration"][1][1].append(7),
     r"^bad coordinate 7$"),
    ("true coordinate", lambda d: d["filtration"][1][0].append(True),
     r"^bad coordinate True$"),
    ("string coordinate", lambda d: d["filtration"][1][0].append("0"),
     r"^bad coordinate '0'$"),
    ("tail of a tail-less model", _tail_less,
     r"^file references the tail state of a tail-less model$"),
    ("no time index", lambda d: (d["filtration"].clear(), d["process"].clear()),
     r"^a filtration needs at least one time index$"),
    ("process too long", lambda d: d["process"].append(copy.deepcopy(d["process"][1])),
     r"^process has 3 time points, filtration has 2$"),
    ("partition not a list", lambda d: d["filtration"].__setitem__(1, {"0": 0}),
     r"^'filtration' must be a list of partitions$"),
    ("block not a list", lambda d: d["filtration"][1].__setitem__(0, 0),
     r"^'filtration': a block must be a list, got 0$"),
]


@pytest.mark.parametrize(
    "mutate, message",
    [case[1:] for case in LOADER_ERRORS],
    ids=[case[0] for case in LOADER_ERRORS],
)
def test_loader_errors_are_pinned(tmp_path, capsys, mutate, message):
    doc = _dynamics_file()
    parse_model(doc)
    mutate(doc)
    with pytest.raises(InvalidInput, match=message):
        parse_model(json.loads(json.dumps(doc)))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and "Traceback" not in err


def test_filtration_errors_outside_a_file():
    # A filtration built in code can name coordinates no file can.
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    whole = frozenset({0, 1, TAIL})
    with pytest.raises(InvalidInput, match=r"^time 1: block \[-1, 5\] leaves the model$"):
        Filtration(((whole,), (frozenset({0, 1}), frozenset({5, TAIL})))).check_conforms(m)
    with pytest.raises(InvalidInput, match=r"^time 0: empty partition block$"):
        Filtration(((whole, frozenset()),)).check_conforms(m)
    with pytest.raises(InvalidInput, match=r"^a filtration needs at least one time index$"):
        Filtration(())
    f = Filtration(((whole,), (frozenset({0}), frozenset({1, TAIL}))))
    s = AdaptedProcess((RandVar((F(0), F(0)), F(0)), RandVar((F(1), F(2)), F(2))))
    with pytest.raises(InvalidInput, match=r"^process has 2 time points, filtration has 1$"):
        s.check_adapted(Filtration(((whole,),)), m)
    tail_less = AdaptedProcess((RandVar((F(0), F(0))), RandVar((F(1), F(2)), F(2))))
    with pytest.raises(InvalidInput, match=r"^random variable lacks a tail value on a tail model$"):
        tail_less.check_adapted(f, m)
    s.check_adapted(f, m)


def test_adaptedness_error_names_the_block():
    m = Model((F(1, 2), F(1, 2)))
    f = Filtration(((frozenset({0, 1}),), (frozenset({0}), frozenset({1}))))
    s = AdaptedProcess((RandVar((F(0), F(1))), RandVar((F(0), F(1)))))
    with pytest.raises(InvalidInput, match="time 0"):
        trading_space(f, s, m)


def test_trading_space_dmw_horizon_two():
    m, f, s = example_dmw(F(1, 3), 2)
    ls = trading_space(f, s, m)
    assert len(ls.basis) == 3
    # First gain is the first step itself; the others are the second step
    # restricted to the two time-1 blocks.
    assert ls.basis[0].values == (F(1), F(1), F(-1), F(-1))
    assert ls.basis[1].values == (F(1), F(-1), F(0), F(0))
    assert ls.basis[2].values == (F(0), F(0), F(1), F(-1))


def test_trading_space_constant_process_is_trivial():
    m = Model((F(1, 2), F(1, 2)))
    f = Filtration(((frozenset({0, 1}),), (frozenset({0}), frozenset({1}))))
    s = AdaptedProcess((RandVar((F(2), F(2))), RandVar((F(2), F(2)))))
    assert trading_space(f, s, m).basis == ()


def test_dmw_model():
    m, f, s = example_dmw(F(1, 3), 2)
    assert m.p0_mass == (F(1, 9), F(2, 9), F(2, 9), F(4, 9))
    assert not m.has_tail
    assert sum(m.p0_mass) == 1
    with pytest.raises(InvalidInput):
        example_dmw(F(1, 2), 2)
    with pytest.raises(InvalidInput):
        example_dmw(F(0), 2)
    with pytest.raises(InvalidInput):
        example_dmw(F(1, 3), 0)


def test_dmw_horizon_one_basis():
    m, f, s = example_dmw(F(1, 4), 1)
    ls = trading_space(f, s, m)
    assert len(ls.basis) == 1
    assert ls.basis[0].values == (F(1), F(-1))


def test_dmw_fair_coin_is_martingale():
    for n in (1, 2, 3):
        m, f, s = example_dmw(F(1, 3), n)
        ls = trading_space(f, s, m)
        q = dmw_martingale_fap(n)
        assert sum(q.ca_mass) == 1
        for x in ls.basis:
            assert expect(q, x) == 0


def test_dmw_masses_sum_to_one():
    for p, n in ((F(1, 3), 3), (F(2, 5), 4), (F(1, 7), 2)):
        m, _, _ = example_dmw(p, n)
        assert sum(m.p0_mass) == 1


def test_bp_generator_values():
    m, f, s, q = example_bp(3, 1)
    assert m.p0_mass == (F(1, 2), F(1, 4), F(1, 8))
    assert m.p0_tail == F(1, 8)
    assert q.ca_mass == (F(1, 2), F(1, 6), F(1, 12))
    assert q.ca_tail == F(1, 4)
    assert s.steps[1].values == (F(5, 2), F(1, 2), F(1, 2))
    assert s.steps[1].tail_value == F(1, 2)
    with pytest.raises(InvalidInput):
        example_bp(3, 2)  # k + 1 must stay below N


def test_bp_mass_identities():
    for n_states, k in ((5, 2), (8, 4), (12, 6)):
        m, _, _, q = example_bp(n_states, k)
        assert sum(m.p0_mass) + m.p0_tail == 1
        assert sum(q.ca_mass) + q.ca_tail == 1


def test_bp_tail_set_identity():
    # ((j+1)^2 + 2(j+1)) Q{j+1} - Q(A_{j+1}) = 1 exactly, with the residual
    # standing in for the truncated tail of the series.
    m, _, _, q = example_bp(8, 4)
    for j in range(5):
        w = j + 1
        q_aj = sum(q.ca_mass[w:], F(0)) + q.ca_tail
        assert (w * w + 2 * w) * q.ca_mass[j] - q_aj == 1


def test_bp_its_gains_vanish_off_surviving_set():
    m, f, s, q = example_bp(6, 3)
    ls = trading_space(f, s, m)
    assert len(ls.basis) == 4  # one per time step: the surviving block only
    for j, x in enumerate(ls.basis):
        # Off the surviving set the process froze, so the gain is zero.
        for w in range(j):
            assert x.values[w] == 0
        assert x.tail_value == -F(1, 2 ** (j + 1))


def test_bp_martingale_pricing_under_q():
    m, f, s, q = example_bp(8, 4)
    ls = trading_space(f, s, m)
    for j, x in enumerate(ls.basis):
        assert expect(q, x) == F(1, 2 ** (j + 1))


def test_harmonic_generator():
    m, ls = example_harmonic(5)
    x = ls.basis[0]
    assert x.values == (F(1), F(1, 2), F(1, 3), F(1, 4), F(1, 5))
    assert x.tail_value == 0
    assert m.p0_tail == F(1, 32)
    m2, ls2 = example_harmonic(2)
    assert ls2.basis[0].values == (F(1), F(1, 2))
    with pytest.raises(InvalidInput):
        example_harmonic(1)


def test_binomial_pmf():
    pm = binomial_pmf(1, F(1, 3))
    assert pm == (F(2, 3), F(1, 3))
    for n in (0, 5, 40):
        assert sum(binomial_pmf(n, F(1, 3)), F(0)) == 1
    with pytest.raises(InvalidInput):
        binomial_pmf(3, F(3, 2))


def test_random_finite_model_is_reproducible_and_hygienic():
    m1, ls1 = random_finite_model(123)
    m2, ls2 = random_finite_model(123)
    assert m1 == m2 and ls1 == ls2
    for seed in range(30):
        m, ls = random_finite_model(seed)
        assert not m.has_tail
        assert sum(m.p0_mass) == 1
        assert 1 <= len(ls.basis) <= 4
        charged = m.charged_states()
        assert charged
        for x in ls.basis:
            assert any(x.values[i] != 0 for i in charged)
        for i in charged:
            assert any(x.values[i] != 0 for x in ls.basis)


def _refuse_building(monkeypatch):
    """Make enumerating the paths, or building the fair mass that the
    martingale measure repeats 2^n times, fail at once."""

    def refuse(*args, **kwargs):
        raise AssertionError("built before the horizon check")

    monkeypatch.setattr(itertools, "product", refuse)
    monkeypatch.setattr(spaces, "Fraction", refuse)


@pytest.mark.parametrize("n", [0, MAX_DMW_HORIZON + 1, 40, 64])
def test_dmw_horizon_is_refused_before_anything_is_built(monkeypatch, n):
    # 2^n paths: without the check, n = 40 or 64 exhausts memory.
    _refuse_building(monkeypatch)
    message = rf"^horizon must lie in 1\.\.{MAX_DMW_HORIZON} \(2\^n paths\), got {n}$"
    with pytest.raises(InvalidInput, match=message):
        example_dmw(F(1, 3), n)
    with pytest.raises(InvalidInput, match=message):
        dmw_martingale_fap(n)


def test_examples_dmw_refuses_a_large_horizon(monkeypatch, tmp_path, capsys):
    _refuse_building(monkeypatch)
    out = tmp_path / "dmw.json"
    assert main(["examples", "dmw", "--n", "64", "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"invalid input: horizon must lie in 1..{MAX_DMW_HORIZON} (2^n paths), got 64\n"
    )


def test_size_bounds_match_their_definitions():
    # 2^N prints in MAX_DIGITS digits up to MAX_TRUNCATION, and no further;
    # MAX_VALUES is the size of the largest dmw process, (16 + 1) * 2^16.
    assert 2**MAX_TRUNCATION < 10**MAX_DIGITS <= 2 ** (MAX_TRUNCATION + 1)
    assert MAX_VALUES == (MAX_DMW_HORIZON + 1) * 2**MAX_DMW_HORIZON


class _Built(Exception):
    pass


def _refuse_sizes(monkeypatch):
    """Make building any masses, values or random draws fail at once, so
    that a size the guards miss raises ``_Built`` instead of allocating."""

    def refuse(*args, **kwargs):
        raise _Built

    monkeypatch.setattr(spaces, "Fraction", refuse)
    monkeypatch.setattr(random, "Random", refuse)


_OVERSIZED = [
    (lambda: example_bp(MAX_TRUNCATION + 1, 3), "truncation must be at most"),
    (lambda: example_bp(100000, 3), "truncation must be at most"),
    (lambda: example_bp(2000, 1998), r"\(k \+ 2\)\(N \+ 1\) process values"),
    (lambda: example_harmonic(MAX_TRUNCATION + 1), "truncation must be at most"),
    (lambda: example_harmonic(10**9), "truncation must be at most"),
    (lambda: random_finite_model(3, 100000, 100000), r"max_states \* max_basis"),
    (lambda: random_finite_model(0, MAX_VALUES + 1, 1), r"max_states \* max_basis"),
]


@pytest.mark.parametrize("build, message", _OVERSIZED)
def test_oversized_examples_are_refused_before_anything_is_built(monkeypatch, build, message):
    # Without the guards bp N=2000 k=1998, harmonic N=200000 and
    # finite-random 100000 x 100000 exhaust memory.
    _refuse_sizes(monkeypatch)
    with pytest.raises(InvalidInput, match=message):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: example_bp(MAX_TRUNCATION, 2),
        lambda: example_bp(1000, 998),  # 1,001,000 process values
        lambda: example_harmonic(MAX_TRUNCATION),
        lambda: random_finite_model(0, MAX_VALUES, 1),
    ],
)
def test_examples_at_the_size_bounds_pass_the_guards(monkeypatch, build):
    _refuse_sizes(monkeypatch)
    with pytest.raises(_Built):
        build()


@pytest.mark.parametrize(
    "args, message",
    [
        (["bp", "--N", "20000", "--k", "3"], "truncation must be at most 14284"),
        (["bp", "--N", "2000", "--k", "1998"], "process values must be at most 1114112"),
        (["harmonic", "--N", "1000000000"], "truncation must be at most 14284"),
        (["finite-random", "--max-states", "100000", "--max-basis", "100000"], "max_basis"),
    ],
)
def test_examples_refuse_an_oversized_model(monkeypatch, tmp_path, capsys, args, message):
    _refuse_sizes(monkeypatch)
    out = tmp_path / "model.json"
    assert main(["examples", *args, "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid input: ") and message in captured.err
