"""Exact scalar, model, and random-variable primitives."""

import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famart import core
from famart.core import (
    MAX_DIGITS,
    TAIL,
    InvalidInput,
    OversizedOutput,
    LinSpace,
    Model,
    RandVar,
    constant,
    dot,
    ess_sup,
    expect,
    rat,
    rat_pair,
    rat_str,
    sup_norm,
)
from famart.fap import Fap


def test_rat_parses_strings_ints_and_rejects_floats():
    assert rat("1/3") == F(1, 3)
    assert rat("-5/1") == F(-5)
    assert rat(7) == F(7)
    assert rat(F(2, 4)) == F(1, 2)
    with pytest.raises(InvalidInput):
        rat(0.5)
    with pytest.raises(InvalidInput):
        rat("1/0")
    with pytest.raises(InvalidInput):
        rat("x")
    with pytest.raises(InvalidInput):
        rat(True)


def test_rat_caps_the_digits_a_string_asks_for():
    assert rat("1e3") == 1000
    assert rat("-2.5e-2") == F(-1, 40)
    # The last exponent is rejected from its length, before it is read.
    for big in ("1e5000", "1E+5000", "1e-5000", "1e" + "9" * 50):
        with pytest.raises(InvalidInput, match=f"more than {MAX_DIGITS} digits"):
            rat(big)
    # The widest value rat_str prints is read back.
    widest = "-" + "9" * MAX_DIGITS + "/1"
    assert rat_str(rat(widest)) == widest
    with pytest.raises(InvalidInput, match="digits"):
        rat("9" * (MAX_DIGITS + 1) + "/1")


def test_rat_str_refuses_a_value_rat_cannot_read_back():
    # 10**4400 has 4401 digits, past MAX_DIGITS: rat would reject the
    # string, so writing it fails with its own error, not invalid input.
    for big in (F(10**4400), F(-1, 10**4400)):
        with pytest.raises(OversizedOutput, match=f"more than {MAX_DIGITS} digits"):
            rat_str(big)
    assert not issubclass(OversizedOutput, ValueError)


def test_rat_str_is_canonical():
    assert rat_str(F(1, 3)) == "1/3"
    assert rat_str(-5) == "-5/1"
    assert rat_str("2/4") == "1/2"


@pytest.mark.parametrize(
    "text, value",
    [
        (" 1/2", F(1, 2)),
        ("+1/2", F(1, 2)),
        ("1_0/3", F(10, 3)),
        ("\u0661/2", F(1, 2)),
        ("1.5", F(3, 2)),
        ("-0/5", F(0)),
        ("1/0", "not an exact rational"),
        ("0/0", "not an exact rational"),
        ("1/00", "not an exact rational"),
        ("-/2", "not an exact rational"),
        ("\u00b2/3", "not an exact rational"),
        ("9" * (MAX_DIGITS + 1) + "/1", f"more than {MAX_DIGITS} digits"),
        ("1/" + "9" * (MAX_DIGITS + 1), f"more than {MAX_DIGITS} digits"),
    ],
)
def test_rat_reads_other_strings_through_fraction(text, value):
    # Near misses of the canonical form keep Fraction's reading and the
    # same errors: whitespace, a plus sign, underscores, non-ASCII digits.
    if isinstance(value, F):
        assert rat(text) == value
    else:
        with pytest.raises(InvalidInput, match=value):
            rat(text)


def test_model_invariants():
    Model((F(1, 2), F(1, 2)))
    Model((F(1, 2), F(1, 4)), F(1, 4))
    Model((F(0), F(1)))  # zero-mass states are legal
    with pytest.raises(InvalidInput):
        Model((F(1, 2), F(1, 3)))
    with pytest.raises(InvalidInput):
        Model((F(1, 2), F(-1, 2), F(1)))
    with pytest.raises(InvalidInput):
        Model((), None)
    with pytest.raises(InvalidInput):
        Model((F(1, 2), F(1, 2)), F(1, 4))


def test_support_enumeration():
    m = Model((F(1, 2), F(0), F(1, 4)), F(1, 4))
    assert m.charged_states() == (0, 2)
    assert m.support() == (0, 2, TAIL)
    assert m.all_coords() == (0, 1, 2, TAIL)
    m2 = Model((F(1, 2), F(1, 2)), F(0))
    assert m2.has_tail and not m2.tail_charged
    assert m2.support() == (0, 1)


def test_ess_sup_excludes_zero_mass_states():
    m = Model((F(1, 2), F(1, 2), F(0)))
    x = RandVar((F(-1), F(-2), F(5)))
    assert ess_sup(x, m) == F(-1)


def test_ess_sup_reaches_charged_tail():
    # Harmonic-style: values -1/w, tail 0; the tail is charged, so the
    # essential supremum is attained there.
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    x = RandVar((F(-1), F(-1, 2)), F(0))
    assert ess_sup(x, m) == F(0)


def test_ess_sup_constant():
    m = Model((F(1, 3), F(2, 3)))
    assert ess_sup(constant(F(7, 2), m), m) == F(7, 2)


def test_ess_sup_dimension_mismatch():
    m = Model((F(1, 2), F(1, 2)))
    with pytest.raises(InvalidInput):
        ess_sup(RandVar((F(1),)), m)
    with pytest.raises(InvalidInput):
        ess_sup(RandVar((F(1), F(2)), F(0)), m)


def test_sup_norm_examples():
    m = Model((F(1, 2), F(1, 2)))
    assert sup_norm(RandVar((F(3), F(-1))), m) == F(3)
    assert sup_norm(constant(0, m), m) == F(0)
    mt = Model((F(1, 2), F(1, 4)), F(1, 4))
    assert sup_norm(RandVar((F(-1), F(-1, 2)), F(0)), mt) == F(1)


def test_expect_point_mass():
    m = Model((F(1), F(0)))
    p = Fap(F(0), (F(1), F(0)))
    assert expect(p, RandVar((F(7), F(0)))) == F(7)


def test_expect_bp_truncation_value():
    # Truncation at three states: pmf (1/2, 1/6, 1/12) with residual 1/4;
    # the first one-step gain (3/2, -1/2, -1/2 | tail -1/2) prices at 1/2.
    q = Fap(F(0), (F(1, 2), F(1, 6), F(1, 12)), F(1, 4))
    x = RandVar((F(3, 2), F(-1, 2), F(-1, 2)), F(-1, 2))
    assert expect(q, x) == F(1, 2)


def test_expect_pure_tail_functional():
    p = Fap(F(1), (F(0), F(0)), F(1))
    x = RandVar((F(9), F(-9)), F(4, 7))
    assert expect(p, x) == F(4, 7)


def test_expect_tail_mismatch_errors():
    p = Fap(F(0), (F(1, 2), F(1, 4)), F(1, 4))
    with pytest.raises(InvalidInput):
        expect(p, RandVar((F(1), F(2))))
    p2 = Fap(F(0), (F(1, 2), F(1, 2)))
    with pytest.raises(InvalidInput):
        expect(p2, RandVar((F(1), F(2)), F(0)))


def test_linspace_combine():
    ls = LinSpace((RandVar((F(1), F(0))), RandVar((F(0), F(1)))))
    x = ls.combine((F(2), F(-3)))
    assert x.values == (F(2), F(-3))
    with pytest.raises(InvalidInput):
        ls.combine((F(1),))


@pytest.mark.parametrize("tail", [None, F(0), F(-5, 3)])
def test_negated_equals_scaling_by_minus_one(tail):
    x = RandVar((F(2), F(0), F(-1, 3)), tail)
    neg = x.negated()
    assert neg == x.scaled(-1)
    assert neg.tail_value == (None if tail is None else -tail)
    assert all(type(v) is F for v in neg.values)


# -- property-based invariants ------------------------------------------------

_small_rat = st.fractions(
    min_value=F(-5), max_value=F(5), max_denominator=6
)


_WIDE = 2**64
_wide_rat = st.builds(
    F,
    st.integers(min_value=-_WIDE, max_value=_WIDE),
    st.integers(min_value=1, max_value=_WIDE),
)
_term = st.one_of(
    st.just(F(0)), st.integers(min_value=-3, max_value=3), _small_rat, _wide_rat
)


@given(st.lists(st.tuples(_term, _term), max_size=12))
@settings(max_examples=300, deadline=None)
def test_dot_equals_the_fraction_sum(pairs):
    a, b = [x for x, _ in pairs], [y for _, y in pairs]
    value = dot(a, b)
    assert value == sum(x * y for x, y in zip(a, b))
    assert type(value) is F


@given(
    st.integers(min_value=-_WIDE, max_value=_WIDE),
    st.integers(min_value=1, max_value=_WIDE),
    st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200, deadline=None)
def test_rat_reads_canonical_strings_as_fraction_does(num, den, zeros):
    # Canonical here is the form -?[0-9]+/[0-9]+, reduced or not, with
    # leading zeros allowed in either part.
    pad = "0" * zeros
    for text in (f"{num}/{den}", f"{pad}{abs(num)}/{pad}{den}"):
        assert rat(text) == F(text)


@st.composite
def _model_and_vars(draw, n_vars=2):
    n = draw(st.integers(min_value=1, max_value=4))
    has_tail = draw(st.booleans())
    weights = draw(
        st.lists(st.integers(min_value=0, max_value=5), min_size=n, max_size=n)
    )
    tail_weight = draw(st.integers(min_value=0, max_value=5)) if has_tail else 0
    if sum(weights) + tail_weight == 0:
        weights[0] = 1
    total = sum(weights) + tail_weight
    m = Model(
        tuple(F(w, total) for w in weights),
        F(tail_weight, total) if has_tail else None,
    )
    xs = []
    for _ in range(n_vars):
        values = tuple(draw(_small_rat) for _ in range(n))
        tail = draw(_small_rat) if has_tail else None
        xs.append(RandVar(values, tail))
    return m, xs


@given(_model_and_vars(), st.fractions(min_value=0, max_value=4, max_denominator=4))
@settings(max_examples=60, deadline=None)
def test_ess_sup_positive_homogeneity(mx, a):
    m, (x, _) = mx
    assert ess_sup(x.scaled(a), m) == a * ess_sup(x, m)


@given(_model_and_vars())
@settings(max_examples=60, deadline=None)
def test_ess_sup_subadditive(mx):
    m, (x, y) = mx
    assert ess_sup(x.plus(y), m) <= ess_sup(x, m) + ess_sup(y, m)


@st.composite
def _model_var_fap(draw):
    m, (x, y) = draw(_model_and_vars())
    weights = [
        draw(st.integers(min_value=0, max_value=5)) if m.p0_mass[i] > 0 else 0
        for i in range(m.n_states)
    ]
    tail_weight = (
        draw(st.integers(min_value=0, max_value=5)) if m.tail_charged else 0
    )
    if sum(weights) + tail_weight == 0:
        if m.charged_states():
            weights[m.charged_states()[0]] = 1
        else:
            tail_weight = 1
    total = sum(weights) + tail_weight
    p = Fap(
        F(0),
        tuple(F(w, total) for w in weights),
        F(tail_weight, total) if m.has_tail else None,
    )
    return m, x, y, p


@given(_model_var_fap(), _small_rat, _small_rat)
@settings(max_examples=60, deadline=None)
def test_expect_linear(mxp, a, b):
    m, x, y, p = mxp
    combo = x.scaled(a).plus(y.scaled(b))
    assert expect(p, combo) == a * expect(p, x) + b * expect(p, y)


@given(_model_var_fap())
@settings(max_examples=60, deadline=None)
def test_expect_internal_and_dominated_for_ac(mxp):
    # The fap built here is absolutely continuous, so its expectation is
    # dominated by the essential supremum and dominates the essential inf.
    m, x, _, p = mxp
    e = expect(p, x)
    assert e <= ess_sup(x, m)
    assert -ess_sup(x.negated(), m) <= e


def test_operations_are_bit_exact_on_repeat():
    m = Model((F(1, 2), F(1, 4)), F(1, 4))
    x = RandVar((F(-1), F(-1, 2)), F(0))
    first = (ess_sup(x, m), sup_norm(x, m))
    second = (ess_sup(x, m), sup_norm(x, m))
    assert first == second
    assert all(isinstance(v, F) for v in first)


@given(st.text(alphabet="0123456789-+/._ ²٣", max_size=16))
@settings(max_examples=400, deadline=None)
def test_rat_pair_reads_strings_as_fraction_does(text):
    # No exponent in the alphabet: Fraction would build any power of ten.
    try:
        expected = F(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InvalidInput):
            rat_pair(text)
        return
    num, den = rat_pair(text)
    assert den > 0 and F(num, den) == expected == rat(text)


# The string rule ``rat_pair`` followed when it read canonical strings
# with a regular expression, kept whole as the oracle for the reading
# that replaced it.
_ORACLE_CANONICAL = re.compile(rf"(-?[0-9]{{1,{MAX_DIGITS}}})/([0-9]{{1,{MAX_DIGITS}}})")


def _oracle_rat_pair(x: str) -> tuple[int, int]:
    canonical = _ORACLE_CANONICAL.fullmatch(x)
    if canonical and canonical[2].strip("0"):
        return int(canonical[1]), int(canonical[2])
    if _oracle_digit_bound(x) > MAX_DIGITS:
        raise InvalidInput(f"more than {MAX_DIGITS} digits: {x[:40]!r}")
    try:
        q = F(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not an exact rational: {x!r}") from exc
    return q.numerator, q.denominator


def _oracle_digit_bound(s: str) -> int:
    body, e, exponent = s.lower().partition("e")
    if not e and len(s) <= MAX_DIGITS:
        return len(s)
    widest = max(sum(map(str.isdecimal, part)) for part in body.split("/"))
    if not e and "." not in body:
        return widest
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(exponent) > len(str(MAX_DIGITS)):
        return MAX_DIGITS + 1
    return widest + (int(exponent) if exponent.isdecimal() else 0) + 1


def _outcome(read, text):
    try:
        return read(text)
    except InvalidInput:
        return "refused"


_ALPHABET = "0123456789-/+_.e²٣ "
# Parts of 4299 to 4301 digits straddle the digit limit from both sides.
_long_part = st.builds(
    lambda lead, n, digit: lead + digit * (n - len(lead)),
    st.sampled_from(["", "-", "0", "1", "9", "٣", "²", " "]),
    st.integers(MAX_DIGITS - 1, MAX_DIGITS + 1),
    st.sampled_from("0179"),
)
_short_part = st.text(alphabet=_ALPHABET, max_size=6)
_strings = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=24),
    st.builds(
        lambda a, sep, b: a + sep + b,
        st.one_of(_short_part, _long_part),
        st.sampled_from(["/", "", "e", "/-", "//"]),
        st.one_of(_short_part, _long_part),
    ),
)


@given(_strings)
@settings(max_examples=500, deadline=None)
def test_rat_pair_accepts_and_refuses_what_the_regex_rule_did(text):
    assert _outcome(rat_pair, text) == _outcome(_oracle_rat_pair, text)


@pytest.mark.parametrize(
    "text",
    [
        "1/2", "-1/2", "-0/3", "2/4", "00/01", "1/0", "-1/00", "/1", "1/", "-/1",
        "--1/2", "+1/2", "1 /2", "1/2 ", "1_0/2", "1/2/3", "²/3", "1/²", "٣/4",
        "1" * MAX_DIGITS + "/1", "-" + "1" * MAX_DIGITS + "/1",
        "1" * (MAX_DIGITS + 1) + "/1", "1/" + "1" * MAX_DIGITS,
        "1/" + "0" * MAX_DIGITS, "1/" + "0" * (MAX_DIGITS - 1) + "1",
        "1/" + "1" * (MAX_DIGITS + 1), "1" * MAX_DIGITS, "1" * (MAX_DIGITS + 1),
    ],
)
def test_rat_pair_agrees_with_the_regex_rule_at_the_edges(text):
    assert _outcome(rat_pair, text) == _outcome(_oracle_rat_pair, text)


# ``rat_pair`` keeps the canonical strings it has read in a bounded memo.
_MEMO_EDGES = [
    "1/0", "+1/2", " 1/2", "1/2 ", "٣/4", "1/٣", "²/3",
    "1" * (MAX_DIGITS + 1) + "/1", "1/2", "-1/2", "0/1", "-0/3", "00/01",
]


def _cold_then_warm(text):
    core._DECODED.pop(text, None)
    return _outcome(rat_pair, text), _outcome(rat_pair, text)


@given(_strings)
@settings(max_examples=300, deadline=None)
def test_rat_pair_reads_alike_cold_and_warm(text):
    expected = _outcome(_oracle_rat_pair, text)
    assert _cold_then_warm(text) == (expected, expected)


@pytest.mark.parametrize("text", _MEMO_EDGES)
def test_rat_pair_reads_alike_cold_and_warm_at_the_edges(text):
    expected = _outcome(_oracle_rat_pair, text)
    assert _cold_then_warm(text) == (expected, expected)


def test_rat_pair_memo_is_bounded(monkeypatch):
    memo = {}
    monkeypatch.setattr(core, "_DECODED", memo)
    refused = [t for t in _MEMO_EDGES if _outcome(_oracle_rat_pair, t) == "refused"]
    refused += ["1.5", "3", "-2/-3", "1e2"]  # Fraction reads these, not the fast path
    wide = ["1" * 20 + "/" + "3" * 19, "-" + "7" * 39 + "/1", "1/" + "9" * 38]
    for text in refused + wide:
        _outcome(rat_pair, text)
    assert memo == {}
    assert [rat_pair(t) for t in wide] == [_oracle_rat_pair(t) for t in wide]
    for k in range(5000):
        assert rat_pair(f"{k}/7") == (k, 7)
    assert len(memo) == core._MEMO_SIZE
    assert max(map(len, memo)) <= core._MEMO_WIDTH
    assert memo.keys() == {f"{k}/7" for k in range(core._MEMO_SIZE)}
    # Past the bound the memo takes nothing and every read is still right.
    assert rat_pair("4999/7") == (4999, 7) and "4999/7" not in memo


def test_a_tampered_leaf_fails_validation_with_a_warm_memo():
    # Each leaf is swapped for another leaf of the same report, which the
    # validation before it has put in the memo; the swap must still fail.
    import json
    from functools import reduce
    from operator import getitem

    from famart.certificates import validate_verdict
    from famart.examples import example_dmw, serialize_model
    from famart.modelio import build_report, parse_model
    from test_certificates import _leaf_paths, _replaced

    m, f, s = example_dmw(F(1, 3), 2)
    doc = parse_model(json.loads(json.dumps(serialize_model(m, filtration=f, process=s))))
    m, ls, extras = doc.model, doc.lin_space, doc.extras()
    rows = json.loads(json.dumps(build_report(doc)["verdicts"]))
    certs = [row["certificate"] for row in rows]
    leaves = [reduce(getitem, p, cert) for cert in certs for p in _leaf_paths(cert)]
    swaps = 0
    for row in rows:
        assert validate_verdict(m, ls, row, extras)
        cert = row["certificate"]
        for path in _leaf_paths(cert):
            leaf = reduce(getitem, path, cert)
            other = next(x for x in leaves if F(x) != F(leaf))
            assert other in core._DECODED
            clone = dict(row, certificate=_replaced(cert, path, other))
            assert not validate_verdict(m, ls, clone, extras), (row["condition"], path)
            swaps += 1
    assert swaps >= 50
