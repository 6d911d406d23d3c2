"""Certificate leaves: equal renderings validate, malformed ones do not.

Validation reads every certificate vector once into integer numerators
over a common denominator.  These tests pin what that reading accepts:
any rendering of the same rational value, and nothing that ``rat``
refuses.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famart.certificates import (
    CertificateFormat,
    _functional,
    _parse_vec,
    _weight,
    fap_from_payload,
    randvar_from_payload,
    validate_verdict,
)
from famart.core import TAIL, InvalidInput, Model, RandVar, rat
from famart.fap import is_abs_continuous, is_equivalent
from famart.modelio import build_report, parse_model
from famart.programs import check_weight
from test_acceptance import _emitted_certificates
from test_modelio import _pinned_model_files


def _leaf_paths(node, path=()):
    """Paths to every rational leaf: a string holding a slash."""
    if isinstance(node, dict):
        for key, val in node.items():
            yield from _leaf_paths(val, path + (key,))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            yield from _leaf_paths(val, path + (i,))
    elif isinstance(node, str) and "/" in node:
        yield path


def _replaced(payload, path, value):
    clone = json.loads(json.dumps(payload))
    target = clone
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return clone


def _rerendered(payload):
    """Every rational leaf rewritten as an equal, non-canonical string:
    ``"n"`` for an integer, ``"2n/2d"`` otherwise."""
    for path in _leaf_paths(payload):
        target = payload
        for key in path:
            target = target[key]
        q = F(target)
        if q.denominator == 1:
            text = str(q.numerator)
        else:
            text = f"{2 * q.numerator}/{2 * q.denominator}"
        payload = _replaced(payload, path, text)
    return payload


def _pinned_reports():
    """(doc, report JSON) for every pinned model file."""
    for model_file in _pinned_model_files():
        doc = parse_model(json.loads(json.dumps(model_file)))
        yield doc, json.loads(json.dumps(build_report(doc)))


def test_rerendered_criterion_8_certificates_validate():
    count = 0
    for m, ls, verdict, extras, _ in _emitted_certificates():
        rendered = dict(verdict, certificate=_rerendered(verdict["certificate"]))
        assert validate_verdict(m, ls, rendered, extras), verdict["condition"]
        count += 1
    assert count >= 200


def test_rerendered_reports_validate():
    kinds = set()
    for doc, report in _pinned_reports():
        for verdict in report["verdicts"]:
            rendered = dict(verdict, certificate=_rerendered(verdict["certificate"]))
            assert validate_verdict(doc.model, doc.lin_space, rendered, doc.extras()), (
                verdict["condition"],
                verdict["certificate"]["kind"],
            )
            kinds.add(verdict["certificate"]["kind"])
    assert len(kinds) >= 9


def test_a_prevision_written_as_an_integer_validates():
    # The (7) witness of a finite-random model stores its previsions,
    # which the model file leaves at zero: "0" is the same prevision as
    # "0/1".
    seen = 0
    for doc, report in _pinned_reports():
        for verdict in report["verdicts"]:
            cert = verdict["certificate"]
            if cert.get("claim") != "event_dominance_violated":
                continue
            assert set(cert["previsions"]) == {"0/1"}
            cert = dict(cert, previsions=["0"] * len(cert["previsions"]))
            rendered = dict(verdict, certificate=cert)
            assert validate_verdict(doc.model, doc.lin_space, rendered, doc.extras())
            seen += 1
    assert seen >= 10


# "²" is a digit to str.isdigit but not to int or Fraction.
MALFORMED = [0.5, True, None, "1/0", "1/2/3", "²/3", "1" * 5000 + "/1", "1/" + "1" * 5000]


def test_malformed_leaves_are_certificate_format_errors():
    reports = list(_pinned_reports())
    cases = [
        (doc.model, doc.lin_space, verdict, doc.extras())
        for doc, report in reports[:6] + reports[-1:]
        for verdict in report["verdicts"]
    ]
    emitted = list(_emitted_certificates())[::10]
    cases += [(m, ls, verdict, extras) for m, ls, verdict, extras, _ in emitted]
    checked = 0
    for m, ls, verdict, extras in cases:
        for path in _leaf_paths(verdict["certificate"]):
            for bad in MALFORMED:
                cert = _replaced(verdict["certificate"], path, bad)
                with pytest.raises(CertificateFormat):
                    validate_verdict(m, ls, dict(verdict, certificate=cert), extras)
                checked += 1
    assert checked >= 5_000


_rationals = st.fractions(max_denominator=10**30).filter(lambda q: abs(q) < 10**30)
_renderings = st.one_of(
    st.builds(lambda q: f"{q.numerator}/{q.denominator}", _rationals),
    st.builds(
        lambda q, k: f"{k * q.numerator}/{k * q.denominator}", _rationals, st.integers(1, 10**6)
    ),
    st.builds(lambda q: str(q.numerator), _rationals),
    st.builds(lambda q: format(float(q), ".6f"), _rationals),
    st.text(alphabet="0123456789-+/._ e²٣", max_size=12),
    st.integers(min_value=-(10**30), max_value=10**30),
    _rationals,
)


@given(st.lists(_renderings, max_size=8))
@settings(max_examples=200, deadline=None)
def test_integer_parse_agrees_with_rat(leaves):
    try:
        expected = [rat(x) for x in leaves]
    except InvalidInput:
        with pytest.raises(CertificateFormat):
            _parse_vec(leaves)
        return
    nums, den = _parse_vec(leaves)
    assert den > 0
    assert [F(n, den) for n in nums] == expected


# A functional's payload is read straight into integers by one helper;
# these pin it to the Fraction reading of the same payload.
_ALPHAS = ["0/1", "1/1", "1/2", "1/3", "2/4", "-0/3", "2/2", "-1/2", "3/2", "0", "1", "x", 0.5]
_BAD_LEAVES = ["x", "1/0", 0.5, None, True, "-1/4", "3/1"]


@st.composite
def _models_and_functionals(draw):
    n = draw(st.integers(1, 4))
    tail = draw(st.booleans())
    ref = draw(st.lists(st.integers(0, 2), min_size=n + tail, max_size=n + tail).filter(any))
    m = Model([F(w, sum(ref)) for w in ref[:n]], F(ref[n], sum(ref)) if tail else None)
    # Mostly well-formed masses over a common total, written canonically
    # or not; sometimes of the wrong length, the wrong tail, or a bad leaf.
    length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    has_tail = tail if draw(st.integers(0, 4)) else not tail
    ws = draw(st.lists(st.integers(0, 3), min_size=length + has_tail, max_size=length + has_tail))
    total = max(sum(ws), 1) + draw(st.sampled_from([0, 0, 0, 1]))
    scale = draw(st.sampled_from([1, 1, 2]))
    leaves = [f"{scale * w}/{scale * total}" for w in ws]
    if leaves and draw(st.integers(0, 5)) == 0:
        leaves[draw(st.integers(0, len(leaves) - 1))] = draw(st.sampled_from(_BAD_LEAVES))
    d = {"alpha": draw(st.sampled_from(_ALPHAS)), "mass": leaves[:length]}
    if has_tail:
        d["tail"] = leaves[length]
    return m, d


def _fraction_reading(m, d):
    try:
        p = fap_from_payload(d)
        p.check_conforms(m)
    except CertificateFormat:
        return "malformed"
    except InvalidInput:
        return "false"
    weights = [(1 - p.alpha) * q for q in (*p.ca_mass, *([p.ca_tail] if m.has_tail else []))]
    if m.has_tail:
        weights[TAIL] += p.alpha
    return weights, p.alpha == 0, is_equivalent(p, m), is_abs_continuous(p, m)


def _integer_reading(m, d):
    try:
        weights, den, alpha, equivalent, continuous = _functional(d, m)
    except CertificateFormat:
        return "malformed"
    except InvalidInput:
        return "false"
    return [F(w, den) for w in weights], alpha == 0, equivalent, continuous


_half_null = Model([F(1, 2), F(0)], F(1, 2))


@given(_models_and_functionals())
@settings(max_examples=600, deadline=None)
@example((_half_null, {"alpha": "1/1", "mass": ["0/1", "1/1"], "tail": "0/1"}))  # alpha 1, null mass
@example((_half_null, {"alpha": "1/2", "mass": ["1/2", "0/1"]}))  # no tail on a tail model
@example((Model([1]), {"alpha": "0/1", "mass": ["1/1"], "tail": "0/1"}))  # a tail on a tail-less one
@example((_half_null, {"alpha": "0/1", "mass": ["3/2", "-1/2"], "tail": "0/1"}))  # negative mass
@example((_half_null, {"alpha": "0/1", "mass": ["1/2", "0/1"], "tail": "1/4"}))  # sum 3/4
@example((_half_null, {"alpha": "2/4", "mass": ["2/4", "-0/3"], "tail": "1/2"}))  # non-canonical
@example((_half_null, {"alpha": "1/2", "mass": ["1/2", "1/2"], "tail": "0/1"}))  # mass on a null state
@example((_half_null, {"alpha": "1/1", "mass": ["1/1", "0/1"], "tail": "0/1"}))  # pure: not equivalent
def test_integer_functional_reading_agrees_with_fap(case):
    m, d = case
    assert _integer_reading(m, d) == _fraction_reading(m, d)


# A (5*) weight is read straight into integers too; these pin it to the
# Fraction reading: randvar_from_payload, check_weight, and a RandVar
# comparison with the weight the check was asked about.
_WEIGHT_LEAVES = ["1/2", "2/4", "3/1", "3", 2, "5/7", "0/1", "-0/5", "-1/3", 0, "0.5"]
_BAD_WEIGHT_LEAVES = ["x", "1/0", 0.5, None, True, "²/3"]


@st.composite
def _models_and_weights(draw):
    n = draw(st.integers(1, 4))
    tail = draw(st.booleans())
    ref = draw(st.lists(st.integers(0, 2), min_size=n + tail, max_size=n + tail).filter(any))
    m = Model([F(w, sum(ref)) for w in ref[:n]], F(ref[n], sum(ref)) if tail else None)
    # Mostly of the right shape with a zero tail; sometimes of the wrong
    # length, the wrong tail, a nonzero tail, or a malformed leaf.
    length = draw(st.sampled_from([n, n, n, n - 1, n + 1]))
    has_tail = tail if draw(st.integers(0, 4)) else not tail
    leaves = draw(st.lists(st.sampled_from(_WEIGHT_LEAVES), min_size=length, max_size=length))
    d = {"values": leaves}
    if has_tail:
        d["tail"] = draw(st.sampled_from(["0/1", "0/1", "0", "-0/2", "1/2", "-1/4"]))
    if draw(st.integers(0, 5)) == 0:
        bad = draw(st.sampled_from(_BAD_WEIGHT_LEAVES))
        if leaves and draw(st.booleans()):
            leaves[draw(st.integers(0, len(leaves) - 1))] = bad
        elif has_tail:
            d["tail"] = bad
        else:
            d = draw(st.sampled_from([{"value": leaves}, {"values": "1/2"}, ["values"], "values"]))
    extras = {}
    kind = draw(st.sampled_from(["none", "same", "same", "other", "flipped", "foreign"]))
    try:
        y = randvar_from_payload(d)
    except (CertificateFormat, InvalidInput):
        y = RandVar([1] * n, 0 if tail else None)
    if kind == "same":
        extras["weight"] = y
    elif kind == "other":
        values = list(y.values) or [0]
        values[-1] += 1
        extras["weight"] = RandVar(values, y.tail_value)
    elif kind == "flipped":
        extras["weight"] = RandVar(y.values, None if y.tail_value is not None else 0)
    elif kind == "foreign":
        extras["weight"] = [str(v) for v in y.values]
    return m, d, extras


def _fraction_weight(m, d, extras):
    try:
        y = randvar_from_payload(d)
        check_weight(m, y)
    except CertificateFormat:
        return "malformed"
    except InvalidInput:
        return "refused"
    if "weight" in extras and extras["weight"] != y:
        return "refused"
    return [*y.values, *([y.tail_value] if m.has_tail else [])]


def _integer_weight(m, d, extras):
    try:
        out = _weight(d, m, extras)
    except CertificateFormat:
        return "malformed"
    except InvalidInput:
        return "refused"
    if out is None:
        return "refused"
    ys, den = out
    assert den > 0
    return [F(y, den) for y in ys]


_tail_model = Model([F(1, 2), F(0)], F(1, 2))


@given(_models_and_weights())
@settings(max_examples=600, deadline=None)
@example((_tail_model, {"values": ["1/2", "2/4"], "tail": "0/1"}, {}))  # a null state may be 0 too
@example((_tail_model, {"values": ["1/2", "-1/2"], "tail": "0/1"}, {}))  # negative only off the support
@example((_tail_model, {"values": ["0/1", "1/1"], "tail": "0/1"}, {}))  # zero on a charged state
@example((_tail_model, {"values": ["1/1", "1/1"], "tail": "1/2"}, {}))  # a nonzero tail
@example((_tail_model, {"values": ["1/1", "1/1"]}, {}))  # a missing tail
@example((Model([1]), {"values": ["1/1"], "tail": "0/1"}, {}))  # an extra tail
@example((Model([F(1, 2), F(1, 2)]), {"values": ["1/1"]}, {}))  # too short
@example((Model([1]), {"values": ["2/4"]}, {"weight": RandVar([F(1, 2)])}))  # equal by value
@example((Model([1]), {"values": ["1/2"]}, {"weight": RandVar([F(1, 3)])}))  # differs
@example((Model([1]), {"values": ["1/2"]}, {"weight": RandVar([F(1, 2)], 0)}))  # differs at the tail
@example((Model([1]), {"values": ["1/x"]}, {"weight": RandVar([F(1, 3)])}))  # malformed first
@example((Model([0], 1), {"values": ["1/1"], "tail": "0/1"}, {}))  # no charged explicit state
def test_integer_weight_reading_agrees_with_check_weight(case):
    m, d, extras = case
    assert _integer_weight(m, d, extras) == _fraction_weight(m, d, extras)
