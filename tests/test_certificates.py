"""Certificate leaves: equal renderings validate, malformed ones do not.

Validation reads every certificate vector once into integer numerators
over a common denominator.  These tests pin what that reading accepts:
any rendering of the same rational value, and nothing that ``rat``
refuses.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famart.certificates import CertificateFormat, _parse_vec, validate_verdict
from famart.core import InvalidInput, rat
from famart.modelio import build_report, parse_model
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
