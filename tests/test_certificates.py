"""Certificate leaves: equal renderings validate, malformed ones do not.

Validation reads every certificate vector once into integer numerators
over a common denominator.  These tests pin what that reading accepts:
any rendering of the same rational value, and nothing that ``rat``
refuses.
"""

import json
from fractions import Fraction as F
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from famart import certificates, core
from famart.certificates import (
    CertificateFormat,
    _functional,
    _parse_vec,
    _weight,
    fap_from_payload,
    randvar_from_payload,
    validate_report,
    validate_verdict,
)
from famart.checkers import check_weight
from famart.core import TAIL, InvalidInput, Model, RandVar, constant, rat, rat_pair, rat_str
from famart.examples import example_dmw, example_harmonic, random_finite_model, serialize_model
from famart.fap import is_abs_continuous, is_equivalent
from famart.modelio import ModelDoc, build_report, parse_model
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


# ``_parse_vec`` reads a string leaf from ``rat_pair``'s memo where it can
# and hands every other leaf to ``rat_pair``; it must read each leaf as
# ``rat_pair`` does, cold or warm.  The 33-character leaf is canonical but
# too wide for the memo; a list leaf is unhashable.
_PARSE_EDGES = [
    "+1/2", " 1/2", "1_0/3", "1/0", "1" * 31 + "/3", 1.5, True, [1], None,
    "1/2", "-2/4", "0/1", "3", 7,
]


def _pairs_read(xs):
    """The reading ``_parse_vec`` must match: ``rat_pair`` on every leaf,
    scaled to the least common denominator."""
    try:
        pairs = [rat_pair(x) for x in xs]
    except InvalidInput:
        return "refused"
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _parsed(xs):
    try:
        return _parse_vec(xs[:1], *xs[1:]), _parse_vec(xs)
    except CertificateFormat:
        return "refused"


@pytest.mark.parametrize("leaf", _PARSE_EDGES, ids=repr)
def test_parse_vec_reads_every_leaf_as_rat_pair_does(leaf):
    for xs in ([leaf], ["1/3", leaf], [leaf, "5/3", "-1/3"]):
        if isinstance(leaf, str):
            core._DECODED.pop(leaf, None)
        cold = _parsed(xs)
        expected = _pairs_read(xs)
        warm = _parsed(xs)
        assert cold == warm == (expected if expected == "refused" else (expected, expected))


def test_parse_vec_keeps_one_denominator_unscaled():
    assert _parse_vec(["1/2", "3/2", "-5/2"]) == ([1, 3, -5], 2)
    assert _parse_vec(["2/4", "0/4"]) == ([2, 0], 4)
    assert _parse_vec(["1/2", "1/3"]) == ([3, 2], 6)
    assert _parse_vec([]) == ([], 1)


def _audit_docs():
    """Finite-random models: (3) fails by an infeasible program (seed 0),
    a negative best least weight (7) and a zero one (25), and holds (20);
    then a tail model and a filtration model."""
    for seed in (0, 7, 20, 25, *range(40)):
        yield parse_model(serialize_model(*random_finite_model(seed)))
    yield parse_model(serialize_model(*example_harmonic(5)))
    m, f, s = example_dmw(F(1, 3), 3)
    yield parse_model(serialize_model(m, filtration=f, process=s))


def _report_extras(doc):
    """The extras ``build_report`` validates with: the unit (5*) weight too."""
    m = doc.model
    return doc.extras() if m.has_tail else {**doc.extras(), "weight": constant(1, m)}


def _first_failing_row(m, ls, rows, extras):
    for row in rows:
        if not validate_verdict(m, ls, row, extras):
            return row["condition"]
    return None


@pytest.mark.parametrize("extras_of", [_report_extras, ModelDoc.extras], ids=["report", "file"])
def test_a_changed_shared_leaf_fails_the_row_validating_each_row_fails(extras_of):
    # In memory a report's rows share objects, so one changed leaf changes
    # every row that carries it.  validate_report checks a shared object
    # once, and must still fail the first row that validating each row on
    # its own fails, wherever the change is: with the unit (5*) weight in
    # the extras, as the report's audit has it, and without, as a
    # certify has it, where a (5*) weight may change to another one.
    changed = 0
    for doc in _audit_docs():
        m, ls, extras = doc.model, doc.lin_space, extras_of(doc)
        rows = build_report(doc)["verdicts"]
        assert validate_report(m, ls, rows, extras) is None
        for i, row in enumerate(rows):
            # The other "holds", on a row that shares its certificate.
            flipped = [*rows[:i], dict(row, holds=not row["holds"]), *rows[i + 1 :]]
            assert validate_report(m, ls, flipped, extras) == row["condition"]
        for row in rows:
            for path in _leaf_paths(row["certificate"]):
                target = row["certificate"]
                for key in path[:-1]:
                    target = target[key]
                leaf = target[path[-1]]
                target[path[-1]] = rat_str(rat(leaf) + 1)
                try:
                    failed = validate_report(m, ls, rows, extras)
                    assert failed == _first_failing_row(m, ls, rows, extras)
                finally:
                    target[path[-1]] = leaf
                changed += 1
                # Only a weight at a null state may change unnoticed, and
                # only where no unit weight is asked for.
                assert failed is not None or (extras_of is ModelDoc.extras and path[0] == "weight")
        assert validate_report(m, ls, rows, extras) is None
    assert changed > 1000


def test_validate_report_runs_no_check_twice_on_the_same_objects(monkeypatch):
    # Per report, each payload check runs once per distinct input objects,
    # and in all fewer times than validating each row on its own.
    calls = []
    for name in ("_functional", "_sums", "_validate_combination"):
        check = getattr(certificates, name)

        def counted(*args, _check=check, _name=name):
            calls.append((_name, *map(id, args)))
            return _check(*args)

        monkeypatch.setattr(certificates, name, counted)
    fewer = 0
    for doc in _audit_docs():
        m, ls, extras = doc.model, doc.lin_space, doc.extras()
        rows = build_report(doc)["verdicts"]
        calls.clear()
        assert validate_report(m, ls, rows, extras) is None
        audited = list(calls)
        assert len(set(audited)) == len(audited)
        calls.clear()
        assert _first_failing_row(m, ls, rows, extras) is None
        # Each payload a row carries is read and combined as validating
        # the row on its own reads it (the sums are keyed by read weights).
        assert {c for c in audited if c[0] != "_sums"} <= set(calls)
        fewer += len(audited) < len(calls)
    assert fewer > 30


def test_a_report_reads_each_context_vector_into_integers_once(monkeypatch):
    # The (7) and coherence rows compare one previsions tuple and the (5*)
    # row the weight: validate_report reads each into integers once, and
    # validate_verdict once per row that compares it.  The comparison
    # stays by value: previsions given as strings pass, changed ones fail.
    reads = []
    context_ints = certificates._context_ints

    def counted(values):
        reads.append(values)
        return context_ints(values)

    monkeypatch.setattr(certificates, "_context_ints", counted)
    for doc in _audit_docs():
        m, ls, extras = doc.model, doc.lin_space, _report_extras(doc)
        rows = json.loads(json.dumps(build_report(doc)["verdicts"]))
        compared = [r for r in rows if r["condition"] in ("(7)", "coherence", "(5*)")]
        reads.clear()
        assert validate_report(m, ls, rows, extras) is None
        assert len(reads) == len({id(v) for v in reads}) == (2 if "weight" in extras else 1)
        reads.clear()
        assert all(validate_verdict(m, ls, r, extras) for r in compared)
        assert len(reads) == len(compared)
        as_strings = dict(extras, previsions=[rat_str(e) for e in doc.previsions])
        assert validate_report(m, ls, rows, as_strings) is None
        changed = dict(extras, previsions=[e + 1 for e in doc.previsions])
        assert validate_report(m, ls, rows, changed) in ("(7)", "coherence")
