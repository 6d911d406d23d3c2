"""Model file round trips, validation diagnostics, and report assembly."""

import copy
import hashlib
import json
import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from famart import certificates, checkers, programs, spaces
from famart.certificates import event_from_payload, validate_verdict
from famart.cli import main
from famart.core import TAIL, InvalidInput, LinSpace, Model, OversizedOutput, RandVar, constant
from famart.examples import (
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
    random_tree_model,
    serialize_model,
)
from famart.lp import Infeasible, Unbounded, event_dominance_lp, negative_gain_lp, solve
from famart.modelfile import randvar_payload
from famart.modelio import CONDITION_ORDER, AuditError, build_report, model_digest, parse_model
from famart.spaces import trading_space

from references import acmfap_holds, counting_solves, no_arbitrage_holds, ratio_sweep
from test_checkers import _by_value


def _roundtrip(doc):
    return parse_model(json.loads(json.dumps(doc)))


def test_basis_file_roundtrip_is_bit_exact():
    m, ls = example_harmonic(4)
    doc = serialize_model(m, lin_space=ls)
    parsed = _roundtrip(doc)
    assert parsed.model == m
    assert parsed.lin_space == ls
    assert serialize_model(parsed.model, lin_space=parsed.lin_space) == doc


def test_dynamics_file_derives_the_basis():
    m, f, s = example_dmw(F(1, 3), 2)
    doc = serialize_model(m, filtration=f, process=s)
    parsed = _roundtrip(doc)
    assert parsed.model == m
    assert parsed.lin_space == trading_space(f, s, m)
    assert parsed.filtration == f
    assert parsed.process == s


def test_basis_and_dynamics_are_mutually_exclusive():
    m, f, s = example_dmw(F(1, 3), 1)
    doc = serialize_model(m, filtration=f, process=s)
    doc["basis"] = [{"values": ["1/1", "-1/1"]}]
    with pytest.raises(InvalidInput, match="mutually exclusive"):
        parse_model(doc)


def test_integer_shorthand_is_accepted():
    doc = {
        "states": 2,
        "tail": False,
        "p0": [1, 0],
        "basis": [{"values": [1, -1]}],
    }
    parsed = parse_model(doc)
    assert parsed.model.p0_mass == (F(1), F(0))


def test_validation_diagnostics():
    base = {
        "states": 2,
        "tail": False,
        "p0": ["1/2", "1/2"],
        "basis": [{"values": ["1/1", "0/1"]}],
    }
    bad_sum = dict(base, p0=["1/2", "1/3"])
    with pytest.raises(InvalidInput, match="sum to 1"):
        parse_model(bad_sum)
    with pytest.raises(InvalidInput, match="tail"):
        parse_model(dict(base, tail=True))
    with pytest.raises(InvalidInput, match="lacks a tail value"):
        parse_model(
            {
                "states": 1,
                "tail": True,
                "p0": ["1/2"],
                "p0_tail": "1/2",
                "basis": [{"values": ["1/1"]}],
            }
        )
    with pytest.raises(InvalidInput, match="'basis' or dynamics"):
        parse_model({"states": 1, "tail": False, "p0": ["1/1"]})
    with pytest.raises(InvalidInput, match="one value per generator"):
        parse_model(dict(base, previsions=["1/2", "1/2"]))
    with pytest.raises(InvalidInput, match="bad coordinate"):
        parse_model(dict(base, events=[[0, 5]]))
    with pytest.raises(InvalidInput, match="tail-less"):
        parse_model(dict(base, events=[["tail"]]))


def test_events_and_previsions_defaults():
    m, f, s, _ = example_bp(4, 1)
    doc = serialize_model(m, filtration=f, process=s)
    parsed = _roundtrip(doc)
    assert parsed.previsions == (F(0),) * len(parsed.lin_space.basis)
    assert parsed.events == (frozenset(parsed.model.support()),)


def test_digest_is_stable_and_input_sensitive():
    m, ls = example_harmonic(4)
    d1 = model_digest(m, ls)
    assert d1 == model_digest(m, ls)
    m2, ls2 = example_harmonic(5)
    assert d1 != model_digest(m2, ls2)


def test_report_on_bp_matches_narrative():
    m, f, s, _ = example_bp(6, 2)
    doc = _roundtrip(serialize_model(m, filtration=f, process=s))
    report = build_report(doc)
    verdicts = {v["condition"]: v["holds"] for v in report["verdicts"]}
    assert verdicts["(6)"] is True
    assert verdicts["(4)"] is True
    assert verdicts["(3)"] is True
    assert verdicts["(8)"] is False
    assert all(report["implications"].values())
    order = [v["condition"] for v in report["verdicts"]]
    assert order == sorted(order, key=CONDITION_ORDER.index)
    assert order == [c for c in CONDITION_ORDER if c in order]


def test_report_on_arbitrage_model():
    doc = parse_model(
        {
            "states": 2,
            "tail": False,
            "p0": ["1/2", "1/2"],
            "basis": [{"values": ["1/1", "0/1"]}],
        }
    )
    report = build_report(doc)
    verdicts = {v["condition"]: v["holds"] for v in report["verdicts"]}
    assert verdicts["(6)"] is False
    assert verdicts["(3)"] is False
    assert verdicts["(10)"] is False
    assert all(report["implications"].values())


def test_report_on_empty_basis_model_is_all_true():
    doc = parse_model(
        {
            "states": 2,
            "tail": False,
            "p0": ["1/2", "1/2"],
            "basis": [],
        }
    )
    report = build_report(doc)
    assert report["verdicts"], "report should still carry rows"
    assert all(v["holds"] for v in report["verdicts"])


def test_report_audit_never_fires_on_fuzz_corpus():
    import random

    from famart.examples import random_finite_model

    rng = random.Random(515)
    for seed in rng.sample(range(100_000), 25):
        m, ls = random_finite_model(seed)
        doc = parse_model(json.loads(json.dumps(serialize_model(m, lin_space=ls))))
        report = build_report(doc)  # must not raise AuditError
        assert all(report["implications"].values())


def _harmonic_doc(n):
    m, ls = example_harmonic(n)
    return serialize_model(m, lin_space=ls)


def _dmw_doc(n):
    m, f, s = example_dmw(F(1, 3), n)
    return serialize_model(m, filtration=f, process=s)


@pytest.mark.parametrize(
    "doc, message",
    [
        # (3) fails on the harmonic model: a holding (6) contradicts it.
        (_harmonic_doc(4), "no-arbitrage without an equivalent"),
        # (3) holds on dmw: a failing (6) contradicts it.
        (_dmw_doc(2), "functional without no-arbitrage"),
    ],
    ids=["6-without-3", "3-without-6"],
)
def test_report_audit_fires_on_contradicting_verdicts(monkeypatch, doc, message):
    no_arbitrage_from = checkers.no_arbitrage_from

    def flipped(m, mm):
        v = no_arbitrage_from(m, mm)
        return checkers.Verdict(v.condition, not v.holds, v.certificate, v.narrative)

    monkeypatch.setattr(checkers, "no_arbitrage_from", flipped)
    with pytest.raises(AuditError, match=message):
        build_report(_roundtrip(doc))


def test_report_and_certify_build_no_arbitrage_program(monkeypatch, tmp_path, capsys):
    # A holding (6) carries the (3) functional, and (10) relabels it, so
    # neither a report nor a certify process builds the arbitrage
    # program.  Counted where programs are built (all rows ">="),
    # whichever module asks for them: on dmw the (5) sweep solves no
    # ratio program, the only other ">="-only program.
    builds = []
    int_program = programs.IntProgram

    def counting(rows, relations, *rest):
        if set(relations) == {programs.GE}:
            builds.append(rows)
        return int_program(rows, relations, *rest)

    monkeypatch.setattr(programs, "IntProgram", counting)
    m, f, s = example_dmw(F(1, 3), 2)
    doc = serialize_model(m, filtration=f, process=s)
    report = build_report(_roundtrip(doc))
    rows = {v["condition"]: v for v in report["verdicts"]}
    assert rows["(6)"]["holds"] and rows["(10)"]["holds"]
    assert rows["(6)"]["certificate"] == rows["(4)"]["certificate"]
    assert rows["(6)"]["certificate"]["kind"] == "martingale_fap"
    assert rows["(10)"]["certificate"] == rows["(6)"]["certificate"]
    assert rows["(10)"]["narrative"] != rows["(6)"]["narrative"]
    model, path = tmp_path / "m.json", tmp_path / "report.json"
    model.write_text(json.dumps(doc))
    path.write_text(json.dumps(report))
    assert main(["certify", str(model), str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert builds == []


def test_report_builds_the_arbitrage_rows_once(monkeypatch, tmp_path, capsys):
    # On the harmonic model (3) fails and its arbitrage is the (6)
    # certificate, which (10) carries: the one (3) program is the only
    # one built, and the audit checks the arbitrage's combination once.
    # A certify process, which loads the model again, builds that one
    # program again and no other.
    builds, combinations = [], []
    int_program = programs.IntProgram
    validate_combination = certificates._validate_combination

    def counting(rows, relations, *rest):
        builds.append(set(relations))
        return int_program(rows, relations, *rest)

    def counting_combination(*args):
        combinations.append(args)
        return validate_combination(*args)

    monkeypatch.setattr(programs, "IntProgram", counting)
    monkeypatch.setattr(certificates, "_validate_combination", counting_combination)
    doc = _harmonic_doc(4)
    report = build_report(_roundtrip(doc))
    assert builds == [{programs.EQ}] and len(combinations) == 1
    rows = {v["condition"]: v for v in report["verdicts"]}
    assert not rows["(6)"]["holds"] and not rows["(10)"]["holds"]
    assert rows["(6)"]["certificate"]["kind"] == "arbitrage_vector"
    assert rows["(10)"]["certificate"] == rows["(6)"]["certificate"]
    model, path = tmp_path / "m.json", tmp_path / "report.json"
    model.write_text(json.dumps(doc))
    path.write_text(json.dumps(report))
    assert main(["certify", str(model), str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert builds == [{programs.EQ}] * 2


@pytest.mark.parametrize("seed", [0, 7], ids=["infeasible", "negative"])
def test_report_builds_the_min_mass_rows_once(monkeypatch, tmp_path, capsys, seed):
    # The (3) solve and the re-validation of the failing (3) row's Farkas
    # weights read one program, kept beside the space's integer rows; so
    # does a certify process, which loads the model again.  Counted where
    # the rows are built (all rows "="), whichever module asks for them.
    builds = []
    int_program = programs.IntProgram

    def counting(rows, relations, *rest):
        if set(relations) == {programs.EQ}:
            builds.append(rows)
        return int_program(rows, relations, *rest)

    monkeypatch.setattr(programs, "IntProgram", counting)
    doc = serialize_model(*random_finite_model(seed))
    report = build_report(_roundtrip(doc))
    assert len(builds) == 1
    row = report["verdicts"][0]
    assert not row["holds"] and row["certificate"]["lp"] == "min-mass"
    model, path = tmp_path / "m.json", tmp_path / "report.json"
    model.write_text(json.dumps(doc))
    path.write_text(json.dumps(report))
    assert main(["certify", str(model), str(path)]) == 0
    assert capsys.readouterr().err == ""
    assert len(builds) == 2


def test_min_mass_program_is_built_again_for_another_support():
    m, ls = random_finite_model(0)
    first = programs.martingale_mass_rows(m, ls)
    assert programs.martingale_mass_rows(m, ls) is first
    # A charged state leaves the support: the program loses its column.
    i, j = m.charged_states()[:2]
    masses = list(m.p0_mass)
    masses[i], masses[j] = F(0), masses[i] + masses[j]
    thinner = Model(masses)
    program = programs.martingale_mass_rows(thinner, ls)
    assert len(program.costs) == len(first.costs) - 1
    assert program == programs.martingale_mass_rows(thinner, LinSpace(ls.basis))


def _changed_first_leaf(cert, key):
    """A copy of ``cert`` whose list ``key`` has its first entry plus one;
    the original, which other rows may share, is left as it is."""
    values = list(cert[key])
    values[0] = str(F(values[0]) + 1)
    return dict(cert, **{key: values})


@pytest.mark.parametrize(
    "doc", [_harmonic_doc(4), _dmw_doc(2)], ids=["arbitrage", "functional"]
)
def test_report_audit_fires_on_a_changed_6_certificate(monkeypatch, doc):
    # The (10) row carries the (6) certificate, so the audit checks it
    # once; a changed coefficient or functional mass must still fail it.
    # A holding (6) carries the (3) payload, which (3) and (4) share:
    # changed in the (6) row alone, it fails there.
    no_arbitrage_from = checkers.no_arbitrage_from

    def changed(m, mm):
        v = no_arbitrage_from(m, mm)
        if v.holds:
            cert = dict(v.certificate, fap=_changed_first_leaf(v.certificate["fap"], "mass"))
        else:
            cert = _changed_first_leaf(v.certificate, "coefficients")
        return checkers.Verdict(v.condition, v.holds, cert, v.narrative)

    monkeypatch.setattr(checkers, "no_arbitrage_from", changed)
    with pytest.raises(AuditError, match=r"condition \(6\) failed"):
        build_report(_roundtrip(doc))


@pytest.mark.parametrize("seed", [7, 20], ids=["failing", "holding"])
def test_report_audit_fires_on_a_5star_weight_other_than_1(monkeypatch, seed):
    # The unit weight lets the audit take the (5*) row's inner check from
    # the (5) row; any other weight must fail the row.
    weighted_ratio_from = checkers.weighted_ratio_from

    def doubled(m, y, cstar, mm):
        v = weighted_ratio_from(m, y, cstar, mm)
        cert = dict(v.certificate, weight=randvar_payload(constant(2, m)))
        return checkers.Verdict(v.condition, v.holds, cert, v.narrative)

    monkeypatch.setattr(checkers, "weighted_ratio_from", doubled)
    with pytest.raises(AuditError, match=r"condition \(5\*\) failed"):
        build_report(_roundtrip(serialize_model(*random_finite_model(seed))))


def test_model_digest_renders_basis_values_as_rat_str_does():
    m = Model([F(1, 2), F(1, 2)])
    values = [F(-6, 4), F(0), F(10, 5), F(7, 3)]
    ls = LinSpace([RandVar(values[:2]), RandVar(values[2:])])
    expected = hashlib.sha256(
        json.dumps(
            {
                "states": 2,
                "tail": False,
                "p0": ["1/2", "1/2"],
                "p0_tail": None,
                "basis": [{"values": ["-3/2", "0/1"]}, {"values": ["2/1", "7/3"]}],
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
    ).hexdigest()
    assert model_digest(m, ls) == expected
    huge = LinSpace([RandVar([F(1, 10**4400), F(0)])])
    with pytest.raises(OversizedOutput):
        model_digest(m, huge)


def test_arbitrage_program_is_built_again_for_another_support():
    m, f, s = example_dmw(F(1, 3), 2)
    ls = trading_space(f, s, m)
    first = programs.arbitrage_rows(m, ls)
    assert programs.arbitrage_rows(m, ls) == first
    # A null path leaves the support: the program loses its row.
    masses = list(m.p0_mass)
    masses[0], masses[1] = F(0), masses[0] + masses[1]
    thinner = Model(masses)
    program = programs.arbitrage_rows(thinner, ls)
    assert len(program.rows) == len(first.rows) - 1
    assert program == programs.arbitrage_rows(thinner, LinSpace(ls.basis))


def test_filtration_report_reads_the_one_step_tree_once(monkeypatch):
    # parse_model builds the trading space from the tree, which the space
    # keeps for the tree decision of (3).
    calls = []
    one_step_tree = spaces.one_step_tree

    def counting(f, s):
        calls.append(f)
        return one_step_tree(f, s)

    for module in (spaces, checkers):  # wherever the name is bound
        if hasattr(module, "one_step_tree"):
            monkeypatch.setattr(module, "one_step_tree", counting)
    m, f, s = example_bp(8, 4)[:3]
    doc = _roundtrip(serialize_model(m, filtration=f, process=s))
    assert len(calls) == 1
    report = build_report(doc)
    assert report["verdicts"][0]["holds"]
    # The space decides (3) on its tree, as the report does; a space the
    # tree did not build is decided by the min-mass program, to the same
    # least weight.
    row = checkers.min_mass(m, doc.lin_space).verdict.to_dict()
    assert row == report["verdicts"][0]
    alone = checkers.min_mass(m, LinSpace(doc.lin_space.basis)).verdict
    assert alone.certificate["minimum_weight"] == row["certificate"]["minimum_weight"]
    assert len(calls) == 1


def test_report_reads_unit_weight_5star_off_5_and_3(monkeypatch):
    # No solve: (3) is decided on the filtration tree.  Its functional
    # certifies (4) and (6), and through (4) also (7) and coherence, whose
    # program on the least event (the support here) is the (4) program.
    # Its gain attains c*, so the (5) sweep solves no ratio program, and
    # (5*) is read off (5) and (3).  Solving (5*) afresh took 24 solves
    # here, and the min-mass program of (3) one more.
    calls = counting_solves(monkeypatch)
    m, f, s = example_dmw(F(1, 3), 3)
    build_report(_roundtrip(serialize_model(m, filtration=f, process=s)))
    assert len(calls) == 0


@pytest.mark.parametrize(
    "example, solves",
    [
        # None: (3) is decided on the tree (one solve before), its gain
        # attains c* (three ratio solves before that), and (7) and
        # coherence are read off the (4) that (3) certifies.
        (lambda: example_bp(40, 38)[:3], 0),
        (lambda: example_dmw(F(1, 3), 5), 0),
    ],
    ids=["bp-40-38", "dmw-5"],
)
def test_report_solves_per_model(monkeypatch, example, solves):
    calls = counting_solves(monkeypatch)
    m, f, s = example()
    build_report(_roundtrip(serialize_model(m, filtration=f, process=s)))
    assert len(calls) == solves


def _counted_reports(monkeypatch, docs):
    """Each doc with its report and the programs the report solved."""
    calls = counting_solves(monkeypatch)
    for doc in docs:
        calls.clear()
        report = build_report(doc)
        yield doc, report, list(calls)


def test_reports_on_finite_random_models_solve_few_programs(monkeypatch):
    # Seeds 0-287 took 1450 solves while (4), (5), (6), (7) and coherence
    # each solved a program of their own; 454 now.
    docs = [_roundtrip(serialize_model(*random_finite_model(seed))) for seed in range(288)]
    total = sum(len(calls) for _, _, calls in _counted_reports(monkeypatch, docs))
    assert total == 454


def _duplicate_rows_doc():
    # States 0 and 1 carry the same generator values, so their ratio
    # programs have one objective; the previsions are not zero and the
    # events default to the support, so the (7) program on the least
    # event is the coherence program but not the (4) program.
    m = Model((F(1, 4), F(1, 4), F(1, 4), F(1, 4)))
    ls = LinSpace((RandVar((F(1), F(1), F(-1), F(0))), RandVar((F(0), F(0), F(1), F(-2)))))
    return _roundtrip(serialize_model(m, lin_space=ls, previsions=(F(0), F(-1, 4))))


def test_no_report_solves_a_program_twice(monkeypatch):
    docs = [parse_model(doc) for doc in _pinned_model_files()]
    docs.append(_duplicate_rows_doc())
    for doc, report, calls in _counted_reports(monkeypatch, docs):
        assert len(set(calls)) == len(calls)
    # The last doc: (3), then the sweep at states 0, 1 and 3, where state
    # 1 reuses the outcome of state 0's objective, then the program (7)
    # and coherence share.
    rows = {v["condition"]: v for v in report["verdicts"]}
    assert rows["(7)"]["holds"] and rows["coherence"]["holds"]
    assert len(rows["(5)"]["certificate"]["cover"]) == 3 and len(calls) == 4


def _differential_docs():
    for seed in range(400):
        m, ls = random_finite_model(seed)
        yield _roundtrip(serialize_model(m, lin_space=ls))
    for n, k in ((5, 2), (8, 4), (40, 38)):
        m, f, s, _q = example_bp(n, k)
        yield _roundtrip(serialize_model(m, filtration=f, process=s))
    for n in (3, 5):
        m, f, s = example_dmw(F(1, 3), n)
        yield _roundtrip(serialize_model(m, filtration=f, process=s))
    m, ls = example_harmonic(5)
    yield _roundtrip(serialize_model(m, lin_space=ls))


def test_report_verdicts_match_the_per_condition_programs():
    # The report reads (4), (5), (6), (7), (10) and coherence off the (3)
    # solve.  Each verdict, and c*, must match the program that decides
    # the condition on its own: the (4) representation program, the ratio
    # sweep started from nothing, and the arbitrage program.
    seen = set()
    for doc in _differential_docs():
        m, ls = doc.model, doc.lin_space
        rows = {v["condition"]: v for v in build_report(doc)["verdicts"]}
        fresh_5 = ratio_sweep(m, ls)
        no_arbitrage = no_arbitrage_holds(m, ls)
        expected = {
            "(4)": acmfap_holds(m, ls),
            "(5)": fresh_5.holds,
            "(6)": no_arbitrage,
            "(10)": no_arbitrage,
            "(7)": checkers.check_event_dominance(ls, doc.previsions, doc.events, m).holds,
        }
        if ls.basis:
            expected["coherence"] = checkers.check_coherence(ls.basis, doc.previsions, m).holds
        for cond, holds in expected.items():
            assert rows[cond]["holds"] == holds, cond
        assert rows["(3)"]["holds"] == rows["(6)"]["holds"]
        assert _cstar_of(rows["(5)"]) == _cstar_of(fresh_5.to_dict())
        seen.update((cond, row["holds"]) for cond, row in rows.items())
    assert {(c, h) for c in ("(3)", "(4)", "(5)", "(7)") for h in (True, False)} <= seen


def _tree_markets():
    for seed in range(300):
        yield random_tree_model(seed)
    for n in range(2, 7):
        yield example_dmw(F(1, 3), n)
    for n in (5, 8, 40):
        yield example_bp(n, n - 2)[:3]


def _facts(report):
    """Each row's verdict and c*, and the (3) row's least weight t*."""
    return [
        (row["condition"], row["holds"], _cstar_of(row), row["certificate"].get("minimum_weight"))
        for row in report["verdicts"]
    ]


def test_tree_decision_agrees_with_the_lp():
    # A filtration file decides (3) node by node unless a live node has a
    # one-step arbitrage; the same model as a basis file decides it by the
    # min-mass program over all paths.  Verdicts, c* and t* must agree, and
    # where the tree declines the two reports are the same bytes.
    paths = Counter()
    for m, f, s in _tree_markets():
        doc = _roundtrip(serialize_model(m, filtration=f, process=s))
        ls = doc.lin_space
        tree_report = build_report(doc)
        lp_report = build_report(_roundtrip(serialize_model(m, lin_space=ls)))
        assert _facts(tree_report) == _facts(lp_report)
        mm = checkers.tree_min_mass(m, ls)
        if mm is None:
            paths["lp" if ls.basis else "no generator"] += 1
            assert tree_report == lp_report
            continue
        paths["tree"] += 1
        assert mm.verdict.holds and checkers.min_mass(m, LinSpace(ls.basis)).verdict.holds
        for row in tree_report["verdicts"]:
            assert validate_verdict(m, ls, row, doc.extras())
        # The gain attains c* and is at least -1 on the support.
        coefficients, x = _by_value(mm.gain)
        gain = [x.at(c) for c in m.support()]
        assert min(gain) >= -1 and max(gain) == F(_cstar_of(tree_report["verdicts"][2]))
        assert ls.combine(coefficients) == x
    assert min(paths.values()) >= 40 and len(paths) == 3


def test_library_checkers_return_the_report_rows_on_a_trading_space():
    # A trading space keeps its filtration tree, so the one-condition
    # checkers decide (3) on it as the report does and return its rows.
    markets = [example_bp(8, 4)[:3], example_bp(40, 38)[:3], example_dmw(F(1, 3), 3)]
    markets += [random_tree_model(seed) for seed in range(100)]
    checks = {
        "(3)": checkers.find_emfap,
        "(4)": checkers.check_acmfap,
        "(6)": checkers.check_no_arbitrage,
        "(10)": checkers.check_norm_closure,
    }
    for m, f, s in markets:
        report = build_report(_roundtrip(serialize_model(m, filtration=f, process=s)))
        rows = {row["condition"]: row for row in report["verdicts"]}
        ls = trading_space(f, s, m)
        for condition, check in checks.items():
            assert check(m, ls).to_dict() == rows[condition]


def test_a_space_copied_by_hand_is_decided_by_the_lp(monkeypatch):
    # A copy keeps the generators but not the tree: one min-mass solve, to
    # the verdict and least weight the tree gives, with a valid row.
    for m, f, s in (example_bp(8, 4)[:3], example_dmw(F(1, 3), 3)):
        ls = trading_space(f, s, m)
        tree = checkers.min_mass(m, ls).verdict
        calls = counting_solves(monkeypatch)
        lp = checkers.min_mass(m, copy.copy(ls)).verdict
        monkeypatch.undo()
        assert len(calls) == 1 and lp.holds == tree.holds
        assert lp.certificate["minimum_weight"] == tree.certificate["minimum_weight"]
        assert validate_verdict(m, ls, lp.to_dict())


def _model_docs():
    for seed in range(200):
        m, ls = random_finite_model(seed)
        yield _roundtrip(serialize_model(m, lin_space=ls))
    for doc in _pinned_model_files():
        yield parse_model(doc)


def test_4_and_6_read_off_3_agree_with_fresh_checks():
    outcomes = set()
    for doc in _model_docs():
        m, ls = doc.model, doc.lin_space
        mm = checkers.min_mass(m, ls)
        for derived, fresh in (
            (checkers.acmfap_from(m, mm), acmfap_holds(m, ls)),
            (checkers.no_arbitrage_from(m, mm), no_arbitrage_holds(m, ls)),
        ):
            assert derived.holds == fresh
            assert validate_verdict(m, ls, derived.to_dict())
        relabelled = checkers.norm_closure_from(checkers.no_arbitrage_from(m, mm))
        assert validate_verdict(m, ls, relabelled.to_dict())
        outcomes.add((mm.verdict.holds, checkers.acmfap_from(m, mm).holds))
    # (3) holds; (3) fails where (4) holds (least weight zero); both fail.
    assert outcomes == {(True, True), (False, True), (False, False)}


def test_4_and_7_agree_with_the_programs_they_replaced():
    # (4) and (7) are each decided by one program and fail with a gain
    # read off its Farkas vector.  The reference: (4) fails exactly when
    # a gain at most -1 on the support exists, and (7) fails exactly when
    # some event's unit-ball dominance program is unbounded or negative.
    failing = {"(4)": 0, "(7)": 0}
    for doc in _model_docs():
        m, ls, extras = doc.model, doc.lin_space, doc.extras()
        acm = checkers.check_acmfap(m, ls)
        negative = solve(negative_gain_lp(m, ls))
        assert acm.holds == isinstance(negative, Infeasible)
        dominance = checkers.check_event_dominance(ls, doc.previsions, doc.events, m)
        violated = False
        for event in doc.events:
            out = solve(event_dominance_lp(m, ls, doc.previsions, event))
            violated = violated or isinstance(out, Unbounded) or out.value < 0
        assert dominance.holds != violated
        for v in (acm, dominance):
            assert validate_verdict(m, ls, v.to_dict(), extras)
            failing[v.condition] += not v.holds
        if not dominance.holds:
            least = frozenset.intersection(*doc.events)
            assert event_from_payload(dominance.certificate["event"]) == least
    assert failing["(4)"] > 50 and failing["(7)"] > 50


def _rebuilt(doc, basis, previsions, perm=None):
    """``doc`` with a new generating list and previsions, and explicit
    state i moved to ``perm[i]``: its mass, its generator values and its
    place in every event with it."""
    perm = perm or list(range(doc.model.n_states))

    def moved(values):
        out = [None] * len(values)
        for i, v in zip(perm, values):
            out[i] = v
        return tuple(out)

    m = doc.model
    basis = tuple(RandVar(moved(x.values), x.tail_value) for x in basis)
    events = [frozenset(c if c == TAIL else perm[c] for c in e) for e in doc.events]
    return _roundtrip(
        serialize_model(
            Model(moved(m.p0_mass), m.p0_tail),
            lin_space=LinSpace(basis),
            previsions=previsions,
            events=events,
        )
    )


def _permute_states_and_duplicate_a_generator(doc, rng):
    perm = list(range(doc.model.n_states))
    rng.shuffle(perm)
    basis, e = doc.lin_space.basis, doc.previsions
    dup = rng.randrange(len(basis))
    return _rebuilt(doc, basis + basis[dup : dup + 1], e + e[dup : dup + 1], perm)


def _scale_a_generator(doc, rng):
    basis, e = list(doc.lin_space.basis), list(doc.previsions)
    k = rng.randrange(len(basis))
    a = F(rng.randint(1, 9), rng.randint(1, 9))
    basis[k], e[k] = basis[k].scaled(a), a * e[k]
    return _rebuilt(doc, tuple(basis), tuple(e))


def _append_a_combination_of_generators(doc, rng):
    basis, e = doc.lin_space.basis, doc.previsions
    coeffs = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in basis]
    combo = basis[0].scaled(coeffs[0])
    for b, x in zip(coeffs[1:], basis[1:]):
        combo = combo.plus(x.scaled(b))
    prevision = sum((b * v for b, v in zip(coeffs, e)), F(0))
    return _rebuilt(doc, basis + (combo,), e + (prevision,))


def _permute_generators(doc, rng):
    order = list(range(len(doc.lin_space.basis)))
    rng.shuffle(order)
    basis, e = doc.lin_space.basis, doc.previsions
    return _rebuilt(doc, tuple(basis[k] for k in order), tuple(e[k] for k in order))


def _split_a_charged_state(doc, rng):
    """``doc`` with a new last state: a copy of a charged state, with its
    generator values, a share of its mass and a place in each of its events."""
    m = doc.model
    i, new = rng.choice(m.charged_states()), m.n_states
    share = m.p0_mass[i] * F(rng.randint(1, 4), 5)
    masses = list(m.p0_mass) + [share]
    masses[i] -= share
    basis = [RandVar(x.values + (x.values[i],), x.tail_value) for x in doc.lin_space.basis]
    events = [e | {new} if i in e else e for e in doc.events]
    return _roundtrip(
        serialize_model(
            Model(masses, m.p0_tail),
            lin_space=LinSpace(basis),
            previsions=doc.previsions,
            events=events,
        )
    )


def test_report_is_invariant_under_state_order_and_duplicate_generators():
    # Verdicts depend on the span and the law, and (7) and coherence on
    # the previsions as a functional on the span, so transforming the
    # previsions with the generators must leave them as they are.  The
    # (4) and (7) witnesses depend on the order of the coordinates and
    # of the generators; the verdicts and c* must not, and every
    # certificate must stay valid.  Splitting a charged state into two
    # copies with its values changes neither the span's values on the
    # support nor the largest mass a martingale pmf can put on a value.
    docs = list(_model_docs())
    for transform in (
        _permute_states_and_duplicate_a_generator,
        _scale_a_generator,
        _append_a_combination_of_generators,
        _permute_generators,
        _split_a_charged_state,
    ):
        rng = random.Random(2024)
        for doc in rng.sample(docs[:200], 40) + docs[200:]:
            if not doc.lin_space.basis:
                continue
            new = transform(doc, rng)
            facts = []
            for d in (doc, new):
                rows = build_report(d)["verdicts"]
                for row in rows:
                    assert validate_verdict(d.model, d.lin_space, row, d.extras())
                facts.append([(r["condition"], r["holds"], _cstar_of(r)) for r in rows])
            assert facts[0] == facts[1], transform.__name__


@given(
    seed=st.integers(0, 10**6),
    perm_seed=st.integers(0, 2**32 - 1),
    transform=st.sampled_from(
        [
            _permute_states_and_duplicate_a_generator,
            _scale_a_generator,
            _append_a_combination_of_generators,
            _permute_generators,
            _split_a_charged_state,
        ]
    ),
)
@settings(max_examples=100, deadline=None)
def test_verdicts_and_cstar_are_invariant_under_permutations(seed, perm_seed, transform):
    # The order of the states and of the generators, a repeated, rescaled
    # or combined generator, and a charged state split in two change no
    # verdict and no c* (the seeded loop above says why).
    doc = _roundtrip(serialize_model(*random_finite_model(seed)))
    assume(doc.lin_space.basis)
    new = transform(doc, random.Random(perm_seed))
    facts = [
        [(r["condition"], r["holds"], _cstar_of(r)) for r in build_report(d)["verdicts"]]
        for d in (doc, new)
    ]
    assert facts[0] == facts[1]


def _unit_weight_models():
    m, f, s = example_dmw(F(1, 3), 3)
    yield _roundtrip(serialize_model(m, filtration=f, process=s))
    for seed in range(10):
        m, ls = random_finite_model(seed)
        yield _roundtrip(serialize_model(m, lin_space=ls))


@pytest.mark.parametrize("doc", list(_unit_weight_models()))
def test_report_5star_row_equals_a_fresh_check(doc):
    m, ls = doc.model, doc.lin_space
    weight = constant(1, m)
    fresh = checkers.verify_condition5star(m, ls, weight).to_dict()
    rows = {v["condition"]: v for v in build_report(doc)["verdicts"]}
    assert fresh == rows["(5*)"]
    assert validate_verdict(m, ls, fresh, {**doc.extras(), "weight": weight})


@pytest.mark.parametrize(
    "key, value",
    [
        ("events", [1]),
        ("filtration", [[[0, 1, 2, 3]], [[0, 1], 2]]),
    ],
)
def test_non_list_blocks_are_invalid_input(tmp_path, capsys, key, value):
    m, f, s = example_dmw(F(1, 3), 2)
    doc = serialize_model(m, filtration=f, process=s)
    doc[key] = value
    with pytest.raises(InvalidInput, match=f"'{key}': a block must be a list"):
        parse_model(doc)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid input: '{key}'" in err
    assert "TypeError" not in err


def test_report_on_harmonic_rows():
    m, ls = example_harmonic(4)
    doc = parse_model(json.loads(json.dumps(serialize_model(m, lin_space=ls))))
    report = build_report(doc)
    verdicts = {v["condition"]: v["holds"] for v in report["verdicts"]}
    assert verdicts["(4)"] is True
    assert verdicts["(6)"] is False
    assert verdicts["(3)"] is False
    assert verdicts["(10)"] is False
    assert verdicts["(8)"] is True  # the generator vanishes at the tail


# --------------------------------------------------------------------------
# Report oracle: the assembled report JSON, pinned by digest
# --------------------------------------------------------------------------


def _pinned_model_files():
    """Model files whose serialized form and report the digest pins."""
    m, f, s, _q = example_bp(8, 4)
    docs = [serialize_model(m, filtration=f, process=s)]
    for n in (2, 3):
        m, f, s = example_dmw(F(1, 3), n)
        docs.append(serialize_model(m, filtration=f, process=s))
    m, ls = example_harmonic(5)
    docs.append(serialize_model(m, lin_space=ls))
    for seed in range(60):
        m, ls = random_finite_model(seed)
        docs.append(serialize_model(m, lin_space=ls))
    # State 2 is uncharged.  The least event {2, tail} carries the (7)
    # representation (mass 3/5 at state 2, 2/5 at the tail), while the
    # first prevision, 3, lies outside the first generator's range [-1, 1]
    # on the coherence coordinates {0, 1, tail}, so coherence fails with a
    # sure-loss bet.  Model files list the tail last in an event;
    # certificates list it first.
    m = Model((F(1, 2), F(1, 4), F(0)), F(1, 4))
    ls = LinSpace((RandVar((F(1), F(-1), F(5)), F(0)), RandVar((F(1), F(1), F(2)), F(-2))))
    events = (frozenset({1, 2, TAIL}), frozenset({2, TAIL}))
    docs.append(serialize_model(m, lin_space=ls, previsions=(F(3), F(2, 5)), events=events))
    return docs


def test_report_digest_is_pinned():
    digest = hashlib.sha256()
    kinds = set()
    for doc in _pinned_model_files():
        blob = json.dumps(doc, indent=2)
        digest.update(blob.encode() + b"\n")
        report = build_report(parse_model(json.loads(blob)))
        digest.update(json.dumps(report, indent=2).encode() + b"\n")
        kinds.update((v["condition"], v["certificate"]["kind"]) for v in report["verdicts"])
    assert {("(7)", "representing_fap"), ("coherence", "sure_loss_bet")} <= kinds
    assert digest.hexdigest() == REPORT_DIGEST


REPORT_DIGEST = "f445b003fb08083dc64b922a34fba808a49c7dcb4ae0dcc2d14f7d7c41566dd0"


def _cstar_of(row):
    cert = row["certificate"]
    if row["condition"] == "(5*)" and row["holds"]:
        cert = cert["cstar"]
    return cert["value"] if cert["kind"] == "cstar_bound" else None


def test_verdict_digest_is_pinned():
    # Verdicts and c* only, plus the full certificate of every failing
    # (5) and (5*) row, which carries the arbitrage of the (3) solve:
    # these do not depend on which ratio programs the (5) sweep solves or
    # on the pmfs that certify c*.
    digest = hashlib.sha256()
    for doc in _pinned_model_files():
        report = build_report(parse_model(json.loads(json.dumps(doc))))
        for row in report["verdicts"]:
            fact = [row["condition"], row["holds"], _cstar_of(row)]
            if row["condition"] in ("(5)", "(5*)") and not row["holds"]:
                fact.append(row["certificate"])
            digest.update(json.dumps(fact, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == VERDICT_DIGEST


VERDICT_DIGEST = "f85528275ae505e23fff0a3fa95b3b4bfd37e6cf7744808c8b93d90a5666e945"


def test_verdicts_and_cstar_digest_is_pinned():
    # Verdicts and c* only, with no certificate: whichever programs a
    # report solves and whichever certificates it reads off them, these
    # facts about the model stay the same.
    digest = hashlib.sha256()
    for doc in _pinned_model_files():
        report = build_report(parse_model(json.loads(json.dumps(doc))))
        for row in report["verdicts"]:
            fact = [row["condition"], row["holds"], _cstar_of(row)]
            digest.update(json.dumps(fact).encode() + b"\n")
    assert digest.hexdigest() == VERDICTS_AND_CSTAR_DIGEST


VERDICTS_AND_CSTAR_DIGEST = "5ea1053a922830f8b41988d25786bd7415dc18ed548395e948a20865de085362"


def test_dominance_and_coherence_rows_are_pinned():
    # The full (7) and coherence rows, certificates included: each is
    # read off (4) where its program is the (4) program, and otherwise
    # decided by its representation program, solved once when the two
    # programs are equal.
    digest = hashlib.sha256()
    for doc in _pinned_model_files():
        report = build_report(parse_model(json.loads(json.dumps(doc))))
        for row in report["verdicts"]:
            if row["condition"] in ("(7)", "coherence"):
                digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == DOMINANCE_COHERENCE_DIGEST


DOMINANCE_COHERENCE_DIGEST = "45f3415e9d170508b97c72ab5282aee4ec4fb4a12961dfa3d1bfdc52fe1e90e8"


def test_holding_4_and_7_and_coherence_rows_are_pinned():
    # The full holding (4) and (7) rows and every coherence row,
    # certificates included.  A failing (4) or (7) carries a witness read
    # off whichever program decided it; a holding one and coherence do
    # not depend on how the failures are searched.
    digest = hashlib.sha256()
    for doc in _pinned_model_files():
        report = build_report(parse_model(json.loads(json.dumps(doc))))
        for row in report["verdicts"]:
            if row["condition"] == "coherence" or (
                row["condition"] in ("(4)", "(7)") and row["holds"]
            ):
                digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == HOLDING_AND_COHERENCE_DIGEST


HOLDING_AND_COHERENCE_DIGEST = "b35946c4b79223d39679e8c8c46fd79a2ad8531536388dc2b95270b049f3e3a0"


def test_solved_dominance_and_coherence_rows_are_pinned():
    # The full (7) and coherence rows where the first prevision is 1/3,
    # so that neither program is the (4) program and each is solved: on
    # the default events (the support) and on the family of all states.
    digest = hashlib.sha256()
    kinds = Counter()
    for seed in range(60):
        m, ls = random_finite_model(seed)
        previsions = (F(1, 3),) + (F(0),) * (len(ls.basis) - 1)
        for events in (None, (frozenset(range(m.n_states)),)):
            doc = serialize_model(m, lin_space=ls, previsions=previsions, events=events)
            for row in build_report(_roundtrip(doc))["verdicts"]:
                if row["condition"] in ("(7)", "coherence"):
                    kinds[row["condition"], row["holds"]] += 1
                    digest.update(json.dumps(row, sort_keys=True).encode() + b"\n")
    assert min(kinds.values()) >= 10 and len(kinds) == 4
    assert digest.hexdigest() == SOLVED_DOMINANCE_COHERENCE_DIGEST


SOLVED_DOMINANCE_COHERENCE_DIGEST = "24f4cc558a98a8b3d547c3c63333c9383c094aa0673b9df61a1273be02973b2d"


def test_fuzz_report_digest_is_pinned():
    # Whole reports over the fuzz corpus's shapes (up to 6 states and 4
    # gains): failing (3) rows of both claims, t* = 0 and holding ones,
    # all read off the one (3) decision.
    digest = hashlib.sha256()
    for seed in range(600):
        doc = parse_model(serialize_model(*random_finite_model(seed, 6, 4)))
        digest.update(json.dumps(build_report(doc)).encode())
    assert digest.hexdigest() == FUZZ_REPORT_DIGEST


FUZZ_REPORT_DIGEST = "aa5406b1ceae0a6ae14a8c810615cf525a54096d8af3869dd6c166a269773092"


def test_unit_weight_5star_attaches_the_4_functional():
    seen = 0
    for doc in _pinned_model_files():
        report = build_report(parse_model(json.loads(json.dumps(doc))))
        rows = {row["condition"]: row for row in report["verdicts"]}
        if "(5*)" in rows and rows["(5*)"]["holds"]:
            assert rows["(5*)"]["certificate"]["qstar"] == rows["(4)"]["certificate"]
            seen += 1
    assert seen > 10


def test_default_reports_read_their_rows_off_the_3_decision(monkeypatch):
    # On default inputs no row recomputes the (3) arbitrage or the
    # unit-weight Q*, and no (7) or coherence row solves a representation
    # program: the (3) decision decides both.
    def refused(*args, **kwargs):
        raise AssertionError("recomputed what the (3) decision holds")

    docs = [_roundtrip(serialize_model(*random_finite_model(seed))) for seed in range(288)]
    docs += [_roundtrip(serialize_model(*example_harmonic(n))) for n in (3, 5)]
    holding = [checkers.min_mass(doc.model, doc.lin_space).verdict.holds for doc in docs]
    monkeypatch.setattr(checkers, "coherence_lp", refused)
    monkeypatch.setattr(checkers, "qstar_from_weight", refused)
    monkeypatch.setattr(RandVar, "scaled", refused)
    combine = LinSpace.combine
    failing = 0
    for doc, holds in zip(docs, holding):
        # A failing (3) combines no gain at all: its arbitrage is formed once.
        monkeypatch.setattr(LinSpace, "combine", combine if holds else refused)
        report = build_report(doc)
        failing += not report["verdicts"][0]["holds"]
    assert failing > 100
