"""Command line contract: exit codes, formats, and the certify loop."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from famart import checkers, lp, programs
from famart.certificates import CertificateFormat, validate_verdict
from famart.checkers import weighted_space
from famart.cli import main
from famart.core import RandVar, int_row, rat, rat_str
from famart.kernel import dual_rows, farkas_rows
from famart.modelio import CONDITION_ORDER, load_model_file


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture()
def harmonic_file(tmp_path):
    path = tmp_path / "harmonic.json"
    assert main(["examples", "harmonic", "--N", "5", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def dmw_file(tmp_path):
    path = tmp_path / "dmw.json"
    assert main(["examples", "dmw", "--p", "1/3", "--n", "2", "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def bp_file(tmp_path):
    path = tmp_path / "bp.json"
    assert main(["examples", "bp", "--N", "8", "--k", "4", "--out", str(path)]) == 0
    return str(path)


def test_check_exit_codes_follow_verdicts(harmonic_file, dmw_file, capsys):
    code, out = run_cli(["check", harmonic_file, "--condition", "6"], capsys)
    assert code == 1
    verdict = json.loads(out)
    assert verdict["certificate"]["kind"] == "arbitrage_vector"
    code, _ = run_cli(["check", harmonic_file, "--condition", "4"], capsys)
    assert code == 0
    code, _ = run_cli(["check", dmw_file, "--condition", "6"], capsys)
    assert code == 0


def test_check_accepts_parenthesised_condition(dmw_file, capsys):
    code, _ = run_cli(["check", dmw_file, "--condition", "(6)"], capsys)
    assert code == 0


def test_check_unknown_condition_is_invalid(dmw_file, capsys):
    assert main(["check", dmw_file, "--condition", "9"]) == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["6", "--weight", "missing.json"], "--weight applies to condition 5* only"),
        (["3", "--c", "1/2"], "--c is the constant of the bound against --q"),
        (["4", "--q", "p0"], "--q and --c apply to condition 3 only"),
        (["5", "--c", "1/2"], "--q and --c apply to condition 3 only"),
    ],
)
def test_check_rejects_flags_that_do_not_apply(dmw_file, capsys, args, message):
    assert main(["check", dmw_file, "--condition", *args]) == 2
    assert f"invalid input: {message}" in capsys.readouterr().err


def test_check_rejects_a_condition_that_is_not_a_report_row(
    dmw_file, bp_file, tmp_path, capsys
):
    empty = tmp_path / "empty.json"
    empty.write_text('{"states": 2, "tail": false, "p0": ["1/2", "1/2"], "basis": []}')
    for path, cond in ((dmw_file, "8"), (bp_file, "5*"), (str(empty), "coherence")):
        assert main(["check", path, "--condition", cond]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "invalid input: condition '8' is not a row of this model's report; "
        "its rows are 3, 4, 5, 5*, 6, 7, 10, coherence",
        "invalid input: condition '5*' is not a row of this model's report; "
        "its rows are 3, 4, 5, 6, 7, 8, 10, coherence",
        "invalid input: condition 'coherence' is not a row of this model's "
        "report; its rows are 3, 4, 5, 5*, 6, 7, 10",
    ]


def test_check_rejects_events_not_closed_under_intersection(tmp_path, capsys):
    # check builds the whole report, whose (7) row needs an
    # intersection-closed family: every condition exits 2 on such a file,
    # as report does.
    path = tmp_path / "open_events.json"
    path.write_text(
        '{"states": 3, "tail": false, "p0": ["1/3", "1/3", "1/3"],'
        ' "basis": [{"values": ["1", "0", "-1"]}], "events": [[0, 1], [1, 2]]}'
    )
    for cond in ("3", "6", "7"):
        assert main(["check", str(path), "--condition", cond]) == 2
    assert main(["report", str(path)]) == 2
    message = "invalid input: events are not closed under intersection: [0, 1] and [1, 2]"
    assert capsys.readouterr().err.splitlines() == [message] * 4


def _row_models(tmp_path):
    """Model files: finite-random seeds 0-199, bp N=5 and 8, dmw n=3 and
    5, and harmonic N=5."""
    examples = [["finite-random", "--seed", str(seed)] for seed in range(200)]
    examples += [["bp", "--N", "5", "--k", "2"], ["bp", "--N", "8", "--k", "4"]]
    examples += [["dmw", "--n", "3"], ["dmw", "--n", "5"], ["harmonic", "--N", "5"]]
    for k, example in enumerate(examples):
        path = str(tmp_path / f"model_{k}.json")
        assert main(["examples", *example, "--out", path]) == 0
        yield path


def test_check_prints_the_report_row(tmp_path, monkeypatch, capsys):
    # check --condition C prints the report's row C byte for byte, and
    # exits with its verdict.  A condition that is not a row exits 2
    # before any program is solved.
    def no_solve(lp):
        raise AssertionError("a condition that is not a row was solved")

    checked = 0
    for path in _row_models(tmp_path):
        code, out = run_cli(["report", path], capsys)
        assert code == 0
        rows = json.loads(out)["verdicts"]
        for row in rows:
            code, out = run_cli(["check", path, "--condition", row["condition"]], capsys)
            assert out == json.dumps(row, indent=2) + "\n"
            assert code == (0 if row["holds"] else 1)
            checked += 1
        labels = [row["condition"] for row in rows]
        with monkeypatch.context() as patched:
            patched.setattr(lp, "solve", no_solve)
            patched.setattr(checkers, "solve", no_solve)
            for cond in CONDITION_ORDER:
                if cond not in labels:
                    assert main(["check", path, "--condition", cond]) == 2
    assert checked > 1600


def test_check_exits_3_when_the_report_audit_fires(dmw_file, monkeypatch, capsys):
    no_arbitrage_from = checkers.no_arbitrage_from

    def flipped(m, mm):
        v = no_arbitrage_from(m, mm)
        return checkers.Verdict(v.condition, not v.holds, v.certificate, v.narrative)

    monkeypatch.setattr(checkers, "no_arbitrage_from", flipped)
    assert main(["check", dmw_file, "--condition", "4"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("audit failure: implication audit failed")


def test_check_invalid_file_is_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": 2, "tail": false, "p0": ["1/2", "1/3"], "basis": []}')
    assert main(["check", str(bad), "--condition", "6"]) == 2
    missing = tmp_path / "missing.json"
    assert main(["check", str(missing), "--condition", "6"]) == 2


def test_check_condition3_with_explicit_q(dmw_file, capsys):
    code, out = run_cli(
        ["check", dmw_file, "--condition", "3", "--q", "p0", "--c", "1/2"], capsys
    )
    assert code == 0
    assert json.loads(out)["certificate"]["claim"] == "min_at_least"
    assert json.loads(out)["certificate"]["c"] == "1/2"
    code, out = run_cli(["check", dmw_file, "--condition", "3", "--q", "p0"], capsys)
    assert code == 0
    assert json.loads(out)["certificate"]["c"] == "1/1"


def test_check_condition3_rejects_a_q_file_that_is_not_a_pmf(dmw_file, tmp_path, capsys):
    path = tmp_path / "q.json"
    path.write_text("[1, 2]")
    assert main(["check", dmw_file, "--condition", "3", "--q", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"invalid input: --q file {path} is not a pmf" in err
    assert "certificate" not in err


def test_unreadable_side_files_are_exit_two(dmw_file, bp_file, tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    for side in (missing, str(garbled)):
        assert main(["check", dmw_file, "--condition", "5*", "--weight", side]) == 2
        assert main(["check", bp_file, "--condition", "5*", "--weight", side]) == 2
        assert main(["check", dmw_file, "--condition", "3", "--q", side]) == 2
        assert main(["certify", dmw_file, side]) == 2
        assert main(["report", side]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"cannot read {missing}" in err
    assert f"{garbled} is not valid JSON" in err


def test_check_condition5star_with_weight_file(bp_file, tmp_path, capsys):
    weight = {"values": ["1"] * 8, "tail": "0"}
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(weight))
    code, out = run_cli(["check", bp_file, "--condition", "5*", "--weight", str(path)], capsys)
    assert code == 0
    verdict = json.loads(out)
    assert verdict["condition"] == "(5*)" and verdict["holds"]
    assert verdict["certificate"]["weight"] == {"values": ["1/1"] * 8, "tail": "0/1"}


@pytest.mark.parametrize(
    "weight, message",
    [
        ({"values": "11111111", "tail": "0"}, "weight: 'values' must be a list"),
        ([["1"] * 8, "0"], "weight must be an object with a 'values' list"),
        ({"values": ["1"] * 8}, "weight lacks a tail value on a tail model"),
    ],
)
def test_check_condition5star_rejects_malformed_weight(
    bp_file, tmp_path, capsys, weight, message
):
    path = tmp_path / "weight.json"
    path.write_text(json.dumps(weight))
    assert main(["check", bp_file, "--condition", "5*", "--weight", str(path)]) == 2
    assert f"invalid input: {message}" in capsys.readouterr().err


def test_check_condition5star_rejects_string_weight_on_dmw(dmw_file, tmp_path, capsys):
    # Four characters on a four-state model must not pass as four values.
    path = tmp_path / "weight.json"
    path.write_text('{"values": "1111"}')
    assert main(["check", dmw_file, "--condition", "5*", "--weight", str(path)]) == 2
    assert "'values' must be a list" in capsys.readouterr().err


def test_examples_bp_file_values(bp_file):
    doc = json.loads(Path(bp_file).read_text())
    assert doc["states"] == 8
    assert doc["tail"] is True
    assert doc["p0"][0] == "1/2"
    assert doc["p0_tail"] == "1/256"


def test_examples_dmw_masses(tmp_path, capsys):
    code, out = run_cli(["examples", "dmw", "--p", "1/3", "--n", "2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["p0"] == ["1/9", "2/9", "2/9", "4/9"]
    assert "basis" not in doc  # dynamics files carry filtration + process


def test_examples_harmonic_values(tmp_path, capsys):
    code, out = run_cli(["examples", "harmonic", "--N", "5"], capsys)
    doc = json.loads(out)
    assert doc["basis"][0]["values"] == ["1/1", "1/2", "1/3", "1/4", "1/5"]
    assert doc["basis"][0]["tail"] == "0/1"


def test_examples_finite_random_is_reproducible(capsys):
    _, out1 = run_cli(["examples", "finite-random", "--seed", "11"], capsys)
    _, out2 = run_cli(["examples", "finite-random", "--seed", "11"], capsys)
    assert out1 == out2
    _, out3 = run_cli(["examples", "finite-random", "--seed", "12"], capsys)
    assert out1 != out3


def test_examples_bad_params_exit_two(tmp_path, capsys):
    assert main(["examples", "dmw", "--p", "1/2", "--n", "2"]) == 2
    assert main(["examples", "bp", "--N", "3", "--k", "3"]) == 2
    for flag in ("--max-states", "--max-basis"):
        for bad in ("0", "-3"):
            assert main(["examples", "finite-random", flag, bad]) == 2
    out = tmp_path / "missing" / "dmw.json"
    assert main(["examples", "dmw", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "max_states >= 1 and max_basis >= 1" in err
    assert f"cannot write {out}" in err


def test_json_python_cannot_read_is_exit_two(dmw_file, tmp_path, capsys):
    # Valid JSON that json.load still rejects: an integer literal past
    # CPython's 4300-digit limit, and nesting past the recursion limit.
    long_int = tmp_path / "long_int.json"
    long_int.write_text('{"masses": [' + "1" * 5000 + "]}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for side in (str(long_int), str(deep)):
        assert main(["report", side]) == 2
        assert main(["check", side, "--condition", "4"]) == 2
        assert main(["certify", dmw_file, side]) == 2
        assert main(["check", dmw_file, "--condition", "3", "--q", side]) == 2
        assert main(["check", dmw_file, "--condition", "5*", "--weight", side]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{long_int} holds JSON too large to read" in err
    assert f"{deep} holds JSON too large to read" in err


def test_report_runs_everything(bp_file, capsys):
    code, out = run_cli(["report", bp_file], capsys)
    assert code == 0
    report = json.loads(out)
    conditions = [v["condition"] for v in report["verdicts"]]
    assert conditions == ["(3)", "(4)", "(5)", "(6)", "(7)", "(8)", "(10)", "coherence"]
    assert all(report["implications"].values())


def test_report_text_format(dmw_file, capsys):
    code, out = run_cli(["report", dmw_file, "--format", "text"], capsys)
    assert code == 0
    assert "(6) holds" in out


def test_certify_roundtrip_and_tamper(bp_file, tmp_path, capsys):
    code, out = run_cli(["check", bp_file, "--condition", "3"], capsys)
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    assert main(["certify", bp_file, str(cert_path)]) == 0
    capsys.readouterr()

    verdict = json.loads(out)
    verdict["certificate"]["fap"]["mass"][0] = "1/7"
    cert_path.write_text(json.dumps(verdict))
    assert main(["certify", bp_file, str(cert_path)]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("first", ["0", "-1"])
def test_certify_rejects_a_5star_verdict_with_inadmissible_weight(
    dmw_file, tmp_path, capsys, first
):
    # The weight vanishes (or is negative) at charged state 0, so the
    # weighted family has a nonnegative direction; the verdict's own
    # arithmetic checks out, but (5*) is not asked about such a weight.
    doc = load_model_file(dmw_file)
    m, ls = doc.model, doc.lin_space
    y = RandVar((rat(first), F(1), F(1), F(1)))
    weighted = weighted_space(m, ls, y)
    inner = checkers.cstar_verdict(m, weighted, checkers.min_mass(m, weighted))
    verdict = checkers.weighted_ratio_from(m, y, inner, None).to_dict()
    assert not verdict["holds"]
    assert not validate_verdict(m, ls, verdict, {"weight": y})
    assert not validate_verdict(m, ls, verdict)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(verdict))
    assert main(["certify", dmw_file, str(cert_path)]) == 1
    assert json.loads(capsys.readouterr().out) == {"valid": False}


def test_certify_checks_every_verdict_of_a_report(bp_file, dmw_file, tmp_path, capsys):
    code, out = run_cli(["report", bp_file], capsys)
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run_cli(["certify", bp_file, str(path)], capsys) == (0, '{"valid": true}\n')

    # A report of another model fails on its digest.
    assert main(["certify", dmw_file, str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"valid": False}
    assert captured.err == "not valid: model_digest\n"

    # A changed coordinate fails its row, which stderr names.
    report = json.loads(out)
    row = report["verdicts"][2]
    assert row["condition"] == "(5)" and row["certificate"]["kind"] == "cstar_bound"
    row["certificate"]["value"] = rat_str(rat(row["certificate"]["value"]) + 1)
    path.write_text(json.dumps(report))
    assert main(["certify", bp_file, str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"valid": False}
    assert captured.err == "not valid: (5)\n"

    # A malformed leaf is a malformed certificate.
    row["certificate"]["value"] = "1/0"
    path.write_text(json.dumps(report))
    assert main(["certify", bp_file, str(path)]) == 2
    assert "malformed certificate" in capsys.readouterr().err


def _first_leaf(node):
    """The container and key of the first rational leaf under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, val in items:
        if isinstance(val, str) and "/" in val:
            return node, key
        if isinstance(val, (dict, list)):
            found = _first_leaf(val)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize("seed", [7, 20], ids=["failing", "holding"])
@pytest.mark.parametrize("condition", ["(10)", "(5*)"])
def test_certify_names_a_row_whose_shared_certificate_alone_changed(
    tmp_path, capsys, seed, condition
):
    # In a report's own audit (10) carries the (6) certificate and (5*)
    # the (5) one, each checked once.  Read back from JSON every row has
    # its own copy, so a change to (10), or to the (5*) row's inner
    # certificate, with (6) and (5) intact, fails that row.
    model = tmp_path / "m.json"
    assert main(["examples", "finite-random", "--seed", str(seed), "--out", str(model)]) == 0
    code, out = run_cli(["report", str(model)], capsys)
    assert code == 0
    report = json.loads(out)
    rows = {v["condition"]: v for v in report["verdicts"]}
    assert rows["(3)"]["holds"] == (seed == 20)
    cert = rows[condition]["certificate"]
    node, key = _first_leaf(cert if condition == "(10)" else cert["cstar"])
    node[key] = rat_str(rat(node[key]) + 1)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    assert main(["certify", str(model), str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"valid": False}
    assert captured.err == f"not valid: {condition}\n"


def _as_written_before(m, ls, report):
    """A copy of ``report`` as it was written before certificates dropped
    what a verifier recomputes.  A Farkas row also held the row its
    weights combine to (``combined``, ``bound``), and a dual row its
    reduced costs and value (``reduced``, ``dual_value``).  A holding (6)
    and (10) held a Farkas vector over the ``>=``-only ``arbitrage``
    program: ``q_c - t*`` on each support row and ``t*`` on the total
    row, for the (3) support weights ``q >= t* > 0``."""
    old = copy.deepcopy(report)
    for row in old["verdicts"]:
        if row["condition"] in ("(6)", "(10)") and row["holds"]:
            weights, den = int_row(checkers.min_mass(m, ls).weights)
            t_star = min(weights)
            farkas = [rat_str(F(q - t_star, den)) for q in weights] + [rat_str(F(t_star, den))]
            row["certificate"] = {
                "kind": "farkas_witness", "lp": "arbitrage", "claim": "infeasible",
                "weights": farkas,
            }
            program = programs.arbitrage_rows(m, ls)
        elif row["certificate"]["kind"] == "farkas_witness":
            program = programs.martingale_mass_rows(m, ls)
        else:
            continue
        cert = row["certificate"]
        ys, den = int_row([rat(w) for w in cert["weights"]])
        if cert["claim"] == "infeasible":
            sums, d = farkas_rows(program, ys, den)
            *cert["combined"], cert["bound"] = (rat_str(F(n, d)) for n in sums)
        else:
            reduced, value, d = dual_rows(program, ys, den)
            cert["dual_value"] = rat_str(F(value, d))
            cert["reduced"] = [rat_str(F(n, d)) for n in reduced]
    return old


@pytest.mark.parametrize(
    "example",
    [
        ["dmw", "--n", "2"],
        ["bp", "--N", "8", "--k", "4"],
        ["finite-random", "--seed", "0"],
        ["finite-random", "--seed", "25"],
        ["harmonic", "--N", "5"],
    ],
    ids=["dmw", "bp", "infeasible", "max_at_most", "harmonic"],
)
def test_certify_reads_a_report_written_before_the_leaner_certificates(
    tmp_path, capsys, example
):
    # A holding (6) or (10) row over the arbitrage program names a
    # program validation no longer knows: malformed, exit 2.  Every other
    # row certifies with the dropped leaves still in it, as does a whole
    # report that has no such row.
    model = tmp_path / "m.json"
    assert main(["examples", *example, "--out", str(model)]) == 0
    doc = load_model_file(str(model))
    code, out = run_cli(["report", str(model)], capsys)
    old = _as_written_before(doc.model, doc.lin_space, json.loads(out))
    assert old != json.loads(out)
    path = tmp_path / "row.json"
    arbitrage_rows = 0
    for row in old["verdicts"]:
        path.write_text(json.dumps(row))
        code = main(["certify", str(model), str(path)])
        captured = capsys.readouterr()
        if row["certificate"].get("lp") == "arbitrage":
            arbitrage_rows += 1
            assert code == 2
            assert captured.err == "malformed certificate: unknown program id 'arbitrage'\n"
        else:
            assert (code, captured.out) == (0, '{"valid": true}\n'), row["condition"]
    path.write_text(json.dumps(old))
    assert main(["certify", str(model), str(path)]) == (2 if arbitrage_rows else 0)
    capsys.readouterr()
    assert arbitrage_rows == (2 if example[0] in ("dmw", "bp") else 0)


@pytest.fixture()
def dmw5_report(tmp_path, capsys):
    """A dmw n=5 model file and its report, which certifies."""
    model = tmp_path / "dmw5.json"
    assert main(["examples", "dmw", "--n", "5", "--out", str(model)]) == 0
    code, out = run_cli(["report", str(model)], capsys)
    assert code == 0
    report = json.loads(out)
    path = tmp_path / "report.json"
    path.write_text(out)
    assert run_cli(["certify", str(model), str(path)], capsys) == (0, '{"valid": true}\n')
    return str(model), path, report


def _certify_fails_on(model, path, report, capsys):
    path.write_text(json.dumps(report))
    assert main(["certify", model, str(path)]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out) == {"valid": False}
    return captured.err


def test_certify_rejects_a_report_without_rows(dmw5_report, capsys):
    model, path, report = dmw5_report
    report["verdicts"] = []
    assert _certify_fails_on(model, path, report, capsys) == "not valid: verdicts\n"
    report["verdicts"] = json.loads(path.read_text())["verdicts"]
    for k in range(len(report["verdicts"])):
        # Dropping any one row, the last included, fails the same way.
        cut = dict(report, verdicts=report["verdicts"][:k] + report["verdicts"][k + 1 :])
        assert _certify_fails_on(model, path, cut, capsys) == "not valid: verdicts\n"


def test_certify_rejects_a_report_with_a_repeated_row(dmw5_report, capsys):
    model, path, report = dmw5_report
    rows = report["verdicts"]
    assert [v["condition"] for v in rows] == [
        "(3)", "(4)", "(5)", "(5*)", "(6)", "(7)", "(10)", "coherence"
    ]
    report["verdicts"] = [rows[0]] * 3
    assert _certify_fails_on(model, path, report, capsys) == "not valid: verdicts\n"
    # A repeat beside every row, or two rows swapped, fails too.
    for wrong in (rows + rows[-1:], rows[1:2] + rows[:1] + rows[2:]):
        report["verdicts"] = wrong
        assert _certify_fails_on(model, path, report, capsys) == "not valid: verdicts\n"


def test_certify_rejects_a_report_with_false_implications(dmw5_report, capsys):
    model, path, report = dmw5_report
    assert all(report["implications"].values())
    for key in report["implications"]:
        wrong = dict(report, implications=dict(report["implications"], **{key: False}))
        assert _certify_fails_on(model, path, wrong, capsys) == "not valid: implications\n"
    report.pop("implications")
    assert _certify_fails_on(model, path, report, capsys) == "not valid: implications\n"


def test_oversized_output_is_exit_four(dmw_file, monkeypatch, capsys):
    # A valid model whose result would hold a 4401-digit rational: that
    # is not invalid input (exit 2) but output that cannot be written.
    def oversized(m, mm):
        return rat_str(F(10**4400))

    monkeypatch.setattr(checkers, "no_arbitrage_from", oversized)
    assert main(["check", dmw_file, "--condition", "6"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("output too large: ")
    assert "invalid input" not in captured.err


def test_certify_against_wrong_model(bp_file, harmonic_file, tmp_path, capsys):
    code, out = run_cli(["check", bp_file, "--condition", "3"], capsys)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    assert main(["certify", harmonic_file, str(cert_path)]) in (1, 2)
    capsys.readouterr()


def test_certify_malformed_certificate(bp_file, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    cert_path.write_text('{"condition": "(3)", "holds": true}')
    assert main(["certify", bp_file, str(cert_path)]) == 2
    capsys.readouterr()
    cert_path.write_text("not json at all")
    assert main(["certify", bp_file, str(cert_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("claim", [[], {"x": 1}])
def test_certify_unhashable_witness_claim_is_malformed(bp_file, tmp_path, capsys, claim):
    verdict = {
        "condition": "(4)",
        "holds": False,
        "certificate": {"kind": "witness", "claim": claim},
    }
    doc = load_model_file(bp_file)
    with pytest.raises(CertificateFormat, match="bad witness claim"):
        validate_verdict(doc.model, doc.lin_space, verdict)
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(verdict))
    assert main(["certify", bp_file, str(cert_path)]) == 2
    assert "malformed certificate: bad witness claim" in capsys.readouterr().err


@pytest.mark.parametrize("holds", ["yes", "false", 1, 0, None])
def test_certify_rejects_a_holds_that_is_not_a_boolean(dmw_file, tmp_path, capsys, holds):
    # The (3) row holds.  A truthy or falsy stand-in for true is malformed,
    # in a single verdict and in a row of a whole report.
    code, out = run_cli(["report", dmw_file], capsys)
    report = json.loads(out)
    row = report["verdicts"][0]
    assert code == 0 and row["condition"] == "(3)" and row["holds"] is True
    report["verdicts"][0] = bad = dict(row, holds=holds)
    doc = load_model_file(dmw_file)
    with pytest.raises(CertificateFormat, match="'holds' must be true or false"):
        validate_verdict(doc.model, doc.lin_space, bad)
    for payload in (bad, report):
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(payload))
        assert main(["certify", dmw_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"malformed certificate: 'holds' must be true or false, got {holds!r}\n"
        )


def _famart_modules(code, *args):
    """The famart modules loaded when a ``python -c code *args`` process
    ends, which ``code`` prints as its last line on stderr."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc, set(json.loads(proc.stderr.splitlines()[-1]))


_PRINT_MODULES = (
    "print(json.dumps([m for m in sys.modules if m.startswith('famart')]), file=sys.stderr)"
)


# The famart modules each command loads, besides famart.cli, which these
# processes run as ``__main__``.  certify re-validates by plain arithmetic,
# with the integer kernel, the integer program rows and the model-file
# codec; examples builds a model and writes it with the codec alone.
CERTIFY_MODULES = {
    "famart",
    "famart.certificates",
    "famart.core",
    "famart.fap",
    "famart.kernel",
    "famart.modelfile",
    "famart.programs",
    "famart.spaces",
}
EXAMPLES_MODULES = {
    "famart",
    "famart.core",
    "famart.examples",
    "famart.fap",
    "famart.modelfile",
    "famart.spaces",
}
# What check and report add to certify's modules: the report assembly,
# the checkers, the simplex and the certificate renderer.
REPORT_MODULES = CERTIFY_MODULES | {"famart.checkers", "famart.lp", "famart.modelio", "famart.render"}


@pytest.mark.parametrize("example", [("dmw", "--n", "3"), ("bp", "--N", "8", "--k", "4")])
def test_certify_loads_neither_the_checkers_nor_the_simplex(tmp_path, example):
    # Each command, started as ``python -m famart.cli`` starts it, loads
    # exactly the modules it runs: a certify process no checker, simplex,
    # report assembly, renderer or example builder; an examples process no
    # validator, program or solver; check and report no example builder.
    cli = (
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('famart.cli', run_name='__main__')\n"
        "finally:\n"
        f"    {_PRINT_MODULES}\n"
    )
    model, report = tmp_path / "m.json", tmp_path / "report.json"
    proc, loaded = _famart_modules(cli, "examples", *example, "--out", str(model))
    assert proc.returncode == 0
    assert loaded == EXAMPLES_MODULES
    proc, loaded = _famart_modules(cli, "report", str(model))
    assert proc.returncode == 0
    assert loaded == REPORT_MODULES
    report.write_text(proc.stdout)
    proc, loaded = _famart_modules(cli, "check", str(model), "--condition", "6")
    assert proc.returncode == 0
    assert loaded == REPORT_MODULES
    verdict = tmp_path / "v.json"
    verdict.write_text(json.dumps(json.loads(report.read_text())["verdicts"][0]))
    for path in (verdict, report):
        proc, loaded = _famart_modules(cli, "certify", str(model), str(path))
        assert (proc.returncode, proc.stdout) == (0, '{"valid": true}\n')
        assert loaded == CERTIFY_MODULES


def test_every_traced_name_resolves_without_adding_a_module_attribute():
    # The benchmark's tracer looks up each (module, name) of its TARGETS
    # after ``import famart.modelio`` and wraps it.  A name that moved
    # resolves through its old module's ``__getattr__``, which must not
    # keep what it returns: resolving every name adds no attribute to any
    # famart module, beyond the binding of a submodule it first loads.
    bench = Path(__file__).resolve().parents[1] / "bench"
    code = (
        "import importlib, json, sys, types\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "import spans\n"
        "import famart.modelio\n"
        "def attrs():\n"
        "    return {(n, a): v for n, mod in list(sys.modules.items())\n"
        "            if n == 'famart' or n.startswith('famart.') for a, v in vars(mod).items()}\n"
        "for module in sorted({module for module, _ in spans.TARGETS}):\n"
        "    importlib.import_module(module)\n"
        "before = attrs()\n"
        "missing = [f'{m}.{f}' for m, f in spans.TARGETS if not callable(getattr(sys.modules[m], f, None))]\n"
        "after = attrs()\n"
        "changed = sorted(f'{n}.{a}' for (n, a), v in after.items() if (n, a) in before and before[n, a] is not v)\n"
        "old = {n for n, _ in before}\n"
        "added = sorted(f'{n}.{a}' for (n, a), v in after.items()\n"
        "               if n in old and (n, a) not in before and not isinstance(v, types.ModuleType))\n"
        "print(json.dumps([len(spans.TARGETS), missing, changed, added]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    targets, missing, changed, added = json.loads(proc.stdout)
    assert targets > 40
    assert (missing, changed, added) == ([], [], [])


def test_importing_modelio_loads_the_checkers_and_the_simplex():
    # ``import famart`` loads no simplex; ``famart.modelio``, the report's
    # module, loads the checkers and the simplex with it.
    solver = {"famart.checkers", "famart.lp"}
    for module, expected in (("famart", set()), ("famart.modelio", solver)):
        proc, loaded = _famart_modules(f"import json, sys, {module}\n{_PRINT_MODULES}")
        assert proc.returncode == 0
        assert loaded & solver == expected


def test_console_script_subprocess(tmp_path):
    path = tmp_path / "dmw.json"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "famart.cli",
            "examples",
            "dmw",
            "--p",
            "1/3",
            "--n",
            "2",
            "--out",
            str(path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    proc = subprocess.run(
        [sys.executable, "-m", "famart.cli", "check", str(path), "--condition", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["holds"] is True


def test_report_is_unchanged_under_optimize_flag(dmw_file):
    """``python -O`` strips ``assert``; no verdict may depend on one."""
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "famart.cli", "report", dmw_file],
            capture_output=True,
            text=True,
        )
        for flags in ([], ["-O"])
    ]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert runs[1].stdout == runs[0].stdout
