"""Command line contract: exit codes, formats, and the certify loop."""

import json
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from famart import checkers, lp
from famart.certificates import CertificateFormat, validate_verdict
from famart.cli import main
from famart.core import RandVar, rat, rat_str
from famart.modelio import CONDITION_ORDER, load_model_file
from famart.programs import weighted_space


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

    def flipped(m, ls, mm):
        v = no_arbitrage_from(m, ls, mm)
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
    def oversized(m, ls, mm):
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
