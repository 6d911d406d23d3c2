"""Tests of the benchmark itself (span arithmetic, wrapper lifetime, the gate).

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import collections
import copy
import json
import sys
from fractions import Fraction

import corpus
import run
import spans

sys.path.insert(0, str(run.SRC))

from famart.modelio import build_report, parse_model, serialize_model  # noqa: E402
from famart.spaces import example_dmw, random_finite_model  # noqa: E402


def _report(doc: dict) -> dict:
    return json.loads(json.dumps(build_report(parse_model(doc))))


def _dmw2_report() -> dict:
    m, f, s = example_dmw("1/3", 2)
    return _report(serialize_model(m, filtration=f, process=s))


def _verdict(report: dict, condition: str) -> dict:
    return next(v for v in report["verdicts"] if v["condition"] == condition)


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    # root [0, 100] holds a [10, 40] and c [50, 90]; a holds b [15, 25].
    synthetic = [
        ("root", 0, 100, None, 1),
        ("a", 10, 40, 0, 1),
        ("b", 15, 25, 1, 1),
        ("c", 50, 90, 0, 1),
    ]
    assert spans.self_times(synthetic) == [30, 20, 10, 40]
    # A nested call of the same group counts once, in its outer caller.
    assert spans.covered(synthetic, {"a", "b"}) == (30, 1)
    assert spans.covered(synthetic, {"b", "c"}) == (50, 2)


def test_tracer_records_parents_and_ops():
    tracer = spans.Tracer()
    tracer.op = 7
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    (outer, inner) = tracer.spans
    assert outer[3] is None and inner[3] == 0
    assert outer[4] == inner[4] == 7
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_end_to_end_metrics_scale_each_op_by_its_probes():
    bench_run = run.Run("dmw-paths", 0)
    # Three ops; the second ran while the host was twice as slow.
    for report_s, factor in ((2.0, 1.0), (4.0, 0.5), (2.2, 1.0)):
        bench_run.ops.append(
            {"report_s": report_s, "cpu_s": report_s, "rss_mb": 20.0, "certify_s": 1.0,
             "report_f": factor, "certify_f": factor}
        )
    assert run.host_factor(run.PROBE_REF_S, run.PROBE_REF_S) == 1
    assert run.host_factor(2 * run.PROBE_REF_S) == 0.5
    report_ms = [run.scaled_median(bench_run.ops, "report_s", "report_f") * 1e3]
    metrics, samples = run.end_to_end(bench_run, report_ms, [1000.0], 20.0, 0.1)
    assert metrics["report_s_p50"] == 2.0
    assert metrics["model_report_ms_p50"] == metrics["model_report_ms_p95"] == 2000.0
    assert metrics["certify_s_p50"] == 1.0
    assert metrics["models_per_s"] == 1 / 3.0
    assert samples["report_s_p50"] == 3 and samples["model_report_ms_p50"] == 1


# --------------------------------------------------------------------------
# Wrapper lifetime
# --------------------------------------------------------------------------


def _famart_attrs() -> dict[tuple[str, str], object]:
    return {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "famart" or name.startswith("famart.")
        for attr, value in vars(module).items()
    }


def test_wrapped_attributes_are_restored_after_a_traced_run():
    import famart.cli  # noqa: F401

    before = _famart_attrs()
    m, ls = random_finite_model(3)
    models = [[3, json.dumps(serialize_model(m, ls))]]
    digests = {3: "not-recorded"}
    tracer = spans.Tracer()
    bench_run = run.Run("fuzz-corpus", 0)
    with tracer.installed():
        assert famart.modelio.build_report.__bench_wrapper__
        assert famart.checkers.solve.__bench_wrapper__
        run.fuzz_pass(bench_run, models, digests, tracer)
    after = _famart_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert not any(getattr(v, "__bench_wrapper__", False) for v in after.values())
    metrics = spans.layer_metrics(tracer)
    assert metrics["lp.solve_calls"] > 0
    assert metrics["certificates.validate_calls"] > 0


def test_wrappers_are_restored_when_the_run_raises():
    import famart.lp

    original = famart.lp.solve
    tracer = spans.Tracer()
    try:
        with tracer.installed():
            raise KeyboardInterrupt
    except KeyboardInterrupt:
        pass
    assert famart.lp.solve is original


# --------------------------------------------------------------------------
# Correctness gate
# --------------------------------------------------------------------------


def test_report_matching_the_record_passes():
    report = _dmw2_report()
    assert run.gate.check_expected(report, run.gate.summary(report)) == []
    assert run.gate.facts_dmw(report, paths=4) == []


def test_flipped_holds_counts_as_failure():
    report = _dmw2_report()
    expected = run.gate.summary(report)
    flipped = copy.deepcopy(report)
    _verdict(flipped, "(7)")["holds"] = not _verdict(flipped, "(7)")["holds"]
    assert run.gate.check_expected(flipped, expected)
    flipped = copy.deepcopy(report)
    _verdict(flipped, "(6)")["holds"] = False
    assert run.gate.facts_dmw(flipped, paths=4)


def test_tampered_cstar_counts_as_failure():
    report = _dmw2_report()
    expected = run.gate.summary(report)
    tampered = copy.deepcopy(report)
    cert = _verdict(tampered, "(5)")["certificate"]
    cert["value"] = str(Fraction(cert["value"]) + 1)
    assert run.gate.check_expected(tampered, expected)


def test_fuzz_model_against_a_wrong_record_counts_as_failure():
    m, ls = random_finite_model(5)
    text = json.dumps(serialize_model(m, ls))
    right = {5: run.gate.fuzz_digest(_report(json.loads(text)))}
    ok = run.Run("fuzz-corpus", 0)
    run.fuzz_model(ok, 5, text, right)
    assert ok.attempted == 2 and ok.failures == []
    wrong = run.Run("fuzz-corpus", 0)
    run.fuzz_model(wrong, 5, text, {5: "0" * 16})
    assert wrong.attempted == 2 and len(wrong.failures) == 1


def test_fuzz_facts_catch_a_broken_equivalence():
    m, ls = random_finite_model(5)
    report = _report(serialize_model(m, ls))
    assert run.gate.facts_fuzz(report) == []
    _verdict(report, "(10)")["holds"] = not _verdict(report, "(10)")["holds"]
    assert run.gate.facts_fuzz(report)


def test_tampered_certificate_fed_to_certify_counts_as_failure(tmp_path):
    m, f, s = example_dmw("1/3", 2)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(serialize_model(m, filtration=f, process=s)))
    report = _dmw2_report()
    bench_run = run.Run("dmw-paths", 0)

    def certify(verdict: dict) -> list[str]:
        path = tmp_path / "verdict.json"
        path.write_text(json.dumps(verdict))
        child = run.Child(bench_run, "certify", run.famart_argv("certify", str(model), str(path)), tmp_path / "out")
        return child.problems() or run.gate.check_certify_output(child.returncode, child.stdout)

    verdict = _verdict(report, "(4)")
    assert certify(verdict) == []
    tampered = copy.deepcopy(verdict)
    mass = tampered["certificate"]["fap"]["mass"]
    mass[0] = str(Fraction(mass[0]) + Fraction("1/7"))
    assert certify(tampered)


def test_an_op_past_its_budget_is_a_timeout(monkeypatch, tmp_path):
    monkeypatch.setitem(run.BUDGET_S, "certify", 0.05)
    bench_run = run.Run("dmw-paths", 0)
    child = run.Child(bench_run, "certify", [sys.executable, "-c", "import time; time.sleep(5)"], tmp_path / "out")
    assert child.timed_out and child.problems() == ["timeout"]
    assert child.wall_s < 2


def test_corpus_fills_every_shape_quota():
    shapes = {}

    def shape_of(seed: int) -> tuple[int, int]:
        m, ls = random_finite_model(seed)
        shapes[seed] = (len(m.charged_states()), len(ls.basis))
        return shapes[seed]

    picked = corpus.pick_seeds(corpus.corpus_start(12345), shape_of)
    assert len(picked) == corpus.SIZE == len(set(picked))
    counts = collections.Counter(shapes[seed] for seed in picked)
    assert set(counts.values()) == {corpus.PER_SHAPE}
    assert len(counts) == corpus.MAX_STATES * corpus.MAX_GAINS
