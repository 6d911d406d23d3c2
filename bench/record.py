"""Record the expectations that the benchmark's correctness gate compares against.

    PYTHONPATH=src python3 bench/record.py

Writes ``bench/expected.json``: for each CLI workload the model digest,
the verdict vector and c* of its report, and for ``fuzz-corpus`` one
verdict digest per model seed that any benchmark seed's corpus can use.
The file is the regression oracle for later changes, so regenerate it
only when a verdict is meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import gate  # noqa: E402
from famart.modelio import build_report, parse_model, serialize_model  # noqa: E402
from famart.spaces import example_bp, example_dmw, random_finite_model  # noqa: E402


def report_of(doc: dict) -> dict:
    # Round-trip through JSON text, as the CLI's output does.
    return json.loads(json.dumps(build_report(parse_model(json.loads(json.dumps(doc))))))


def main() -> None:
    m, f, s, _ = example_bp(40, 38)
    bp = report_of(serialize_model(m, filtration=f, process=s))
    m, f, s = example_dmw("1/3", 5)
    dmw = report_of(serialize_model(m, filtration=f, process=s))
    for name, report in (("bp-tail", bp), ("dmw-paths", dmw)):
        problems = gate.FACTS[name](report)
        if problems:
            raise SystemExit(f"{name}: {problems}")

    shapes: list[tuple[int, int]] = []

    def shape_of(model_seed: int) -> tuple[int, int]:
        while len(shapes) <= model_seed:
            m, ls = random_finite_model(len(shapes), corpus.MAX_STATES, corpus.MAX_GAINS)
            shapes.append((len(m.charged_states()), len(ls.basis)))
        return shapes[model_seed]

    last = max(corpus.pick_seeds(start, shape_of)[-1] for start in range(corpus.START_MOD))
    digests = []
    for model_seed in range(last + 1):
        m, ls = random_finite_model(model_seed, corpus.MAX_STATES, corpus.MAX_GAINS)
        report = report_of(serialize_model(m, ls))
        problems = gate.facts_fuzz(report)
        if problems:
            raise SystemExit(f"model seed {model_seed}: {problems}")
        digests.append(gate.fuzz_digest(report))

    expected = {
        "bp-tail": gate.summary(bp),
        "dmw-paths": gate.summary(dmw),
        "fuzz-corpus": {"digests": digests},
    }
    (BENCH / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
