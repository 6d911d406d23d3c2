"""Correctness gate for the benchmark.

Every check here reads famart's JSON output with the standard library
only (``json``, ``fractions``, ``hashlib``): it shares no code with the
solver, so a solver defect cannot hide itself from the gate.  Each
``check_*`` function returns a list of failure messages; an empty list
means the output passed.

Verdicts and c* are compared, never certificate bytes: a later solver
may return a different certificate as long as it re-validates.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any


def verdict_vector(report: dict[str, Any]) -> list[list[Any]]:
    return [[v["condition"], v["holds"]] for v in report["verdicts"]]


def _by_condition(report: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {v["condition"]: v for v in report["verdicts"]}


def cstar(report: dict[str, Any]) -> str | None:
    """The (5) bound as stored, ``None`` when (5) fails or is absent."""
    v = _by_condition(report).get("(5)")
    if v is None or v["certificate"]["kind"] != "cstar_bound":
        return None
    return v["certificate"]["value"]


def summary(report: dict[str, Any]) -> dict[str, Any]:
    """What the gate compares against a recorded expectation."""
    return {
        "model_digest": report["model_digest"],
        "verdicts": verdict_vector(report),
        "cstar": cstar(report),
    }


def fuzz_digest(report: dict[str, Any]) -> str:
    """Short digest of one fuzz model's summary, recorded per model seed."""
    blob = json.dumps(summary(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def parse_report(text: str) -> tuple[dict[str, Any] | None, list[str]]:
    try:
        report = json.loads(text)
        summary(report)
    except (ValueError, KeyError, TypeError) as exc:
        return None, [f"unparsable report: {exc!r}"]
    return report, []


def check_expected(report: dict[str, Any], expected: dict[str, Any]) -> list[str]:
    got = summary(report)
    return [
        f"{key} is {got[key]!r}, expected {expected[key]!r}"
        for key in ("model_digest", "verdicts", "cstar")
        if got[key] != expected[key]
    ]


def _holds(by: dict[str, dict[str, Any]], cond: str) -> bool | None:
    v = by.get(cond)
    return None if v is None else bool(v["holds"])


def facts_dmw(report: dict[str, Any], paths: int = 32) -> list[str]:
    """(3) holds with the fair coin, mass 1/paths on every path (the
    martingale measure is unique), and (6) holds."""
    by = _by_condition(report)
    out = []
    if _holds(by, "(3)") is not True:
        out.append("fact: (3) does not hold on the path market")
    else:
        fap = by["(3)"]["certificate"]["fap"]
        masses = [Fraction(x) for x in fap["mass"]]
        if Fraction(fap["alpha"]) != 0 or masses != [Fraction(1, paths)] * paths:
            out.append("fact: the (3) functional is not the fair coin")
    if _holds(by, "(6)") is not True:
        out.append("fact: (6) does not hold on the path market")
    return out


def facts_bp(report: dict[str, Any], gains: int = 39) -> list[str]:
    """(3) holds, and (8) fails with tail values -1/2^(j+1)."""
    by = _by_condition(report)
    out = []
    if _holds(by, "(3)") is not True:
        out.append("fact: (3) does not hold on the surviving-set market")
    if _holds(by, "(8)") is not False:
        out.append("fact: (8) does not fail on the surviving-set market")
    else:
        tails = [Fraction(x) for x in by["(8)"]["certificate"]["values"]]
        if tails != [Fraction(-1, 2 ** (j + 1)) for j in range(gains)]:
            out.append("fact: (8) tail values are not -1/2^(j+1)")
    return out


def facts_fuzz(report: dict[str, Any]) -> list[str]:
    """Finite models: (3) <=> (6) <=> (10), and (6) => (4)."""
    by = _by_condition(report)
    h3, h4, h6, h10 = (_holds(by, c) for c in ("(3)", "(4)", "(6)", "(10)"))
    out = []
    if None in (h3, h4, h6, h10):
        out.append("fact: a finite-model verdict is missing")
    elif not h3 == h6 == h10:
        out.append(f"fact: (3)={h3}, (6)={h6}, (10)={h10} disagree")
    elif h6 and not h4:
        out.append("fact: (6) holds but (4) fails")
    return out


FACTS = {"bp-tail": facts_bp, "dmw-paths": facts_dmw, "fuzz-corpus": facts_fuzz}


def check_certify_output(returncode: int | None, stdout: str) -> list[str]:
    """``famart certify`` must exit 0 and print ``{"valid": true}``."""
    out = []
    if returncode != 0:
        out.append(f"certify exited {returncode}")
    try:
        if json.loads(stdout) != {"valid": True}:
            out.append(f"certify printed {stdout.strip()!r}")
    except ValueError:
        out.append(f"certify printed unparsable {stdout.strip()[:80]!r}")
    return out
