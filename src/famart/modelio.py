"""Report assembly: every checker on a model file, audited, with each
certificate re-validated.

The model-file codec is :mod:`famart.modelfile`; its names are
re-exported here, so ``famart.modelio`` still offers the whole file
interface.  Importing this module loads the checkers and the simplex;
a process that only certifies imports :mod:`famart.modelfile` alone.
"""

from __future__ import annotations

from typing import Any

from . import checkers
from .certificates import validate_report
from .checkers import Verdict
from .core import AuditError, constant
from .modelfile import (  # noqa: F401  (re-exported: the model-file interface)
    CONDITION_ORDER,
    ModelDoc,
    implications,
    load_model_file,
    model_digest,
    parse_model,
    randvar_from_json,
    read_json,
    report_conditions,
    serialize_model,
)
from .programs import check_weight


def build_report(doc: ModelDoc) -> dict[str, Any]:
    """Run every applicable checker, self-audit the implication chain, and
    re-validate each certificate before assembly; a certificate or payload
    that several rows share is checked once (see
    :func:`famart.certificates.validate_report`)."""
    m, ls = doc.model, doc.lin_space
    extras = doc.extras()
    verdicts: dict[str, Verdict] = {}
    with checkers.solving_once():
        # One (3) decision, on the filtration tree where the file has one,
        # decides (3), (4), (6) and (10); where (3) fails it decides (5)
        # too, and where it holds it starts the (5) sweep.
        mm = checkers.min_mass(m, ls)
        verdicts["(3)"] = emfap = mm.verdict
        verdicts["(4)"] = acm = checkers.acmfap_from(m, mm)
        verdicts["(5)"] = checkers.cstar_verdict(m, ls, mm)
        verdicts["(6)"] = checkers.no_arbitrage_from(m, ls, mm)
        if not m.has_tail:
            # The unit weight leaves the family as it is: (5*) is (5) and (3).
            extras["weight"] = weight = constant(1, m)
            check_weight(m, weight)
            verdicts["(5*)"] = checkers.weighted_ratio_from(
                m, weight, verdicts["(5)"], mm
            )
        # On default inputs (7) and coherence are read off (4).
        verdicts["(7)"] = checkers.check_event_dominance(
            ls, doc.previsions, doc.events, m, mm
        )
        if m.has_tail:
            verdicts["(8)"] = checkers.check_condition8(m, ls)
        # The cone of (10) is polyhedral here, hence closed: (10) is (6).
        verdicts["(10)"] = checkers.norm_closure_from(verdicts["(6)"])
        if ls.basis:
            verdicts["coherence"] = checkers.check_coherence(
                ls.basis, doc.previsions, m, mm
            )

    na = verdicts["(6)"]
    if emfap.holds and not na.holds:
        raise AuditError("implication audit failed: equivalent martingale "
                         "functional without no-arbitrage")
    if na.holds and not emfap.holds:
        raise AuditError("implication audit failed: no-arbitrage without an "
                         "equivalent martingale functional")
    if na.holds and not acm.holds:
        raise AuditError("implication audit failed: no-arbitrage without a "
                         "nonnegative-essential-supremum verdict")

    rows = [verdicts[cond].to_dict() for cond in report_conditions(m, ls)]
    failed = validate_report(m, ls, rows, extras)
    if failed is not None:
        raise AuditError(f"certificate for condition {failed} failed re-validation")

    return {
        "model_digest": model_digest(m, ls),
        "verdicts": rows,
        "implications": implications({c: v.holds for c, v in verdicts.items()}),
    }
