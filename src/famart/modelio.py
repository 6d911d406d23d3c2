"""Report assembly, and the ``check`` and ``report`` commands: every
checker on a model file, audited, with each certificate re-validated.

The model-file codec is :mod:`famart.modelfile`; its names are
re-exported here, so ``famart.modelio`` still offers the whole file
interface, and ``modelio.serialize_model`` reaches the model-file writer
in :mod:`famart.examples` without loading it until it is asked for.
Importing this module loads the checkers, the simplex and the
certificate renderer; a process that only certifies imports
:mod:`famart.modelfile` alone.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any

from . import checkers
from .certificates import CertificateFormat, fap_from_payload, validate_report
from .checkers import Verdict, check_weight
from .core import AuditError, InvalidInput, constant
from .fap import from_p0
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
)

if TYPE_CHECKING:
    import argparse


def __getattr__(name: str) -> Any:
    # Looked up in famart.examples on each access and never kept here, so
    # reading it leaves this module's namespace as it was.
    if name == "serialize_model":
        from .examples import serialize_model

        return serialize_model
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        verdicts["(6)"] = checkers.no_arbitrage_from(m, mm)
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


def _emit(payload: Any, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=False))
    else:
        if isinstance(payload, dict) and "verdicts" in payload:
            print(f"model {payload['model_digest'][:16]}")
            for v in payload["verdicts"]:
                state = "holds" if v["holds"] else "fails"
                print(f"  {v['condition']:>5} {state}: {v['narrative']}")
        elif isinstance(payload, dict) and "condition" in payload:
            state = "holds" if payload["holds"] else "fails"
            print(f"{payload['condition']} {state}: {payload['narrative']}")
        else:
            print(payload)


def _cmd_check(args: argparse.Namespace) -> int:
    cond = args.condition.strip("()")
    if cond != "3" and (args.q is not None or args.c is not None):
        raise InvalidInput("--q and --c apply to condition 3 only")
    if args.c is not None and args.q is None:
        raise InvalidInput("--c is the constant of the bound against --q; give --q too")
    if cond != "5*" and args.weight is not None:
        raise InvalidInput("--weight applies to condition 5* only")
    doc = load_model_file(args.path)
    m, ls = doc.model, doc.lin_space
    if args.q is not None:
        if args.q == "p0":
            q = from_p0(m)
        else:
            try:
                q = fap_from_payload(read_json(args.q))
            except CertificateFormat as exc:
                msg = f"--q file {args.q} is not a pmf {{alpha, mass, tail}}"
                raise InvalidInput(msg) from exc
        c = 1 if args.c is None else args.c
        row = checkers.verify_condition3(m, ls, q, c).to_dict()
    elif args.weight is not None:
        weight = randvar_from_json(read_json(args.weight), m, "weight")
        row = checkers.verify_condition5star(m, ls, weight).to_dict()
    else:
        # Every other check prints its row of the report, so the two agree.
        names = [label.strip("()") for label in report_conditions(m, ls)]
        if cond not in names:
            raise InvalidInput(
                f"condition {args.condition!r} is not a row of this model's "
                f"report; its rows are {', '.join(names)}"
            )
        row = build_report(doc)["verdicts"][names.index(cond)]
    _emit(row, args.format)
    return 0 if row["holds"] else 1


def _cmd_report(args: argparse.Namespace) -> int:
    _emit(build_report(load_model_file(args.path)), args.format)
    return 0
