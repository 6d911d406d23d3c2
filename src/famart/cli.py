"""Command line interface: check, report, examples, certify.

``check`` prints one row of the model's report, as ``report`` builds it;
only the explicit bound against a given pmf (``--q``) and the (5*) bound
for a given weight (``--weight``), which are not report rows, are decided
on their own.

Only ``check`` and ``report`` import the checkers and the simplex
(:mod:`famart.modelio`); ``certify`` re-validates with the model-file
codec and :mod:`famart.certificates` alone, and ``examples`` loads
neither.

Exit codes are a stable contract: 0 when the checked condition holds (or
the certificate re-validates), 1 when it fails, 2 on invalid input.
``check`` and ``report`` exit 3 if the report's cross-condition audit
fires, which no valid input should trigger.  Any command exits 4 when
its result holds a rational too long to write (see
:class:`famart.core.OversizedOutput`).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Any

from .certificates import (
    CertificateFormat,
    fap_from_payload,
    validate_report,
    validate_verdict,
)
from .core import AuditError, InvalidInput, OversizedOutput, rat
from .fap import from_p0
from .modelfile import (
    ModelDoc,
    implications,
    load_model_file,
    model_digest,
    randvar_from_json,
    read_json,
    report_conditions,
    serialize_model,
)
from .spaces import (
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
)

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
    from . import checkers
    from .modelio import build_report

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
    from .modelio import build_report

    _emit(build_report(load_model_file(args.path)), args.format)
    return 0


def _cmd_examples(args: argparse.Namespace) -> int:
    name = args.name
    if name == "dmw":
        m, f, s = example_dmw(rat(args.p), args.n)
        doc = serialize_model(m, filtration=f, process=s)
    elif name == "bp":
        m, f, s, _q = example_bp(args.N, args.k)
        doc = serialize_model(m, filtration=f, process=s)
    elif name == "harmonic":
        m, ls = example_harmonic(args.N)
        doc = serialize_model(m, lin_space=ls)
    elif name == "finite-random":
        m, ls = random_finite_model(
            args.seed, max_states=args.max_states, max_basis=args.max_basis
        )
        doc = serialize_model(m, lin_space=ls)
    else:  # unreachable through argparse choices
        raise InvalidInput(f"unknown example {name!r}")
    blob = json.dumps(doc, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.out}: {exc}") from exc
    else:
        print(blob)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    doc = load_model_file(args.path)
    payload = read_json(args.certificate)
    if isinstance(payload, dict) and "verdicts" in payload:
        failed = _first_failure(doc, payload)
        if failed is not None:
            print(f"not valid: {failed}", file=sys.stderr)
        ok = failed is None
    else:
        ok = validate_verdict(doc.model, doc.lin_space, payload, doc.extras())
    print(json.dumps({"valid": ok}))
    return 0 if ok else 1


def _first_failure(doc: ModelDoc, report: dict[str, Any]) -> str | None:
    """The first part of a report that fails: ``model_digest``, a row's
    condition, ``verdicts`` when the rows are not the ones ``build_report``
    emits for the model, each once and in order, or ``implications``."""
    m, ls = doc.model, doc.lin_space
    if report.get("model_digest") != model_digest(m, ls):
        return "model_digest"
    verdicts = report["verdicts"]
    if not isinstance(verdicts, list):
        raise CertificateFormat("a report's 'verdicts' must be a list")
    failed = validate_report(m, ls, verdicts, doc.extras())
    if failed is not None:
        return failed
    if [v["condition"] for v in verdicts] != report_conditions(m, ls):
        return "verdicts"
    if report.get("implications") != implications(
        {v["condition"]: v["holds"] for v in verdicts}
    ):
        return "implications"
    return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process: parsing leaves it
    as it was, so every ``main`` call reads the same one."""
    parser = argparse.ArgumentParser(
        prog="famart",
        description="Exact checkers, with certificates, for martingale "
        "finitely additive probabilities on finite and tail-compactified "
        "models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide one condition on a model file")
    p_check.add_argument("path")
    p_check.add_argument("--condition", required=True)
    p_check.add_argument("--format", choices=("json", "text"), default="json")
    p_check.add_argument(
        "--q",
        default=None,
        help="for condition 3: 'p0' or a path to a pmf JSON "
        "({alpha, mass, tail}); switches to the explicit expectation bound",
    )
    p_check.add_argument(
        "--c", default=None, help="with --q: the constant of the bound (default 1)"
    )
    p_check.add_argument(
        "--weight", default=None, help="for condition 5*: path to a weight JSON"
    )
    p_check.set_defaults(func=_cmd_check)

    p_report = sub.add_parser("report", help="run every applicable checker")
    p_report.add_argument("path")
    p_report.add_argument("--format", choices=("json", "text"), default="json")
    p_report.set_defaults(func=_cmd_report)

    p_ex = sub.add_parser("examples", help="write a built-in model file")
    p_ex.add_argument(
        "name", choices=("dmw", "bp", "harmonic", "finite-random")
    )
    p_ex.add_argument("--p", default="1/3", help="dmw: heads probability in (0,1/2)")
    p_ex.add_argument("--n", type=int, default=2, help="dmw: horizon")
    p_ex.add_argument("--N", type=int, default=8, help="bp/harmonic: truncation")
    p_ex.add_argument("--k", type=int, default=4, help="bp: number of gains")
    p_ex.add_argument("--seed", type=int, default=0, help="finite-random: seed")
    p_ex.add_argument("--max-states", type=int, default=6)
    p_ex.add_argument("--max-basis", type=int, default=4)
    p_ex.add_argument("--out", default=None, help="output path (default stdout)")
    p_ex.set_defaults(func=_cmd_examples)

    p_cert = sub.add_parser(
        "certify", help="re-validate a serialized verdict or report against a model"
    )
    p_cert.add_argument("path")
    p_cert.add_argument("certificate")
    p_cert.set_defaults(func=_cmd_certify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificateFormat as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return 2
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OversizedOutput as exc:
        print(f"output too large: {exc}", file=sys.stderr)
        return 4
    except AuditError as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
