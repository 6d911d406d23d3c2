"""Command line interface: check, report, examples, certify.

``check`` prints one row of the model's report, as ``report`` builds it;
only the explicit bound against a given pmf (``--q``) and the (5*) bound
for a given weight (``--weight``), which are not report rows, are decided
on their own.

Each command compiles only the modules it runs, and imports them only
when it runs.  This module holds the parser, the dispatch and
``certify``, which re-validates with the model-file codec and
:mod:`famart.certificates` alone.  ``check`` and
``report`` run from :mod:`famart.modelio`, which loads the checkers, the
simplex and the certificate renderer; ``examples`` runs from
:mod:`famart.examples`, which loads the model builders and none of those.

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
from typing import TYPE_CHECKING, Any, Callable

from .core import AuditError, CertificateFormat, InvalidInput, OversizedOutput

if TYPE_CHECKING:
    from .modelfile import ModelDoc


def __getattr__(name: str) -> Any:
    # The output writer of check and report lives in famart.modelio; it is
    # looked up there on each access and never kept here.
    if name == "_emit":
        from .modelio import _emit

        return _emit
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _command(name: str) -> Callable[[argparse.Namespace], int]:
    """The function that runs command ``name``, from the module that
    holds it: only ``certify``'s is defined here."""
    if name == "certify":
        return _cmd_certify
    if name == "examples":
        from .examples import _cmd_examples

        return _cmd_examples
    from . import modelio

    return modelio._cmd_check if name == "check" else modelio._cmd_report


def _cmd_certify(args: argparse.Namespace) -> int:
    from .certificates import validate_verdict
    from .modelfile import load_model_file, read_json

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
    from .certificates import validate_report
    from .modelfile import implications, model_digest, report_conditions

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

    p_report = sub.add_parser("report", help="run every applicable checker")
    p_report.add_argument("path")
    p_report.add_argument("--format", choices=("json", "text"), default="json")

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

    p_cert = sub.add_parser(
        "certify", help="re-validate a serialized verdict or report against a model"
    )
    p_cert.add_argument("path")
    p_cert.add_argument("certificate")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _command(args.command)(args)
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
