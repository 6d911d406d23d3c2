"""Exact-arithmetic existence checkers, with certificates, for martingale
finitely additive probabilities on finite and tail-compactified models."""

from .core import (
    TAIL,
    InvalidInput,
    LinSpace,
    Model,
    OversizedOutput,
    RandVar,
    constant,
    ess_sup,
    expect,
    rat,
    rat_str,
    sup_norm,
)
from .fap import Fap, from_p0, is_abs_continuous, is_equivalent, is_pure, yh_decompose

__all__ = [
    "TAIL",
    "InvalidInput",
    "OversizedOutput",
    "LinSpace",
    "Model",
    "RandVar",
    "constant",
    "ess_sup",
    "expect",
    "rat",
    "rat_str",
    "sup_norm",
    "Fap",
    "from_p0",
    "is_abs_continuous",
    "is_equivalent",
    "is_pure",
    "yh_decompose",
    "Constraint",
    "Infeasible",
    "LinearProgram",
    "LpOutcome",
    "Optimal",
    "Unbounded",
    "solve",
    "verify_outcome",
]


_LP_NAMES = frozenset({
    "Constraint", "Infeasible", "LinearProgram", "LpOutcome", "Optimal", "Unbounded",
    "solve", "verify_outcome",
})


def __getattr__(name: str):
    # The simplex and its Fraction records load on first use and are never
    # kept here, so a process that only validates certificates (``famart
    # certify``) never compiles them.
    if name in _LP_NAMES:
        from . import lp

        return getattr(lp, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
