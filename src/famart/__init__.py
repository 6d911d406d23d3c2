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
from .lp import (
    Constraint,
    Infeasible,
    LinearProgram,
    LpOutcome,
    Optimal,
    Unbounded,
    solve,
    verify_outcome,
)

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
