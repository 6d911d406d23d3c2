"""Certificate payloads: the encoders and constructors a report's rows
are assembled from.

Certificates are plain JSON-able dicts with every rational rendered as a
``"num/den"`` string; each kind is validated by :mod:`famart.certificates`,
which decodes them and validates without loading this module.  The
encoders that model files use too (``rat_strs``, ``coord_payload``,
``randvar_payload``) are :mod:`famart.modelfile`'s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Any, Mapping, Sequence

from .core import MAX_DIGITS, InvalidInput, Model, OversizedOutput, rat_str
from .fap import Fap, is_abs_continuous
from .modelfile import coord_payload, rat_strs

Certificate = dict[str, Any]


# --------------------------------------------------------------------------
# Encoders
# --------------------------------------------------------------------------


def signed_payloads(
    coefficients: Sequence[int], values: Sequence[int], den: int, tail: bool
) -> tuple[tuple[list[str], dict[str, Any]], tuple[list[str], dict[str, Any]]]:
    """The coefficients and gain payloads (``rat_strs``, ``randvar_payload``)
    of a combination and of its negation, rendered straight from integer
    numerators over one positive ``den``: ``values`` lists the gain at the
    explicit states, then at the tail where ``tail``.  One gcd per entry;
    an entry past :data:`~famart.core.MAX_DIGITS` digits raises
    ``OversizedOutput``, as ``rat_str`` does."""
    cs, negated_cs = _signed_strs(coefficients, den)
    vs, negated_vs = _signed_strs(values, den)
    return (cs, _gain(vs, tail)), (negated_cs, _gain(negated_vs, tail))


def int_payloads(
    coefficients: Sequence[int], values: Sequence[int], den: int, tail: bool
) -> tuple[list[str], dict[str, Any]]:
    """The first of :func:`signed_payloads`: the combination alone."""
    return _strs(coefficients, den), _gain(_strs(values, den), tail)


def _gain(strs: list[str], tail: bool) -> dict[str, Any]:
    return {"values": strs[:-1], "tail": strs[-1]} if tail else {"values": strs}


def _strs(nums: Sequence[int], den: int) -> list[str]:
    """``rat_strs`` of each ``n / den``."""
    return _signed_strs(nums, den, negated=False)[0]


def _signed_strs(
    nums: Sequence[int], den: int, negated: bool = True
) -> tuple[list[str], list[str]]:
    """``rat_strs`` of each ``n / den`` and, where ``negated``, of each
    ``-n / den``."""
    out: tuple[list[str], list[str]] = [], []
    try:
        for n in nums:
            g = gcd(n, den)
            n, d = n // g, den // g
            out[0].append(f"{n}/{d}")
            if negated:
                out[1].append(f"{-n}/{d}")
    except ValueError as exc:  # CPython's limit on printing an int
        raise OversizedOutput(
            f"a result holds a rational of more than {MAX_DIGITS} digits"
        ) from exc
    return out


def fap_payload(p: Fap) -> dict[str, Any]:
    out: dict[str, Any] = {"alpha": rat_str(p.alpha), "mass": rat_strs(p.ca_mass)}
    if p.ca_tail is not None:
        out["tail"] = rat_str(p.ca_tail)
    return out


def event_payload(event: frozenset[int]) -> list[Any]:
    return [coord_payload(c) for c in sorted(event)]


# --------------------------------------------------------------------------
# Constructors
# --------------------------------------------------------------------------
#
# A combination's coefficients and gain, a bet's stakes and a functional
# come already rendered (``rat_strs``, ``randvar_payload``,
# ``fap_payload``): the rows of a report that carry one of them carry
# one payload, rendered once.


def arbitrage_vector(coefficients: list[str], gain: dict[str, Any]) -> Certificate:
    return {"kind": "arbitrage_vector", "coefficients": coefficients, "gain": gain}


def martingale_fap(m: Model, p: Fap, equivalent: bool) -> Certificate:
    return {
        "kind": "martingale_fap",
        "fap": fap_payload(p),
        "equivalent": bool(equivalent),
        "abs_continuous": is_abs_continuous(p, m),
    }


def separating_functional(
    m: Model, p: Fap, minimum_weight: Fraction
) -> Certificate:
    return {
        "kind": "separating_functional",
        "fap": fap_payload(p),
        "minimum_weight": rat_str(minimum_weight),
        "open_set": "all bounded functions with strictly positive "
        "expectation under this functional",
    }


def farkas_witness(
    builder: str,
    weights: Sequence[int],
    den: int,
    claim: str,
    bound_value: Fraction | None = None,
    extras: Mapping[str, Any] | None = None,
) -> Certificate:
    """Farkas or dual weights on the rows of the program ``builder``
    names, integer numerators over a positive ``den`` (an outcome's
    ``int_form()`` pair), and for a dual the bound they prove.  What the
    weights combine the rows to is the verifier's to recompute."""
    out: dict[str, Any] = {
        "kind": "farkas_witness",
        "lp": builder,
        "claim": claim,
        "weights": _strs(weights, den),
    }
    if claim in ("max_at_most", "min_at_least"):
        out["bound_value"] = rat_str(bound_value)
    elif claim != "infeasible":
        raise InvalidInput(f"unknown farkas claim {claim!r}")
    if extras:
        out.update({k: v for k, v in extras.items()})
    return out


def witness(
    coefficients: list[str],
    gain: dict[str, Any],
    claim: str,
    amount: Fraction,
    event: frozenset[int] | None = None,
    extras: Mapping[str, Any] | None = None,
) -> Certificate:
    out: dict[str, Any] = {
        "kind": "witness",
        "claim": claim,
        "coefficients": coefficients,
        "amount": rat_str(amount),
        "gain": gain,
    }
    if event is not None:
        out["event"] = event_payload(event)
    if extras:
        out.update({k: v for k, v in extras.items()})
    return out


def representing_fap(
    fap: dict[str, Any],
    previsions: Sequence[Fraction],
    event: frozenset[int] | None = None,
) -> Certificate:
    out: dict[str, Any] = {
        "kind": "representing_fap",
        "fap": fap,
        "previsions": rat_strs(previsions),
    }
    if event is not None:
        out["event"] = event_payload(event)
    return out


def sure_loss_bet(
    stakes: list[str], win: Fraction, previsions: Sequence[Fraction]
) -> Certificate:
    return {
        "kind": "sure_loss_bet",
        "stakes": stakes,
        "guaranteed_win": rat_str(win),
        "previsions": rat_strs(previsions),
    }


def tail_values(tails: Sequence[Fraction]) -> Certificate:
    return {"kind": "tail_values", "values": rat_strs(tails)}


def cstar_bound(
    value: Fraction,
    attaining: tuple[Sequence[int], Sequence[int], int, int] | None,
    cover: Sequence[tuple[Sequence[int], int]],
    tail: bool,
) -> Certificate:
    """c* with the gain attaining it and a cover of martingale pmfs, in
    integers: ``attaining`` is a combination's coefficients and its gain
    at the explicit states, then at the tail where ``tail``, over one
    positive denominator, and the coordinate where it attains c*; each
    pmf of ``cover`` is its weights over the support, in support order,
    over one positive denominator."""
    out: dict[str, Any] = {"kind": "cstar_bound", "value": rat_str(value)}
    if attaining is not None:
        coefficients, gain = int_payloads(*attaining[:3], tail)
        out["attaining"] = {
            "coefficients": coefficients,
            "gain": gain,
            "coord": coord_payload(attaining[3]),
        }
    out["cover"] = [_strs(*q) for q in cover]
    return out
