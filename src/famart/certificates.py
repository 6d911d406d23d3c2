"""Certificate payloads and their solver-independent re-validation.

Certificates are plain JSON-able dicts with every rational rendered as a
``"num/den"`` string.  Each kind stores, alongside its witness data, the
derived quantities a verifier would recompute (combination rows, bounds,
objective values).  Validation recomputes all of them and demands exact
equality, so changing any single stored coordinate breaks at least one
equation: a tampered certificate cannot stay valid.

Structural problems (missing fields, unparseable rationals) raise
:class:`CertificateFormat`; semantic failures (a check that does not
hold) just report False.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Mapping, Sequence

from .core import (
    TAIL,
    ZERO,
    InvalidInput,
    LinSpace,
    Model,
    RandVar,
    dot,
    ess_sup,
    expect,
    rat,
    rat_str,
    sup_norm,
)
from .fap import Fap, is_abs_continuous, is_equivalent
from .lp import (
    Infeasible,
    LinearProgram,
    dual_objective,
    farkas_combination,
    reduced_costs,
    verify_outcome,
)
from .programs import (
    arbitrage_lp,
    check_weight,
    coherence_coords,
    expectation_bound_lp,
    martingale_mass_lp,
    weighted_space,
)

Certificate = dict[str, Any]


class CertificateFormat(InvalidInput):
    """The certificate is structurally malformed (not merely false)."""


# --------------------------------------------------------------------------
# Payload helpers
# --------------------------------------------------------------------------
#
# The encoders below are the package's only JSON encoders for rational
# lists, coordinates, random variables and Faps; model files use them
# too.  The decoders are this module's own, because the error contract
# differs: a model-file error is invalid input (``InvalidInput``, CLI
# exit 2), while a certificate is either malformed (``CertificateFormat``,
# exit 2) or well formed but false (validation returns False, exit 1).


def _get(d: Mapping[str, Any], key: str) -> Any:
    try:
        return d[key]
    except (KeyError, TypeError) as exc:
        raise CertificateFormat(f"certificate lacks field {key!r}") from exc


def _parse_rat(x: Any) -> Fraction:
    try:
        return rat(x)
    except InvalidInput as exc:
        raise CertificateFormat(str(exc)) from exc


def _parse_rats(xs: Any) -> tuple[Fraction, ...]:
    if not isinstance(xs, (list, tuple)):
        raise CertificateFormat(f"expected a list of rationals, got {xs!r}")
    return tuple(_parse_rat(x) for x in xs)


def rat_strs(xs: Sequence[Any]) -> list[str]:
    return [rat_str(x) for x in xs]


def randvar_payload(x: RandVar) -> dict[str, Any]:
    out: dict[str, Any] = {"values": rat_strs(x.values)}
    if x.tail_value is not None:
        out["tail"] = rat_str(x.tail_value)
    return out


def randvar_from_payload(d: Mapping[str, Any]) -> RandVar:
    values = _parse_rats(_get(d, "values"))
    tail = _parse_rat(d["tail"]) if "tail" in d else None
    return RandVar(values, tail)


def fap_payload(p: Fap) -> dict[str, Any]:
    out: dict[str, Any] = {"alpha": rat_str(p.alpha), "mass": rat_strs(p.ca_mass)}
    if p.ca_tail is not None:
        out["tail"] = rat_str(p.ca_tail)
    return out


def fap_from_payload(d: Mapping[str, Any]) -> Fap:
    alpha = _parse_rat(_get(d, "alpha"))
    mass = _parse_rats(_get(d, "mass"))
    tail = _parse_rat(d["tail"]) if "tail" in d else None
    return Fap(alpha, mass, tail)


def coord_payload(c: int) -> Any:
    return "tail" if c == TAIL else c


def _coord_from_json(v: Any) -> int:
    if v == "tail":
        return TAIL
    if isinstance(v, int) and not isinstance(v, bool) and v >= 0:
        return v
    raise CertificateFormat(f"bad coordinate {v!r}")


def event_payload(event: frozenset[int]) -> list[Any]:
    return [coord_payload(c) for c in sorted(event)]


def event_from_payload(v: Any) -> frozenset[int]:
    if not isinstance(v, (list, tuple)):
        raise CertificateFormat(f"bad event {v!r}")
    return frozenset(_coord_from_json(c) for c in v)


# --------------------------------------------------------------------------
# Constructors
# --------------------------------------------------------------------------


def arbitrage_vector(
    coefficients: Sequence[Fraction], gain: RandVar
) -> Certificate:
    return {
        "kind": "arbitrage_vector",
        "coefficients": rat_strs(coefficients),
        "gain": randvar_payload(gain),
    }


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
    lp: LinearProgram,
    builder: str,
    weights: Sequence[Fraction],
    claim: str,
    bound_value: Fraction | None = None,
    extras: Mapping[str, Any] | None = None,
) -> Certificate:
    out: dict[str, Any] = {
        "kind": "farkas_witness",
        "lp": builder,
        "claim": claim,
        "weights": rat_strs(weights),
    }
    if claim == "infeasible":
        combined, bound = farkas_combination(lp, tuple(weights))
        out["combined"] = rat_strs(combined)
        out["bound"] = rat_str(bound)
    elif claim in ("max_at_most", "min_at_least"):
        value = dual_objective(lp, tuple(weights))
        if value is None:
            raise InvalidInput("weights are not dual feasible")
        out["dual_value"] = rat_str(value)
        out["bound_value"] = rat_str(bound_value)
        out["reduced"] = rat_strs(reduced_costs(lp, tuple(weights)))
    else:
        raise InvalidInput(f"unknown farkas claim {claim!r}")
    if extras:
        out.update({k: v for k, v in extras.items()})
    return out


def witness(
    coefficients: Sequence[Fraction],
    x: RandVar | None,
    claim: str,
    amount: Fraction,
    event: frozenset[int] | None = None,
    extras: Mapping[str, Any] | None = None,
) -> Certificate:
    out: dict[str, Any] = {
        "kind": "witness",
        "claim": claim,
        "coefficients": rat_strs(coefficients),
        "amount": rat_str(amount),
    }
    if x is not None:
        out["gain"] = randvar_payload(x)
    if event is not None:
        out["event"] = event_payload(event)
    if extras:
        out.update({k: v for k, v in extras.items()})
    return out


def representing_fap(
    p: Fap,
    previsions: Sequence[Fraction],
    event: frozenset[int] | None = None,
) -> Certificate:
    out: dict[str, Any] = {
        "kind": "representing_fap",
        "fap": fap_payload(p),
        "previsions": rat_strs(previsions),
    }
    if event is not None:
        out["event"] = event_payload(event)
    return out


def sure_loss_bet(
    stakes: Sequence[Fraction], win: Fraction, previsions: Sequence[Fraction]
) -> Certificate:
    return {
        "kind": "sure_loss_bet",
        "stakes": rat_strs(stakes),
        "guaranteed_win": rat_str(win),
        "previsions": rat_strs(previsions),
    }


def tail_values(tails: Sequence[Fraction]) -> Certificate:
    return {"kind": "tail_values", "values": rat_strs(tails)}


def cstar_bound(
    value: Fraction,
    attaining: Mapping[str, Any] | None,
    cover: Sequence[Sequence[Fraction]],
) -> Certificate:
    """c* with the gain attaining it and a cover of martingale pmfs, each
    a list of weights over the support in support order."""
    out: dict[str, Any] = {"kind": "cstar_bound", "value": rat_str(value)}
    if attaining is not None:
        out["attaining"] = {
            "coefficients": rat_strs(attaining["coefficients"]),
            "gain": randvar_payload(attaining["x"]),
            "coord": coord_payload(attaining["coord"]),
        }
    out["cover"] = [rat_strs(q) for q in cover]
    return out


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


def _validate_combination(
    ls: LinSpace, coeff_payload: Any, gain_payload: Any, m: Model
) -> tuple[tuple[Fraction, ...], RandVar] | None:
    """Parse coefficients and gain; confirm the gain is exactly the stated
    combination of the basis (span membership made checkable)."""
    coeffs = _parse_rats(coeff_payload)
    x = randvar_from_payload(gain_payload)
    if len(coeffs) != len(ls.basis):
        return None
    x.check_conforms(m)
    recomputed = ls.combine(coeffs) if ls.basis else None
    if recomputed is None or recomputed != x:
        return None
    return coeffs, x


def _bound_params(
    cert: Mapping[str, Any], m: Model, extras: Mapping[str, Any]
) -> tuple[Fap, Fraction] | None:
    """The pmf Q and constant c of an explicit expectation-bound check, or
    None when they differ from the ones the check was asked about."""
    q = fap_from_payload(_get(cert, "q"))
    c = _parse_rat(_get(cert, "c"))
    if "q" in extras and fap_payload(extras["q"]) != _get(cert, "q"):
        return None
    if "c" in extras and rat(extras["c"]) != c:
        return None
    q.check_conforms(m)
    return q, c


def _lp_for(cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]):
    builder = _get(cert, "lp")
    if builder == "arbitrage":
        return builder, arbitrage_lp(m, ls)
    if builder == "min-mass":
        return builder, martingale_mass_lp(m, ls)
    if builder == "expectation-bound":
        params = _bound_params(cert, m, extras)
        if params is None or params[1] <= 0:
            return builder, None
        return builder, expectation_bound_lp(m, ls, *params)
    raise CertificateFormat(f"unknown program id {builder!r}")


def _validate_farkas(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> tuple[str, str] | None:
    """Check a Farkas/dual-bound certificate; on success return its
    (program id, claim) pair so the caller can bind them to the condition."""
    builder, lp = _lp_for(cert, m, ls, extras)
    if lp is None:
        return None
    weights = _parse_rats(_get(cert, "weights"))
    claim = _get(cert, "claim")
    if claim == "infeasible":
        combo = farkas_combination(lp, weights)
        if combo is None:
            return None
        combined, bound = combo
        if combined != _parse_rats(_get(cert, "combined")):
            return None
        if bound != _parse_rat(_get(cert, "bound")):
            return None
        return (builder, claim) if verify_outcome(lp, Infeasible(weights)) else None
    if claim in ("max_at_most", "min_at_least"):
        value = dual_objective(lp, weights)
        if value is None or value != _parse_rat(_get(cert, "dual_value")):
            return None
        if reduced_costs(lp, weights) != _parse_rats(_get(cert, "reduced")):
            return None
        bound = _parse_rat(_get(cert, "bound_value"))
        # The stored bound must be tight: these certificates state the
        # exact optimum, not just some valid bound.
        if claim == "max_at_most":
            return (builder, claim) if value == bound else None
        # For a minimization the engine certifies the negated objective:
        # its maximum equals -bound exactly when the minimum equals bound.
        return (builder, claim) if value == -bound else None
    raise CertificateFormat(f"unknown farkas claim {claim!r}")


def support_weights(m: Model, p: Fap) -> dict[int, Fraction]:
    """The weight a functional puts on each essential support coordinate."""
    weights = {
        i: (1 - p.alpha) * p.ca_mass[i] for i in m.charged_states()
    }
    if m.tail_charged:
        weights[TAIL] = p.tail_charge()
    return weights


def _conforming_fap(cert: Mapping[str, Any], m: Model) -> Fap:
    p = fap_from_payload(_get(cert, "fap"))
    p.check_conforms(m)
    return p


def _validate_martingale_fap(
    cert: Mapping[str, Any], m: Model, ls: LinSpace
) -> bool:
    p = _conforming_fap(cert, m)
    for x in ls.basis:
        if expect(p, x) != 0:
            return False
    if bool(_get(cert, "equivalent")) != is_equivalent(p, m):
        return False
    if bool(_get(cert, "abs_continuous")) != is_abs_continuous(p, m):
        return False
    return True


def _validate_separating(
    cert: Mapping[str, Any], m: Model, ls: LinSpace
) -> bool:
    p = _conforming_fap(cert, m)
    if not is_equivalent(p, m) or p.alpha >= 1:
        return False
    for x in ls.basis:
        if expect(p, x) != 0:
            return False
    weights = support_weights(m, p)
    minimum = _parse_rat(_get(cert, "minimum_weight"))
    return bool(weights) and min(weights.values()) == minimum and minimum > 0


def _validate_arbitrage_vector(
    cert: Mapping[str, Any], m: Model, ls: LinSpace
) -> bool:
    combo = _validate_combination(
        ls, _get(cert, "coefficients"), _get(cert, "gain"), m
    )
    if combo is None:
        return False
    _, x = combo
    for c in m.support():
        if x.at(c) < 0:
            return False
    return ess_sup(x, m) > 0 and sup_norm(x, m) == 1


def _validate_witness(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> bool:
    claim = _get(cert, "claim")
    amount = _parse_rat(_get(cert, "amount"))
    combo = _validate_combination(
        ls, _get(cert, "coefficients"), _get(cert, "gain"), m
    )
    if combo is None:
        return False
    coeffs, x = combo
    if claim == "negative_ess_sup":
        return ess_sup(x, m) == amount and amount < 0
    if claim == "nonnegative_direction":
        support = m.support()
        if any(x.at(c) < 0 for c in support):
            return False
        total = sum((x.at(c) for c in support), ZERO)
        return total == amount and amount > 0
    if claim == "expectation_bound_violated":
        params = _bound_params(cert, m, extras)
        if params is None or sup_norm(x, m) > 1:
            return False
        q, c = params
        value = ess_sup(x.negated(), m) - c * expect(q, x)
        return value == amount and amount < 0
    if claim == "event_dominance_violated":
        event = event_from_payload(_get(cert, "event"))
        previsions = _parse_rats(_get(cert, "previsions"))
        if "previsions" in extras and rat_strs(extras["previsions"]) != _get(
            cert, "previsions"
        ):
            return False
        if "events" in extras and event not in {
            frozenset(e) for e in extras["events"]
        }:
            return False
        if len(previsions) != len(coeffs) or not event:
            return False
        sup_a = max(x.at(c) for c in sorted(event))
        e_val = dot(coeffs, previsions)
        return sup_a - e_val == amount and amount < 0
    raise CertificateFormat(f"unknown witness claim {claim!r}")


def _validate_representing(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> bool:
    p = _conforming_fap(cert, m)
    previsions = _parse_rats(_get(cert, "previsions"))
    if "previsions" in extras and tuple(rat(e) for e in extras["previsions"]) != previsions:
        return False
    if len(previsions) != len(ls.basis):
        return False
    if p.alpha != 0:
        return False
    for x, e in zip(ls.basis, previsions):
        if expect(p, x) != e:
            return False
    if "event" in cert:
        event = event_from_payload(cert["event"])
        if "events" in extras and event != frozenset.intersection(
            *map(frozenset, extras["events"])
        ):
            return False
        for i in range(m.n_states):
            if i not in event and p.ca_mass[i] != 0:
                return False
        if TAIL not in event and p.tail_charge() != 0:
            return False
    else:
        allowed = set(coherence_coords(m))
        for i in range(m.n_states):
            if i not in allowed and p.ca_mass[i] != 0:
                return False
        if TAIL not in allowed and p.tail_charge() != 0:
            return False
    return True


def _validate_sure_loss(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> bool:
    stakes = _parse_rats(_get(cert, "stakes"))
    win = _parse_rat(_get(cert, "guaranteed_win"))
    previsions = _parse_rats(_get(cert, "previsions"))
    if "previsions" in extras and tuple(rat(e) for e in extras["previsions"]) != previsions:
        return False
    if len(stakes) != len(ls.basis) or len(previsions) != len(ls.basis):
        return False
    coords = coherence_coords(m)
    if not coords:
        return False
    recomputed = min(dot(stakes, [x.at(coord) for x in ls.basis]) for coord in coords)
    recomputed -= dot(stakes, previsions)
    return recomputed == win and win > 0


def _validate_tail_values(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, holds: bool
) -> bool:
    if not m.has_tail:
        return False
    stored = _parse_rats(_get(cert, "values"))
    if len(stored) != len(ls.basis):
        return False
    for s, x in zip(stored, ls.basis):
        if x.tail_value != s:
            return False
    return holds == all(s == 0 for s in stored)


def _validate_cstar(
    cert: Mapping[str, Any], m: Model, ls: LinSpace
) -> bool:
    raw = _get(cert, "value")
    support = m.support()
    if raw == "infinite":
        return False  # the infinite case is certified by a witness kind
    value = _parse_rat(raw)
    if not ls.basis:
        return value == 0
    attaining = _get(cert, "attaining")
    combo = _validate_combination(
        ls, _get(attaining, "coefficients"), _get(attaining, "gain"), m
    )
    if combo is None:
        return False
    _, x = combo
    if any(x.at(c) < -1 for c in support):
        return False
    coord = _coord_from_json(_get(attaining, "coord"))
    if coord not in support or x.at(coord) != value or value < 0:
        return False
    # A martingale pmf q bounds the ratio program at c by 1/q(c) - 1, so
    # a cover charging every coordinate with 1/(1 + c*) bounds c*.
    cover = _get(cert, "cover")
    if not isinstance(cover, list):
        raise CertificateFormat("the pmf cover must be a list")
    pmfs = [_parse_rats(q) for q in cover]
    for q in pmfs:
        if len(q) != len(support) or any(w < 0 for w in q) or sum(q) != 1:
            return False
        for g in ls.basis:
            if dot(q, [g.at(c) for c in support]) != 0:
                return False
    floor = 1 / (1 + value)
    return all(any(q[i] >= floor for q in pmfs) for i in range(len(support)))


def _validate_weighted_ratio(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> bool:
    y = randvar_from_payload(_get(cert, "weight"))
    check_weight(m, y)
    if "weight" in extras and randvar_payload(extras["weight"]) != _get(cert, "weight"):
        return False
    weighted = weighted_space(m, ls, y)
    inner = _get(cert, "cstar")
    kind = _get(inner, "kind")
    if kind == "witness":
        if not _validate_witness(inner, m, weighted, {}):
            return False
        return "qstar" not in cert
    if kind != "cstar_bound":
        raise CertificateFormat(f"unexpected inner kind {kind!r}")
    if not _validate_cstar(inner, m, weighted):
        return False
    return _validate_martingale_fap(_get(cert, "qstar"), m, ls)


def validate_verdict(
    m: Model,
    ls: LinSpace,
    verdict: Mapping[str, Any],
    extras: Mapping[str, Any] | None = None,
) -> bool:
    """Re-check a serialized verdict's certificate against the model.

    ``extras`` carries condition context that is not part of the model
    file: the pmf and constant of an explicit expectation-bound check,
    previsions, an event family, or a weight function.  Validation never
    re-runs the solver; it rebuilds the deterministic programs and checks
    the stored facts by exact arithmetic.
    """
    extras = dict(extras or {})
    condition = _get(verdict, "condition")
    holds = bool(_get(verdict, "holds"))
    cert = _get(verdict, "certificate")
    kind = _get(cert, "kind")
    try:
        if kind == "farkas_witness":
            checked = _validate_farkas(cert, m, ls, extras)
            if checked is None:
                return False
            builder, claim = checked
            if condition in ("(6)", "(10)"):
                return holds and builder == "arbitrage" and claim == "infeasible"
            if condition == "(3)":
                if builder == "min-mass" and claim == "infeasible":
                    return not holds
                if builder == "min-mass" and claim == "max_at_most":
                    return (
                        not holds
                        and _parse_rat(_get(cert, "bound_value")) <= 0
                    )
                if builder == "expectation-bound" and claim == "min_at_least":
                    return holds and _parse_rat(_get(cert, "bound_value")) >= 0
                return False
            return False
        if kind == "arbitrage_vector":
            return (
                condition in ("(6)", "(10)")
                and not holds
                and _validate_arbitrage_vector(cert, m, ls)
            )
        if kind == "martingale_fap":
            if condition == "(4)":
                return holds and _validate_martingale_fap(cert, m, ls)
            return False
        if kind == "separating_functional":
            return condition == "(3)" and holds and _validate_separating(cert, m, ls)
        if kind == "witness":
            claim = _get(cert, "claim")
            if not isinstance(claim, str):
                raise CertificateFormat(f"bad witness claim {claim!r}")
            expected = {
                "negative_ess_sup": "(4)",
                "expectation_bound_violated": "(3)",
                "event_dominance_violated": "(7)",
                "nonnegative_direction": "(5)",
            }.get(claim)
            if expected is None:
                raise CertificateFormat(f"unknown witness claim {claim!r}")
            if condition != expected or holds:
                return False
            return _validate_witness(cert, m, ls, extras)
        if kind == "representing_fap":
            if condition == "coherence" and holds and "event" not in cert:
                return _validate_representing(cert, m, ls, extras)
            if condition == "(7)" and holds and "event" in cert:
                return _validate_representing(cert, m, ls, extras)
            return False
        if kind == "sure_loss_bet":
            return (
                condition == "coherence"
                and not holds
                and _validate_sure_loss(cert, m, ls, extras)
            )
        if kind == "tail_values":
            return condition == "(8)" and _validate_tail_values(cert, m, ls, holds)
        if kind == "cstar_bound":
            return condition == "(5)" and holds and _validate_cstar(cert, m, ls)
        if kind == "weighted_ratio_bound":
            if condition != "(5*)":
                return False
            inner_kind = _get(_get(cert, "cstar"), "kind")
            if holds != (inner_kind == "cstar_bound"):
                return False
            return _validate_weighted_ratio(cert, m, ls, extras)
    except CertificateFormat:
        raise
    except InvalidInput:
        # A well-formed certificate whose data does not fit the model
        # (wrong length, missing tail value, ...) is false, not malformed.
        return False
    raise CertificateFormat(f"unknown certificate kind {kind!r}")
