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
from math import gcd, lcm
from operator import mul
from typing import Any, Mapping, Sequence

from . import core
from .core import (
    MAX_DIGITS,
    TAIL,
    InvalidInput,
    LinSpace,
    Model,
    OversizedOutput,
    RandVar,
    int_row,
    rat,
    rat_pair,
    rat_str,
)
from .fap import Fap, is_abs_continuous
from .kernel import (
    IntProgram,
    LinearProgram,
    dual_rows,
    farkas_rows,
    proves_infeasible,
)
from .programs import (
    arbitrage_rows,
    coherence_coords,
    expectation_bound_lp,
    martingale_mass_rows,
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


def _parse_rat(x: Any) -> tuple[int, int]:
    try:
        return rat_pair(x)
    except InvalidInput as exc:
        raise CertificateFormat(str(exc)) from exc


def _parse_vec(xs: Any, *more: Any) -> tuple[list[int], int]:
    """A list of rationals, then any further leaves, as integer numerators
    over one positive denominator: the form every check below computes in.
    A string leaf that ``rat_pair`` has read before is taken from its memo;
    any other leaf, an unhashable one too, goes to ``rat_pair``."""
    if not isinstance(xs, (list, tuple)):
        raise CertificateFormat(f"expected a list of rationals, got {xs!r}")
    decoded = core._DECODED.get
    try:
        pairs = [(type(x) is str and decoded(x)) or rat_pair(x) for x in (*xs, *more)]
    except InvalidInput as exc:
        raise CertificateFormat(str(exc)) from exc
    dens = [d for _, d in pairs]
    den = lcm(*dens)
    if dens.count(den) == len(dens):  # one denominator: nothing to scale
        return [n for n, _ in pairs], den
    return [n * (den // d) for n, d in pairs], den


def rat_strs(xs: Sequence[Any]) -> list[str]:
    return [rat_str(x) for x in xs]


def randvar_payload(x: RandVar) -> dict[str, Any]:
    out: dict[str, Any] = {"values": rat_strs(x.values)}
    if x.tail_value is not None:
        out["tail"] = rat_str(x.tail_value)
    return out


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


def randvar_from_payload(d: Mapping[str, Any]) -> RandVar:
    nums, den = _parse_vec(_get(d, "values"))
    values = [Fraction(n, den) for n in nums]
    tail = Fraction(*_parse_rat(d["tail"])) if "tail" in d else None
    return RandVar(values, tail)


def fap_payload(p: Fap) -> dict[str, Any]:
    out: dict[str, Any] = {"alpha": rat_str(p.alpha), "mass": rat_strs(p.ca_mass)}
    if p.ca_tail is not None:
        out["tail"] = rat_str(p.ca_tail)
    return out


def fap_from_payload(d: Mapping[str, Any]) -> Fap:
    alpha = Fraction(*_parse_rat(_get(d, "alpha")))
    nums, den = _parse_vec(_get(d, "mass"))
    mass = [Fraction(n, den) for n in nums]
    tail = Fraction(*_parse_rat(d["tail"])) if "tail" in d else None
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
    lp: LinearProgram | IntProgram,
    builder: str,
    weights: Sequence[int],
    den: int,
    claim: str,
    bound_value: Fraction | None = None,
    extras: Mapping[str, Any] | None = None,
) -> Certificate:
    """Farkas or dual weights, integer numerators over a positive ``den``
    (an outcome's ``int_form()`` pair), with what they combine to."""
    out: dict[str, Any] = {
        "kind": "farkas_witness",
        "lp": builder,
        "claim": claim,
        "weights": _strs(weights, den),
    }
    if claim == "infeasible":
        sums, d = farkas_rows(lp, weights, den)
        *out["combined"], out["bound"] = _strs(sums, d)
    elif claim in ("max_at_most", "min_at_least"):
        reduced, value, d = dual_rows(lp, weights, den)
        if value is None:
            raise InvalidInput("weights are not dual feasible")
        out["dual_value"] = _strs((value,), d)[0]
        out["bound_value"] = rat_str(bound_value)
        out["reduced"] = _strs(reduced, d)
    else:
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


# --------------------------------------------------------------------------
# Validation
# --------------------------------------------------------------------------


# Validation computes with integers.  Every coordinate vector, a parsed
# gain as much as a row of the basis, lists the values at the model's
# explicit states and then at the tail, when there is one, so ``v[c]``
# reads coordinate ``c`` for ``TAIL == -1`` too.  ``Rows`` is the basis:
# one such vector per generator, over one positive denominator.
Rows = tuple[Sequence[Sequence[int]], int]


def _rows(m: Model, ls: LinSpace) -> Rows:
    ls.check_conforms(m)
    return ls.int_rows()


class _Audit:
    """The checks one :func:`validate_report` call has run, keyed by the
    identity of their inputs, which it holds, so no key outlives its
    objects.  ``results`` maps a check and its inputs to its result, which
    no caller writes; ``passed`` maps a certificate to the condition and
    ``holds`` of the row it passed in."""

    __slots__ = ("results", "passed")

    def __init__(self) -> None:
        self.results: dict[tuple, tuple[Any, tuple]] = {}
        self.passed: dict[int, tuple[Any, str, bool]] = {}


def _once(audit: _Audit | None, check: Any, *args: Any) -> Any:
    """``check(*args)``, run once per ``audit`` for the same input objects."""
    if audit is None:
        return check(*args)
    key = (check, *map(id, args))
    hit = audit.results.get(key)
    if hit is None:
        hit = audit.results[key] = check(*args), args
    return hit[0]


def _parse_gain(d: Any, m: Model) -> tuple[list[int], int]:
    values = _get(d, "values")
    out = _parse_vec(values, *([d["tail"]] if "tail" in d else []))
    if len(values) != m.n_states or ("tail" in d) != m.has_tail:
        raise InvalidInput("the random variable does not fit the model")
    return out


def _functional(d: Any, m: Model) -> tuple[list[int], int, int, bool, bool]:
    """A functional's payload read straight into integers: the weight it
    puts on every coordinate, over one positive denominator; the
    numerator of its alpha; and whether it is equivalent to, and
    absolutely continuous with respect to, the reference measure.  A
    payload that ``fap_from_payload`` or ``Fap.check_conforms`` refuses
    raises the same kind of error, in the same order: ``CertificateFormat``
    for a malformed field, then ``InvalidInput``."""
    a, aden = _parse_rat(_get(d, "alpha"))
    mass, tail = _get(d, "mass"), "tail" in d
    q, qden = _parse_vec(mass, *([d["tail"]] if tail else []))
    if not 0 <= a <= aden or min(q, default=0) < 0 or sum(q) != qden:
        raise InvalidInput("not a finitely additive probability")
    if a and not tail:
        raise InvalidInput("a pure part requires a tail state")
    if len(mass) != m.n_states or tail != m.has_tail:
        raise InvalidInput("probability and model do not fit")
    weights = [(aden - a) * x for x in q]
    if a:
        weights[TAIL] += a * qden
    # Masses are nonnegative: equal sums leave no mass on a null state.
    charged = [q[i] for i in m.charged_states()]
    on_tail = tail and weights[TAIL] > 0  # compared as bools: False < True
    continuous = sum(q[: m.n_states]) == sum(charged) and on_tail <= m.tail_charged
    equivalent = continuous and a < aden and all(charged) and on_tail == m.tail_charged
    return weights, aden * qden, a, equivalent, continuous


def _sums(weights: Sequence[int], rows: Rows) -> list[int]:
    """Each row's sum against ``weights``: a functional's expectation of
    each generator, over the weights' and the rows' denominators."""
    return [sum(map(mul, weights, row)) for row in rows[0]]


def _same(a: Sequence[int], aden: int, b: Sequence[int], bden: int) -> bool:
    return len(a) == len(b) and all(x * bden == y * aden for x, y in zip(a, b))


def _equals(num: int, den: int, leaf: Any) -> bool:
    n, d = _parse_rat(leaf)
    return num * d == n * den


def _matches(a: Sequence[int], aden: int, values: Sequence[Any]) -> bool:
    """Whether a parsed vector equals context values, compared by value."""
    return _same(a, aden, *int_row([rat(v) for v in values]))


def _validate_combination(
    rows: Rows, coeff_payload: Any, gain_payload: Any, m: Model
) -> tuple[tuple[list[int], int], tuple[list[int], int]] | None:
    """Parse coefficients and gain; confirm the gain is exactly the stated
    combination of the basis (span membership made checkable)."""
    coeffs, cden = _parse_vec(coeff_payload)
    gain, gden = _parse_gain(gain_payload, m)
    basis, bden = rows
    if len(coeffs) != len(basis) or not basis:
        return None
    for column, g in zip(zip(*basis), gain):
        if sum(map(mul, coeffs, column)) * gden != g * cden * bden:
            return None
    return (coeffs, cden), (gain, gden)


def _bound_params(
    cert: Mapping[str, Any], m: Model, extras: Mapping[str, Any]
) -> tuple[Fap, Fraction] | None:
    """The pmf Q and constant c of an explicit expectation-bound check, or
    None when they differ from the ones the check was asked about."""
    q = fap_from_payload(_get(cert, "q"))
    c = Fraction(*_parse_rat(_get(cert, "c")))
    if "q" in extras and extras["q"] != q:
        return None
    if "c" in extras and rat(extras["c"]) != c:
        return None
    q.check_conforms(m)
    return q, c


def _program_for(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> tuple[str, IntProgram | None]:
    builder = _get(cert, "lp")
    if builder == "arbitrage":
        return builder, arbitrage_rows(m, ls)
    if builder == "min-mass":
        return builder, martingale_mass_rows(m, ls)
    if builder == "expectation-bound":
        params = _bound_params(cert, m, extras)
        if params is None or params[1] <= 0:
            return builder, None
        return builder, expectation_bound_lp(m, ls, *params).int_form()
    raise CertificateFormat(f"unknown program id {builder!r}")


def _validate_farkas(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, extras: Mapping[str, Any]
) -> tuple[str, str] | None:
    """Check a Farkas/dual-bound certificate; on success return its
    (program id, claim) pair so the caller can bind them to the condition."""
    builder, lp = _program_for(cert, m, ls, extras)
    if lp is None:
        return None
    weights = _parse_vec(_get(cert, "weights"))
    claim = _get(cert, "claim")
    if claim == "infeasible":
        combo = farkas_rows(lp, *weights)
        if combo is None:
            return None
        combined, den = combo
        if not _same(combined[:-1], den, *_parse_vec(_get(cert, "combined"))):
            return None
        if not _equals(combined[-1], den, _get(cert, "bound")):
            return None
        return (builder, claim) if proves_infeasible(lp, combined) else None
    if claim in ("max_at_most", "min_at_least"):
        dual = dual_rows(lp, *weights)
        if dual is None or dual[1] is None:
            return None
        reduced, value, den = dual
        if not _equals(value, den, _get(cert, "dual_value")):
            return None
        if not _same(reduced, den, *_parse_vec(_get(cert, "reduced"))):
            return None
        # The stored bound must be tight: these certificates state the
        # exact optimum, not just some valid bound.  For a minimization
        # the engine certifies the negated objective: its maximum equals
        # -bound exactly when the minimum equals bound.
        bound = _get(cert, "bound_value")
        tight = _equals(value if claim == "max_at_most" else -value, den, bound)
        return (builder, claim) if tight else None
    raise CertificateFormat(f"unknown farkas claim {claim!r}")


def support_weights(m: Model, p: Fap) -> dict[int, Fraction]:
    """The weight a functional puts on each essential support coordinate."""
    weights = {
        i: (1 - p.alpha) * p.ca_mass[i] for i in m.charged_states()
    }
    if m.tail_charged:
        weights[TAIL] = p.tail_charge()
    return weights


def _validate_martingale_fap(
    cert: Mapping[str, Any], m: Model, rows: Rows, audit: _Audit | None
) -> bool:
    fap = _get(cert, "fap")
    weights, _, _, equivalent, continuous = _once(audit, _functional, fap, m)
    if any(_once(audit, _sums, weights, rows)):
        return False
    if bool(_get(cert, "equivalent")) != equivalent:
        return False
    return bool(_get(cert, "abs_continuous")) == continuous


def _validate_separating(
    cert: Mapping[str, Any], m: Model, rows: Rows, audit: _Audit | None
) -> bool:
    weights, den, _, equivalent, _ = _once(audit, _functional, _get(cert, "fap"), m)
    if not equivalent or any(_once(audit, _sums, weights, rows)):
        return False
    minimum, mden = _parse_rat(_get(cert, "minimum_weight"))
    low = min(weights[c] for c in m.support())
    return low * mden == minimum * den and minimum > 0


def _validate_arbitrage_vector(
    cert: Mapping[str, Any], m: Model, rows: Rows, audit: _Audit | None
) -> bool:
    payloads = _get(cert, "coefficients"), _get(cert, "gain")
    combo = _once(audit, _validate_combination, rows, *payloads, m)
    if combo is None:
        return False
    gain, den = combo[1]
    values = [gain[c] for c in m.support()]
    # Nonnegative on the support, so ess sup = sup norm = 1 > 0.
    return min(values) >= 0 and max(values) == den


def _validate_witness(
    cert: Mapping[str, Any],
    m: Model,
    rows: Rows,
    extras: Mapping[str, Any],
    audit: _Audit | None,
) -> bool:
    claim = _get(cert, "claim")
    amount, aden = _parse_rat(_get(cert, "amount"))
    payloads = _get(cert, "coefficients"), _get(cert, "gain")
    combo = _once(audit, _validate_combination, rows, *payloads, m)
    if combo is None:
        return False
    (coeffs, cden), (gain, gden) = combo
    values = [gain[c] for c in m.support()]
    if claim == "negative_ess_sup":
        return max(values) * aden == amount * gden and amount < 0
    if claim == "nonnegative_direction":
        if min(values) < 0:
            return False
        return sum(values) * aden == amount * gden and amount > 0
    if claim == "expectation_bound_violated":
        params = _bound_params(cert, m, extras)
        if params is None or max(map(abs, values)) > gden:  # sup norm > 1
            return False
        c = params[1]
        weights, qden = _functional(cert["q"], m)[:2]
        # ess sup(-X) - c E_Q(X), over den
        den = gden * qden * c.denominator
        value = -min(values) * qden * c.denominator
        value -= c.numerator * sum(map(mul, weights, gain))
        return value * aden == amount * den and amount < 0
    if claim == "event_dominance_violated":
        event = event_from_payload(_get(cert, "event"))
        previsions, pden = _parse_vec(_get(cert, "previsions"))
        if "previsions" in extras and not _matches(
            previsions, pden, extras["previsions"]
        ):
            return False
        if "events" in extras and event not in {
            frozenset(e) for e in extras["events"]
        }:
            return False
        if len(previsions) != len(coeffs) or not event:
            return False
        if not event <= set(m.all_coords()):
            return False
        # sup_A X - E(X), over den
        den = gden * cden * pden
        value = max(gain[c] for c in event) * cden * pden
        value -= sum(map(mul, coeffs, previsions)) * gden
        return value * aden == amount * den and amount < 0
    raise CertificateFormat(f"unknown witness claim {claim!r}")


def _validate_representing(
    cert: Mapping[str, Any],
    m: Model,
    rows: Rows,
    extras: Mapping[str, Any],
    audit: _Audit | None,
) -> bool:
    weights, wden, alpha, _, _ = _once(audit, _functional, _get(cert, "fap"), m)
    previsions, pden = _parse_vec(_get(cert, "previsions"))
    if "previsions" in extras and not _matches(previsions, pden, extras["previsions"]):
        return False
    basis, bden = rows
    if len(previsions) != len(basis) or alpha:
        return False
    expected = _once(audit, _sums, weights, rows)
    if not _same(expected, wden * bden, previsions, pden):
        return False
    if "event" in cert:
        event = event_from_payload(cert["event"])
        if "events" in extras and event != frozenset.intersection(
            *map(frozenset, extras["events"])
        ):
            return False
        allowed = event
    else:
        allowed = set(coherence_coords(m))
    # alpha is 0, so each weight is a positive multiple of the mass.
    if any(weights[i] for i in range(m.n_states) if i not in allowed):
        return False
    return TAIL in allowed or not m.has_tail or weights[TAIL] == 0


def _validate_sure_loss(
    cert: Mapping[str, Any], m: Model, rows: Rows, extras: Mapping[str, Any]
) -> bool:
    stakes, sden = _parse_vec(_get(cert, "stakes"))
    win, wden = _parse_rat(_get(cert, "guaranteed_win"))
    previsions, pden = _parse_vec(_get(cert, "previsions"))
    if "previsions" in extras and not _matches(previsions, pden, extras["previsions"]):
        return False
    basis, bden = rows
    if len(stakes) != len(basis) or len(previsions) != len(basis):
        return False
    coords = coherence_coords(m)
    if not coords:
        return False
    columns = list(zip(*basis))
    # The least staked gain over coords minus the staked previsions.
    value = min(sum(map(mul, stakes, columns[c])) for c in coords) * pden
    value -= sum(map(mul, stakes, previsions)) * bden
    return value * wden == win * sden * bden * pden and win > 0


def _validate_tail_values(
    cert: Mapping[str, Any], m: Model, ls: LinSpace, holds: bool
) -> bool:
    if not m.has_tail:
        return False
    basis, bden = _rows(m, ls)
    stored, den = _parse_vec(_get(cert, "values"))
    if not _same(stored, den, [row[TAIL] for row in basis], bden):
        return False
    return holds == (not any(stored))


def _validate_cstar(
    cert: Mapping[str, Any], m: Model, rows: Rows, audit: _Audit | None
) -> bool:
    raw = _get(cert, "value")
    support = m.support()
    if raw == "infinite":
        return False  # the infinite case is certified by a witness kind
    value, vden = _parse_rat(raw)
    if not rows[0]:
        return value == 0
    attaining = _get(cert, "attaining")
    payloads = _get(attaining, "coefficients"), _get(attaining, "gain")
    combo = _once(audit, _validate_combination, rows, *payloads, m)
    if combo is None:
        return False
    gain, gden = combo[1]
    if any(gain[c] < -gden for c in support):
        return False
    coord = _coord_from_json(_get(attaining, "coord"))
    if coord not in support or gain[coord] * vden != value * gden or value < 0:
        return False
    # A martingale pmf q bounds the ratio program at c by 1/q(c) - 1, so
    # a cover charging every coordinate with 1/(1 + c*) bounds c*.
    cover = _get(cert, "cover")
    if not isinstance(cover, list):
        raise CertificateFormat("the pmf cover must be a list")
    pmfs = [_parse_vec(q) for q in cover]
    on_support = [[row[c] for c in support] for row in rows[0]], rows[1]
    for q, qden in pmfs:
        if len(q) != len(support) or min(q) < 0 or sum(q) != qden:
            return False
        if any(_sums(q, on_support)):
            return False
    # q_i / qden >= 1 / (1 + value / vden)
    return all(
        any(q[i] * (vden + value) >= vden * qden for q, qden in pmfs)
        for i in range(len(support))
    )


def _weight(d: Any, m: Model, extras: Mapping[str, Any]) -> tuple[list[int], int] | None:
    """A (5*) weight read straight into integers, values then tail, over
    one positive denominator; None where ``programs.check_weight`` refuses
    it or it differs from ``extras["weight"]``.  A malformed field raises
    ``CertificateFormat`` and a weight that does not fit the model
    ``InvalidInput``, as ``randvar_from_payload`` and ``check_weight`` do."""
    ys, yden = _parse_gain(d, m)
    charged = m.charged_states()
    if not charged or min(ys[i] for i in charged) <= 0:
        return None
    if m.has_tail and ys[TAIL]:
        return None
    if "weight" in extras:
        w = extras["weight"]
        if type(w) is not RandVar or (w.tail_value is None) == m.has_tail:
            return None
        values = (*w.values, w.tail_value) if m.has_tail else w.values
        if not _matches(ys, yden, values):
            return None
    return ys, yden


def _validate_weighted_ratio(
    cert: Mapping[str, Any],
    m: Model,
    rows: Rows,
    extras: Mapping[str, Any],
    audit: _Audit | None,
) -> bool:
    weight = _weight(_get(cert, "weight"), m, extras)
    if weight is None:
        return False
    ys, yden = weight
    inner = _get(cert, "cstar")
    kind = _get(inner, "kind")
    # The unit weight leaves the rows as they are, so the inner check is
    # the (5) row's check where the inner certificate is the (5) row's,
    # and that row passed.  A passing (5) witness claims a nonnegative
    # direction, which reads no extras.
    if ys.count(yden) == len(ys):
        weighted = rows
        seen = None if audit is None else audit.passed.get(id(inner))
        known = seen is not None and seen[1] == "(5)"
    else:
        weighted = [list(map(mul, row, ys)) for row in rows[0]], rows[1] * yden
        known = False
    if kind == "witness":
        if not (known or _validate_witness(inner, m, weighted, {}, audit)):
            return False
        return "qstar" not in cert
    if kind != "cstar_bound":
        raise CertificateFormat(f"unexpected inner kind {kind!r}")
    if not (known or _validate_cstar(inner, m, weighted, audit)):
        return False
    return _validate_martingale_fap(_get(cert, "qstar"), m, rows, audit)


def validate_verdict(
    m: Model,
    ls: LinSpace,
    verdict: Mapping[str, Any],
    extras: Mapping[str, Any] | None = None,
) -> bool:
    """Re-check a serialized verdict's certificate against the model.

    ``extras`` carries condition context that is not part of the model
    file: the pmf and constant of an explicit expectation-bound check,
    previsions, an event family, or a weight function; each is compared
    with the certificate by value.  Validation never re-runs the solver:
    it reads each certificate vector once into integers over a common
    denominator, reads the ``arbitrage`` and ``min-mass`` programs as
    integer rows off the space's kept basis rows (it builds no
    ``LinearProgram`` for them), and checks every stored fact by integer
    arithmetic.
    """
    return _validate(m, ls, verdict, dict(extras or {}), None)


def validate_report(
    m: Model,
    ls: LinSpace,
    rows: Sequence[Mapping[str, Any]],
    extras: Mapping[str, Any] | None = None,
) -> str | None:
    """The condition of the first of a report's ``rows`` whose certificate
    fails :func:`validate_verdict`, or None when every row passes.

    Every row is checked, but a check whose inputs are the very objects
    (``is``) of a check already run in this call is not run again: a
    report's rows share objects where one result serves several rows.
    (10) carries the (6) certificate, (5*) the (5) one, and (4), (5*),
    (7) and coherence may carry the (3) functional's payload; the (5) and
    (6) rows, or the (4) and (7) rows, may carry one combination.  Rows
    read back from JSON share nothing, so each is checked in full.
    """
    extras = dict(extras or {})
    audit = _Audit()
    for row in rows:
        if not _validate(m, ls, row, extras, audit):
            return row["condition"]
        cert = row["certificate"]
        audit.passed.setdefault(id(cert), (cert, row["condition"], row["holds"]))
    return None


_ALIKE = ("(6)", "(10)")  # conditions validated alike in every branch


def _validate(
    m: Model,
    ls: LinSpace,
    verdict: Mapping[str, Any],
    extras: Mapping[str, Any],
    audit: _Audit | None,
) -> bool:
    """:func:`validate_verdict`, reusing what ``audit`` has checked."""
    condition = _get(verdict, "condition")
    holds = _get(verdict, "holds")
    if type(holds) is not bool:
        raise CertificateFormat(f"'holds' must be true or false, got {holds!r}")
    cert = _get(verdict, "certificate")
    if audit is not None and condition in _ALIKE:
        seen = audit.passed.get(id(cert))
        if seen is not None and seen[1] in _ALIKE and seen[2] == holds:
            return True
    kind = _get(cert, "kind")
    try:
        if kind == "farkas_witness":
            checked = _validate_farkas(cert, m, ls, extras)
            if checked is None:
                return False
            builder, claim = checked
            if condition in _ALIKE:
                return holds and builder == "arbitrage" and claim == "infeasible"
            if condition == "(3)":
                if builder == "min-mass" and claim == "infeasible":
                    return not holds
                if builder == "min-mass" and claim == "max_at_most":
                    return not holds and _parse_rat(_get(cert, "bound_value"))[0] <= 0
                if builder == "expectation-bound" and claim == "min_at_least":
                    return holds and _parse_rat(_get(cert, "bound_value"))[0] >= 0
                return False
            return False
        if kind == "tail_values":
            return condition == "(8)" and _validate_tail_values(cert, m, ls, holds)
        rows = _rows(m, ls) if audit is None else _once(audit, _rows, m, ls)
        if kind == "arbitrage_vector":
            return (
                condition in _ALIKE
                and not holds
                and _validate_arbitrage_vector(cert, m, rows, audit)
            )
        if kind == "martingale_fap":
            if condition == "(4)":
                return holds and _validate_martingale_fap(cert, m, rows, audit)
            return False
        if kind == "separating_functional":
            return condition == "(3)" and holds and _validate_separating(
                cert, m, rows, audit
            )
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
            return _validate_witness(cert, m, rows, extras, audit)
        if kind == "representing_fap":
            if condition == "coherence" and holds and "event" not in cert:
                return _validate_representing(cert, m, rows, extras, audit)
            if condition == "(7)" and holds and "event" in cert:
                return _validate_representing(cert, m, rows, extras, audit)
            return False
        if kind == "sure_loss_bet":
            return (
                condition == "coherence"
                and not holds
                and _validate_sure_loss(cert, m, rows, extras)
            )
        if kind == "cstar_bound":
            return condition == "(5)" and holds and _validate_cstar(cert, m, rows, audit)
        if kind == "weighted_ratio_bound":
            if condition != "(5*)":
                return False
            inner_kind = _get(_get(cert, "cstar"), "kind")
            if holds != (inner_kind == "cstar_bound"):
                return False
            return _validate_weighted_ratio(cert, m, rows, extras, audit)
    except CertificateFormat:
        raise
    except InvalidInput:
        # A well-formed certificate whose data does not fit the model
        # (wrong length, missing tail value, ...) is false, not malformed.
        return False
    raise CertificateFormat(f"unknown certificate kind {kind!r}")
