"""One decision procedure per no-arbitrage-style condition.

Every checker returns a :class:`Verdict` whose certificate re-validates
against the model by plain arithmetic (see :mod:`famart.certificates`),
never by re-running the solver.  The checkers solve the programs that
:mod:`famart.programs` builds; certificate validation rebuilds the same
programs from there.

Checked conditions, by their report labels:

``(6)``  no-arbitrage: no gain that is nonnegative with positive mass.
``(4)``  every gain has nonnegative essential supremum; equivalent to the
         existence of an absolutely continuous martingale functional.
``(3)``  existence of an equivalent martingale functional; equivalently a
         scaled expectation bound ``c E_Q(X) <= ess sup(-X)`` for some
         equivalent pmf Q and c > 0.
``(5)``  a uniform two-sided ratio bound ``ess sup(X) <= c* ess sup(-X)``
         on the unit sphere; ``(5*)`` is its weighted variant, which a
         report reads off its own (5) and (3) for the unit weight.
``(7)``  event-wise dominance ``sup_A X >= E(X)`` over an
         intersection-closed family of events.
``(8)``  all generators vanish at the tail.
``(10)`` the cone of dominated gains meets the nonnegative cone only at
         zero; polyhedral here, hence closed, so (10) is (6) and its
         verdict is the (6) verdict relabelled.
``coherence``  previsions admit a representing finitely additive
         probability; otherwise a sure-loss bet exists.

(4) and (7) are each decided by one feasibility program; where it is
infeasible, the failing gain is read off its Farkas vector.

The ``*_from`` functions build a verdict from another one with no solve:
(4) and (6) from a holding (3) (its functional certifies both), (10)
from (6), (5*) from (5) and (3), and coherence from a holding or failing
(7) whose representation program is the coherence program.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Sequence

from . import certificates as certs
from .core import (
    TAIL,
    ZERO,
    InvalidInput,
    LinSpace,
    Model,
    RandVar,
    RationalLike,
    Record,
    ess_sup,
    expect,
    rat,
    sup_norm,
)
from .fap import Fap, from_p0, is_equivalent
from .lp import Infeasible, LinearProgram, Optimal, Unbounded, solve
from .programs import (
    arbitrage_lp,
    check_weight,
    coherence_coords,
    coherence_lp,
    expectation_bound_lp,
    martingale_mass_lp,
    ratio_bound_lp,
    weighted_space,
)
# Unused here; bench/spans.py traces these builders as checkers attributes.
from .programs import event_dominance_lp, negative_gain_lp  # noqa: F401
from .spaces import binomial_pmf

class Verdict(Record):
    __slots__ = ("condition", "holds", "certificate", "narrative")
    condition: str
    holds: bool
    certificate: certs.Certificate
    narrative: str

    def __init__(self, condition, holds, certificate, narrative) -> None:
        object.__setattr__(self, "condition", condition)
        object.__setattr__(self, "holds", holds)
        object.__setattr__(self, "certificate", certificate)
        object.__setattr__(self, "narrative", narrative)

    def to_dict(self) -> dict[str, Any]:
        return {
            "condition": self.condition,
            "holds": self.holds,
            "certificate": self.certificate,
            "narrative": self.narrative,
        }


# --------------------------------------------------------------------------
# Shared construction helpers
# --------------------------------------------------------------------------


def _fap_from_weights(m: Model, weights: dict[int, Fraction]) -> Fap:
    """Build a Fap from support weights, splitting any tail weight evenly
    between the pure part and the countably additive residual.

    Either half alone would do; the even split keeps both the pure part
    and the equivalence of the countably additive part visible.
    """
    tau = weights.get(TAIL, ZERO)
    alpha = tau / 2
    masses = [weights.get(i, ZERO) for i in range(m.n_states)]
    if alpha > 0:
        scale = 1 - alpha
        ca_mass = tuple(x / scale for x in masses)
        ca_tail = (tau / 2) / scale
        return Fap(alpha, ca_mass, ca_tail)
    return Fap(ZERO, tuple(masses), tau if m.has_tail else None)


def _representing_fap(
    m: Model, coords: Sequence[int], weights: Sequence[Fraction]
) -> Fap:
    """The countably additive Fap putting ``weights`` on ``coords``, in
    order, and nothing elsewhere."""
    by_coord = dict(zip(coords, weights))
    masses = tuple(by_coord.get(i, ZERO) for i in range(m.n_states))
    return Fap(ZERO, masses, by_coord.get(TAIL, ZERO) if m.has_tail else None)


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------


def check_no_arbitrage(m: Model, ls: LinSpace) -> Verdict:
    """Condition (6): no gain is nonnegative with strictly positive mass."""
    ls.check_conforms(m)
    lp = arbitrage_lp(m, ls)
    out = solve(lp)
    if isinstance(out, Optimal):
        x = ls.combine(out.primal)
        norm = sup_norm(x, m)
        coeffs = tuple(b / norm for b in out.primal)
        x = ls.combine(coeffs)
        return Verdict(
            "(6)",
            False,
            certs.arbitrage_vector(coeffs, x),
            "arbitrage: the attached gain is nonnegative on the "
            "essential support with positive essential supremum.",
        )
    if not isinstance(out, Infeasible):  # pragma: no cover - zero objective
        raise AssertionError("a feasibility program is never unbounded")
    return _no_arbitrage(lp, out.farkas)


def _no_arbitrage(lp: LinearProgram, farkas: Sequence[Fraction]) -> Verdict:
    return Verdict(
        "(6)",
        True,
        certs.farkas_witness(lp, "arbitrage", farkas, claim="infeasible"),
        "no-arbitrage: the search for a nonnegative gain with "
        "positive essential supremum is infeasible (Farkas witness).",
    )


def _functional_of(emfap: Verdict) -> Fap:
    """The equivalent martingale functional of a holding (3) verdict."""
    if emfap.certificate["kind"] != "separating_functional":
        raise InvalidInput("only a holding (3) verdict carries a functional")
    return certs.fap_from_payload(emfap.certificate["fap"])


def no_arbitrage_from(m: Model, ls: LinSpace, emfap: Verdict) -> Verdict:
    """Condition (6) read off a holding (3) verdict, with no solve.

    The functional's support weights ``q >= t* > 0`` kill every
    generator.  Weight ``q_c - t*`` on each support row of the arbitrage
    program and ``t*`` on its total row combine the rows to zero with
    bound ``-t* < 0``: a Farkas vector proving the program infeasible.
    """
    q = certs.support_weights(m, _functional_of(emfap))
    t_star = rat(emfap.certificate["minimum_weight"])
    farkas = [q[c] - t_star for c in m.support()] + [t_star]
    return _no_arbitrage(arbitrage_lp(m, ls), farkas)


def norm_closure_from(no_arbitrage: Verdict) -> Verdict:
    """Condition (10) read off a (6) verdict: same verdict, same
    certificate, the (10) narrative.

    On these finite-coordinate models the cone of dominated gains is
    polyhedral and hence already norm-closed, so (10) is exactly (6).
    """
    if no_arbitrage.holds:
        narrative = (
            "the polyhedral cone of dominated gains is closed and meets "
            "the nonnegative cone only at zero (no-arbitrage reduction; "
            "Farkas witness)."
        )
    else:
        narrative = (
            "a nonzero nonnegative function lies in the cone of dominated "
            "gains; the attached gain witnesses it."
        )
    return Verdict("(10)", no_arbitrage.holds, no_arbitrage.certificate, narrative)


def check_norm_closure(m: Model, ls: LinSpace) -> Verdict:
    """Condition (10): the norm closure of (gains minus nonnegative
    functions) meets the nonnegative cone only at zero; decided as (6)."""
    return norm_closure_from(check_no_arbitrage(m, ls))


def check_acmfap(m: Model, ls: LinSpace) -> Verdict:
    """Condition (4): every gain has nonnegative essential supremum.

    Nonnegative support weights summing to one that kill every generator
    are an absolutely continuous martingale functional.  Farkas weights
    ``y`` proving there are none give ``sum_d y_d X_d >= -y_0 > 0`` on
    the support: the gain ``-sum_d y_d X_d`` has ``ess sup <= y_0 < 0``.
    """
    ls.check_conforms(m)
    out = solve(martingale_mass_lp(m, ls, strict=False))
    if isinstance(out, Infeasible):
        coeffs = tuple(-y for y in out.farkas[1:])
        x = ls.combine(coeffs)
        return Verdict(
            "(4)",
            False,
            certs.witness(
                coefficients=coeffs,
                x=x,
                claim="negative_ess_sup",
                amount=ess_sup(x, m),
            ),
            "a gain with strictly negative essential supremum exists; "
            "no absolutely continuous martingale functional can price it.",
        )
    if not isinstance(out, Optimal):  # pragma: no cover - zero objective
        raise AssertionError("a feasibility program is never unbounded")
    weights = dict(zip(m.support(), out.primal))
    return _acmfap(m, _fap_from_weights(m, weights))


def _acmfap(m: Model, fap: Fap) -> Verdict:
    return Verdict(
        "(4)",
        True,
        certs.martingale_fap(m, fap, equivalent=is_equivalent(fap, m)),
        "every gain has nonnegative essential supremum; the attached "
        "absolutely continuous functional kills every generator.",
    )


def acmfap_from(m: Model, emfap: Verdict) -> Verdict:
    """Condition (4) read off a holding (3) verdict, with no solve: an
    equivalent martingale functional is absolutely continuous, so it is
    the (4) certificate as it stands."""
    return _acmfap(m, _functional_of(emfap))


def find_emfap(m: Model, ls: LinSpace) -> Verdict:
    """Condition (3)/(1): existence of an equivalent martingale functional.

    Maximizes the minimum support weight among weightings that kill every
    generator; strict positivity of the optimum is exactly equivalence.
    The emitted functional splits the tail weight evenly between the pure
    tail part and the countably additive residual, and induces the open
    convex separation witness ``{X : E_P(X) > 0}``.
    """
    ls.check_conforms(m)
    if not ls.basis:
        fap = from_p0(m)
        weights = {c: (m.p0_tail if c == TAIL else m.p0_mass[c]) for c in m.support()}
        return Verdict(
            "(3)",
            True,
            certs.separating_functional(m, fap, min(weights.values())),
            "the space of gains is trivial; the reference measure itself "
            "is an equivalent martingale functional.",
        )
    lp = martingale_mass_lp(m, ls, strict=True)
    out = solve(lp)
    if isinstance(out, Infeasible):
        return Verdict(
            "(3)",
            False,
            certs.farkas_witness(lp, "min-mass", out.farkas, claim="infeasible"),
            "no signed weighting kills every generator; the scaled "
            "expectation bound fails for every representable (Q, c).",
        )
    if not isinstance(out, Optimal):  # pragma: no cover - mass one caps t
        raise AssertionError("the common floor is at most one over the support size")
    t_star = out.value
    if t_star <= 0:
        return Verdict(
            "(3)",
            False,
            certs.farkas_witness(
                lp, "min-mass", out.dual, claim="max_at_most", bound_value=t_star
            ),
            "weightings killing every generator exist but none is strictly "
            "positive (the attached dual bounds the best minimum weight by "
            "zero); the scaled expectation bound fails for every "
            "representable (Q, c).",
        )
    support = m.support()
    slacks = out.primal[: len(support)]
    weights = {c: s + t_star for c, s in zip(support, slacks)}
    fap = _fap_from_weights(m, weights)
    return Verdict(
        "(3)",
        True,
        certs.separating_functional(m, fap, t_star),
        "an equivalent martingale functional exists; it separates the "
        "dominated-gain cone via the open convex set of bounded functions "
        "with strictly positive expectation.",
    )


def verify_condition3(
    m: Model, ls: LinSpace, q: Fap, c: RationalLike
) -> Verdict:
    """Condition (3) for an explicitly supplied pmf Q and constant c > 0:
    ``c E_Q(X) <= ess sup(-X)`` for every gain X.

    Decided by one exact program over the unit ball; positive homogeneity
    extends the verdict to the whole space.
    """
    c = rat(c)
    ls.check_conforms(m)
    q.check_conforms(m)
    if q.alpha != 0:
        raise InvalidInput("Q must be countably additive (alpha = 0)")
    if not is_equivalent(q, m):
        raise InvalidInput("Q must be equivalent to the reference measure")
    if c <= 0:
        raise InvalidInput("the constant c must be positive")
    params = {"q": certs.fap_payload(q), "c": certs.rat_str(c)}
    lp = expectation_bound_lp(m, ls, q, c)
    out = solve(lp)
    if not isinstance(out, Optimal):  # pragma: no cover - ball-constrained
        raise AssertionError("the expectation bound program is always attained")
    if out.value >= 0:
        return Verdict(
            "(3)",
            True,
            certs.farkas_witness(
                lp,
                "expectation-bound",
                out.dual,
                claim="min_at_least",
                bound_value=out.value,
                extras=params,
            ),
            "the scaled expectation of every gain stays below the "
            "essential supremum of its negation (dual bound attached).",
        )
    coeffs = out.primal[: len(ls.basis)]
    x = ls.combine(coeffs)
    return Verdict(
        "(3)",
        False,
        certs.witness(
            coefficients=coeffs,
            x=x,
            claim="expectation_bound_violated",
            amount=out.value,
            extras=params,
        ),
        "a unit-ball gain violates the scaled expectation bound.",
    )


def compute_cstar(m: Model, ls: LinSpace) -> Fraction | None:
    """Least uniform ratio bound ``ess sup(X) <= c* ess sup(-X)`` on the
    unit sphere; None when no finite bound exists (equivalently, the
    space contains a nonzero nonnegative gain)."""
    v = cstar_verdict(m, ls)
    return rat(v.certificate["value"]) if v.holds else None


def cstar_verdict(m: Model, ls: LinSpace) -> Verdict:
    """Condition (5) as a verdict: holds iff a finite ratio bound exists.

    A martingale pmf is a set of nonnegative support weights summing to
    one that kill every generator.  By duality the ratio program at a
    coordinate has value ``1/q_max - 1``, where ``q_max`` is the largest
    mass a martingale pmf puts there, so ``c* = 1/min q_max - 1``.  Each
    solve reads an optimal pmf off its dual, and every pmf bounds
    ``q_max`` from below at every coordinate.  The sweep solves the
    coordinate with the least such bound (ties in support order) and
    stops once no unsolved coordinate can have a smaller ``q_max`` than
    the least solved one.  A coordinate no pmf charges yet is always
    solved, so the first unbounded coordinate in support order is found.
    """
    ls.check_conforms(m)
    support = m.support()
    best: Fraction = ZERO
    attaining = None
    cover: list[tuple[Fraction, ...]] = []
    lower = [ZERO] * len(support)
    # With no gains there is no program to solve, and c* = 0.
    unsolved = list(range(len(support))) if ls.basis else []
    while unsolved:
        i = min(unsolved, key=lambda j: lower[j])
        unsolved.remove(i)
        out = solve(ratio_bound_lp(m, ls, support[i]))
        if isinstance(out, Unbounded):
            ray_gain = ls.combine(out.ray)
            total = sum((ray_gain.at(c) for c in support), ZERO)
            return Verdict(
                "(5)",
                False,
                certs.witness(
                    coefficients=out.ray,
                    x=ray_gain,
                    claim="nonnegative_direction",
                    amount=total,
                ),
                "no finite ratio bound: the attached direction is a nonzero "
                "nonnegative gain.",
            )
        if not isinstance(out, Optimal):  # pragma: no cover - b = 0 is feasible
            raise AssertionError("the ratio program is feasible at the zero gain")
        # The dual weights sit on ">=" rows, so they are <= 0.
        pmf = tuple(
            (int(j == i) - y) / (1 + out.value) for j, y in enumerate(out.dual)
        )
        if pmf not in cover:
            cover.append(pmf)
        lower = [max(a, b) for a, b in zip(lower, pmf)]
        if attaining is None or out.value > best:
            best = out.value
            attaining = {
                "coefficients": out.primal,
                "x": ls.combine(out.primal),
                "coord": support[i],
            }
        least_qmax = 1 / (1 + best)
        if all(lower[j] >= least_qmax for j in unsolved):
            break
    return Verdict(
        "(5)",
        True,
        certs.cstar_bound(best, attaining=attaining, cover=cover),
        f"finite ratio bound c* = {best} (attained; a cover of martingale "
        "pmfs bounds every coordinate).",
    )


def qstar_from_weight(m: Model, q: Fap, y: RandVar) -> Fap:
    """Reweighting ``Q*(A) = E_Q(Y I_A) / E_Q(Y)`` of a pmf by a positive
    bounded weight; a probability by construction."""
    q.check_conforms(m)
    y.check_conforms(m)
    if q.alpha != 0:
        raise InvalidInput("Q must be countably additive (alpha = 0)")
    total = expect(q, y)
    if total <= 0:
        raise InvalidInput(f"E_Q(Y) must be positive, got {total}")
    masses = tuple(qi * vi / total for qi, vi in zip(q.ca_mass, y.values))
    tail = None
    if m.has_tail:
        tail = q.ca_tail * y.tail_value / total
    return Fap(ZERO, masses, tail)


def weighted_ratio_from(
    m: Model, y: RandVar, cstar: Verdict, emfap: Verdict | None
) -> Verdict:
    """Condition (5*) read off the (5) verdict of the weighted family
    ``{X Y}`` and, when that holds, its (3) verdict, whose functional is
    reweighted by ``y`` into Q*.  With the unit weight on a tail-less
    model the weighted family is the family itself."""
    certificate = {
        "kind": "weighted_ratio_bound",
        "cstar": cstar.certificate,
        "weight": certs.randvar_payload(y),
    }
    if not cstar.holds:
        return Verdict(
            "(5*)",
            False,
            certificate,
            "no finite weighted ratio bound: the attached direction is a "
            "nonzero nonnegative weighted gain.",
        )
    if emfap is None or not emfap.holds:  # pragma: no cover - exact duality
        raise AssertionError("a finite weighted ratio bound implies (3)")
    q = certs.fap_from_payload(emfap.certificate["fap"])
    qstar = qstar_from_weight(m, Fap(ZERO, q.ca_mass, q.ca_tail), y)
    certificate["qstar"] = certs.martingale_fap(
        m, qstar, equivalent=is_equivalent(qstar, m)
    )
    return Verdict(
        "(5*)",
        True,
        certificate,
        f"finite weighted ratio bound c* = {rat(cstar.certificate['value'])}; "
        "since every explicit state is an atom, the reweighted functional "
        "Q* attached is a countably additive martingale measure for the "
        "original family.",
    )


def verify_condition5star(m: Model, ls: LinSpace, y: RandVar) -> Verdict:
    """Condition (5*): the ratio bound for the weighted family {X Y}.

    When the weighted bound is finite, the states being atoms lets the
    martingale functional of the weighted family be reweighted into a
    countably additive martingale measure Q* for the original family,
    which is attached.
    """
    ls.check_conforms(m)
    check_weight(m, y)
    weighted = weighted_space(m, ls, y)
    cstar = cstar_verdict(m, weighted)
    emfap = find_emfap(m, weighted) if cstar.holds else None
    return weighted_ratio_from(m, y, cstar, emfap)


def check_condition8(m: Model, ls: LinSpace) -> Verdict:
    """Condition (8): every generator vanishes at the tail state.

    Eventual constancy makes the limit along the exhausting sequence
    exact, so this is a finite check of the stored tail values.
    """
    if not m.has_tail:
        raise InvalidInput("the vanishing-tail condition needs a tail state")
    ls.check_conforms(m)
    tails = tuple(x.tail_value for x in ls.basis)
    holds = all(t == 0 for t in tails)
    if holds:
        narrative = "every generator has tail value zero."
    else:
        bad = next(i for i, t in enumerate(tails) if t != 0)
        narrative = (
            f"generator {bad} has tail value {tails[bad]}; the limit along "
            "the exhausting sequence does not vanish."
        )
    return Verdict("(8)", holds, certs.tail_values(tails), narrative)


def check_coherence(
    gambles: Sequence[RandVar],
    previsions: Sequence[RationalLike],
    m: Model,
) -> Verdict:
    """de Finetti coherence of previsions on a finite list of gambles.

    Coherent means representable: some probability weighting over the
    coherence coordinates reproduces every prevision.  Incoherent means a
    sure-loss bet exists: stakes under which the bettor's gain
    ``sum c_d (X_d - E_d)`` is strictly positive at every coordinate.
    """
    gambles = tuple(gambles)
    previsions = tuple(rat(e) for e in previsions)
    if not gambles:
        raise InvalidInput("coherence needs at least one gamble")
    if len(gambles) != len(previsions):
        raise InvalidInput("one prevision per gamble is required")
    for x in gambles:
        x.check_conforms(m)
    coords = coherence_coords(m)
    out = solve(coherence_lp(coords, gambles, previsions))
    if isinstance(out, Optimal):
        return _coherent(m, coords, out.primal, previsions)
    if not isinstance(out, Infeasible):  # pragma: no cover - zero objective
        raise AssertionError("a feasibility program is never unbounded")
    return _incoherent(*_sure_loss(coords, gambles, previsions, out.farkas), previsions)


def _sure_loss(
    coords: Sequence[int],
    gambles: Sequence[RandVar],
    previsions: Sequence[Fraction],
    farkas: Sequence[Fraction],
) -> tuple[tuple[Fraction, ...], Fraction]:
    """The stakes (the Farkas weights on the prevision rows of an
    infeasible representation program over ``coords``) and their least
    win ``min sum c_d (X_d - E_d)`` over ``coords``, which is positive."""
    stakes = tuple(farkas[1:])
    win = min(
        sum(
            (c * (x.at(coord) - e) for c, x, e in zip(stakes, gambles, previsions)),
            ZERO,
        )
        for coord in coords
    )
    return stakes, win


def _incoherent(
    stakes: Sequence[Fraction], win: Fraction, previsions: Sequence[Fraction]
) -> Verdict:
    return Verdict(
        "coherence",
        False,
        certs.sure_loss_bet(stakes, win, previsions),
        "incoherent: the attached stakes win at least "
        f"{win} at every coordinate.",
    )


def _coherent(
    m: Model,
    coords: Sequence[int],
    weights: Sequence[Fraction],
    previsions: Sequence[Fraction],
) -> Verdict:
    return Verdict(
        "coherence",
        True,
        certs.representing_fap(_representing_fap(m, coords, weights), previsions),
        "coherent: the attached probability reproduces every prevision.",
    )


def coherence_from(
    m: Model,
    gambles: Sequence[RandVar],
    previsions: Sequence[RationalLike],
    dominance: Verdict,
) -> Verdict | None:
    """Coherence read off a (7) verdict on the same gambles and
    previsions, when the representation program that decided it on the
    least event is the coherence program; None otherwise.

    Equal programs have the same outcome.  A holding (7) puts the
    coherence weights, in order, on the least event; a failing one has
    the stakes negated as its gain and the win negated as its amount.
    """
    cert = dominance.certificate
    least = sorted(certs.event_from_payload(cert["event"]))
    coords = coherence_coords(m)
    if coherence_lp(least, gambles, previsions) != coherence_lp(
        coords, gambles, previsions
    ):
        return None
    if not dominance.holds:
        stakes = tuple(-rat(c) for c in cert["coefficients"])
        return _incoherent(stakes, -rat(cert["amount"]), previsions)
    p = certs.fap_from_payload(cert["fap"])
    weights = [p.ca_tail if c == TAIL else p.ca_mass[c] for c in least]
    return _coherent(m, coords, weights, previsions)


def check_event_dominance(
    d: LinSpace,
    previsions: Sequence[RationalLike],
    events: Sequence[Sequence[int]],
    m: Model,
) -> Verdict:
    """Event-wise dominance (7): ``sup_A X >= E(X)`` for every gain and
    every event of an intersection-closed family.

    It holds exactly when the family's least event (the intersection of
    all of them, present by closure) carries a representing probability
    with total mass on that event: every event contains the least one,
    so ``sup_A X >= sup_least X >= E(X)``.  When there is none, the
    Farkas stakes win at every least-event coordinate, so the gain with
    the stakes negated violates dominance on the least event.
    """
    previsions = tuple(rat(e) for e in previsions)
    d.check_conforms(m)
    if len(previsions) != len(d.basis):
        raise InvalidInput("one prevision per generator is required")
    coords = frozenset(m.all_coords())
    family = []
    for a in events:
        ev = frozenset(a)
        if not ev:
            raise InvalidInput("events must be nonempty")
        if not ev <= coords:
            raise InvalidInput(f"event {sorted(ev)} leaves the model")
        family.append(ev)
    if not family:
        raise InvalidInput("the event family must be nonempty")
    as_set = set(family)
    for a in family:
        for b in family:
            if (a & b) not in as_set:
                raise InvalidInput(
                    "events are not closed under intersection: "
                    f"{sorted(a)} and {sorted(b)}"
                )
    least = frozenset.intersection(*family)
    coords = sorted(least)
    out = solve(coherence_lp(coords, d.basis, previsions))
    if isinstance(out, Optimal):
        return Verdict(
            "(7)",
            True,
            certs.representing_fap(
                _representing_fap(m, coords, out.primal), previsions, event=least
            ),
            "dominance holds for every event; the attached probability sits "
            "on the least event, reproduces the previsions, and gives every "
            "event total mass.",
        )
    if not isinstance(out, Infeasible):  # pragma: no cover - zero objective
        raise AssertionError("a feasibility program is never unbounded")
    stakes, win = _sure_loss(coords, d.basis, previsions, out.farkas)
    coeffs = tuple(-c for c in stakes)
    return Verdict(
        "(7)",
        False,
        certs.witness(
            coefficients=coeffs,
            x=d.combine(coeffs),
            claim="event_dominance_violated",
            amount=-win,
            event=least,
            extras={"previsions": certs.rat_strs(previsions)},
        ),
        f"the attached gain has supremum over the least event {coords} "
        f"below its prevision by {win}.",
    )


class DivergenceRow(Record):
    __slots__ = (
        "horizon", "tv_distance", "min_likelihood_ratio", "max_likelihood_ratio"
    )
    horizon: int
    tv_distance: Fraction
    min_likelihood_ratio: Fraction
    max_likelihood_ratio: Fraction

    def __init__(
        self, horizon, tv_distance, min_likelihood_ratio, max_likelihood_ratio
    ) -> None:
        object.__setattr__(self, "horizon", horizon)
        object.__setattr__(self, "tv_distance", tv_distance)
        object.__setattr__(self, "min_likelihood_ratio", min_likelihood_ratio)
        object.__setattr__(self, "max_likelihood_ratio", max_likelihood_ratio)


def divergence_study(
    p: RationalLike, horizons: Sequence[int]
) -> tuple[DivergenceRow, ...]:
    """Exact separation trend between the biased and fair coin laws.

    For each horizon: the total variation distance between Binomial(n, p)
    and Binomial(n, 1/2) by head-count aggregation, plus the extreme
    likelihood ratios.  The increasing trend is the finite-scale witness
    of their mutual singularity in the limit.
    """
    p = rat(p)
    if not (0 < p < Fraction(1, 2)):
        raise InvalidInput(f"bias must lie in (0, 1/2), got {p}")
    half = Fraction(1, 2)
    rows = []
    for n in horizons:
        biased = binomial_pmf(n, p)
        fair = binomial_pmf(n, half)
        tv = sum((abs(a - b) for a, b in zip(biased, fair)), ZERO) / 2
        ratios = [a / b for a, b in zip(biased, fair)]
        rows.append(DivergenceRow(n, tv, min(ratios), max(ratios)))
    return tuple(rows)
