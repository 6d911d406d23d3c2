"""One decision procedure per no-arbitrage-style condition.

Every checker returns a :class:`Verdict` whose certificate, built by
:mod:`famart.render`, re-validates against the model by plain arithmetic
(see :mod:`famart.certificates`), never by re-running the solver.  The
checkers solve the integer programs that :mod:`famart.programs` builds
and read every outcome, and the (3) decision's :class:`MinMass`, in
integers; the programs reach :func:`famart.lp.solve` as ``LinearProgram``
views whose ``Fraction`` fields no report fills.  A ``Fraction`` is
built only for a record field or a certificate leaf.  Certificate
validation reads the same integer programs.

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

One (3) decision serves the others.  On a space that
:func:`famart.spaces.trading_space` built it is taken node by node on
the filtration tree the space keeps (:func:`tree_min_mass`); on any
other space, and where a node has a one-step arbitrage, by the min-mass
program.  Where (3) fails, the weights of its certificate combine the
generators into a gain that is nonnegative on the support and not zero
there: the (6) arbitrage, the (5) direction and, where it is positive
everywhere on the support, the (4) violation and the stakes of the (7)
and coherence failures.  It is formed once, on integers, and every row
reads it.  Where (3) holds, its functional certifies (4) and (6), and
it, the support weights the solve keeps, and its gain start the (5)
sweep, which often needs no ratio solve at all.
(7) and coherence ask once whether their representation program is the
(4) program (:func:`_decide_representation`).  If it is, the (3)
decision gives the representing functional's payload, or its arbitrage
as the sure-loss bet, with no solve; otherwise each is decided by one
feasibility program whose Farkas vector gives the failure.

The ``*_from`` functions build a verdict from another one with no solve:
(4) and (6) from (3), (10) from (6), and (5*) from (5) and (3).  Inside
:func:`solving_once`, each distinct (7) or coherence program is solved at
most once.  The (5) sweep solves one integer ratio program and maximizes
each later coordinate's row of it over the same rows, on one tableau.
This chain, from :func:`min_mass`, is the one decision path for every
report row, and ``famart check`` prints the report's row.
:func:`find_emfap`, :func:`check_acmfap`, :func:`check_no_arbitrage` and
:func:`check_norm_closure` decide one condition through the same chain.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Any, Iterator, Sequence

from . import render
from .core import (
    ONE,
    TAIL,
    ZERO,
    InvalidInput,
    LinSpace,
    Model,
    RandVar,
    RationalLike,
    Record,
    constant,
    dot,
    expect,
    int_row,
    rat,
    rat_str,
)
from .fap import Fap, from_p0, is_abs_continuous, is_equivalent
from .lp import (
    EQ,
    GE,
    Infeasible,
    IntProgram,
    LinearProgram,
    LpOutcome,
    Optimal,
    Unbounded,
    coherence_lp,
    expectation_bound_lp,
    martingale_mass_lp,
    reoptimizer,
    solve,
)
# Unused here; bench/spans.py traces these builders as checkers attributes.
from .lp import arbitrage_lp, event_dominance_lp, negative_gain_lp  # noqa: F401
from .lp import ratio_bound_lp  # noqa: F401
from .modelfile import randvar_payload, rat_strs
from .programs import coherence_coords, ratio_bound_rows
from .spaces import binomial_pmf

# The outcome of every program solved so far inside ``solving_once``, by
# its integer form: the (7) and coherence programs it serves all maximize.
_SOLVED: ContextVar[dict[IntProgram, LpOutcome] | None] = ContextVar(
    "famart_solved", default=None
)


@contextmanager
def solving_once() -> Iterator[None]:
    """Within the block, each distinct program is solved at most once:
    an equal program reuses the first outcome, which is the same outcome,
    since solving is deterministic.  It serves (7) and coherence, whose
    programs can be equal; the (5) sweep reuses its own outcomes."""
    token = _SOLVED.set({})
    try:
        yield
    finally:
        _SOLVED.reset(token)


def _solve(lp: LinearProgram) -> LpOutcome:
    solved = _SOLVED.get()
    if solved is None:
        return solve(lp)
    key = lp.int_form()  # hashing the view itself would fill its fields
    out = solved.get(key)
    if out is None:
        out = solved[key] = solve(lp)
    return out


class Verdict(Record):
    __slots__ = ("condition", "holds", "certificate", "narrative")
    condition: str
    holds: bool
    certificate: render.Certificate
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


def weighted_space(m: Model, ls: LinSpace, y: RandVar) -> LinSpace:
    """The weighted family ``{X Y}`` of condition (5*): each generator
    multiplied pointwise by the weight ``y``."""
    return LinSpace(
        tuple(
            RandVar(
                tuple(a * b for a, b in zip(x.values, y.values)),
                (x.tail_value * y.tail_value) if m.has_tail else None,
            )
            for x in ls.basis
        )
    )


def check_weight(m: Model, y: RandVar) -> None:
    """A (5*) weight is positive on the charged explicit states and, on
    tail models, vanishes at the tail (its limit along the truncations)."""
    y.check_conforms(m)
    charged = m.charged_states()
    if not charged:
        raise InvalidInput("degenerate model: no charged explicit state")
    for i in charged:
        if y.values[i] <= 0:
            raise InvalidInput(
                f"weight must be positive on the support; state {i} has "
                f"value {y.values[i]}"
            )
    if m.has_tail and y.tail_value != 0:
        raise InvalidInput(
            "on tail models the weight must vanish at the tail, got "
            f"{y.tail_value}"
        )


# --------------------------------------------------------------------------
# Checkers
# --------------------------------------------------------------------------


def check_no_arbitrage(m: Model, ls: LinSpace) -> Verdict:
    """Condition (6): no gain is nonnegative with strictly positive mass;
    decided by the (3) solve (see :func:`no_arbitrage_from`)."""
    return no_arbitrage_from(m, min_mass(m, ls))


def no_arbitrage_from(m: Model, mm: MinMass) -> Verdict:
    """Condition (6) read off the (3) solve, with no solve of its own.

    By Stiemke's lemma (6) and (3) agree on these atomic models.  Where
    (3) fails, its arbitrage is the (6) certificate.  Where it holds, its
    functional is: its weights are positive on the support and kill every
    generator, so a gain nonnegative on the support has expectation zero
    and vanishes there.  The certificate shares the (3) payload, as the
    (4) one does (see :func:`_functional_certificate`).
    """
    if not mm.verdict.holds:
        return Verdict(
            "(6)",
            False,
            render.arbitrage_vector(*mm.rendered[0]),
            "arbitrage: the attached gain is nonnegative on the "
            "essential support with positive essential supremum.",
        )
    return Verdict(
        "(6)",
        True,
        _functional_certificate(m, mm),
        "no-arbitrage: the attached equivalent martingale functional "
        "kills every generator, so no gain is nonnegative with positive "
        "essential supremum.",
    )


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
            "equivalent martingale functional)."
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
    """Condition (4): every gain has nonnegative essential supremum;
    decided by the (3) solve (see :func:`acmfap_from`)."""
    return acmfap_from(m, min_mass(m, ls))


def _functional_certificate(m: Model, mm: MinMass) -> render.Certificate:
    """The ``martingale_fap`` certificate of the (3) decision's functional,
    with its kept payload; where (3) holds, it is equivalent."""
    holds = mm.verdict.holds
    return {
        "kind": "martingale_fap",
        "fap": mm.payload,
        "equivalent": holds or is_equivalent(mm.fap, m),
        "abs_continuous": holds or is_abs_continuous(mm.fap, m),
    }


def acmfap_from(m: Model, mm: MinMass) -> Verdict:
    """Condition (4) read off the (3) solve, with no solve of its own.

    Nonnegative weights killing every generator are the (4) functional:
    the (3) functional itself, whose certificate shares the (3) payload,
    or the (3) optimum when its least weight is zero (see
    :func:`_functional_certificate`).  Otherwise the (3) arbitrage is
    positive on the support (see :class:`MinMass`), so its negation has
    negative essential supremum: minus the arbitrage's least value there.
    """
    if mm.fap is None:
        return Verdict(
            "(4)",
            False,
            render.witness(*mm.rendered[1], claim="negative_ess_sup", amount=-mm.least),
            "a gain with strictly negative essential supremum exists; "
            "no absolutely continuous martingale functional can price it.",
        )
    return Verdict(
        "(4)",
        True,
        _functional_certificate(m, mm),
        "every gain has nonnegative essential supremum; the attached "
        "absolutely continuous functional kills every generator.",
    )


class MinMass(Record):
    """The (3) solve, and what it decides of (4), (5) and (6).

    ``fap`` kills every generator with nonnegative weights: the (3)
    functional where (3) holds, the (3) optimum where its least weight
    ``t*`` is zero, and None where ``t* < 0`` or the program is
    infeasible.  ``weights`` are the weights ``fap`` puts on the support
    coordinates, in support order (:func:`famart.fap.support_weights`),
    kept from the solve so that no row computes them again; ``payload``
    is the payload of ``fap``, rendered once for every row that carries
    it.  Both are None with ``fap``.

    ``gain`` is ``(coefficients, values, den, tail)``: integer numerators
    over the one positive denominator ``den`` of the coefficients ``b``
    of a gain ``G = sum_d b_d X_d`` and of its values at the explicit
    states, then at the tail where ``tail``.  It is read off the weights
    ``y`` of the (3) program's rows: a mass row, then one row per
    generator, over support weights ``s_c >= 0`` and a free floor ``t``.
    Where (3) fails, the Farkas weights, or the dual bounding ``t`` by
    ``y_0 = t* <= 0``, make ``sum_d y_d X_d >= -y_0 >= 0`` on the
    support, positive unless ``t* = 0``, and the column of ``t`` keeps it
    from vanishing there: ``G`` is this arbitrage, scaled to sup norm
    one.  Where (3) holds, the dual makes ``sum_d y_d X_d >= -t*`` on the
    support, and ``G`` is that sum over ``t*``, a feasible point of every
    ratio program of (5).  With no generators, ``gain`` is None.

    Where (3) fails, ``rendered`` holds the arbitrage and its negation as
    certificate payloads, each rendered once from integers (see
    :func:`famart.render.signed_payloads`): the (5), (6) and
    coherence rows carry the first, the (4) and (7) rows the second.
    ``least`` and ``total`` are the arbitrage's least value on the
    support and the sum of its values there: the amounts of the (4) and
    (5) witnesses, and the least win of the sure-loss bet.  All three are
    None where (3) holds.
    """

    __slots__ = (
        "verdict", "fap", "weights", "payload", "gain", "rendered", "least", "total"
    )
    verdict: Verdict
    fap: Fap | None
    weights: tuple[Fraction, ...] | None
    payload: dict[str, Any] | None
    gain: tuple[list[int], list[int], int, bool] | None
    rendered: tuple[tuple[list[str], dict[str, Any]], ...] | None
    least: Fraction | None
    total: Fraction | None

    def __init__(
        self, verdict, fap, weights, payload, gain, rendered=None, least=None, total=None
    ) -> None:
        fields = verdict, fap, weights, payload, gain, rendered, least, total
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)


def find_emfap(m: Model, ls: LinSpace) -> Verdict:
    """Condition (3)/(1): existence of an equivalent martingale functional.

    Maximizes the minimum support weight among weightings that kill every
    generator; strict positivity of the optimum is exactly equivalence.
    The emitted functional splits the tail weight evenly between the pure
    tail part and the countably additive residual, and induces the open
    convex separation witness ``{X : E_P(X) > 0}``.
    """
    return min_mass(m, ls).verdict


def min_mass(m: Model, ls: LinSpace) -> MinMass:
    """Condition (3) as :func:`find_emfap` decides it, with what the same
    solve decides of the other conditions (see :class:`MinMass`).  A space
    that :func:`famart.spaces.trading_space` built keeps its filtration
    tree and is decided node by node where it can be (see
    :func:`tree_min_mass`); any other space by the min-mass program."""
    ls.check_conforms(m)
    mm = tree_min_mass(m, ls)
    if mm is not None:
        return mm
    if not ls.basis:
        fap = from_p0(m)
        weights = tuple(m.p0_tail if c == TAIL else m.p0_mass[c] for c in m.support())
        verdict = Verdict(
            "(3)",
            True,
            render.separating_functional(m, fap, min(weights)),
            "the space of gains is trivial; the reference measure itself "
            "is an equivalent martingale functional.",
        )
        return MinMass(verdict, fap, weights, verdict.certificate["fap"], None)
    lp = martingale_mass_lp(m, ls)
    # Not through the memo: a report builds this program once, and hashing
    # it costs more than the memo could save.
    out = solve(lp)
    if isinstance(out, Infeasible):
        ((ys, den),) = out.int_form()
        verdict = Verdict(
            "(3)",
            False,
            render.farkas_witness("min-mass", ys, den, claim="infeasible"),
            "no signed weighting kills every generator; the scaled "
            "expectation bound fails for every representable (Q, c).",
        )
        return _with_arbitrage(m, ls, verdict, ys)
    if not isinstance(out, Optimal):  # pragma: no cover - mass one caps t
        raise AssertionError("the common floor is at most one over the support size")
    (tn, td), (ss, sd), (ys, yd) = out.int_form()
    t_star, weights = Fraction(tn, td), None
    if tn >= 0:  # w_c = s_c + t*, with t last among the variables
        nums = (s * td + tn * sd for s in ss)
        weights = {c: Fraction(n, sd * td) for c, n in zip(m.support(), nums)}
    if tn <= 0:
        verdict = Verdict(
            "(3)",
            False,
            render.farkas_witness("min-mass", ys, yd, claim="max_at_most", bound_value=t_star),
            "weightings killing every generator exist but none is strictly "
            "positive (the attached dual bounds the best minimum weight by "
            "zero); the scaled expectation bound fails for every "
            "representable (Q, c).",
        )
        return _with_arbitrage(m, ls, verdict, ys, weights)
    verdict, fap, in_order = _holding(m, weights, t_star)
    gain = _combined(ls, [y * td for y in ys[1:]], yd * tn)  # sum_d y_d X_d / t*
    return MinMass(verdict, fap, in_order, verdict.certificate["fap"], (*gain, m.has_tail))


def _holding(
    m: Model, weights: dict[int, Fraction], t_star: Fraction
) -> tuple[Verdict, Fap, tuple[Fraction, ...]]:
    """A holding (3): its verdict, the functional of the support
    ``weights``, whose least weight is ``t_star``, and those weights in
    support order."""
    fap, in_order = _functional(m, weights)
    verdict = Verdict(
        "(3)",
        True,
        render.separating_functional(m, fap, t_star),
        "an equivalent martingale functional exists; it separates the "
        "dominated-gain cone via the open convex set of bounded functions "
        "with strictly positive expectation.",
    )
    return verdict, fap, in_order


def _combined(ls: LinSpace, coefficients: Sequence[int], den: int) -> tuple[list, list, int]:
    """The combination of the generators with coefficients
    ``coefficients`` over ``den``: its coefficients and its gain at every
    coordinate (the explicit states, then the tail where there is one),
    numerators over the one denominator returned last."""
    rows, bden = ls.int_rows()
    gain = [sum(map(mul, coefficients, column)) for column in zip(*rows)]
    return [n * bden for n in coefficients], gain, den * bden


def _functional(
    m: Model, weights: dict[int, Fraction]
) -> tuple[Fap, tuple[Fraction, ...]]:
    """The Fap of the support ``weights`` and those weights in support
    order, which are its support weights."""
    return _fap_from_weights(m, weights), tuple(weights[c] for c in m.support())


def tree_min_mass(m: Model, ls: LinSpace) -> MinMass | None:
    """:func:`min_mass` on the filtration tree that the trading space
    ``ls`` keeps (see :func:`famart.spaces.trading_space`), with no
    program over all paths.

    A pmf kills every gain ``I_B (S_{t+1} - S_t)`` exactly when, at every
    node of positive mass, its conditional pmf over the children is a
    one-step martingale (Harrison-Pliska, Dalang-Morton-Willinger).  Only
    live nodes and children, those holding a support coordinate, count.
    So (3) holds unless a live node has a one-step arbitrage, and then
    ``t* = V(root)``: a final block of k support coordinates has
    ``V = 1/k``, any other live node ``V = max_p min_j p_j V(j)`` over its
    local martingales ``p``.  The functional is the product of the
    maximizing ``p`` along each path, each final block split evenly.

    The largest mass a martingale pmf can put on a coordinate, ``q_max``,
    is the product along its path of the largest local mass ``q`` on the
    child taken.  The gain is the doubling strategy along the path of a
    coordinate with the least ``q_max``: at each node it stakes on the
    node's generator what multiplies the wealth by ``1/q`` on the path's
    child and keeps it nonnegative on the other live children.  So it is
    at least -1 on the support and attains ``1/q_max - 1``, which is c*.

    None where the LP decides: where the space keeps no tree (a basis
    file, a weighted space, a space built or copied by hand), has no
    generators, or where a live node has a one-step arbitrage.
    """
    kept = getattr(ls, "_tree", None)
    if kept is None or not ls.basis:
        return None
    support = frozenset(m.support())
    parts, tree = kept
    value = [Fraction(1, k) if k else None for k in (len(b & support) for b in parts[-1])]
    local = []  # per time and block: {j: (p_j, q_j)} over its live children j
    for kids_of in reversed(tree):
        below, value = value, []
        local.insert(0, [])
        for kids in kids_of:
            if len(kids) == 1 and not kids[0][1]:  # neither splits nor moves
                j = kids[0][0]
                value.append(below[j])
                local[0].append({} if below[j] is None else {j: (ONE, ONE)})
                continue
            live = [(j, d) for j, d in kids if below[j] is not None]
            node = _local_max_min(live, below) if live else (None, {})
            if node is None:
                return None
            value.append(node[0])
            local[0].append(node[1])
    mass, qmax, up, generator = [ONE], [ONE], [], {}
    for t, kids_of in enumerate(tree):  # down, in trading_space's basis order
        above, size = (mass, qmax), len(parts[t + 1])
        mass, qmax, up_t = [ZERO] * size, [None] * size, [None] * size
        for i, kids in enumerate(kids_of):
            if any(d for _, d in kids):
                generator[t, i] = len(generator)
            for j, (p, q) in local[t][i].items():
                mass[j] = above[0][i] if p is ONE else above[0][i] * p
                qmax[j] = above[1][i] if q is ONE else above[1][i] * q
                up_t[j] = i
        up.append(up_t)
    weights = {}
    for block, w in zip(parts[-1], mass):
        charged = block & support
        weights.update((c, w / len(charged)) for c in charged)
    path = [min((j for j, q in enumerate(qmax) if q is not None), key=qmax.__getitem__)]
    for up_t in reversed(up):
        path.append(up_t[path[-1]])
    path.reverse()
    coeffs = [ZERO] * len(ls.basis)
    values = [ZERO] * (m.n_states + 1)  # values[TAIL] is the tail value
    wealth = ONE
    for t, (i, j) in enumerate(zip(path, path[1:])):
        d, q = dict(tree[t][i])[j], local[t][i][j][1]
        stake = wealth * (1 / q - 1) / d if d else ZERO
        if d:
            coeffs[generator[t, i]] = stake
        for k, dk in tree[t][i]:
            off = wealth + stake * dk - 1
            for c in parts[t + 1][k] if k != j else ():
                values[c] = off
        wealth /= q
    for c in parts[-1][path[-1]]:
        values[c] = wealth - 1
    tail = values[-1:] if m.has_tail else []
    nums, den = int_row([*coeffs, *values[:-1], *tail])
    k = len(coeffs)
    verdict, fap, in_order = _holding(m, weights, value[0])
    gain = nums[:k], nums[k:], den, m.has_tail
    return MinMass(verdict, fap, in_order, verdict.certificate["fap"], gain)


def _local_max_min(
    live: Sequence[tuple[int, Fraction]], value: Sequence[Fraction]
) -> tuple[Fraction, dict[int, tuple[Fraction, Fraction]]] | None:
    """At a node whose live children ``j`` have increments ``d``, listed
    in ``live`` as ``(j, d)``: the largest ``min_j p_j V(j)`` over local
    martingales ``p``, with, for each child, ``p_j`` of a ``p`` that
    attains it and the largest mass ``q_j`` any local martingale puts on
    it.  None on a one-step arbitrage.

    ``q_j`` is 1 where ``d = 0``, and otherwise ``e / (e - d)``, where
    ``e`` is the increment farthest on the other side.  With every
    increment zero, every pmf is a martingale and ``p_j`` is proportional
    to ``1/V(j)``; two children of opposite increments have one
    martingale; otherwise a small program decides.
    """
    ds = [d for _, d in live]
    lo, hi = min(ds), max(ds)
    if not any(ds):
        total = sum(1 / value[j] for j, _ in live)
        return 1 / total, {j: (1 / (value[j] * total), ONE) for j, _ in live}
    if lo >= 0 or hi <= 0:
        return None
    q = [lo / (lo - d) if d > 0 else hi / (hi - d) if d else ONE for d in ds]
    if len(live) == 2:
        (i, a), (j, b) = live
        p = b / (b - a)
        return min(p * value[i], (1 - p) * value[j]), {i: (p, q[0]), j: (1 - p, q[1])}
    k = len(live)
    nums, den = int_row([*ds, *(value[j] for j, _ in live)])
    rows = [(den,) * k + (0, den), (*nums[:k], 0, 0)]
    for n, v in enumerate(nums[k:]):  # p_j V(j) >= t
        rows.append((0,) * n + (v,) + (0,) * (k - n - 1) + (-den, 0))
    lower, upper = (0,) * k + (None,), (None,) * (k + 1)
    program = IntProgram(rows, (EQ, EQ) + (GE,) * k, (0,) * k + (den,), lower, upper, den)
    (vn, vd), (ps, pd), _ = solve(program.linear_program()).int_form()
    return Fraction(vn, vd), {j: (Fraction(n, pd), qj) for (j, _), n, qj in zip(live, ps, q)}


def _with_arbitrage(
    m: Model,
    ls: LinSpace,
    verdict: Verdict,
    y: Sequence[int],
    weights: dict[int, Fraction] | None = None,
) -> MinMass:
    """A failing (3), with the functional of its optimum's support
    ``weights`` where ``t* = 0``, and the arbitrage its row weights ``y``
    give: ``G = sum_d y_d X_d`` scaled to sup norm one on the support.

    ``G`` is formed on integers.  With ``y_d = ys_d / D`` and the basis
    rows as numerators over ``B``, ``G`` at coordinate ``c`` is
    ``G_c / (D B)`` with ``G_c = sum_d ys_d rows[d][c]``, and its norm is
    ``top / (D B)`` with ``top = max |G_c|`` over the support.  So the
    gain is ``G_c / top`` and the coefficients ``ys_d B / top``, kept so.
    The arbitrage, its negation and the functional are rendered here,
    once for every row that carries them.
    """
    cs, g, _ = _combined(ls, y[1:], 1)
    on_support = [g[c] for c in m.support()]  # rows list the tail last: TAIL == -1
    top = max(map(abs, on_support))
    fap = in_order = payload = None
    if weights is not None:
        fap, in_order = _functional(m, weights)
        payload = render.fap_payload(fap)
    rendered = render.signed_payloads(cs, g, top, m.has_tail)
    least, total = Fraction(min(on_support), top), Fraction(sum(on_support), top)
    gain = cs, g, top, m.has_tail
    return MinMass(verdict, fap, in_order, payload, gain, rendered, least, total)


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
    params = {"q": render.fap_payload(q), "c": rat_str(c)}
    lp = expectation_bound_lp(m, ls, q, c)
    out = solve(lp)
    if not isinstance(out, Optimal):  # pragma: no cover - ball-constrained
        raise AssertionError("the expectation bound program is always attained")
    (vn, vd), (xs, xd), dual = out.int_form()
    value = Fraction(vn, vd)
    if vn >= 0:
        return Verdict(
            "(3)",
            True,
            render.farkas_witness(
                "expectation-bound", *dual, "min_at_least", value, extras=params
            ),
            "the scaled expectation of every gain stays below the "
            "essential supremum of its negation (dual bound attached).",
        )
    gain = _combined(ls, xs[: len(ls.basis)], xd)
    return Verdict(
        "(3)",
        False,
        render.witness(
            *render.int_payloads(*gain, m.has_tail),
            claim="expectation_bound_violated",
            amount=value,
            extras=params,
        ),
        "a unit-ball gain violates the scaled expectation bound.",
    )


def cstar_verdict(m: Model, ls: LinSpace, mm: MinMass) -> Verdict:
    """Condition (5) as a verdict: holds iff a finite ratio bound exists
    (see :func:`_ratio_sweep`).

    ``mm`` is the (3) solve on the same model and space, and (5) is read
    off it where it can be.  Where (3) fails, its arbitrage is a nonzero
    nonnegative gain, so (5) fails with it as the direction.  Where (3)
    holds, the sweep starts from the functional's support weights, a
    martingale pmf, and from the dual gain, which is at least -1 on the
    support and often attains c* already, so that no ratio program is
    solved.
    """
    ls.check_conforms(m)
    if not ls.basis:  # no generators: c* = 0
        return _ratio_sweep(m, ls, [], [])
    if not mm.verdict.holds:
        return _unbounded_ratio(mm.total, *mm.rendered[0])
    return _ratio_sweep(m, ls, [int_row(mm.weights)], [mm.gain])


def _unbounded_ratio(
    total: Fraction, coefficients: list[str], gain: dict[str, Any]
) -> Verdict:
    """The (5) witness: a nonzero nonnegative gain, rendered as
    ``coefficients`` and ``gain``, whose values on the support sum to
    ``total``."""
    return Verdict(
        "(5)",
        False,
        render.witness(coefficients, gain, claim="nonnegative_direction", amount=total),
        "no finite ratio bound: the attached direction is a nonzero "
        "nonnegative gain.",
    )


def _ratio_sweep(
    m: Model,
    ls: LinSpace,
    cover: list[tuple[Sequence[int], int]],
    gains: Sequence[tuple[Sequence[int], Sequence[int], int, bool]],
) -> Verdict:
    """Condition (5) from martingale pmfs and feasible gains.

    A martingale pmf is a set of nonnegative support weights summing to
    one that kill every generator.  By duality the ratio program at a
    coordinate has value ``1/q_max - 1``, where ``q_max`` is the largest
    mass a martingale pmf puts there, so ``c* = 1/min q_max - 1``.  Every
    pmf in ``cover`` bounds ``q_max`` from below at every coordinate, so
    c* is at most ``1/min lower - 1``.  Every gain at least -1 on the
    support (those in ``gains``, then each ratio solve's optimum) bounds
    c* from below by its largest value there.  The sweep stops when the
    bounds meet.  Until then it solves the coordinate with the least
    lower bound (ties in support order): its pmf raises that bound to
    ``q_max``, and its optimum attains ``1/q_max - 1``, so a coordinate
    is never solved twice.  A coordinate no pmf charges yet is always
    solved first, so the first unbounded coordinate in support order is
    found.

    Every ratio program has the same rows; only the objective, the gain
    at the coordinate, changes.  So the sweep solves the first one and
    maximizes each later coordinate's objective over its rows from the
    last optimal basis (:func:`famart.lp.reoptimizer`).  A coordinate
    whose objective was already maximized reuses that outcome.

    It runs on integers: a pmf of ``cover`` is its weights in lowest
    terms over one denominator, as ``int_row`` gives them, and a gain of
    ``gains`` is a :attr:`MinMass.gain`.  A solve's duals ``Y``
    and value ``V`` are read over one denominator ``D``, reduced once, so
    its pmf ``(e_i D - Y) / (D + V)`` is in lowest terms too, as the
    known pmfs it is compared with.  Bounds are numerator and denominator
    pairs compared by cross products.  Only c* becomes a ``Fraction``.
    """
    support = m.support()
    known: set[tuple[tuple[int, ...], int]] = set()
    lower = [(0, 1)] * len(support)  # (numerator, denominator) per coordinate
    for nums, den in cover:
        known.add((tuple(nums), den))
        lower = [_larger(a, (n, den)) for a, n in zip(lower, nums)]
    best = (0, 1)
    attaining = None

    def attain(coeffs: Sequence[int], x: Sequence[int], den: int) -> None:
        """Take the gain with coefficients ``coeffs`` and values ``x`` at
        every coordinate, over ``den``, if its largest value on the
        support beats ``best``."""
        nonlocal best, attaining
        values = [x[c] for c in support]
        top = max(values)
        if attaining is None or top * best[1] > best[0] * den:
            best = (top, den)
            attaining = (coeffs, x, den, support[values.index(top)])

    for coeffs, x, den, _ in gains:
        attain(coeffs, x, den)
    solved: dict[tuple[int, ...], LpOutcome] = {}
    # With no generators there is no program to solve, and c* = 0.
    while ls.basis:
        i = 0
        for j, (n, d) in enumerate(lower):
            if n * lower[i][1] < lower[i][0] * d:
                i = j
        (ln, ld), (bn, bd) = lower[i], best
        if attaining is not None and (bd + bn) * ln >= bd * ld:  # (1 + c*) q >= 1
            break
        if not solved:
            program = ratio_bound_rows(m, ls, support[i])
            solved[program.costs], maximize = reoptimizer(program)
        # Row i is the gain at support[i], which is that coordinate's objective.
        objective = program.rows[i][:-1]
        out = solved.get(objective)
        if out is None:
            out = solved[objective] = maximize(objective, program.den)
        if isinstance(out, Unbounded):
            cs, x, den = _combined(ls, *out.int_form()[1])
            total = Fraction(sum(x[c] for c in support), den)
            return _unbounded_ratio(total, *render.int_payloads(cs, x, den, m.has_tail))
        if not isinstance(out, Optimal):  # pragma: no cover - b = 0 is feasible
            raise AssertionError("the ratio program is feasible at the zero gain")
        # The dual weights sit on ">=" rows, so they are <= 0.  The pmf is
        # (e_i - Y) / (1 + V), with Y and V over one denominator D.  Row i
        # is slack at the optimum (the gain there is V >= 0 > -1), so
        # Y_i = 0, and V = -sum Y by duality; as D, Y and V share no
        # factor, neither do D + V and the pmf's numerators.
        (vn, vd), (coeffs, cden), (ys, yd) = out.int_form()
        den = lcm(vd, yd)
        nums = [y * (den // yd) for y in ys] + [vn * (den // vd)]
        g = gcd(den, *nums)
        nums, den = [n // g for n in nums], den // g
        nums[i] -= den
        den += nums.pop()
        pmf = tuple(-y for y in nums)
        if (pmf, den) not in known:
            known.add((pmf, den))
            cover.append((pmf, den))
            lower = [_larger(a, (n, den)) for a, n in zip(lower, pmf)]
        attain(*_combined(ls, coeffs, cden))
    cstar = Fraction(*best)
    return Verdict(
        "(5)",
        True,
        render.cstar_bound(cstar, attaining, cover, m.has_tail),
        f"finite ratio bound c* = {cstar} (attained; a cover of martingale "
        "pmfs bounds every coordinate).",
    )


def _larger(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The larger of two (numerator, positive denominator) pairs; ``a`` on ties."""
    return b if b[0] * a[1] > a[0] * b[1] else a


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
    m: Model, y: RandVar, cstar: Verdict, mm: MinMass | None
) -> Verdict:
    """Condition (5*) read off the (5) verdict of the weighted family
    ``{X Y}`` and, when that holds, its (3) solve ``mm``, whose functional
    is reweighted by ``y`` into Q*.  With the unit weight on a tail-less
    model the weighted family is the family itself.  The unit weight
    leaves a functional with no pure part as it is, so there Q* is the
    (3) functional and its certificate the (4) one (see
    :func:`_functional_certificate`); any other weight builds Q* by
    :func:`qstar_from_weight`."""
    certificate = {
        "kind": "weighted_ratio_bound",
        "cstar": cstar.certificate,
        "weight": randvar_payload(y),
    }
    if not cstar.holds:
        return Verdict(
            "(5*)",
            False,
            certificate,
            "no finite weighted ratio bound: the attached direction is a "
            "nonzero nonnegative weighted gain.",
        )
    if mm is None or not mm.verdict.holds:  # pragma: no cover - exact duality
        raise AssertionError("a finite weighted ratio bound implies (3)")
    q = mm.fap
    if q.alpha == 0 and y == constant(ONE, m):
        certificate["qstar"] = _functional_certificate(m, mm)
    else:
        qstar = qstar_from_weight(m, Fap(ZERO, q.ca_mass, q.ca_tail), y)
        certificate["qstar"] = render.martingale_fap(
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
    mm = min_mass(m, weighted)
    return weighted_ratio_from(m, y, cstar_verdict(m, weighted, mm), mm)


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
    return Verdict("(8)", holds, render.tail_values(tails), narrative)


def _decide_representation(
    m: Model,
    coords: Sequence[int],
    gambles: Sequence[RandVar],
    previsions: Sequence[Fraction],
    mm: MinMass | None,
) -> tuple[dict[str, Any] | None, Any, Fraction | None]:
    """How ``coherence_lp(coords, gambles, previsions)`` decides: the
    payload of a representing functional, then None and None; or None,
    then a sure-loss bet and its least win ``min sum c_d (X_d - E_d)``
    over ``coords``, which is positive.  The bet is its stakes and gain
    and their negations, as :func:`famart.render.signed_payloads` renders
    them.

    ``mm`` is the (3) solve of a space whose generators are ``gambles``.
    Where the program is the (4) program, the support in support order
    with zero previsions, ``mm`` decides it with no solve, as
    :func:`acmfap_from` reads (4).  Its functional's kept support weights
    represent, and where it has no pure part its payload is rendered
    already.  Without one, its arbitrage is positive on the support, with
    least value ``mm.least`` there: that is the bet, and ``mm.rendered``
    holds it.  Any other program is solved, and where it is infeasible
    (its objective is zero, so it is bounded), the bet stakes the Farkas
    weights on its prevision rows.
    """
    if mm is not None and tuple(coords) == m.support() and not any(previsions):
        if mm.fap is None:
            return None, mm.rendered, mm.least
        if not mm.fap.alpha:
            return mm.payload, None, None
        weights = mm.weights
    else:
        out = _solve(coherence_lp(coords, gambles, previsions))
        if isinstance(out, Infeasible):
            ((ys, den),) = out.int_form()
            cs, g, gden = _combined(LinSpace(gambles), ys[1:], den)
            win = Fraction(min(g[c] for c in coords), gden) - dot(ys[1:], previsions) / den
            return None, render.signed_payloads(cs, g, gden, m.has_tail), win
        ws, wden = out.int_form()[1]
        weights = [Fraction(n, wden) for n in ws]
    return render.fap_payload(_representing_fap(m, coords, weights)), None, None


def check_coherence(
    gambles: Sequence[RandVar],
    previsions: Sequence[RationalLike],
    m: Model,
    mm: MinMass | None = None,
) -> Verdict:
    """de Finetti coherence of previsions on a finite list of gambles.

    Coherent means representable: some probability weighting over the
    coherence coordinates reproduces every prevision.  Incoherent means a
    sure-loss bet exists: stakes under which the bettor's gain
    ``sum c_d (X_d - E_d)`` is strictly positive at every coordinate.
    The (3) solve of the gambles as generators decides it where the
    representation program is the (4) program (see
    :func:`_decide_representation`); there a sure-loss bet stakes the
    (3) arbitrage's coefficients and wins its least value on the
    support, with no sum recomputed.
    """
    gambles = tuple(gambles)
    previsions = tuple(rat(e) for e in previsions)
    if not gambles:
        raise InvalidInput("coherence needs at least one gamble")
    if len(gambles) != len(previsions):
        raise InvalidInput("one prevision per gamble is required")
    for x in gambles:
        x.check_conforms(m)
    fap, bet, win = _decide_representation(m, coherence_coords(m), gambles, previsions, mm)
    if fap is not None:
        return Verdict(
            "coherence",
            True,
            render.representing_fap(fap, previsions),
            "coherent: the attached probability reproduces every prevision.",
        )
    return Verdict(
        "coherence",
        False,
        render.sure_loss_bet(bet[0][0], win, previsions),
        f"incoherent: the attached stakes win at least {win} at every coordinate.",
    )


def check_event_dominance(
    d: LinSpace,
    previsions: Sequence[RationalLike],
    events: Sequence[Sequence[int]],
    m: Model,
    mm: MinMass | None = None,
) -> Verdict:
    """Event-wise dominance (7): ``sup_A X >= E(X)`` for every gain and
    every event of an intersection-closed family.

    It holds exactly when the family's least event (the intersection of
    all of them, present by closure) carries a representing probability
    with total mass on that event: every event contains the least one,
    so ``sup_A X >= sup_least X >= E(X)``.  When there is none, the
    Farkas stakes win at every least-event coordinate, so the gain with
    the stakes negated violates dominance on the least event.  The least
    event is weighted in support order, the tail last, so that on default
    inputs the program is the (4) program and the (3) solve of ``d``
    decides it (see :func:`_decide_representation`).  There a failure
    stakes the (3) arbitrage's coefficients, and the violating gain is
    that arbitrage negated, with no sum recomputed.
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
    coords = sorted(least, key=lambda c: (c == TAIL, c))
    fap, bet, win = _decide_representation(m, coords, d.basis, previsions, mm)
    if fap is not None:
        return Verdict(
            "(7)",
            True,
            render.representing_fap(fap, previsions, least),
            "dominance holds for every event; the attached probability sits "
            "on the least event, reproduces the previsions, and gives every "
            "event total mass.",
        )
    return Verdict(
        "(7)",
        False,
        render.witness(
            *bet[1],
            claim="event_dominance_violated",
            amount=-win,
            event=least,
            extras={"previsions": rat_strs(previsions)},
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
