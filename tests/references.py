"""Reference decisions that share no solve with the report chain.

The report decides (4), (5) and (6) from one (3) solve, so comparing a
report row with ``check_acmfap`` or ``check_no_arbitrage`` compares the
chain with itself.  These helpers decide each condition by its own
program instead, so the differential and implication tests stay
independent of the code they test.  :func:`reference_ratio_sweep` is
the (5) sweep in ``Fraction`` arithmetic over the ``Fraction`` ratio
program, whose integer form it hands the simplex, and it renders its
certificate with the ``Fraction`` encoders; the integer sweep must
reproduce it byte for byte.  :func:`reference_arbitrage` is the
failing (3) arbitrage formed in ``Fraction`` arithmetic, which the
integer form in ``checkers`` must reproduce exactly.
:func:`reference_verify_outcome` checks a simplex outcome in ``Fraction``
arithmetic on the program's ``Fraction`` fields; the integer check of
:func:`famart.lp.verify_outcome` must agree with it.
:func:`counting_solves` counts the programs the checkers solve, and
:func:`fuzz_corpus` yields the benchmark's seed-0 fuzz corpus.
"""

import json
from fractions import Fraction as F

from famart import checkers
from famart.core import ZERO, InvalidInput, dot, int_row, rat_str, sup_norm
from famart.examples import random_finite_model, serialize_model
from famart.lp import (
    EQ,
    GE,
    LE,
    Infeasible,
    IntProgram,
    LinearProgram,
    Optimal,
    Unbounded,
    arbitrage_lp,
    coherence_lp,
    reoptimizer,
    solve,
)
from famart.modelfile import coord_payload, randvar_payload, rat_strs


def acmfap_holds(m, ls):
    """(4) by its own program, with no (3) solve: some pmf on the support
    kills every generator (the coherence program with zero previsions)."""
    zeros = (F(0),) * len(ls.basis)
    return isinstance(solve(coherence_lp(m.support(), ls.basis, zeros)), Optimal)


def no_arbitrage_holds(m, ls):
    """(6) by its own program, with no (3) solve: no gain is nonnegative on
    the support with positive mass."""
    return not (ls.basis and isinstance(solve(arbitrage_lp(m, ls)), Optimal))


def ratio_sweep(m, ls):
    """The (5) verdict of the ratio programs alone: the sweep started from
    no pmf and no gain, which shares no solve with the (3) program."""
    return checkers._ratio_sweep(m, ls, [], [])


def cstar_of(m, ls):
    """c* by the ratio programs alone; None when no finite bound exists."""
    v = ratio_sweep(m, ls)
    return F(v.certificate["value"]) if v.holds else None


def ratio_bound_lp(m, ls, coord):
    """The ``Fraction`` definition of the ratio program: maximize the gain
    at ``coord`` subject to the gain being at least -1 on the support."""
    rows = [(tuple(x.at(c) for x in ls.basis), GE, F(-1)) for c in m.support()]
    return LinearProgram(tuple(x.at(coord) for x in ls.basis), True, rows)


def reference_ratio_sweep(m, ls, cover, gains):
    """The (5) sweep of ``checkers._ratio_sweep`` with every pmf, bound and
    gain value a ``Fraction``; it appends to ``cover`` as that does."""
    support = m.support()
    lower = [max(col) for col in zip(*cover)] if cover else [ZERO] * len(support)
    best = ZERO
    attaining = None

    def attain(coeffs, x):
        nonlocal best, attaining
        values = [x.at(c) for c in support]
        top = max(values)
        if attaining is None or top > best:
            best = top
            attaining = {"coefficients": coeffs, "x": x, "coord": support[values.index(top)]}

    for coeffs, x in gains:
        attain(coeffs, x)
    solved = {}
    while ls.basis and (attaining is None or (1 + best) * min(lower) < 1):
        i = min(range(len(support)), key=lower.__getitem__)
        if not solved:
            lp = ratio_bound_lp(m, ls, support[i])
            solved[lp.objective], maximize = reoptimizer(lp.int_form())
        objective = lp.constraints[i].coeffs
        out = solved.get(objective)
        if out is None:
            out = solved[objective] = maximize(*int_row(objective))
        if isinstance(out, Unbounded):
            x = ls.combine(out.ray)
            total = sum(x.at(c) for c in support)
            return checkers._unbounded_ratio(total, rat_strs(out.ray), randvar_payload(x))
        pmf = tuple((int(j == i) - y) / (1 + out.value) for j, y in enumerate(out.dual))
        if pmf not in cover:
            cover.append(pmf)
        lower = [max(a, b) for a, b in zip(lower, pmf)]
        attain(out.primal, ls.combine(out.primal))
    certificate = {"kind": "cstar_bound", "value": rat_str(best)}
    if attaining is not None:
        certificate["attaining"] = {
            "coefficients": rat_strs(attaining["coefficients"]),
            "gain": randvar_payload(attaining["x"]),
            "coord": coord_payload(attaining["coord"]),
        }
    certificate["cover"] = [rat_strs(q) for q in cover]
    return checkers.Verdict(
        "(5)",
        True,
        certificate,
        f"finite ratio bound c* = {best} (attained; a cover of martingale "
        "pmfs bounds every coordinate).",
    )


def reference_arbitrage(m, ls, y):
    """The coefficients and the gain of a failing (3) whose program rows
    carry the Farkas or dual weights ``y``: ``sum_d y_d X_d`` combined in
    ``Fraction`` arithmetic and scaled to sup norm one on the support."""
    x = ls.combine(y[1:])
    norm = sup_norm(x, m)
    return tuple(b / norm for b in y[1:]), x.scaled(1 / norm)


def _max_objective(lp):
    return lp.objective if lp.maximize else tuple(-c for c in lp.objective)


def _primal_feasible(lp, x):
    if len(x) != lp.n_vars:
        return False
    for con in lp.constraints:
        lhs = dot(con.coeffs, x)
        if con.relation == LE and lhs > con.rhs:
            return False
        if con.relation == GE and lhs < con.rhs:
            return False
        if con.relation == EQ and lhs != con.rhs:
            return False
    for v, lo, hi in zip(x, lp.lower, lp.upper):
        if lo is not None and v < lo:
            return False
        if hi is not None and v > hi:
            return False
    return True


def _box_max(lp, costs):
    """``max costs . x`` over the variable bounds; None if unbounded."""
    top = ZERO
    for c, lo, hi in zip(costs, lp.lower, lp.upper):
        if c:
            bound = hi if c > 0 else lo
            if bound is None:
                return None
            top += c * bound
    return top


def _combined(lp, y):
    """``sum_i y_i a_i`` over the rows ``a_i`` of ``lp``."""
    return [dot(y, [con.coeffs[j] for con in lp.constraints]) for j in range(lp.n_vars)]


def _dual_objective(lp, y):
    """The dual objective of the maximization form at ``y``; None where
    ``y`` is not dual-feasible."""
    if len(y) != lp.n_rows:
        return None
    for w, con in zip(y, lp.constraints):
        if (con.relation == LE and w < 0) or (con.relation == GE and w > 0):
            return None
    reduced = [c - g for c, g in zip(_max_objective(lp), _combined(lp, y))]
    slack = _box_max(lp, reduced)
    return None if slack is None else dot(y, [con.rhs for con in lp.constraints]) + slack


def _verify_optimal(lp, out):
    if len(out.primal) != lp.n_vars or len(out.dual) != lp.n_rows:
        return False
    if not _primal_feasible(lp, out.primal):
        return False
    vmax = out.value if lp.maximize else -out.value
    if dot(_max_objective(lp), out.primal) != vmax:
        return False
    return _dual_objective(lp, out.dual) == vmax


def _verify_infeasible(lp, w):
    """Whether the Farkas weights ``w``, on rows normalized to ``<=``
    form, combine them into a row whose minimum over the variable bounds
    exceeds its right-hand side."""
    if len(w) != lp.n_rows:
        return False
    signed = []
    for x, con in zip(w, lp.constraints):
        if con.relation != EQ and x < 0:
            return False
        signed.append(-x if con.relation == GE else x)
    top = _box_max(lp, [-g for g in _combined(lp, signed)])
    return top is not None and -top > dot(signed, [con.rhs for con in lp.constraints])


def _verify_unbounded(lp, out):
    if len(out.point) != lp.n_vars or len(out.ray) != lp.n_vars:
        return False
    if not _primal_feasible(lp, out.point):
        return False
    for con in lp.constraints:
        d = dot(con.coeffs, out.ray)
        if con.relation == LE and d > 0:
            return False
        if con.relation == GE and d < 0:
            return False
        if con.relation == EQ and d != 0:
            return False
    for d, lo, hi in zip(out.ray, lp.lower, lp.upper):
        if lo is not None and d < 0:
            return False
        if hi is not None and d > 0:
            return False
    return dot(_max_objective(lp), out.ray) > 0


def reference_verify_outcome(lp, out):
    """Whether ``out`` certifies its answer on ``lp``, checked on the
    ``Fraction`` fields of both; False on an entry that is not an int or
    a ``Fraction`` and on a malformed certificate."""
    if not isinstance(out, (Optimal, Infeasible, Unbounded)):
        return False
    try:
        fields = [getattr(out, f) for f in out.__slots__]
        if isinstance(out, Optimal):
            fields[0] = (out.value,)
        if not all(type(x) is int or isinstance(x, F) for v in fields for x in v):
            return False
        if isinstance(out, Optimal):
            return _verify_optimal(lp, out)
        if isinstance(out, Infeasible):
            return _verify_infeasible(lp, out.farkas)
        return _verify_unbounded(lp, out)
    except (InvalidInput, TypeError, ZeroDivisionError):
        return False


def counting_solves(monkeypatch):
    """The list of programs the checkers solve from now on, in order.

    A ``solve`` and the (5) sweep's first ratio program add their program.
    Each later objective the sweep maximizes over that program's rows, as
    numerators over the program's denominator, adds the program of that
    objective; an objective the sweep reuses adds none.
    """
    calls = []
    solve, reoptimizer = checkers.solve, checkers.reoptimizer

    def solving(lp):
        calls.append(lp)
        return solve(lp)

    def opening(p):
        calls.append(p)
        out, maximize = reoptimizer(p)

        def maximizing(costs, den):
            assert den == p.den
            calls.append(IntProgram(p.rows, p.relations, costs, p.lower, p.upper, den))
            return maximize(costs, den)

        return out, maximizing

    monkeypatch.setattr(checkers, "solve", solving)
    monkeypatch.setattr(checkers, "reoptimizer", opening)
    return calls


def fuzz_corpus():
    """The benchmark's seed-0 fuzz corpus: model seeds from 0 on, each kept
    while its shape (charged states, gains) has room, 12 models for each
    of the 24 shapes of up to 6 charged states and 4 gains."""
    room = {(n, k): 12 for n in range(1, 7) for k in range(1, 5)}
    seed = 0
    while any(room.values()):
        m, ls = random_finite_model(seed, 6, 4)
        shape = len(m.charged_states()), len(ls.basis)
        if room[shape]:
            room[shape] -= 1
            yield json.loads(json.dumps(serialize_model(m, lin_space=ls)))
        seed += 1
