"""Reference decisions that share no solve with the report chain.

The report decides (4), (5) and (6) from one (3) solve, so comparing a
report row with ``check_acmfap`` or ``check_no_arbitrage`` compares the
chain with itself.  These helpers decide each condition by its own
program instead, so the differential and implication tests stay
independent of the code they test.  :func:`counting_solves` counts the
programs the checkers solve.
"""

from fractions import Fraction as F

from famart import checkers, programs
from famart.lp import LinearProgram, Optimal, solve


def acmfap_holds(m, ls):
    """(4) by its own program, with no (3) solve: some pmf on the support
    kills every generator (the coherence program with zero previsions)."""
    zeros = (F(0),) * len(ls.basis)
    return isinstance(solve(programs.coherence_lp(m.support(), ls.basis, zeros)), Optimal)


def no_arbitrage_holds(m, ls):
    """(6) by its own program, with no (3) solve: no gain is nonnegative on
    the support with positive mass."""
    return not (ls.basis and isinstance(solve(programs.arbitrage_lp(m, ls)), Optimal))


def ratio_sweep(m, ls):
    """The (5) verdict of the ratio programs alone: the sweep started from
    no pmf and no gain, which shares no solve with the (3) program."""
    return checkers._ratio_sweep(m, ls, [], [])


def cstar_of(m, ls):
    """c* by the ratio programs alone; None when no finite bound exists."""
    v = ratio_sweep(m, ls)
    return F(v.certificate["value"]) if v.holds else None


def counting_solves(monkeypatch):
    """The list of programs the checkers solve from now on, in order.

    A ``solve`` and the (5) sweep's first ratio program add their program.
    Each later objective the sweep maximizes over that program's rows adds
    the program of that objective; an objective the sweep reuses adds none.
    """
    calls = []
    solve, reoptimizer = checkers.solve, checkers.reoptimizer

    def solving(lp):
        calls.append(lp)
        return solve(lp)

    def opening(lp):
        calls.append(lp)
        out, maximize = reoptimizer(lp)

        def maximizing(objective):
            calls.append(LinearProgram(objective, True, lp.constraints, lp.lower, lp.upper))
            return maximize(objective)

        return out, maximizing

    monkeypatch.setattr(checkers, "solve", solving)
    monkeypatch.setattr(checkers, "reoptimizer", opening)
    return calls
