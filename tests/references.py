"""Reference decisions that share no solve with the report chain.

The report decides (4), (5) and (6) from one (3) solve, so comparing a
report row with ``check_acmfap`` or ``check_no_arbitrage`` compares the
chain with itself.  These helpers decide each condition by its own
program instead, so the differential and implication tests stay
independent of the code they test.
"""

from fractions import Fraction as F

from famart import checkers, programs
from famart.lp import Optimal, solve


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
