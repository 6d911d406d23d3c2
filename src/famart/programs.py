"""The linear programs behind the verdicts, built in one place.

Both the checkers, which solve these programs, and certificate
re-validation, which never solves anything, build them here.  The
contract between the two sides:

- Every builder is deterministic.  The same model, space and parameters
  give the same program: the same rows in the same order over the same
  variables.  Bland's rule is deterministic too, so the same program
  also gives the same pivots and the same certificate.
- A Farkas witness names its program by id (its ``lp`` field).  The
  validator reads that program off the model and checks the stored
  weights against it by integer arithmetic.  The two programs such a
  witness names, ``arbitrage`` and ``min-mass``, are defined here once,
  as integer rows read off the space's kept integer basis rows
  (:func:`arbitrage_rows`, :func:`martingale_mass_rows`).  The validator
  reads those rows, and so does the solver: ``arbitrage_lp`` and
  ``martingale_mass_lp`` wrap them in a ``LinearProgram`` that keeps them
  as its integer form, which the simplex reads.
- The (5) ratio programs are read off the same integer basis rows
  (:func:`ratio_bound_rows`, wrapped by ``ratio_bound_lp``).  No witness
  names them; the (5) sweep reads its gains' values off these rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .core import TAIL, ZERO, InvalidInput, LinSpace, Model, RandVar, expect
from .fap import Fap
from .kernel import EQ, GE, LE, IntProgram, LinearProgram


def _combo_row(basis: Sequence[RandVar], coord: int) -> tuple[Fraction, ...]:
    """The generators' values at one coordinate: one row of a program
    over combination coefficients."""
    return tuple(x.at(coord) for x in basis)


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


def arbitrage_rows(m: Model, ls: LinSpace) -> IntProgram:
    """Feasibility: a combination nonnegative on the essential support whose
    support values sum to at least one.

    By positive homogeneity this is feasible exactly when some nonzero
    nonnegative gain exists, i.e. when there is arbitrage.  One ``>= 0``
    row per support coordinate, then the total row ``>= 1``.  The space
    keeps the program for the support it was last built on, so a report
    and its re-validation build it once.
    """
    ls.check_conforms(m)
    support = m.support()
    kept = getattr(ls, "_arbitrage", None)
    if kept is not None and kept[0] == support:
        return kept[1]
    basis, den = ls.int_rows()
    k = len(basis)
    rows = [(*(row[c] for row in basis), 0) for c in support]
    rows.append((*(sum(row[c] for c in support) for row in basis), den))
    program = IntProgram(rows, (GE,) * len(rows), (0,) * k, (None,) * k, (None,) * k, den)
    object.__setattr__(ls, "_arbitrage", (support, program))
    return program


def arbitrage_lp(m: Model, ls: LinSpace) -> LinearProgram:
    """:func:`arbitrage_rows` as a ``LinearProgram``."""
    return arbitrage_rows(m, ls).linear_program()


def negative_gain_lp(m: Model, ls: LinSpace) -> LinearProgram:
    """Feasibility: a combination at most -1 everywhere on the support,
    i.e. a gain with strictly negative essential supremum (rescaled)."""
    support = m.support()
    k = len(ls.basis)
    rows = [(_combo_row(ls.basis, c), LE, Fraction(-1)) for c in support]
    return LinearProgram(objective=(ZERO,) * k, maximize=True, constraints=rows)


def martingale_mass_rows(m: Model, ls: LinSpace) -> IntProgram:
    """Weights on the essential support that kill every generator, with
    the least weight maximized.

    Weights ``w_c = s_c + t`` with slack variables ``s_c >= 0`` and the
    common floor ``t`` maximized, so the optimum is the largest
    attainable minimum weight; it is positive exactly when a strictly
    positive (equivalent) solution exists.  (Plain nonnegative weights,
    with no floor, are :func:`coherence_lp` over the support with zero
    previsions.)

    Variables are ordered support-first (charged states, then the tail
    when charged), with ``t`` last.  The mass row comes first, then one
    zero-expectation row per generator.  The space keeps the program for
    the support it was last built on, as :func:`arbitrage_rows` does.
    """
    ls.check_conforms(m)
    support = m.support()
    kept = getattr(ls, "_min_mass", None)
    if kept is not None and kept[0] == support:
        return kept[1]
    basis, den = ls.int_rows()
    ns = len(support)
    rows = [(den,) * ns + (ns * den, den)]  # mass one
    for row in basis:  # zero expectation per generator
        values = [row[c] for c in support]
        rows.append((*values, sum(values), 0))
    program = IntProgram(
        rows,
        (EQ,) * len(rows),
        (0,) * ns + (den,),
        (0,) * ns + (None,),
        (None,) * (ns + 1),
        den,
    )
    object.__setattr__(ls, "_min_mass", (support, program))
    return program


def martingale_mass_lp(m: Model, ls: LinSpace) -> LinearProgram:
    """:func:`martingale_mass_rows` as a ``LinearProgram``."""
    return martingale_mass_rows(m, ls).linear_program()


def expectation_bound_lp(
    m: Model, ls: LinSpace, q: Fap, c: Fraction
) -> LinearProgram:
    """Minimize ``ess sup(-X_b) - c E_Q(X_b)`` over the unit ball.

    Variables: the combination coefficients, then the epigraph variable
    for the essential supremum of the negated gain.
    """
    support = m.support()
    rows = []
    for coord in support:
        row = list(_combo_row(ls.basis, coord))
        rows.append((tuple(row + [Fraction(1)]), GE, ZERO))  # u >= -X_b
        rows.append((tuple(row + [ZERO]), LE, Fraction(1)))
        rows.append((tuple(row + [ZERO]), GE, Fraction(-1)))
    objective = [-c * expect(q, x) for x in ls.basis] + [Fraction(1)]
    return LinearProgram(
        objective=tuple(objective), maximize=False, constraints=rows
    )


def ratio_bound_rows(m: Model, ls: LinSpace, coord: int) -> IntProgram:
    """Maximize the gain at one support coordinate subject to the gain
    being at least -1 everywhere on the support.

    Variables are the combination coefficients, free.  One ``>= -1`` row
    per support coordinate, in support order; row ``i`` is the gain at
    the ``i``-th support coordinate, so the objective is the row at
    ``coord``.
    """
    ls.check_conforms(m)
    basis, den = ls.int_rows()
    k = len(basis)
    rows = [(*(row[c] for row in basis), -den) for c in m.support()]
    costs = tuple(row[coord] for row in basis)
    return IntProgram(rows, (GE,) * len(rows), costs, (None,) * k, (None,) * k, den)


def ratio_bound_lp(m: Model, ls: LinSpace, coord: int) -> LinearProgram:
    """:func:`ratio_bound_rows` as a ``LinearProgram``."""
    return ratio_bound_rows(m, ls, coord).linear_program()


def event_dominance_lp(
    m: Model, ls: LinSpace, previsions: Sequence[Fraction], event: frozenset[int]
) -> LinearProgram:
    """Minimize ``sup_A X_b - E(X_b)`` over the unit ball, for one event A.

    The event supremum is pointwise over the event's coordinates (charged
    or not); the ball is the essential unit ball.
    """
    support = m.support()
    rows = []
    for coord in sorted(event):
        row = list(_combo_row(ls.basis, coord))
        rows.append((tuple(row + [Fraction(-1)]), LE, ZERO))  # X_b <= u
    for coord in support:
        row = list(_combo_row(ls.basis, coord))
        rows.append((tuple(row + [ZERO]), LE, Fraction(1)))
        rows.append((tuple(row + [ZERO]), GE, Fraction(-1)))
    objective = [-e for e in previsions] + [Fraction(1)]
    return LinearProgram(
        objective=tuple(objective), maximize=False, constraints=rows
    )


def coherence_coords(m: Model) -> tuple[int, ...]:
    """Weighting coordinates for coherence: charged states plus the tail
    state whenever the model has one."""
    coords = list(m.charged_states())
    if m.has_tail:
        coords.append(TAIL)
    return tuple(coords)


def coherence_lp(
    coords: Sequence[int],
    gambles: Sequence[RandVar],
    previsions: Sequence[Fraction],
) -> LinearProgram:
    """Feasibility: a probability weighting over ``coords``, one variable
    per coordinate in the given order, reproducing every prevision.

    Coherence weights the :func:`coherence_coords`, the representation
    behind (7) weights the least event of the family, and (4) weights the
    support with zero previsions.
    """
    n = len(coords)
    rows = [((Fraction(1),) * n, EQ, Fraction(1))]
    for x, e in zip(gambles, previsions):
        rows.append((tuple(x.at(c) for c in coords), EQ, e))
    return LinearProgram(
        objective=(ZERO,) * n,
        maximize=True,
        constraints=rows,
        lower=(ZERO,) * n,
        upper=(None,) * n,
    )
