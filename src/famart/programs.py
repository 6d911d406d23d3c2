"""The integer programs behind the verdicts, built in one place.

Both the checkers, which solve these programs, and certificate
re-validation, which never solves anything, build them here.  The
contract between the two sides:

- Every builder is deterministic.  The same model, space and parameters
  give the same program: the same rows in the same order over the same
  variables.  Bland's rule is deterministic too, so the same program
  also gives the same pivots and the same certificate.
- Every program the engine builds is an ``IntProgram``.  The two that
  a Farkas witness names by id (its ``lp`` field), ``min-mass`` and
  ``expectation-bound``, and the (5) ratio programs are built here
  (:func:`martingale_mass_rows`, :func:`expectation_bound_rows`,
  :func:`ratio_bound_rows`); the validator checks stored weights
  against those rows by integer arithmetic.  :func:`arbitrage_rows`
  builds the ``>=``-only no-arbitrage program, which no report solves
  or names.
- The ``*_lp`` builders in :mod:`famart.lp` return ``LinearProgram``
  views of integer rows, which ``solve`` reads as they are and which
  make ``Fraction`` fields only when they are read.  Only the checkers
  call them, so a process that only validates never compiles them.
"""

from __future__ import annotations

from fractions import Fraction

from .core import TAIL, LinSpace, Model, expect, int_row
from .fap import Fap
from .kernel import EQ, GE, LE, IntProgram


def arbitrage_rows(m: Model, ls: LinSpace) -> IntProgram:
    """Feasibility: a combination nonnegative on the essential support whose
    support values sum to at least one.

    By positive homogeneity this is feasible exactly when some nonzero
    nonnegative gain exists, i.e. when there is arbitrage.  One ``>= 0``
    row per support coordinate, then the total row ``>= 1``.
    """
    ls.check_conforms(m)
    support = m.support()
    basis, den = ls.int_rows()
    k = len(basis)
    rows = [(*(row[c] for row in basis), 0) for c in support]
    rows.append((*(sum(row[c] for c in support) for row in basis), den))
    return IntProgram(rows, (GE,) * len(rows), (0,) * k, (None,) * k, (None,) * k, den)


def martingale_mass_rows(m: Model, ls: LinSpace) -> IntProgram:
    """Weights on the essential support that kill every generator, with
    the least weight maximized.

    Weights ``w_c = s_c + t`` with slack variables ``s_c >= 0`` and the
    common floor ``t`` maximized, so the optimum is the largest
    attainable minimum weight; it is positive exactly when a strictly
    positive (equivalent) solution exists.  (Plain nonnegative weights,
    with no floor, are :func:`famart.lp.coherence_lp` over the support
    with zero previsions.)

    Variables are ordered support-first (charged states, then the tail
    when charged), with ``t`` last.  The mass row comes first, then one
    zero-expectation row per generator.  The space keeps the program for
    the support it was last built on, so a report and its re-validation
    build it once.
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


def expectation_bound_rows(m: Model, ls: LinSpace, q: Fap, c: Fraction) -> IntProgram:
    """Minimize ``ess sup(-X_b) - c E_Q(X_b)`` over the unit ball: the
    rows, and the costs of the maximization form, which negates it.

    Variables: the combination coefficients, then the epigraph variable
    for the essential supremum of the negated gain.  Three rows per
    support coordinate: ``u >= -X_b``, then ``X_b <= 1`` and ``X_b >= -1``.
    """
    support, k = m.support(), len(ls.basis)
    values = [x.at(coord) for coord in support for x in ls.basis]
    nums, den = int_row([*(c * expect(q, x) for x in ls.basis), *values])
    bounds = (den, 0), (0, den), (0, -den)
    rows = [(*nums[i * k : i * k + k], *b) for i in range(1, len(support) + 1) for b in bounds]
    free = (None,) * (k + 1)
    return IntProgram(rows, (GE, LE, GE) * len(support), (*nums[:k], -den), free, free, den)


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


def coherence_coords(m: Model) -> tuple[int, ...]:
    """Weighting coordinates for coherence: charged states plus the tail
    state whenever the model has one."""
    coords = list(m.charged_states())
    if m.has_tail:
        coords.append(TAIL)
    return tuple(coords)
