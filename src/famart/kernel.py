"""The integer kernel of linear programs: the integer program record
and the integer checks that certificate validation runs.

A program is an :class:`IntProgram` of integer numerators over one
denominator, the form the engine builds and the simplex reads.  The
checks here (:func:`farkas_rows`, :func:`proves_infeasible`,
:func:`dual_rows`) read that integer form alone.  The ``Fraction``
records, :class:`~famart.lp.LinearProgram` and the outcomes, live with
the simplex in :mod:`famart.lp`; a process that only validates
certificates compiles neither.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .core import Record

if TYPE_CHECKING:
    from .lp import LinearProgram

LE, EQ, GE = "<=", "=", ">="


class IntProgram(Record):
    """A program in integers, the form the simplex and the verification
    kernel read.

    Every entry is an integer numerator over the one positive denominator
    ``den``.  Each of ``rows`` lists a constraint's coefficients, then its
    right-hand side; ``relations`` holds their relations.  ``costs`` is
    the objective of the maximization form, and ``lower`` and ``upper``
    are the variable bounds, None where a variable has none.
    """

    __slots__ = ("rows", "relations", "costs", "lower", "upper", "den")
    rows: tuple[tuple[int, ...], ...]
    relations: tuple[str, ...]
    costs: tuple[int, ...]
    lower: tuple[int | None, ...]
    upper: tuple[int | None, ...]
    den: int

    def __init__(self, rows, relations, costs, lower, upper, den) -> None:
        object.__setattr__(self, "rows", tuple(rows))
        object.__setattr__(self, "relations", tuple(relations))
        object.__setattr__(self, "costs", tuple(costs))
        object.__setattr__(self, "lower", tuple(lower))
        object.__setattr__(self, "upper", tuple(upper))
        object.__setattr__(self, "den", den)

    def linear_program(self, maximize: bool = True) -> LinearProgram:
        """The program these rows define, maximizing ``costs``, or
        minimizing their negation where ``maximize`` is false, as a view:
        it holds this record as its integer form and fills its
        ``Fraction`` fields on first read (see :class:`LinearProgram`)."""
        from .lp import LinearProgram  # here, not at the top: certify builds no view

        lp = object.__new__(LinearProgram)
        object.__setattr__(lp, "maximize", maximize)
        object.__setattr__(lp, "_rows", self)
        return lp


# The integer kernel, which validation calls directly: weights and results
# are integer numerators over a positive denominator.  It reads a program
# in integers: an ``IntProgram``, or a ``LinearProgram``'s kept integer form.


def _program(lp: LinearProgram | IntProgram) -> IntProgram:
    return lp if type(lp) is IntProgram else lp.int_form()


def _combine_rows(
    p: IntProgram, weights: Sequence[int], den: int
) -> tuple[list[int], int]:
    """``sum_i w_i (a_i, b_i)`` for ``w_i = weights[i] / den``: the combined
    coefficients with the combined right-hand side last."""
    sums = [0] * (len(p.costs) + 1)
    for w, row in zip(weights, p.rows):
        if w:
            sums = [s + w * a for s, a in zip(sums, row)]
    return sums, den * p.den


def _box_max(p: IntProgram, costs: Sequence[int]) -> tuple[int, int] | None:
    """``max costs . x`` over the variable-bounds box, in the units of
    ``costs``, as a numerator and a denominator; None if unbounded."""
    top = 0
    for c, lo, hi in zip(costs, p.lower, p.upper):
        if c:
            bound = hi if c > 0 else lo
            if bound is None:
                return None
            top += c * bound
    return top, p.den


def farkas_rows(
    lp: LinearProgram | IntProgram, weights: Sequence[int], den: int
) -> tuple[list[int], int] | None:
    """Combined row of Farkas weights acting on rows normalized to ``<=``
    form (see :func:`_combine_rows`); None when a sign is wrong."""
    p = _program(lp)
    if len(weights) != len(p.rows):
        return None
    signed = []
    for w, relation in zip(weights, p.relations):
        if relation != EQ and w < 0:
            return None
        signed.append(-w if relation == GE else w)
    return _combine_rows(p, signed, den)


def proves_infeasible(lp: LinearProgram | IntProgram, combined: Sequence[int]) -> bool:
    """Whether a combined row's minimum over the box, which is minus the
    maximum of its negation, exceeds its right-hand side."""
    top = _box_max(_program(lp), [-g for g in combined[:-1]])
    return top is not None and -top[0] > combined[-1] * top[1]


def dual_rows(
    lp: LinearProgram | IntProgram, dual: Sequence[int], den: int
) -> tuple[list[int], int | None, int] | None:
    """Reduced costs ``c - A^T y`` of the maximization form and the dual
    objective, for multipliers ``y_i = dual[i] / den``.  The value is None
    if ``y`` is not dual-feasible (wrong signs, or reduced costs pointing
    past a missing bound); any feasible value bounds the maximum above.
    """
    p = _program(lp)
    if len(dual) != len(p.rows):
        return None
    sums, d = _combine_rows(p, dual, den)
    reduced = [c * den - s for c, s in zip(p.costs, sums)]
    slack = _box_max(p, reduced)
    if slack is None or any(
        y < 0 if relation == LE else y > 0 and relation == GE
        for y, relation in zip(dual, p.relations)
    ):
        return reduced, None, d
    t = slack[1]
    return [r * t for r in reduced], sums[-1] * t + slack[0], d * t
