"""The integer kernel of linear programs: the program and outcome
records, and the integer checks that certificate validation runs.

A program is an :class:`IntProgram` of integer numerators over one
denominator, the form the engine builds.  A :class:`LinearProgram` of
``Fraction`` entries keeps its integer form once read; one read off an
``IntProgram`` is a view that builds its ``Fraction`` fields only when
they are read.  Outcomes are views too: the simplex writes each field
of an :class:`Optimal`, :class:`Infeasible` or :class:`Unbounded` as
integers over one denominator, which ``int_form()`` returns, and the
``Fraction`` fields are built on first read.  The checks here
(:func:`farkas_rows`, :func:`proves_infeasible`, :func:`dual_rows`)
read the integer form alone.  Nothing here solves: the simplex that
produces outcomes is :mod:`famart.lp`, and a process that only
validates certificates never imports it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Any, Sequence, Union

from .core import InvalidInput, Record, _Kept, _rat_tuple, int_row, rat

LE, EQ, GE = "<=", "=", ">="
_RELATIONS = (LE, EQ, GE)


class Constraint(Record):
    __slots__ = ("coeffs", "relation", "rhs")
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction

    def __init__(self, coeffs, relation, rhs) -> None:
        object.__setattr__(self, "coeffs", _rat_tuple(coeffs))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rat(rhs))
        if relation not in _RELATIONS:
            raise InvalidInput(f"unknown relation {relation!r}")


# The fields a view fills from its integer form on first read.
_VIEW_FIELDS = frozenset({"objective", "constraints", "lower", "upper"})


class LinearProgram(_Kept):
    """``max/min objective . x`` subject to rows and optional variable bounds.

    Bounds default to free variables; zero-variable and zero-constraint
    programs are legal (objective 0, empty solutions).

    A program read off an :class:`IntProgram` is a view: it sets only
    ``maximize`` and keeps the integer record as its integer form, which
    is all :func:`famart.lp.solve` and the verification kernel read.  Its
    other fields are filled from those integers on first read, equal
    numerators sharing one ``Fraction``.  Equality, hashing, printing and
    pickling read the fields, so a view behaves as the record built from
    them.
    """

    __slots__ = ("objective", "maximize", "constraints", "lower", "upper")
    objective: tuple[Fraction, ...]
    maximize: bool
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | None, ...]
    upper: tuple[Fraction | None, ...]

    def __init__(
        self, objective, maximize=True, constraints=(), lower=None, upper=None
    ) -> None:
        object.__setattr__(self, "objective", _rat_tuple(objective))
        rows = []
        for c in constraints:
            if not isinstance(c, Constraint):
                coeffs, relation, rhs = c
                c = Constraint(tuple(coeffs), relation, rhs)
            if len(c.coeffs) != self.n_vars:
                raise InvalidInput(
                    f"constraint has {len(c.coeffs)} coefficients, "
                    f"program has {self.n_vars} variables"
                )
            rows.append(c)
        object.__setattr__(self, "maximize", maximize)
        object.__setattr__(self, "constraints", tuple(rows))
        object.__setattr__(self, "lower", self._bound_tuple(lower))
        object.__setattr__(self, "upper", self._bound_tuple(upper))
        for lo, hi in zip(self.lower, self.upper):
            if lo is not None and hi is not None and lo > hi:
                raise InvalidInput(f"empty bound interval [{lo}, {hi}]")

    def _bound_tuple(self, bounds) -> tuple[Fraction | None, ...]:
        if bounds is None:
            return (None,) * self.n_vars
        out = tuple(None if b is None else rat(b) for b in bounds)
        if len(out) != self.n_vars:
            raise InvalidInput("bounds length does not match variable count")
        return out

    @property
    def n_vars(self) -> int:
        return len(self.objective)

    @property
    def n_rows(self) -> int:
        return len(self.constraints)

    def __getattr__(self, name: str) -> Any:
        # Python calls this only for an unset slot: a view's unread fields.
        if name not in _VIEW_FIELDS:
            raise AttributeError(name)
        try:
            p = object.__getattribute__(self, "_rows")
        except AttributeError:
            raise AttributeError(name) from None
        den, cache = p.den, {}

        def q(n: int | None) -> Fraction | None:
            if n is None:
                return None
            f = cache.get(n)
            if f is None:
                f = cache[n] = Fraction(n, den)
            return f

        costs = p.costs if self.maximize else [-c for c in p.costs]
        constraints = tuple(
            _filled(Constraint, tuple(map(q, row[:-1])), relation, q(row[-1]))
            for row, relation in zip(p.rows, p.relations)
        )
        object.__setattr__(self, "objective", tuple(map(q, costs)))
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "lower", tuple(map(q, p.lower)))
        object.__setattr__(self, "upper", tuple(map(q, p.upper)))
        return object.__getattribute__(self, name)

    def int_form(self) -> "IntProgram":
        """The program in integers, for the simplex and the verification
        kernel; read on first use and kept."""
        if not hasattr(self, "_rows"):
            bounds = self.lower + self.upper
            entries = [*_max_objective(self), *[b for b in bounds if b is not None]]
            for con in self.constraints:
                entries += con.coeffs
                entries.append(con.rhs)
            flat, den = int_row(entries)
            nums = iter(flat)
            costs = tuple(islice(nums, self.n_vars))
            bounds = tuple(b if b is None else next(nums) for b in bounds)
            rows = [tuple(islice(nums, self.n_vars + 1)) for _ in self.constraints]
            relations = [con.relation for con in self.constraints]
            program = IntProgram(
                rows, relations, costs, bounds[: self.n_vars], bounds[self.n_vars :], den
            )
            object.__setattr__(self, "_rows", program)
        return self._rows


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
        lp = object.__new__(LinearProgram)
        object.__setattr__(lp, "maximize", maximize)
        object.__setattr__(lp, "_rows", self)
        return lp


def _filled(cls: type, *fields: object) -> Any:
    """A record of ``cls`` with ``fields`` set in slot order, unchecked."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, fields):
        object.__setattr__(record, name, value)
    return record


class _View(Record):
    """A record that can be built from what it keeps in the private slot
    ``_kept`` (see :meth:`view`), and then fills its fields named in
    ``_LAZY`` on first read: ``_fill(kept)`` gives their values.  The
    slot is not a field: equality, hashing, printing and pickling read
    the fields, so a view behaves as the record built from them, and a
    copy or an unpickled view is that record."""

    __slots__ = ("_kept",)
    _LAZY: tuple[str, ...] = ()

    @classmethod
    def view(cls, kept: Any, *fields: Any) -> Any:
        """A record keeping ``kept``, its fields in ``_LAZY`` left to fill
        and its other fields set to ``fields``, in slot order."""
        record = object.__new__(cls)
        object.__setattr__(record, "_kept", kept)
        if fields:  # an outcome's fields are all filled from ``kept``
            names = [name for name in cls.__slots__ if name not in cls._LAZY]
            for name, value in zip(names, fields, strict=True):
                object.__setattr__(record, name, value)
        return record

    def __getattr__(self, name: str) -> Any:
        # Python calls this only for an unset slot: a view's unread fields.
        if name not in self._LAZY:
            raise AttributeError(name)
        for field, value in zip(self._LAZY, self._fill(self._kept)):
            object.__setattr__(self, field, value)
        return object.__getattribute__(self, name)


class _Outcome(_View):
    """An outcome of the simplex.  One built by :mod:`famart.lp` is a view
    that keeps each field as integers over one positive denominator, a
    ``(numerator, den)`` pair for a value and a ``(numerators, den)`` pair
    for a vector, and fills its ``Fraction`` fields on first read, equal
    numerators sharing one ``Fraction``."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._LAZY = cls.__slots__

    def _fill(self, kept: Any) -> tuple:
        out = []
        for nums, den in kept:
            if type(nums) is int:
                out.append(Fraction(nums, den))
            else:
                cache = {n: Fraction(n, den) for n in set(nums)}
                out.append(tuple(map(cache.__getitem__, nums)))
        return tuple(out)

    def int_form(self) -> tuple:
        """Each field as integers over one positive denominator, in field
        order, not always in lowest terms: the pairs a view keeps, or those
        read off the fields of an outcome built from them, kept once read."""
        if not hasattr(self, "_kept"):
            kept = []
            for name in self.__slots__:
                value = getattr(self, name)
                if isinstance(value, (int, Fraction)):
                    kept.append(value.as_integer_ratio())
                else:
                    nums, den = int_row(value)
                    kept.append((tuple(nums), den))
            object.__setattr__(self, "_kept", tuple(kept))
        return self._kept


class Optimal(_Outcome):
    __slots__ = ("value", "primal", "dual")
    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]

    def __init__(self, value, primal, dual) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)


class Infeasible(_Outcome):
    __slots__ = ("farkas",)
    farkas: tuple[Fraction, ...]

    def __init__(self, farkas) -> None:
        object.__setattr__(self, "farkas", farkas)


class Unbounded(_Outcome):
    __slots__ = ("point", "ray")
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]

    def __init__(self, point, ray) -> None:
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "ray", ray)


LpOutcome = Union[Optimal, Infeasible, Unbounded]


def _max_objective(lp: LinearProgram) -> tuple[Fraction, ...]:
    return lp.objective if lp.maximize else tuple(-c for c in lp.objective)


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
