"""Exact rational linear programming with machine-checkable certificates.

A two-phase primal simplex in exact rational arithmetic.  Pivoting
follows Bland's smallest-index rule (entering column with the lowest
index among improving reduced costs; leaving row by minimum ratio, ties
broken by the smallest basic column index), so solving terminates without
perturbation and is fully deterministic: identical programs yield
identical outcomes.  :func:`solve` runs phase 1 on a program's rows, then
phase 2 for its objective; :func:`reoptimizer` goes on to maximize more
objectives over the same rows, each from the last optimal basis.

The dense tableau holds each row as integer numerators over one positive
integer denominator, reduced by their gcd after every update, in the
fraction-free style of Edmonds and Bareiss; every entry is therefore the
same rational a `fractions.Fraction` tableau would hold, and the pivot
rule reads only signs and cross products of numerators.  A
`LinearProgram` enters through :func:`solve`; the tableau, and
:func:`reoptimizer`, read its integer form (an `IntProgram`, which the
verification kernel :mod:`famart.kernel` reads too), and outcomes keep
theirs in integers.

The ``Fraction`` records live here, at the public edge, and share one
view protocol, :class:`_View`: ``view(kept, *fields)`` builds a record
that keeps ``kept``, ``_fill(kept)`` gives its ``_LAZY`` fields on first
read, and ``int_form()`` returns what it keeps, or what ``_read()``
reads off the fields of a record built from them.  A program read off an
``IntProgram`` is such a view, and so are the outcomes the simplex
returns.  The ``*_lp`` builders return views of the integer rows
:mod:`famart.programs` builds; the engine reads only their integers.

Every outcome embeds a certificate that :func:`verify_outcome` re-checks
against the original program by plain arithmetic on the integer forms of
both, with no access to solver internals:

``Optimal``
    Primal point, dual multipliers, and exactly equal objective values.
``Infeasible``
    Farkas weights over the rows.
``Unbounded``
    A feasible point plus an improving ray.

Conventions.  Certificates are stated for the maximization form; a
minimization is certified through its negated objective.  Dual
multipliers are >= 0 on ``<=`` rows, <= 0 on ``>=`` rows, and free on
``=`` rows; variable bounds enter through reduced costs, never through
extra certificate coordinates.  Farkas weights are nonnegative on
inequality rows after normalizing them to ``<=`` form, free on equality
rows; validity means the weighted row combination stays above its
weighted right-hand side over the whole variable-bounds box.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, lcm
from operator import mul
from typing import Any, Callable, Sequence, Union

from .core import (
    InvalidInput,
    LinSpace,
    Model,
    RandVar,
    Record,
    _rat_tuple,
    int_row,
    rat,
)
from .fap import Fap
from .kernel import (  # noqa: F401  (re-exported: callers name them on famart.lp)
    EQ,
    GE,
    LE,
    IntProgram,
    dual_rows,
    farkas_rows,
    proves_infeasible,
)
from .programs import (
    arbitrage_rows,
    expectation_bound_rows,
    martingale_mass_rows,
    ratio_bound_rows,
)

_RELATIONS = (LE, EQ, GE)


# --------------------------------------------------------------------------
# Programs and outcomes
# --------------------------------------------------------------------------


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
    copy or an unpickled view is that record.  :meth:`int_form` gives
    what a view keeps; a record built from its fields reads it off them
    with ``_read()`` and keeps it."""

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

    def int_form(self) -> Any:
        """What a view keeps, or what ``_read()`` reads off the fields of
        a record built from them, kept once read."""
        if not hasattr(self, "_kept"):
            object.__setattr__(self, "_kept", self._read())
        return self._kept


class LinearProgram(_View):
    """``max/min objective . x`` subject to rows and optional variable bounds.

    Bounds default to free variables; zero-variable and zero-constraint
    programs are legal (objective 0, empty solutions).

    Its integer form is an :class:`IntProgram`, which is all
    :func:`famart.lp.solve` and the verification kernel read.  A program
    read off one (:meth:`IntProgram.linear_program`) is a view: it sets
    only ``maximize`` and fills its other fields from those integers on
    first read, equal numerators sharing one ``Fraction``.
    """

    __slots__ = ("objective", "maximize", "constraints", "lower", "upper")
    objective: tuple[Fraction, ...]
    maximize: bool
    constraints: tuple[Constraint, ...]
    lower: tuple[Fraction | None, ...]
    upper: tuple[Fraction | None, ...]
    _LAZY = ("objective", "constraints", "lower", "upper")

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

    def _fill(self, p: IntProgram) -> tuple:
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
        return tuple(map(q, costs)), constraints, tuple(map(q, p.lower)), tuple(map(q, p.upper))

    def _read(self) -> IntProgram:
        bounds = self.lower + self.upper
        costs = self.objective if self.maximize else [-c for c in self.objective]
        entries = [*costs, *[b for b in bounds if b is not None]]
        for con in self.constraints:
            entries += con.coeffs
            entries.append(con.rhs)
        flat, den = int_row(entries)
        nums = iter(flat)
        costs = tuple(islice(nums, self.n_vars))
        bounds = tuple(b if b is None else next(nums) for b in bounds)
        rows = [tuple(islice(nums, self.n_vars + 1)) for _ in self.constraints]
        relations = [con.relation for con in self.constraints]
        return IntProgram(
            rows, relations, costs, bounds[: self.n_vars], bounds[self.n_vars :], den
        )


class _Outcome(_View):
    """An outcome of the simplex.  One built by :mod:`famart.lp` is a view
    that keeps each field as integers over one positive denominator, a
    ``(numerator, den)`` pair for a value and a ``(numerators, den)`` pair
    for a vector, and fills its ``Fraction`` fields on first read, equal
    numerators sharing one ``Fraction``.  Its :meth:`int_form` is those
    pairs in field order, not always in lowest terms; reading them off a
    record built from its fields raises ``InvalidInput`` on an entry that
    is not an int or a ``Fraction``."""

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

    def _read(self) -> tuple:
        kept = []
        for name in self.__slots__:
            value = getattr(self, name)
            if _exact(value):
                kept.append(value.as_integer_ratio())
            elif isinstance(value, (tuple, list)) and all(map(_exact, value)):
                nums, den = int_row(value)
                kept.append((tuple(nums), den))
            else:  # a float would bring rounding into an exact check
                raise InvalidInput(f"{name} is not an int, a Fraction or a list of them")
        return tuple(kept)


def _exact(x: object) -> bool:
    return type(x) is int or isinstance(x, Fraction)


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


# --------------------------------------------------------------------------
# Program builders
# --------------------------------------------------------------------------


def arbitrage_lp(m: Model, ls: LinSpace) -> LinearProgram:
    """:func:`~famart.programs.arbitrage_rows` as a ``LinearProgram``."""
    return arbitrage_rows(m, ls).linear_program()


def negative_gain_lp(m: Model, ls: LinSpace) -> LinearProgram:
    """Feasibility: a combination at most -1 everywhere on the support,
    i.e. a gain with strictly negative essential supremum (rescaled)."""
    basis, den = ls.int_rows()
    k = len(basis)
    rows = [(*(row[c] for row in basis), -den) for c in m.support()]
    program = IntProgram(rows, (LE,) * len(rows), (0,) * k, (None,) * k, (None,) * k, den)
    return program.linear_program()


def martingale_mass_lp(m: Model, ls: LinSpace) -> LinearProgram:
    """:func:`~famart.programs.martingale_mass_rows` as a ``LinearProgram``."""
    return martingale_mass_rows(m, ls).linear_program()


def expectation_bound_lp(
    m: Model, ls: LinSpace, q: Fap, c: Fraction
) -> LinearProgram:
    """:func:`~famart.programs.expectation_bound_rows` as a ``LinearProgram``,
    minimizing ``ess sup(-X_b) - c E_Q(X_b)``."""
    return expectation_bound_rows(m, ls, q, c).linear_program(maximize=False)


def ratio_bound_lp(m: Model, ls: LinSpace, coord: int) -> LinearProgram:
    """:func:`~famart.programs.ratio_bound_rows` as a ``LinearProgram``."""
    return ratio_bound_rows(m, ls, coord).linear_program()


def event_dominance_lp(
    m: Model, ls: LinSpace, previsions: Sequence[Fraction], event: frozenset[int]
) -> LinearProgram:
    """Minimize ``sup_A X_b - E(X_b)`` over the unit ball, for one event A.

    Variables: the combination coefficients, then the epigraph variable
    ``u`` for the event supremum, which is pointwise over the event's
    coordinates (charged or not); the ball is the essential unit ball.
    One ``X_b <= u`` row per event coordinate, in sorted order, then
    ``X_b <= 1`` and ``X_b >= -1`` per support coordinate.
    """
    basis, bden = ls.int_rows()
    ps, pden = int_row(previsions)
    den = lcm(bden, pden)
    b, p = den // bden, den // pden
    rows = [(*(row[c] * b for row in basis), -den, 0) for c in sorted(event)]
    for c in m.support():
        gain = tuple(row[c] * b for row in basis)
        rows += [(*gain, 0, den), (*gain, 0, -den)]
    relations = (LE,) * len(event) + (LE, GE) * len(m.support())
    free = (None,) * (len(basis) + 1)
    costs = (*(e * p for e in ps), -den)  # the maximization form: E(X_b) - u
    program = IntProgram(rows, relations, costs, free, free, den)
    return program.linear_program(maximize=False)


def coherence_lp(
    coords: Sequence[int],
    gambles: Sequence[RandVar],
    previsions: Sequence[Fraction],
) -> LinearProgram:
    """Feasibility: a probability weighting over ``coords``, one variable
    per coordinate in the given order, reproducing every prevision.

    Coherence weights the :func:`~famart.programs.coherence_coords`, the
    representation behind (7) weights the least event of the family, and
    (4) weights the support with zero previsions.
    """
    n = len(coords)
    nums, den = int_row([v for x, e in zip(gambles, previsions) for v in (*map(x.at, coords), e)])
    rows = [(den,) * (n + 1), *(tuple(nums[i : i + n + 1]) for i in range(0, len(nums), n + 1))]
    program = IntProgram(rows, (EQ,) * len(rows), (0,) * n, (0,) * n, (None,) * n, den)
    return program.linear_program()


# --------------------------------------------------------------------------
# Solver
# --------------------------------------------------------------------------


class _Tableau:
    """Dense simplex tableau in equality form with per-row probe columns.

    It reads a program's kept integer form (:meth:`LinearProgram.int_form`)
    and does no rational arithmetic.  Each variable becomes nonnegative
    internal columns: ``x = l + p`` with a lower bound, ``x = u - p`` with
    only an upper one, ``x = p - q`` when free.  Internal rows are the
    original constraints (variables substituted, right-hand sides flipped
    nonnegative) followed by one ``p <= u - l`` row per doubly bounded
    variable.  Each row keeps a *probe* column -- its initial basic
    column, a slack or an artificial with entry +1 in that row only --
    from which dual multipliers are read back after any phase.

    Row ``i``, right-hand side last, is the list ``rows[i]`` of integer
    numerators over one positive integer denominator ``dens[i]``; the
    reduced costs are kept the same way (``rc`` over ``rc_den``).
    Each row is divided by the gcd of its denominator and numerators when
    built and after every update, so every entry equals the reduced
    rational that exact rational pivoting would hold, and a basic column
    ``b`` of row ``i`` reads ``rows[i][b] == dens[i]``.
    """

    def __init__(self, p: IntProgram):
        self.den = p.den
        # ``x_j = shift[j] + sum sign * p_k`` over the internal columns
        # ``k`` with ``col_var[k] == (j, sign)``; slacks and artificials
        # follow them.
        self.col_var: list[tuple[int, int]] = []
        self.shift = [0] * len(p.costs)  # over den
        boxes: list[tuple[int, int]] = []  # (column, u - l over den) box rows
        for j, (lo, hi) in enumerate(zip(p.lower, p.upper)):
            if lo is None and hi is None:
                self.col_var += [(j, 1), (j, -1)]
                continue
            if lo is not None and hi is not None:
                boxes.append((len(self.col_var), hi - lo))
            self.shift[j] = hi if lo is None else lo
            self.col_var.append((j, -1 if lo is None else 1))

        # A shift moves ``a_j shift_j`` to the right-hand side, over den**2;
        # then every row is scaled by ``m = den``.  No famart builder shifts.
        m, rhs = 1, [row[-1] for row in p.rows]
        if any(self.shift):
            m = p.den
            rhs = [row[-1] * m - sum(map(mul, row, self.shift)) for row in p.rows]
        rhs += [width * m for _col, width in boxes]
        relations = [*p.relations, *[LE] * len(boxes)]
        self.n_orig_rows = len(p.rows)
        self.row_origin = list(range(len(rhs)))

        # Equality form with slack/surplus, flipped to nonnegative rhs.  The
        # initial basis and probes: the slack if it survives the flip with
        # coefficient +1, otherwise a fresh artificial column.
        self.ncols = len(self.col_var)

        def new_col() -> int:
            self.ncols += 1
            return self.ncols - 1

        slacks = [None if rel == EQ else new_col() for rel in relations]
        self.sigma = [-1 if b < 0 else 1 for b in rhs]
        self.artificial: set[int] = set()
        self.basis: list[int] = []
        for relation, s, sgn in zip(relations, slacks, self.sigma):
            if s is not None and sgn == (1 if relation == LE else -1):
                self.basis.append(s)
            else:
                self.basis.append(new_col())
                self.artificial.add(self.basis[-1])
        self.probe = list(self.basis)
        pad = [0] * (self.ncols - len(self.col_var))
        self.banned: set[int] = set()

        # Integer rows over ``den * m``, each divided by its gcd.
        scale = p.den * m
        self.rows: list[list[int]] = []
        self.dens: list[int] = []
        for i, (relation, b, s, sgn, basic) in enumerate(
            zip(relations, rhs, slacks, self.sigma, self.basis)
        ):
            if i < self.n_orig_rows:
                coeffs, f = p.rows[i], sgn * m
                row = [f * sign * coeffs[j] for j, sign in self.col_var] + pad
            else:
                row = [0] * self.ncols
                row[boxes[i - self.n_orig_rows][0]] = sgn * scale
            row.append(sgn * b)
            if s is not None:
                row[s] = sgn * scale if relation == LE else -sgn * scale
            row[basic] = scale
            g = gcd(*row)
            if g != 1:
                row = [a // g for a in row]
            self.rows.append(row)
            self.dens.append(row[basic])
        self.rc: list[int] = []
        self.rc_den = 1

    # -- simplex machinery -------------------------------------------------

    def _reduced_costs(self, costs: Sequence[int], den: int) -> None:
        """Set ``rc`` to ``costs`` over ``den`` minus the basic cost of
        every row.

        The last entry, the right-hand side's column, is minus the
        objective value of the basic solution (offset excluded).
        """
        g = gcd(den, *costs)
        self.rc, self.rc_den = [c // g for c in costs] + [0], den // g
        for r, b in enumerate(self.basis):
            if self.rc[b]:
                pivot = [(j, q) for j, q in enumerate(self.rows[r]) if q]
                self.rc, self.rc_den = _eliminate(
                    self.rc, self.rc_den, b, pivot, self.dens[r]
                )

    def _pivot(self, r: int, col: int) -> None:
        prow = self.rows[r]
        if prow[col] < 0:
            prow = [-a for a in prow]
        g = gcd(*prow)
        if g != 1:
            prow = [a // g for a in prow]
        p = prow[col]
        self.rows[r], self.dens[r] = prow, p
        pivot = [(j, q) for j, q in enumerate(prow) if q]
        for i, row in enumerate(self.rows):
            if i != r and row[col]:
                self.rows[i], self.dens[i] = _eliminate(row, self.dens[i], col, pivot, p)
        if self.rc[col]:
            self.rc, self.rc_den = _eliminate(self.rc, self.rc_den, col, pivot, p)
        self.basis[r] = col

    def _run(self, costs: Sequence[int], den: int) -> tuple[str, int]:
        """Bland-rule simplex to optimality or unboundedness for the column
        costs ``costs`` over ``den``.

        Leaves the final reduced costs in ``rc`` and returns ("optimal",
        -1) or ("unbounded", entering column).  Signs of reduced costs
        and entries are those of their numerators; ratios ``rhs / entry``
        share their row's denominator, so they compare by cross products.
        """
        self._reduced_costs(costs, den)
        basic = set(self.basis)
        while True:
            enter = -1
            rc = self.rc
            for j in range(self.ncols):
                if j in basic or j in self.banned:
                    continue
                if rc[j] > 0:
                    enter = j
                    break
            if enter < 0:
                return "optimal", -1
            leave = -1
            best_rhs = best_a = 0
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    lhs, rhs = row[-1] * best_a, best_rhs * a
                    if leave < 0 or lhs < rhs or (
                        lhs == rhs and self.basis[i] < self.basis[leave]
                    ):
                        best_rhs, best_a = row[-1], a
                        leave = i
            if leave < 0:
                return "unbounded", enter
            departing = self.basis[leave]
            basic.discard(departing)
            self._pivot(leave, enter)
            basic.add(enter)
            if departing in self.artificial:
                # A departed artificial never re-enters; Bland's rule on the
                # remaining columns still guarantees termination.
                self.banned.add(departing)

    # -- outcome extraction -------------------------------------------------

    def _duals(self, costs: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
        """Multipliers of the original rows, read off the probe columns, for
        the column costs ``costs`` over ``den``, over ``den * rc_den``."""
        duals = [0] * self.n_orig_rows
        rc, rc_den, sigma = self.rc, self.rc_den, self.sigma
        for col, origin in zip(self.probe, self.row_origin):
            if origin < self.n_orig_rows:
                duals[origin] = sigma[origin] * (costs[col] * rc_den - rc[col] * den)
        return tuple(duals), den * rc_den

    def _primal(self) -> tuple[tuple[int, ...], int]:
        basic = [(b, row[-1], d) for row, d, b in zip(self.rows, self.dens, self.basis)]
        return self._map(basic, True)

    def _map(self, cols: list[tuple[int, int, int]], point: bool) -> tuple[tuple[int, ...], int]:
        """The original variables where each internal ``(column, numerator,
        denominator)`` of ``cols`` takes that value and every other column
        is 0: a point, or, with ``point`` False, a ray, which the shifts
        leave out.  Numerators over the lcm of the nonzero values'
        denominators, times ``den`` where a point is shifted."""
        n_mapped = len(self.col_var)
        cols = [c for c in cols if c[1] and c[0] < n_mapped]
        den = lcm(*[d for _, _, d in cols])
        nums = [0] * len(self.shift)
        for col, v, d in cols:
            j, sign = self.col_var[col]
            nums[j] += sign * v * (den // d)
        if point and any(self.shift):
            return tuple(v * self.den + s * den for v, s in zip(nums, self.shift)), den * self.den
        return tuple(nums), den

    def maximize(self, costs: Sequence[int], den: int) -> Optimal | Unbounded:
        """Phase 2: maximize ``costs`` over ``den``, one cost per original
        variable, from the current basis, which is feasible; read back the
        outcome, in integers (see :class:`Optimal`)."""
        cols = [sign * costs[j] for j, sign in self.col_var]
        cols += [0] * (self.ncols - len(cols))
        status, enter = self._run(cols, den)
        if status == "unbounded":
            ray = [(enter, 1, 1)] + [
                (b, -row[enter], d) for row, d, b in zip(self.rows, self.dens, self.basis)
            ]
            return Unbounded.view((self._primal(), self._map(ray, False)))
        value = -self.rc[-1] * den, den * self.rc_den  # over the duals' denominator
        offset = sum(map(mul, costs, self.shift))  # over den * self.den
        if offset:
            value = value[0] * self.den + offset * self.rc_den, value[1] * self.den
        return Optimal.view((value, self._primal(), self._duals(cols, den)))

    def drive_out_artificials(self) -> None:
        """Pivot zero-valued artificials out of the basis; drop redundant rows."""
        r = 0
        while r < len(self.rows):
            b = self.basis[r]
            if b not in self.artificial:
                r += 1
                continue
            enter = -1
            for j in range(self.ncols):
                if j not in self.artificial and self.rows[r][j] != 0:
                    enter = j
                    break
            if enter >= 0:
                self._pivot(r, enter)
                r += 1
            else:
                # 0 = 0 row: linearly dependent constraint, dual weight 0.
                del self.rows[r], self.dens[r], self.basis[r]
                del self.probe[r], self.row_origin[r]
        self.banned |= self.artificial


def _eliminate(
    row: list[int], den: int, col: int, pivot: list[tuple[int, int]], p: int
) -> tuple[list[int], int]:
    """``row / den`` minus its ``col`` entry times the pivot row over ``p``.

    ``pivot`` lists the pivot row's nonzero ``(column, numerator)`` pairs,
    with numerator ``p`` in column ``col``, so the result is 0 there.
    With ``f = row[col] / gcd(row[col], p)`` and ``s = p / gcd(row[col], p)``
    the new row is ``row * s - f * pivot`` over ``den * s``, then divided
    by its gcd.
    """
    g = gcd(row[col], p)
    f, s = row[col] // g, p // g
    if s == 1:
        row = row.copy()
    else:
        row = [a * s for a in row]
        den *= s
    for j, q in pivot:
        row[j] -= f * q
    g = gcd(den, *row)
    if g != 1:
        row = [a // g for a in row]
        den //= g
    return row, den


def solve(lp: LinearProgram) -> LpOutcome:
    """Solve ``lp`` exactly, returning an outcome with a verifiable certificate."""
    if not isinstance(lp, LinearProgram):
        raise InvalidInput("solve expects a LinearProgram")
    out = reoptimizer(lp.int_form())[0]
    if isinstance(out, Optimal) and not lp.maximize:
        (num, den), primal, dual = out.int_form()
        out = Optimal.view(((-num, den), primal, dual))
    return out


def reoptimizer(
    p: IntProgram,
) -> tuple[LpOutcome, Callable[[Sequence[int], int], LpOutcome]]:
    """Maximize ``p``'s costs over its rows and bounds, and return the
    outcome with a function that maximizes other costs over the same rows
    and bounds: integer numerators over one positive denominator.

    Phase 1 runs once.  Each call runs phase 2 for its costs from the
    basis the last phase 2 left optimal, and its outcome certifies the
    maximization of those costs over the same rows and bounds.  On
    infeasible rows every call returns the phase-1 outcome.
    """
    tab = _Tableau(p)

    # Phase 1: maximize minus the sum of artificial values.
    phase1 = [-1 if j in tab.artificial else 0 for j in range(tab.ncols)]
    status, _ = tab._run(phase1, 1)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded above by 0
        raise AssertionError("phase 1 reported an unbounded objective")
    infeasible = None
    if tab.rc[-1] > 0:  # the phase-1 optimum, -rc[-1] / rc_den, is negative
        duals, den = tab._duals(phase1, 1)
        farkas = tuple(-y if rel == GE else y for y, rel in zip(duals, p.relations))
        infeasible = Infeasible.view(((farkas, den),))

    def maximize(costs: Sequence[int], den: int) -> LpOutcome:
        if len(costs) != len(p.costs) or den <= 0:
            raise InvalidInput("costs must be one numerator per variable over den > 0")
        return infeasible or tab.maximize(costs, den)

    if infeasible:
        return infeasible, maximize
    tab.drive_out_artificials()
    return tab.maximize(p.costs, p.den), maximize


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------


def _feasible(p: IntProgram, xs: Sequence[int], den: int, ray: bool = False) -> bool:
    """Whether the point ``xs / den`` satisfies the rows and bounds of
    ``p``, or, with ``ray``, whether the direction ``xs / den`` keeps them
    from any point that does: every right-hand side and bound read as 0."""
    if len(xs) != len(p.costs):
        return False
    scale = 0 if ray else den
    for row, relation in zip(p.rows, p.relations):
        lhs, rhs = sum(map(mul, row, xs)), row[-1] * scale  # over p.den * den
        if lhs > rhs if relation == LE else lhs < rhs if relation == GE else lhs != rhs:
            return False
    for x, lo, hi in zip(xs, p.lower, p.upper):
        if lo is not None and x * p.den < lo * scale:
            return False
        if hi is not None and x * p.den > hi * scale:
            return False
    return True


def verify_outcome(lp: LinearProgram, out: LpOutcome) -> bool:
    """Exact, solver-independent check of an outcome's certificate, on the
    integer forms of the program and of the outcome.

    Returns False on malformed certificates instead of raising, among
    them any entry that is not an int or a ``Fraction``: a float would
    bring rounding into an exact check.
    """
    if not isinstance(out, (Optimal, Infeasible, Unbounded)):
        return False
    try:
        p, kept = lp.int_form(), out.int_form()
        if isinstance(out, Infeasible):
            combo = farkas_rows(p, *kept[0])
            return combo is not None and proves_infeasible(p, combo[0])
        if isinstance(out, Unbounded):
            (xs, xd), (ds, dd) = kept
            return (
                _feasible(p, xs, xd)
                and _feasible(p, ds, dd, ray=True)
                and sum(map(mul, p.costs, ds)) > 0
            )
        (vn, vd), (xs, xd), (ys, yd) = kept
        vmax = vn if lp.maximize else -vn  # over vd
        dual = dual_rows(p, ys, yd)
        return (
            _feasible(p, xs, xd)
            and sum(map(mul, p.costs, xs)) * vd == vmax * p.den * xd
            and dual is not None
            and dual[1] is not None
            and dual[1] * vd == vmax * dual[2]
        )
    except (InvalidInput, TypeError, ZeroDivisionError):
        return False


# The Fraction wrappers of the kernel's checks, for callers of this module.


def dual_objective(lp: LinearProgram, dual: Sequence[Fraction]) -> Fraction | None:
    """Exact dual objective of the maximization form, or None if ``dual``
    is not dual-feasible; see :func:`dual_rows`."""
    out = dual_rows(lp.int_form(), *int_row(dual))
    return None if out is None or out[1] is None else Fraction(out[1], out[2])


def farkas_combination(
    lp: LinearProgram, weights: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Combined coefficient row ``sum w_i a_i`` and bound ``sum w_i b_i``
    of a Farkas vector; see :func:`farkas_rows`."""
    combo = farkas_rows(lp.int_form(), *int_row(weights))
    if combo is None:
        return None
    sums, den = combo
    return tuple(Fraction(g, den) for g in sums[:-1]), Fraction(sums[-1], den)


def reduced_costs(
    lp: LinearProgram, dual: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Per-variable reduced costs ``c - A^T y`` of the maximization form."""
    out = dual_rows(lp.int_form(), *int_row(dual))
    return None if out is None else tuple(Fraction(r, out[2]) for r in out[0])
