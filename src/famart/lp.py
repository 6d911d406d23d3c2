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
rule reads only signs and cross products of numerators.  Programs and
outcomes are `Fraction`-valued; the tableau reads a program's kept
integer form, the one the verification kernel reads too, and converts to
`Fraction` once on the way out.

Every outcome embeds a certificate that :func:`verify_outcome` re-checks
against the original program by plain arithmetic, with no access to
solver internals:

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
from math import gcd
from operator import mul
from typing import Callable, Sequence, Union

from .core import ZERO, InvalidInput, Record, _Kept, _rat_tuple, dot, int_row, rat

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


class LinearProgram(_Kept):
    """``max/min objective . x`` subject to rows and optional variable bounds.

    Bounds default to free variables; zero-variable and zero-constraint
    programs are legal (objective 0, empty solutions).
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

    def linear_program(self) -> LinearProgram:
        """The maximization program these rows define, whose integer form
        is kept as this record.  Equal numerators share one ``Fraction``."""
        den, cache = self.den, {}

        def q(n: int | None) -> Fraction | None:
            if n is None:
                return None
            f = cache.get(n)
            if f is None:
                f = cache[n] = Fraction(n, den)
            return f

        lp = LinearProgram(
            tuple(map(q, self.costs)),
            True,
            [
                Constraint(tuple(map(q, row[:-1])), relation, q(row[-1]))
                for row, relation in zip(self.rows, self.relations)
            ],
            tuple(map(q, self.lower)),
            tuple(map(q, self.upper)),
        )
        object.__setattr__(lp, "_rows", self)
        return lp


class Optimal(Record):
    __slots__ = ("value", "primal", "dual")
    value: Fraction
    primal: tuple[Fraction, ...]
    dual: tuple[Fraction, ...]

    def __init__(self, value, primal, dual) -> None:
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "primal", primal)
        object.__setattr__(self, "dual", dual)


class Infeasible(Record):
    __slots__ = ("farkas",)
    farkas: tuple[Fraction, ...]

    def __init__(self, farkas) -> None:
        object.__setattr__(self, "farkas", farkas)


class Unbounded(Record):
    __slots__ = ("point", "ray")
    point: tuple[Fraction, ...]
    ray: tuple[Fraction, ...]

    def __init__(self, point, ray) -> None:
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "ray", ray)


LpOutcome = Union[Optimal, Infeasible, Unbounded]


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

    def _duals(self, costs: Sequence[int], den: int) -> list[Fraction]:
        """Multipliers of the original rows, read off the probe columns,
        for the column costs ``costs`` over ``den``."""
        duals = [ZERO] * self.n_orig_rows
        rc, rc_den = self.rc, self.rc_den
        for col, origin in zip(self.probe, self.row_origin):
            if origin < self.n_orig_rows:
                y = Fraction(costs[col] * rc_den - rc[col] * den, den * rc_den)
                duals[origin] = self.sigma[origin] * y
        return duals

    def _primal(self) -> list[Fraction]:
        cols = [ZERO] * self.ncols
        for r, b in enumerate(self.basis):
            cols[b] = Fraction(self.rows[r][-1], self.dens[r])
        return self._map(cols, True)

    def _map(self, cols: Sequence[Fraction], point: bool) -> list[Fraction]:
        """The original variables at internal column values ``cols``: a
        point, or, with ``point`` False, a ray, which the shifts leave out."""
        out = [Fraction(s, self.den) if point else ZERO for s in self.shift]
        for (j, sign), v in zip(self.col_var, cols):
            if v:
                out[j] += v if sign > 0 else -v
        return out

    def maximize(self, costs: Sequence[int], den: int) -> Optimal | Unbounded:
        """Phase 2: maximize ``costs`` over ``den``, one cost per original
        variable, from the current basis, which is feasible; read back the
        outcome."""
        cols = [sign * costs[j] for j, sign in self.col_var]
        cols += [0] * (self.ncols - len(cols))
        status, enter = self._run(cols, den)
        if status == "unbounded":
            ray_cols = [ZERO] * self.ncols
            ray_cols[enter] = Fraction(1)
            for r, b in enumerate(self.basis):
                a = self.rows[r][enter]
                if a:
                    ray_cols[b] = -Fraction(a, self.dens[r])
            return Unbounded(tuple(self._primal()), tuple(self._map(ray_cols, False)))
        offset = sum(map(mul, costs, self.shift))  # over den * self.den
        value = Fraction(-self.rc[-1], self.rc_den) + Fraction(offset, den * self.den)
        return Optimal(value, tuple(self._primal()), tuple(self._duals(cols, den)))

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
    return reoptimizer(lp)[0]


def reoptimizer(
    lp: LinearProgram,
) -> tuple[LpOutcome, Callable[[Sequence[Fraction]], LpOutcome]]:
    """Solve ``lp``, and return the outcome with a function that maximizes
    another objective over ``lp``'s rows and bounds.

    Phase 1 runs once.  Each call runs phase 2 for its objective from the
    basis the last phase 2 left optimal, and its outcome certifies the
    maximization of that objective over the same rows and bounds.  On
    infeasible rows every call returns the phase-1 outcome.
    """
    if not isinstance(lp, LinearProgram):
        raise InvalidInput("solve expects a LinearProgram")
    p = lp.int_form()
    tab = _Tableau(p)

    # Phase 1: maximize minus the sum of artificial values.
    phase1 = [-1 if j in tab.artificial else 0 for j in range(tab.ncols)]
    status, _ = tab._run(phase1, 1)
    if status != "optimal":  # pragma: no cover - phase 1 is bounded above by 0
        raise AssertionError("phase 1 reported an unbounded objective")
    infeasible = None
    if tab.rc[-1] > 0:  # the phase-1 optimum, -rc[-1] / rc_den, is negative
        duals = tab._duals(phase1, 1)
        infeasible = Infeasible(
            tuple(-y if rel == GE else y for y, rel in zip(duals, p.relations))
        )

    def maximize(objective: Sequence[Fraction]) -> LpOutcome:
        if len(objective) != lp.n_vars:
            raise InvalidInput("objective length does not match variable count")
        return infeasible or tab.maximize(*int_row(objective))

    if infeasible:
        return infeasible, maximize
    tab.drive_out_artificials()
    out = tab.maximize(p.costs, p.den)
    if isinstance(out, Optimal) and not lp.maximize:
        out = Optimal(-out.value, out.primal, out.dual)
    return out, maximize


# --------------------------------------------------------------------------
# Verification
# --------------------------------------------------------------------------


def _primal_feasible(lp: LinearProgram, x: Sequence[Fraction]) -> bool:
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


def dual_objective(lp: LinearProgram, dual: Sequence[Fraction]) -> Fraction | None:
    """Exact dual objective of the maximization form, or None if ``dual``
    is not dual-feasible; see :func:`dual_rows`."""
    out = dual_rows(lp, *int_row(dual))
    return None if out is None or out[1] is None else Fraction(out[1], out[2])


def _verify_optimal(lp: LinearProgram, out: Optimal) -> bool:
    if len(out.primal) != lp.n_vars or len(out.dual) != lp.n_rows:
        return False
    if not _primal_feasible(lp, out.primal):
        return False
    cmax = _max_objective(lp)
    vmax = out.value if lp.maximize else -out.value
    if dot(cmax, out.primal) != vmax:
        return False
    return dual_objective(lp, out.dual) == vmax


def farkas_combination(
    lp: LinearProgram | IntProgram, weights: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], Fraction] | None:
    """Combined coefficient row ``sum w_i a_i`` and bound ``sum w_i b_i``
    of a Farkas vector; see :func:`farkas_rows`."""
    combo = farkas_rows(lp, *int_row(weights))
    if combo is None:
        return None
    sums, den = combo
    return tuple(Fraction(g, den) for g in sums[:-1]), Fraction(sums[-1], den)


def _verify_unbounded(lp: LinearProgram, out: Unbounded) -> bool:
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
    cmax = _max_objective(lp)
    return dot(cmax, out.ray) > 0


def verify_outcome(lp: LinearProgram, out: LpOutcome) -> bool:
    """Exact, solver-independent check of an outcome's certificate.

    Returns False on malformed certificates instead of raising, among
    them any entry that is not an int or a ``Fraction``: a float would
    bring rounding into an exact check.
    """
    if not isinstance(out, (Optimal, Infeasible, Unbounded)):
        return False
    try:
        fields = [getattr(out, f) for f in out.__slots__]
        if isinstance(out, Optimal):
            fields[0] = (out.value,)
        if not all(
            type(x) is int or isinstance(x, Fraction) for v in fields for x in v
        ):
            return False
        if isinstance(out, Optimal):
            return _verify_optimal(lp, out)
        if isinstance(out, Infeasible):
            combo = farkas_rows(lp, *int_row(out.farkas))
            return combo is not None and proves_infeasible(lp, combo[0])
        return _verify_unbounded(lp, out)
    except (InvalidInput, TypeError, ZeroDivisionError):
        return False


def reduced_costs(
    lp: LinearProgram, dual: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """Per-variable reduced costs ``c - A^T y`` of the maximization form."""
    out = dual_rows(lp, *int_row(dual))
    return None if out is None else tuple(Fraction(r, out[2]) for r in out[0])
