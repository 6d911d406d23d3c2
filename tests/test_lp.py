"""The exact simplex engine and its certificates."""

import copy
import itertools
import pickle
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from famart.core import InvalidInput, int_row
from famart.lp import (
    Constraint,
    Infeasible,
    IntProgram,
    LinearProgram,
    Optimal,
    Unbounded,
    arbitrage_lp,
    dual_objective,
    martingale_mass_lp,
    reoptimizer,
    solve,
    verify_outcome,
)
from famart.modelio import parse_model
from references import reference_verify_outcome
from test_modelio import _pinned_model_files


def test_optimal_with_dual():
    lp = LinearProgram(objective=(F(1),), constraints=[((F(1),), "<=", F(3))])
    out = solve(lp)
    assert out == Optimal(F(3), (F(3),), (F(1),))
    assert verify_outcome(lp, out)


def test_infeasible_with_unit_farkas_weights():
    lp = LinearProgram(
        objective=(F(0),),
        constraints=[((F(1),), ">=", F(1)), ((F(1),), "<=", F(0))],
    )
    out = solve(lp)
    assert isinstance(out, Infeasible)
    assert out.farkas == (F(1), F(1))
    assert verify_outcome(lp, out)


def test_unbounded_with_ray():
    lp = LinearProgram(objective=(F(1),), constraints=[((F(1),), ">=", F(0))])
    out = solve(lp)
    assert isinstance(out, Unbounded)
    assert out.point == (F(0),) and out.ray == (F(1),)
    assert verify_outcome(lp, out)


def test_minimization_and_bounds():
    lp = LinearProgram(
        objective=(F(1), F(1)),
        maximize=False,
        constraints=[((F(1), F(1)), ">=", F(2))],
        lower=(F(0), F(0)),
        upper=(F(5), F(1)),
    )
    out = solve(lp)
    assert isinstance(out, Optimal) and out.value == F(2)
    assert verify_outcome(lp, out)


def test_degenerate_programs():
    empty = LinearProgram(objective=())
    out = solve(empty)
    assert out == Optimal(F(0), (), ())
    assert verify_outcome(empty, out)

    no_rows = LinearProgram(objective=(F(-2),), lower=(F(0),))
    out = solve(no_rows)
    assert isinstance(out, Optimal) and out.value == F(0)
    assert verify_outcome(no_rows, out)

    zero_vars = LinearProgram(objective=(), constraints=[((), "=", F(0))])
    assert verify_outcome(zero_vars, solve(zero_vars))
    zero_vars_bad = LinearProgram(objective=(), constraints=[((), "=", F(1))])
    assert isinstance(solve(zero_vars_bad), Infeasible)


def test_redundant_rows_get_zero_duals():
    lp = LinearProgram(
        objective=(F(1), F(1)),
        constraints=[
            ((F(1), F(1)), "=", F(1)),
            ((F(2), F(2)), "=", F(2)),  # dependent duplicate
            ((F(1), F(0)), "<=", F(1)),
        ],
        lower=(F(0), F(0)),
    )
    out = solve(lp)
    assert isinstance(out, Optimal) and out.value == F(1)
    assert verify_outcome(lp, out)


def test_verify_rejects_wrong_value():
    lp = LinearProgram(objective=(F(1),), constraints=[((F(1),), "<=", F(3))])
    out = solve(lp)
    assert not verify_outcome(lp, Optimal(F(4), out.primal, out.dual))
    assert not verify_outcome(lp, Optimal(F(4), (F(4),), out.dual))
    assert not verify_outcome(lp, Optimal(out.value, out.primal, (F(-1),)))


def test_verify_rejects_malformed():
    lp = LinearProgram(objective=(F(1),), constraints=[((F(1),), "<=", F(3))])
    assert not verify_outcome(lp, Optimal(F(3), (F(3), F(0)), (F(1),)))
    assert not verify_outcome(lp, Infeasible((F(1),)))
    assert not verify_outcome(lp, Optimal(F(3), ("3",), (F(1),)))
    assert not verify_outcome(lp, Infeasible((None,)))
    assert not verify_outcome(lp, "nonsense")
    # Floats are not exact rationals, wherever they stand.
    assert not verify_outcome(lp, Optimal(F(3), (F(3),), (1.0,)))
    assert not verify_outcome(lp, Optimal(3.0, (F(3),), (F(1),)))
    assert not verify_outcome(lp, Optimal(F(3), (3.0,), (F(1),)))
    infeasible = LinearProgram(
        objective=(F(0),), constraints=[((F(1),), ">=", F(1)), ((F(1),), "<=", F(0))]
    )
    assert verify_outcome(infeasible, Infeasible((F(1), 1)))
    assert not verify_outcome(infeasible, Infeasible((1.0, 1.0)))
    unbounded = LinearProgram(objective=(F(1),), constraints=[((F(1),), ">=", F(0))])
    assert verify_outcome(unbounded, Unbounded((0,), (F(1),)))
    assert not verify_outcome(unbounded, Unbounded((0.0,), (F(1),)))
    assert not verify_outcome(unbounded, Unbounded((F(0),), (1.0,)))


def test_constraint_validation():
    with pytest.raises(InvalidInput):
        LinearProgram(objective=(F(1),), constraints=[((F(1), F(2)), "<=", F(0))])
    with pytest.raises(InvalidInput):
        Constraint((F(1),), "<", F(0))
    with pytest.raises(InvalidInput):
        LinearProgram(objective=(F(1),), lower=(F(1),), upper=(F(0),))


def test_dual_objective_checks_signs():
    lp = LinearProgram(objective=(F(1),), constraints=[((F(1),), "<=", F(3))])
    assert dual_objective(lp, (F(1),)) == F(3)
    assert dual_objective(lp, (F(-1),)) is None  # wrong sign on a <= row
    # reduced cost 1 with no upper bound: not dual feasible
    assert dual_objective(lp, (F(0),)) is None


def _random_lp(rng: random.Random) -> LinearProgram:
    n = rng.randint(0, 6)
    rows = []
    for _ in range(rng.randint(0, 8)):
        coeffs = tuple(
            F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.8 else F(0)
            for _ in range(n)
        )
        rows.append((coeffs, rng.choice(("<=", "=", ">=")), F(rng.randint(-6, 6), rng.randint(1, 4))))
    lower, upper = [], []
    for _ in range(n):
        lo = F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.5 else None
        hi = F(rng.randint(-6, 6), rng.randint(1, 4)) if rng.random() < 0.5 else None
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        lower.append(lo)
        upper.append(hi)
    return LinearProgram(
        objective=tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)),
        maximize=rng.random() < 0.5,
        constraints=rows,
        lower=tuple(lower),
        upper=tuple(upper),
    )


def test_random_roundtrip_and_determinism():
    rng = random.Random(20240811)
    for _ in range(150):
        lp = _random_lp(rng)
        out = solve(lp)
        assert verify_outcome(lp, out)
        assert solve(lp) == out


def test_strong_duality_is_exact():
    rng = random.Random(7)
    seen_optimal = 0
    while seen_optimal < 40:
        lp = _random_lp(rng)
        out = solve(lp)
        if isinstance(out, Optimal):
            seen_optimal += 1
            vmax = out.value if lp.maximize else -out.value
            assert dual_objective(lp, out.dual) == vmax


def test_drive_out_pivots_on_negative_entry(monkeypatch):
    # Two dependent equalities, -x + y = 0 and x - y = 0: phase 1 ends at
    # once with both artificials basic at level 0, and driving out the
    # first one pivots on its -1 in column x; the second row becomes 0 = 0.
    from famart import lp as lp_module

    signs = []
    pivot = lp_module._Tableau._pivot

    def recording_pivot(self, r, col):
        signs.append(self.rows[r][col] < 0)
        pivot(self, r, col)

    monkeypatch.setattr(lp_module._Tableau, "_pivot", recording_pivot)
    lp = LinearProgram(
        objective=(F(1), F(1)),
        constraints=[((F(-1), F(1)), "=", F(0)), ((F(1), F(-1)), "=", F(0))],
        lower=(F(0), F(0)),
        upper=(None, F(3)),
    )
    out = solve(lp)
    assert signs[0] is True
    # max x + y with x = y <= 3: the optimum 6 at (3, 3).
    assert isinstance(out, Optimal)
    assert out.value == 6 and out.primal == (F(3), F(3))
    assert verify_outcome(lp, out)


def test_denominators_up_to_two_to_the_64():
    # max x + y over x, y >= 0 with
    #   x/D + y/7 <= 1,  x/D - y/7 <= 0,  x/(D-1) + y/(D+1) >= 1/2.
    # The first two rows meet at x/D = y/7 = 1/2, so x = D/2, y = 7/2 and
    # the value is (D + 7)/2.  Duals y1 + y2 = D and y1 - y2 = 7 price
    # both columns at 1, so y1 = (D + 7)/2, y2 = (D - 7)/2, and the third
    # row holds strictly there (D/(2(D-1)) > 1/2), so its dual is 0.
    D = 2**64
    lp = LinearProgram(
        objective=(F(1), F(1)),
        constraints=[
            ((F(1, D), F(1, 7)), "<=", F(1)),
            ((F(1, D), F(-1, 7)), "<=", F(0)),
            ((F(1, D - 1), F(1, D + 1)), ">=", F(1, 2)),
        ],
        lower=(F(0), F(0)),
    )
    out = solve(lp)
    assert out == Optimal(
        F(D + 7, 2), (F(D, 2), F(7, 2)), (F(D + 7, 2), F(D - 7, 2), F(0))
    )
    assert verify_outcome(lp, out)


# --------------------------------------------------------------------------
# Outcome oracle: the engine's exact answers, pinned by digest
# --------------------------------------------------------------------------


def _small_rat(rng: random.Random) -> F:
    return F(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6)))


def _oracle_lp(
    rng: random.Random, max_vars: int = 6, max_rows: int = 7
) -> LinearProgram:
    """A seeded program mixing every row relation and every variable form.

    Variables are shifted (lower bound), reflected (upper bound only),
    split (free) or boxed (both bounds).  Some right-hand sides are 0 and
    some equalities are rational combinations of earlier ones, so the
    set holds degenerate vertices and linearly dependent rows.  The
    combination adds one row to at most ``max_rows``.
    """
    n = rng.randint(0, max_vars)
    rows = []
    for _ in range(rng.randint(0, max_rows)):
        coeffs = tuple(_small_rat(rng) if rng.random() < 0.75 else F(0) for _ in range(n))
        rhs = F(0) if rng.random() < 0.25 else _small_rat(rng)
        rows.append((coeffs, rng.choice(("<=", "=", ">=")), rhs))
    equalities = [r for r in rows if r[1] == "="]
    if equalities and rng.random() < 0.4:
        lam, mu = _small_rat(rng), _small_rat(rng)
        (a, _, b), (c, _, d) = rng.choice(equalities), rng.choice(equalities)
        combo = tuple(lam * x + mu * y for x, y in zip(a, c))
        rows.insert(rng.randint(0, len(rows)), (combo, "=", lam * b + mu * d))
    lower, upper = [], []
    for _ in range(n):
        form = rng.choice(("shift", "reflect", "split", "boxed"))
        lo = _small_rat(rng) if form in ("shift", "boxed") else None
        hi = _small_rat(rng) if form in ("reflect", "boxed") else None
        if form == "boxed" and lo > hi:
            lo, hi = hi, lo
        lower.append(lo)
        upper.append(hi)
    return LinearProgram(
        objective=tuple(_small_rat(rng) for _ in range(n)),
        maximize=rng.random() < 0.5,
        constraints=rows,
        lower=tuple(lower),
        upper=tuple(upper),
    )


# SHA-256 of the outcome reprs below.  Any change to the pivot rule, the
# tableau arithmetic or the certificate read-back that alters a single
# outcome changes it; an engine rewrite that keeps the pivot sequence
# must leave it as it is.
OUTCOME_DIGEST = "57a5621b0ad59a9f7080308a7c9866816cc6cd7be56515c53085eaa1264fcdd8"


def _digest_programs() -> list[LinearProgram]:
    """The 1,204 programs whose outcomes ``OUTCOME_DIGEST`` pins."""
    rng = random.Random(31337)
    programs = [
        LinearProgram(objective=()),
        LinearProgram(objective=(), constraints=[((), "=", F(0)), ((), "<=", F(1))]),
        LinearProgram(objective=(), constraints=[((), ">=", F(1))]),
        LinearProgram(objective=(F(1), F(-2)), lower=(F(0), None), upper=(F(3), F(1))),
    ]
    return programs + [_oracle_lp(rng) for _ in range(1200)]


def test_outcome_digest_is_pinned():
    import hashlib

    digest = hashlib.sha256()
    kinds = set()
    for lp in _digest_programs():
        out = solve(lp)
        assert verify_outcome(lp, out)
        kinds.add(type(out))
        digest.update(repr(out).encode() + b"\n")
    assert kinds == {Optimal, Infeasible, Unbounded}
    assert digest.hexdigest() == OUTCOME_DIGEST


def _mutations(out):
    """``out`` with one numerator of its integer form moved by +1 or -1
    over that field's denominator, in every way, as views."""
    kept = out.int_form()
    for f, (nums, den) in enumerate(kept):
        entries = [nums] if type(nums) is int else list(nums)
        for k, step in itertools.product(range(len(entries)), (1, -1)):
            moved = entries.copy()
            moved[k] += step
            field = (moved[0] if type(nums) is int else tuple(moved)), den
            yield type(out).view((*kept[:f], field, *kept[f + 1 :]))


def _inexact(out):
    """``out`` built from its fields with one entry a float or a bool."""
    fields = [getattr(out, name) for name in out.__slots__]
    for f, value in enumerate(fields):
        for bad in (float, bool):
            if isinstance(value, tuple):
                if value:
                    yield type(out)(*fields[:f], (bad(value[0]), *value[1:]), *fields[f + 1 :])
            else:
                yield type(out)(*fields[:f], bad(value), *fields[f + 1 :])


def test_verify_outcome_agrees_with_the_fraction_reference():
    # verify_outcome checks the integer forms of a program and an outcome;
    # the reference checks their Fraction fields.  They must agree on the
    # outcomes of the digest programs, on every outcome one numerator away
    # from them, and on outcomes holding a float or a bool.
    verdicts = Counter()
    for lp in _digest_programs():
        out = solve(lp)
        assert verify_outcome(lp, out) and reference_verify_outcome(lp, out)
        for changed in _mutations(out):
            got = verify_outcome(lp, changed)
            assert got == reference_verify_outcome(lp, changed), (lp, changed)
            verdicts[type(out).__name__, got] += 1
        for changed in _inexact(out):
            assert not verify_outcome(lp, changed)
            assert not reference_verify_outcome(lp, changed)
            verdicts["inexact"] += 1
    # Some moves keep a certificate valid: a Farkas weight with slack, or
    # an unbounded outcome's point moved inside the feasible set.
    assert set(verdicts) == {
        *itertools.product(("Optimal", "Infeasible", "Unbounded"), (True, False)),
        "inexact",
    }, verdicts


def _set_fields(out) -> set[str]:
    """The fields of an outcome that hold a value, read without filling."""
    cls = type(out)
    out_fields = set()
    for name in cls.__slots__:
        try:
            getattr(cls, name).__get__(out, cls)
        except AttributeError:
            continue
        out_fields.add(name)
    return out_fields


def _as_fractions(kept) -> tuple:
    """An outcome's integer form as the rationals it stands for."""
    return tuple(
        F(nums, den) if type(nums) is int else tuple(F(n, den) for n in nums)
        for nums, den in kept
    )


def test_a_view_outcome_is_the_record_of_its_fields():
    # The simplex returns views that keep integers and fill their Fraction
    # fields on first read.  Each must behave as the eager record of its
    # fields, and the integers of either kind stand for the same fields.
    kinds = set()
    for lp in _digest_programs():
        view = solve(lp)
        cls, fields = type(view), set(type(view).__slots__)
        kinds.add(cls)
        assert _set_fields(view) == set()
        kept = view.int_form()
        assert all(den > 0 for _, den in kept) and view.int_form() is kept
        assert _set_fields(view) == set()  # reading the integers fills nothing
        eager = cls(*_as_fractions(kept))
        assert _set_fields(eager) == fields
        assert _as_fractions(eager.int_form()) == _as_fractions(kept)
        assert cls.view(eager.int_form()) == eager
        assert verify_outcome(lp, solve(lp)) and verify_outcome(lp, eager)
        assert view == eager and eager == view and hash(view) == hash(eager)
        assert repr(view) == repr(eager) and _set_fields(view) == fields
        copies = pickle.loads(pickle.dumps(solve(lp))), copy.copy(solve(lp)), copy.deepcopy(solve(lp))
        for again in copies:
            assert type(again) is cls and _set_fields(again) == fields
            assert again == eager and repr(again) == repr(eager)
        for name in fields:  # reading any one field fills all of them
            view = solve(lp)
            getattr(view, name)
            assert _set_fields(view) == fields
    assert kinds == {Optimal, Infeasible, Unbounded}


def _scaled(p: IntProgram, k: int) -> IntProgram:
    """``p`` with every integer entry and the denominator multiplied by ``k``."""

    def times(xs):
        return [None if x is None else k * x for x in xs]

    rows = [times(row) for row in p.rows]
    return IntProgram(rows, p.relations, times(p.costs), times(p.lower), times(p.upper), k * p.den)


def test_solve_does_not_depend_on_how_a_program_is_written_in_integers():
    # Scaling a program's integer form by k keeps every rational in it, so
    # the tableau it is read into, and the outcome, must stay the same.
    # The scaled form is a maximization, so a minimum comes back negated.
    rng = random.Random(2718)
    lps = [_oracle_lp(rng) for _ in range(200)]
    for model_file in _pinned_model_files():
        doc = parse_model(model_file)
        m, ls = doc.model, doc.lin_space
        if ls.basis:
            lps += [martingale_mass_lp(m, ls), arbitrage_lp(m, ls)]
    for lp in lps:
        out = solve(lp)
        if isinstance(out, Optimal) and not lp.maximize:
            out = Optimal(-out.value, out.primal, out.dual)
        for k in (6, 3 * 2**40):
            assert solve(_scaled(lp.int_form(), k).linear_program()) == out


def test_reoptimizing_agrees_with_a_cold_solve_of_each_objective():
    # Phase 2 from the basis the last objective left optimal must end where
    # a cold solve of the same rows ends: the same kind of outcome with the
    # same value, and a certificate of the program of that objective.  On
    # infeasible rows each objective gets the phase-1 Farkas vector.
    rng = random.Random(1618)
    kinds = set()
    for _ in range(180):
        lp = _oracle_lp(rng)
        first, maximize = reoptimizer(lp.int_form())
        assert first == solve(lp.int_form().linear_program())
        for _ in range(3):
            objective = tuple(_small_rat(rng) for _ in range(lp.n_vars))
            program = LinearProgram(objective, True, lp.constraints, lp.lower, lp.upper)
            warm, cold = maximize(*int_row(objective)), solve(program)
            assert type(warm) is type(cold)
            assert verify_outcome(program, warm)
            if isinstance(cold, Optimal):
                assert warm.value == cold.value
            kinds.add(type(warm))
        with pytest.raises(InvalidInput):
            maximize((1,) * (lp.n_vars + 1), 1)
        with pytest.raises(InvalidInput):
            maximize((1,) * lp.n_vars, 0)
    assert kinds == {Optimal, Infeasible, Unbounded}


# --------------------------------------------------------------------------
# Brute-force oracle: enumeration of bases, no code shared with famart.lp
# --------------------------------------------------------------------------


def _rref(matrix: list[list[F]]) -> tuple[list[list[F]], list[int]]:
    """Reduced row echelon form of ``matrix`` and its pivot columns."""
    rows = [list(r) for r in matrix]
    pivots: list[int] = []
    for j in range(len(rows[0]) if rows else 0):
        i = len(pivots)
        k = next((k for k in range(i, len(rows)) if rows[k][j]), None)
        if k is None:
            continue
        rows[i], rows[k] = rows[k], rows[i]
        rows[i] = [a / rows[i][j] for a in rows[i]]
        for k in range(len(rows)):
            if k != i and rows[k][j]:
                f = rows[k][j]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[i])]
        pivots.append(j)
    return rows, pivots


def _brute_force(lp: LinearProgram) -> tuple[str, F | None]:
    """Outcome kind and optimal value of ``lp``, by enumerating bases.

    The program becomes ``max c.x`` subject to ``G x <= h``, with every
    relation and bound as rows of ``G``.  With ``r`` the rank of ``G``,
    every minimal face of a nonempty feasible set is the solution set of
    ``r`` independent rows of ``G`` held at equality, so the program is
    infeasible when no such basic solution is feasible.  The maximum is
    finite exactly when ``c`` is a nonnegative combination of independent
    rows of ``G`` (Carathéodory), and then ``c.x`` is constant on every
    minimal face and its largest value there is the optimum.
    """
    n = lp.n_vars
    c = lp.objective if lp.maximize else tuple(-v for v in lp.objective)
    G: list[tuple[F, ...]] = []
    h: list[F] = []
    for con in lp.constraints:
        if con.relation in ("<=", "="):
            G.append(con.coeffs)
            h.append(con.rhs)
        if con.relation in (">=", "="):
            G.append(tuple(-a for a in con.coeffs))
            h.append(-con.rhs)
    for j in range(n):
        unit = tuple(F(int(i == j)) for i in range(n))
        if lp.upper[j] is not None:
            G.append(unit)
            h.append(lp.upper[j])
        if lp.lower[j] is not None:
            G.append(tuple(-a for a in unit))
            h.append(-lp.lower[j])

    def rank(rows: list[tuple[F, ...]]) -> int:
        return len(_rref([list(r) for r in rows])[1]) if rows and n else 0

    r = rank(G)
    points = []
    for basis in itertools.combinations(range(len(G)), r):
        rows, pivots = _rref([[*G[i], h[i]] for i in basis])
        if len(pivots) != r or n in pivots:
            continue  # dependent rows, or no solution
        x = [F(0)] * n
        for row, j in zip(rows, pivots):
            x[j] = row[-1]
        if all(sum(a * v for a, v in zip(g, x)) <= b for g, b in zip(G, h)):
            points.append(x)
    if not points:
        return "infeasible", None
    for size in range(min(r, len(G)) + 1):
        for basis in itertools.combinations(range(len(G)), size):
            if rank([G[i] for i in basis]) != size:
                continue
            system = [[*(G[i][j] for i in basis), c[j]] for j in range(n)]
            rows, pivots = _rref(system)
            if size in pivots:
                continue  # c is not in the span of these rows
            if all(row[-1] >= 0 for row in rows[:size]):
                best = max(sum(a * v for a, v in zip(c, x)) for x in points)
                return "optimal", best if lp.maximize else -best
    return "unbounded", None


def test_brute_force_oracle_agrees_with_solve():
    outcome_type = {"optimal": Optimal, "infeasible": Infeasible, "unbounded": Unbounded}
    kinds = dict.fromkeys(outcome_type, 0)
    rng = random.Random(4242)
    for _ in range(200):
        lp = _oracle_lp(rng, max_vars=4, max_rows=5)
        assert lp.n_vars <= 4 and lp.n_rows <= 6
        out = solve(lp)
        assert verify_outcome(lp, out)
        kind, value = _brute_force(lp)
        kinds[kind] += 1
        assert isinstance(out, outcome_type[kind]), (lp, out, kind)
        if kind == "optimal":
            assert out.value == value
    assert all(kinds.values()), kinds
