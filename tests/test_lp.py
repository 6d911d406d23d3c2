"""The exact simplex engine and its certificates."""

import random
from fractions import Fraction as F

import pytest

from famart.core import InvalidInput
from famart.lp import (
    Constraint,
    Infeasible,
    LinearProgram,
    Optimal,
    Unbounded,
    dual_objective,
    solve,
    verify_outcome,
)


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
    assert not verify_outcome(lp, "nonsense")


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


def _oracle_lp(rng: random.Random) -> LinearProgram:
    """A seeded program mixing every row relation and every variable form.

    Variables are shifted (lower bound), reflected (upper bound only),
    split (free) or boxed (both bounds).  Some right-hand sides are 0 and
    some equalities are rational combinations of earlier ones, so the
    set holds degenerate vertices and linearly dependent rows.
    """
    n = rng.randint(0, 6)
    rows = []
    for _ in range(rng.randint(0, 7)):
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


def test_outcome_digest_is_pinned():
    import hashlib

    rng = random.Random(31337)
    programs = [
        LinearProgram(objective=()),
        LinearProgram(objective=(), constraints=[((), "=", F(0)), ((), "<=", F(1))]),
        LinearProgram(objective=(), constraints=[((), ">=", F(1))]),
        LinearProgram(objective=(F(1), F(-2)), lower=(F(0), None), upper=(F(3), F(1))),
    ]
    programs += [_oracle_lp(rng) for _ in range(1200)]
    digest = hashlib.sha256()
    kinds = set()
    for lp in programs:
        out = solve(lp)
        assert verify_outcome(lp, out)
        kinds.add(type(out))
        digest.update(repr(out).encode() + b"\n")
    assert kinds == {Optimal, Infeasible, Unbounded}
    assert digest.hexdigest() == OUTCOME_DIGEST
