"""Trading-space generation and exact generators for the built-in models.

A filtration is a list of partitions of the coordinates (explicit states
plus the tail state, which must sit inside exactly one block per time),
each refining the previous one.  The trading space of an adapted process
is spanned by the one-step gains ``I_B * (S_{t+1} - S_t)`` over the
time-t blocks; consecutive increments span the whole space of simple
strategy gains by telescoping.  :func:`one_step_tree` reads the
filtration as a tree whose edges carry the increments; it builds the
trading space, which keeps the tree with the partitions, so that
:func:`famart.checkers.min_mass` decides (3) node by node from the space
alone.  Every step is linear in the size of the partitions.  The
built-in generators refuse, before building anything, a size whose model
would exhaust memory or print a number of more than ``MAX_DIGITS`` digits.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .core import (
    MAX_DIGITS,
    TAIL,
    ZERO,
    InvalidInput,
    LinSpace,
    Model,
    RandVar,
    RationalLike,
    Record,
    rat,
)
from .fap import Fap

Block = frozenset  # of state indices; TAIL marks the tail state

# The largest dmw horizon: 2^16 paths build in seconds, while a larger
# horizon would need memory exponential in it before any other check.
MAX_DMW_HORIZON = 16
# The largest bp and harmonic truncation N: 2^N, their largest
# denominator, prints in MAX_DIGITS digits, and 2^(N+1) does not.
MAX_TRUNCATION = 14284
# The most values a built-in model may hold: (MAX_DMW_HORIZON + 1) * 2^16,
# the size of the largest dmw process.  It caps bp's (k + 2)(N + 1)
# process values and finite-random's max_states * max_basis.  Literals,
# not arithmetic: every command imports this module.
MAX_VALUES = 1114112


class Filtration(Record):
    """Per time index, a partition of the model's coordinates.

    ``partitions[t]`` is a tuple of blocks (frozensets of coordinate ids).
    Time 0 must be the trivial partition and each later partition must
    refine its predecessor.
    """

    __slots__ = ("partitions",)
    partitions: tuple[tuple[Block, ...], ...]

    def __init__(self, partitions) -> None:
        object.__setattr__(
            self,
            "partitions",
            tuple(tuple(frozenset(b) for b in part) for part in partitions),
        )
        if not self.partitions:
            raise InvalidInput("a filtration needs at least one time index")

    def check_conforms(self, m: Model) -> None:
        coords = frozenset(m.all_coords())
        for t, part in enumerate(self.partitions):
            seen: set[int] = set()
            for block in part:
                if not block:
                    raise InvalidInput(f"time {t}: empty partition block")
                if not block <= coords:
                    raise InvalidInput(
                        f"time {t}: block {sorted(block)} leaves the model"
                    )
                if not seen.isdisjoint(block):
                    raise InvalidInput(f"time {t}: blocks overlap")
                seen |= block
            if len(seen) != len(coords):
                raise InvalidInput(f"time {t}: partition does not cover the model")
        if len(self.partitions[0]) != 1:
            raise InvalidInput("time 0 must carry the trivial partition")
        for t in range(1, len(self.partitions)):
            owner = {c: coarse for coarse in self.partitions[t - 1] for c in coarse}
            for block in self.partitions[t]:
                if not block <= owner[next(iter(block))]:
                    raise InvalidInput(
                        f"time {t}: block {sorted(block)} does not refine time {t - 1}"
                    )

    @property
    def horizon(self) -> int:
        return len(self.partitions) - 1


class AdaptedProcess(Record):
    """One random variable per time index, constant on that time's blocks."""

    __slots__ = ("steps",)
    steps: tuple[RandVar, ...]

    def __init__(self, steps) -> None:
        object.__setattr__(self, "steps", tuple(steps))

    def check_adapted(self, f: Filtration, m: Model) -> None:
        if len(self.steps) != len(f.partitions):
            raise InvalidInput(
                f"process has {len(self.steps)} time points, "
                f"filtration has {len(f.partitions)}"
            )
        for t, (s, part) in enumerate(zip(self.steps, f.partitions)):
            s.check_conforms(m)
            values = (*s.values, s.tail_value)  # values[TAIL] is the tail value
            for block in part:
                coords = iter(block)
                first = values[next(coords)]
                for c in coords:
                    v = values[c]
                    if v is not first and v != first:
                        vals = sorted({values[c] for c in block})
                        raise InvalidInput(
                            f"process not adapted: time {t}, block "
                            f"{sorted(block)} takes values {vals}"
                        )


def one_step_tree(
    f: Filtration, s: AdaptedProcess
) -> list[list[list[tuple[int, Fraction]]]]:
    """The filtration as a tree, with the process's one-step increments.

    Entry ``[t][i]`` lists the children of block ``i`` of time ``t`` as
    pairs ``(j, d)``: block ``j`` of time ``t + 1`` lies inside it, and
    ``S_{t+1} - S_t = d`` on it.  Reads a conforming filtration and an
    adapted process, with one subtraction per child whose value changed.
    """
    values = [(*step.values, step.tail_value) for step in s.steps]
    tree = []
    for t in range(f.horizon):
        owner = {c: i for i, block in enumerate(f.partitions[t]) for c in block}
        kids: list[list[tuple[int, Fraction]]] = [[] for _ in f.partitions[t]]
        now, then = values[t], values[t + 1]
        for j, child in enumerate(f.partitions[t + 1]):
            c = next(iter(child))
            d = ZERO if then[c] is now[c] else then[c] - now[c]
            kids[owner[c]].append((j, d))
        tree.append(kids)
    return tree


def trading_space(f: Filtration, s: AdaptedProcess, m: Model) -> LinSpace:
    """Basis ``I_B (S_{t+1} - S_t)`` over consecutive times and time-t blocks.

    Identically zero gains are omitted; a constant process yields the
    empty basis (the space {0}).  The space keeps the partitions and the
    :func:`one_step_tree`, which :func:`famart.checkers.min_mass` reads.
    """
    f.check_conforms(m)
    s.check_adapted(f, m)
    tree = one_step_tree(f, s)
    basis: list[RandVar] = []
    for t, kids in enumerate(tree):
        for children in kids:
            if not any(d for _, d in children):
                continue
            values = [ZERO] * (m.n_states + 1)  # values[TAIL] is the tail value
            for j, d in children:
                for c in f.partitions[t + 1][j]:
                    values[c] = d
            basis.append(RandVar(values[:-1], values[-1] if m.has_tail else None))
    ls = LinSpace(tuple(basis))
    object.__setattr__(ls, "_tree", (f.partitions, tree))
    return ls


# --------------------------------------------------------------------------
# Built-in example models
# --------------------------------------------------------------------------


def example_dmw(
    p: RationalLike, n: int
) -> tuple[Model, Filtration, AdaptedProcess]:
    """Coin-path market with a downward-biased reference coin.

    2^n explicit path states, no tail.  A path with heads probability
    ``p`` in (0, 1/2) gets mass p^h (1-p)^(n-h); the process is the
    running sum of the +-1 steps and the filtration is generated by the
    observed prefix.  A horizon above ``MAX_DMW_HORIZON`` is refused
    before anything is built.
    """
    _check_dmw_horizon(n)
    p = rat(p)
    if not (0 < p < Fraction(1, 2)):
        raise InvalidInput(f"heads probability must lie in (0, 1/2), got {p}")
    paths = list(itertools.product((1, -1), repeat=n))
    masses = []
    for path in paths:
        mass = Fraction(1)
        for step in path:
            mass *= p if step == 1 else (1 - p)
        masses.append(mass)
    m = Model(tuple(masses))

    partitions = []
    for t in range(n + 1):
        groups: dict[tuple[int, ...], set[int]] = {}
        for i, path in enumerate(paths):
            groups.setdefault(path[:t], set()).add(i)
        partitions.append(tuple(frozenset(g) for g in groups.values()))
    f = Filtration(tuple(partitions))

    steps = []
    for t in range(n + 1):
        steps.append(RandVar(tuple(Fraction(sum(path[:t])) for path in paths)))
    s = AdaptedProcess(tuple(steps))
    return m, f, s


def _check_dmw_horizon(n: int) -> None:
    if not 1 <= n <= MAX_DMW_HORIZON:
        raise InvalidInput(
            f"horizon must lie in 1..{MAX_DMW_HORIZON} (2^n paths), got {n}"
        )


def dmw_martingale_fap(n: int) -> Fap:
    """The fair-coin path measure: mass 2^-n on each of the 2^n paths."""
    _check_dmw_horizon(n)
    return Fap(ZERO, (Fraction(1, 2**n),) * 2**n)


def example_bp(
    n_states: int, k: int
) -> tuple[Model, Filtration, AdaptedProcess, Fap]:
    """Geometric-reference market whose martingale functional needs a tail.

    States are 1..N (serialised as indices 0..N-1) plus a tail state;
    the reference mass of state w is 2^-w with residual 2^-N.  The
    process starts at 1 and after step t is frozen at 2^-t on the
    surviving set {w > t}; the filtration reveals one state per step.
    Also returns the countably additive comparison measure with masses
    1/w - 1/(w+1) and residual 1/(N+1).

    The trading space has k + 1 generators; generator t is 2^-(t+1)
    times (t+1)(t+3) on state t+1 and -1 on every later state and the
    tail.  No nonzero gain in the span is nonnegative, so on any fixed
    truncation the ratio bound (5) holds: c* is finite and at least
    (k+1)(k+3), the ratio ess sup(X) / ess sup(-X) of the last
    generator.  (5) fails only for the countable market, as c* grows
    without limit along the truncation scale.  N above ``MAX_TRUNCATION``
    and more than ``MAX_VALUES`` process values are refused.
    """
    _check_truncation(n_states)
    if k < 0 or k + 1 >= n_states:
        raise InvalidInput(
            "basis size must satisfy k + 1 < N so every gain is "
            "eventually constant within the truncation"
        )
    _check_values("(k + 2)(N + 1) process values", (k + 2) * (n_states + 1))
    masses = tuple(Fraction(1, 2 ** (w + 1)) for w in range(n_states))
    m = Model(masses, Fraction(1, 2**n_states))

    def s_t(t: int) -> RandVar:
        values = []
        for idx in range(n_states):
            w = idx + 1
            if w > t:
                values.append(Fraction(1, 2**t))
            else:
                values.append(Fraction(w * w + 2 * w + 2, 2**w))
        return RandVar(tuple(values), Fraction(1, 2**t))

    steps = AdaptedProcess(tuple(s_t(t) for t in range(k + 2)))

    parts = []
    all_coords = frozenset(range(n_states)) | {TAIL}
    for t in range(k + 2):
        singletons = [frozenset({i}) for i in range(min(t, n_states))]
        rest = all_coords - frozenset(range(min(t, n_states)))
        parts.append(tuple(singletons + [frozenset(rest)]))
    f = Filtration(tuple(parts))

    q_masses = tuple(
        Fraction(1, w) - Fraction(1, w + 1) for w in range(1, n_states + 1)
    )
    q_ref = Fap(ZERO, q_masses, Fraction(1, n_states + 1))
    return m, f, steps, q_ref


def example_harmonic(n_states: int) -> tuple[Model, LinSpace]:
    """Geometric reference with the span of w -> 1/w (tail value 0).

    The single generator is nonnegative with positive mass somewhere, so
    arbitrage exists, while its essential supremum reaches 0 only through
    the charged tail.  N above ``MAX_TRUNCATION`` is refused.
    """
    _check_truncation(n_states)
    masses = tuple(Fraction(1, 2 ** (w + 1)) for w in range(n_states))
    m = Model(masses, Fraction(1, 2**n_states))
    x = RandVar(tuple(Fraction(1, w) for w in range(1, n_states + 1)), ZERO)
    return m, LinSpace((x,))


def _check_truncation(n_states: int) -> None:
    if n_states < 2:
        raise InvalidInput("need at least two explicit states")
    if n_states > MAX_TRUNCATION:
        raise InvalidInput(
            f"truncation must be at most {MAX_TRUNCATION} (2^N in "
            f"{MAX_DIGITS} digits), got {n_states}"
        )


def _check_values(what: str, count: int) -> None:
    if count > MAX_VALUES:
        raise InvalidInput(f"{what} must be at most {MAX_VALUES}, got {count}")


def binomial_pmf(n: int, p: RationalLike) -> tuple[Fraction, ...]:
    """Exact Binomial(n, p) masses by head count, k = 0..n."""
    p = rat(p)
    if n < 0:
        raise InvalidInput("n must be nonnegative")
    if not (0 <= p <= 1):
        raise InvalidInput("p must lie in [0, 1]")
    q = 1 - p
    return tuple(
        Fraction(math.comb(n, k)) * p**k * q ** (n - k) for k in range(n + 1)
    )


def random_tree_model(seed: int) -> tuple[Model, Filtration, AdaptedProcess]:
    """Reproducible random filtration market for differential tests.

    Horizon 1 to 3.  Each block splits into 1 to 3 children, and each
    final block holds one or two states.  Increments are drawn from
    -2..2 over 1..3, so they take either sign or vanish.  At nine nodes in
    ten the first child's increment is then set against the largest other
    one, so that the node has no one-step arbitrage unless states below
    it are uncharged.  Some states are uncharged, and on some seeds
    the tail joins a random state's blocks, charged or not.
    """
    import random  # here, not at the top: most processes never draw a model

    rng = random.Random(seed)
    horizon = rng.randint(1, 3)
    partitions: list[list[Block]] = [[] for _ in range(horizon + 1)]
    levels: list[list[Fraction]] = [[] for _ in range(horizon + 1)]
    n = 0

    def grow(t: int, level: Fraction) -> Block:
        nonlocal n
        if t == horizon:
            block = frozenset(range(n, n + rng.randint(1, 2)))
            n += len(block)
        else:
            incs = [
                Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                for _ in range(rng.randint(1, 3))
            ]
            if rng.random() < 0.9:  # oppose the largest other increment
                incs[0] = -max(incs[1:], key=abs, default=0) * rng.randint(1, 2)
            block = frozenset().union(*(grow(t + 1, level + d) for d in incs))
        partitions[t].append(block)
        levels[t].append(level)
        return block

    grow(0, Fraction(rng.randint(-2, 2)))
    weights = [rng.randint(0, 3) for _ in range(n)]
    tail = None
    if rng.random() < 0.3:
        tail = rng.randint(0, 2)
        joined = rng.randrange(n)
        partitions = [[b | {TAIL} if joined in b else b for b in part] for part in partitions]
    total = sum(weights) + (tail or 0)
    if not total:
        weights[0] = total = 1
    masses = tuple(Fraction(w, total) for w in weights)
    m = Model(masses, None if tail is None else Fraction(tail, total))
    steps = []
    for part, level in zip(partitions, levels):
        values = [ZERO] * (n + 1)  # values[TAIL] is the tail value
        for block, v in zip(part, level):
            for c in block:
                values[c] = v
        steps.append(RandVar(values[:-1], None if tail is None else values[-1]))
    return m, Filtration(partitions), AdaptedProcess(steps)


def random_finite_model(
    seed: int, max_states: int = 6, max_basis: int = 4
) -> tuple[Model, LinSpace]:
    """Reproducible random finite market for fuzz pipelines.

    No tail state.  Null explicit states may occur, but every generator
    takes a nonzero value at some charged state and every charged state
    is touched by some generator; the fully degenerate shapes (empty
    basis, zero generators) have their own dedicated tests.  A
    ``max_states * max_basis`` above ``MAX_VALUES`` is refused.
    """
    if max_states < 1 or max_basis < 1:
        raise InvalidInput("a random model needs max_states >= 1 and max_basis >= 1")
    _check_values("max_states * max_basis", max_states * max_basis)
    import random

    rng = random.Random(seed)
    n = rng.randint(1, max_states)
    weights = [rng.randint(0, 6) for _ in range(n)]
    if not any(weights):
        weights[rng.randrange(n)] = 1
    total = sum(weights)
    masses = tuple(Fraction(w, total) for w in weights)
    model = Model(masses)
    charged = model.charged_states()

    def nonzero_entry() -> Fraction:
        return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    k = rng.randint(1, max_basis)
    basis = []
    for _ in range(k):
        vals = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        if all(vals[i] == 0 for i in charged):
            vals[rng.choice(charged)] = nonzero_entry()
        basis.append(RandVar(tuple(vals)))
    for i in charged:
        if all(x.values[i] == 0 for x in basis):
            j = rng.randrange(k)
            vals = list(basis[j].values)
            vals[i] = nonzero_entry()
            basis[j] = RandVar(tuple(vals))
    return model, LinSpace(tuple(basis))
