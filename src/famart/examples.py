"""The built-in example models, the model-file writer and the
``famart examples`` command.

Each generator builds an exact model: dmw's coin paths, bp's geometric
market that needs a tail, the harmonic span, and reproducible random
finite and filtration markets for differential tests.  They refuse,
before building anything, a size whose model would exhaust memory or
print a number of more than ``MAX_DIGITS`` digits.  An ``examples``
process loads this module, the model-file codec and the trading-space
code, and no validator, program or solver.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Sequence

from .core import (
    MAX_DIGITS,
    TAIL,
    ZERO,
    InvalidInput,
    LinSpace,
    Model,
    RandVar,
    RationalLike,
    rat,
    rat_str,
)
from .fap import Fap
from .modelfile import coord_payload, randvar_payload, rat_strs
from .spaces import AdaptedProcess, Filtration

if TYPE_CHECKING:
    import argparse

# The largest dmw horizon: 2^16 paths build in seconds, while a larger
# horizon would need memory exponential in it before any other check.
MAX_DMW_HORIZON = 16
# The largest bp and harmonic truncation N: 2^N, their largest
# denominator, prints in MAX_DIGITS digits, and 2^(N+1) does not.
MAX_TRUNCATION = 14284
# The most values a built-in model may hold: (MAX_DMW_HORIZON + 1) * 2^16,
# the size of the largest dmw process.  It caps bp's (k + 2)(N + 1)
# process values and finite-random's max_states * max_basis.
MAX_VALUES = 1114112


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


# --------------------------------------------------------------------------
# The model-file writer and the command
# --------------------------------------------------------------------------


def _block_to_json(block: frozenset[int]) -> list[Any]:
    """A coordinate block as a model file lists it: states, then the tail."""
    return [coord_payload(c) for c in sorted(block, key=lambda v: (v == TAIL, v))]


def serialize_model(
    model: Model,
    lin_space: LinSpace | None = None,
    filtration: Filtration | None = None,
    process: AdaptedProcess | None = None,
    previsions: Sequence[Fraction] | None = None,
    events: Sequence[frozenset[int]] | None = None,
) -> dict[str, Any]:
    """Build the JSON object for a model plus either a basis or dynamics."""
    out: dict[str, Any] = {
        "states": model.n_states,
        "tail": model.has_tail,
        "p0": rat_strs(model.p0_mass),
    }
    if model.has_tail:
        out["p0_tail"] = rat_str(model.p0_tail)
    if filtration is not None or process is not None:
        if filtration is None or process is None:
            raise InvalidInput("'filtration' and 'process' must come together")
        out["filtration"] = [
            [_block_to_json(block) for block in part]
            for part in filtration.partitions
        ]
        out["process"] = [randvar_payload(s) for s in process.steps]
    elif lin_space is not None:
        out["basis"] = [randvar_payload(x) for x in lin_space.basis]
    else:
        raise InvalidInput("nothing to serialize: no basis and no dynamics")
    if previsions is not None:
        out["previsions"] = rat_strs(previsions)
    if events is not None:
        out["events"] = [_block_to_json(ev) for ev in events]
    return out


def _cmd_examples(args: argparse.Namespace) -> int:
    name = args.name
    if name == "dmw":
        m, f, s = example_dmw(rat(args.p), args.n)
        doc = serialize_model(m, filtration=f, process=s)
    elif name == "bp":
        m, f, s, _q = example_bp(args.N, args.k)
        doc = serialize_model(m, filtration=f, process=s)
    elif name == "harmonic":
        m, ls = example_harmonic(args.N)
        doc = serialize_model(m, lin_space=ls)
    elif name == "finite-random":
        m, ls = random_finite_model(
            args.seed, max_states=args.max_states, max_basis=args.max_basis
        )
        doc = serialize_model(m, lin_space=ls)
    else:  # unreachable through argparse choices
        raise InvalidInput(f"unknown example {name!r}")
    blob = json.dumps(doc, indent=2)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(blob + "\n")
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.out}: {exc}") from exc
    else:
        print(blob)
    return 0
