"""Trading-space generation.

A filtration is a list of partitions of the coordinates (explicit states
plus the tail state, which must sit inside exactly one block per time),
each refining the previous one.  The trading space of an adapted process
is spanned by the one-step gains ``I_B * (S_{t+1} - S_t)`` over the
time-t blocks; consecutive increments span the whole space of simple
strategy gains by telescoping.  :func:`one_step_tree` reads the
filtration as a tree whose edges carry the increments; it builds the
trading space, which keeps the tree with the partitions, so that
:func:`famart.checkers.min_mass` decides (3) node by node from the space
alone.  Every step is linear in the size of the partitions.

The built-in example models are :mod:`famart.examples`'; the three that
the benchmark builds stay reachable here by name (``spaces.example_bp``,
``spaces.example_dmw``, ``spaces.random_finite_model``) without being
loaded until one is asked for.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from .core import ZERO, InvalidInput, LinSpace, Model, RandVar, RationalLike, Record, rat

Block = frozenset  # of state indices; TAIL marks the tail state

# Example builders looked up through this module.
_EXAMPLES = frozenset({"example_bp", "example_dmw", "random_finite_model"})


def __getattr__(name: str) -> Any:
    # Looked up in famart.examples on each access and never kept here, so
    # reading one leaves this module's namespace as it was.
    if name in _EXAMPLES:
        from . import examples

        return getattr(examples, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
