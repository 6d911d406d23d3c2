"""Finitely additive probabilities in Yosida-Hewitt form.

A ``Fap`` is stored as ``alpha * (tail functional) + (1 - alpha) * Q``
where ``Q`` is an ordinary countably additive pmf over the explicit
states and tail residual.  The pure part is fixed to the single tail
functional: it is the only pure charge the truncated models can
represent, and the shape every equivalent martingale functional takes
here.
"""

from __future__ import annotations

from fractions import Fraction

from .core import TAIL, ZERO, InvalidInput, Model, Record, _rat_tuple, int_row, rat


class Fap(Record):
    """Finitely additive probability: ``alpha`` weights the pure tail part.

    Invariants: ``0 <= alpha <= 1``; the countably additive part
    (``ca_mass`` plus ``ca_tail`` when present) is a probability vector;
    a strictly positive ``alpha`` requires a tail state.
    """

    __slots__ = ("alpha", "ca_mass", "ca_tail")
    alpha: Fraction
    ca_mass: tuple[Fraction, ...]
    ca_tail: Fraction | None

    def __init__(self, alpha, ca_mass, ca_tail=None) -> None:
        object.__setattr__(self, "alpha", rat(alpha))
        object.__setattr__(self, "ca_mass", _rat_tuple(ca_mass))
        object.__setattr__(self, "ca_tail", None if ca_tail is None else rat(ca_tail))
        if not (0 <= self.alpha <= 1):
            raise InvalidInput(f"alpha must lie in [0,1], got {self.alpha}")
        if any(q < 0 for q in self.ca_mass):
            raise InvalidInput("countably additive masses must be nonnegative")
        if self.ca_tail is not None and self.ca_tail < 0:
            raise InvalidInput("countably additive tail residual must be nonnegative")
        tail = () if self.ca_tail is None else (self.ca_tail,)
        masses, den = int_row([*self.ca_mass, *tail])
        if sum(masses) != den:
            total = Fraction(sum(masses), den)
            raise InvalidInput(f"countably additive part must sum to 1, got {total}")
        if self.alpha > 0 and self.ca_tail is None:
            raise InvalidInput("a pure part requires a tail state")

    def check_conforms(self, m: Model) -> None:
        if len(self.ca_mass) != m.n_states:
            raise InvalidInput(
                f"probability has {len(self.ca_mass)} masses, "
                f"model has {m.n_states} states"
            )
        if m.has_tail != (self.ca_tail is not None):
            raise InvalidInput("probability and model disagree about the tail state")

    def tail_charge(self) -> Fraction:
        """Total weight the functional puts on the tail region."""
        ca = self.ca_tail if self.ca_tail is not None else ZERO
        return self.alpha + (1 - self.alpha) * ca


def from_p0(m: Model) -> Fap:
    """The reference measure itself, as a countably additive Fap."""
    return Fap(ZERO, m.p0_mass, m.p0_tail)


def point_mass(m: Model, coord: int) -> Fap:
    """Dirac mass at an explicit state (or at the tail residual for TAIL)."""
    masses = [ZERO] * m.n_states
    tail = ZERO if m.has_tail else None
    if coord == TAIL:
        if not m.has_tail:
            raise InvalidInput("model has no tail state")
        tail = Fraction(1)
    else:
        masses[coord] = Fraction(1)
    return Fap(ZERO, tuple(masses), tail)


def yh_decompose(p: Fap) -> tuple[Fraction, Fap | None, Fap | None]:
    """Split ``p`` into (alpha, pure part, countably additive part).

    The pure part is the tail functional (returned with ``alpha = 1``),
    the countably additive part carries ``p``'s pmf with ``alpha = 0``.
    Either component is None when its weight vanishes.  Mixing the two
    with weight ``alpha`` reproduces ``p``'s expectation functional.
    """
    ca = None
    if p.alpha < 1:
        ca = Fap(ZERO, p.ca_mass, p.ca_tail)
    pure = None
    if p.alpha > 0:
        zeros = (ZERO,) * len(p.ca_mass)
        pure = Fap(Fraction(1), zeros, Fraction(1))
    return p.alpha, pure, ca


def is_pure(p: Fap, m: Model) -> bool:
    """Whether ``p`` has no nontrivial countably additive part.

    On these models that means ``alpha = 1``: the functional charges no
    explicit state and no finite union of them, so the partition into
    single states and tail sets witnesses purity.
    """
    p.check_conforms(m)
    return p.alpha == 1


def is_abs_continuous(p: Fap, m: Model) -> bool:
    """Whether ``p`` vanishes on every null set of the reference measure."""
    p.check_conforms(m)
    for i, q in enumerate(p.ca_mass):
        if q > 0 and m.p0_mass[i] == 0:
            return False
    if not m.tail_charged and p.tail_charge() > 0:
        return False
    return True


def is_equivalent(p: Fap, m: Model) -> bool:
    """Whether ``p`` and the reference measure share the same null sets.

    Truncation-level reading: absolute continuity, strictly positive mass
    on every charged explicit state, strictly positive tail charge when
    the tail is charged, and ``alpha < 1``.
    """
    p.check_conforms(m)
    if not is_abs_continuous(p, m):
        return False
    if p.alpha == 1:
        return False
    for i, q in enumerate(p.ca_mass):
        if m.p0_mass[i] > 0 and q == 0:
            return False
    if m.tail_charged and p.tail_charge() == 0:
        return False
    return True
