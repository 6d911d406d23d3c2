"""Exact scalars, truncated sample spaces, and bounded random variables.

Every number in this package is an arbitrary-precision rational
(`fractions.Fraction`); nothing ever rounds.  Countable sample spaces are
represented by N explicit states plus one optional ideal *tail* state that
carries the limit value of eventually constant functions, which keeps
essential suprema and expectations exact instead of approximate.

The tail state participates in essential suprema exactly when the
reference measure charges it (``p0_tail > 0``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from typing import TYPE_CHECKING, Iterable, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .fap import Fap

RationalLike = Union[Fraction, int, str]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Coordinate id of the tail state in support enumerations and event sets.
TAIL = -1


#: Most digits a string may ask ``rat`` for in a numerator or denominator:
#: CPython's int-to-str limit, so every value read can be printed again.
MAX_DIGITS = 4300


class InvalidInput(ValueError):
    """An argument violates a documented precondition or invariant."""


class CertificateFormat(InvalidInput):
    """The certificate is structurally malformed (not merely false)."""


class OversizedOutput(Exception):
    """A result holds a rational too long to write: a numerator or
    denominator of more than :data:`MAX_DIGITS` digits, which :func:`rat`
    would refuse to read back."""


class AuditError(RuntimeError):
    """The cross-condition self-audit of a report failed."""


def rat(x: RationalLike) -> Fraction:
    """Coerce an int, Fraction, or ``"num/den"`` string to an exact Fraction."""
    return x if type(x) is Fraction else Fraction(*rat_pair(x))


#: Canonical strings of at most ``_MEMO_WIDTH`` characters that
#: :func:`rat_pair` has read, with their pairs: certificates repeat a few
#: leaves ("0/1", "1/1") thousands of times.  It stops taking entries at
#: ``_MEMO_SIZE``, about 1 MB, and never holds an error or a string that
#: only ``Fraction`` reads.  The pairs are immutable, so sharing them is safe.
_DECODED: dict[str, tuple[int, int]] = {}
_MEMO_SIZE = 4096
_MEMO_WIDTH = 32


def rat_pair(x: RationalLike) -> tuple[int, int]:
    """The numerator and positive denominator of ``rat(x)``, not always in
    lowest terms.

    A string in the canonical form of :func:`rat_str` is read by ``int``
    directly, once per process for short ones; any other string goes
    through ``Fraction``'s own parser.
    Floats are rejected: they would smuggle rounding into an exact pipeline.
    """
    if isinstance(x, str):
        pair = _DECODED.get(x)
        if pair is not None:
            return pair
        num, _, den = x.partition("/")
        digits = num.removeprefix("-")
        if (
            x.isascii()
            and digits.isdigit()
            and den.isdigit()
            and len(digits) <= MAX_DIGITS
            and len(den) <= MAX_DIGITS
        ):
            d = int(den)
            if d:  # "n/0" goes on to Fraction, which refuses it
                pair = int(num), d
                if len(x) <= _MEMO_WIDTH and len(_DECODED) < _MEMO_SIZE:
                    _DECODED[x] = pair
                return pair
        if _digit_bound(x) > MAX_DIGITS:
            raise InvalidInput(f"more than {MAX_DIGITS} digits: {x[:40]!r}")
    elif type(x) is int:  # ints first: isinstance on Fraction, an ABC, is slow
        return x, 1
    elif isinstance(x, Fraction):
        return x.as_integer_ratio()
    elif isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInput(f"not an exact rational: {x!r}")
    try:
        q = Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInput(f"not an exact rational: {x!r}") from exc
    return q.numerator, q.denominator


def _digit_bound(s: str) -> int:
    """Bounds the digits of the numerator and the denominator that
    ``Fraction(s)`` builds, whose decimal exponent can ask for any number."""
    body, e, exponent = s.lower().partition("e")
    if not e and len(s) <= MAX_DIGITS:
        return len(s)  # counts every digit, and the point of a decimal
    widest = max(sum(map(str.isdecimal, part)) for part in body.split("/"))
    if not e and "." not in body:
        return widest
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(exponent) > len(str(MAX_DIGITS)):
        return MAX_DIGITS + 1
    # A point or a negative exponent k makes a denominator 10**k: k + 1 digits.
    return widest + (int(exponent) if exponent.isdecimal() else 0) + 1


def rat_str(q: RationalLike) -> str:
    """Canonical ``"num/den"`` rendering; the denominator is always explicit."""
    q = rat(q)
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError as exc:  # CPython's limit on printing an int
        raise OversizedOutput(
            f"a result holds a rational of more than {MAX_DIGITS} digits"
        ) from exc


def dot(a: Iterable[Fraction], b: Iterable[Fraction]) -> Fraction:
    """Exact ``sum(x * y for x, y in zip(a, b))`` over ints and Fractions.

    Zero terms are skipped; the others accumulate as one integer numerator
    over the running lcm of their denominators, reduced once at the end.
    """
    num, den = 0, 1
    for x, y in zip(a, b):
        xn = x.numerator
        if xn:
            yn = y.numerator
            if yn:
                d = x.denominator * y.denominator
                if den % d:
                    grown = lcm(den, d)
                    num *= grown // den
                    den = grown
                num += xn * yn * (den // d)
    return Fraction(num, den)


def int_row(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Ints and Fractions as integer numerators over their least common denominator."""
    # Star-args from a list, not a generator: CPython builds a generator's
    # argument tuple by resizing, which moves tuples between its per-size
    # free lists and leaves them holding memory for the life of the process.
    pairs = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in pairs])
    return [n * (den // d) for n, d in pairs], den


def _rat_tuple(xs: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(x if type(x) is Fraction else rat(x) for x in xs)


class Record:
    """Immutable record whose fields are its class's ``__slots__``.

    Each subclass lists its fields in ``__slots__`` and sets each one once
    in ``__init__``, whose parameters are the fields in that order, with
    ``object.__setattr__``.  Records compare and hash by class and fields,
    print as ``Name(field=value, ...)`` and pickle and copy by calling the
    class with their fields.  A plain class, not a dataclass: decorating
    generates and compiles code at import, and every ``famart`` process
    imports these classes.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot set {name!r}: records are immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: records are immutable")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class _Kept(Record):
    """Slots for what a record reads off its fields and keeps: a model its
    coordinates, a trading space its integer rows, the model shape it was
    found to fit, its min-mass program and the filtration tree it was
    built from, a program its integer form.  A base class's slots are not
    fields, so equality, hashing, printing and pickling ignore them."""

    __slots__ = (
        "_charged", "_support", "_coords", "_rows",
        "_shape", "_min_mass", "_tree",
    )


class Model(_Kept):
    """Truncated sample space with an exact reference probability.

    ``p0_mass[i]`` is the reference mass of explicit state ``i``;
    ``p0_tail`` is present iff the model has a tail state and holds the
    residual reference mass beyond the truncation.  Masses are
    nonnegative and sum to one exactly.  Zero-mass explicit states are
    legal; they are needed to express non-equivalent measures.
    """

    __slots__ = ("p0_mass", "p0_tail")
    p0_mass: tuple[Fraction, ...]
    p0_tail: Fraction | None

    def __init__(self, p0_mass, p0_tail=None) -> None:
        object.__setattr__(self, "p0_mass", _rat_tuple(p0_mass))
        object.__setattr__(self, "p0_tail", None if p0_tail is None else rat(p0_tail))
        if not self.p0_mass:
            raise InvalidInput("a model needs at least one explicit state")
        if any(x < 0 for x in self.p0_mass):
            raise InvalidInput("reference masses must be nonnegative")
        if self.p0_tail is not None and self.p0_tail < 0:
            raise InvalidInput("tail reference mass must be nonnegative")
        total = sum(self.p0_mass, ZERO)
        if self.p0_tail is not None:
            total += self.p0_tail
        if total != 1:
            raise InvalidInput(f"reference masses must sum to 1, got {total}")
        charged = tuple(i for i, x in enumerate(self.p0_mass) if x)
        tail = () if self.p0_tail is None else (TAIL,)
        object.__setattr__(self, "_charged", charged)
        object.__setattr__(self, "_support", charged + tail if self.p0_tail else charged)
        object.__setattr__(self, "_coords", tuple(range(len(self.p0_mass))) + tail)

    @property
    def n_states(self) -> int:
        return len(self.p0_mass)

    @property
    def has_tail(self) -> bool:
        return self.p0_tail is not None

    @property
    def tail_charged(self) -> bool:
        return bool(self.p0_tail)  # masses are nonnegative

    def charged_states(self) -> tuple[int, ...]:
        return self._charged

    def support(self) -> tuple[int, ...]:
        """Essential support coordinates: charged states, then TAIL if charged."""
        return self._support

    def all_coords(self) -> tuple[int, ...]:
        """Every coordinate of the model: explicit states, then TAIL if present."""
        return self._coords


class RandVar(Record):
    """Bounded, eventually constant random variable on a truncated space.

    ``values[i]`` is the value at explicit state ``i``; ``tail_value`` is
    the constant the function takes beyond the truncation and is required
    exactly when the model has a tail state.
    """

    __slots__ = ("values", "tail_value")
    values: tuple[Fraction, ...]
    tail_value: Fraction | None

    def __init__(self, values, tail_value=None) -> None:
        object.__setattr__(self, "values", _rat_tuple(values))
        if tail_value is not None:
            tail_value = rat(tail_value)
        object.__setattr__(self, "tail_value", tail_value)

    def check_conforms(self, m: Model) -> None:
        if len(self.values) != m.n_states:
            raise InvalidInput(
                f"random variable has {len(self.values)} values, "
                f"model has {m.n_states} states"
            )
        if m.has_tail and self.tail_value is None:
            raise InvalidInput("random variable lacks a tail value on a tail model")
        if not m.has_tail and self.tail_value is not None:
            raise InvalidInput("random variable has a tail value on a tail-less model")

    def at(self, coord: int) -> Fraction:
        """Value at a coordinate: a state index, or TAIL for the tail state."""
        if coord == TAIL:
            if self.tail_value is None:
                raise InvalidInput("no tail value on this random variable")
            return self.tail_value
        return self.values[coord]

    def scaled(self, a: RationalLike) -> "RandVar":
        a = rat(a)
        tail = None if self.tail_value is None else a * self.tail_value
        return RandVar(tuple(a * v for v in self.values), tail)

    def plus(self, other: "RandVar") -> "RandVar":
        if len(self.values) != len(other.values):
            raise InvalidInput("dimension mismatch")
        if (self.tail_value is None) != (other.tail_value is None):
            raise InvalidInput("tail mismatch")
        tail = None
        if self.tail_value is not None:
            tail = self.tail_value + other.tail_value
        return RandVar(
            tuple(a + b for a, b in zip(self.values, other.values)), tail
        )

    def negated(self) -> "RandVar":
        tail = None if self.tail_value is None else -self.tail_value
        return RandVar(tuple(-v for v in self.values), tail)


def constant(c: RationalLike, m: Model) -> RandVar:
    """The constant random variable ``c`` on model ``m``."""
    c = rat(c)
    return RandVar((c,) * m.n_states, c if m.has_tail else None)


class LinSpace(_Kept):
    """Trading space given by a finite generating list of random variables.

    The basis may be empty (the space is then {0}) and need not be
    linearly independent.  All members must share one model's dimension
    and tail flag; that is validated against a model on use.
    """

    __slots__ = ("basis",)
    basis: tuple[RandVar, ...]

    def __init__(self, basis) -> None:
        object.__setattr__(self, "basis", tuple(basis))

    def int_rows(self) -> tuple[tuple[tuple[int, ...], ...], int]:
        """Each generator's values, then its tail value when it has one, as
        integer numerators over one positive denominator; read on first use."""
        if not hasattr(self, "_rows"):
            vectors = [
                x.values if x.tail_value is None else (*x.values, x.tail_value)
                for x in self.basis
            ]
            flat, den = int_row([v for vec in vectors for v in vec])
            entries = iter(flat)
            rows = tuple(tuple(islice(entries, len(vec))) for vec in vectors)
            object.__setattr__(self, "_rows", (rows, den))
        return self._rows

    def check_conforms(self, m: Model) -> None:
        """Every generator fits the model.  Fitting depends only on the
        model's number of states and whether it has a tail, so the shape
        that passed is kept and only another shape is checked again."""
        shape = (m.n_states, m.has_tail)
        if getattr(self, "_shape", None) == shape:
            return
        for k, x in enumerate(self.basis):
            try:
                x.check_conforms(m)
            except InvalidInput as exc:
                raise InvalidInput(f"basis element {k}: {exc}") from exc
        object.__setattr__(self, "_shape", shape)

    def combine(self, coefficients: Sequence[RationalLike]) -> RandVar:
        """The element with the given coordinates in the generating list."""
        coeffs = _rat_tuple(coefficients)
        if len(coeffs) != len(self.basis):
            raise InvalidInput(
                f"{len(coeffs)} coefficients for {len(self.basis)} basis elements"
            )
        if not self.basis:
            raise InvalidInput("cannot combine over an empty basis without a model")
        columns = zip(*(x.values for x in self.basis))
        values = tuple(dot(coeffs, column) for column in columns)
        tail = None
        if self.basis[0].tail_value is not None:
            tail = dot(coeffs, [x.tail_value for x in self.basis])
        return RandVar(values, tail)


def ess_sup(x: RandVar, m: Model) -> Fraction:
    """Essential supremum of ``x`` under the model's reference measure.

    The maximum of ``x`` over charged explicit states, including the tail
    value when the tail state is charged.  Zero-mass states are excluded
    by definition.
    """
    x.check_conforms(m)
    best: Fraction | None = None
    for i in m.charged_states():
        v = x.values[i]
        if best is None or v > best:
            best = v
    if m.tail_charged:
        v = x.tail_value
        if best is None or v > best:
            best = v
    if best is None:  # unreachable: masses sum to 1, so something is charged
        raise InvalidInput("model has empty essential support")
    return best


def sup_norm(x: RandVar, m: Model) -> Fraction:
    """Essential sup-norm: max(ess_sup(x), ess_sup(-x)); always nonnegative."""
    return max(ess_sup(x, m), ess_sup(x.negated(), m))


def expect(p: "Fap", x: RandVar) -> Fraction:
    """Expectation of ``x`` under a finitely additive probability.

    The pure part acts as the tail functional (evaluation at the tail
    value), the countably additive part as an ordinary weighted sum.  For
    eventually constant ``x`` this equals the integral on the untruncated
    space.
    """
    if len(x.values) != len(p.ca_mass):
        raise InvalidInput("random variable and probability dimensions differ")
    if (p.ca_tail is None) != (x.tail_value is None):
        if x.tail_value is None:
            raise InvalidInput("random variable lacks a tail value on a tail model")
        raise InvalidInput("random variable has a tail value on a tail-less model")
    ca = dot(p.ca_mass, x.values)
    if p.ca_tail:
        ca += p.ca_tail * x.tail_value
    if p.alpha == 0:
        return ca
    return p.alpha * x.tail_value + (1 - p.alpha) * ca
