"""The model-file codec: parsing, serialization and the model digest.

The model file is a JSON document with every rational written as a
``"num/den"`` string (plain integers are accepted on input), so files
round-trip bit-exactly across platforms:

```
{
  "states": 3,
  "tail": true,
  "p0": ["1/2", "1/4", "1/8"],
  "p0_tail": "1/8",
  "basis": [{"values": ["1/1", "1/2", "1/3"], "tail": "0/1"}]
}
```

Instead of ``basis`` a file may carry ``filtration`` and ``process``
blocks (partitions as lists of coordinate lists, with ``"tail"`` naming
the tail state; the process as one value block per time index); the
basis is then derived from the one-step gains, and a simultaneous
explicit ``basis`` key is rejected so the file has a single source of
truth.  Such a file loads in time linear in its size, and its report
decides (3) on the filtration tree.  Optional ``previsions`` (one per generator, default zero) and
``events`` (default: the essential support) feed the coherence and
event-dominance checks.

The rows a model's report holds (:func:`report_conditions`) and the
implication flags read off them (:func:`implications`) are named here
too, since ``famart certify`` checks a stored report against them
without building one.  So are the JSON encoders that model files and
certificates share (:func:`rat_strs`, :func:`coord_payload`,
:func:`randvar_payload`); the rest of the certificate encoders are
:mod:`famart.render`'s, and the model-file writer is
:func:`famart.examples.serialize_model`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Mapping, Sequence

from .core import (
    TAIL,
    ZERO,
    MAX_DIGITS,
    InvalidInput,
    LinSpace,
    Model,
    OversizedOutput,
    RandVar,
    Record,
    rat,
    rat_str,
)
from .spaces import AdaptedProcess, Filtration, trading_space

#: Report row order for conditions.
CONDITION_ORDER = ("(3)", "(4)", "(5)", "(5*)", "(6)", "(7)", "(8)", "(10)", "coherence")


class ModelDoc(Record):
    """A parsed model file: the model, its trading space, and check inputs."""

    __slots__ = ("model", "lin_space", "previsions", "events", "filtration", "process")
    model: Model
    lin_space: LinSpace
    previsions: tuple[Fraction, ...]
    events: tuple[frozenset[int], ...]
    filtration: Filtration | None
    process: AdaptedProcess | None

    def __init__(
        self, model, lin_space, previsions, events, filtration=None, process=None
    ) -> None:
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "lin_space", lin_space)
        object.__setattr__(self, "previsions", previsions)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "filtration", filtration)
        object.__setattr__(self, "process", process)

    def extras(self) -> dict[str, Any]:
        return {"previsions": self.previsions, "events": self.events}


def rat_strs(xs: Sequence[Any]) -> list[str]:
    return [rat_str(x) for x in xs]


def coord_payload(c: int) -> Any:
    return "tail" if c == TAIL else c


def randvar_payload(x: RandVar) -> dict[str, Any]:
    out: dict[str, Any] = {"values": rat_strs(x.values)}
    if x.tail_value is not None:
        out["tail"] = rat_str(x.tail_value)
    return out


def read_json(path: str) -> Any:
    """The JSON document in a file; an unreadable file or invalid JSON is
    invalid input.  So is JSON that ``json.load`` cannot turn into Python:
    an integer literal past CPython's digit limit, or nesting past the
    recursion limit."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise InvalidInput(f"{path} holds JSON too large to read: {exc}") from exc


def _coord_from_json(v: Any, m: Model) -> int:
    if type(v) is int and 0 <= v < len(m.p0_mass):
        return v
    if v == "tail":
        if not m.has_tail:
            raise InvalidInput("file references the tail state of a tail-less model")
        return TAIL
    raise InvalidInput(f"bad coordinate {v!r}")


def _block_from_json(block: Any, m: Model, key: str) -> frozenset[int]:
    if not isinstance(block, list):
        raise InvalidInput(f"{key!r}: a block must be a list, got {block!r}")
    return frozenset(_coord_from_json(c, m) for c in block)


def randvar_from_json(
    d: Any, m: Model, what: str, read: Callable[[Any], Fraction] = rat
) -> RandVar:
    """A model-file random variable, each value read by ``read``; any bad
    field is ``InvalidInput``.  (Certificates have their own decoders,
    which tell malformed from false.)"""
    if not isinstance(d, Mapping) or "values" not in d:
        raise InvalidInput(f"{what} must be an object with a 'values' list")
    values = d["values"]
    if not isinstance(values, list):
        raise InvalidInput(f"{what}: 'values' must be a list")
    tail = None
    if m.has_tail:
        if "tail" not in d:
            raise InvalidInput(f"{what} lacks a tail value on a tail model")
        tail = read(d["tail"])
    elif "tail" in d:
        raise InvalidInput(f"{what} carries a tail value on a tail-less model")
    x = RandVar(tuple(map(read, values)), tail)
    x.check_conforms(m)
    return x


def parse_model(doc: Mapping[str, Any]) -> ModelDoc:
    """Validate and load a model-file JSON object."""
    if not isinstance(doc, Mapping):
        raise InvalidInput("model file must be a JSON object")
    try:
        n = doc["states"]
        tail_flag = doc["tail"]
        p0 = doc["p0"]
    except KeyError as exc:
        raise InvalidInput(f"model file lacks key {exc.args[0]!r}") from exc
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InvalidInput("'states' must be a positive integer")
    if not isinstance(tail_flag, bool):
        raise InvalidInput("'tail' must be a boolean")
    if not isinstance(p0, list) or len(p0) != n:
        raise InvalidInput("'p0' must list one mass per state")
    p0_tail = None
    if tail_flag:
        if "p0_tail" not in doc:
            raise InvalidInput("tail models need 'p0_tail'")
        p0_tail = rat(doc["p0_tail"])
    elif "p0_tail" in doc:
        raise InvalidInput("'p0_tail' is only allowed on tail models")
    model = Model(tuple(rat(x) for x in p0), p0_tail)

    has_basis = "basis" in doc
    has_dynamics = "filtration" in doc or "process" in doc
    filtration = process = None
    if has_basis and has_dynamics:
        raise InvalidInput(
            "'basis' and 'filtration'/'process' are mutually exclusive; "
            "the basis is derived from the dynamics when they are present"
        )
    if has_dynamics:
        if "filtration" not in doc or "process" not in doc:
            raise InvalidInput("'filtration' and 'process' must come together")
        raw_f = doc["filtration"]
        if not isinstance(raw_f, list) or not all(
            isinstance(part, list) for part in raw_f
        ):
            raise InvalidInput("'filtration' must be a list of partitions")
        partitions = tuple(
            tuple(_block_from_json(block, model, "filtration") for block in part)
            for part in raw_f
        )
        filtration = Filtration(partitions)
        raw_s = doc["process"]
        if not isinstance(raw_s, list):
            raise InvalidInput("'process' must be a list of value blocks")
        # A process repeats its values from time to time: read each string once.
        memo: dict[str, Fraction] = {}

        def read(v: Any) -> Fraction:
            if type(v) is not str:
                return rat(v)
            q = memo.get(v)
            if q is None:
                q = memo[v] = rat(v)
            return q

        process = AdaptedProcess(
            tuple(
                randvar_from_json(d, model, f"process step {t}", read)
                for t, d in enumerate(raw_s)
            )
        )
        lin_space = trading_space(filtration, process, model)
    elif has_basis:
        raw_b = doc["basis"]
        if not isinstance(raw_b, list):
            raise InvalidInput("'basis' must be a list")
        lin_space = LinSpace(
            tuple(
                randvar_from_json(d, model, f"basis element {k}")
                for k, d in enumerate(raw_b)
            )
        )
    else:
        raise InvalidInput("model file needs either 'basis' or dynamics blocks")

    previsions: tuple[Fraction, ...]
    if "previsions" in doc:
        raw_e = doc["previsions"]
        if not isinstance(raw_e, list) or len(raw_e) != len(lin_space.basis):
            raise InvalidInput("'previsions' must list one value per generator")
        previsions = tuple(rat(e) for e in raw_e)
    else:
        previsions = (ZERO,) * len(lin_space.basis)

    if "events" in doc:
        raw_ev = doc["events"]
        if not isinstance(raw_ev, list) or not raw_ev:
            raise InvalidInput("'events' must be a nonempty list of coordinate lists")
        events = tuple(_block_from_json(block, model, "events") for block in raw_ev)
    else:
        events = (frozenset(model.support()),)

    return ModelDoc(model, lin_space, previsions, events, filtration, process)


def load_model_file(path: str) -> ModelDoc:
    return parse_model(read_json(path))


def model_digest(model: Model, lin_space: LinSpace) -> str:
    """Canonical digest of the model and its derived basis."""
    # The basis as ``randvar_payload`` renders it, but each distinct value
    # (a numerator over the kept rows' denominator) is rendered once: a
    # dmw n=10 basis holds a million values, all of them -1, 0 or 1.
    rows, den = lin_space.int_rows()
    text = {}
    try:
        for n in {n for row in rows for n in row}:
            g = gcd(n, den)
            text[n] = f"{n // g}/{den // g}"
    except ValueError as exc:  # CPython's limit on printing an int, as in rat_str
        raise OversizedOutput(
            f"a result holds a rational of more than {MAX_DIGITS} digits"
        ) from exc
    basis = []
    for x, row in zip(lin_space.basis, rows):
        values = list(map(text.__getitem__, row))
        if x.tail_value is None:
            basis.append({"values": values})
        else:
            basis.append({"values": values[:-1], "tail": values[-1]})
    payload = {
        "states": model.n_states,
        "tail": model.has_tail,
        "p0": rat_strs(model.p0_mass),
        "p0_tail": rat_str(model.p0_tail) if model.has_tail else None,
        "basis": basis,
    }
    import hashlib  # here, not at the top: most processes never take a digest

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def report_conditions(m: Model, ls: LinSpace) -> list[str]:
    """The conditions of a report's rows, in order: (5*) only without a
    tail, (8) only with one, coherence only with a nonempty basis."""
    skip = {"(5*)"} if m.has_tail else {"(8)"}
    if not ls.basis:
        skip.add("coherence")
    return [cond for cond in CONDITION_ORDER if cond not in skip]


def implications(holds: Mapping[str, bool]) -> dict[str, bool]:
    """A report's implication flags, read off whether each condition holds."""
    return {
        "emfap_implies_no_arbitrage": not holds["(3)"] or holds["(6)"],
        "no_arbitrage_implies_acmfap": not holds["(6)"] or holds["(4)"],
        "norm_closure_equals_no_arbitrage": holds["(10)"] == holds["(6)"],
    }
