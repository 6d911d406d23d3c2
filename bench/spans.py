"""Outside-in tracing of famart's layers, installed from the benchmark.

``Tracer.installed()`` rebinds each function in ``TARGETS`` to a wrapper
that records a span, in every famart module namespace that holds it:
``checkers`` imports ``solve`` by name, while ``certificates`` reaches
the ``checkers.*_lp`` builders as module attributes, so both bindings
must be replaced.  The originals are put back when the block exits.

A span is ``(name, start_ns, end_ns, parent_index, op_id)``.  Spans stay
in memory and are written out at the end of the run.  ``layer_metrics``
turns them into the per-layer metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

# Checker label -> checker function (inclusive time per checker).
CHECKERS = {
    "c3": "find_emfap",
    "c4": "check_acmfap",
    "c5": "cstar_verdict",
    "c5star": "verify_condition5star",
    "c6": "check_no_arbitrage",
    "c7": "check_event_dominance",
    "c8": "check_condition8",
    "c10": "check_norm_closure",
    "coherence": "check_coherence",
}
BUILDERS = (
    "arbitrage_lp",
    "negative_gain_lp",
    "martingale_mass_lp",
    "expectation_bound_lp",
    "ratio_bound_lp",
    "event_dominance_lp",
    "coherence_lp",
)
VERIFIERS = ("verify_outcome", "dual_objective", "farkas_combination", "reduced_costs")
CONSTRUCTORS = (
    "arbitrage_vector",
    "martingale_fap",
    "separating_functional",
    "farkas_witness",
    "witness",
    "representing_fap",
    "sure_loss_bet",
    "tail_values",
    "cstar_bound",
)

# (module, function); the span is named "<layer>.<function>".
TARGETS = (
    [("famart.cli", "main"), ("famart.cli", "_emit")]
    + [("famart.modelio", f) for f in ("load_model_file", "parse_model", "build_report", "model_digest")]
    + [("famart.spaces", f) for f in ("trading_space", "example_bp", "example_dmw", "random_finite_model")]
    + [("famart.checkers", f) for f in (*CHECKERS.values(), *BUILDERS)]
    + [("famart.lp", f) for f in ("solve", *VERIFIERS)]
    + [("famart.certificates", f) for f in (*CONSTRUCTORS, "validate_verdict")]
)

# Spans the benchmark opens itself around its own codec calls.
BENCH_LOAD = "bench.load_model"
BENCH_EMIT = "bench.emit_report"


def span_name(module: str, func: str) -> str:
    return f"{module.split('.')[-1]}.{func}"


class Tracer:
    """Records spans for one traced run; owns the installed wrappers.

    Finished spans and solve records are tuples of plain values, which the
    garbage collector stops tracking, so a long traced run does not slow
    the collections of the code it measures.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[Any, ...]] = []
        self.solves: list[tuple[Any, ...]] = []  # see program_record
        self.op = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx, op = len(self.spans), self.op
        parent = self._stack[-1] if self._stack else None
        self.spans.append(())
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, op)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span = self.span
        if name == "lp.solve":
            solves = self.solves

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(name):
                    out = fn(*args, **kwargs)
                solves.append(program_record(args[0], out))
                return out
        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with span(name):
                    return fn(*args, **kwargs)

        wrapper.__bench_wrapper__ = True
        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every target in every famart namespace; restore on exit."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "famart" or n.startswith("famart.")]
        replaced: list[tuple[Any, str, Any]] = []
        try:
            for module_name, func in TARGETS:
                original = getattr(sys.modules[module_name], func)
                wrapper = self._wrap(span_name(module_name, func), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            replaced.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)


# --------------------------------------------------------------------------
# Span arithmetic
# --------------------------------------------------------------------------


def duration(rec: tuple[Any, ...]) -> int:
    return rec[2] - rec[1]


def self_times(spans: list[tuple[Any, ...]]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    out = [duration(s) for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= duration(s)
    return out


def _outermost(spans: list[tuple[Any, ...]], idx: int, names: set[str]) -> int | None:
    """Index of the outermost ancestor-or-self of ``idx`` named in ``names``."""
    found = None
    while idx is not None:
        if spans[idx][0] in names:
            found = idx
        idx = spans[idx][3]
    return found


def covered(spans: list[tuple[Any, ...]], names: set[str]) -> tuple[int, int]:
    """(ns, calls) of the spans named in ``names`` that have no ancestor
    named in ``names``: nested calls are counted once, in their caller."""
    ns = calls = 0
    for i, s in enumerate(spans):
        if s[0] in names and _outermost(spans, i, names) == i:
            ns += duration(s)
            calls += 1
    return ns, calls


def program_record(lp: Any, outcome: Any) -> tuple[Any, ...]:
    """(value key, rows, columns, nonzeros, row entries, largest bit
    length, outcome kind) of one solved program.  The key is the program's
    value as nested tuples of integers, which keeps no reference to it."""

    def ratios(qs: Any) -> tuple[Any, ...]:
        return tuple(None if q is None else q.as_integer_ratio() for q in qs)

    rows = tuple((ratios(con.coeffs), con.relation, con.rhs.as_integer_ratio()) for con in lp.constraints)
    bounds = ratios(lp.lower) + ratios(lp.upper)
    key = (lp.maximize, ratios(lp.objective), rows, bounds)
    pairs = [*ratios(lp.objective), *filter(None, bounds)]
    for coeffs, _, rhs in rows:
        pairs.extend(coeffs)
        pairs.append(rhs)
    bits = max((max(abs(n).bit_length(), d.bit_length()) for n, d in pairs), default=0)
    nnz = sum(1 for coeffs, _, _ in rows for n, _ in coeffs if n)
    entries = sum(len(coeffs) for coeffs, _, _ in rows)
    return (key, lp.n_rows, lp.n_vars, nnz, entries, bits, type(outcome).__name__)


def program_stats(solves: list[tuple[Any, ...]]) -> dict[str, float]:
    """Size, density and bit length of every solved program."""
    outcomes = {"Optimal": 0, "Infeasible": 0, "Unbounded": 0}
    for rec in solves:
        outcomes[rec[6]] += 1
    calls = len(solves)
    distinct = len({rec[0] for rec in solves})
    nnz, entries = sum(rec[3] for rec in solves), sum(rec[4] for rec in solves)
    return {
        "lp.solve_calls": calls,
        "lp.solve_distinct": distinct,
        "lp.solve_distinct_ratio": distinct / calls if calls else 1.0,
        "lp.rows_max": max((rec[1] for rec in solves), default=0),
        "lp.cols_max": max((rec[2] for rec in solves), default=0),
        "lp.nnz_frac": nnz / entries if entries else 0.0,
        "lp.entry_bits_max": max((rec[5] for rec in solves), default=0),
        "lp.outcome_optimal": outcomes["Optimal"],
        "lp.outcome_infeasible": outcomes["Infeasible"],
        "lp.outcome_unbounded": outcomes["Unbounded"],
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, except those measured outside
    the spans (``cli.startup_s``, the byte counts, ``trace.overhead_frac``)."""
    spans = tracer.spans
    s = 1e-9
    selfs = self_times(spans)
    checker_names = {f"checkers.{f}" for f in CHECKERS.values()}

    def time_of(*names: str) -> float:
        return covered(spans, set(names))[0] * s

    out: dict[str, float] = {
        "cli.emit_s": time_of("cli._emit", BENCH_EMIT),
        "modelio.load_s": time_of("modelio.load_model_file", "modelio.parse_model", BENCH_LOAD),
        "modelio.report_self_s": sum(t for t, sp in zip(selfs, spans) if sp[0] == "modelio.build_report") * s,
        "modelio.digest_s": time_of("modelio.model_digest"),
        "spaces.s": time_of(*(span_name("famart.spaces", f) for m, f in TARGETS if m == "famart.spaces")),
        "spaces.trading_space_calls": covered(spans, {"spaces.trading_space"})[1],
    }
    # A checker nested in another (the (5*) check runs (3) on the weighted
    # family) is counted in its outermost caller.
    by_label = {label: 0 for label in CHECKERS}
    solve_by_label = {label: 0 for label in CHECKERS}
    label_of = {f"checkers.{f}": label for label, f in CHECKERS.items()}
    for i, sp in enumerate(spans):
        top = _outermost(spans, i, checker_names)
        if top is None:
            continue
        label = label_of[spans[top][0]]
        if top == i:
            by_label[label] += duration(sp)
        elif sp[0] == "lp.solve" and _outermost(spans, i, {"lp.solve"}) == i:
            solve_by_label[label] += duration(sp)
    for label in ("c3", "c4", "c5", "c6", "c7", "c10", "coherence"):
        out[f"checkers.{label}_s"] = by_label[label] * s
    # (5*) runs only on tail-less models and (8) only on tail models.
    out["checkers.c5star_c8_s"] = (by_label["c5star"] + by_label["c8"]) * s
    build_ns, build_calls = covered(spans, {f"checkers.{f}" for f in BUILDERS})
    out["checkers.build_lp_s"] = build_ns * s
    out["checkers.build_lp_calls"] = build_calls

    out.update(program_stats(tracer.solves))
    out["lp.solve_s"] = time_of("lp.solve")
    for label in ("c3", "c4", "c5", "c6", "c7", "c10", "coherence"):
        out[f"lp.solve_s.{label}"] = solve_by_label[label] * s
    verify_ns, verify_calls = covered(spans, {f"lp.{f}" for f in VERIFIERS})
    out["lp.verify_s"] = verify_ns * s
    out["lp.verify_calls"] = verify_calls

    out["certificates.build_s"] = time_of(*(f"certificates.{f}" for f in CONSTRUCTORS))
    validate_ns, validate_calls = covered(spans, {"certificates.validate_verdict"})
    out["certificates.validate_s"] = validate_ns * s
    out["certificates.validate_calls"] = validate_calls
    return out
