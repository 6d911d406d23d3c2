#!/usr/bin/env python3
"""famart benchmark: end-to-end and per-layer metrics with a correctness gate.

    python3 bench/run.py --workload bp-tail --seed 0 --seconds 30 --trace 0

Run from the root of a famart checkout; the package is imported from its
``src`` directory.  ``--workload all`` runs every workload in turn.

Workloads (see ``bench/README.md`` for why each exists):

* ``bp-tail`` and ``dmw-paths``: ``famart report`` on a built-in model in a
  subprocess, then one ``famart certify`` subprocess per verdict of that
  report.  Set-up is the ``famart examples`` subprocess.
* ``fuzz-corpus``: in process, ``parse_model``, ``build_report`` and
  ``json.dumps`` per model of a seeded corpus, then ``json.loads`` and
  ``validate_verdict`` per verdict.  Set-up is a subprocess that imports
  famart and writes the corpus (``bench/corpus.py``).

With ``--trace 0`` the run is timed and prints the end-to-end metrics:
medians over ops of times scaled by a host-speed probe timed around each
op (see ``probe``).
With ``--trace 1`` it runs the same inputs in process: a warm-up op, one
op untraced and one with every layer wrapped (``bench/spans.py``) and prints the per-layer metrics.
Every output goes through ``bench/gate.py``; a failed check, a nonzero
exit, unparsable output or an op that overruns its budget counts as a
failed op.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH))
import gate  # noqa: E402
import spans  # noqa: E402

CLI_WORKLOADS = {
    "bp-tail": ["bp", "--N", "40", "--k", "38"],
    "dmw-paths": ["dmw", "--p", "1/3", "--n", "5"],
}
WORKLOADS = (*CLI_WORKLOADS, "fuzz-corpus")

SETUP_REPS = 7      # set-up runs per benchmark run; setup_s is their median
STARTUP_REPS = 5    # `import famart.cli` runs per traced run
MIN_OPS = 3         # ops run even past --seconds, so a median has 3 samples
# Time budget per op; an op that overruns is killed and counted as failed.
BUDGET_S = {"examples": 20, "report": 60, "certify": 20, "model": 10}
HARD_DEADLINE_S = 150  # no op runs past this, so a run exits within 180 s
# The probe's time on a quiet host of the machine the benchmark was tuned
# on (2 vCPUs, Python 3.11.7); it only sets the scale of scaled times.
PROBE_REF_S = 0.05


class OpTimeout(Exception):
    """An op ran past its time budget."""


def _on_alarm(signum, frame):
    raise OpTimeout()


class Run:
    """State of one benchmark run: deadline, op counts, failure log."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.t0 = time.perf_counter()
        self.loadavg_start = list(os.getloadavg())
        self.attempted = 0
        self.failures: list[str] = []
        self.ops: list[dict[str, float]] = []  # raw timings, kept in the result file

    def budget(self, kind: str) -> float:
        left = HARD_DEADLINE_S - (time.perf_counter() - self.t0)
        return max(0.001, min(BUDGET_S[kind], left))

    @contextlib.contextmanager
    def deadline(self, kind: str):
        """Raise ``OpTimeout`` in the block once its budget has run out."""
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.budget(kind))
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def record(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")
        return not problems


# --------------------------------------------------------------------------
# Host speed
# --------------------------------------------------------------------------


def probe() -> float:
    """Wall time of a fixed exact-rational elimination, standard library
    only: the host's current speed at the arithmetic famart spends its
    time on.  On a shared host that speed swings by tens of percent within
    seconds, and a timed op is scaled by the probes taken around it."""
    t = time.perf_counter()
    n = 12
    for _ in range(20):
        m = [[Fraction(i * j + 1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
        for c in range(n):
            for r in range(c + 1, n):
                f = m[r][c] / m[c][c]
                for k in range(c, n):
                    m[r][k] -= f * m[c][k]
    return time.perf_counter() - t


def host_factor(*probes: float) -> float:
    """Factor that scales a time measured between ``probes`` to a host
    where the probe takes ``PROBE_REF_S``."""
    return PROBE_REF_S / statistics.fmean(probes)


# --------------------------------------------------------------------------
# Subprocesses
# --------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Child:
    """One finished child process: wall time from spawn to exit, its own
    CPU time and peak RSS from ``os.wait4``, and its standard output."""

    def __init__(self, run: Run, kind: str, argv: list[str], stdout_path: Path) -> None:
        self.timed_out = False
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
            try:
                with run.deadline(kind):
                    _, status, usage = os.wait4(proc.pid, 0)
            except OpTimeout:
                self.timed_out = True
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            self.wall_s = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024
        self.stdout = stdout_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = stdout_path.with_suffix(".err").read_text(encoding="utf-8", errors="replace")

    def problems(self) -> list[str]:
        if self.timed_out:
            return ["timeout"]
        if self.returncode != 0:
            return [f"exit {self.returncode}: {self.stderr.strip()[-200:]}"]
        return []


def famart_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "famart.cli", *args]


# --------------------------------------------------------------------------
# Set-up
# --------------------------------------------------------------------------


def setup(run: Run, work: Path) -> tuple[Path, float]:
    """Make the workload's input ``SETUP_REPS`` times; every repetition
    must write the same bytes.  Returns the input path and setup_s."""
    path = work / ("corpus.json" if run.workload == "fuzz-corpus" else "model.json")
    if run.workload == "fuzz-corpus":
        argv = [sys.executable, str(BENCH / "corpus.py"), "--seed", str(run.seed), "--out", str(path)]
    else:
        argv = famart_argv("examples", *CLI_WORKLOADS[run.workload], "--out", str(path))
    times, blobs, probes = [], set(), [probe()]
    for _ in range(SETUP_REPS):
        child = Child(run, "examples", argv, work / "setup.out")
        probes.append(probe())
        if not run.record("set-up", child.problems()):
            raise SystemExit(f"set-up failed: {run.failures[-1]}")
        times.append(child.wall_s * host_factor(*probes[-2:]))
        blobs.add(hashlib.sha256(path.read_bytes()).hexdigest())
    if len(blobs) != 1:
        raise SystemExit("set-up is not deterministic: its outputs differ")
    return path, statistics.median(times)


def expectations() -> dict[str, Any]:
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


# --------------------------------------------------------------------------
# CLI workloads: famart report, then famart certify per verdict
# --------------------------------------------------------------------------


def check_report(run: Run, report: dict[str, Any], expected: dict[str, Any]) -> list[str]:
    return gate.check_expected(report, expected) + gate.FACTS[run.workload](report)


def cli_op(run: Run, model: Path, expected: dict[str, Any], work: Path) -> dict[str, Any] | None:
    """One report subprocess and one certify subprocess per verdict, with
    the host probed before and after each of them."""
    before = probe()
    rep = Child(run, "report", famart_argv("report", str(model)), work / "report.json")
    between = probe()
    problems = rep.problems()
    report = None
    if not problems:
        report, problems = gate.parse_report(rep.stdout)
    if report is not None:
        problems = check_report(run, report, expected)
    if not run.record("report", problems) and report is None:
        return None
    paths = []
    for i, verdict in enumerate(report["verdicts"]):
        paths.append(work / f"verdict{i}.json")
        paths[-1].write_text(json.dumps(verdict), encoding="utf-8")
    certify_s = scaled_s = 0.0
    probes = [between]
    for path in paths:
        cert = Child(run, "certify", famart_argv("certify", str(model), str(path)), work / "certify.out")
        probes.append(probe())
        certify_s += cert.wall_s
        scaled_s += cert.wall_s * host_factor(*probes[-2:])
        run.record(f"certify {path.name}", cert.problems() or gate.check_certify_output(cert.returncode, cert.stdout))
    return {
        "report_s": rep.wall_s,
        "cpu_s": rep.cpu_s,
        "rss_mb": rep.rss_mb,
        "certify_s": certify_s,
        "report_f": host_factor(before, between),
        "certify_f": scaled_s / certify_s if certify_s else 1.0,
    }


def keep_going(run: Run, op_s: list[float], t_start: float, seconds: float) -> bool:
    """Another op fits in ``seconds`` at the mean op time so far."""
    now = time.perf_counter()
    if now - run.t0 >= HARD_DEADLINE_S:
        return False
    return len(op_s) < MIN_OPS or now - t_start + statistics.fmean(op_s) <= seconds


def timed_cli(run: Run, seconds: float, work: Path) -> tuple[dict[str, float], dict[str, int]]:
    model, setup_s = setup(run, work)
    expected = expectations()[run.workload]
    op_s: list[float] = []
    t_start = time.perf_counter()
    while keep_going(run, op_s, t_start, seconds):
        t = time.perf_counter()
        row = cli_op(run, model, expected, work)
        op_s.append(time.perf_counter() - t)
        if row is not None:
            run.ops.append(row)
    if not run.ops:
        raise SystemExit("no report succeeded")
    # A corpus of one model: its median times are the percentiles.
    report_ms = [scaled_median(run.ops, "report_s", "report_f") * 1e3]
    certify_ms = [scaled_median(run.ops, "certify_s", "certify_f") * 1e3]
    rss_mb = max(op["rss_mb"] for op in run.ops)
    return end_to_end(run, report_ms, certify_ms, rss_mb, setup_s)


def scaled_median(ops: list[dict[str, float]], key: str, factor: str) -> float:
    return statistics.median(op[key] * op[factor] for op in ops)


def end_to_end(
    run: Run, report_ms: list[float], certify_ms: list[float], rss_mb: float, setup_s: float
) -> tuple[dict[str, float], dict[str, int]]:
    """End-to-end metrics from the run's ops and each model's median
    scaled report and certify times; returns them with sample counts."""

    def p95(xs: list[float]) -> float:
        return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=20)[18]

    op_s = statistics.median(op["report_s"] * op["report_f"] + op["certify_s"] * op["certify_f"] for op in run.ops)
    metrics = {
        "report_s_p50": scaled_median(run.ops, "report_s", "report_f"),
        "report_cpu_s_p50": scaled_median(run.ops, "cpu_s", "report_f"),
        "report_rss_mb": rss_mb,
        "certify_s_p50": scaled_median(run.ops, "certify_s", "certify_f"),
        "models_per_s": len(report_ms) / op_s,
        "model_report_ms_p50": statistics.median(report_ms),
        "model_report_ms_p95": p95(report_ms),
        "model_certify_ms_p50": statistics.median(certify_ms),
        "model_certify_ms_p95": p95(certify_ms),
        "setup_s": setup_s,
    }
    samples = {name: len(run.ops) for name in metrics}
    samples.update({name: len(report_ms) for name in metrics if name.startswith("model_")})
    samples["setup_s"] = SETUP_REPS
    return metrics, samples


# --------------------------------------------------------------------------
# fuzz-corpus: in process, through the library API
# --------------------------------------------------------------------------


def fuzz_model(run: Run, model_seed: int, text: str, digests: list[str], tracer=None) -> dict[str, float]:
    """Report one model and re-validate its verdicts; returns the times."""
    from famart.certificates import validate_verdict
    from famart.modelio import build_report, parse_model

    span = contextlib.nullcontext
    if tracer is not None:
        span = tracer.span
        tracer.op += 1
    problems: list[str] = []
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        with run.deadline("model"):
            with span(spans.BENCH_LOAD):
                doc = parse_model(json.loads(text))
            report = build_report(doc)
            with span(spans.BENCH_EMIT):
                blob = json.dumps(report)
    except OpTimeout:
        problems = ["timeout"]
    except Exception as exc:  # any error is a failed op, reported below
        problems = [f"report raised {exc!r}"]
    t1, c1 = time.perf_counter(), time.process_time()
    times = {"report_s": t1 - t0, "cpu_s": c1 - c0, "certify_s": 0.0, "bytes": 0, "cert_bytes": 0}
    if problems:
        run.record(f"report model {model_seed}", problems)
        return times
    valid, parsed, invalid = [], None, []
    t1 = time.perf_counter()
    try:
        with run.deadline("model"):
            parsed = json.loads(blob)
            valid = [validate_verdict(doc.model, doc.lin_space, v, doc.extras()) for v in parsed["verdicts"]]
    except OpTimeout:
        invalid = ["timeout"]
    except Exception as exc:  # any error is a failed op, reported below
        invalid = [f"validation raised {exc!r}"]
    times["certify_s"] = time.perf_counter() - t1
    if not invalid and not all(valid):
        invalid = ["a certificate did not re-validate"]
    parsed = parsed or json.loads(blob)
    problems += gate.facts_fuzz(parsed)
    if gate.fuzz_digest(parsed) != digests[model_seed]:
        problems.append(f"verdicts {gate.verdict_vector(parsed)} or c* differ from the record")
    run.record(f"report model {model_seed}", problems)
    run.record(f"certify model {model_seed}", invalid)
    times["bytes"] = len(blob)
    times["cert_bytes"] = sum(len(json.dumps(v["certificate"])) for v in parsed["verdicts"])
    return times


def fuzz_pass(run: Run, corpus: list[list], digests: list[str], tracer=None) -> list[dict[str, float]]:
    return [fuzz_model(run, s, text, digests, tracer) for s, text in corpus]


def timed_fuzz(run: Run, seconds: float, work: Path) -> tuple[dict[str, float], dict[str, int]]:
    path, setup_s = setup(run, work)
    import famart.modelio  # noqa: F401  (the import is set-up, as in a CLI start)

    corpus = json.loads(path.read_text(encoding="utf-8"))
    digests = expectations()["fuzz-corpus"]["digests"]
    passes, pass_s = [], []
    t_start = time.perf_counter()
    while keep_going(run, pass_s, t_start, seconds):
        t = time.perf_counter()
        before = probe()
        passes.append(fuzz_pass(run, corpus, digests))
        factor = host_factor(before, probe())
        pass_s.append(time.perf_counter() - t)
        op = {key: sum(m[key] for m in passes[-1]) for key in ("report_s", "cpu_s", "certify_s")}
        run.ops.append(dict(op, report_f=factor, certify_f=factor))
    factors = [op["report_f"] for op in run.ops]
    report_ms = [statistics.median(p[j]["report_s"] * f for p, f in zip(passes, factors)) * 1e3 for j in range(len(corpus))]
    certify_ms = [statistics.median(p[j]["certify_s"] * f for p, f in zip(passes, factors)) * 1e3 for j in range(len(corpus))]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return end_to_end(run, report_ms, certify_ms, rss_mb, setup_s)


# --------------------------------------------------------------------------
# Traced run
# --------------------------------------------------------------------------


def _cli_main(run: Run, kind: str, argv: list[str], tracer=None) -> tuple[int | None, str]:
    """``famart.cli.main`` in process, standard output captured."""
    import famart.cli

    if tracer is not None:
        tracer.op += 1
    buf = io.StringIO()
    try:
        with run.deadline(kind), contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = famart.cli.main(argv)
    except OpTimeout:
        return None, buf.getvalue()
    return code, buf.getvalue()


def inprocess_cli_op(run: Run, work: Path, tag: str, sizes: dict[str, int], tracer=None) -> None:
    """Set-up, report and certify of a CLI workload through ``cli.main``."""
    model = work / f"model-{tag}.json"
    code, _ = _cli_main(run, "examples", ["examples", *CLI_WORKLOADS[run.workload], "--out", str(model)], tracer)
    run.record("examples", [] if code == 0 else [f"examples exited {code}"])
    code, text = _cli_main(run, "report", ["report", str(model)], tracer)
    report, problems = gate.parse_report(text) if code == 0 else (None, [f"report exited {code}"])
    if report is not None:
        problems = check_report(run, report, expectations()[run.workload])
    run.record("report", problems)
    if report is None:
        return
    sizes["cli.report_bytes"] = len(text.encode("utf-8"))
    sizes["certificates.cert_bytes"] = sum(len(json.dumps(v["certificate"])) for v in report["verdicts"])
    for i, verdict in enumerate(report["verdicts"]):
        path = work / f"verdict-{tag}-{i}.json"
        path.write_text(json.dumps(verdict), encoding="utf-8")
        code, out = _cli_main(run, "certify", ["certify", str(model), str(path)], tracer)
        run.record(f"certify {path.name}", gate.check_certify_output(code, out))


def inprocess_fuzz_op(run: Run, work: Path, tag: str, sizes: dict[str, int], tracer=None) -> None:
    """Set-up and one pass over the corpus, in process."""
    from corpus import build_corpus

    corpus = build_corpus(run.seed)
    rows = fuzz_pass(run, corpus, expectations()["fuzz-corpus"]["digests"], tracer)
    sizes["cli.report_bytes"] = sum(r["bytes"] for r in rows)
    sizes["certificates.cert_bytes"] = sum(r["cert_bytes"] for r in rows)


def startup_s(run: Run, work: Path) -> float:
    argv = [sys.executable, "-c", "import famart.cli"]
    times = []
    for _ in range(STARTUP_REPS):
        child = Child(run, "examples", argv, work / "startup.out")
        run.record("import famart.cli", child.problems())
        times.append(child.wall_s)
    return statistics.median(times)


def traced(run: Run, work: Path) -> tuple[dict[str, float], dict[str, int]]:
    import famart.cli  # noqa: F401  (loads every famart module to wrap)

    op = inprocess_fuzz_op if run.workload == "fuzz-corpus" else inprocess_cli_op
    sizes: dict[str, int] = {}
    op(run, work, "warm", sizes)  # the first op in a process pays one-time costs
    t = time.perf_counter()
    op(run, work, "plain", sizes)
    plain_s = time.perf_counter() - t

    tracer = spans.Tracer()
    t = time.perf_counter()
    with tracer.installed():
        op(run, work, "traced", sizes, tracer)
    traced_s = time.perf_counter() - t

    metrics = {"cli.startup_s": startup_s(run, work)}
    metrics.update(spans.layer_metrics(tracer))
    metrics.update(sizes)
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace-{run.workload}-seed{run.seed}.json").write_text(json.dumps(tracer.spans))
    samples = {name: 1 for name in metrics}
    samples["cli.startup_s"] = STARTUP_REPS
    return metrics, samples


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------


def environment(run: Run) -> dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "famart").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": run.loadavg_start,
        "loadavg_end": list(os.getloadavg()),
        "famart_commit": commit,
        "famart_src_sha256": src.hexdigest(),
        "workload": run.workload,
        "seed": run.seed,
    }


def units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run reports, from ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    run = Run(workload, seed)
    work = WORK / f"{os.getpid()}-{workload}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics, samples = traced(run, work)
        elif workload == "fuzz-corpus":
            metrics, samples = timed_fuzz(run, seconds, work)
        else:
            metrics, samples = timed_cli(run, seconds, work)
    finally:
        for path in work.iterdir():
            path.unlink()
        work.rmdir()
        with contextlib.suppress(OSError):  # another run may still use it
            WORK.rmdir()
    unit = units(trace)
    if set(metrics) != set(unit):
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(unit))}")
    env = environment(run)
    print(f"# {workload} seed={seed} trace={int(trace)} env={json.dumps(env)}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {unit[name]} (n={samples[name]})")
    print(f"fail_ratio = {len(run.failures) / run.attempted:.6g} ({len(run.failures)} of {run.attempted} ops failed)")
    for failure in run.failures[:20]:
        print(f"FAILED {failure}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, environment=env, samples=samples, failures=run.failures, ops=run.ops)
    (OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="famart benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "famart" / "cli.py").is_file():
        print(f"no famart sources under {SRC}: run from a famart checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names}
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
