"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they are produced.  Every check is exact (tolerance zero).

Criterion 2 states the surviving-set market's missing ratio bound (5) in
its finite-truncation form.  On any fixed truncation the market contains
no nonzero nonnegative gain (shown by induction over the states, see the
note inside the test), so the least bound c* is finite and its
certificate validates.  The failure of (5) belongs to the countable
market: the last generator of truncation k has ratio
ess sup(X) / ess sup(-X) = (k+1)(k+3), a lower bound for c*, so c*
exceeds every fixed bound as k grows.  The criterion asserts the finite
c*, the certificate, the witness ratio and the growth along a ladder.
"""

import contextlib
import json
import random
from fractions import Fraction as F

from famart import checkers
from famart.certificates import validate_verdict
from famart.cli import main as cli_main
from famart.core import LinSpace, Model, RandVar, ess_sup, expect, rat_str
from famart.fap import Fap, from_p0, is_equivalent
from famart.examples import (
    dmw_martingale_fap,
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
    serialize_model,
)
from famart.lp import LinearProgram, Optimal, dual_objective, solve, verify_outcome
from famart.spaces import trading_space

from references import acmfap_holds, cstar_of, no_arbitrage_holds, ratio_sweep

FUZZ_SEEDS = tuple(range(200))


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    print(f"PASS criterion {number}: {label}")


def _bp(n_states, k):
    m, f, s, q = example_bp(n_states, k)
    return m, trading_space(f, s, m), q


def _dmw(p, n):
    m, f, s = example_dmw(p, n)
    return m, trading_space(f, s, m)


def test_criterion_1_bp_reproduction():
    with criterion(1, "surviving-set market reproduction at every truncation"):
        rng = random.Random(1001)
        for n_states in range(8, 21):
            k = n_states - 4
            m, ls, q = _bp(n_states, k)
            assert len(ls.basis) == k + 1

            # Exact tail-set identity for every generator index.
            for j in range(k + 1):
                w = j + 1
                q_tail_set = sum(q.ca_mass[w:], F(0)) + q.ca_tail
                assert (w * w + 2 * w) * q.ca_mass[j] - q_tail_set == 1

            # Closed-form pricing of arbitrary combinations.
            for _ in range(100):
                b = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(k + 1)]
                closed_form = sum(
                    (bj / F(2 ** (j + 1)) for j, bj in enumerate(b)), F(0)
                )
                assert expect(q, ls.combine(b)) == closed_form

            v3 = checkers.verify_condition3(m, ls, q, 1)
            assert v3.holds

            emfap = checkers.find_emfap(m, ls)
            assert emfap.holds
            assert F(emfap.certificate["minimum_weight"]) > 0
            fap = Fap(
                F(emfap.certificate["fap"]["alpha"]),
                tuple(F(x) for x in emfap.certificate["fap"]["mass"]),
                F(emfap.certificate["fap"]["tail"]),
            )
            assert is_equivalent(fap, m)
            assert fap.alpha < 1


def test_criterion_2_bp_negative_facts():
    with criterion(2, "surviving-set market negative facts"):
        m, ls, _ = _bp(8, 4)

        v8 = checkers.check_condition8(m, ls)
        assert not v8.holds
        assert v8.certificate["values"] == [
            rat_str(F(-1, 2 ** (j + 1))) for j in range(5)
        ]

        # (5) on a fixed truncation.  No nonzero combination is
        # nonnegative on the support: the first state forces b_0 >= 0,
        # each next state then forces b_{j} >= 0, and the surviving-set
        # value -(sum b_j / 2^(j+1)) >= 0 forces them all to zero.  Hence
        # every ratio program is bounded and the least bound is finite.
        v5 = ratio_sweep(m, ls)
        assert v5.holds, "no finite ratio bound on a fixed truncation"
        cstar = F(v5.certificate["value"])
        assert validate_verdict(m, ls, v5.to_dict())
        assert cstar >= _last_generator_ratio(m, ls, 4)

        # (5) fails on the countable market: the witness ratio
        # (k+1)(k+3) of the last generator bounds c* from below and
        # exceeds every fixed bound as the truncation grows.
        previous = None
        for n_states in (8, 12, 16, 20):
            k = n_states - 4
            m, ls, _ = _bp(n_states, k)
            ratio = _last_generator_ratio(m, ls, k)
            assert ratio == (k + 1) * (k + 3)
            cstar = cstar_of(m, ls)
            assert cstar is not None and cstar >= ratio, (k, cstar, ratio)
            assert previous is None or cstar > previous, (k, previous, cstar)
            previous = cstar


def _last_generator_ratio(m, ls, k):
    """ess sup(X) / ess sup(-X) of the last generator, by plain arithmetic.

    Generator t is 2^-(t+1) times (t+1)(t+3) on state t+1 and -1 on every
    later state and the tail, so the ratio is (t+1)(t+3).
    """
    assert len(ls.basis) == k + 1
    x = ls.basis[k]
    return ess_sup(x, m) / ess_sup(x.negated(), m)


def _exact_rank(rows):
    """Row rank over the rationals by plain Gaussian elimination."""
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def _pascal_pmf(n, p):
    """Binomial masses via Pascal's triangle; independent of math.comb."""
    coeffs = [F(1)]
    for _ in range(n):
        coeffs = [F(1)] + [coeffs[i] + coeffs[i + 1] for i in range(len(coeffs) - 1)] + [F(1)]
    return [c * p**k * (1 - p) ** (n - k) for k, c in enumerate(coeffs)]


def test_criterion_3_dmw_finite_horizon():
    with criterion(3, "biased-coin market at finite horizons"):
        for n in range(2, 7):
            m, ls = _dmw(F(1, 3), n)
            fair = dmw_martingale_fap(n)
            assert fair.ca_mass == (F(1, 2**n),) * 2**n
            for x in ls.basis:
                assert expect(fair, x) == 0

            # Uniqueness: the equality system (total mass, one zero
            # expectation per generator) has full column rank, and the
            # fair-coin point is strictly positive, so the martingale
            # polytope is that single point.
            system = [[F(1)] * 2**n]
            for x in ls.basis:
                system.append(list(x.values))
            assert _exact_rank(system) == 2**n

            emfap = checkers.find_emfap(m, ls)
            assert emfap.holds
            assert emfap.certificate["fap"]["mass"] == [rat_str(F(1, 2**n))] * 2**n

            assert checkers.check_no_arbitrage(m, ls).holds

        rows = checkers.divergence_study(F(1, 3), [10, 20, 40])
        for row in rows:
            assert isinstance(row.tv_distance, F)
            pascal = _pascal_pmf(row.horizon, F(1, 3))
            fair_pmf = _pascal_pmf(row.horizon, F(1, 2))
            tv = sum((abs(a - b) for a, b in zip(pascal, fair_pmf)), F(0)) / 2
            assert row.tv_distance == tv
        assert rows[0].tv_distance < rows[1].tv_distance < rows[2].tv_distance


def test_criterion_4_harmonic_counterexample():
    with criterion(4, "harmonic span separates the two existence conditions"):
        m, ls = example_harmonic(8)
        assert acmfap_holds(m, ls) and checkers.check_acmfap(m, ls).holds
        v6 = checkers.check_no_arbitrage(m, ls)
        assert not no_arbitrage_holds(m, ls) and not v6.holds
        gain = v6.certificate["gain"]
        assert gain["values"] == [rat_str(F(1, w)) for w in range(1, 9)]
        assert gain["tail"] == "0/1"


def test_criterion_5_finite_ftap_fuzz():
    with criterion(5, "finite fundamental theorem equivalences over 200 models"):
        for seed in FUZZ_SEEDS:
            m, ls = random_finite_model(seed)
            # (6) and (4) by their own programs: the checkers read both
            # off the (3) solve, so only these make the implications a test.
            emfap = checkers.find_emfap(m, ls).holds
            na = no_arbitrage_holds(m, ls)
            nc = checkers.check_norm_closure(m, ls).holds
            acm = acmfap_holds(m, ls)
            assert emfap == na, f"seed {seed}: equivalence broke"
            assert nc == na, f"seed {seed}: closure mirror broke"
            assert (not emfap) or na
            assert (not na) or acm


def test_criterion_6_bridge_from_ratio_bound():
    with criterion(6, "finite ratio bound bridges to the expectation bound"):
        checked = 0
        for seed in FUZZ_SEEDS:
            m, ls = random_finite_model(seed)
            if any(x == 0 for x in m.p0_mass):
                continue
            cstar = cstar_of(m, ls)
            if cstar is None:
                continue
            assert cstar > 0
            v = checkers.verify_condition3(m, ls, from_p0(m), 1 / cstar)
            assert v.holds, f"seed {seed}"
            checked += 1
        assert checked >= 20  # the sweep must actually exercise the bridge


def test_criterion_7_coherence():
    with criterion(7, "coherence representation and sure-loss detection"):
        rng = random.Random(7007)
        for _ in range(100):
            m, ls = random_finite_model(rng.randrange(1_000_000))
            weights = [
                rng.randint(0, 5) if m.p0_mass[i] > 0 else 0
                for i in range(m.n_states)
            ]
            if sum(weights) == 0:
                weights[m.charged_states()[0]] = 1
            total = sum(weights)
            p = Fap(F(0), tuple(F(w, total) for w in weights))
            previsions = [expect(p, x) for x in ls.basis]
            v = checkers.check_coherence(ls.basis, previsions, m)
            assert v.holds
            assert v.certificate["kind"] == "representing_fap"
            assert validate_verdict(m, ls, v.to_dict(), {"previsions": previsions})

        for _ in range(40):
            m, ls = random_finite_model(rng.randrange(1_000_000))
            x = ls.basis[0]
            top = max(x.at(c) for c in checkers.coherence_coords(m))
            v = checkers.check_coherence([x], [top + 1], m)
            assert not v.holds
            assert v.certificate["kind"] == "sure_loss_bet"
            assert validate_verdict(
                m, LinSpace((x,)), v.to_dict(), {"previsions": [top + 1]}
            )


# -- criterion 8: certificate soundness ---------------------------------------


def _emitted_certificates():
    """Deterministically regenerate the certificates the other criteria emit.

    Yields (model, space, verdict dict, extras, file extras) tuples; the
    file extras are the previsions/events blocks a model file would carry
    so the command line check sees the same context.
    """
    m, ls, q = _bp(8, 4)
    yield m, ls, checkers.find_emfap(m, ls).to_dict(), {}, {}
    yield m, ls, checkers.verify_condition3(m, ls, q, 1).to_dict(), {"q": q, "c": 1}, {}
    yield m, ls, checkers.check_condition8(m, ls).to_dict(), {}, {}
    yield m, ls, ratio_sweep(m, ls).to_dict(), {}, {}
    yield m, ls, checkers.check_no_arbitrage(m, ls).to_dict(), {}, {}

    for n in (2, 3):
        m, ls = _dmw(F(1, 3), n)
        yield m, ls, checkers.find_emfap(m, ls).to_dict(), {}, {}
        yield m, ls, checkers.check_no_arbitrage(m, ls).to_dict(), {}, {}

    m, ls = example_harmonic(6)
    yield m, ls, checkers.check_no_arbitrage(m, ls).to_dict(), {}, {}
    yield m, ls, checkers.check_acmfap(m, ls).to_dict(), {}, {}
    yield m, ls, checkers.find_emfap(m, ls).to_dict(), {}, {}

    for seed in range(0, 60):
        m, ls = random_finite_model(seed)
        yield m, ls, checkers.check_no_arbitrage(m, ls).to_dict(), {}, {}
        yield m, ls, checkers.find_emfap(m, ls).to_dict(), {}, {}
        yield m, ls, checkers.check_acmfap(m, ls).to_dict(), {}, {}

    bridged = 0
    for seed in FUZZ_SEEDS:
        if bridged >= 10:
            break
        m, ls = random_finite_model(seed)
        if any(x == 0 for x in m.p0_mass):
            continue
        cstar = cstar_of(m, ls)
        if cstar is None:
            continue
        yield m, ls, ratio_sweep(m, ls).to_dict(), {}, {}
        v = checkers.verify_condition3(m, ls, from_p0(m), 1 / cstar)
        yield m, ls, v.to_dict(), {"q": from_p0(m), "c": 1 / cstar}, {}
        bridged += 1

    rng = random.Random(8088)
    for _ in range(10):
        m, ls = random_finite_model(rng.randrange(1_000_000))
        weights = [
            rng.randint(1, 5) if m.p0_mass[i] > 0 else 0 for i in range(m.n_states)
        ]
        total = sum(weights)
        p = Fap(F(0), tuple(F(w, total) for w in weights))
        previsions = [expect(p, x) for x in ls.basis]
        v = checkers.check_coherence(ls.basis, previsions, m)
        extras = {"previsions": previsions}
        file_extras = {"previsions": previsions}
        yield m, ls, v.to_dict(), extras, file_extras

        x = ls.basis[0]
        top = max(x.at(c) for c in checkers.coherence_coords(m))
        single = LinSpace((x,))
        v = checkers.check_coherence([x], [top + 1], m)
        yield m, single, v.to_dict(), {"previsions": [top + 1]}, {
            "previsions": [top + 1]
        }

    m = Model((F(1, 2), F(1, 4), F(1, 4)))
    ls = LinSpace((RandVar((F(1), F(0), F(0))),))
    events = [(0, 1, 2), (0, 1)]
    v = checkers.check_event_dominance(ls, [F(1, 3)], events, m)
    yield m, ls, v.to_dict(), {"previsions": [F(1, 3)], "events": events}, {
        "previsions": [F(1, 3)],
        "events": events,
    }
    v = checkers.check_event_dominance(ls, [F(1)], [(1,)], m)
    yield m, ls, v.to_dict(), {"previsions": [F(1)], "events": [(1,)]}, {
        "previsions": [F(1)],
        "events": [(1,)],
    }


def _mutations(payload):
    """Every single-coordinate perturbation of a rational leaf (+1)."""

    def walk(node, path):
        if isinstance(node, dict):
            for key, val in node.items():
                yield from walk(val, path + [key])
        elif isinstance(node, list):
            for i, val in enumerate(node):
                yield from walk(val, path + [i])
        elif isinstance(node, str) and "/" in node:
            try:
                value = F(node)
            except (ValueError, ZeroDivisionError):
                return
            yield path, rat_str(value + 1)

    for path, new_value in walk(payload, []):
        clone = json.loads(json.dumps(payload))
        target = clone
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = new_value
        yield path, clone


def test_criterion_8_certificate_soundness(tmp_path):
    with criterion(8, "all emitted certificates certify; all tampered ones fail"):
        emitted = list(_emitted_certificates())
        assert len(emitted) >= 200
        mutations_checked = 0
        for idx, (m, ls, verdict, extras, file_extras) in enumerate(emitted):
            # The genuine certificate passes the certify command.
            model_path = tmp_path / f"model_{idx}.json"
            cert_path = tmp_path / f"cert_{idx}.json"
            doc = serialize_model(m, lin_space=ls, **file_extras)
            model_path.write_text(json.dumps(doc))
            cert_path.write_text(json.dumps(verdict))
            assert cli_main(["certify", str(model_path), str(cert_path)]) == 0

            # Every single-coordinate perturbation breaks it.
            for path, mutated in _mutations(verdict["certificate"]):
                clone = dict(verdict, certificate=mutated)
                assert not validate_verdict(m, ls, clone, extras), (
                    idx,
                    verdict["condition"],
                    path,
                )
                mutations_checked += 1
        assert mutations_checked >= 1000
        print(
            f"  ({len(emitted)} certificates, {mutations_checked} mutations)"
        )


def test_criterion_9_lp_engine_roundtrip():
    with criterion(9, "500 random programs verify with exact duality"):
        rng = random.Random(424242)
        optimal_seen = 0
        for _ in range(500):
            n = rng.randint(0, 6)
            rows = []
            for _ in range(rng.randint(0, 8)):
                coeffs = tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 4))
                    if rng.random() < 0.8
                    else F(0)
                    for _ in range(n)
                )
                rows.append(
                    (
                        coeffs,
                        rng.choice(("<=", "=", ">=")),
                        F(rng.randint(-6, 6), rng.randint(1, 4)),
                    )
                )
            lower, upper = [], []
            for _ in range(n):
                lo = (
                    F(rng.randint(-6, 6), rng.randint(1, 4))
                    if rng.random() < 0.5
                    else None
                )
                hi = (
                    F(rng.randint(-6, 6), rng.randint(1, 4))
                    if rng.random() < 0.5
                    else None
                )
                if lo is not None and hi is not None and lo > hi:
                    lo, hi = hi, lo
                lower.append(lo)
                upper.append(hi)
            lp = LinearProgram(
                objective=tuple(
                    F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)
                ),
                maximize=rng.random() < 0.5,
                constraints=rows,
                lower=tuple(lower),
                upper=tuple(upper),
            )
            out = solve(lp)
            assert verify_outcome(lp, out)
            if isinstance(out, Optimal):
                optimal_seen += 1
                vmax = out.value if lp.maximize else -out.value
                assert dual_objective(lp, out.dual) == vmax
        assert optimal_seen >= 50
