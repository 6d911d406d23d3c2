"""Condition checkers: worked examples, error paths, cross-properties."""

import copy
import json
import pickle
import random
from collections import Counter
from itertools import combinations
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from famart import certificates, checkers, programs, render
from famart.certificates import CertificateFormat, validate_verdict
from famart.core import (
    MAX_DIGITS,
    TAIL,
    InvalidInput,
    LinSpace,
    Model,
    OversizedOutput,
    RandVar,
    constant,
    expect,
    int_row,
    rat_str,
)
from famart.examples import (
    example_bp,
    example_dmw,
    example_harmonic,
    random_finite_model,
    random_tree_model,
    serialize_model,
)
from famart.fap import Fap, from_p0, is_equivalent, support_weights
from famart.lp import (
    Infeasible,
    IntProgram,
    Unbounded,
    martingale_mass_lp,
    negative_gain_lp,
    solve,
)
from famart.modelfile import randvar_payload, rat_strs
from famart.modelio import build_report, parse_model
from famart.render import farkas_witness
from famart.spaces import trading_space

from references import (
    acmfap_holds,
    counting_solves,
    cstar_of,
    fuzz_corpus,
    no_arbitrage_holds,
    ratio_sweep,
    reference_arbitrage,
    reference_ratio_sweep,
)


def _two_state(masses=(F(1, 2), F(1, 2))):
    return Model(masses)


def _span(*vectors, tail=None):
    return LinSpace(tuple(RandVar(v, tail) for v in vectors))


def _bp(n_states=8, k=4):
    m, f, s, q = example_bp(n_states, k)
    return m, trading_space(f, s, m), q


def _dmw(p, n):
    m, f, s = example_dmw(p, n)
    return m, trading_space(f, s, m)


def _seeded_cstar_verdict(m, ls):
    """The (5) verdict as a report decides it, started from the (3) solve."""
    return checkers.cstar_verdict(m, ls, checkers.min_mass(m, ls))


# -- no-arbitrage (6) --------------------------------------------------------


def test_no_arbitrage_detects_one_sided_gain():
    m = _two_state()
    v = checkers.check_no_arbitrage(m, _span((F(1), F(0))))
    assert not v.holds
    assert v.certificate["kind"] == "arbitrage_vector"
    assert validate_verdict(m, _span((F(1), F(0))), v.to_dict())


def test_no_arbitrage_fails_on_harmonic_with_generator_as_witness():
    m, ls = example_harmonic(5)
    v = checkers.check_no_arbitrage(m, ls)
    assert not v.holds
    # The normalized certificate is exactly the generator 1/w with tail 0.
    gain = v.certificate["gain"]
    assert gain["values"] == ["1/1", "1/2", "1/3", "1/4", "1/5"]
    assert gain["tail"] == "0/1"


def test_no_arbitrage_holds_on_dmw():
    m, ls = _dmw(F(1, 3), 3)
    v = checkers.check_no_arbitrage(m, ls)
    assert v.holds
    # The (3) functional: equivalent, and killing every generator.
    assert v.certificate["kind"] == "martingale_fap"
    assert v.certificate["equivalent"] is True
    assert v.certificate == checkers.check_acmfap(m, ls).certificate
    assert validate_verdict(m, ls, v.to_dict())


def test_a_6_row_needs_an_equivalent_functional():
    # On finite-random seed 25 (3) fails with t* = 0, and (4) attaches the
    # (3) optimum: it kills every generator, but a support weight is zero,
    # so it proves (4) and not (6), whatever its stored flag says.
    m, ls = random_finite_model(25)
    cert = checkers.check_acmfap(m, ls).certificate
    assert cert["kind"] == "martingale_fap" and cert["equivalent"] is False
    for condition in ("(6)", "(10)"):
        for equivalent in (False, True):
            forged = dict(cert, equivalent=equivalent)
            row = {"condition": condition, "holds": True, "certificate": forged}
            assert not validate_verdict(m, ls, row)
    # An equivalent one proves (6) and (10), and only where they hold.
    m, ls = _dmw(F(1, 3), 2)
    cert = checkers.check_acmfap(m, ls).certificate
    for condition in ("(6)", "(10)"):
        for holds in (True, False):
            row = {"condition": condition, "holds": holds, "certificate": cert}
            assert validate_verdict(m, ls, row) == holds


def test_no_arbitrage_empty_basis_holds():
    m = _two_state()
    v = checkers.check_no_arbitrage(m, LinSpace(()))
    assert v.holds


# -- nonnegative essential supremum (4) ---------------------------------------


def test_acmfap_holds_on_harmonic():
    m, ls = example_harmonic(4)
    v = checkers.check_acmfap(m, ls)
    assert v.holds
    assert v.certificate["abs_continuous"] is True
    assert validate_verdict(m, ls, v.to_dict())


def test_acmfap_detects_negative_gain():
    m = _two_state()
    ls = _span((F(-1), F(-1)))
    v = checkers.check_acmfap(m, ls)
    assert not v.holds
    assert v.certificate["claim"] == "negative_ess_sup"
    assert validate_verdict(m, ls, v.to_dict())


def test_acmfap_holds_on_dmw():
    m, ls = _dmw(F(1, 3), 2)
    assert checkers.check_acmfap(m, ls).holds


# -- equivalent martingale functional (3) -------------------------------------


def test_find_emfap_on_bp():
    m, ls, _ = _bp(8, 4)
    v = checkers.find_emfap(m, ls)
    assert v.holds
    fap = Fap(
        F(v.certificate["fap"]["alpha"]),
        tuple(F(x) for x in v.certificate["fap"]["mass"]),
        F(v.certificate["fap"]["tail"]),
    )
    assert len(ls.basis) == 5
    for x in ls.basis:
        assert expect(fap, x) == 0
    assert is_equivalent(fap, m)
    assert fap.alpha < 1
    assert F(v.certificate["minimum_weight"]) > 0


def test_find_emfap_unique_point_on_dmw():
    m, ls = _dmw(F(1, 3), 2)
    v = checkers.find_emfap(m, ls)
    assert v.holds
    assert v.certificate["fap"]["mass"] == ["1/4", "1/4", "1/4", "1/4"]
    assert v.certificate["fap"]["alpha"] == "0/1"


def test_find_emfap_rejects_arbitrage_space():
    m = _two_state()
    ls = _span((F(1), F(0)))
    v = checkers.find_emfap(m, ls)
    assert not v.holds
    assert validate_verdict(m, ls, v.to_dict())


def test_find_emfap_fails_on_harmonic_with_zero_bound():
    m, ls = example_harmonic(4)
    v = checkers.find_emfap(m, ls)
    assert not v.holds
    assert v.certificate["claim"] == "max_at_most"
    assert F(v.certificate["bound_value"]) == 0  # best minimum weight is 0
    assert validate_verdict(m, ls, v.to_dict())


def test_find_emfap_empty_basis_returns_reference():
    m = _two_state()
    v = checkers.find_emfap(m, LinSpace(()))
    assert v.holds
    assert v.certificate["fap"]["mass"] == ["1/2", "1/2"]


# -- what the (3) decision keeps for the other rows ----------------------------


def _pinned_tail_model():
    # The tail model whose report test_modelio.py pins: state 2 is
    # uncharged, and (3) holds with a pure part.
    m = Model((F(1, 2), F(1, 4), F(0)), F(1, 4))
    ls = LinSpace((RandVar((F(1), F(-1), F(5)), F(0)), RandVar((F(1), F(1), F(2)), F(-2))))
    return m, ls


def _row_weights(m, ls):
    """The Farkas or dual weights of the (3) program's rows."""
    out = solve(martingale_mass_lp(m, ls))
    return out.farkas if isinstance(out, Infeasible) else out.dual


def test_integer_arbitrage_equals_the_fraction_one():
    models = [random_finite_model(seed) for seed in range(2000)]
    models += [example_harmonic(n) for n in range(3, 11)]
    models.append(_pinned_tail_model())
    seen = {"infeasible": 0, "max_at_most": 0, "tail": 0, "sure_loss": 0}
    for m, ls in models:
        mm = checkers.min_mass(m, ls)
        if mm.verdict.holds:
            continue
        coeffs, gain = reference_arbitrage(m, ls, _row_weights(m, ls))
        assert mm.coefficients == coeffs
        assert mm.gain == gain  # values and tail
        seen[mm.verdict.certificate["claim"]] += 1
        seen["tail"] += m.has_tail
        if mm.fap is not None:  # t* = 0: (4), (7) and coherence hold
            continue
        # The failing (7) and coherence rows stake the arbitrage, which
        # wins its least value on their coordinates, summed here plainly.
        zeros = (F(0),) * len(ls.basis)
        for coords, row in (
            (m.support(), checkers.check_event_dominance(ls, zeros, [m.support()], m, mm)),
            (programs.coherence_coords(m), checkers.check_coherence(ls.basis, zeros, m, mm)),
        ):
            assert not row.holds
            win = min(sum(c * x.at(coord) for c, x in zip(coeffs, ls.basis)) for coord in coords)
            cert = row.certificate
            if row.condition == "(7)":
                against = tuple(-c for c in coeffs)
                assert cert["coefficients"] == rat_strs(against)
                assert cert["amount"] == rat_str(-win)
                assert cert["gain"] == randvar_payload(ls.combine(against))
            else:
                assert cert["stakes"] == rat_strs(coeffs)
                assert cert["guaranteed_win"] == rat_str(win)
                seen["sure_loss"] += 1
    assert min(seen.values()) > 0, seen


def _by_value(kept):
    """A ``MinMass.int_form()`` with its gain's integers read as ``Fraction``s."""
    gain, payload = kept
    if gain is not None:
        cs, values, den, tail = gain
        gain = [F(n, den) for n in cs], [F(n, den) for n in values], tail
    return gain, payload


def test_a_copy_of_the_3_decision_reads_off_the_integers_its_view_keeps():
    # The min-mass program's decision is a view keeping its gain's
    # integers and its functional's payload; a copy or an unpickled one
    # is built from the fields and reads the same values off them.
    kinds = Counter()
    for seed in range(300):
        mm = checkers.min_mass(*random_finite_model(seed))
        kept = _by_value(mm.int_form())
        for again in (copy.copy(mm), pickle.loads(pickle.dumps(mm))):
            assert not hasattr(again, "_kept") and again == mm
            assert _by_value(again.int_form()) == kept
        kinds["holding" if mm.verdict.holds else "failing" if mm.fap is None else "t* = 0"] += 1
    assert len(kinds) == 3, kinds


def test_the_failing_3_chain_renders_from_integers_as_from_fractions():
    # The arbitrage and its negation are rendered from integer numerators;
    # each payload must be the one rat_strs and randvar_payload give of
    # the Fraction values, and the least value and the sum on the support
    # the ones the Fraction gain gives.
    models = [random_finite_model(seed) for seed in range(600)]
    for seed in range(100):
        m, f, s = random_tree_model(seed)
        models.append((m, trading_space(f, s, m)))
    seen = {"failing": 0, "tail": 0, "holding": 0}
    for m, ls in models:
        mm = checkers.min_mass(m, ls)
        if mm.verdict.holds:
            assert mm.rendered is mm.least is mm.total is None
            seen["holding"] += 1
            continue
        negated = tuple(-c for c in mm.coefficients)
        assert mm.rendered == (
            (rat_strs(mm.coefficients), randvar_payload(mm.gain)),
            (rat_strs(negated), randvar_payload(mm.gain.negated())),
        )
        on_support = [mm.gain.at(c) for c in m.support()]
        assert mm.least == min(on_support) and mm.total == sum(on_support)
        assert type(mm.least) is type(mm.total) is F
        seen["failing"] += 1
        seen["tail"] += m.has_tail
    assert min(seen.values()) > 0, seen


def test_the_integer_renderer_refuses_what_rat_str_refuses():
    # Past MAX_DIGITS digits rat_str raises OversizedOutput; so does the
    # integer renderer, for a coefficient, a value or a tail value past it.
    big = 10**MAX_DIGITS  # MAX_DIGITS + 1 digits
    with pytest.raises(OversizedOutput):
        rat_str(F(big, 3))
    for coefficients, values in (([big, 1], [1]), ([1], [-big, 2]), ([1], [-1, 3 * big])):
        with pytest.raises(OversizedOutput, match=f"more than {MAX_DIGITS} digits"):
            render.signed_payloads(coefficients, values, 3, tail=True)
    # An entry is reduced before it is written, as a Fraction is: a
    # numerator past the limit whose reduced form is within it is written.
    widest, den = 10 ** (MAX_DIGITS - 1), 10**10  # widest has MAX_DIGITS digits
    pos, neg = render.signed_payloads([widest * den, -1], [0, widest], den, tail=True)
    want = [F(widest), F(-1, den)]
    assert pos == (rat_strs(want), {"values": ["0/1"], "tail": rat_str(F(widest, den))})
    assert neg == (
        rat_strs([-x for x in want]),
        {"values": ["0/1"], "tail": rat_str(F(-widest, den))},
    )


def test_min_mass_keeps_the_support_weights_of_its_functional():
    tree = [_bp(8, 4)[:2], _dmw(F(1, 3), 3)]
    for seed in range(100):
        m, f, s = random_tree_model(seed)
        tree.append((m, trading_space(f, s, m)))
    paths = {
        "tree": [(m, ls) for m, ls in tree if checkers.tree_min_mass(m, ls) is not None],
        "lp": [random_finite_model(seed) for seed in range(200)] + [_pinned_tail_model()],
        "t* = 0": [random_finite_model(seed) for seed in (25, 83, 136, 182, 196)],
        "empty basis": [
            (_two_state(), LinSpace(())),
            (Model((F(1, 2), F(0)), F(1, 2)), LinSpace(())),
        ],
    }
    seen = dict.fromkeys(paths, 0)
    for path, models in paths.items():
        for m, ls in models:
            mm = checkers.min_mass(m, ls)
            if path == "t* = 0":
                assert not mm.verdict.holds and mm.fap is not None
            if mm.fap is None:
                assert mm.weights is None
                continue
            q = support_weights(m, mm.fap)
            assert mm.weights == tuple(q[c] for c in m.support())
            seen[path] += 1
    assert len(paths["tree"]) >= 40 and min(seen.values()) > 0, seen


def test_a_holding_4_shares_the_3_functional_payload():
    for m, ls in [_bp(8, 4)[:2], _pinned_tail_model(), random_finite_model(5)]:
        mm = checkers.min_mass(m, ls)
        assert mm.verdict.holds
        acm = checkers.acmfap_from(m, mm)
        assert acm.certificate["fap"] is mm.verdict.certificate["fap"]
        assert acm.certificate == render.martingale_fap(m, mm.fap, equivalent=True)
        assert validate_verdict(m, ls, acm.to_dict())


def test_a_failing_3_at_t_star_0_renders_its_functional_once(monkeypatch):
    # Where (3) fails with t* = 0, the optimum's functional holds (4), (7)
    # and coherence.  With no pure part the three rows carry the one
    # payload the (3) decision rendered, and the report's audit reads it
    # once; each row is the one it would render by itself.
    functional, audited, seen = certificates._functional, [], 0
    monkeypatch.setattr(
        certificates, "_functional", lambda d, m: audited.append(d) or functional(d, m)
    )
    for seed in range(600):
        m, ls = random_finite_model(seed)
        mm = checkers.min_mass(m, ls)
        if mm.verdict.holds or mm.fap is None:
            continue
        audited.clear()
        doc = json.loads(json.dumps(serialize_model(m, lin_space=ls)))
        report = build_report(parse_model(doc))
        rows = {row["condition"]: row["certificate"] for row in report["verdicts"]}
        shared = rows["(4)"]["fap"]
        assert shared == render.fap_payload(mm.fap) and not mm.fap.alpha
        assert rows["(7)"]["fap"] is shared and rows["coherence"]["fap"] is shared
        assert len(audited) == 1
        seen += 1
    assert seen == 11


# -- explicit expectation bound (3) -------------------------------------------


def test_condition3_on_bp_with_unit_constant():
    m, ls, q = _bp(8, 4)
    v = checkers.verify_condition3(m, ls, q, 1)
    assert v.holds
    assert validate_verdict(m, ls, v.to_dict(), {"q": q, "c": 1})


def test_condition3_symmetric_two_state():
    m = _two_state()
    ls = _span((F(1), F(-1)))
    v = checkers.verify_condition3(m, ls, from_p0(m), 1)
    assert v.holds


def test_condition3_fails_against_arbitrage():
    m = _two_state()
    ls = _span((F(1), F(0)))
    v = checkers.verify_condition3(m, ls, from_p0(m), F(1, 2))
    assert not v.holds
    assert v.certificate["claim"] == "expectation_bound_violated"
    assert validate_verdict(m, ls, v.to_dict(), {"q": from_p0(m), "c": F(1, 2)})


def test_condition3_input_validation():
    m = _two_state()
    ls = _span((F(1), F(-1)))
    with pytest.raises(InvalidInput):
        checkers.verify_condition3(m, ls, from_p0(m), 0)
    with pytest.raises(InvalidInput):
        checkers.verify_condition3(m, ls, Fap(F(0), (F(1), F(0))), 1)
    m2, _, _ = _bp(4, 1)
    with pytest.raises(InvalidInput):  # pure part not allowed for Q
        checkers.verify_condition3(
            m2,
            LinSpace(()),
            Fap(F(1, 2), (F(1, 2), F(1, 4), F(1, 8), F(1, 16)), F(1, 16)),
            1,
        )


# -- ratio bound (5) -----------------------------------------------------------


def test_cstar_symmetric_pair_is_one():
    m = _two_state()
    assert cstar_of(m, _span((F(1), F(-1)))) == 1


def test_cstar_infinite_on_arbitrage_direction():
    m = _two_state()
    assert cstar_of(m, _span((F(1), F(0)))) is None
    v = ratio_sweep(m, _span((F(1), F(0))))
    assert not v.holds
    assert v.certificate["claim"] == "nonnegative_direction"
    assert validate_verdict(m, _span((F(1), F(0))), v.to_dict())


def test_cstar_trivial_space_is_zero():
    m = _two_state()
    assert cstar_of(m, LinSpace(())) == 0


def test_cstar_on_bp_truncations_is_finite_and_grows():
    # On any fixed truncation the trading space has no nonzero nonnegative
    # gain (each ratio program is bounded), so the bound is finite; it
    # diverges along the truncation scale instead.  The n_states=3, k=1
    # value is frozen from a by-hand optimum of the two ratio programs.
    m, ls, _ = _bp(3, 1)
    assert cstar_of(m, ls) == 11
    values = []
    for n_states, k in ((4, 1), (5, 2), (6, 3)):
        m, ls, _ = _bp(n_states, k)
        c = cstar_of(m, ls)
        assert c is not None
        values.append(c)
    assert values[0] < values[1] < values[2]


def test_cstar_verdict_certificate_validates():
    m, ls, _ = _bp(5, 2)
    for v in (_seeded_cstar_verdict(m, ls), ratio_sweep(m, ls)):
        assert v.holds
        assert validate_verdict(m, ls, v.to_dict())


def test_cstar_cover_checks_each_pmf_and_the_bound():
    m, ls, _ = _bp(5, 2)
    verdict = ratio_sweep(m, ls).to_dict()
    cert = verdict["certificate"]
    cover = [[F(w) for w in q] for q in cert["cover"]]
    q1 = cover[0]
    q2 = next(q for q in cover if q != q1)
    # Each extra vector fails exactly one check: nonnegativity, total
    # mass one, or killing every generator.
    extras = [
        [a + 10 * (a - b) for a, b in zip(q1, q2)],
        [2 * a for a in q1],
        [F(int(i == 0)) for i in range(len(q1))],
    ]
    assert min(extras[0]) < 0
    for extra in extras:
        bad = dict(cert, cover=cert["cover"] + [[str(w) for w in extra]])
        assert not validate_verdict(m, ls, dict(verdict, certificate=bad))
    # The zero gain with the genuine cover understates c*.
    zeros = (0,) * len(ls.basis), (0,) * len(m.all_coords()), 1, 0
    low = render.cstar_bound(F(0), zeros, [int_row(q) for q in cover], m.has_tail)
    assert not validate_verdict(m, ls, dict(verdict, certificate=low))
    assert validate_verdict(m, ls, verdict)


@pytest.mark.parametrize(
    "example, most_solves",
    [(lambda: _bp(40, 38)[:2], 3), (lambda: _dmw(F(1, 3), 5), 1)],
    ids=["bp-40-38", "dmw-5"],
)
def test_cstar_sweep_solves_few_programs(monkeypatch, example, most_solves):
    # One ratio program per support coordinate took 41 solves on bp and 32
    # on dmw; the sweep stops once its pmfs cover every coordinate.  A
    # solve may find a pmf the cover already holds (on bp the third solve
    # repeats an earlier one); the cover stores it once.
    m, ls = example()
    calls = counting_solves(monkeypatch)
    v = ratio_sweep(m, ls)
    assert v.holds
    assert 1 <= len(calls) <= most_solves
    cover = v.certificate["cover"]
    assert len({tuple(q) for q in cover}) == len(cover) <= len(calls)
    assert validate_verdict(m, ls, v.to_dict())


def test_cstar_cover_holds_no_repeated_pmf():
    # bp N=5 k=2 re-solves a coordinate whose pmf is already in the cover.
    # A sweep started from the cover another sweep found solves at least
    # once, since it has no gain yet, and mostly finds a pmf it holds: the
    # sweep knows a pmf by its (numerators, denominator) pair in lowest
    # terms, and a pmf read off a solve without reducing it would not
    # match and be appended again.
    models = [_bp(5, 2)[:2]] + [random_finite_model(seed) for seed in range(400)]
    refound = 0
    for m, ls in models:
        v = ratio_sweep(m, ls)
        if v.holds:
            cover = v.certificate["cover"]
            assert len({tuple(q) for q in cover}) == len(cover)
            start = [int_row([F(w) for w in q]) for q in cover]
            again = checkers._ratio_sweep(m, ls, list(start), []).certificate["cover"]
            assert len({tuple(q) for q in again}) == len(again)
            refound += len(again) == len(start)
    assert refound > 50


def test_the_report_cover_never_holds_a_pmf_twice(monkeypatch):
    # The report's sweep starts from the (3) pmf, and on these models some
    # of its steps find a pmf the cover already holds (see
    # test_cstar_cover_holds_no_repeated_pmf).  Each step, and the holding
    # (3) decision before them, combines one gain.
    steps, combined = [], checkers._combined
    monkeypatch.setattr(checkers, "_combined", lambda *a: steps.append(a) or combined(*a))
    docs = [serialize_model(*random_finite_model(seed)) for seed in range(400)]
    repeats = 0
    for doc in docs + list(fuzz_corpus()):
        steps.clear()
        report = build_report(parse_model(json.loads(json.dumps(doc))))
        cert = {row["condition"]: row for row in report["verdicts"]}["(5)"]["certificate"]
        if cert["kind"] != "cstar_bound":
            continue
        cover = [tuple(q) for q in cert["cover"]]
        assert len(set(cover)) == len(cover)
        repeats += len(steps) - len(cover)  # the (3) pmf starts the cover
    assert repeats > 0


def _sweep_steps(monkeypatch, m, ls, seeded):
    """The (5) verdict and, per objective the sweep maximized, in order,
    whether its pmf was already in the cover and its value.

    The sweep is replayed from the outcomes it got: each step takes the
    coordinate with the least lower bound, reusing the outcome of an
    objective already maximized, and the replay checks that each
    maximized objective is the one at the coordinate it takes.
    """
    maximized = []
    reoptimizer = checkers.reoptimizer

    def opening(p):
        out, maximize = reoptimizer(p)
        maximized.append((tuple(F(c, p.den) for c in p.costs), out))

        def maximizing(costs, den):
            maximized.append((tuple(F(c, den) for c in costs), maximize(costs, den)))
            return maximized[-1][1]

        return out, maximizing

    monkeypatch.setattr(checkers, "reoptimizer", opening)
    v = _seeded_cstar_verdict(m, ls) if seeded else ratio_sweep(m, ls)
    monkeypatch.undo()
    support = m.support()
    rows = [tuple(x.at(c) for x in ls.basis) for c in support]
    cover = []
    if seeded and v.holds and ls.basis:  # the (3) pmf starts the cover
        cover.append(tuple(F(w) for w in v.certificate["cover"][0]))
    lower = [max(col) for col in zip(*cover)] if cover else [F(0)] * len(support)

    def take(i, out):
        """Add coordinate i's pmf to the cover; whether it was there."""
        nonlocal lower
        pmf = tuple((int(j == i) - y) / (1 + out.value) for j, y in enumerate(out.dual))
        known = pmf in cover
        cover.append(pmf)
        lower = [max(a, b) for a, b in zip(lower, pmf)]
        return known

    solved, steps = {}, []
    for objective, out in maximized:
        i = min(range(len(support)), key=lower.__getitem__)
        while rows[i] in solved:
            take(i, solved[rows[i]])
            i = min(range(len(support)), key=lower.__getitem__)
        assert rows[i] == objective
        solved[objective] = out
        if isinstance(out, Unbounded):
            break
        steps.append((take(i, out), out.value))
    return v, steps


@pytest.mark.parametrize("seeded", [True, False], ids=["seeded", "unseeded"])
def test_cstar_sweep_solves_a_known_pmf_only_to_attain_cstar(monkeypatch, seeded):
    # A ratio solve whose pmf the cover already holds adds no lower bound;
    # the sweep makes one only when the coordinate's bound is already
    # exact but no gain yet attains it.  That solve attains c*, so it is
    # the last.  On bp N=5 k=2 the unseeded sweep's 4th solve repeats its
    # 1st pmf; started from the (3) solve, no bp or dmw model solves a
    # ratio program at all.
    models = [_bp(5, 2)[:2], _bp(8, 4)[:2], _bp(40, 38)[:2], _dmw(F(1, 3), 3), _dmw(F(1, 3), 5)]
    models += [random_finite_model(seed) for seed in range(200)]
    repeats = 0
    for n, (m, ls) in enumerate(models):
        v, steps = _sweep_steps(monkeypatch, m, ls, seeded)
        if seeded and n < 5:
            assert steps == []
        for k, (known, value) in enumerate(steps):
            if known:
                repeats += 1
                assert k == len(steps) - 1 and value == F(v.certificate["value"])
    assert repeats > 0


def test_integer_sweep_equals_the_fraction_sweep():
    # The sweep keeps its pmfs, bounds and gain values in integers; the
    # reference keeps them as Fractions.  Both starts: from no pmf and no
    # gain, and from the (3) solve as a report starts it.  On bp N=5 k=2
    # the unseeded sweep finds a pmf that is already in its cover.
    models = [_bp(5, 2)[:2]] + [random_finite_model(seed) for seed in range(400)]
    for seed in range(100):
        m, f, s = random_tree_model(seed)
        models.append((m, trading_space(f, s, m)))
    seen = {"unbounded": 0, "seeded": 0, "seeded_solves": 0}
    for m, ls in models:
        want = reference_ratio_sweep(m, ls, [], [])
        assert json.dumps(ratio_sweep(m, ls).to_dict()) == json.dumps(want.to_dict())
        seen["unbounded"] += not want.holds
        mm = checkers.min_mass(m, ls)
        if mm.gain is None or not mm.verdict.holds:
            continue
        q = support_weights(m, mm.fap)
        cover = [tuple(q[c] for c in m.support())]
        want = reference_ratio_sweep(m, ls, cover, [(mm.coefficients, mm.gain)])
        got = checkers.cstar_verdict(m, ls, mm)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
        seen["seeded"] += 1
        seen["seeded_solves"] += len(cover) > 1
    assert min(seen.values()) > 0, seen


def test_sweep_builds_no_fraction_program(monkeypatch):
    # The sweep hands the simplex its integer ratio rows and maximizes
    # each coordinate's row of them: no program becomes Fractions.
    def refuse(self):
        raise AssertionError("the sweep built a Fraction program")

    monkeypatch.setattr(IntProgram, "linear_program", refuse)
    solved = 0
    for seed in range(400):
        m, ls = random_finite_model(seed)
        solved += checkers._ratio_sweep(m, ls, [], []).holds
    assert solved > 0


def _unique_solution(rows, rhs):
    """The unique solution of a linear system by exact Gauss-Jordan
    elimination, or None when it has none or more than one."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    n = len(rows[0])
    for col in range(n):
        pivot = next((i for i in range(col, len(aug)) if aug[i][col]), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for i, row in enumerate(aug):
            if i != col and row[col]:
                aug[i] = [a - row[col] * b for a, b in zip(row, aug[col])]
    if any(row[-1] for row in aug[n:]):
        return None
    return [row[-1] for row in aug[:n]]


def _qmax_oracle(m, ls):
    """``q_max`` per support coordinate, by enumerating the vertices of
    the martingale polytope {q >= 0, sum q = 1, E_q(X) = 0 for every
    generator}: a vertex is the unique solution of the equalities on its
    own support.  None at every coordinate when the polytope is empty."""
    support = m.support()
    vertices = []
    for size in range(1, len(support) + 1):
        for subset in combinations(range(len(support)), size):
            rows = [[F(1)] * size]
            rows += [[x.at(support[i]) for i in subset] for x in ls.basis]
            sol = _unique_solution(rows, [F(1)] + [F(0)] * len(ls.basis))
            if sol is not None and min(sol) >= 0:
                q = [F(0)] * len(support)
                for i, w in zip(subset, sol):
                    q[i] = w
                vertices.append(q)
    return [max((q[i] for q in vertices), default=None) for i in range(len(support))]


def _small_models():
    for seed in range(200):
        m, ls = random_finite_model(seed)
        if len(m.support()) <= 5:
            yield m, ls
    yield example_harmonic(4)


def test_cstar_matches_brute_force_qmax():
    seen = {"finite": 0, "empty": 0, "zero": 0}
    for m, ls in _small_models():
        qmax = _qmax_oracle(m, ls)
        seeded = _seeded_cstar_verdict(m, ls)
        cstar = cstar_of(m, ls)
        assert cstar == (F(seeded.certificate["value"]) if seeded.holds else None)
        if None in qmax:
            seen["empty"] += 1
            assert cstar is None
        elif min(qmax) == 0:
            seen["zero"] += 1
            assert cstar is None
        else:
            seen["finite"] += 1
            assert cstar == 1 / min(qmax) - 1
    assert min(seen.values()) >= 5, seen


# -- weighted ratio bound (5*) and reweighting ---------------------------------


def test_condition5star_identity_weight_reduces_to_cstar():
    m = _two_state()
    ls = _span((F(1), F(-1)))
    v = checkers.verify_condition5star(m, ls, constant(1, m))
    assert v.holds
    assert F(v.certificate["cstar"]["value"]) == cstar_of(m, ls)


def test_condition5star_reweights_by_a_weight_other_than_one():
    # The weighted family is the span of (1, -3), whose functional is
    # (3/4, 1/4); reweighted by (1, 3) it is Q* = (1/2, 1/2).
    m = _two_state()
    ls = _span((F(1), F(-1)))
    y = RandVar((F(1), F(3)))
    v = checkers.verify_condition5star(m, ls, y)
    assert v.holds
    qstar = v.certificate["qstar"]
    assert qstar["fap"]["mass"] == ["1/2", "1/2"]
    assert qstar["equivalent"] and qstar["abs_continuous"]
    assert validate_verdict(m, ls, v.to_dict(), {"weight": y})


def test_condition5star_weighted_bp():
    m, ls, _ = _bp(6, 2)
    y = RandVar(tuple(F(1, 2 ** (w + 1)) for w in range(6)), F(0))
    v = checkers.verify_condition5star(m, ls, y)
    assert v.holds
    qstar = v.certificate["qstar"]["fap"]
    fap = Fap(F(qstar["alpha"]), tuple(F(x) for x in qstar["mass"]), F(qstar["tail"]))
    for x in ls.basis:
        assert expect(fap, x) == 0
    assert validate_verdict(m, ls, v.to_dict(), {"weight": y})


def test_condition5star_rejects_bad_weights():
    m, ls, _ = _bp(4, 1)
    with pytest.raises(InvalidInput):  # nonpositive somewhere on support
        checkers.verify_condition5star(
            m, ls, RandVar((F(1), F(0), F(1), F(1)), F(0))
        )
    with pytest.raises(InvalidInput):  # tail value must vanish
        checkers.verify_condition5star(
            m, ls, RandVar((F(1), F(1), F(1), F(1)), F(1))
        )


def test_qstar_from_weight():
    m = _two_state()
    q = from_p0(m)
    assert checkers.qstar_from_weight(m, q, constant(1, m)) == q
    q2 = checkers.qstar_from_weight(m, q, RandVar((F(1), F(3))))
    assert q2.ca_mass == (F(1, 4), F(3, 4))
    with pytest.raises(InvalidInput):
        checkers.qstar_from_weight(m, q, RandVar((F(0), F(0))))


@given(
    st.lists(st.integers(1, 9), min_size=2, max_size=5),
    st.lists(st.integers(1, 9), min_size=2, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_qstar_masses_sum_to_one(ws, ys):
    n = min(len(ws), len(ys))
    total = sum(ws[:n])
    m = Model(tuple(F(w, total) for w in ws[:n]))
    q = from_p0(m)
    y = RandVar(tuple(F(v) for v in ys[:n]))
    qstar = checkers.qstar_from_weight(m, q, y)
    assert sum(qstar.ca_mass) == 1


# -- vanishing tails (8) --------------------------------------------------------


def test_condition8_on_bp_gains():
    m, ls, _ = _bp(8, 4)
    v = checkers.check_condition8(m, ls)
    assert not v.holds
    assert v.certificate["values"] == ["-1/2", "-1/4", "-1/8", "-1/16", "-1/32"]
    assert validate_verdict(m, ls, v.to_dict())


def test_condition8_on_harmonic():
    m, ls = example_harmonic(3)
    assert checkers.check_condition8(m, ls).holds


def test_condition8_needs_a_tail():
    m = _two_state()
    with pytest.raises(InvalidInput):
        checkers.check_condition8(m, _span((F(1), F(0))))


# -- norm closure (10) ----------------------------------------------------------


def test_norm_closure_mirrors_no_arbitrage():
    rng = random.Random(99)
    for seed in rng.sample(range(10_000), 25):
        m, ls = random_finite_model(seed)
        assert (
            checkers.check_norm_closure(m, ls).holds
            == checkers.check_no_arbitrage(m, ls).holds
        )
    m, ls = _dmw(F(1, 3), 2)
    assert checkers.check_norm_closure(m, ls).holds
    m2 = _two_state()
    assert not checkers.check_norm_closure(m2, _span((F(1), F(0)))).holds


def test_norm_closure_relabels_the_no_arbitrage_verdict():
    for m, ls in (_dmw(F(1, 3), 2), (_two_state(), _span((F(1), F(0))))):
        na = checkers.check_no_arbitrage(m, ls)
        nc = checkers.check_norm_closure(m, ls)
        assert nc.condition == "(10)"
        assert (nc.holds, nc.certificate) == (na.holds, na.certificate)
        assert nc == checkers.norm_closure_from(na)
        assert validate_verdict(m, ls, nc.to_dict())


def test_negative_gain_program_id_is_unknown_to_validation():
    # No checker emits a Farkas witness over the negative-gain program, so
    # validation cannot rebuild it: the id is malformed, not merely false.
    m, ls = _dmw(F(1, 3), 2)
    lp = negative_gain_lp(m, ls)
    out = solve(lp)
    assert isinstance(out, Infeasible)
    cert = farkas_witness("negative-gain", *out.int_form()[0], claim="infeasible")
    for condition, holds in (("(4)", True), ("(6)", True), ("(3)", False)):
        verdict = {"condition": condition, "holds": holds, "certificate": cert}
        with pytest.raises(CertificateFormat, match="unknown program id 'negative-gain'"):
            validate_verdict(m, ls, verdict)


# -- coherence -------------------------------------------------------------------


def test_coherence_representable_prevision():
    m = _two_state()
    gambles = [RandVar((F(1), F(0)))]
    v = checkers.check_coherence(gambles, [F(1, 2)], m)
    assert v.holds
    assert validate_verdict(
        m, LinSpace(tuple(gambles)), v.to_dict(), {"previsions": [F(1, 2)]}
    )


def test_coherence_sure_loss_above_supremum():
    m = _two_state()
    gambles = [RandVar((F(1), F(0)))]
    v = checkers.check_coherence(gambles, [F(2)], m)
    assert not v.holds
    assert v.certificate["stakes"] == ["-1/1"]
    assert F(v.certificate["guaranteed_win"]) >= 1
    assert validate_verdict(
        m, LinSpace(tuple(gambles)), v.to_dict(), {"previsions": [F(2)]}
    )


def test_coherence_of_expectations_property():
    rng = random.Random(4242)
    for _ in range(25):
        m, ls = random_finite_model(rng.randrange(10_000))
        weights = [rng.randint(0, 4) if m.p0_mass[i] > 0 else 0 for i in range(m.n_states)]
        if sum(weights) == 0:
            weights[m.charged_states()[0]] = 1
        total = sum(weights)
        p = Fap(F(0), tuple(F(w, total) for w in weights))
        previsions = [expect(p, x) for x in ls.basis]
        v = checkers.check_coherence(ls.basis, previsions, m)
        assert v.holds
        assert validate_verdict(m, ls, v.to_dict(), {"previsions": previsions})


# -- event dominance (7) ----------------------------------------------------------


def test_event_dominance_trivial_space_holds():
    m = _two_state()
    v = checkers.check_event_dominance(LinSpace(()), [], [(0, 1)], m)
    assert v.holds


def test_event_dominance_violated_on_small_event():
    m = _two_state()
    ls = _span((F(1), F(0)))
    v = checkers.check_event_dominance(ls, [F(1)], [(1,)], m)
    assert not v.holds
    assert v.certificate["claim"] == "event_dominance_violated"
    assert validate_verdict(
        m, ls, v.to_dict(), {"previsions": [F(1)], "events": [(1,)]}
    )


def test_event_dominance_solves_the_representation_first(monkeypatch):
    # One representation program on the least event decides (7) either
    # way.  Where it is infeasible, its Farkas vector gives a violation
    # on the least event [0, 1] with no further solve.
    calls = counting_solves(monkeypatch)
    m = Model((F(1, 2), F(1, 4), F(1, 4)))
    ls = _span((F(1), F(0), F(0)))
    events = [(0, 1, 2), (0, 1)]
    assert checkers.check_event_dominance(ls, [F(1, 3)], events, m).holds
    assert len(calls) == 1
    calls.clear()
    v = checkers.check_event_dominance(ls, [F(2)], events, m)
    assert not v.holds
    assert v.certificate["event"] == [0, 1]
    assert len(calls) == 1
    assert validate_verdict(
        m, ls, v.to_dict(), {"previsions": [F(2)], "events": events}
    )


def test_equal_dominance_and_coherence_programs_are_solved_once(monkeypatch):
    # The least event {0, 2} is not the coherence coordinates (0, 1), but
    # the generator agrees at states 1 and 2, so the two programs are
    # equal and the (7) weights carry over coordinate by coordinate.
    m = Model((F(1, 2), F(1, 2), F(0)))
    ls = _span((F(1), F(-1), F(-1)))
    fresh = checkers.check_coherence(ls.basis, [F(0)], m)
    calls = counting_solves(monkeypatch)
    with checkers.solving_once():
        dominance = checkers.check_event_dominance(ls, [F(0)], [(0, 2)], m)
        shared = checkers.check_coherence(ls.basis, [F(0)], m)
    assert len(calls) == 1
    assert shared == fresh
    assert shared.certificate["fap"] != dominance.certificate["fap"]
    assert validate_verdict(m, ls, shared.to_dict(), {"previsions": [F(0)]})


def test_different_dominance_and_coherence_programs_are_each_solved(monkeypatch):
    # A failing (7) on the least event {1} solves a program over one
    # coordinate; coherence weights two.
    m = _two_state()
    ls = _span((F(1), F(0)))
    calls = counting_solves(monkeypatch)
    with checkers.solving_once():
        failing = checkers.check_event_dominance(ls, [F(1)], [(1,)], m)
        coherence = checkers.check_coherence(ls.basis, [F(1)], m)
    assert not failing.holds and coherence.holds
    assert len(calls) == 2
    # On a tail model the least event is weighted in support order, the
    # tail last, as the coherence coordinates are: one program.
    m, ls, _ = _bp()
    previsions = [F(0)] * len(ls.basis)
    calls.clear()
    with checkers.solving_once():
        dominance = checkers.check_event_dominance(ls, previsions, [m.support()], m)
        coherence = checkers.check_coherence(ls.basis, previsions, m)
    assert dominance.holds and coherence.holds
    assert len(calls) == 1


def test_a_failing_dominance_program_shared_with_coherence_is_solved_once(monkeypatch):
    # The least event is the coherence coordinates, so the infeasible
    # representation program is the coherence program: the sure-loss
    # stakes are the (7) gain's coefficients negated, the win its amount.
    m = Model((F(1, 2), F(1, 4), F(1, 4)))
    ls = _span((F(1), F(0), F(-1)), (F(0), F(1), F(1)))
    previsions = [F(2), F(-1)]
    calls = counting_solves(monkeypatch)
    with checkers.solving_once():
        failing = checkers.check_event_dominance(ls, previsions, [(0, 1, 2)], m)
        shared = checkers.check_coherence(ls.basis, previsions, m)
    assert not failing.holds
    assert len(calls) == 1
    assert shared == checkers.check_coherence(ls.basis, previsions, m)
    assert [F(c) for c in shared.certificate["stakes"]] == [
        -F(c) for c in failing.certificate["coefficients"]
    ]
    assert F(shared.certificate["guaranteed_win"]) == -F(failing.certificate["amount"])
    assert validate_verdict(m, ls, shared.to_dict(), {"previsions": previsions})


@pytest.mark.parametrize(
    "example", [lambda: _bp()[:2], lambda: _dmw(F(1, 3), 3), lambda: _span_model()],
    ids=["bp-holding", "dmw-holding", "failing"],
)
def test_dominance_and_coherence_read_off_4_on_default_inputs(monkeypatch, example):
    # With zero previsions and the support as the least event, the (7)
    # and coherence programs are the (4) program: the (3) solve, which
    # decides (4), decides both, holding or failing, with no solve.
    m, ls = example()
    zeros = [F(0)] * len(ls.basis)
    mm = checkers.min_mass(m, ls)
    acm = checkers.acmfap_from(m, mm)
    fresh = (
        checkers.check_event_dominance(ls, zeros, [m.support()], m),
        checkers.check_coherence(ls.basis, zeros, m),
    )
    calls = counting_solves(monkeypatch)
    derived = (
        checkers.check_event_dominance(ls, zeros, [m.support()], m, mm),
        checkers.check_coherence(ls.basis, zeros, m, mm),
    )
    assert calls == []
    extras = {"previsions": zeros, "events": [m.support()]}
    for d, f in zip(derived, fresh):
        assert d.holds == f.holds == acm.holds
        assert validate_verdict(m, ls, d.to_dict(), extras)


def _span_model():
    # A gain positive on the support: (4) fails.
    m = Model((F(1, 2), F(1, 4), F(1, 4)))
    return m, _span((F(1), F(2), F(1)), (F(1), F(-1), F(0)))


def test_event_dominance_representation_on_least_event():
    m = Model((F(1, 2), F(1, 4), F(1, 4)))
    ls = _span((F(1), F(0), F(0)))
    events = [(0, 1, 2), (0, 1)]
    v = checkers.check_event_dominance(ls, [F(1, 3)], events, m)
    assert v.holds
    cert = v.certificate
    assert cert["kind"] == "representing_fap"
    assert cert["event"] == [0, 1]
    fap = Fap(F(0), tuple(F(x) for x in cert["fap"]["mass"]))
    assert expect(fap, ls.basis[0]) == F(1, 3)
    assert fap.ca_mass[2] == 0  # confined to the least event
    assert validate_verdict(
        m, ls, v.to_dict(), {"previsions": [F(1, 3)], "events": events}
    )


def test_event_dominance_representation_property_from_supported_fap():
    rng = random.Random(31)
    for _ in range(20):
        m, ls = random_finite_model(rng.randrange(10_000))
        charged = m.charged_states()
        inner = tuple(sorted(rng.sample(charged, rng.randint(1, len(charged)))))
        weights = {i: rng.randint(1, 4) for i in inner}
        total = sum(weights.values())
        p = Fap(
            F(0),
            tuple(F(weights.get(i, 0), total) for i in range(m.n_states)),
        )
        previsions = [expect(p, x) for x in ls.basis]
        events = [tuple(range(m.n_states)), inner]
        if frozenset(inner) == frozenset(range(m.n_states)):
            events = [inner]
        v = checkers.check_event_dominance(ls, previsions, events, m)
        assert v.holds, (m, ls, inner, previsions)


def test_event_dominance_rejects_non_intersection_closed_events():
    m = Model((F(1, 3), F(1, 3), F(1, 3)))
    ls = _span((F(1), F(0), F(0)))
    with pytest.raises(InvalidInput, match="not closed under intersection"):
        checkers.check_event_dominance(ls, [F(0)], [(0, 1), (1, 2)], m)
    with pytest.raises(InvalidInput, match="nonempty"):
        checkers.check_event_dominance(ls, [F(0)], [()], m)


# -- divergence study ---------------------------------------------------------------


def test_divergence_two_point_value():
    rows = checkers.divergence_study(F(1, 3), [1])
    assert rows[0].tv_distance == F(1, 6)


def test_divergence_trend_and_ratios():
    rows = checkers.divergence_study(F(1, 3), [10, 20, 40])
    assert rows[0].tv_distance < rows[1].tv_distance < rows[2].tv_distance
    for row in rows:
        assert row.min_likelihood_ratio == F(2, 3) ** row.horizon
        assert row.max_likelihood_ratio == F(4, 3) ** row.horizon


def test_divergence_rejects_boundary_bias():
    with pytest.raises(InvalidInput):
        checkers.divergence_study(F(1, 2), [1])


# -- implication chain ----------------------------------------------------------------


def test_implication_chain_on_fuzz_models():
    rng = random.Random(2718)
    for seed in rng.sample(range(100_000), 40):
        m, ls = random_finite_model(seed)
        # (6) and (4) by their own programs, not read off the (3) solve.
        emfap = checkers.find_emfap(m, ls).holds
        na = no_arbitrage_holds(m, ls)
        acm = acmfap_holds(m, ls)
        assert (not emfap) or na
        assert (not na) or acm


def test_harmonic_separates_na_from_acm():
    m, ls = example_harmonic(4)
    assert not no_arbitrage_holds(m, ls) and not checkers.check_no_arbitrage(m, ls).holds
    assert acmfap_holds(m, ls) and checkers.check_acmfap(m, ls).holds


def test_emfap_measure_satisfies_unit_expectation_bound():
    # When the martingale functional is countably additive, it witnesses
    # the expectation bound with constant one itself.
    rng = random.Random(1618)
    exercised = 0
    for seed in rng.sample(range(50_000), 40):
        m, ls = random_finite_model(seed)
        v = checkers.find_emfap(m, ls)
        if not v.holds:
            continue
        fap = Fap(
            F(v.certificate["fap"]["alpha"]),
            tuple(F(x) for x in v.certificate["fap"]["mass"]),
        )
        assert fap.alpha == 0
        assert checkers.verify_condition3(m, ls, fap, 1).holds
        exercised += 1
    assert exercised >= 5


def test_checkers_are_deterministic():
    m, ls = example_harmonic(5)
    assert (
        checkers.check_no_arbitrage(m, ls).to_dict()
        == checkers.check_no_arbitrage(m, ls).to_dict()
    )
    m2, f2, s2, q2 = example_bp(6, 2)
    from famart.spaces import trading_space as _ts

    ls2 = _ts(f2, s2, m2)
    assert checkers.find_emfap(m2, ls2).to_dict() == checkers.find_emfap(m2, ls2).to_dict()
    assert (
        checkers.verify_condition3(m2, ls2, q2, 1).to_dict()
        == checkers.verify_condition3(m2, ls2, q2, 1).to_dict()
    )


def test_event_dominance_event_may_contain_the_tail_point():
    m, ls = example_harmonic(3)
    support = tuple(m.support())
    v = checkers.check_event_dominance(ls, [F(0)], [support, (TAIL,)], m)
    # Dominance on the tail singleton: sup over {tail} of b*X is 0, and
    # the prevision is 0, so the condition holds with the tail mass point.
    assert v.holds
    cert = v.certificate
    assert cert["event"] == ["tail"]
    assert cert["fap"]["tail"] == "1/1" or cert["fap"]["alpha"] == "0/1"
