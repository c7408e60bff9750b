"""Acceptance gate: one test per headline claim, each printing a visible
pass/fail line so a plain pytest run doubles as a checklist."""

import functools
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from math import cos, pi, sin, sqrt

import numpy as np

from arrowq import cli
from arrowq.bell import (
    ch_value,
    chsh_value,
    classical_bound,
    default_embedding,
    maximize_violation,
    singlet_state,
)
from arrowq.hilbert import (
    BallotSpace,
    KSInstance,
    PureState,
    ballot_state,
    cloning_fidelity,
    ks_instance_from_rule,
    lift_rule_to_unitary,
    no_cloning_scan,
    verify_ks_coloring,
)
from arrowq.landauer import (
    EnergyParams,
    divergence_scan,
    erase_cost,
    voting_energy,
)
from arrowq.orders import enumerate_orders, reverse_order
from arrowq.social_choice import (
    all_profiles,
    enumerate_fair_rules,
    find_dictator,
    projection_rule,
    verify_arrow,
)
from oracles import brute_force_fair_rules

# dictators-by-projection at three voters, lexicographic table order
FROZEN_33_TABLES = (
    ((0, 0, 0, 0, 1, 1, 1, 1),) * 3,
    ((0, 0, 1, 1, 0, 0, 1, 1),) * 3,
    ((0, 1, 0, 1, 0, 1, 0, 1),) * 3,
)


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} FAIL: {label}",
                      file=sys.__stdout__, flush=True)
                raise
            print(f"criterion {number} PASS: {label}",
                  file=sys.__stdout__, flush=True)
            return out
        return wrapper
    return decorate


@criterion(1, "exhaustive fair-rule search finds only dictators at 3+ alternatives")
def test_criterion_1_arrow_verification():
    started = time.perf_counter()
    v23 = verify_arrow(2, 3)
    elapsed_23 = time.perf_counter() - started
    assert v23.fair_rule_count == 2
    assert v23.all_dictatorial
    assert v23.dictators == (0, 1)
    assert elapsed_23 < 1.0

    # independent oracle: filter every endpoint-fixed table combination
    oracle_rules = brute_force_fair_rules(2, 3)
    main_rules = [r.tables for r in enumerate_fair_rules(2, 3)]
    assert main_rules == oracle_rules

    started = time.perf_counter()
    v33 = verify_arrow(3, 3)
    elapsed_33 = time.perf_counter() - started
    assert v33.fair_rule_count == 3
    assert v33.all_dictatorial
    assert v33.dictators == (0, 1, 2)
    assert elapsed_33 < 60.0
    assert tuple(r.tables for r in enumerate_fair_rules(3, 3)) == FROZEN_33_TABLES

    v22 = verify_arrow(2, 2)
    assert v22.fair_rule_count == 4
    assert not v22.all_dictatorial
    assert None in v22.rule_dictators


@criterion(2, "lifted dictatorial circuits clone classical ballots perfectly")
def test_criterion_2_dictator_clones_basis_profiles():
    space = BallotSpace(3)
    for rule in enumerate_fair_rules(2, 3):
        circuit = lift_rule_to_unitary(space, rule)
        dictator = find_dictator(rule)
        assert dictator is not None
        checked = 0
        for profile in all_profiles(2, 3):
            psi = ballot_state(space, profile[dictator])
            fillers = [profile[v] for v in range(2) if v != dictator]
            assert cloning_fidelity(circuit, dictator, psi, fillers) == 1.0
            checked += 1
        assert checked == 36


@criterion(3, "superposed ballots defeat the cloner exactly as predicted")
def test_criterion_3_no_cloning_failure():
    started = time.perf_counter()
    space = BallotSpace(3)
    circuit = lift_rule_to_unitary(space, projection_rule(2, 3, 0))

    def fidelity_at(theta):
        amps = np.zeros(space.d, dtype=complex)
        amps[0], amps[1] = cos(theta), sin(theta)
        return cloning_fidelity(circuit, 0, PureState(amps, space.d))

    assert abs(fidelity_at(pi / 4) - 0.5) < 1e-9
    for theta in (0.0, pi / 8, pi / 4, 3 * pi / 8, pi / 2):
        predicted = (cos(theta) ** 3 + sin(theta) ** 3) ** 2
        assert abs(fidelity_at(theta) - predicted) < 1e-9

    report = no_cloning_scan(space, trials=1000, seed=0)
    assert abs(report.min_fidelity - 0.5) < 1e-3
    assert report.nonbasis_strictly_below
    assert time.perf_counter() - started < 5.0


@criterion(4, "classical Bell bound is 2, optimized quantum value reaches 2*sqrt(2)")
def test_criterion_4_bell_bounds():
    started = time.perf_counter()
    lo, hi = classical_bound("chsh")
    assert (lo, hi) == (-2.0, 2.0)

    axes, value = maximize_violation("chsh")
    tsirelson = 2 * sqrt(2.0)
    assert abs(value - tsirelson) < 1e-12

    rng = np.random.default_rng(0)
    for _ in range(25):
        raw = rng.normal(size=(4, 3))
        test_axes = [v / np.linalg.norm(v) for v in raw]
        s = chsh_value(singlet_state(), *test_axes).value
        c = ch_value(singlet_state(), *test_axes).value
        assert abs(c - (s - 2.0) / 4.0) < 1e-10
    s_opt = chsh_value(singlet_state(), *axes).value
    c_opt = ch_value(singlet_state(), *axes).value
    assert abs(c_opt - (s_opt - 2.0) / 4.0) < 1e-10
    assert time.perf_counter() - started < 10.0


@criterion(5, "six-ballot axis embedding matches the fixed assignment with sign flips")
def test_criterion_5_embedding():
    emb = default_embedding()
    expected = {
        (0, 1, 2): (1, 1),
        (2, 1, 0): (1, -1),
        (2, 0, 1): (0, 1),
        (1, 0, 2): (0, -1),
        (1, 2, 0): (2, 1),
        (0, 2, 1): (2, -1),
    }
    for ballot, target in expected.items():
        assert emb.embed(ballot) == target
    for ballot in enumerate_orders(3):
        axis, sign = emb.embed(ballot)
        assert emb.embed(reverse_order(ballot)) == (axis, -sign)


@criterion(6, "basis-coloring verifier accepts one-hot, rejects all-zero and all-one")
def test_criterion_6_coloring_verifier():
    d = 4
    eye = np.eye(d, dtype=complex)
    basis = (tuple(range(d)),)
    for hot in range(d):
        coloring = tuple(1 if i == hot else 0 for i in range(d))
        ok, violated = verify_ks_coloring(KSInstance(d, eye, basis, coloring))
        assert ok and violated == ()
    for bad in ((0,) * d, (1,) * d):
        ok, violated = verify_ks_coloring(KSInstance(d, eye, basis, bad))
        assert not ok and violated == basis

    instance = ks_instance_from_rule(projection_rule(2, 3, 0), ((1, 0, 2), (0, 1, 2)))
    ok, violated = verify_ks_coloring(instance)
    assert ok and violated == ()


@criterion(7, "erasure ledger: bit cost, single-particle limits, divergence, D-1 ratio")
def test_criterion_7_energy_ledger():
    params = EnergyParams(k=1.380649e-23, T=300.0)
    bit = erase_cost(params, 2, "with-memory")
    assert bit.energy == params.k * params.T * np.log(2.0)

    unit = EnergyParams(k=1.0, T=1.0)
    assert voting_energy(unit, 1, 5, "with-memory").E1 == 0.0
    assert voting_energy(unit, 5, 1, "with-memory").E2 == 0.0

    scan = divergence_scan(unit, 10_000, "with-memory")
    assert scan.strictly_increasing
    energies = scan.energies
    assert all(energies[i] < energies[i + 1] for i in range(1, len(energies) - 1))

    for D in range(2, 12):
        with_mem = erase_cost(unit, D, "with-memory").energy
        without = erase_cost(unit, D, "without-memory").energy
        assert without == (D - 1) * with_mem


@criterion(8, "every CLI subcommand is byte-deterministic under a fixed seed")
def test_criterion_8_cli_determinism(tmp_path):
    instance = ks_instance_from_rule(projection_rule(2, 3, 0), ((0, 1, 2), (2, 1, 0)))
    instance_path = tmp_path / "instance.json"
    instance_path.write_text(json.dumps(instance.to_json_dict()))

    # defaults follow non-default values of the same flags, and two
    # invocations repeat, so state one in-process call leaves would show
    invocations = [
        ("verify-arrow", "--voters", "3", "--alternatives", "2", "--seed", "1"),
        ("bell", "--inequality", "ch", "--optimize", "--seed", "1"),
        ("verify-arrow",),
        ("energy", "--variant", "literal", "--T", "10", "--seed", "1"),
        ("bell",),
        ("energy",),
        ("clone-test", "--seed", "1"),
        ("bell", "--optimize"),
        ("ks-verify", "--instance", str(instance_path)),
        ("verify-arrow", "--voters", "3", "--alternatives", "2", "--seed", "1"),
        ("bell", "--inequality", "ch", "--optimize", "--seed", "1"),
    ]
    # one fresh process per distinct invocation, all started at once; each
    # report cli.main writes in this process must equal its byte for byte
    fresh = {
        argv: subprocess.Popen([sys.executable, "-m", "arrowq", *argv], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
        for argv in dict.fromkeys(invocations)
    }
    expected = {argv: (proc.communicate(timeout=120)[0], proc.returncode)
                for argv, proc in fresh.items()}
    for argv in invocations:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        assert (out.getvalue(), code) == expected[argv]
        assert code == 0
