import hashlib
import json
import time
import tracemalloc
from dataclasses import asdict
from functools import reduce
from itertools import product
from math import cos, factorial, pi, sin

import numpy as np
import pytest
from hypothesis import given, strategies as st

from arrowq import SizeLimitError, social_choice
from arrowq.hilbert import (
    BallotSpace,
    NORM_TOL,
    KSInstance,
    PureState,
    UnitaryCircuit,
    ballot_state,
    basis_state,
    cloning_fidelities,
    cloning_fidelity,
    discover_orthonormal_bases,
    is_dictatorial_circuit,
    ks_instance_from_json_dict,
    ks_instance_from_rule,
    lift_rule_to_unitary,
    no_cloning_scan,
    verify_ks_coloring,
)
from arrowq.orders import enumerate_orders, order_rank
from arrowq.social_choice import (
    VotingRule,
    all_profiles,
    classical_circuit_table,
    enumerate_fair_rules,
    find_dictator,
    pairwise_majority_rule,
    profile_domain,
    projection_rule,
)

import oracles

SPACE = BallotSpace(3)


# ---- states ----

def test_ballot_space_defaults_and_validation():
    assert SPACE.d == 6 and SPACE.ballots == 6
    assert BallotSpace(3, 8).d == 8
    assert BallotSpace(3, np.int64(8)).d == 8 and BallotSpace(3, np.uint8(6)).d == 6
    with pytest.raises(ValueError):
        BallotSpace(3, 5)


@pytest.mark.parametrize("n, d", [(3, 7.5), (3, 6.0), (3, np.float64(8.0)), (1, True), (1, np.True_)])
def test_ballot_space_refuses_a_register_size_that_is_no_integer(n, d):
    # a float space once built, and its lift then failed in numpy's padding
    with pytest.raises(ValueError, match="^register size must be an integer, got "):
        BallotSpace(n, d)


def test_ballot_states_are_orthonormal_basis_rays():
    e0 = ballot_state(SPACE, (0, 1, 2))
    e5 = ballot_state(SPACE, (2, 1, 0))
    assert np.flatnonzero(e0.amplitudes).tolist() == [0]
    assert np.flatnonzero(e5.amplitudes).tolist() == [5]
    assert np.vdot(e0.amplitudes, e5.amplitudes) == 0
    assert abs(np.vdot(e0.amplitudes, e0.amplitudes) - 1) < 1e-15


def test_basis_state_index_range():
    for index in (0, 35):
        assert np.flatnonzero(basis_state(6, index, registers=2).amplitudes).tolist() == [index]
    for index in (-1, 36):  # numpy alone would wrap -1 to |35>
        with pytest.raises(ValueError, match=rf"^basis index {index} out of range 0\.\.35$"):
            basis_state(6, index, registers=2)


def test_pure_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 1.0]), 2)
    with pytest.raises(ValueError):
        PureState(np.array([1.0, 0.0, 0.0]), 2)


def test_equal_up_to_phase():
    # a global phase leaves the ray, and so its clone, unchanged
    e0 = basis_state(6, 0)
    rotated = PureState(np.exp(1j * 0.7) * e0.amplitudes, 6)
    assert abs(abs(np.vdot(e0.amplitudes, rotated.amplitudes)) - 1) < 1e-12
    assert np.vdot(e0.amplitudes, basis_state(6, 1).amplitudes) == 0
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    assert abs(cloning_fidelity(circ, 0, rotated) - 1) < 1e-12


@given(st.floats(min_value=0.05, max_value=pi / 2 - 0.05))
def test_two_ballot_superpositions_are_never_basis_rays(theta):
    amps = np.zeros(6, dtype=complex)
    amps[0], amps[1] = cos(theta), sin(theta)
    assert no_cloning_scan(SPACE, states=[PureState(amps, 6)]).basis_like_count == 0


def test_tensor_product_dimensions():
    pair = basis_state(6, 3, registers=2)
    assert pair.registers == 2 and pair.amplitudes.shape == (36,)
    assert np.array_equal(
        pair.amplitudes, np.kron(basis_state(6, 0).amplitudes, basis_state(6, 3).amplitudes))


# ---- lifted circuits ----

def test_lift_is_a_permutation_unitary():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    # perm[i] = j puts a 1 at (row j, column i)
    mat = np.zeros((216, 216), dtype=complex)
    mat[classical_circuit_table(circ.rule, SPACE.d), np.arange(216)] = 1.0
    assert np.max(np.abs(mat.conj().T @ mat - np.eye(216))) < 1e-10
    assert set(np.unique(mat)) == {0, 1}


def test_circuit_needs_a_voter_register():
    # a circuit is its rule's lift, and a rule has at least one voter
    with pytest.raises(ValueError, match="at least one voter"):
        VotingRule(0, 3, tables=((), (), ()))
    assert lift_rule_to_unitary(SPACE, projection_rule(1, 3, 0)).registers == 2


def test_circuit_holds_a_total_rule_of_its_space():
    with pytest.raises(ValueError, match="disagree on the alternative count"):
        UnitaryCircuit(BallotSpace(4), projection_rule(2, 3, 0))
    with pytest.raises(ValueError, match="needs a total rule"):
        UnitaryCircuit(SPACE, pairwise_majority_rule(3, 3))
    holes = projection_rule(2, 3, 0).as_table()
    holes = VotingRule(2, 3, outcomes=(None, *holes.outcomes[1:]))
    with pytest.raises(ValueError, match="needs a total rule"):
        UnitaryCircuit(SPACE, holes)


def test_lift_action_on_basis_profiles():
    rule = projection_rule(2, 3, 0)
    circ = lift_rule_to_unitary(SPACE, rule)
    perm = classical_circuit_table(rule)
    for q, filler in enumerate(oracles.all_rankings(3)):
        # the line voter 0 sweeps with voter 1 at ballot q
        assert circ.rule.swept_ranks(0, [filler]).tolist() == list(range(6))
        for p in range(6):
            flat = p * 6 + q
            assert perm[flat] == p * 36 + flat


def test_lift_linearity_entangles_superposed_ballot():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    amps = np.zeros(216, dtype=complex)
    amps[0 * 36 + 0 * 6 + 2] = 2 ** -0.5  # |0>|b0>|b2>
    amps[0 * 36 + 1 * 6 + 2] = 2 ** -0.5  # |0>|b1>|b2>
    out = oracles.apply_permutation(classical_circuit_table(circ.rule), amps)
    expected = np.zeros(216, dtype=complex)
    expected[0 * 36 + 0 * 6 + 2] = 2 ** -0.5
    expected[1 * 36 + 1 * 6 + 2] = 2 ** -0.5
    assert np.allclose(out, expected)


def test_permutation_oracle_matches_cloning_fidelities():
    # the overlap of the permuted input with the ideal clone is the batched fidelity
    space, voter, filler = BallotSpace(3, 8), 1, 4
    circuit = lift_rule_to_unitary(space, projection_rule(2, 3, voter))
    psi = _random_states(np.random.default_rng(5), 6, space.d)
    fidelities = cloning_fidelities(circuit, voter, psi, [oracles.all_rankings(3)[filler]])
    ray, perm = np.eye(space.d), classical_circuit_table(circuit.rule, space.d)
    for row, fidelity in zip(psi, fidelities):
        out = oracles.apply_permutation(perm, np.kron(ray[0], np.kron(ray[filler], row)))
        ideal = np.kron(row, np.kron(ray[filler], row))
        assert abs(abs(np.vdot(ideal, out)) ** 2 - fidelity) <= 1e-12
    assert fidelities.min() < 1 - 1e-6


def test_lift_size_guard(monkeypatch):
    # a pairwise lift takes the search's triple-row guard, C(n,3) * 6^m <= 2^19;
    # the builders take it too, so only a hand-built rule, as a rule file
    # gives, reaches the lift past it
    monkeypatch.delenv("ARROWQ_GUARD_OVERRIDE", raising=False)
    message = r"^triple row count C\(n,3\)\*6\^m = "
    for m, n in [(8, 3), (7, 4), (6, 6)]:
        with pytest.raises(SizeLimitError, match=message):
            projection_rule(m, n, 0)
        tables = (tuple(v & 1 for v in range(1 << m)),) * (n * (n - 1) // 2)
        with pytest.raises(SizeLimitError, match=message):
            lift_rule_to_unitary(BallotSpace(n), VotingRule(m, n, tables=tables))
    assert lift_rule_to_unitary(SPACE, projection_rule(7, 3, 6)).copied_voters == {6}
    # at two alternatives there is no triple: the 2^m-entry tables take the guard
    wide = VotingRule(20, 2, tables=((0, 1) * (1 << 19),))
    with pytest.raises(SizeLimitError, match=r"^pair table size 2\^m = "):
        lift_rule_to_unitary(BallotSpace(2), wide)
    monkeypatch.setenv("ARROWQ_GUARD_OVERRIDE", "4")
    assert lift_rule_to_unitary(SPACE, projection_rule(8, 3, 2)).copied_voters == {2}


def test_is_dictatorial_circuit():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 1))
    assert is_dictatorial_circuit(circ, 1)
    assert not is_dictatorial_circuit(circ, 0)
    maj = lift_rule_to_unitary(BallotSpace(2), pairwise_majority_rule(3, 2))
    assert not any(is_dictatorial_circuit(maj, i) for i in range(3))


def test_every_fair_rule_lifts_to_exactly_one_dictatorial_register():
    for rule in enumerate_fair_rules(2, 3):
        circ = lift_rule_to_unitary(SPACE, rule)
        hits = [i for i in range(2) if is_dictatorial_circuit(circ, i)]
        assert hits == [find_dictator(rule)]


# ---- cloning ----

def test_cloning_basis_ballots_is_exact():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    for i in range(6):
        assert cloning_fidelity(circ, 0, basis_state(6, i)) == 1.0


def test_cloning_fidelity_on_equal_superposition_is_half():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    psi = PureState(np.array([1, 1, 0, 0, 0, 0]) / np.sqrt(2), 6)
    assert abs(cloning_fidelity(circ, 0, psi) - 0.5) < 1e-12


def test_cloning_fidelity_matches_cubic_formula():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    for theta in (0.0, pi / 8, pi / 4, 3 * pi / 8, pi / 2):
        amps = np.zeros(6, dtype=complex)
        amps[0], amps[1] = cos(theta), sin(theta)
        f = cloning_fidelity(circ, 0, PureState(amps, 6))
        assert abs(f - (cos(theta) ** 3 + sin(theta) ** 3) ** 2) < 1e-12


def test_cloning_respects_filler_choice():
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 1))
    psi = PureState(np.array([0, 0, 1, 0, 1j, 0]) / np.sqrt(2), 6)
    # overlap is sum over support of |c|^2 * conj(c); for (1, i)/sqrt(2) that
    # squares to 1/4, independent of which ballot fills the other register
    expected = abs(sum(abs(c) ** 2 * c.conjugate() for c in psi.amplitudes)) ** 2
    assert abs(expected - 0.25) < 1e-12
    for filler in enumerate_orders(3):
        f = cloning_fidelity(circ, 1, psi, fillers=[filler])
        assert abs(f - expected) < 1e-12


def test_cloning_requires_dictatorial_circuit():
    maj = lift_rule_to_unitary(BallotSpace(2), pairwise_majority_rule(3, 2))
    with pytest.raises(ValueError):
        cloning_fidelity(maj, 0, basis_state(2, 0))


def _count_domains(monkeypatch):
    """The (m, n) of every profile_domain call with m >= 2 from here on."""
    scans = []

    def counted(m, n):
        if m >= 2:
            scans.append((m, n))
        return profile_domain(m, n)

    monkeypatch.setattr(social_choice, "profile_domain", counted)
    return scans


def test_fidelities_on_one_circuit_scan_the_domain_once(monkeypatch):
    # a table rule's copying voters come from one scan of its profiles
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 1).as_table())
    scans = _count_domains(monkeypatch)
    for theta in np.linspace(0.0, pi / 2, 10):
        amps = np.zeros(6, dtype=complex)
        amps[0], amps[1] = cos(theta), sin(theta)
        cloning_fidelity(circ, 1, PureState(amps, 6))
    assert scans == [(2, 3)]
    assert circ.copied_voters == {1}


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (2, 4), (4, 3), (3, 5)])
def test_pairwise_lift_builds_no_profile_domain(monkeypatch, m, n):
    scans = _count_domains(monkeypatch)
    space = BallotSpace(n)
    circ = lift_rule_to_unitary(space, projection_rule(m, n, m - 1))
    assert circ.copied_voters == {m - 1}
    amps = np.zeros((2, space.d), dtype=complex)
    amps[:, 0], amps[:, 1] = [1.0, 2 ** -0.5], [0.0, 2 ** -0.5]
    assert np.abs(cloning_fidelities(circ, m - 1, amps) - [1.0, 0.5]).max() < 1e-12
    assert circ.rule.swept_ranks(m - 1).tolist() == list(range(space.ballots))
    assert scans == []


def _random_states(rng, count, d):
    psi = rng.normal(size=(count, d)) + 1j * rng.normal(size=(count, d))
    return psi / np.linalg.norm(psi, axis=1)[:, None]


def _check_against_the_dense_circuit(circuit, voter, psi, filler_ranks):
    n, d, m = circuit.space.n, circuit.space.d, circuit.registers - 1
    fillers = [oracles.all_rankings(n)[r] for r in filler_ranks]
    batched = cloning_fidelities(circuit, voter, psi, fillers)
    looped = [cloning_fidelity(circuit, voter, PureState(row, d), fillers) for row in psi]
    perm = classical_circuit_table(circuit.rule, d)
    dense = [oracles.dense_cloning_fidelity(perm, d, m, voter, row, filler_ranks)
             for row in psi]
    assert batched.shape == (len(psi),)
    assert np.abs(batched - dense).max() <= 1e-12
    assert np.abs(batched - looped).max() <= 1e-12
    return batched


@pytest.mark.parametrize("n, d, m", [(3, None, 1), (3, None, 2), (3, None, 3),
                                     (3, 8, 1), (3, 8, 2), (2, 3, 3)])
def test_batched_fidelities_match_the_dense_circuit(n, d, m):
    rng = np.random.default_rng(100 * n + 10 * m + (d or 0))
    space = BallotSpace(n, d)
    psi = np.vstack([_random_states(rng, 8, space.d), np.eye(space.d)])
    for voter in range(m):
        circuit = lift_rule_to_unitary(space, projection_rule(m, n, voter))
        filler_ranks = rng.integers(space.ballots, size=m - 1).tolist()
        fidelities = _check_against_the_dense_circuit(circuit, voter, psi, filler_ranks)
        assert (fidelities[-space.d:][:space.ballots] == 1.0).all()


# every (n, d, m) whose dense table has d^(m+1) <= 4096 entries, d = n! and d > n!
_DENSE_SIZES = [(n, d, m) for n in (2, 3, 4) for d in (factorial(n), factorial(n) + 2)
                for m in range(1, 12) if d ** (m + 1) <= 4096]


@pytest.mark.parametrize("form", ["pairwise", "table"])
@pytest.mark.parametrize("n, d, m", _DENSE_SIZES)
def test_rule_backed_fidelities_match_the_dense_table(n, d, m, form):
    # the circuit reads the rule; the reference applies every entry of
    # classical_circuit_table to the full d^(m+1) input vector
    rng = np.random.default_rng(1000 * n + 10 * d + m)
    space, ray = BallotSpace(n, d), np.eye(d)
    psi = np.vstack([_random_states(rng, 3, d), ray[:factorial(n)]])
    for voter in range(m):
        rule = projection_rule(m, n, voter)
        circuit = lift_rule_to_unitary(space, rule if form == "pairwise" else rule.as_table())
        perm = classical_circuit_table(rule, d)
        filler_ranks = rng.integers(factorial(n), size=m - 1).tolist()
        fillers = [oracles.all_rankings(n)[r] for r in filler_ranks]
        fidelities = cloning_fidelities(circuit, voter, psi, fillers)
        for row, fidelity in zip(psi, fidelities):
            registers = [ray[r] for r in filler_ranks]
            registers.insert(voter, row)
            out = oracles.apply_permutation(perm, reduce(np.kron, [ray[0], *registers]))
            ideal = reduce(np.kron, [row, *registers])
            assert abs(abs(np.vdot(ideal, out)) ** 2 - fidelity) <= 1e-12
        assert (fidelities[-factorial(n):] == 1.0).all()


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        (np.ones(6) / np.sqrt(6), "rows of 6 entries"),
        (np.ones((2, 5)) / np.sqrt(5), "rows of 6 entries"),
        (np.vstack([np.eye(6)[0], np.ones(6)]), "not normalized"),
        (np.vstack([np.eye(6)[0], np.full(6, np.nan)]), "not normalized"),
    ],
    ids=["one-dimensional", "short-rows", "long-row", "nan-row"],
)
def test_batched_fidelities_check_shape_and_row_norms(amplitudes, message):
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    with pytest.raises(ValueError, match=message):
        cloning_fidelities(circ, 0, amplitudes)


# subsets that miss ray 0, ray 1 or both, and one past the ballots alone
_FIXED_SUPPORTS = [[1], [0, 1], [1, 2], [2, 3, 5], [0, 7], [6, 7], [1, 6, 7]]


@pytest.mark.parametrize("form", ["pairwise", "table"])
@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (3, 3), (2, 3), (4, 2)])
def test_fidelities_on_a_support_equal_the_dense_call(n, m, form):
    # a ray past n! goes to ancilla 0, which a support without ray 0 leaves
    # off: its image is the zero the dense row holds there
    rng = np.random.default_rng(100 * n + m)
    d = factorial(n) + 2
    space = BallotSpace(n, d)
    supports = [r for r in _FIXED_SUPPORTS if max(r) < d]
    supports += [np.sort(rng.choice(d, rng.integers(1, d + 1), replace=False)).tolist()
                 for _ in range(6)] + [list(range(d))]
    for voter in range(m):
        rule = projection_rule(m, n, voter)
        circuit = lift_rule_to_unitary(space, rule if form == "pairwise" else rule.as_table())
        fillers = [oracles.all_rankings(n)[r] for r in rng.integers(factorial(n), size=m - 1)]
        for rays in supports:
            rows = _random_states(rng, int(rng.integers(2, 6)), len(rays))
            dense = np.zeros((len(rows), d), dtype=complex)
            dense[:, rays] = rows
            on_support = cloning_fidelities(circuit, voter, rows, fillers, rays=rays)
            assert np.array_equal(on_support, cloning_fidelities(circuit, voter, dense, fillers))
            for row, fidelity in zip(dense, on_support):  # one row: the same sum to rounding
                assert abs(cloning_fidelity(circuit, voter, PureState(row, d), fillers)
                           - fidelity) <= 1e-12


@pytest.mark.parametrize(
    "rays, width, message",
    [
        ([0, 0], 2, "rays must be ascending and distinct"),
        ([1, 0], 2, "rays must be ascending and distinct"),
        ([0, 6], 2, r"rays must lie in 0\.\.5, got 0\.\.6"),
        ([-1], 1, r"rays must lie in 0\.\.5, got -1\.\.-1"),
        ([0.0, 1.0], 2, r"rays must be a flat list of integers, got float64 entries in shape \(2,\)"),
        ([[0, 1]], 2, r"rays must be a flat list of integers, got \w+ entries in shape \(1, 2\)"),
        ([0, 1], 3, "rows of 2 entries, got shape"),
    ],
    ids=["duplicate", "unsorted", "past-d", "minus-one", "non-integer", "nested", "width"],
)
def test_fidelities_refuse_a_malformed_support(rays, width, message):
    # numpy would wrap ray -1 onto ray 5 and read a wrong amplitude there
    circ = lift_rule_to_unitary(SPACE, projection_rule(2, 3, 0))
    with pytest.raises(ValueError, match=message) as refused:
        cloning_fidelities(circ, 0, np.full((2, width), width ** -0.5), rays=rays)
    assert "\n" not in str(refused.value)


def test_no_cloning_scan_past_the_ballots_matches_its_frozen_digest():
    report = no_cloning_scan(BallotSpace(3, 8), trials=300, seed=5)
    text = json.dumps(asdict(report), sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == oracles.NO_CLONING_SCAN_D8_SHA256


@pytest.mark.parametrize("m, seed", sorted(oracles.NO_CLONING_SCAN_REPORTS))
def test_no_cloning_scan_reproduces_the_frozen_reports(m, seed):
    report = no_cloning_scan(SPACE, trials=300, seed=seed, m=m)
    got = (report.min_theta, report.min_fidelity, report.basis_like_count,
           report.nonbasis_strictly_below)
    assert got == oracles.NO_CLONING_SCAN_REPORTS[m, seed]
    assert (report.trials, report.seed) == (300, seed)


def test_no_cloning_scan_finds_the_half_floor():
    report = no_cloning_scan(SPACE, trials=1000, seed=0)
    grid_theta, grid_min = oracles.grid_minimum(
        lambda t: (cos(t) ** 3 + sin(t) ** 3) ** 2, 0.0, pi / 2, 20001
    )
    assert abs(grid_min - 0.5) < 1e-9
    assert abs(report.min_fidelity - 0.5) < 1e-3
    assert abs(report.min_theta - grid_theta) < 0.05
    assert report.nonbasis_strictly_below
    assert report.trials == 1000


def test_no_cloning_scan_reproducible():
    a = no_cloning_scan(SPACE, trials=50, seed=123)
    b = no_cloning_scan(SPACE, trials=50, seed=123)
    assert a.min_fidelity == b.min_fidelity and a.min_theta == b.min_theta


def test_no_cloning_scan_explicit_states():
    basis_only = no_cloning_scan(SPACE, states=[basis_state(6, i) for i in range(6)])
    assert basis_only.min_fidelity == 1.0
    assert basis_only.basis_like_count == 6
    with_plus = no_cloning_scan(
        SPACE,
        states=[basis_state(6, 0), PureState(np.array([1, 1, 0, 0, 0, 0]) / np.sqrt(2), 6)],
    )
    assert with_plus.min_fidelity <= 0.5 + 1e-12
    # within BASIS_TOL (1e-6) of a basis ray counts as basis-like, farther does not
    near = [PureState(np.sqrt([1 - eps, 0, eps, 0, 0, 0]).astype(complex), 6)
            for eps in (1e-7, 1e-5, 1e-3)]
    report = no_cloning_scan(SPACE, states=near)
    assert report.basis_like_count == 1 and report.nonbasis_strictly_below


@pytest.mark.parametrize("kwargs", [{"trials": 0}, {"trials": -3}, {"states": []}],
                         ids=["no-trials", "negative-trials", "no-states"])
def test_no_cloning_scan_of_nothing_is_refused(kwargs):
    # a scan of nothing would certify failure vacuously, with min_fidelity = inf
    with pytest.raises(ValueError, match="needs trials >= 1 or at least one state"):
        no_cloning_scan(SPACE, **kwargs)


# ---- basis colorings ----

def test_coloring_sums():
    ok, violated = verify_ks_coloring(KSInstance(2, np.eye(2), ((0, 1),), (1, 0)))
    assert ok and violated == ()
    ok, violated = verify_ks_coloring(KSInstance(2, np.eye(2), ((0, 1),), (1, 1)))
    assert not ok and violated == ((0, 1),)
    ok, _ = verify_ks_coloring(KSInstance(2, np.eye(2), ((0, 1),), (0, 0)))
    assert not ok


def test_coloring_rejects_non_bit_colors():
    # int() would truncate 0.4 to 0, and the basis sum would pass
    with pytest.raises(ValueError, match="0 or 1"):
        KSInstance(2, np.eye(2), ((0, 1),), (1, 0.4))


def test_instance_rejects_a_nan_vector():
    # NaN fails no "> tol" test, so a NaN vector once passed as unit length
    vecs = np.eye(2, dtype=complex)
    vecs[0, 0] = np.nan
    with pytest.raises(ValueError, match="unit length"):
        KSInstance(2, vecs, ((0, 1),), (1, 0))


@pytest.mark.parametrize("dimension", [0, -1])
def test_instance_refuses_a_dimension_below_one(dimension):
    # an empty basis of dimension 0 spans it, so a coloring of it failed the check
    with pytest.raises(ValueError, match=rf"^dimension must be at least 1, got {dimension}$"):
        KSInstance(dimension, np.empty((0, 0)), ((),), ())


def test_basis_search_skips_a_nan_row():
    vecs = np.vstack([np.eye(2), [[np.nan, 0.0]]]).astype(complex)
    assert discover_orthonormal_bases(vecs) == [(0, 1)]


def test_coloring_rejects_non_orthonormal_basis():
    vecs = np.array([[1.0, 0.0], [2 ** -0.5, 2 ** -0.5]], dtype=complex)
    with pytest.raises(ValueError):
        verify_ks_coloring(KSInstance(2, vecs, ((0, 1),), (1, 0)))
    with pytest.raises(ValueError):
        verify_ks_coloring(KSInstance(2, np.eye(2), ((0,),), (1, 0)))


def test_coloring_is_monotone_safe_under_added_bases():
    vecs = np.vstack(
        [np.eye(2), [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]]
    ).astype(complex)
    one_basis = KSInstance(2, vecs, ((0, 1),), (1, 0, 1, 1))
    assert verify_ks_coloring(one_basis)[0]
    both = KSInstance(2, vecs, ((0, 1), (2, 3)), (1, 0, 1, 1))
    ok, violated = verify_ks_coloring(both)
    assert not ok and violated == ((2, 3),)


def test_dictator_instance_validates():
    rule = projection_rule(2, 3, 0)
    for profile in all_profiles(2, 3):
        inst = ks_instance_from_rule(rule, profile)
        ok, _ = verify_ks_coloring(inst)
        assert ok
        assert sum(inst.coloring) == 1


def test_instance_rejects_wrong_shape_profiles():
    rule = projection_rule(2, 3, 0)
    for profile in (((0, 1, 2),), ((0, 1, 2), (2, 1, 0), (1, 0, 2)), ((0, 1), (1, 0))):
        with pytest.raises(ValueError):
            ks_instance_from_rule(rule, profile)


def test_ks_json_round_trip():
    inst = ks_instance_from_rule(projection_rule(2, 3, 1), ((0, 1, 2), (2, 0, 1)))
    back = ks_instance_from_json_dict(inst.to_json_dict())
    assert back.dimension == inst.dimension
    assert back.bases == inst.bases and back.coloring == inst.coloring
    assert np.allclose(back.vectors, inst.vectors)


def test_discover_orthonormal_bases():
    vecs = np.vstack(
        [np.eye(2), [[2 ** -0.5, 2 ** -0.5], [2 ** -0.5, -(2 ** -0.5)]]]
    ).astype(complex)
    assert discover_orthonormal_bases(vecs) == [(0, 1), (2, 3)]


def peres_rays():
    """Peres' 24 rays in d = 4: the nonzero {0, +1, -1} vectors with one,
    two or four nonzero entries, the first of them +1, normalized."""
    rays = np.array([v for v in product((0, 1, -1), repeat=4)
                     if any(v) and v[np.flatnonzero(v)[0]] == 1 and np.count_nonzero(v) != 3])
    return rays / np.linalg.norm(rays, axis=1)[:, None]


def random_rays(seed, k, d=4):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(k, d)) + 1j * rng.normal(size=(k, d))
    return z / np.linalg.norm(z, axis=1)[:, None]


def _mixed_rays():
    vecs = np.vstack([peres_rays(), random_rays(3, 6), [[np.nan, 0, 0, 0]], np.eye(4)[:2],
                      np.eye(4)[2:] / 2])
    return vecs[np.random.default_rng(4).permutation(len(vecs))]


@pytest.mark.parametrize("vecs, tol", [
    (peres_rays(), NORM_TOL),
    (_mixed_rays(), NORM_TOL),  # shuffled: copies, strangers, short rows, a NaN row
    (random_rays(5, 24), NORM_TOL),
    (np.tile(np.eye(4), (5, 1)), NORM_TOL),  # interleaved copies: 625 bases
    (random_rays(6, 12, 2), 0.5),  # a loose tol joins near-orthogonal rays
    (random_rays(8, 14, 3), 0.6),
    # 937,872 partial cliques, 1.2 s, unless those without enough common
    # neighbours to finish are dropped; at d = 24 the same shape takes 20 s
    (np.vstack([np.eye(20), np.eye(20)[:4]]), NORM_TOL),
    (np.array([[1], [1j], [0.5], [np.nan], [-1]]), NORM_TOL),
    (np.empty((3, 0)), NORM_TOL),
    (np.eye(3)[:2], NORM_TOL),  # fewer rows than the dimension
])
def test_basis_search_matches_its_oracle(vecs, tol):
    assert discover_orthonormal_bases(vecs, tol) == oracles.orthonormal_bases(vecs, tol)


def test_basis_search_on_known_sets():
    assert len(discover_orthonormal_bases(peres_rays())) == 24
    # C(72, 4) = 1,028,790 subsets, 10-15 s for the subset oracle, which
    # gives these same lists
    assert discover_orthonormal_bases(random_rays(7, 72)) == []
    copies = np.repeat(np.eye(4), 18, axis=0)  # rows 18j..18j+17 copy e_j
    assert discover_orthonormal_bases(copies) == list(product(*np.arange(72).reshape(4, 18).tolist()))


@pytest.mark.parametrize("k", [80, 400])
def test_basis_search_admits_random_rays_past_the_subset_count(k, monkeypatch):
    # C(80, 4) = 1.6 M subsets were once refused, though the search holds
    # only the k-by-k table and finds nothing in milliseconds
    monkeypatch.delenv("ARROWQ_GUARD_OVERRIDE", raising=False)
    assert discover_orthonormal_bases(random_rays(7, k)) == []


def test_basis_search_guards_the_tables_it_holds(monkeypatch):
    monkeypatch.delenv("ARROWQ_GUARD_OVERRIDE", raising=False)
    with pytest.raises(SizeLimitError, match=r"^basis search orthogonality table k\^2 = 2099601 "):
        discover_orthonormal_bases(np.ones((1449, 2)))
    # d = 1 checks no pair, so no k-by-k table limits the rows
    assert len(discover_orthonormal_bases(np.ones((4096, 1)))) == 4096
    # 64 copies of each e_j: 64^4 = 16.8 M bases; their pairs are 24,576
    # cliques, whose common-neighbour table would hold 24,576 * 256 entries
    copies = np.repeat(np.eye(4), 64, axis=0)
    message = r"^basis search common-neighbour table cliques\*k = 6291456 exceeds the size guard 2097152 "
    tracemalloc.start()
    try:
        started = time.perf_counter()
        with pytest.raises(SizeLimitError, match=message):
            discover_orthonormal_bases(copies)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1 << 22


# ---- pairwise decomposition: one row of ballot bits per ballot ----

def test_decompose_examples():
    bits = profile_domain(1, 3).ballot_bits
    assert bits[order_rank((0, 1, 2))].tolist() == [1, 1, 1]
    assert bits[order_rank((2, 1, 0))].tolist() == [0, 0, 0]


@pytest.mark.parametrize("n", range(1, 6))
def test_decompose_injective(n):
    images = {tuple(row) for row in profile_domain(1, n).ballot_bits.tolist()}
    assert len(images) == len(enumerate_orders(n))


def test_decompose_misses_exactly_the_two_cycles_at_n3():
    images = {tuple(map(int, row)) for row in profile_domain(1, 3).ballot_bits}
    missing = {(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)} - images
    assert missing == {(1, 0, 1), (0, 1, 0)}
    for bits in missing:
        assert not oracles.tournament_is_acyclic(bits, 3)
