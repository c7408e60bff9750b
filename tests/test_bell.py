import json
from math import cos, pi, sin, sqrt

import numpy as np
import pytest

from arrowq.bell import (
    ch_value,
    chsh_optimal_axes,
    chsh_value,
    classical_bound,
    default_embedding,
    default_scenario,
    joint_plus_probability,
    maximize_violation,
    measurement_correlation,
    scenario_from_json_dict,
    singlet_state,
    unit_axis,
)
from arrowq.hilbert import PureState
from arrowq.orders import enumerate_orders, reverse_order

import oracles

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])
TSIRELSON = 2 * sqrt(2.0)

# the fixed ballot -> (axis, sign) table; reverses pair up on each axis
EMBEDDING_ASSIGNMENTS = {
    (0, 1, 2): (1, 1),
    (2, 1, 0): (1, -1),
    (2, 0, 1): (0, 1),
    (1, 0, 2): (0, -1),
    (1, 2, 0): (2, 1),
    (0, 2, 1): (2, -1),
}


def random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_state(rng):
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    return PureState(amps / np.linalg.norm(amps), 2, 2)


# ---- correlators ----

def test_singlet_anticorrelation_and_orthogonality():
    s = singlet_state()
    assert abs(measurement_correlation(s, Z, Z) + 1.0) < 1e-12
    assert abs(measurement_correlation(s, Z, X)) < 1e-12


def test_singlet_correlator_is_minus_dot_product():
    s = singlet_state()
    rng = np.random.default_rng(42)
    for _ in range(1000):
        a, b = random_axis(rng), random_axis(rng)
        assert abs(measurement_correlation(s, a, b) + float(a @ b)) < 1e-10


def test_joint_plus_probability_singlet():
    s = singlet_state()
    assert abs(joint_plus_probability(s, Z, Z)) < 1e-12
    assert abs(joint_plus_probability(s, Z, -Z) - 0.5) < 1e-12


def test_axis_validation():
    with pytest.raises(ValueError):
        unit_axis([1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        unit_axis([1.0, 0.0])
    with pytest.raises(ValueError):
        unit_axis([float("nan"), 0.0, 0.0])


def test_values_match_kron_product_reference():
    rng = np.random.default_rng(29)
    for _ in range(200):
        state = random_state(rng)
        psi = state.amplitudes
        a1, a2, b1, b2 = (random_axis(rng) for _ in range(4))
        assert abs(measurement_correlation(state, a1, b1) - oracles.kron_correlation(psi, a1, b1)) < 1e-12
        assert abs(joint_plus_probability(state, a1, b1) - oracles.kron_joint_plus(psi, a1, b1)) < 1e-12
        assert abs(chsh_value(state, a1, a2, b1, b2).value - oracles.kron_chsh(psi, a1, a2, b1, b2)) < 1e-12
        assert abs(ch_value(state, a1, a2, b1, b2).value - oracles.kron_ch(psi, a1, a2, b1, b2)) < 1e-12


# ---- inequality values ----

def test_chsh_at_optimal_axes_reaches_tsirelson():
    r = chsh_value(singlet_state(), *chsh_optimal_axes())
    assert abs(r.value - TSIRELSON) < 1e-9
    assert r.violated
    assert (r.classical_lower, r.classical_upper) == (-2.0, 2.0)


def test_chsh_degenerate_axes():
    r = chsh_value(singlet_state(), Z, Z, Z, Z)
    assert abs(abs(r.value) - 2.0) < 1e-12
    assert not r.violated


def test_ch_at_optimal_axes():
    c = ch_value(singlet_state(), *chsh_optimal_axes())
    assert abs(c.value - (sqrt(2) - 1) / 2) < 1e-6
    assert c.violated
    assert (c.classical_lower, c.classical_upper) == (-1.0, 0.0)


def test_ch_chsh_identity_on_random_states_and_axes():
    rng = np.random.default_rng(3)
    for _ in range(50):
        amps = rng.normal(size=4) + 1j * rng.normal(size=4)
        amps /= np.linalg.norm(amps)
        state = PureState(amps, 2, 2)
        axes = [random_axis(rng) for _ in range(4)]
        s = chsh_value(state, *axes).value
        c = ch_value(state, *axes).value
        assert abs(c - (s - 2.0) / 4.0) < 1e-10


def test_chsh_never_exceeds_tsirelson_on_product_states():
    rng = np.random.default_rng(11)
    zero = PureState(np.array([1, 0, 0, 0], dtype=complex), 2, 2)
    for _ in range(200):
        axes = [random_axis(rng) for _ in range(4)]
        assert abs(chsh_value(zero, *axes).value) <= 2.0 + 1e-9


# ---- classical bounds ----

def test_classical_bounds_exact():
    assert classical_bound("chsh") == (-2.0, 2.0)
    assert classical_bound("ch") == (-1.0, 0.0)


def test_classical_bound_guard_and_errors():
    for expression in ("nope", "correlator"):
        with pytest.raises(ValueError, match="unknown expression"):
            classical_bound(expression)


def test_deterministic_strategies_hit_ch_endpoints():
    # all-plus strategy sits on the upper CH boundary
    plus = [[1.0, 1.0], [1.0, 1.0]]
    val = plus[0][0] + plus[0][1] + plus[1][0] - plus[1][1] - 1.0 - 1.0
    assert val == 0.0


# ---- embedding ----

def test_default_embedding_matches_fixed_assignment():
    emb = default_embedding()
    for ballot, target in EMBEDDING_ASSIGNMENTS.items():
        assert emb.embed(ballot) == target


def test_embedding_reversal_flips_sign_keeps_axis():
    emb = default_embedding()
    for ballot in enumerate_orders(3):
        k, s = emb.embed(ballot)
        kr, sr = emb.embed(reverse_order(ballot))
        assert (kr, sr) == (k, -s)


def test_embedding_round_trip():
    emb = default_embedding()
    ballot_for = {target: ballot for ballot, target in emb.assignment.items()}
    assert len(ballot_for) == 6
    for ballot in enumerate_orders(3):
        assert ballot_for[emb.embed(ballot)] == ballot


def test_embedding_rejects_broken_assignments():
    from arrowq.bell import BallotEmbedding

    axes = (X, np.array([0.0, 1.0, 0.0]), Z)
    bad = dict(EMBEDDING_ASSIGNMENTS)
    bad[(0, 1, 2)], bad[(2, 1, 0)] = (1, 1), (2, -1)  # breaks bijectivity
    with pytest.raises(ValueError):
        BallotEmbedding(axes, bad)


def test_embedding_custom_axes():
    axes = (Z, X, np.array([0.0, 1.0, 0.0]))
    emb = default_embedding(axes)
    k, s = emb.embed((0, 1, 2))  # axis 1, sign +
    assert np.array_equal(s * emb.axes[k], X)


# ---- optimizer ----

def test_optimizer_reaches_tsirelson_from_seeded_random_start():
    axes, val = maximize_violation("chsh")
    assert abs(val - TSIRELSON) < 1e-12
    direct = chsh_value(singlet_state(), *axes)
    assert abs(direct.value - val) < 1e-12


def test_optimizer_ch_expression():
    _, val = maximize_violation("ch")
    assert abs(val - (sqrt(2) - 1) / 2) < 1e-12


def test_optimizer_ch_runs_the_chsh_search():
    ch_axes, ch = maximize_violation("ch")
    chsh_axes, s = maximize_violation("chsh")
    assert all(np.array_equal(x, y) for x, y in zip(ch_axes, chsh_axes))
    assert ch == (s - 2.0) / 4.0


def test_optimum_on_schmidt_states_is_horodecki_closed_form():
    for t in (0.0, 0.1, pi / 8, 0.5, pi / 4, 1.2):
        amps = np.array([cos(t), 0.0, 0.0, sin(t)], dtype=complex)
        state = PureState(amps, 2, 2)
        axes, val = maximize_violation("chsh", state)
        assert abs(val - 2 * sqrt(1 + sin(2 * t) ** 2)) < 1e-12
        assert abs(chsh_value(state, *axes).value - val) < 1e-12


def test_no_random_axes_beat_the_optimum():
    rng = np.random.default_rng(17)
    for _ in range(3):
        state = random_state(rng)
        axes, best = maximize_violation("chsh", state)
        assert abs(chsh_value(state, *axes).value - best) < 1e-12
        _, best_ch = maximize_violation("ch", state)
        for _ in range(2000):
            quad = [random_axis(rng) for _ in range(4)]
            assert chsh_value(state, *quad).value <= best + 1e-12
            assert ch_value(state, *quad).value <= best_ch + 1e-12


# ---- scenario serialization ----

def test_scenario_round_trip():
    sc = default_scenario()
    back = scenario_from_json_dict(json.loads(json.dumps(sc.to_json_dict())))
    assert all(np.allclose(a, b) for a, b in zip(sc.alice_axes, back.alice_axes))
    assert all(np.allclose(a, b) for a, b in zip(sc.bob_axes, back.bob_axes))
    assert np.allclose(sc.state.amplitudes, back.state.amplitudes)


def test_scenario_defaults_fill_missing_keys():
    sc = scenario_from_json_dict({})
    assert len(sc.alice_axes) == 2 and len(sc.bob_axes) == 2
    r = chsh_value(sc.state, *sc.alice_axes, *sc.bob_axes)
    assert abs(r.value - TSIRELSON) < 1e-9


def test_scenario_rejects_garbage():
    with pytest.raises(ValueError):
        scenario_from_json_dict({"alice_axes": [[1, 0, 0], [3, "x", 0]]})
    with pytest.raises(ValueError):
        scenario_from_json_dict({"state": [[1, 0], [0, 0], [0, 0]]})
