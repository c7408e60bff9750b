import json
from math import pi, sqrt

import numpy as np
import pytest

from arrowq import SizeLimitError
from arrowq.bell import (
    arrow_scenario_table,
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
from arrowq.social_choice import enumerate_fair_rules, find_dictator, projection_rule

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
    assert classical_bound("correlator", 1, 1) == (-1.0, 1.0)


def test_classical_bound_guard_and_errors():
    with pytest.raises(SizeLimitError):
        classical_bound("correlator", 5, 1)
    with pytest.raises(ValueError):
        classical_bound("chsh", 3, 2)
    with pytest.raises(ValueError):
        classical_bound("nope")


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
    for ballot in enumerate_orders(3):
        k, s = emb.embed(ballot)
        assert emb.ballot_for(k, s) == ballot


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
    k, s = emb.embed((0, 1, 2))
    assert np.allclose(emb.signed_axis((0, 1, 2)), s * axes[k])


# ---- watched-voter tables ----

def test_dictator_watched_gives_unit_diagonal():
    for rule in enumerate_fair_rules(2, 3):
        table = arrow_scenario_table(rule, watched=find_dictator(rule))
        for k in range(3):
            assert table.entry(k, k) == 1.0
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert table.entry(i, j) is None


def test_non_dictator_watched_decorrelates():
    table = arrow_scenario_table(projection_rule(2, 3, 0), watched=1)
    for i in range(3):
        for j in range(3):
            assert table.entry(i, j) == 0.0
    assert np.allclose(table.alice_plus, 0.5)
    assert np.allclose(table.bob_plus, 0.5)
    assert abs(table.weights.sum() - 1.0) < 1e-12


def test_point_distribution_gives_deterministic_entries():
    rule = projection_rule(2, 3, 0)
    table = arrow_scenario_table(rule, distribution={14: 1.0}, watched=1)
    defined = [
        table.entry(i, j)
        for i in range(3)
        for j in range(3)
        if table.entry(i, j) is not None
    ]
    assert len(defined) == 1 and defined[0] in (-1.0, 1.0)


def test_distribution_validation():
    rule = projection_rule(2, 3, 0)
    with pytest.raises(ValueError):
        arrow_scenario_table(rule, distribution={0: 0.5})
    with pytest.raises(ValueError):
        arrow_scenario_table(rule, distribution={99: 1.0})
    with pytest.raises(ValueError):
        arrow_scenario_table(projection_rule(2, 4, 0))


def test_table_json_shape():
    table = arrow_scenario_table(projection_rule(2, 3, 0), watched=0)
    data = table.to_json_dict()
    assert data["E"][0][1] is None
    assert data["E"][0][0] == 1.0


# ---- optimizer ----

def test_optimizer_budget_one_returns_initial_value():
    axes0 = chsh_optimal_axes()
    _, val = maximize_violation("chsh", initial_axes=axes0, budget=1)
    assert abs(val - chsh_value(singlet_state(), *axes0).value) < 1e-15


def test_optimizer_fixed_point_at_optimum():
    axes0 = chsh_optimal_axes()
    _, val = maximize_violation("chsh", initial_axes=axes0, budget=2000)
    assert abs(val - TSIRELSON) < 1e-12


def test_optimizer_reaches_tsirelson_from_seeded_random_start():
    axes, val = maximize_violation("chsh", seed=0, budget=10_000)
    assert abs(val - TSIRELSON) < 1e-6
    direct = chsh_value(singlet_state(), *axes)
    assert abs(direct.value - val) < 1e-12


def test_optimizer_never_below_start():
    start = (Z, Z, Z, Z)
    base = chsh_value(singlet_state(), *start).value
    for budget in (1, 5, 40, 300):
        _, val = maximize_violation("chsh", initial_axes=start, budget=budget)
        assert val >= base - 1e-15


def test_optimizer_deterministic():
    a = maximize_violation("chsh", seed=7, budget=500)
    b = maximize_violation("chsh", seed=7, budget=500)
    assert a[1] == b[1]
    assert all(np.array_equal(x, y) for x, y in zip(a[0], b[0]))


def test_optimizer_ch_expression():
    _, val = maximize_violation("ch", seed=0, budget=10_000)
    assert abs(val - (sqrt(2) - 1) / 2) < 1e-6


def test_optimizer_ch_runs_the_chsh_search():
    ch_axes, ch = maximize_violation("ch", seed=5, budget=400)
    chsh_axes, s = maximize_violation("chsh", seed=5, budget=400)
    assert all(np.array_equal(x, y) for x, y in zip(ch_axes, chsh_axes))
    assert ch == (s - 2.0) / 4.0


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
