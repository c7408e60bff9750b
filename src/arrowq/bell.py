"""Two-party spin correlation experiments built around voting: the
six-ballot spin-1/2 embedding for three alternatives, CHSH and CH
inequality values on shared two-qubit states, exact classical bounds by
enumerating local deterministic strategies, correlation tables for a
watched-voter vs outcome scenario, and a derivative-free search for
maximal quantum violations.

Axis convention: measurement directions are unit 3-vectors; each party's
observable is the spin projection axis . sigma with outcomes +1/-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import acos, atan2, cos, pi, sin, sqrt
from typing import Optional

import numpy as np

from ._guards import check_guard
from .hilbert import PureState
from .orders import LinearOrder, enumerate_orders, reverse_order
from .social_choice import VotingRule, profile_domain

AXIS_TOL = 1e-12
VIOLATION_TOL = 1e-9

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def unit_axis(v) -> np.ndarray:
    """Validate a measurement direction: a unit 3-vector."""
    axis = np.asarray(v, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    if abs(float(np.linalg.norm(axis)) - 1.0) > AXIS_TOL:
        raise ValueError(f"axis {axis.tolist()} is not unit length")
    return axis


def spin_observable(axis) -> np.ndarray:
    axis = unit_axis(axis)
    return axis[0] * PAULI[0] + axis[1] * PAULI[1] + axis[2] * PAULI[2]


def singlet_state() -> PureState:
    """(|01> - |10>)/sqrt(2), the maximally anticorrelated two-qubit state."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / sqrt(2.0)
    return PureState(amps, 2, 2)


def _two_qubit(state: PureState) -> np.ndarray:
    if state.amplitudes.shape != (4,):
        raise ValueError("expected a two-qubit state with 4 amplitudes")
    return state.amplitudes


def measurement_correlation(state: PureState, a, b) -> float:
    """Expected product of the +-1 outcomes along axes a and b."""
    psi = _two_qubit(state)
    op = np.kron(spin_observable(a), spin_observable(b))
    return float(np.real(np.vdot(psi, op @ psi)))


def _projector_plus(axis) -> np.ndarray:
    return (np.eye(2, dtype=complex) + spin_observable(axis)) / 2.0


def joint_plus_probability(state: PureState, a, b) -> float:
    """P(+1, +1) for measurements along a (first qubit) and b (second)."""
    psi = _two_qubit(state)
    op = np.kron(_projector_plus(a), _projector_plus(b))
    return float(np.real(np.vdot(psi, op @ psi)))


def alice_plus_probability(state: PureState, a) -> float:
    psi = _two_qubit(state)
    op = np.kron(_projector_plus(a), np.eye(2, dtype=complex))
    return float(np.real(np.vdot(psi, op @ psi)))


def bob_plus_probability(state: PureState, b) -> float:
    psi = _two_qubit(state)
    op = np.kron(np.eye(2, dtype=complex), _projector_plus(b))
    return float(np.real(np.vdot(psi, op @ psi)))


# ---- inequality values ----

@dataclass(frozen=True)
class InequalityResult:
    """One inequality evaluation with its exact classical window."""

    name: str
    value: float
    classical_lower: float
    classical_upper: float
    violated: bool
    axes_used: tuple

    def to_json_dict(self) -> dict:
        alice, bob = self.axes_used
        return {
            "name": self.name,
            "value": self.value,
            "classical_lower": self.classical_lower,
            "classical_upper": self.classical_upper,
            "violated": self.violated,
            "axes": {
                "alice": [[float(x) for x in ax] for ax in alice],
                "bob": [[float(x) for x in ax] for ax in bob],
            },
        }


def _result(name, value, lower, upper, axes) -> InequalityResult:
    violated = value < lower - VIOLATION_TOL or value > upper + VIOLATION_TOL
    return InequalityResult(name, value, lower, upper, violated, axes)


def chsh_value(state: PureState, a1, a2, b1, b2) -> InequalityResult:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2); local bound |S| <= 2."""
    a1, a2, b1, b2 = (unit_axis(v) for v in (a1, a2, b1, b2))
    s = (
        measurement_correlation(state, a1, b1)
        + measurement_correlation(state, a1, b2)
        + measurement_correlation(state, a2, b1)
        - measurement_correlation(state, a2, b2)
    )
    return _result("CHSH", s, -2.0, 2.0, ((a1, a2), (b1, b2)))


def ch_value(state: PureState, a1, a2, b1, b2) -> InequalityResult:
    """Probability form on +1 outcomes,

        CH = P(a1,b1) + P(a1,b2) + P(a2,b1) - P(a2,b2) - P(a1) - P(b1),

    bounded by [-1, 0] for local strategies and tied to the correlator form
    by CH = (S - 2)/4 on any shared state, same axes.
    """
    a1, a2, b1, b2 = (unit_axis(v) for v in (a1, a2, b1, b2))
    value = (
        joint_plus_probability(state, a1, b1)
        + joint_plus_probability(state, a1, b2)
        + joint_plus_probability(state, a2, b1)
        - joint_plus_probability(state, a2, b2)
        - alice_plus_probability(state, a1)
        - bob_plus_probability(state, b1)
    )
    return _result("CH", value, -1.0, 0.0, ((a1, a2), (b1, b2)))


def chsh_optimal_axes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coplanar axes at 45-degree steps giving S = +2 sqrt(2) on the singlet."""
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b1 = -(z + x) / sqrt(2.0)
    b2 = (x - z) / sqrt(2.0)
    return z, x, b1, b2


def classical_bound(
    expression: str, alice_settings: int = 2, bob_settings: int = 2
) -> tuple[float, float]:
    """Exact (min, max) of an expression over local deterministic strategies:
    every assignment of a fixed +-1 outcome to each setting of each party."""
    if alice_settings < 1 or bob_settings < 1:
        raise ValueError("each party needs at least one setting")
    check_guard(alice_settings, 4, "deterministic-strategy settings per party")
    check_guard(bob_settings, 4, "deterministic-strategy settings per party")
    expr = expression.lower()
    if expr in ("chsh", "ch") and (alice_settings, bob_settings) != (2, 2):
        raise ValueError(f"{expression} needs exactly 2 settings per party")
    lo, hi = np.inf, -np.inf
    for alpha in product((-1.0, 1.0), repeat=alice_settings):
        for beta in product((-1.0, 1.0), repeat=bob_settings):
            if expr == "chsh":
                val = (
                    alpha[0] * beta[0]
                    + alpha[0] * beta[1]
                    + alpha[1] * beta[0]
                    - alpha[1] * beta[1]
                )
            elif expr == "ch":
                p = [[(1 + a) * (1 + b) / 4.0 for b in beta] for a in alpha]
                val = (
                    p[0][0] + p[0][1] + p[1][0] - p[1][1]
                    - (1 + alpha[0]) / 2.0
                    - (1 + beta[0]) / 2.0
                )
            elif expr == "correlator":
                val = alpha[0] * beta[0]
            else:
                raise ValueError(f"unknown expression {expression!r}")
            lo, hi = min(lo, val), max(hi, val)
    return float(lo), float(hi)


# ---- ballot embedding ----

@dataclass(frozen=True, eq=False)
class BallotEmbedding:
    """Bijection from the 6 ballots on 3 alternatives to (axis, sign) pairs
    over 3 measurement axes; reversing a ballot flips the sign only."""

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]
    assignment: dict

    def __post_init__(self):
        axes = tuple(unit_axis(a) for a in self.axes)
        object.__setattr__(self, "axes", axes)
        assignment = {
            tuple(ballot): (int(k), int(s)) for ballot, (k, s) in self.assignment.items()
        }
        object.__setattr__(self, "assignment", assignment)
        ballots = set(enumerate_orders(3))
        if set(assignment) != ballots:
            raise ValueError("assignment must cover exactly the 6 ballots on 3 alternatives")
        targets = set(assignment.values())
        expected = {(k, s) for k in range(3) for s in (1, -1)}
        if targets != expected:
            raise ValueError("assignment must hit each (axis, sign) pair exactly once")
        for ballot in ballots:
            k, s = assignment[ballot]
            kr, sr = assignment[reverse_order(ballot)]
            if kr != k or sr != -s:
                raise ValueError(f"reversal of {ballot} must flip the sign on the same axis")

    def embed(self, ballot: LinearOrder) -> tuple[int, int]:
        """(axis index 0..2, sign +-1) for one ballot."""
        return self.assignment[tuple(ballot)]

    def ballot_for(self, axis: int, sign: int) -> LinearOrder:
        for ballot, (k, s) in self.assignment.items():
            if (k, s) == (axis, sign):
                return ballot
        raise KeyError((axis, sign))

    def signed_axis(self, ballot: LinearOrder) -> np.ndarray:
        k, s = self.embed(ballot)
        return s * self.axes[k]


def default_embedding(axes=None) -> BallotEmbedding:
    """The fixed six-ballot assignment over three orthogonal axes.

    Ballot (0,1,2) sits on axis 1 with sign +, its reverse (2,1,0) on
    axis 1 with sign -; (2,0,1)/(1,0,2) take axis 0 and (1,2,0)/(0,2,1)
    take axis 2, again with reversal flipping the sign.
    """
    if axes is None:
        axes = (
            np.array([1.0, 0.0, 0.0]),
            np.array([0.0, 1.0, 0.0]),
            np.array([0.0, 0.0, 1.0]),
        )
    assignment = {
        (0, 1, 2): (1, 1),
        (2, 1, 0): (1, -1),
        (2, 0, 1): (0, 1),
        (1, 0, 2): (0, -1),
        (1, 2, 0): (2, 1),
        (0, 2, 1): (2, -1),
    }
    return BallotEmbedding(tuple(axes), assignment)


# ---- watched-voter correlation tables ----

@dataclass(frozen=True, eq=False)
class CorrelationTable:
    """Per-axis-pair correlations between a watched voter and the outcome.

    entries are conditional on the axis pair occurring; pairs with zero
    weight are absent (NaN) rather than zero.
    """

    E: np.ndarray
    alice_plus: np.ndarray
    bob_plus: np.ndarray
    weights: np.ndarray

    def entry(self, i: int, j: int) -> Optional[float]:
        v = float(self.E[i, j])
        return None if np.isnan(v) else v

    def to_json_dict(self) -> dict:
        def cell(v):
            return None if np.isnan(v) else float(v)

        return {
            "E": [[cell(v) for v in row] for row in self.E],
            "alice_plus": [cell(v) for v in self.alice_plus],
            "bob_plus": [cell(v) for v in self.bob_plus],
            "weights": [[float(v) for v in row] for row in self.weights],
        }


def arrow_scenario_table(
    rule: VotingRule,
    distribution=None,
    embedding: Optional[BallotEmbedding] = None,
    watched: int = 0,
) -> CorrelationTable:
    """Correlations between the watched voter's embedded ballot sign and the
    embedded outcome sign, conditioned on each axis pair.

    distribution maps profile index (all_profiles order) to weight; the
    default is uniform.  Weights must be nonnegative and sum to 1.
    """
    m, n = rule.voters, rule.alternatives
    if n != 3:
        raise ValueError("the six-ballot embedding needs exactly 3 alternatives")
    if not 0 <= watched < m:
        raise ValueError(f"watched voter {watched} out of range")
    if embedding is None:
        embedding = default_embedding()

    domain = profile_domain(m, n)
    total = len(domain.ballot_ranks)
    weights = np.full(total, 1.0 / total)
    if distribution is not None:
        weights = np.zeros(total)
        items = distribution.items() if hasattr(distribution, "items") else enumerate(distribution)
        for idx, w in items:
            idx = int(idx)
            if not 0 <= idx < total:
                raise ValueError(f"profile index {idx} out of range")
            weights[idx] = float(w)
        if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-9:
            raise ValueError("distribution must be nonnegative and sum to 1")

    used = weights > 0
    outcomes = rule.outcome_ranks[used]
    if (outcomes < 0).any():
        raise ValueError("distribution weighs a profile outside the rule's domain")
    # (axis, sign) per ballot rank; bincount adds in profile order
    embedded = np.array([embedding.embed(b) for b in enumerate_orders(3)])
    (ka, sa), (kb, sb) = embedded[domain.ballot_ranks[used, watched]].T, embedded[outcomes].T
    w = weights[used]
    w_joint = np.bincount(3 * ka + kb, w, 9).reshape(3, 3)
    prod_sum = np.bincount(3 * ka + kb, w * sa * sb, 9).reshape(3, 3)
    w_alice = np.bincount(ka, w, 3)
    plus_alice = np.bincount(ka, w * (sa > 0), 3)
    w_bob = np.bincount(kb, w, 3)
    plus_bob = np.bincount(kb, w * (sb > 0), 3)

    with np.errstate(invalid="ignore", divide="ignore"):
        E = np.where(w_joint > 0, prod_sum / np.where(w_joint > 0, w_joint, 1.0), np.nan)
        pa = np.where(w_alice > 0, plus_alice / np.where(w_alice > 0, w_alice, 1.0), np.nan)
        pb = np.where(w_bob > 0, plus_bob / np.where(w_bob > 0, w_bob, 1.0), np.nan)
    return CorrelationTable(E, pa, pb, w_joint)


# ---- scenarios ----

@dataclass(frozen=True, eq=False)
class TwoPartyScenario:
    """Measurement axes per party plus the shared two-qubit state."""

    alice_axes: tuple
    bob_axes: tuple
    state: PureState

    def __post_init__(self):
        object.__setattr__(self, "alice_axes", tuple(unit_axis(a) for a in self.alice_axes))
        object.__setattr__(self, "bob_axes", tuple(unit_axis(b) for b in self.bob_axes))
        if not self.alice_axes or not self.bob_axes:
            raise ValueError("each party needs at least one axis")
        _two_qubit(self.state)

    def to_json_dict(self) -> dict:
        return {
            "alice_axes": [[float(x) for x in a] for a in self.alice_axes],
            "bob_axes": [[float(x) for x in b] for b in self.bob_axes],
            "state": [
                [float(z.real), float(z.imag)] for z in self.state.amplitudes
            ],
        }


def default_scenario() -> TwoPartyScenario:
    a1, a2, b1, b2 = chsh_optimal_axes()
    return TwoPartyScenario((a1, a2), (b1, b2), singlet_state())


def scenario_from_json_dict(data: dict) -> TwoPartyScenario:
    base = default_scenario()
    try:
        alice = tuple(
            np.asarray(a, dtype=float) for a in data.get("alice_axes", base.alice_axes)
        )
        bob = tuple(
            np.asarray(b, dtype=float) for b in data.get("bob_axes", base.bob_axes)
        )
        if "state" in data:
            amps = np.array([complex(re, im) for re, im in data["state"]], dtype=complex)
            state = PureState(amps, 2, 2)
        else:
            state = base.state
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed scenario: {exc}") from exc
    return TwoPartyScenario(alice, bob, state)


# ---- violation search ----

def _axis_from_angles(theta: float, phi: float) -> np.ndarray:
    return np.array([sin(theta) * cos(phi), sin(theta) * sin(phi), cos(theta)])


def _angles_from_axis(axis) -> tuple[float, float]:
    axis = unit_axis(axis)
    theta = acos(min(1.0, max(-1.0, float(axis[2]))))
    phi = atan2(float(axis[1]), float(axis[0]))
    return theta, phi


def maximize_violation(
    expression: str,
    state: Optional[PureState] = None,
    initial_axes=None,
    budget: int = 10_000,
    seed: int = 0,
    min_step: float = 1e-9,
):
    """Derivative-free search for axes maximizing a CHSH or CH value.

    Coordinate ascent over the 8 spherical angles of the four axes with a
    geometrically shrinking step; once the step collapses the search
    restarts from a seeded random point, keeping the best axes seen.  The
    result never falls below the value at the initial axes, and a fixed
    (seed, budget) pair always reproduces the same output.  CH is maximized
    by the same CHSH search: CH = (S - 2)/4 on any state and axes.
    """
    if budget < 1:
        raise ValueError("budget must be at least 1 evaluation")
    expr = expression.lower()
    if expr not in ("chsh", "ch"):
        raise ValueError(f"unknown expression {expression!r}")
    if state is None:
        state = singlet_state()
    rng = np.random.default_rng(seed)

    def random_angles():
        return [float(rng.uniform(0.0, pi)) if i % 2 == 0 else float(rng.uniform(0.0, 2 * pi))
                for i in range(8)]

    if initial_axes is None:
        angles = random_angles()
    else:
        if len(initial_axes) != 4:
            raise ValueError("need four axes: a1, a2, b1, b2")
        angles = []
        for axis in initial_axes:
            theta, phi = _angles_from_axis(axis)
            angles.extend([theta, phi])

    evals = 0

    def value_at(angs):
        nonlocal evals
        evals += 1
        axes = [_axis_from_angles(angs[2 * i], angs[2 * i + 1]) for i in range(4)]
        return chsh_value(state, *axes).value

    best_angles = list(angles)
    best_value = value_at(best_angles)
    cur_angles, cur_value = list(best_angles), best_value
    step = pi / 4

    while evals < budget:
        improved = False
        for i in range(8):
            if evals >= budget:
                break
            for delta in (step, -step):
                if evals >= budget:
                    break
                trial = list(cur_angles)
                trial[i] += delta
                v = value_at(trial)
                if v > cur_value:
                    cur_angles, cur_value = trial, v
                    improved = True
                    break
        if cur_value > best_value:
            best_angles, best_value = list(cur_angles), cur_value
        if not improved:
            step *= 0.5
            if step < min_step:
                if evals >= budget:
                    break
                cur_angles = random_angles()
                cur_value = value_at(cur_angles)
                if cur_value > best_value:
                    best_angles, best_value = list(cur_angles), cur_value
                step = pi / 4

    axes = tuple(_axis_from_angles(best_angles[2 * i], best_angles[2 * i + 1]) for i in range(4))
    if expr == "ch":
        best_value = (best_value - 2.0) / 4.0
    return axes, float(best_value)
