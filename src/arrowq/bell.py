"""Two-party spin correlation experiments built around voting: the
six-ballot spin-1/2 embedding for three alternatives, CHSH and CH
inequality values on shared two-qubit states, exact classical bounds by
enumerating local deterministic strategies, and the closed-form maximal
quantum violation.

Axis convention: measurement directions are unit 3-vectors; each party's
observable is the spin projection axis . sigma with outcomes +1/-1.

Every value is read off the state's Bloch vectors r_A, r_B and its 3x3
correlation matrix T: E(a, b) = a^T T b and P(+1 along a) = (1 + r_A . a)/2.
The maximal CHSH value is 2 sqrt(s1^2 + s2^2) over the two largest
singular values of T (R., P. & M. Horodecki, Phys. Lett. A 200, 340, 1995).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import hypot, sqrt
from typing import Optional

import numpy as np

from ._guards import amplitudes_to_json, json_amplitudes, json_floats
from .hilbert import PureState
from .orders import LinearOrder, enumerate_orders, reverse_order

AXIS_TOL = 1e-12
VIOLATION_TOL = 1e-9

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# identity, then the Pauli matrices: index 0 stands for "no measurement"
_SIGMA = np.array((np.eye(2), *PAULI))


def unit_axis(v) -> np.ndarray:
    """Validate a measurement direction: a finite unit 3-vector."""
    axis = np.asarray(v, dtype=float)
    if axis.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    # sqrt(a . a) is np.linalg.norm of a real 1-D array, without its wrapper
    if not abs(sqrt(axis.dot(axis)) - 1.0) <= AXIS_TOL:  # NaN and inf fail too
        raise ValueError(f"axis {axis.tolist()} is not a finite unit vector")
    return axis


def singlet_state() -> PureState:
    """(|01> - |10>)/sqrt(2), the maximally anticorrelated two-qubit state."""
    amps = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / sqrt(2.0)
    return PureState(amps, 2, 2)


def _two_qubit(state: PureState) -> np.ndarray:
    if state.amplitudes.shape != (4,):
        raise ValueError("expected a two-qubit state with 4 amplitudes")
    return state.amplitudes


def _bloch(state: PureState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r_A, r_B, T): r_A[i] = <sigma_i x 1>, r_B[j] = <1 x sigma_j> and
    T[i, j] = <sigma_i x sigma_j> on the state."""
    psi = _two_qubit(state).reshape(2, 2)
    moments = np.einsum("ab,mac,nbd,cd->mn", psi.conj(), _SIGMA, _SIGMA, psi).real
    return moments[1:, 0], moments[0, 1:], moments[1:, 1:]


def _joint_plus(bloch, a, b) -> float:
    r_a, r_b, t = bloch
    return float(1.0 + r_a @ a + r_b @ b + a @ t @ b) / 4.0


def measurement_correlation(state: PureState, a, b) -> float:
    """Expected product of the +-1 outcomes along axes a and b: a^T T b."""
    _, _, t = _bloch(state)
    return float(unit_axis(a) @ t @ unit_axis(b))


def joint_plus_probability(state: PureState, a, b) -> float:
    """P(+1, +1) for measurements along a (first qubit) and b (second)."""
    return _joint_plus(_bloch(state), unit_axis(a), unit_axis(b))


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
            "axes": {"alice": [ax.tolist() for ax in alice], "bob": [ax.tolist() for ax in bob]},
        }


def _result(name, value, lower, upper, axes) -> InequalityResult:
    violated = value < lower - VIOLATION_TOL or value > upper + VIOLATION_TOL
    return InequalityResult(name, value, lower, upper, violated, axes)


def _inequalities(state: PureState, axes=None) -> tuple[InequalityResult, InequalityResult]:
    """The CHSH and CH results on one Bloch decomposition of the state, at
    axes (a1, a2, b1, b2) that unit_axis has already checked, or, with axes
    None, at maximize_violation's axes, each checked here once."""
    bloch = _bloch(state)
    if axes is None:
        axes = tuple(map(unit_axis, _optimal_axes(bloch[2])[0]))
    return _chsh(bloch, *axes), _ch(bloch, *axes)


def _chsh(bloch, a1, a2, b1, b2) -> InequalityResult:
    _, _, t = bloch
    s = float(a1 @ t @ (b1 + b2) + a2 @ t @ (b1 - b2))
    return _result("CHSH", s, -2.0, 2.0, ((a1, a2), (b1, b2)))


def _ch(bloch, a1, a2, b1, b2) -> InequalityResult:
    r_a, r_b, _ = bloch
    value = (
        _joint_plus(bloch, a1, b1)
        + _joint_plus(bloch, a1, b2)
        + _joint_plus(bloch, a2, b1)
        - _joint_plus(bloch, a2, b2)
        - float(1.0 + r_a @ a1) / 2.0
        - float(1.0 + r_b @ b1) / 2.0
    )
    return _result("CH", value, -1.0, 0.0, ((a1, a2), (b1, b2)))


def chsh_value(state: PureState, a1, a2, b1, b2) -> InequalityResult:
    """S = E(a1,b1) + E(a1,b2) + E(a2,b1) - E(a2,b2); local bound |S| <= 2."""
    axes = tuple(map(unit_axis, (a1, a2, b1, b2)))
    return _chsh(_bloch(state), *axes)


def ch_value(state: PureState, a1, a2, b1, b2) -> InequalityResult:
    """Probability form on +1 outcomes,

        CH = P(a1,b1) + P(a1,b2) + P(a2,b1) - P(a2,b2) - P(a1) - P(b1),

    bounded by [-1, 0] for local strategies and tied to the correlator form
    by CH = (S - 2)/4 on any shared state, same axes.
    """
    axes = tuple(map(unit_axis, (a1, a2, b1, b2)))
    return _ch(_bloch(state), *axes)


def chsh_optimal_axes() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Coplanar axes at 45-degree steps giving S = +2 sqrt(2) on the singlet."""
    z = np.array([0.0, 0.0, 1.0])
    x = np.array([1.0, 0.0, 0.0])
    b1 = -(z + x) / sqrt(2.0)
    b2 = (x - z) / sqrt(2.0)
    return z, x, b1, b2


def classical_bound(expression: str) -> tuple[float, float]:
    """Exact (min, max) of an expression over local deterministic strategies:
    every assignment of a fixed +-1 outcome to each of the two settings of
    each party."""
    expr = expression.lower()
    strategies = product((-1.0, 1.0), repeat=4)  # outcomes (a1, a2, b1, b2)
    if expr == "chsh":
        values = [a1 * b1 + a1 * b2 + a2 * b1 - a2 * b2 for a1, a2, b1, b2 in strategies]
    elif expr == "ch":
        # P(+1, +1) at settings (i, j) is (1 + a_i)(1 + b_j)/4, P(+1) at a1 is (1 + a1)/2
        values = [
            (1 + a1) * (1 + b1) / 4.0 + (1 + a1) * (1 + b2) / 4.0 + (1 + a2) * (1 + b1) / 4.0
            - (1 + a2) * (1 + b2) / 4.0 - (1 + a1) / 2.0 - (1 + b1) / 2.0
            for a1, a2, b1, b2 in strategies
        ]
    else:
        raise ValueError(f"unknown expression {expression!r}")
    return float(min(values)), float(max(values))


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
            "alice_axes": [a.tolist() for a in self.alice_axes],
            "bob_axes": [b.tolist() for b in self.bob_axes],
            "state": amplitudes_to_json(self.state.amplitudes),
        }


def default_scenario() -> TwoPartyScenario:
    a1, a2, b1, b2 = chsh_optimal_axes()
    return TwoPartyScenario((a1, a2), (b1, b2), singlet_state())


def scenario_from_json_dict(data: dict) -> TwoPartyScenario:
    """A scenario from its JSON object; absent keys take the default
    scenario's axes or state, built only for the keys that are absent.
    Every key present is parsed before the scenario checks its axes."""
    if not isinstance(data, dict):
        raise ValueError(f"a scenario must be a JSON object, got {type(data).__name__}")
    alice = bob = None
    try:
        if "alice_axes" in data:
            alice = tuple(json_floats(a, "an axis") for a in data["alice_axes"])
        if "bob_axes" in data:
            bob = tuple(json_floats(b, "an axis") for b in data["bob_axes"])
        state = (PureState(json_amplitudes(data["state"], "a state amplitude"), 2, 2)
                 if "state" in data else singlet_state())
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed scenario: {exc}") from exc
    if alice is None or bob is None:
        a1, a2, b1, b2 = chsh_optimal_axes()
        alice = (a1, a2) if alice is None else alice
        bob = (b1, b2) if bob is None else bob
    return TwoPartyScenario(alice, bob, state)


# ---- maximal violation ----

def maximize_violation(expression: str, state: Optional[PureState] = None):
    """Axes maximizing a CHSH or CH value on a two-qubit state (default the
    singlet), and the maximal value, in closed form.

    With T = U diag(s) V^T and s1 >= s2 the two largest singular values,
    a1 = u1, a2 = u2 and b1,2 = (s1 v1 +- s2 v2)/sqrt(s1^2 + s2^2) give
    S = 2 sqrt(s1^2 + s2^2), the Horodecki maximum.  s1 = 1 on every pure
    state, so the norm never vanishes.  CH = (S - 2)/4 on any state and
    axes, so the same axes maximize CH.
    """
    expr = expression.lower()
    if expr not in ("chsh", "ch"):
        raise ValueError(f"unknown expression {expression!r}")
    if state is None:
        state = singlet_state()
    axes, value = _optimal_axes(_bloch(state)[2])
    if expr == "ch":
        value = (value - 2.0) / 4.0
    return axes, float(value)


def _optimal_axes(t: np.ndarray):
    """maximize_violation's axes (a1, a2, b1, b2) for the correlation matrix
    t, and the maximal CHSH value 2 sqrt(s1^2 + s2^2)."""
    u, s, vt = np.linalg.svd(t)
    norm = hypot(s[0], s[1])
    b1 = (s[0] * vt[0] + s[1] * vt[1]) / norm
    b2 = (s[0] * vt[0] - s[1] * vt[1]) / norm
    return (u[:, 0], u[:, 1], b1, b2), 2.0 * norm
