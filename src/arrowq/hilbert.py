"""Ballot states as rays in a d-dimensional register (d >= n!), lifts of
classical voting rules to permutation unitaries on ancilla + voter
registers, the dictator-as-cloning demonstration, and a coloring verifier
for declared orthonormal bases.

Register convention everywhere: ancilla first, then voters 0..m-1; flat
index = ancilla * d^m + sum(p_i * d^(m-1-i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial, isclose
from typing import Optional, Sequence

import numpy as np

from ._guards import check_guard
from .orders import LinearOrder, alternative_pairs, order_rank, prefers, validate_order
from .social_choice import VotingRule, classical_circuit_table, profile_domain, projection_rule

NORM_TOL = 1e-10


# ---- spaces and states ----

@dataclass(frozen=True)
class BallotSpace:
    """n alternatives stored in a d-level register; the first n! basis
    vectors are the ballots, indexed by lexicographic permutation rank."""

    n: int
    d: Optional[int] = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one alternative")
        nb = factorial(self.n)
        if self.d is None:
            object.__setattr__(self, "d", nb)
        if self.d < nb:
            raise ValueError(f"dimension {self.d} below ballot count {nb}")

    @property
    def ballots(self) -> int:
        return factorial(self.n)


@dataclass(frozen=True, eq=False)
class PureState:
    """Unit vector over one or more d-level registers."""

    amplitudes: np.ndarray
    dim: int
    registers: int = 1

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.dim ** self.registers,):
            raise ValueError(
                f"expected {self.dim ** self.registers} amplitudes, got {amps.shape}"
            )
        if not isclose(float(np.linalg.norm(amps)), 1.0, abs_tol=NORM_TOL):
            raise ValueError("state is not normalized")

    def inner(self, other: "PureState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def tensor(self, other: "PureState") -> "PureState":
        if other.dim != self.dim:
            raise ValueError("tensor factors must share the register dimension")
        return PureState(
            np.kron(self.amplitudes, other.amplitudes),
            self.dim,
            self.registers + other.registers,
        )

    def equal_up_to_phase(self, other: "PureState", tol: float = NORM_TOL) -> bool:
        """True iff the states differ by a unit-modulus scalar."""
        if self.amplitudes.shape != other.amplitudes.shape:
            return False
        return abs(abs(self.inner(other)) - 1.0) <= tol

    def basis_index(self, tol: float = NORM_TOL) -> Optional[int]:
        """Index of the basis ray the state lies on, None if in superposition."""
        k = int(np.argmax(np.abs(self.amplitudes)))
        if abs(abs(self.amplitudes[k]) - 1.0) <= tol:
            return k
        return None


def basis_state(dim: int, index: int, registers: int = 1) -> PureState:
    amps = np.zeros(dim ** registers, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, dim, registers)


def ballot_state(space: BallotSpace, order: LinearOrder) -> PureState:
    """Basis ray holding one classical ballot."""
    order = validate_order(order, space.n)
    return basis_state(space.d, order_rank(order))


def superpose(states: Sequence[PureState], amplitudes: Sequence[complex]) -> PureState:
    """Normalized linear combination; rejects combinations that cancel."""
    if len(states) != len(amplitudes) or not states:
        raise ValueError("need equally many states and amplitudes")
    dim, registers = states[0].dim, states[0].registers
    acc = np.zeros_like(states[0].amplitudes)
    for st, c in zip(states, amplitudes):
        if st.dim != dim or st.registers != registers:
            raise ValueError("all states must live on the same registers")
        acc = acc + complex(c) * st.amplitudes
    norm = float(np.linalg.norm(acc))
    if norm < 1e-12:
        raise ValueError("combination is the zero vector")
    return PureState(acc / norm, dim, registers)


# ---- lifted circuits ----

@dataclass(frozen=True, eq=False)
class UnitaryCircuit:
    """Permutation unitary on (ancilla, voter_1..voter_m) registers.

    perm[i] = j means the circuit maps basis state i to basis state j, so
    the matrix has a 1 at (row j, column i).  Storing the permutation keeps
    unitarity exact.
    """

    space: BallotSpace
    registers: int
    perm: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", perm)
        size = self.space.d ** self.registers
        if not np.array_equal(np.sort(perm), np.arange(size)):
            raise ValueError("transition table is not a permutation")

    def apply(self, state: PureState) -> PureState:
        if state.dim != self.space.d or state.registers != self.registers:
            raise ValueError("state does not match the circuit registers")
        out = np.empty_like(state.amplitudes)
        out[self.perm] = state.amplitudes
        return PureState(out, state.dim, state.registers)

    def matrix(self) -> np.ndarray:
        size = self.perm.shape[0]
        mat = np.zeros((size, size), dtype=complex)
        mat[self.perm, np.arange(size)] = 1.0
        return mat

    def sparse_entries(self) -> list[tuple[int, int]]:
        """(row, column) positions of the 1-entries, column order."""
        return [(int(r), c) for c, r in enumerate(self.perm)]

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.space.d,
            "registers": self.registers,
            "entries": [[r, c] for r, c in self.sparse_entries()],
        }


def lift_rule_to_unitary(space: BallotSpace, rule: VotingRule) -> UnitaryCircuit:
    """Permutation unitary acting as |0>|p^1..p^m> -> |rank(r(p))>|p^1..p^m>.

    Register tuples holding non-ballot values (d > n!) pass through
    unchanged; on superpositions the action extends linearly.
    """
    if rule.alternatives != space.n:
        raise ValueError("rule and space disagree on the alternative count")
    perm = classical_circuit_table(rule, d=space.d)
    return UnitaryCircuit(space, rule.voters + 1, perm)


def is_dictatorial_circuit(circuit: UnitaryCircuit, voter: int) -> bool:
    """True iff on every ballot basis profile with ancilla 0 the circuit
    writes the chosen voter's ballot index into the ancilla."""
    m = circuit.registers - 1
    if not 0 <= voter < m:
        raise ValueError(f"voter {voter} out of range for {m} registers")
    d = circuit.space.d
    domain = profile_domain(m, circuit.space.n)
    flat = domain.flat_index(d)
    return bool(np.array_equal(circuit.perm[flat], domain.ballot_ranks[:, voter] * d ** m + flat))


# ---- cloning ----

def cloning_fidelity(
    circuit: UnitaryCircuit,
    voter: int,
    psi: PureState,
    fillers: Optional[Sequence[LinearOrder]] = None,
) -> float:
    """Overlap-squared between the circuit's output and a perfect clone.

    Input is |0> on the ancilla, psi in the chosen voter's register, and
    fixed basis ballots elsewhere; the ideal output carries psi on both the
    ancilla and the voter register with fillers untouched.  Requires a
    circuit that copies basis ballots for this voter, so any fidelity below
    1 on a superposition is a genuine cloning failure.
    """
    if not is_dictatorial_circuit(circuit, voter):
        raise ValueError(f"circuit does not copy voter {voter} on basis profiles")
    m = circuit.registers - 1
    d = circuit.space.d
    if psi.dim != d or psi.registers != 1:
        raise ValueError("psi must be a single-register state of the circuit's space")
    if fillers is None:
        fillers = [tuple(range(circuit.space.n))] * (m - 1)
    if len(fillers) != m - 1:
        raise ValueError(f"expected {m - 1} filler ballots")
    digits = [order_rank(validate_order(f, circuit.space.n)) for f in fillers]
    digits.insert(voter, 0)
    # flat index of ancilla 0, the fillers, and each value of the voter register
    base = sum(r * d ** (m - 1 - i) for i, r in enumerate(digits))
    swept = base + np.arange(d) * d ** (m - 1 - voter)
    amps_in = np.zeros(d ** (m + 1), dtype=complex)
    amps_in[swept] = psi.amplitudes
    ideal = np.zeros_like(amps_in)
    ideal[np.arange(d)[:, None] * d ** m + swept] = np.outer(psi.amplitudes, psi.amplitudes)
    actual = circuit.apply(PureState(amps_in, d, m + 1))
    return float(abs(np.vdot(ideal, actual.amplitudes)) ** 2)


@dataclass(frozen=True)
class NoCloningReport:
    """Worst sampled cloning fidelity for one dictatorial circuit."""

    trials: int
    seed: Optional[int]
    min_fidelity: float
    min_theta: Optional[float]
    basis_like_count: int
    nonbasis_strictly_below: bool
    threshold: float

    def to_json_dict(self) -> dict:
        return {
            "trials": self.trials,
            "seed": self.seed,
            "min_fidelity": self.min_fidelity,
            "min_theta": self.min_theta,
            "basis_like_count": self.basis_like_count,
            "nonbasis_strictly_below": self.nonbasis_strictly_below,
            "threshold": self.threshold,
        }


def no_cloning_scan(
    space: BallotSpace,
    trials: int = 1000,
    seed: Optional[int] = 0,
    voter: int = 0,
    m: int = 2,
    states: Optional[Sequence[PureState]] = None,
    basis_tol: float = 1e-6,
) -> NoCloningReport:
    """Minimum cloning fidelity over sampled ballot superpositions.

    Default sampling draws theta uniformly on [0, pi/2] and tests
    cos(theta)|b0> + sin(theta)|b1> on the first two ballot rays, so runs
    are reproducible from the seed.  States whose largest amplitude reaches
    1 - basis_tol count as basis-like; every other sample must clone with
    fidelity strictly below 1 - 1e-6 for the report to certify failure.
    """
    circuit = lift_rule_to_unitary(space, projection_rule(m, space.n, voter))
    threshold = 1.0 - 1e-6

    thetas: list[Optional[float]] = []
    samples: list[PureState] = []
    if states is not None:
        samples = list(states)
        thetas = [None] * len(samples)
    else:
        if space.ballots < 2:
            raise ValueError("superposition sampling needs at least two ballots")
        rng = np.random.default_rng(seed)
        for _ in range(trials):
            theta = float(rng.uniform(0.0, np.pi / 2))
            amps = np.zeros(space.d, dtype=complex)
            amps[0] = np.cos(theta)
            amps[1] = np.sin(theta)
            samples.append(PureState(amps, space.d))
            thetas.append(theta)

    min_f, min_theta = np.inf, None
    basis_like = 0
    nonbasis_ok = True
    for psi, theta in zip(samples, thetas):
        f = cloning_fidelity(circuit, voter, psi)
        if np.max(np.abs(psi.amplitudes)) >= 1.0 - basis_tol:
            basis_like += 1
        elif f >= threshold:
            nonbasis_ok = False
        if f < min_f:
            min_f, min_theta = f, theta
    return NoCloningReport(
        trials=len(samples),
        seed=seed if states is None else None,
        min_fidelity=float(min_f),
        min_theta=min_theta,
        basis_like_count=basis_like,
        nonbasis_strictly_below=nonbasis_ok,
        threshold=threshold,
    )


# ---- basis colorings ----

@dataclass(frozen=True, eq=False)
class KSInstance:
    """Unit vectors with declared orthonormal bases and a 0/1 coloring."""

    dimension: int
    vectors: np.ndarray
    bases: tuple[tuple[int, ...], ...]
    coloring: tuple[int, ...]

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=complex)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "bases", tuple(tuple(b) for b in self.bases))
        object.__setattr__(self, "coloring", tuple(int(c) for c in self.coloring))
        if vecs.ndim != 2 or vecs.shape[1] != self.dimension:
            raise ValueError("vectors must be rows of length `dimension`")
        if len(self.coloring) != vecs.shape[0]:
            raise ValueError("coloring must assign a bit to every vector")
        if any(c not in (0, 1) for c in self.coloring):
            raise ValueError("coloring bits must be 0 or 1")
        if any(not 0 <= i < vecs.shape[0] for basis in self.bases for i in basis):
            raise ValueError(f"basis indices must lie in 0..{vecs.shape[0] - 1}")
        norms = np.linalg.norm(vecs, axis=1)
        if vecs.shape[0] and np.max(np.abs(norms - 1.0)) > NORM_TOL:
            raise ValueError("all vectors must be unit length")

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "vectors": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.vectors
            ],
            "bases": [list(b) for b in self.bases],
            "coloring": list(self.coloring),
        }


def ks_instance_from_json_dict(data: dict) -> KSInstance:
    try:
        d = int(data["dimension"])
        vectors = np.array(
            [[complex(re, im) for re, im in row] for row in data["vectors"]],
            dtype=complex,
        ).reshape(len(data["vectors"]), d)
        bases = tuple(tuple(int(i) for i in b) for b in data["bases"])
        coloring = tuple(int(c) for c in data["coloring"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed coloring instance: {exc}") from exc
    return KSInstance(d, vectors, bases, coloring)


def verify_ks_coloring(instance: KSInstance):
    """(holds, violating bases): every declared basis must be a complete
    orthonormal basis and carry coloring sum exactly 1."""
    d = instance.dimension
    violated = []
    for basis in instance.bases:
        if len(basis) != d:
            raise ValueError(f"basis {basis} does not span: needs {d} vectors")
        rows = instance.vectors[list(basis)]
        gram = rows @ rows.conj().T
        if np.max(np.abs(gram - np.eye(d))) > NORM_TOL:
            raise ValueError(f"declared basis {basis} is not orthonormal")
        if sum(instance.coloring[i] for i in basis) != 1:
            violated.append(basis)
    return len(violated) == 0, tuple(violated)


def discover_orthonormal_bases(vectors: np.ndarray, tol: float = NORM_TOL) -> list[tuple[int, ...]]:
    """All size-d index subsets of the rows that form orthonormal bases."""
    vecs = np.asarray(vectors, dtype=complex)
    k, d = vecs.shape
    if k >= d:
        check_guard(comb(k, d), 1 << 20, "basis search combination count")
    found = []
    for subset in combinations(range(k), d):
        rows = vecs[list(subset)]
        if np.max(np.abs(rows @ rows.conj().T - np.eye(d))) <= tol:
            found.append(subset)
    return found


def ks_instance_from_rule(rule: VotingRule, profile) -> KSInstance:
    """Ballot basis colored by a rule's outcome at one profile: the outcome
    ray gets 1, every other ballot 0, so the standard basis sums to 1."""
    nb = factorial(rule.alternatives)
    outcome_rank = order_rank(rule.outcome(tuple(tuple(b) for b in profile)))
    coloring = tuple(1 if i == outcome_rank else 0 for i in range(nb))
    return KSInstance(nb, np.eye(nb, dtype=complex), (tuple(range(nb)),), coloring)


# ---- pairwise decomposition ----

def decompose_ballot_pairwise(order: LinearOrder) -> tuple[int, ...]:
    """Bit per alternative pair (a, b), a < b, lexicographic: 1 iff the
    ballot ranks a above b.  Injective on linear orders."""
    order = validate_order(order)
    n = len(order)
    return tuple(int(prefers(order, a, b)) for a, b in alternative_pairs(n))
