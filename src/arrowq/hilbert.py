"""Ballot states as rays in a d-dimensional register (d >= n!), lifts of
classical voting rules to permutation unitaries on ancilla + voter
registers, the dictator-as-cloning demonstration, and a coloring verifier
for declared orthonormal bases.

Register convention everywhere: ancilla first, then voters 0..m-1; flat
index = ancilla * d^m + sum(p_i * d^(m-1-i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import factorial, isclose
from typing import Optional, Sequence

import numpy as np

from ._guards import amplitudes_to_json, check_guard, json_amplitudes, json_ints
from .orders import LinearOrder, order_rank, validate_order
from .social_choice import VotingRule, _per_voter, check_pairwise_size, projection_rule

NORM_TOL = 1e-10
# no_cloning_scan: a sample whose largest amplitude reaches 1 - BASIS_TOL is basis-like
BASIS_TOL = 1e-6
# discover_orthonormal_bases: entries of its k-by-k orthogonality table and of
# each level's [cliques, k] common-neighbour table
BASIS_TABLE_LIMIT = 1 << 21


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


def basis_state(dim: int, index: int, registers: int = 1) -> PureState:
    size = dim ** registers
    if not 0 <= index < size:  # numpy would wrap -1 to the last ray
        raise ValueError(f"basis index {index} out of range 0..{size - 1}")
    amps = np.zeros(size, dtype=complex)
    amps[index] = 1.0
    return PureState(amps, dim, registers)


def ballot_state(space: BallotSpace, order: LinearOrder) -> PureState:
    """Basis ray holding one classical ballot."""
    order = validate_order(order, space.n)
    return basis_state(space.d, order_rank(order))


# ---- lifted circuits ----

@dataclass(frozen=True, eq=False)
class UnitaryCircuit:
    """Permutation unitary on (ancilla, voter_1..voter_m) registers, the
    lift |a>|p> -> |a + rank(r(p)) mod d>|p> of a total rule where every
    voter holds a ballot, the identity elsewhere.  It is stored as its rule
    and read off it: nothing of size d^(m+1) is built."""

    space: BallotSpace
    rule: VotingRule

    def __post_init__(self):
        if self.rule.alternatives != self.space.n:
            raise ValueError("rule and space disagree on the alternative count")
        if self.rule.tables is not None:
            check_pairwise_size(self.rule.voters, self.space.n)
        if not self.rule.is_total():
            raise ValueError("circuit table needs a total rule")

    @property
    def registers(self) -> int:
        return self.rule.voters + 1

    @cached_property
    def copied_voters(self) -> frozenset[int]:
        """Voters whose ballot the circuit writes into ancilla 0 on every ballot profile."""
        return frozenset(np.flatnonzero(_per_voter(self.rule, True)).tolist())


def lift_rule_to_unitary(space: BallotSpace, rule: VotingRule) -> UnitaryCircuit:
    """The UnitaryCircuit |0>|p^1..p^m> -> |rank(r(p))>|p^1..p^m> of a total
    rule, the identity on non-ballot values (d > n!), linear on superpositions."""
    return UnitaryCircuit(space, rule)


def is_dictatorial_circuit(circuit: UnitaryCircuit, voter: int) -> bool:
    """True iff on every ballot basis profile with ancilla 0 the circuit
    writes the chosen voter's ballot index into the ancilla."""
    if not 0 <= voter < circuit.rule.voters:
        raise ValueError(f"voter {voter} out of range for {circuit.rule.voters} registers")
    return voter in circuit.copied_voters


# ---- cloning ----

def cloning_fidelities(
    circuit: UnitaryCircuit,
    voter: int,
    amplitudes,
    fillers: Optional[Sequence[LinearOrder]] = None,
    rays: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Overlap-squared between the circuit's output and a perfect clone,
    for each row of a [K, s] array of unit-norm voter states whose columns
    sit on the basis rays `rays`, ascending and distinct (default: all d
    rays, so s = d).  `rays` describes the rows' layout: a state on a few
    rays of a large register is passed as its nonzero amplitudes alone.

    Input k is |0> on the ancilla, amplitudes[k] in the chosen voter's
    register, and fixed basis ballots elsewhere; the ideal output carries
    that state on both the ancilla and the voter register with fillers
    untouched.  Requires a circuit that copies basis ballots for this voter,
    so any fidelity below 1 on a superposition is a genuine cloning failure.

    All K inputs are simulated at once on the basis states b that sweep
    the voter register: b goes to ancilla a_b, the rule's outcome rank (0
    past n!), with b kept, so F_k = |sum_b conj(psi_k[a_b] psi_k[b])
    psi_k[b]|^2, where only the rays b of the support add a term and
    psi_k[a_b] is 0 when a_b lies off it.  With two rows or more, numpy
    adds the terms in ascending b order, one row of the [s, K] terms at a
    time, so the fidelities equal the dense call's on the zero-padded rows
    bit for bit.  Voter, fillers, rays and shape are checked once.
    """
    return _cloning_run(circuit, voter, amplitudes, fillers, rays)[0]


def _cloning_run(circuit, voter, amplitudes, fillers=None, rays=None):
    """cloning_fidelities, and the swept outcome ranks it read, for a caller
    that checks the basis rays too."""
    if voter not in circuit.copied_voters:
        raise ValueError(f"circuit does not copy voter {voter} on basis profiles")
    d = circuit.space.d
    psi = np.asarray(amplitudes, dtype=complex)
    support = np.arange(d) if rays is None else _support(rays, d)
    s = len(support)
    if psi.ndim != 2 or psi.shape[1] != s:
        raise ValueError(f"amplitudes must be rows of {s} entries, got shape {psi.shape}")
    if not (np.abs(np.linalg.norm(psi, axis=1) - 1.0) <= NORM_TOL).all():  # NaN fails too
        raise ValueError("state is not normalized")
    ranks = circuit.rule.swept_ranks(voter, fillers)
    a = np.pad(ranks, (0, d - circuit.space.ballots))
    rows = psi.T  # [s, K]: each overlap adds its s terms in b order, one row at a time
    at = np.full(d, s)  # a_b's row of the support, or a zero row appended past it
    at[support] = np.arange(s)
    images = np.vstack([rows, np.zeros(len(psi))])[at[a[support]]]
    overlaps = (np.conj(images * rows) * rows).sum(axis=0)
    return np.abs(overlaps) ** 2, ranks


def _support(rays: Sequence[int], d: int) -> np.ndarray:
    """rays as an intp array, once they are checked to be ascending,
    distinct rays of a d-level register; numpy would wrap a ray of -1."""
    support = np.asarray(rays)
    if support.ndim != 1 or (support.size and support.dtype.kind not in "iu"):
        raise ValueError(f"rays must be a flat list of integers, got {support.dtype}"
                         f" entries in shape {support.shape}")
    if (support[1:] <= support[:-1]).any():
        raise ValueError("rays must be ascending and distinct")
    if support.size and (support[0] < 0 or support[-1] >= d):
        raise ValueError(f"rays must lie in 0..{d - 1}, got {support[0]}..{support[-1]}")
    return support.astype(np.intp)


def cloning_fidelity(
    circuit: UnitaryCircuit,
    voter: int,
    psi: PureState,
    fillers: Optional[Sequence[LinearOrder]] = None,
) -> float:
    """Overlap-squared between the circuit's output and a perfect clone of
    psi: the one-row call of cloning_fidelities, which holds the conventions."""
    if psi.registers != 1:
        raise ValueError("psi must be a single-register state of the circuit's space")
    return float(cloning_fidelities(circuit, voter, psi.amplitudes[None], fillers)[0])


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


def no_cloning_scan(
    space: BallotSpace,
    trials: int = 1000,
    seed: Optional[int] = 0,
    m: int = 2,
    states: Optional[Sequence[PureState]] = None,
) -> NoCloningReport:
    """Minimum cloning fidelity over sampled ballot superpositions.

    Default sampling draws all trials angles theta uniformly on [0, pi/2]
    in one call, the same stream as one draw per trial, and tests
    cos(theta)|b0> + sin(theta)|b1> on the first two ballot rays, so runs
    are reproducible from the seed; those samples are [trials, 2] rows on
    rays (0, 1).  Every sample goes through one cloning_fidelities call.
    States whose largest amplitude reaches 1 - BASIS_TOL count as
    basis-like; every other sample must clone with fidelity strictly below
    1 - 1e-6 for the report to certify failure.  The circuit lifts
    projection_rule(m, n, 0); no report depends on the dictator or on m.
    """
    circuit = lift_rule_to_unitary(space, projection_rule(m, space.n, 0))
    threshold = 1.0 - 1e-6

    if states is None and space.ballots < 2:
        raise ValueError("superposition sampling needs at least two ballots")
    if (trials if states is None else len(states)) < 1:
        # a scan of nothing would certify failure vacuously
        raise ValueError("no_cloning_scan needs trials >= 1 or at least one state")
    if states is not None:
        if any(st.dim != space.d or st.registers != 1 for st in states):
            raise ValueError("psi must be a single-register state of the circuit's space")
        amps = np.array([st.amplitudes for st in states])
        thetas, rays = [None] * len(amps), None
    else:
        thetas = np.random.default_rng(seed).uniform(0.0, np.pi / 2, trials).tolist()
        amps = np.zeros((trials, 2), dtype=complex)
        amps[:, 0], amps[:, 1] = np.cos(thetas), np.sin(thetas)
        rays = (0, 1)

    fidelities = cloning_fidelities(circuit, 0, amps, rays=rays)
    basis_like = np.abs(np.abs(amps).max(axis=1) - 1.0) <= BASIS_TOL
    worst = int(np.argmin(fidelities))
    return NoCloningReport(
        trials=len(amps),
        seed=seed if states is None else None,
        min_fidelity=float(fidelities[worst]),
        min_theta=thetas[worst],
        basis_like_count=int(basis_like.sum()),
        nonbasis_strictly_below=bool((fidelities[~basis_like] < threshold).all()),
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
        # checked before int() would truncate a bit such as 0.4 to 0
        if any(c not in (0, 1) for c in self.coloring):
            raise ValueError("coloring bits must be 0 or 1")
        object.__setattr__(self, "coloring", tuple(int(c) for c in self.coloring))
        if not self.bases:  # a coloring of no basis checks nothing
            raise ValueError("an instance must declare at least one basis")
        if self.dimension < 1:  # an empty basis would pass as spanning dimension 0
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        if vecs.ndim != 2 or vecs.shape[1] != self.dimension:
            raise ValueError("vectors must be rows of length `dimension`")
        if len(self.coloring) != vecs.shape[0]:
            raise ValueError("coloring must assign a bit to every vector")
        if any(not 0 <= i < vecs.shape[0] for basis in self.bases for i in basis):
            raise ValueError(f"basis indices must lie in 0..{vecs.shape[0] - 1}")
        if not (np.abs(np.linalg.norm(vecs, axis=1) - 1.0) <= NORM_TOL).all():  # NaN fails too
            raise ValueError("all vectors must be unit length")

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "vectors": amplitudes_to_json(self.vectors),
            "bases": [list(b) for b in self.bases],
            "coloring": list(self.coloring),
        }


def ks_instance_from_json_dict(data: dict) -> KSInstance:
    try:
        d, rows = data["dimension"], data["vectors"]
        if type(d) is not int:
            raise ValueError(f"dimension must be an integer, got {d!r}")
        if d < 1:  # no row fits it: KSInstance refuses it, after a missing basis
            rows = []
        if any(type(row) is not list or len(row) != d for row in rows):
            raise ValueError(f"vectors must be lists of {d} amplitudes")
        vectors = json_amplitudes([z for row in rows for z in row], "a vector entry")
        vectors = vectors.reshape(len(rows), max(d, 0))
        bases = tuple(json_ints(b, "a basis") for b in data["bases"])
        coloring = json_ints(data["coloring"], "the coloring")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed coloring instance: {exc}") from exc
    return KSInstance(d, vectors, bases, coloring)


def _orthonormal(rows: np.ndarray, tol: float) -> bool:
    """The rows are orthonormal within tol; a NaN entry fails."""
    return bool((np.abs(rows @ rows.conj().T - np.eye(len(rows))) <= tol).all())


def verify_ks_coloring(instance: KSInstance):
    """(holds, violating bases): every declared basis must be a complete
    orthonormal basis and carry coloring sum exactly 1."""
    d = instance.dimension
    violated = []
    for basis in instance.bases:
        if len(basis) != d:
            raise ValueError(f"basis {basis} does not span: needs {d} vectors")
        if not _orthonormal(instance.vectors[list(basis)], NORM_TOL):
            raise ValueError(f"declared basis {basis} is not orthonormal")
        if sum(instance.coloring[i] for i in basis) != 1:
            violated.append(basis)
    return len(violated) == 0, tuple(violated)


def discover_orthonormal_bases(vectors: np.ndarray, tol: float = NORM_TOL) -> list[tuple[int, ...]]:
    """All size-d index subsets of the rows that form orthonormal bases, in
    itertools.combinations order.

    A subset passes exactly when its rows are unit vectors and orthogonal in
    pairs, within tol, so the bases are the d-cliques of the graph that joins
    orthogonal unit rows.  The cliques grow one row at a time through later
    common neighbours in ascending order, which keeps combinations order; a
    clique with fewer common neighbours than rows it lacks is dropped."""
    vecs = np.asarray(vectors, dtype=complex)
    k, d = vecs.shape
    unit = np.abs(np.einsum("ij,ij->i", vecs.conj(), vecs) - 1) <= tol  # a NaN fails
    if d > 1:  # d = 1 checks no pair: no k-by-k table
        check_guard(k * k, BASIS_TABLE_LIMIT, "basis search orthogonality table k^2")
        later = np.triu(np.abs(vecs @ vecs.conj().T) <= tol, 1)
    cliques, common = np.empty((1, 0), dtype=np.intp), unit[None]
    for size in range(d):
        counts = common.sum(axis=1)
        live = counts >= d - size
        if size + 1 < d:  # the next level's table has a row per clique grown here
            check_guard(int(counts[live].sum()) * k, BASIS_TABLE_LIMIT,
                        "basis search common-neighbour table cliques*k")
        cliques, common = cliques[live], common[live]
        rows, last = common.nonzero()
        cliques = np.column_stack((cliques[rows], last))
        if size + 1 < d:
            common = common[rows] & later[last]
    return list(map(tuple, cliques.tolist()))


def ks_instance_from_rule(rule: VotingRule, profile) -> KSInstance:
    """Ballot basis colored by a rule's outcome at one profile: the outcome
    ray gets 1, every other ballot 0, so the standard basis sums to 1."""
    nb = factorial(rule.alternatives)
    outcome_rank = order_rank(rule.outcome(tuple(tuple(b) for b in profile)))
    coloring = tuple(1 if i == outcome_rank else 0 for i in range(nb))
    return KSInstance(nb, np.eye(nb, dtype=complex), (tuple(range(nb)),), coloring)
