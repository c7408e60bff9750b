"""Independent oracles used by the test suite.

Everything here is deliberately dumb and self-contained: plain loops over
explicitly materialized objects, no imports from the package's search or
simulation code.  Expected values frozen in tests were computed with these
functions.
"""

from functools import reduce
from itertools import combinations, permutations, product
from math import factorial, pi

import numpy as np


def all_rankings(n):
    return [tuple(p) for p in permutations(range(n))]


def ranks_above(ranking, a, b):
    return ranking.index(a) < ranking.index(b)


def unordered_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def decompose(order):
    """Bit per pair (a, b), a < b, lexicographic: 1 iff the ballot ranks a
    above b; the pair bits that ProfileDomain.ballot_bits holds per ballot."""
    n = len(order)
    return tuple(int(order.index(a) < order.index(b)) for a, b in unordered_pairs(n))


def unrank(rank, n):
    """The ranking of lexicographic rank `rank` among permutations of
    0..n-1, read off the factorial-base digits of the rank."""
    remaining = list(range(n))
    ranking = []
    for i in range(n):
        block = factorial(n - 1 - i)
        idx, rank = divmod(rank, block)
        ranking.append(remaining.pop(idx))
    return tuple(ranking)


def profile_index(profile):
    """Rank of a profile in lexicographic order of its ballots, voter 0
    most significant: the all_profiles order."""
    rankings = all_rankings(len(profile[0]))
    idx = 0
    for ballot in profile:
        idx = idx * len(rankings) + rankings.index(tuple(ballot))
    return idx


def order_from_pair_bits(bits, n):
    """Ranking encoded by pair bits (bit k = 1 iff a beats b for the k-th
    pair (a, b), a < b, lexicographic), read off the win counts.

    A tournament is a linear order exactly when its win counts are
    distinct, that is, exactly 0..n-1 (Landau, 1953); the ranking sorts
    the alternatives by wins.  A cycle raises ValueError with the message
    the package's IntransitiveOutcomeError carries.
    """
    pairs = unordered_pairs(n)
    if len(bits) != len(pairs):
        raise ValueError(f"expected {len(pairs)} pair bits, got {len(bits)}")
    wins = [0] * n
    for bit, (a, b) in zip(bits, pairs):
        wins[a if bit else b] += 1
    if sorted(wins) != list(range(n)):
        raise ValueError(f"pair bits {tuple(bits)} contain a cycle")
    return tuple(sorted(range(n), key=lambda x: -wins[x]))


def apply_permutation(perm, amplitudes):
    """The state a permutation circuit (perm[i] = j sends basis state i to
    basis state j) makes of a flat amplitude vector."""
    out = np.empty_like(amplitudes)
    out[perm] = amplitudes
    return out


def tournament_is_acyclic(bits, n):
    """No directed 3-cycle among the pairwise outcomes.

    bits[k] = 1 iff a beats b for the k-th pair (a, b), a < b, lexicographic.
    A tournament is a linear order exactly when it has no 3-cycle.
    """
    pairs = unordered_pairs(n)
    index = {p: k for k, p in enumerate(pairs)}

    def beats(x, y):
        if x < y:
            return bits[index[(x, y)]] == 1
        return bits[index[(y, x)]] == 0

    for x in range(n):
        for y in range(n):
            for z in range(n):
                if x != y and y != z and x != z:
                    if beats(x, y) and beats(y, z) and beats(z, x):
                        return False
    return True


def brute_force_fair_rules(m, n):
    """Every combination of per-pair Boolean aggregators that is unanimity-
    respecting on both endpoints and yields an acyclic outcome on every
    profile.  Returns the surviving combinations as tuples of truth tables
    (each table indexed by the voter bit vector), in lexicographic order.
    """
    rankings = all_rankings(n)
    pairs = unordered_pairs(n)
    profiles = list(product(rankings, repeat=m))
    size = 1 << m

    # voter-bit input of each profile, per pair
    inputs = []
    for (a, b) in pairs:
        col = []
        for prof in profiles:
            v = 0
            for i, ballot in enumerate(prof):
                if ranks_above(ballot, a, b):
                    v |= 1 << i
            col.append(v)
        inputs.append(col)

    # unanimity endpoints fixed: all-against -> 0, all-for -> 1
    candidates = []
    for middle in product((0, 1), repeat=size - 2):
        candidates.append((0,) + middle + (1,))

    survivors = []
    for combo in product(candidates, repeat=len(pairs)):
        ok = True
        for p_idx in range(len(profiles)):
            bits = tuple(combo[k][inputs[k][p_idx]] for k in range(len(pairs)))
            if not tournament_is_acyclic(bits, n):
                ok = False
                break
        if ok:
            survivors.append(combo)
    return survivors


def outcome_from_bits(bits, n):
    """Reconstruct the ranking a 3-cycle-free bit vector encodes, by trying
    every permutation (independent of any cleverer decoding)."""
    pairs = unordered_pairs(n)
    for ranking in all_rankings(n):
        if all(
            (ranking.index(a) < ranking.index(b)) == (bits[k] == 1)
            for k, (a, b) in enumerate(pairs)
        ):
            return ranking
    raise AssertionError(f"no ranking realizes bits {bits}")


def rule_outcome_from_tables(tables, profile, n):
    """Evaluate an aggregator combination on one profile."""
    pairs = unordered_pairs(n)
    bits = []
    for k, (a, b) in enumerate(pairs):
        v = 0
        for i, ballot in enumerate(profile):
            if ranks_above(ballot, a, b):
                v |= 1 << i
        bits.append(tables[k][v])
    return outcome_from_bits(tuple(bits), n)


def violates_iia(rule_outcome, profiles, a, b):
    """First profile pair agreeing on {a, b} but disagreeing in the outcome
    restricted to {a, b}; None if there is none.  rule_outcome is a callable
    profile -> ranking."""
    for p in profiles:
        for q in profiles:
            same_inputs = all(
                ranks_above(bp, a, b) == ranks_above(bq, a, b)
                for bp, bq in zip(p, q)
            )
            if same_inputs:
                if ranks_above(rule_outcome(p), a, b) != ranks_above(rule_outcome(q), a, b):
                    return (p, q)
    return None


def grid_minimum(fn, lo, hi, points):
    """Dense-grid 1-d minimizer: (argmin, min) over an inclusive uniform grid."""
    best_x, best_v = lo, fn(lo)
    for i in range(1, points):
        x = lo + (hi - lo) * i / (points - 1)
        v = fn(x)
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v


def first_pareto_violation(outcomes, profiles, n):
    """First (profile, a, b), in profile then pair order, where every voter
    ranks a above b but the outcome does not; outcomes[j] belongs to
    profiles[j], and profiles whose outcome is None are skipped."""
    for profile, out in zip(profiles, outcomes):
        if out is None:
            continue
        for a, b in unordered_pairs(n):
            if all(ranks_above(x, a, b) for x in profile) and not ranks_above(out, a, b):
                return (profile, a, b)
            if all(ranks_above(x, b, a) for x in profile) and ranks_above(out, a, b):
                return (profile, b, a)
    return None


def first_iia_violation(outcomes, profiles, n):
    """First (p, q, a, b): the first pair on which some profile q's outcome
    disagrees with that of p, the first profile with q's voter preferences
    on the pair.  Profiles whose outcome is None are skipped."""
    for a, b in unordered_pairs(n):
        first = {}
        for profile, out in zip(profiles, outcomes):
            if out is None:
                continue
            key = tuple(ranks_above(x, a, b) for x in profile)
            bit = ranks_above(out, a, b)
            if key not in first:
                first[key] = (profile, bit)
            elif first[key][1] != bit:
                return (first[key][0], profile, a, b)
    return None


def copying_voters(outcomes, profiles, m):
    """Per voter: its ballot is the outcome at every profile whose outcome
    is not None."""
    return tuple(all(out is None or out == profile[i] for profile, out in zip(profiles, outcomes))
                 for i in range(m))


def realizes_every_triple(outcomes, profiles, n):
    """Some profile has an outcome, and for every triple x < y < z each of
    the 6^m ways the voters can rank it occurs at a profile that has one."""
    decided = [profile for profile, out in zip(profiles, outcomes) if out is not None]
    for triple in combinations(range(n), 3):
        ways = {tuple(tuple(a for a in ballot if a in triple) for ballot in profile)
                for profile in decided}
        if len(ways) < 6 ** len(profiles[0]):
            return False
    return bool(decided)


def formula_completions(values, nogoods):
    """Every completion of values (0, 1, or -1 for a free variable) that
    meets none of the nogoods, each a list of (variable, bit) pairs that is
    met when every variable holds its bit: itertools.product over the free
    variables, the lowest most significant, so in lexicographic order."""
    free = [i for i, v in enumerate(values) if v < 0]
    out = []
    for bits in product((0, 1), repeat=len(free)):
        full = list(values)
        for i, bit in zip(free, bits):
            full[i] = bit
        if not any(all(full[v] == bit for v, bit in nogood) for nogood in nogoods):
            out.append(tuple(full))
    return out


def table_rule_per_entry(m, n, entries):
    """A table rule read one entry at a time: json_ints on every non-null
    entry, then the VotingRule constructor, which checks the size guard,
    the entry count and the rankings.  The package reads table documents
    with one type scan instead; this is the reference it must agree with,
    so it borrows only the package's one-list reader and constructor."""
    from arrowq._guards import json_ints
    from arrowq.social_choice import VotingRule

    outcomes = tuple(None if out is None else json_ints(out, "an outcome") for out in entries)
    return VotingRule(m, n, outcomes=outcomes)


# ---- example rules, tabulated one profile at a time ----

def tabulate(m, n, fn):
    """fn's ranking at every profile, profiles in lexicographic order of
    their ballots (voter 0 most significant)."""
    return tuple(tuple(fn(p)) for p in product(all_rankings(n), repeat=m))


def constant_outcome(order):
    return lambda profile: order


def anti_projection_outcome(voter):
    return lambda profile: tuple(reversed(profile[voter]))


def borda_outcome(n):
    """Positional scores n - 1 - position, ties broken toward the lower id."""

    def fn(profile):
        score = [0] * n
        for ballot in profile:
            for pos, a in enumerate(ballot):
                score[a] += n - 1 - pos
        return tuple(sorted(range(n), key=lambda a: (-score[a], a)))

    return fn


# ---- two-qubit expectations by explicit 4x4 Kronecker products ----

def dense_cloning_fidelity(perm, d, m, voter, psi, filler_ranks):
    """|<ideal|U|in>|^2 for the permutation circuit perm on an ancilla and m
    voter registers of d levels, U the dense matrix with U[perm[i], i] = 1.

    The input is |0> on the ancilla, psi on the voter register and the basis
    rays filler_ranks on the other voters, in order; the ideal output
    carries psi on the ancilla as well."""
    size = d ** (m + 1)
    unitary = np.zeros((size, size))
    for i, j in enumerate(perm):
        unitary[j, i] = 1.0
    rays = np.eye(d)
    registers = [rays[r] for r in filler_ranks]
    registers.insert(voter, np.asarray(psi, dtype=complex))
    ket_in = reduce(np.kron, [rays[0], *registers])
    ideal = reduce(np.kron, [psi, *registers])
    return abs(np.vdot(ideal, unitary @ ket_in)) ** 2


# no_cloning_scan(BallotSpace(3), trials=300, seed=seed, m=m) as
# (min_theta, min_fidelity, basis_like_count, nonbasis_strictly_below),
# keyed by (m, seed); frozen from the scan that drew one angle per
# rng.uniform call and simulated the circuit once per state.
NO_CLONING_SCAN_REPORTS = {
    (2, 0): (0.7853554749002305, 0.5000000027334615, 1, True),
    (2, 1): (0.785958043489682, 0.5000004701985274, 0, True),
    (3, 0): (0.7853554749002305, 0.5000000027334615, 1, True),
    (3, 1): (0.785958043489682, 0.5000004701985274, 0, True),
}


IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def spin(axis):
    return axis[0] * SIGMA_X + axis[1] * SIGMA_Y + axis[2] * SIGMA_Z


def plus_projector(axis):
    return (IDENTITY + spin(axis)) / 2


def kron_expectation(psi, op_a, op_b):
    """<psi| op_a x op_b |psi> for a 4-amplitude state."""
    return float(np.real(np.vdot(psi, np.kron(op_a, op_b) @ psi)))


def kron_correlation(psi, a, b):
    return kron_expectation(psi, spin(a), spin(b))


def kron_joint_plus(psi, a, b):
    return kron_expectation(psi, plus_projector(a), plus_projector(b))


def kron_chsh(psi, a1, a2, b1, b2):
    return (
        kron_correlation(psi, a1, b1)
        + kron_correlation(psi, a1, b2)
        + kron_correlation(psi, a2, b1)
        - kron_correlation(psi, a2, b2)
    )


def kron_ch(psi, a1, a2, b1, b2):
    return (
        kron_joint_plus(psi, a1, b1)
        + kron_joint_plus(psi, a1, b2)
        + kron_joint_plus(psi, a2, b1)
        - kron_joint_plus(psi, a2, b2)
        - kron_expectation(psi, plus_projector(a1), IDENTITY)
        - kron_expectation(psi, IDENTITY, plus_projector(b1))
    )


# sha256 of the stdout of `arrowq verify-arrow --voters m --alternatives n`
# with the default seed and no guard override, frozen from reports whose
# rules were nested lists; each equals json.dumps(report, sort_keys=True,
# indent=2) + "\n" of its own parse.  (4, 2) lists 16,384 rules.
VERIFY_ARROW_REPORT_SHA256 = {
    (3, 2): "66bab88d983a386bec75f1b7ac2dc779f86e527bb7f55c75bcf8a596ddad4b37",
    (4, 2): "a8627c997fc4ff446c33afa87dde4696963a08276cea2e67f429237a8164f459",
    (4, 8): "ee4b5976aa23221672476393cf7ef595ac051536310b18d3110ad0102422e863",
}


def theta_grid(seed, count=256):
    """--theta text of count sorted angles on [0, pi/2]: both ends and
    count - 2 seeded uniform draws, the grid the cloning benchmark sends."""
    rng = np.random.default_rng(seed)
    thetas = sorted([0.0, pi / 2] + rng.uniform(0.0, pi / 2, count - 2).tolist())
    return ",".join(map(repr, thetas))


# sha256 of the stdout of `arrowq clone-test` with the default seed and no
# guard override, run in a directory whose rule.json holds
# projection_rule(3, 3, 1) as a table; frozen once the angles were written
# under config alone.  Each is the earlier report less results.theta, which
# copied config.theta.  "grid" and "table" cases pass theta_grid(27).
CLONE_TEST_REPORT_SHA256 = {
    "default@2x3": "81189c583c6b87750f6b17b584c59d82ae82ae7ef309555b7a38a7fae378209e",
    "grid@3x3": "f4f6de5225455b2efe3395441ccc5afcaa75254d3bbe7a619ec66d0431d9b076",
    "grid@4x5": "8403cf590c6529e72997ee4cf430b5bbe743836acee4a76e46e6eed2d0d32de2",
    "grid@4x8": "81e215c2c0eb3496feb8adf92c5c26af65e254fe8d3f4105d1711659894da5dc",
    "table@3x3": "e02b8504605d5461d3cf3ee5fec5a997ea6e9242d25d32fc39cde2fa44caceea",
}


def bell_scenario(seed):
    """A scenario document with a seeded random two-qubit state and four
    seeded random unit axes, built as the bell benchmark builds its file."""
    rng = np.random.default_rng(seed)
    unit = lambda v: v / np.linalg.norm(v)  # noqa: E731
    amps = unit(rng.normal(size=4) + 1j * rng.normal(size=4))
    axes = [unit(rng.normal(size=3)).tolist() for _ in range(4)]
    return {
        "state": [[float(z.real), float(z.imag)] for z in amps],
        "alice_axes": axes[:2],
        "bob_axes": axes[2:],
    }


# sha256 of the stdout of `arrowq bell`, run in a directory whose
# random.json holds bell_scenario(21) and whose no-<key>.json holds it less
# that key; frozen before the report was read off one Bloch decomposition.
BELL_REPORT_SHA256 = {
    "default@chsh": "463e00603b6774145d57893075915515f34c467112e0ee46513258cf81292ea6",
    "default@ch": "c93c91f8364fce953aef2022d808bafee15977272f27bc8086d8aff2fa606378",
    "default-optimize@chsh": "9c07d62d57e43b62f1c8244f741e4eee725bc59f01fac1be181c8b06d580334a",
    "default-optimize@ch": "5f2c07d0bb924a7239a80c17c3acb9d1bc3bafd8d600f1462a0957737030eb1f",
    "random@chsh": "e2373eee362627b1f2c158cc093b49b770cc7783867319247aa46ae15c1421d2",
    "random@ch": "e23d75e679d719a795c10e5f7556cc0d19ede65d3e8a071cf6c0d7ebf9116e5d",
    "random-optimize@chsh": "1fb80be24892592997adb5d7afddb4e629335fe24c8654437a18443cff78c797",
    "random-optimize@ch": "48894251ce2fbf0fad66680f24366537810541bb93db0b0ec483b43c199067c8",
    "no-alice_axes@chsh": "7b3077e0cbf235377e3e51fcb47f751be22c0b5eefdf3765637311b8dd2b67a6",
    "no-bob_axes@ch": "5f6efa7c8e204e1f7b11beabaa5c3304311f8ef58ca63a2c1aee17befa87dab9",
    "no-bob_axes-optimize@chsh": "42a54df82d374cc79306829298a7a009a20e31cbc715fc90129ab6ed8a540fd5",
    "no-state@chsh": "ddb72678da3ecdf25ec66bb6f57398ad52412029ed5155138cf25f5315d600ac",
}

# sha256 of json.dumps(asdict(report), sort_keys=True, indent=2) for
# no_cloning_scan(BallotSpace(3, 8), trials=300, seed=5), where d = 8 > 3!;
# frozen from the scan that sampled dense [trials, d] rows.
NO_CLONING_SCAN_D8_SHA256 = "42fe55e9c180cb7e5703aa54cebde29f74e93f0a52dc842db2e7762b234898a0"

# sha256 of the stdout of `arrowq energy` with no guard override, frozen
# while each report still computed both formula variants in full and the
# erasure costs re-checked their own signs.  The last four are the
# benchmark's energy cases at --T 300.0.
ENERGY_REPORT_SHA256 = {
    "default": "5fbc4294cdd7414600711d05e744c737c034df2663c4e68356087a0d166fc850",
    "literal": "a84dc2af2ffcbc9163b06d3150b8d6b887cb385d1c4520289aa7bb16df27bb6b",
    "without-memory": "40919eea8a3d91a7c7690bd6fa666228c39e643b3f2362fafcb6118cd4d49d69",
    "without-memory-literal": "bcf6ac1729f5a1dca0074f5a154c5b8c2ff6869e54dc0d6bec669a2eb71f1c80",
    "log-base-2": "60124a2f0280e8d56d5c96f6e34bc7f2e9df6fdb2a64e8641afa223429a43e3e",
    "unit-constants": "e48cc67a179586d1cc9a7b529d8b0acb366819b7ec639323266a6eaeb3de6836",
    "one-by-one": "533c85cda52599dded45452e010f66e3f8281293cef4fb4589680066ae54c533",
    "with-memory-resolved@3x3": "5fbc4294cdd7414600711d05e744c737c034df2663c4e68356087a0d166fc850",
    "without-memory-resolved@5x4": "3f5a68421e20a63210b27400a9fe19ef0a8ba85ef1a757377eac22bd2aeac344",
    "with-memory-literal@4x3": "55fb5ef19ed653f9730420724d2f704f65377abd5a99426b970ca30bbc615da6",
    "without-memory-literal@6x5": "68c3d0fc928d9653aa5766a519a521b312f78e7c7e231f734a211bface0f6c2e",
}


def orthonormal_bases(vectors, tol):
    """discover_orthonormal_bases by its definition: every size-d subset of
    the rows, in combinations order, whose Gram matrix is the identity
    within tol entry by entry (a NaN entry fails)."""
    vecs = np.asarray(vectors, dtype=complex)
    k, d = vecs.shape
    found = []
    for subset in combinations(range(k), d):
        rows = vecs[list(subset)]
        if (np.abs(rows @ rows.conj().T - np.eye(d)) <= tol).all():
            found.append(subset)
    return found
