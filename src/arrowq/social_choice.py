"""Classical voting: rules over full profile domains, the fairness
predicates (Pareto, IIA, unrestricted domain), dictator detection, and
exhaustive enumeration of the rules satisfying all three.

A rule is stored either as an outcome table over every profile or as a
pairwise decomposition: one Boolean aggregator per unordered alternative
pair, mapping the m-bit vector of voter preferences on that pair to the
collective bit.  The pairwise form satisfies IIA by construction; its
outcome is a valid ranking only when the induced tournament is acyclic.

The predicates read a shared ProfileDomain (every profile as arrays) and
a rule's outcome ranks.  They quantify over the profiles the rule decides,
those without a None entry or a cyclic tournament, so partial tables work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import combinations, product
from math import factorial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from ._guards import check_guard
from .orders import (
    LinearOrder,
    alternative_pairs,
    enumerate_orders,
    order_rank,
    prefers,
    reverse_order,
    validate_order,
)

Profile = tuple[LinearOrder, ...]

# Largest profile count (n!)^m a ProfileDomain is built for (README: Size guards).
MAX_PROFILES = 1 << 19


class IntransitiveOutcomeError(ValueError):
    """The pairwise bits of an outcome contain a preference cycle."""


# ---- profiles and pairwise inputs ----

def all_profiles(m: int, n: int) -> Iterator[Profile]:
    """All (n!)^m profiles, in lexicographic order (voter 0 most significant)."""
    return product(enumerate_orders(n), repeat=m)


def profile_index(profile: Profile) -> int:
    """Rank of a profile in the all_profiles order."""
    n = len(profile[0])
    base = factorial(n)
    idx = 0
    for ballot in profile:
        idx = idx * base + order_rank(ballot)
    return idx


def pair_input(profile: Profile, a: int, b: int) -> int:
    """m-bit vector: bit i set iff voter i prefers a to b."""
    v = 0
    for i, ballot in enumerate(profile):
        if prefers(ballot, a, b):
            v |= 1 << i
    return v


def order_from_pair_bits(bits: Sequence[int], n: int) -> LinearOrder:
    """Ranking encoded by pairwise bits (bit k = 1 iff a beats b for the
    k-th pair (a, b), a < b, lexicographic).

    A tournament is a linear order exactly when out-degrees are all
    distinct; we sort by wins and verify every pair against the input,
    raising IntransitiveOutcomeError on any cycle.
    """
    pairs = alternative_pairs(n)
    if len(bits) != len(pairs):
        raise ValueError(f"expected {len(pairs)} pair bits, got {len(bits)}")
    wins = [0] * n
    for k, (a, b) in enumerate(pairs):
        if bits[k]:
            wins[a] += 1
        else:
            wins[b] += 1
    ranking = tuple(sorted(range(n), key=lambda x: -wins[x]))
    for k, (a, b) in enumerate(pairs):
        if prefers(ranking, a, b) != bool(bits[k]):
            raise IntransitiveOutcomeError(f"pair bits {tuple(bits)} contain a cycle")
    return ranking


class ProfileDomain:
    """All (n!)^m profiles as arrays, one row per profile in all_profiles
    order; the arrays are read-only because profile_domain shares them.

    ballot_ranks[j, i]: order_rank of voter i's ballot in profile j.
    pair_inputs[j, k]: pair_input of profile j on the k-th alternative pair.
    ballot_bits[r, k]: ballot r ranks a above b, for the k-th pair (a, b).
    """

    def __init__(self, m: int, n: int):
        self.orders = enumerate_orders(n)
        nb = len(self.orders)
        check_guard(nb ** m, MAX_PROFILES, "profile count (n!)^m")
        position = np.argsort(self.orders, axis=1)
        a, b = np.array(alternative_pairs(n), dtype=np.int64).reshape(-1, 2).T
        self.ballot_bits = position[:, a] < position[:, b]
        self.ballot_ranks = np.indices((nb,) * m).reshape(m, -1).T
        # the narrowest unsigned type that holds m bits keeps temporaries small
        bits = self.ballot_bits.astype(np.min_scalar_type((1 << m) - 1))
        self.pair_inputs = sum(bits[self.ballot_ranks[:, i]] << i for i in range(m))
        # ballots sorted by their pair bits read as a binary number, for decode
        self._bit_weights = 1 << np.arange(len(a))
        codes = self.ballot_bits @ self._bit_weights
        self._code_order = np.argsort(codes)
        self._sorted_codes = codes[self._code_order]
        for array in (self.ballot_bits, self.ballot_ranks, self.pair_inputs):
            array.flags.writeable = False

    def profile(self, j: int) -> Profile:
        return tuple(self.orders[r] for r in self.ballot_ranks[j])

    def flat_index(self, d: int) -> np.ndarray:
        """Each profile's ballot ranks read as base-d digits, voter 0 most
        significant: the voter-register index of circuit tables."""
        return self.ballot_ranks @ d ** np.arange(self.ballot_ranks.shape[1] - 1, -1, -1)

    def decode(self, bits: np.ndarray) -> np.ndarray:
        """Ballot rank of each row of pair bits (columns in pair order),
        -1 where the bits form a cyclic tournament."""
        codes = bits @ self._bit_weights
        at = np.minimum(np.searchsorted(self._sorted_codes, codes), len(self.orders) - 1)
        return np.where(self._sorted_codes[at] == codes, self._code_order[at], -1)


profile_domain = lru_cache(maxsize=8)(ProfileDomain)


# ---- voting rules ----

@dataclass(frozen=True)
class VotingRule:
    """Map from profiles to rankings, in table or pairwise form.

    tables: one truth table per alternative pair (lexicographic pair
    order), each indexed by the m-bit voter preference vector.
    outcomes: one ranking per profile in all_profiles order; None marks a
    profile outside the declared domain.
    Exactly one of the two is set.
    """

    voters: int
    alternatives: int
    tables: Optional[tuple[tuple[int, ...], ...]] = None
    outcomes: Optional[tuple[Optional[LinearOrder], ...]] = None

    def __post_init__(self):
        m, n = self.voters, self.alternatives
        if m < 1 or n < 1:
            raise ValueError("need at least one voter and one alternative")
        if (self.tables is None) == (self.outcomes is None):
            raise ValueError("exactly one of tables/outcomes must be given")
        if self.tables is not None:
            pairs = alternative_pairs(n)
            if len(self.tables) != len(pairs):
                raise ValueError(f"expected {len(pairs)} pair tables")
            for t in self.tables:
                if len(t) != 1 << m or any(bit not in (0, 1) for bit in t):
                    raise ValueError("each table needs 2^m bits")
        else:
            if len(self.outcomes) != factorial(n) ** m:
                raise ValueError(f"expected {factorial(n) ** m} outcome entries")
            for out in self.outcomes:
                if out is not None:
                    validate_order(out, n)

    @property
    def kind(self) -> str:
        return "pairwise" if self.tables is not None else "table"

    def outcome(self, profile: Profile) -> LinearOrder:
        """Collective ranking for one profile."""
        if self.tables is not None:
            bits = [
                self.tables[k][pair_input(profile, a, b)]
                for k, (a, b) in enumerate(alternative_pairs(self.alternatives))
            ]
            return order_from_pair_bits(bits, self.alternatives)
        out = self.outcomes[profile_index(profile)]
        if out is None:
            raise ValueError(f"profile {profile} is outside the rule's domain")
        return out

    @cached_property
    def outcome_ranks(self) -> np.ndarray:
        """Read-only order_rank of the outcome at every profile, -1 where the
        rule is undecided: a None entry or a cyclic pairwise tournament."""
        m, n = self.voters, self.alternatives
        if self.tables is not None:
            domain = profile_domain(m, n)
            tables = np.array(self.tables, dtype=np.int64).reshape(-1, 1 << m)
            ranks = domain.decode(tables[np.arange(len(tables)), domain.pair_inputs])
        else:
            rank = {order: r for r, order in enumerate(enumerate_orders(n))}
            ranks = np.array([-1 if out is None else rank[tuple(out)] for out in self.outcomes])
        ranks.flags.writeable = False
        return ranks

    def is_total(self) -> bool:
        return bool((self.outcome_ranks >= 0).all())

    def as_table(self) -> "VotingRule":
        """Materialize the outcome table (identity on table-form rules);
        profiles where the pairwise tournament cycles get None entries."""
        if self.outcomes is not None:
            return self
        orders = enumerate_orders(self.alternatives)
        outs = tuple(orders[r] if r >= 0 else None for r in self.outcome_ranks.tolist())
        return VotingRule(self.voters, self.alternatives, outcomes=outs)


def rule_from_function(m: int, n: int, fn: Callable[[Profile], LinearOrder]) -> VotingRule:
    """Tabulate an arbitrary profile -> ranking function."""
    outs = tuple(tuple(fn(p)) for p in all_profiles(m, n))
    return VotingRule(m, n, outcomes=outs)


def projection_rule(m: int, n: int, voter: int) -> VotingRule:
    """Outcome = the chosen voter's ballot, in pairwise form."""
    if not 0 <= voter < m:
        raise ValueError(f"voter {voter} out of range for {m} voters")
    table = tuple((v >> voter) & 1 for v in range(1 << m))
    return VotingRule(m, n, tables=(table,) * len(alternative_pairs(n)))


def constant_rule(m: int, n: int, order: LinearOrder) -> VotingRule:
    order = validate_order(order, n)
    return rule_from_function(m, n, lambda p: order)


def anti_projection_rule(m: int, n: int, voter: int) -> VotingRule:
    """Outcome = reverse of the chosen voter's ballot."""
    if not 0 <= voter < m:
        raise ValueError(f"voter {voter} out of range for {m} voters")
    return rule_from_function(m, n, lambda p: reverse_order(p[voter]))


def borda_rule(m: int, n: int) -> VotingRule:
    """Positional-score rule; score ties broken toward the lower id."""

    def fn(profile):
        score = [0] * n
        for ballot in profile:
            for pos, a in enumerate(ballot):
                score[a] += n - 1 - pos
        return tuple(sorted(range(n), key=lambda a: (-score[a], a)))

    return rule_from_function(m, n, fn)


def pairwise_majority_rule(m: int, n: int) -> VotingRule:
    """Strict-majority aggregator on every pair (ties go to the larger id).

    For n > 2 the outcome can cycle on some profiles, in which case
    outcome() raises IntransitiveOutcomeError.
    """
    table = tuple(1 if bin(v).count("1") * 2 > m else 0 for v in range(1 << m))
    return VotingRule(m, n, tables=(table,) * len(alternative_pairs(n)))


# ---- fairness predicates ----

def check_pareto(rule: VotingRule):
    """(holds, witness): witness is the first decided (profile, a, b), in
    profile then pair order, where a unanimous a-over-b is overridden."""
    domain = profile_domain(rule.voters, rule.alternatives)
    ranks, inputs = rule.outcome_ranks, domain.pair_inputs
    bits = domain.ballot_bits[ranks]
    full = (1 << rule.voters) - 1
    overridden = (ranks >= 0)[:, None] & np.where(bits, inputs == 0, inputs == full)
    if not overridden.any():
        return True, None
    j, k = divmod(int(overridden.argmax()), overridden.shape[1])
    a, b = alternative_pairs(rule.alternatives)[k]
    if bits[j, k]:
        a, b = b, a
    return False, (domain.profile(j), a, b)


def check_iia(rule: VotingRule):
    """(holds, witness): witness is the first (p, q, a, b), by pair then
    by q, where two decided profiles agree on the pair's restriction but
    the outcomes do not.

    Pairwise rules satisfy IIA by construction.  Profiles are grouped on
    their per-pair voter vectors, so the scan is linear in the profile
    count rather than quadratic.
    """
    domain = profile_domain(rule.voters, rule.alternatives)
    rows = np.flatnonzero(rule.outcome_ranks >= 0)
    inputs, bits = domain.pair_inputs[rows], domain.ballot_bits[rule.outcome_ranks[rows]]
    for k, (a, b) in enumerate(alternative_pairs(rule.alternatives)):
        _, first, group = np.unique(inputs[:, k], return_index=True, return_inverse=True)
        differs = bits[:, k] != bits[first[group], k]
        if differs.any():
            q = differs.argmax()
            return False, (domain.profile(rows[first[group[q]]]), domain.profile(rows[q]), a, b)
    return True, None


def check_ud(rule: VotingRule) -> bool:
    """Full-domain check: the rule decides every one of the (n!)^m profiles."""
    return rule.is_total()


def check_ud_triples(rule: VotingRule) -> bool:
    """Triple-restriction variant: every way the voters can rank any three
    alternatives is realized by some profile in the rule's domain.  Implied
    by the full-domain check; meaningful for partial table rules."""
    m, n = rule.voters, rule.alternatives
    inputs = profile_domain(m, n).pair_inputs[rule.outcome_ranks >= 0]
    k = {pair: i for i, pair in enumerate(alternative_pairs(n))}
    for x, y, z in combinations(range(n), 3):
        # the voters' rankings of x, y, z are fixed by their three pair vectors
        realized = np.unique(inputs[:, [k[x, y], k[x, z], k[y, z]]], axis=0)
        if len(realized) < factorial(3) ** m:
            return False
    return len(inputs) > 0


def _copying_voters(rule: VotingRule) -> np.ndarray:
    """Per voter: the outcome is that voter's ballot at every decided profile."""
    ranks = rule.outcome_ranks[:, None]
    ballots = profile_domain(rule.voters, rule.alternatives).ballot_ranks
    return ((ballots == ranks) | (ranks < 0)).all(axis=0)


def find_dictator(rule: VotingRule) -> Optional[int]:
    """Least voter whose ballot is the outcome at every decided profile."""
    voters = np.flatnonzero(_copying_voters(rule))
    return int(voters[0]) if voters.size else None


# ---- reports ----

@dataclass(frozen=True)
class ArrowReport:
    """Per-rule verdicts on the three fairness conditions and dictatorship."""

    pareto: bool
    pareto_witness: Optional[tuple]
    iia: bool
    iia_witness: Optional[tuple]
    ud: bool
    dictator: Optional[int]
    per_voter: tuple[bool, ...]

    def to_json_dict(self) -> dict:
        def ballots(profile):
            return [list(b) for b in profile]

        pw = None
        if self.pareto_witness is not None:
            p, a, b = self.pareto_witness
            pw = {"profile": ballots(p), "preferred": a, "over": b}
        iw = None
        if self.iia_witness is not None:
            p, q, a, b = self.iia_witness
            iw = {"profile_p": ballots(p), "profile_q": ballots(q), "pair": [a, b]}
        return {
            "pareto": self.pareto,
            "pareto_witness": pw,
            "iia": self.iia,
            "iia_witness": iw,
            "ud": self.ud,
            "dictator": self.dictator,
            "per_voter": list(self.per_voter),
        }


def arrow_report(rule: VotingRule) -> ArrowReport:
    """Evaluate all fairness conditions on one rule."""
    pareto, pw = check_pareto(rule)
    iia, iw = check_iia(rule)
    ud = check_ud(rule)
    dictator = find_dictator(rule)
    per_voter = tuple(bool(hit) for hit in _copying_voters(rule))
    return ArrowReport(pareto, pw, iia, iw, ud, dictator, per_voter)


# ---- exhaustive search for fair rules ----

def enumerate_fair_rules(m: int, n: int) -> list[VotingRule]:
    """All pairwise-decomposable rules that respect unanimity on every pair
    and stay transitive on every profile, in lexicographic order of their
    concatenated truth tables.

    Pairs are assigned depth-first in lexicographic order; when pair (y, z)
    is reached, every triple x < y < z already has (x, y) and (x, z) fixed,
    and each profile where those bits differ forces the (y, z) bit, pruning
    the candidate tree far below the 2^(2^m * C(n,2)) worst case.
    """
    check_guard(n, 4, "alternative count for rule enumeration")
    check_guard(1 << m, 16, "profile bit-vector size 2^m")
    if n == 1:
        return [VotingRule(m, 1, outcomes=((0,),) * 1)]

    pairs = alternative_pairs(n)
    pair_index = {p: k for k, p in enumerate(pairs)}
    size = 1 << m

    # inputs[k][j] = voter bit-vector of profile j on pair k, as lists for the scalar scan
    inputs = profile_domain(m, n).pair_inputs.T.tolist()
    # per pair (y,z): the (x,y) and (x,z) table positions for each x < y
    sources = {
        k: [(pair_index[(x, y)], pair_index[(x, z)]) for x in range(y)]
        for k, (y, z) in enumerate(pairs)
    }

    results = []
    assigned: list[tuple[int, ...]] = []

    def completions(k):
        forced = {0: 0, size - 1: 1}
        for kxy, kxz in sources[k]:
            txy, txz = assigned[kxy], assigned[kxz]
            for j in range(len(inputs[k])):
                bxy = txy[inputs[kxy][j]]
                bxz = txz[inputs[kxz][j]]
                if bxy != bxz:
                    v = inputs[k][j]
                    want = bxz
                    if forced.setdefault(v, want) != want:
                        return
        free = [v for v in range(size) if v not in forced]
        table = [0] * size
        for v, bit in forced.items():
            table[v] = bit
        for bits in product((0, 1), repeat=len(free)):
            for v, bit in zip(free, bits):
                table[v] = bit
            yield tuple(table)

    def dfs(k):
        if k == len(pairs):
            results.append(VotingRule(m, n, tables=tuple(assigned)))
            return
        for table in completions(k):
            assigned.append(table)
            dfs(k + 1)
            assigned.pop()

    dfs(0)
    return results


@dataclass(frozen=True)
class ArrowVerification:
    """Outcome of enumerating fair rules and testing each for a dictator."""

    voters: int
    alternatives: int
    fair_rule_count: int
    all_dictatorial: bool
    dictators: tuple[int, ...]
    rule_dictators: tuple[Optional[int], ...]
    rules: tuple[VotingRule, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "voters": self.voters,
            "alternatives": self.alternatives,
            "fair_rule_count": self.fair_rule_count,
            "all_dictatorial": self.all_dictatorial,
            "dictators": list(self.dictators),
            "rule_dictators": list(self.rule_dictators),
        }


def verify_arrow(m: int, n: int) -> ArrowVerification:
    """Enumerate every fair rule and check whether each has a dictator.

    For n >= 3 every fair rule is a projection, so all_dictatorial comes
    out true; n = 2 admits non-dictatorial fair rules for m >= 2.
    """
    rules = enumerate_fair_rules(m, n)
    per_rule = tuple(find_dictator(r) for r in rules)
    dictators = tuple(sorted({d for d in per_rule if d is not None}))
    all_dict = all(d is not None for d in per_rule)
    return ArrowVerification(m, n, len(rules), all_dict, dictators, per_rule, tuple(rules))


# ---- reversible circuit table ----

def classical_circuit_table(rule: VotingRule, d: Optional[int] = None) -> np.ndarray:
    """Permutation on flat indices of (ancilla, voter_1..voter_m) register
    tuples, each register holding a value in 0..d-1.

    The ancilla advances by the rank of the outcome, modulo d, so the map
    is a bijection; at ancilla 0 it writes the outcome rank directly.
    Register tuples whose voter entries include non-ballot values (possible
    when d > n!) are left unchanged.  Flat index convention: ancilla is the
    most significant digit, voter m-1 the least.
    """
    m, n = rule.voters, rule.alternatives
    nballots = factorial(n)
    if d is None:
        d = nballots
    if d < nballots:
        raise ValueError(f"register size {d} cannot hold {nballots} ballots")
    check_guard(d ** (m + 1), 4096, "circuit table size d^(m+1)")
    if not rule.is_total():
        raise ValueError("circuit table needs a total rule")

    shifts = np.zeros(d ** m, dtype=np.int64)
    shifts[profile_domain(m, n).flat_index(d)] = rule.outcome_ranks
    block = np.arange(d ** m, dtype=np.int64)
    ancilla = np.arange(d, dtype=np.int64)[:, None]
    perm = (((ancilla + shifts) % d) * d ** m + block).ravel()

    # reversibility: every output tuple hit exactly once
    if not np.array_equal(np.sort(perm), np.arange(d ** (m + 1))):
        raise AssertionError("circuit table is not a bijection")
    return perm


# ---- JSON form ----

def rule_to_json_dict(rule: VotingRule) -> dict:
    """{"voters", "alternatives", "kind", "entries"} with rankings as arrays."""
    if rule.tables is not None:
        entries = [list(t) for t in rule.tables]
    else:
        entries = [None if out is None else list(out) for out in rule.outcomes]
    return {
        "voters": rule.voters,
        "alternatives": rule.alternatives,
        "kind": rule.kind,
        "entries": entries,
    }


def rule_from_json_dict(data: dict) -> VotingRule:
    try:
        m = int(data["voters"])
        n = int(data["alternatives"])
        kind = data["kind"]
        entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed rule object: {exc}") from exc
    if kind == "pairwise":
        tables = tuple(tuple(int(bit) for bit in t) for t in entries)
        return VotingRule(m, n, tables=tables)
    if kind == "table":
        outs = tuple(
            None if out is None else tuple(int(x) for x in out) for out in entries
        )
        return VotingRule(m, n, outcomes=outs)
    raise ValueError(f"unknown rule kind {kind!r}")
