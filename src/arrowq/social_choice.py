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
A pairwise rule is read off its tables where a closed form decides: IIA
always, Pareto when every table respects unanimity, totality by the
search's nogood test, and a dictator of a rule that is total or respects
unanimity by comparing tables.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from itertools import chain, combinations, product
from math import comb, factorial
from typing import Iterator, Optional

import numpy as np

from ._guards import SizeLimitError, check_guard, check_power_guard, json_int_lists, json_ints
from .clauses import search, violated
from .orders import (
    MAX_ALTERNATIVES,
    LinearOrder,
    alternative_pairs,
    enumerate_orders,
    order_rank,
    prefers,
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


def pair_input(profile: Profile, a: int, b: int) -> int:
    """m-bit vector: bit i set iff voter i prefers a to b."""
    v = 0
    for i, ballot in enumerate(profile):
        if prefers(ballot, a, b):
            v |= 1 << i
    return v


class ProfileDomain:
    """All (n!)^m profiles as arrays, one row per profile in all_profiles
    order; the arrays are read-only because profile_domain shares them.

    ballot_ranks[j, i]: order_rank of voter i's ballot in profile j.
    pair_inputs[j, k]: pair_input of profile j on the k-th alternative pair.
    ballot_bits[r, k]: ballot r ranks a above b, for the k-th pair (a, b).

    The predicates' per-size data (rank_bits, cell_keys, unanimous_cells)
    is built on first use, in the narrowest unsigned type, so circuits and
    rule builders do not pay for it.
    """

    def __init__(self, m: int, n: int):
        self.orders = enumerate_orders(n)
        if m < 1:
            raise ValueError("need at least one voter and one alternative")
        nb = len(self.orders)
        check_power_guard(nb, m, MAX_PROFILES, "profile count (n!)^m")
        position = np.argsort(self.orders, axis=1)
        a, b = np.array(alternative_pairs(n), dtype=np.int64).reshape(-1, 2).T
        self.ballot_bits = position[:, a] < position[:, b]
        self.ballot_ranks = np.indices((nb,) * m).reshape(m, -1).T
        # the narrowest unsigned type that holds m bits keeps temporaries small
        bits = self.ballot_bits.astype(np.min_scalar_type((1 << m) - 1))
        self.pair_inputs = sum(bits[self.ballot_ranks[:, i]] << i for i in range(m))
        # ballots sorted by their pair bits read as a binary number, for decode
        self._bit_weights = (1 << np.arange(len(a))).astype(np.min_scalar_type((1 << len(a)) - 1))
        codes = self.ballot_bits @ self._bit_weights
        self._code_order = np.argsort(codes)
        self._sorted_codes = codes[self._code_order]
        for array in (self.ballot_bits, self.ballot_ranks, self.pair_inputs):
            array.flags.writeable = False

    @cached_property
    def rank_bits(self) -> np.ndarray:
        """[n! + 1, pairs]: ballot_bits of each rank, then a last row, read
        by rank -1 (undecided), holding 2^(m+1) * pairs: no bit equals it,
        and added to a cell_keys row it moves every key past the counted
        range."""
        counted = self.ballot_bits.shape[1] << (self.ballot_ranks.shape[1] + 1)
        dtype = np.min_scalar_type(2 * counted - 1)
        return _read_only(np.vstack([self.ballot_bits, np.full(self.ballot_bits.shape[1], counted)])
                          .astype(dtype))

    @cached_property
    def cell_keys(self) -> np.ndarray:
        """[profiles, pairs]: 2 * (k * 2^m + pair_inputs[j, k]), twice the
        entry of a pairwise rule's flattened tables that decides profile j on
        pair k; adding the outcome's bit on pair k gives one counter per
        (pair, voter vector, outcome bit)."""
        m, npairs = self.ballot_ranks.shape[1], self.ballot_bits.shape[1]
        offsets = (np.arange(npairs, dtype=self.rank_bits.dtype) << m) + self.pair_inputs
        return _read_only(offsets << 1)

    @cached_property
    def unanimous_cells(self) -> tuple[np.ndarray, np.ndarray]:
        """(cell, veto) of every cell j * pairs + k where the voters agree on
        the k-th pair, in profile then pair order; veto is the outcome bit
        that overrides them: 1 where every voter ranks b above a."""
        full = (1 << self.ballot_ranks.shape[1]) - 1
        inputs = self.pair_inputs.ravel()
        cells = np.flatnonzero((inputs == 0) | (inputs == full))
        veto = (inputs[cells] == 0).astype(self.rank_bits.dtype)
        return _read_only(cells.astype(np.min_scalar_type(inputs.size))), _read_only(veto)

    def profile(self, j: int) -> Profile:
        return tuple(self.orders[r] for r in self.ballot_ranks[j])

    def decode(self, bits: np.ndarray) -> np.ndarray:
        """Ballot rank of each row of pair bits (columns in pair order),
        -1 where the bits form a cyclic tournament."""
        codes = bits @ self._bit_weights
        at = np.minimum(np.searchsorted(self._sorted_codes, codes), len(self.orders) - 1)
        return np.where(self._sorted_codes[at] == codes, self._code_order[at], -1)


_domains = lru_cache(maxsize=8)(ProfileDomain)


def profile_domain(m: int, n: int) -> ProfileDomain:
    """The shared ProfileDomain(m, n), guarded on every call, cached or not."""
    domain = _domains(m, n)
    check_power_guard(len(domain.orders), m, MAX_PROFILES, "profile count (n!)^m")
    return domain


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# ---- voting rules ----

def check_rule_size(m: int, n: int) -> None:
    """The size check every rule takes before n!, a pair list or 2^m
    entries are built: at least one voter and one alternative, the
    alternative guard, then, from two alternatives on, fewer than 63 voters:
    2^m entries or more, which no list holds."""
    if m < 1 or n < 1:
        raise ValueError("need at least one voter and one alternative")
    check_guard(n, MAX_ALTERNATIVES, "alternative count")
    if n > 1 and m >= 63:
        raise SizeLimitError(f"{m} voters need 2^{m} or more rule entries")


def check_pairwise_size(m: int, n: int) -> None:
    """check_rule_size, then the guard on a pairwise rule's triple rows from
    three alternatives on (6^m > 2^m), else on its 2^m-entry tables: what
    the nogood test, the audit and the lift of such a rule read."""
    check_rule_size(m, n)
    if n > 2:
        check_power_guard(6, m, MAX_PROFILES, "triple row count C(n,3)*6^m", comb(n, 3))
    elif n > 1:
        check_power_guard(2, m, MAX_PROFILES, "pair table size 2^m")


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
        check_rule_size(m, n)
        if (self.tables is None) == (self.outcomes is None):
            raise ValueError("exactly one of tables/outcomes must be given")
        if self.tables is not None:
            pairs = n * (n - 1) // 2
            if len(self.tables) != pairs:
                raise ValueError(f"expected {pairs} pair tables")
            try:  # one C-level pass: True, 1.0 and numpy ints hash and compare as bits
                bits = {0, 1}.issuperset(chain.from_iterable(self.tables))
            except TypeError:  # an unhashable entry is no bit
                bits = False
            if not bits or any(len(t) != 1 << m for t in self.tables):
                raise ValueError("each table needs 2^m bits")
        else:
            _check_outcome_count(m, n, len(self.outcomes))
            # ranks every entry, raising on a non-ranking, unless
            # _rule_from_ranks has put the ranks in place
            self.outcome_ranks

    @property
    def kind(self) -> str:
        return "pairwise" if self.tables is not None else "table"

    def outcome(self, profile: Profile) -> LinearOrder:
        """Collective ranking for one profile: one ranking of the
        alternatives per voter."""
        m, n = self.voters, self.alternatives
        if len(profile) != m:
            raise ValueError(f"profile has {len(profile)} ballots, expected {m}")
        profile = tuple(validate_order(ballot, n) for ballot in profile)
        if self.tables is not None:
            bits = [
                self.tables[k][pair_input(profile, a, b)]
                for k, (a, b) in enumerate(alternative_pairs(n))
            ]
            ballots = profile_domain(1, n)  # decode reads only the n! ballots
            rank = int(ballots.decode(np.array(bits, dtype=np.int64)))
            if rank < 0:
                raise IntransitiveOutcomeError(f"pair bits {tuple(bits)} contain a cycle")
            return ballots.orders[rank]
        ranks = [order_rank(ballot) for ballot in profile]
        out = self.outcomes[np.ravel_multi_index(ranks, (factorial(n),) * m)]
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
            ranks = domain.decode(self.table_bits.ravel()[domain.cell_keys >> 1])
        else:
            ranks = _ranks(self.outcomes, n)
        return _read_only(ranks)

    @cached_property
    def outcome_bits(self) -> np.ndarray:
        """Read-only [profiles, pairs]: the outcome's bit on each pair at
        every profile, or ProfileDomain.rank_bits' filler where the rule is
        undecided."""
        domain = profile_domain(self.voters, self.alternatives)
        return _read_only(np.take(domain.rank_bits, self.outcome_ranks, axis=0))

    @cached_property
    def table_bits(self) -> np.ndarray:
        """A pairwise rule's tables as one read-only [pairs, 2^m] uint8 array."""
        return _read_only(np.array(self.tables, dtype=np.uint8).reshape(-1, 1 << self.voters))

    def swept_ranks(self, voter: int, fillers: Optional[Sequence[LinearOrder]] = None) -> np.ndarray:
        """Outcome rank (-1: undecided) at the n! profiles where the voter's
        ballot takes every rank and the others hold the filler ballots, in
        voter order (default: the identity ranking); no other profile is read."""
        m, n = self.voters, self.alternatives
        if not 0 <= voter < m:
            raise ValueError(f"voter {voter} out of range for {m} voters")
        fillers = [tuple(range(n))] * (m - 1) if fillers is None else fillers
        if len(fillers) != m - 1:
            raise ValueError(f"expected {m - 1} filler ballots")
        digits = [order_rank(validate_order(f, n)) for f in fillers]
        digits.insert(voter, slice(None))
        if self.tables is not None:
            ballots = profile_domain(1, n)
            bits = ballots.ballot_bits.astype(np.int64)  # [n!, pairs]
            inputs = sum(bits[r] << i for i, r in enumerate(digits) if i != voter) + (bits << voter)
            return ballots.decode(self.table_bits[np.arange(bits.shape[1]), inputs])
        return self.outcome_ranks.reshape((factorial(n),) * m)[tuple(digits)]

    def is_total(self) -> bool:
        """The rule decides every profile.  A pairwise rule does unless some
        triple meets a cyclic pattern on one of its 6^m rows of voter
        vectors, the search's nogood test; no profile is listed."""
        if self.tables is not None:
            return self.alternatives < 3 or not violated(
                self.table_bits.ravel(), [_nogoods(self.voters, self.alternatives)])
        return bool((self.outcome_ranks >= 0).all())

    def as_table(self) -> "VotingRule":
        """Materialize the outcome table (identity on table-form rules);
        profiles where the pairwise tournament cycles get None entries."""
        if self.outcomes is not None:
            return self
        return _rule_from_ranks(self.voters, self.alternatives, self.outcome_ranks)


def _rule_from_ranks(m: int, n: int, ranks: np.ndarray) -> VotingRule:
    """Table rule whose outcome at profile j is the ranking of rank
    ranks[j], in profile_domain order; rank -1 gives a None entry.

    The rule keeps ranks, made read-only, as its outcome_ranks: they are in
    place before __init__ runs, so __post_init__ checks the entry count but
    does not rank the outcomes again."""
    rule = object.__new__(VotingRule)
    rule.__dict__["outcome_ranks"] = _read_only(ranks)
    rule.__init__(m, n, outcomes=tuple(_outcome_objects(n)[ranks].tolist()))
    return rule


@lru_cache(maxsize=8)
def _outcome_objects(n: int) -> np.ndarray:
    """The n! orders, then None (read by rank -1), as one object array."""
    orders = enumerate_orders(n)
    return _read_only(np.fromiter((*orders, None), dtype=object, count=len(orders) + 1))


@lru_cache(maxsize=8)
def _rank_table(n: int) -> dict:
    """{order: rank} over _outcome_objects(n)'s orders, and None: -1; its
    callers have passed check_rule_size, which the cache would skip."""
    objects = _outcome_objects(n).tolist()
    return dict(zip(objects, (*range(len(objects) - 1), -1)))


def _ranks(outcomes: Sequence, n: int) -> np.ndarray:
    """order_rank of every outcome, -1 for None, through _rank_table(n):
    the package's one ranking path.  Tuples and None are looked up as they
    are, one C-level step per entry; list entries, such as JSON rows,
    through a transient tuple each, and per entry in Python only where
    lists and None mix.  An entry that is no ranking raises."""
    rank = _rank_table(n)
    for keys in (outcomes, map(tuple, outcomes)):
        try:  # a list entry is unhashable, and tuple(None) fails
            return np.fromiter(map(rank.__getitem__, keys), dtype=int, count=len(outcomes))
        except (KeyError, TypeError):
            pass
    try:
        keys = (o if o is None else tuple(o) for o in outcomes)
        return np.fromiter(map(rank.__getitem__, keys), dtype=int, count=len(outcomes))
    except KeyError as missing:  # str() of a KeyError is the key's repr
        raise ValueError(f"{missing} is not a ranking of alternatives 0..{n - 1}") from None


def _check_outcome_count(m: int, n: int, count: int) -> None:
    if count != factorial(n) ** m:
        raise ValueError(f"expected {factorial(n) ** m} outcome entries")


def projection_rule(m: int, n: int, voter: int) -> VotingRule:
    """Outcome = the chosen voter's ballot, in pairwise form."""
    check_pairwise_size(m, n)  # before building 2^m entries; one alternative needs none
    if not 0 <= voter < m:
        raise ValueError(f"voter {voter} out of range for {m} voters")
    table = tuple(((np.arange(1 << m) >> voter) & 1).tolist()) if n > 1 else ()
    return VotingRule(m, n, tables=(table,) * len(alternative_pairs(n)))


def constant_rule(m: int, n: int, order: LinearOrder) -> VotingRule:
    rank = order_rank(validate_order(order, n))
    return _rule_from_ranks(m, n, np.full(len(profile_domain(m, n).ballot_ranks), rank))


def anti_projection_rule(m: int, n: int, voter: int) -> VotingRule:
    """Outcome = reverse of the chosen voter's ballot: reversing a ballot
    flips every pair bit."""
    domain = profile_domain(m, n)
    if not 0 <= voter < m:
        raise ValueError(f"voter {voter} out of range for {m} voters")
    reversed_rank = domain.decode(~domain.ballot_bits)
    return _rule_from_ranks(m, n, reversed_rank[domain.ballot_ranks[:, voter]])


def borda_rule(m: int, n: int) -> VotingRule:
    """Positional-score rule; score ties broken toward the lower id."""
    domain = profile_domain(m, n)
    points = n - 1 - np.argsort(domain.orders, axis=1)  # points[r, a]: ballot r's score for a
    score = sum(points[domain.ballot_ranks[:, i]] for i in range(m))
    a, b = np.array(alternative_pairs(n), dtype=np.int64).reshape(-1, 2).T
    return _rule_from_ranks(m, n, domain.decode(score[:, a] >= score[:, b]))


def pairwise_majority_rule(m: int, n: int) -> VotingRule:
    """Strict-majority aggregator on every pair (ties go to the larger id).

    For n > 2 the outcome can cycle on some profiles, in which case
    outcome() raises IntransitiveOutcomeError.
    """
    check_pairwise_size(m, n)  # before building 2^m entries; one alternative needs none
    table = ()
    if n > 1:
        vectors = np.arange(1 << m)
        votes = sum((vectors >> i) & 1 for i in range(m))
        table = tuple((2 * votes > m).astype(int).tolist())
    return VotingRule(m, n, tables=(table,) * len(alternative_pairs(n)))


# ---- fairness predicates ----

def check_pareto(rule: VotingRule):
    """(holds, witness): witness is the first decided (profile, a, b), in
    profile then pair order, where a unanimous a-over-b is overridden.

    A pairwise rule whose every table maps the all-zero vector to 0 and the
    all-one vector to 1 holds in closed form.  Otherwise only the cells
    where the voters are unanimous are read."""
    if _keeps_unanimity(rule):
        return True, None
    domain = profile_domain(rule.voters, rule.alternatives)
    cells, veto = domain.unanimous_cells
    hits = np.flatnonzero(rule.outcome_bits.ravel()[cells] == veto)
    if not hits.size:
        return True, None
    j, k = divmod(int(cells[hits[0]]), domain.ballot_bits.shape[1])
    a, b = alternative_pairs(rule.alternatives)[k]
    if veto[hits[0]]:
        a, b = b, a
    return False, (domain.profile(j), a, b)


def check_iia(rule: VotingRule):
    """(holds, witness): witness is the first (p, q, a, b), by pair then
    by q, where two decided profiles agree on the pair's restriction but
    the outcomes do not.

    A pairwise rule holds in closed form: at every profile it decides, its
    bit on pair k is tables[k][input_k], a function of the voters' vector
    on that pair alone.  A table rule's decided profiles are counted once
    per (pair, voter vector, outcome bit), so every pair is decided by one
    count; only the first pair where some vector meets both bits is
    scanned for the witness.
    """
    if rule.tables is not None:
        return True, None
    m = rule.voters
    domain = profile_domain(m, rule.alternatives)
    counted = domain.ballot_bits.shape[1] << (m + 1)
    keys = domain.cell_keys + rule.outcome_bits
    seen = np.zeros(2 * counted, dtype=bool)
    seen[keys] = True  # a scatter casts its index in chunks, where bincount copies it whole
    mixed = np.flatnonzero(seen[:counted].reshape(-1, 2).all(axis=1))  # k * 2^m + voter vector
    if not mixed.size:
        return True, None
    k = int(mixed[0]) >> m
    first = np.full(2 * counted, len(keys))  # each key's first profile, on pair k
    np.minimum.at(first, keys[:, k], np.arange(len(keys)))
    # per voter vector, its first profile with bit 0 and with bit 1: where
    # both occur the later is the first whose outcome differs from the
    # vector's first; where one is missing the max is len(keys)
    ends = first[k << (m + 1):(k + 1) << (m + 1)].reshape(-1, 2)
    p, q = sorted(ends[ends.max(axis=1).argmin()].tolist())
    a, b = alternative_pairs(rule.alternatives)[k]
    return False, (domain.profile(p), domain.profile(q), a, b)


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
        # the voters' rankings of x, y, z are fixed by their three pair
        # vectors, packed into one code per profile; sorted, the distinct
        # codes are those that differ from their predecessor
        xy, xz, yz = inputs[:, [k[x, y], k[x, z], k[y, z]]].astype(np.intp).T
        codes = np.sort(xy << 2 * m | xz << m | yz)
        if len(codes) - np.count_nonzero(codes[1:] == codes[:-1]) < factorial(3) ** m:
            return False
    return len(inputs) > 0


def _copying_voters(rule: VotingRule) -> np.ndarray:
    """Per voter: the outcome is that voter's ballot at every decided profile."""
    ranks = rule.outcome_ranks[:, None]
    ballots = profile_domain(rule.voters, rule.alternatives).ballot_ranks
    return ((ballots == ranks) | (ranks < 0)).all(axis=0)


def _keeps_unanimity(rule: VotingRule) -> bool:
    """A pairwise rule whose every table maps the all-zero vector to 0 and
    the all-one vector to 1."""
    return rule.tables is not None and all(t[0] == 0 and t[-1] == 1 for t in rule.tables)


def _per_voter(rule: VotingRule, total: bool) -> np.ndarray:
    """_copying_voters, read off the tables of a pairwise rule that is total
    or keeps unanimity: every (pair, voter vector) cell then occurs at a
    decided profile, so a voter's ballot is the outcome everywhere exactly
    when every table is that voter's projection.  A rule that keeps
    unanimity decides the profile where every voter puts the pair on top,
    in the order the vector gives, above one common order of the rest:
    every other pair is unanimous, so the outcome is that order with the
    pair's bit on top."""
    if rule.tables is not None and (total or _keeps_unanimity(rule)):
        return _projection_copies(rule.table_bits[None], rule.voters)[:, 0]
    return _copying_voters(rule)


def find_dictator(rule: VotingRule) -> Optional[int]:
    """Least voter whose ballot is the outcome at every decided profile."""
    voters = np.flatnonzero(_per_voter(rule, rule.is_total()))
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


def arrow_report(rule: VotingRule) -> ArrowReport:
    """Evaluate all fairness conditions on one rule."""
    pareto, pw = check_pareto(rule)
    iia, iw = check_iia(rule)
    ud = check_ud(rule)
    per_voter = tuple(_per_voter(rule, ud).tolist())
    dictator = per_voter.index(True) if True in per_voter else None
    return ArrowReport(pareto, pw, iia, iw, ud, dictator, per_voter)


# ---- exhaustive search for fair rules ----

@dataclass(frozen=True, eq=False)
class FairRules(Sequence):
    """The fair rules in search order, plus the search's counters: clauses
    (unit clauses and nogoods), decisions (branch values tried),
    propagations (variables set by unit propagation) and conflicts.

    tables[r, k, v] is bit v of rule r's table for the k-th pair; indexing
    or iterating builds that row's pairwise VotingRule on demand."""

    voters: int
    alternatives: int
    tables: np.ndarray
    clauses: int
    decisions: int
    propagations: int
    conflicts: int

    def __len__(self) -> int:
        return len(self.tables)

    def __getitem__(self, i: int) -> VotingRule:
        tables = tuple(map(tuple, self.tables[i].tolist()))
        return VotingRule(self.voters, self.alternatives, tables=tables)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FairRules):
            return NotImplemented
        return all(np.array_equal(getattr(self, f.name), getattr(other, f.name))
                   for f in fields(self))


def _nogoods(m: int, n: int) -> np.ndarray:
    """_nogood_literals behind its guard, which the cache must not skip;
    n >= 3."""
    check_pairwise_size(m, n)
    return _nogood_literals(m, n)


@lru_cache(maxsize=8)
def _nogood_literals(m: int, n: int) -> np.ndarray:
    """The search's nogoods as one read-only [3, 2C] clauses literal array,
    variable pair * 2^m + voter vector, on the pairs (xy, yz, xz) of each
    triple x < y < z: first every row's cyclic outcome (1, 1, 0), then
    every row's (0, 0, 1), so a sweep sums three contiguous rows.

    A voter's bits are any pattern but the two cyclic ones, so every
    triple has the same 6^m rows of voter vectors: all combinations of the
    voters' six patterns, voter 0 the most significant digit, built one
    voter at a time (no [6^m, m, 3] array).  Each triple's columns are
    those rows' literals offset by its pairs, written in place, so no
    [triples, 6^m, 3] array is built beside the literals."""
    k = {pair: i for i, pair in enumerate(alternative_pairs(n))}
    triples = np.array([(k[x, y], k[y, z], k[x, z]) for x, y, z in combinations(range(n), 3)],
                       dtype=np.intp) << m + 1  # each triple's pairs' first literals
    acyclic = np.array([(0, 0, 0), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1)], dtype=np.intp)
    rows = np.zeros((1, 3), dtype=np.intp)
    for i in range(m):
        rows = (rows[:, None] | acyclic << i).reshape(-1, 3)
    cyclic = np.array([[1, 0], [1, 0], [0, 1]], dtype=np.intp)[..., None]
    base = (rows.T[:, None] << 1) | cyclic  # [3, 2, 6^m]: the literals less their pairs
    lits = np.empty((3, 2, len(triples), len(rows)), dtype=np.intp)
    for t, offsets in enumerate(triples):
        np.add(base, offsets[:, None, None], out=lits[:, :, t])
    return _read_only(lits.reshape(3, -1))


@lru_cache(maxsize=8)
def _unanimity_values(m: int, n: int) -> np.ndarray:
    """The search's read-only start, one int8 per variable pair * 2^m +
    voter vector: x[k][0] = 0 and x[k][2^m - 1] = 1, the unanimity unit
    clauses, and -1 (unassigned) elsewhere."""
    values = np.full((n * (n - 1) // 2, 1 << m), -1, dtype=np.int8)
    values[:, 0], values[:, -1] = 0, 1
    return _read_only(values.ravel())


def enumerate_fair_rules(m: int, n: int) -> FairRules:
    """All pairwise-decomposable rules that respect unanimity on every pair
    and stay transitive on every profile, in lexicographic order of their
    concatenated truth tables.

    A rule is one Boolean variable per (pair k, voter vector v): bit v of
    table k.  Unanimity gives the unit clauses x[k][0] = 0 and
    x[k][2^m - 1] = 1; each triple x < y < z and each way the voters rank
    it give two 3-literal nogoods, one per cyclic outcome.

    With fewer than three alternatives there is no triple, so no nogood is
    built, and search lists every completion of the unit clauses without a
    sweep.  Otherwise every variable lies in a nogood, and search reads the
    cached nogood literals of the size directly.  Either way it lists the
    rules in table order, with its counters.
    """
    npairs = n * (n - 1) // 2
    if n < 3:  # at most 2^4 voter vectors per pair, and the listing's 16,384 rules
        check_rule_size(m, n)
        check_power_guard(2, m, 16, "profile bit-vector size 2^m")
        check_power_guard(2, npairs * ((1 << m) - 2), 1 << 14,
                          "fair rule count 2^(pairs*(2^m-2))")
        nogoods = []
    else:
        nogoods = [_nogoods(m, n)]  # check_pairwise_size runs check_rule_size first
    leaves, decisions, propagations, conflicts = search(_unanimity_values(m, n), nogoods)
    return FairRules(m, n, leaves.reshape(len(leaves), npairs, 1 << m),
                     2 * npairs + sum(lits.shape[1] for lits in nogoods),
                     decisions, propagations, conflicts)


@dataclass(frozen=True)
class ArrowVerification:
    """Outcome of enumerating fair rules and testing each for a dictator;
    rules carries the search's counters.

    dictator_codes is one read-only int array, each rule's least voter that
    dictates or -1 where none does; it is a function of rules, so equality
    reads rules alone.  rule_dictators, the same with None for -1, is built
    from it on first access."""

    voters: int
    alternatives: int
    fair_rule_count: int
    all_dictatorial: bool
    dictators: tuple[int, ...]
    dictator_codes: np.ndarray = field(repr=False, compare=False)
    rules: FairRules = field(repr=False)

    @cached_property
    def rule_dictators(self) -> tuple[Optional[int], ...]:
        voters = np.array((*range(self.voters), None), dtype=object)
        return tuple(voters[self.dictator_codes].tolist())  # -1 reads None

    def stats(self) -> dict:
        return {name: getattr(self.rules, name)
                for name in ("clauses", "decisions", "propagations", "conflicts")}


def verify_arrow(m: int, n: int) -> ArrowVerification:
    """Enumerate every fair rule and check whether each has a dictator.

    For n >= 3 every fair rule is a projection, so all_dictatorial comes
    out true; n = 2 admits non-dictatorial fair rules for m >= 2.

    A fair rule is total, so voter i dictates exactly when every table
    equals voter i's projection table (_projection_copies), which gives
    find_dictator for every rule: a voter, or -1 where none copies.
    """
    rules = enumerate_fair_rules(m, n)
    copies = _projection_copies(rules.tables, m)
    first = np.full(len(rules), -1)
    for voter in reversed(range(m)):  # the least voter that copies writes last
        first[copies[voter]] = voter
    dictated = first >= 0
    dictators = tuple(sorted(set(first[dictated].tolist())))
    return ArrowVerification(m, n, len(rules), bool(dictated.all()), dictators,
                             _read_only(first), rules)


def _projection_copies(tables: np.ndarray, m: int) -> np.ndarray:
    """[voter, rule]: every table of the rule, [rules, pairs, 2^m] bits, is
    the voter's projection, bit v = (v >> voter) & 1.  Each rule's tables
    are packed, as one bit string, into words, and one comparison with the
    m projections' words decides every voter and rule."""
    return (_packed_words(tables) == _projection_words(m, tables.shape[1])[:, None]).all(axis=2)


@lru_cache(maxsize=8)
def _projection_words(m: int, npairs: int) -> np.ndarray:
    """_packed_words of each voter's projection on every one of npairs pairs."""
    bits = np.zeros((m, 1, npairs << m), dtype=np.uint8)
    for i in range(m):  # runs of 2^i zeros, then 2^i ones: no [m, 2^m] int array
        bits[i, 0].reshape(-1, 2, 1 << i)[:, 1] = 1
    return _read_only(_packed_words(bits))


def _packed_words(tables: np.ndarray) -> np.ndarray:
    """[rules, pairs, 2^m] bits as [rules, words] unsigned words: each
    rule's bits in order, zero-padded to a power of two of at least 8 bits,
    which is one word of 1, 2, 4 or 8 bytes or a row of 8-byte words.  One
    flat np.packbits packs every rule at once: along the last axis it steps
    row by row, about fifty times as long for the 16,384 rules at (4, 2)."""
    flat = tables.reshape(len(tables), -1)
    width = max(8, 1 << (flat.shape[1] - 1).bit_length())
    bits = np.zeros((len(flat), width), dtype=np.uint8)
    bits[:, :flat.shape[1]] = flat
    words = np.packbits(bits, bitorder="little").view(f"u{min(width // 8, 8)}")
    return words.reshape(len(flat), -1)


# ---- reversible circuit table ----

def classical_circuit_table(rule: VotingRule, d: Optional[int] = None) -> np.ndarray:
    """Permutation on flat indices of (ancilla, voter_1..voter_m) register
    tuples, each register holding a value in 0..d-1: the dense reference for
    hilbert.UnitaryCircuit, which reads its entries off the rule.

    The ancilla advances by the rank of the outcome, modulo d, so the map
    is a bijection; at ancilla 0 it writes the outcome rank directly.
    Register tuples whose voter entries include non-ballot values (possible
    when d > n!) are left unchanged.  Flat index convention: ancilla is the
    most significant digit, voter m-1 the least.
    """
    m, n = rule.voters, rule.alternatives
    nballots = factorial(n)
    d = nballots if d is None else d
    if d < nballots:
        raise ValueError(f"register size {d} cannot hold {nballots} ballots")
    check_power_guard(d, m + 1, 4096, "circuit table size d^(m+1)")
    ranks = rule.outcome_ranks  # the table reads them, so they decide totality too
    if (ranks < 0).any():
        raise ValueError("circuit table needs a total rule")

    shifts = np.zeros((d,) * m, dtype=np.int64)  # one axis per voter register
    shifts[(slice(nballots),) * m] = ranks.reshape((nballots,) * m)
    block = np.arange(d ** m, dtype=np.int64)
    ancilla = np.arange(d, dtype=np.int64)[:, None]
    # a bijection by construction: each block's ancilla column is a cyclic shift
    return (((ancilla + shifts.ravel()) % d) * d ** m + block).ravel()


# ---- JSON form ----

def rule_to_json_dict(rule: VotingRule) -> dict:
    """{"voters", "alternatives", "kind", "entries"} with rankings as arrays."""
    if rule.tables is not None:
        entries = [list(map(int, t)) for t in rule.tables]
    else:
        entries = [None if out is None else list(map(int, out)) for out in rule.outcomes]
    return {
        "voters": rule.voters,
        "alternatives": rule.alternatives,
        "kind": rule.kind,
        "entries": entries,
    }


def rule_from_json_dict(data: dict) -> VotingRule:
    try:
        m, n, kind, entries = (data[k] for k in ("voters", "alternatives", "kind", "entries"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed rule object: {exc}") from exc
    if type(m) is not int or type(n) is not int:
        raise ValueError(f"voters and alternatives must be integers, got {m!r} and {n!r}")
    if not isinstance(entries, list):
        raise ValueError(f"rule entries must be a list, got {entries!r}")
    if kind == "pairwise":
        return VotingRule(m, n, tables=tuple(json_ints(t, "a pair table") for t in entries))
    if kind == "table":
        # VotingRule's checks, in its order, between the type scan and the
        # ranking; the rule then shares the n! orders as a built rule does
        json_int_lists(entries, "an outcome")
        check_rule_size(m, n)
        _check_outcome_count(m, n, len(entries))
        return _rule_from_ranks(m, n, _ranks(entries, n))
    raise ValueError(f"unknown rule kind {kind!r}")
