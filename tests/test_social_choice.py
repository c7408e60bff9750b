import json
import re
import time
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from arrowq import SizeLimitError, clauses, social_choice
from arrowq._guards import GUARD_ENV, check_power_guard, guard_multiplier
from arrowq.orders import alternative_pairs, enumerate_orders, order_rank, reverse_order
from arrowq.social_choice import (
    IntransitiveOutcomeError,
    VotingRule,
    all_profiles,
    anti_projection_rule,
    arrow_report,
    borda_rule,
    check_iia,
    check_pareto,
    check_ud,
    check_ud_triples,
    classical_circuit_table,
    constant_rule,
    enumerate_fair_rules,
    find_dictator,
    pair_input,
    pairwise_majority_rule,
    profile_domain,
    projection_rule,
    rule_from_json_dict,
    rule_to_json_dict,
    verify_arrow,
)

import oracles

# expected fair-rule tables, computed once with oracles.brute_force_fair_rules
FAIR_22 = [
    ((0, 0, 0, 1),),
    ((0, 0, 1, 1),),
    ((0, 1, 0, 1),),
    ((0, 1, 1, 1),),
]
FAIR_23 = [
    ((0, 0, 1, 1),) * 3,
    ((0, 1, 0, 1),) * 3,
]
FAIR_33 = [
    ((0, 0, 0, 0, 1, 1, 1, 1),) * 3,
    ((0, 0, 1, 1, 0, 0, 1, 1),) * 3,
    ((0, 1, 0, 1, 0, 1, 0, 1),) * 3,
]


# ---- outcome plumbing ----

def test_profile_index_matches_enumeration_order():
    for i, profile in enumerate(all_profiles(2, 3)):
        assert oracles.profile_index(profile) == i


def test_pair_input_bits():
    profile = ((0, 1, 2), (2, 1, 0))
    assert pair_input(profile, 0, 1) == 0b01
    assert pair_input(profile, 1, 2) == 0b01
    assert pair_input(profile, 0, 2) == 0b01


def test_order_from_pair_bits_roundtrip():
    for n in range(1, 7):
        domain = profile_domain(1, n)
        for order in enumerate_orders(n):
            pair_bits = oracles.decompose(order)
            assert pair_bits == tuple(domain.ballot_bits[order_rank(order)].tolist())
            assert oracles.order_from_pair_bits(pair_bits, n) == order
            assert domain.decode(np.array(pair_bits, dtype=np.int64)) == order_rank(order)


def test_order_from_pair_bits_rejects_cycles():
    for bits in ((1, 0, 1), (0, 1, 0)):
        with pytest.raises(ValueError, match=re.escape(f"pair bits {bits} contain a cycle")):
            oracles.order_from_pair_bits(bits, 3)
        assert profile_domain(1, 3).decode(np.array(bits)) == -1


@pytest.mark.parametrize("n", range(1, 6))
def test_order_from_pair_bits_matches_the_cycle_oracle(n):
    # the package's one decoder against the win-count and 3-cycle references
    domain = profile_domain(1, n)
    bits = np.array(list(product((0, 1), repeat=n * (n - 1) // 2)), dtype=np.int64)
    ranks = domain.decode(bits)
    for row, rank in zip(bits.tolist(), ranks.tolist()):
        if oracles.tournament_is_acyclic(row, n):
            assert domain.orders[rank] == oracles.order_from_pair_bits(row, n)
        else:
            assert rank == -1
            with pytest.raises(ValueError, match="contain a cycle"):
                oracles.order_from_pair_bits(row, n)
    assert (ranks >= 0).sum() == len(enumerate_orders(n))


@given(st.sampled_from(list(enumerate_orders(3))), st.sampled_from(list(enumerate_orders(3))))
def test_projection_outcome_copies_the_voter(b0, b1):
    rule = projection_rule(2, 3, 1)
    assert rule.outcome((b0, b1)) == b1


@pytest.mark.parametrize("profile", [
    ((2, 1, 0),),
    ((1, 0, 2), (2, 1, 0), (0, 1, 2)),
    ((1, 0), (0, 1)),
    ((0, 1, 2), (0, 0, 1)),
])
def test_outcome_rejects_wrong_shape_profiles(profile):
    rule = projection_rule(2, 3, 1)
    for form in (rule, rule.as_table()):
        with pytest.raises(ValueError):
            form.outcome(profile)


def test_majority_rule_cycles_on_condorcet_profile():
    rule = pairwise_majority_rule(3, 3)
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with pytest.raises(IntransitiveOutcomeError):
        rule.outcome(cyclic)


# every profile at (3,3) and (3,4); at (4,4) every 41st of 331,776, since
# one scalar outcome() per profile there takes about 11 s
@pytest.mark.parametrize("m,n,step", [(3, 3, 1), (3, 4, 1), (4, 4, 41)])
def test_outcome_matches_the_win_count_reference(m, n, step):
    rule = pairwise_majority_rule(m, n)
    table = rule.as_table()
    cycles = 0
    for profile in list(all_profiles(m, n))[::step]:
        bits = [rule.tables[k][sum(oracles.ranks_above(ballot, a, b) << i
                                   for i, ballot in enumerate(profile))]
                for k, (a, b) in enumerate(oracles.unordered_pairs(n))]
        try:
            want = oracles.order_from_pair_bits(bits, n)
        except ValueError as exc:
            cycles += 1
            with pytest.raises(IntransitiveOutcomeError, match=re.escape(str(exc))):
                rule.outcome(profile)
            with pytest.raises(ValueError, match="outside the rule's domain"):
                table.outcome(profile)
        else:
            assert rule.outcome(profile) == table.outcome(profile) == want
    assert cycles > 0


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (2, 4)])
def test_profile_domain_rows_match_scalar_functions(m, n):
    domain = profile_domain(m, n)
    pairs = alternative_pairs(n)
    rankings = oracles.all_rankings(n)
    assert pairs == oracles.unordered_pairs(n)
    assert domain.ballot_bits.tolist() == [
        [oracles.ranks_above(ballot, a, b) for a, b in pairs] for ballot in rankings]
    profiles = list(all_profiles(m, n))
    assert profiles == list(product(rankings, repeat=m))
    for j, profile in enumerate(profiles):
        assert oracles.profile_index(profile) == j
        assert domain.profile(j) == profile
        assert domain.ballot_ranks[j].tolist() == [order_rank(b) for b in profile]
        assert domain.ballot_ranks[j].tolist() == [rankings.index(b) for b in profile]
        assert domain.pair_inputs[j].tolist() == [pair_input(profile, a, b) for a, b in pairs]
        assert domain.pair_inputs[j].tolist() == [
            sum(oracles.ranks_above(ballot, a, b) << i for i, ballot in enumerate(profile))
            for a, b in pairs]
    assert len(domain.ballot_ranks) == j + 1


# one voter with up to 8 alternatives, two with up to 6, and three sizes past two voters
BUILDER_SIZES = ([(1, n) for n in range(1, 9)] + [(2, n) for n in range(1, 7)]
                 + [(3, 2), (3, 3), (4, 2)])


class RanksComputedAgain:
    """Stands in for VotingRule.outcome_ranks: a rule built from ranks has
    them in its __dict__ already, which a non-data descriptor defers to."""

    def __get__(self, rule, owner=None):
        raise AssertionError("a rule built from ranks ranked its outcomes again")


@pytest.mark.parametrize("m,n", BUILDER_SIZES)
def test_example_rules_match_the_profile_by_profile_oracle(monkeypatch, m, n):
    def refuse(*args):
        raise AssertionError("a builder walked the profiles one at a time")

    projection = projection_rule(m, n, m - 1)
    ranks = projection.outcome_ranks
    order = tuple(range(n))[::-1]
    with monkeypatch.context() as patch:
        patch.setattr(social_choice, "all_profiles", refuse)
        patch.setattr(social_choice.VotingRule, "outcome_ranks", RanksComputedAgain())
        built = [
            (oracles.constant_outcome(order), constant_rule(m, n, order)),
            *((oracles.anti_projection_outcome(voter), anti_projection_rule(m, n, voter))
              for voter in range(m)),
            (oracles.borda_outcome(n), borda_rule(m, n)),
            (lambda profile: profile[m - 1], projection.as_table()),
        ]
    assert built[-1][1].outcome_ranks is ranks
    rank = {ballot: r for r, ballot in enumerate(oracles.all_rankings(n))}
    for outcome, rule in built:
        assert rule.outcomes == oracles.tabulate(m, n, outcome)
        assert rule.outcome_ranks.tolist() == [rank[o] for o in rule.outcomes]


def test_builder_past_the_profile_domain_guard_is_refused_at_once(monkeypatch):
    # 120^3 = 1,728,000 profiles exceed (n!)^m <= 2^19
    monkeypatch.delenv(GUARD_ENV, raising=False)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(SizeLimitError, match=r"^profile count \(n!\)\^m = 1728000 exceeds"):
            borda_rule(3, 5)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 1 << 20


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 3), (2, 4)])
def test_swept_ranks_match_the_profile_by_profile_outcome(m, n):
    # every line of every voter: the rank outcome() gives, -1 where it refuses
    orders = enumerate_orders(n)
    for rule in (pairwise_majority_rule(m, n), borda_rule(m, n), projection_rule(m, n, m - 1)):
        for voter, fillers in product(range(m), all_profiles(m - 1, n)):
            want = []
            for ballot in orders:
                try:
                    want.append(order_rank(rule.outcome(fillers[:voter] + (ballot,) + fillers[voter:])))
                except ValueError:
                    want.append(-1)
            assert rule.swept_ranks(voter, fillers).tolist() == want
    rule = projection_rule(m, n, 0)
    for form in (rule, rule.as_table()):
        with pytest.raises(ValueError, match=f"voter {m} out of range for {m} voters"):
            form.swept_ranks(m)
        with pytest.raises(ValueError, match=f"expected {m - 1} filler ballots"):
            form.swept_ranks(0, [orders[0]] * m)


def test_profile_domain_guard():
    with pytest.raises(SizeLimitError):
        profile_domain(2, 7)


@pytest.mark.parametrize("build", [
    lambda: profile_domain(0, 3), lambda: profile_domain(-1, 3), lambda: borda_rule(-2, 3),
    lambda: constant_rule(0, 3, (0, 1, 2)), lambda: anti_projection_rule(0, 3, 0),
])
def test_profile_domain_refuses_fewer_than_one_voter(build):
    # these builders reach the domain before any size check of their own
    with pytest.raises(ValueError, match="^need at least one voter and one alternative$"):
        build()


def test_profile_domain_guard_is_checked_past_the_cache(monkeypatch):
    # a domain built under a raised guard must not be served once it is lowered
    monkeypatch.setenv(GUARD_ENV, "4")
    try:
        assert len(profile_domain(3, 5).ballot_ranks) == 1_728_000
        monkeypatch.delenv(GUARD_ENV)
        for build in (profile_domain, borda_rule):
            with pytest.raises(SizeLimitError, match=r"^profile count \(n!\)\^m = 1728000 exceeds"):
                build(3, 5)
    finally:
        social_choice._domains.cache_clear()  # frees the 1,728,000 profiles


def test_projection_audit_builds_no_wide_projection_array():
    # the projections' words were once packed from an int64 [m, 2^m] array:
    # 163 MB traced at 19 voters
    rule = projection_rule(19, 2, 3)
    social_choice._projection_words.cache_clear()
    tracemalloc.start()
    try:
        report = arrow_report(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.dictator == 3 and report.ud
    assert peak < 48 << 20


def test_cyclic_profiles_tabulate_as_undecided():
    majority = pairwise_majority_rule(3, 3)
    table = majority.as_table()
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert table.outcomes[oracles.profile_index(cyclic)] is None
    assert sum(out is None for out in table.outcomes) == 12
    assert arrow_report(table) == arrow_report(majority)


# ---- fairness predicates ----

def test_pareto_examples():
    ok, _ = check_pareto(projection_rule(2, 3, 0))
    assert ok
    ok, witness = check_pareto(constant_rule(2, 2, (0, 1)))
    assert not ok
    assert witness == ((((1, 0), (1, 0))), 1, 0)
    ok, _ = check_pareto(pairwise_majority_rule(3, 2))
    assert ok


def test_iia_examples():
    ok, _ = check_iia(projection_rule(3, 3, 0))
    assert ok
    ok, witness = check_iia(borda_rule(2, 3))
    assert not ok
    p, q, a, b = witness
    # witness profiles agree on the pair but outcomes disagree
    rule = borda_rule(2, 3)
    assert pair_input(p, a, b) == pair_input(q, a, b)
    out_p, out_q = rule.outcome(p), rule.outcome(q)
    assert (out_p.index(a) < out_p.index(b)) != (out_q.index(a) < out_q.index(b))


@pytest.mark.parametrize("rules", [
    lambda: enumerate_fair_rules(2, 3),
    lambda: enumerate_fair_rules(3, 3),
    lambda: [pairwise_majority_rule(3, 3)],  # cycles on some profiles
    lambda: [pairwise_majority_rule(3, 4)],
], ids=["fair-23", "fair-33", "majority-33", "majority-34"])
def test_pairwise_iia_in_closed_form_matches_the_table_scan(rules):
    for rule in rules():
        table = rule.as_table()
        witness = oracles.first_iia_violation(
            table.outcomes, list(all_profiles(rule.voters, rule.alternatives)), rule.alternatives)
        assert check_iia(rule) == check_iia(table) == (witness is None, witness)


def test_iia_witness_matches_quadratic_oracle():
    rule = borda_rule(2, 3)
    profiles = list(all_profiles(2, 3))
    found = None
    for a, b in [(0, 1), (0, 2), (1, 2)]:
        got = oracles.violates_iia(rule.outcome, profiles, a, b)
        if got is not None:
            found = (a, b)
            break
    assert found is not None


def test_ud_checks():
    assert check_ud(projection_rule(2, 3, 0))
    table = borda_rule(2, 3).as_table()
    assert check_ud(table)
    assert check_ud_triples(table)
    # at (2, 3) each profile is one of the triple's 36 patterns: dropping the
    # first or the last profile misses exactly one way of ranking the triple
    for j in (0, 35):
        outcomes = list(table.outcomes)
        outcomes[j] = None
        partial = VotingRule(2, 3, outcomes=tuple(outcomes))
        assert not check_ud(partial)
        assert not check_ud_triples(partial)
    # at (2, 4) the four triples are told apart: leave undecided every profile
    # where both voters rank 0 > 1 > 2, and only the first triple misses a way
    profiles = list(all_profiles(2, 4))
    borda = borda_rule(2, 4).outcomes
    outcomes = [None if all(b.index(0) < b.index(1) < b.index(2) for b in profile) else out
                for profile, out in zip(profiles, borda)]
    assert not oracles.realizes_every_triple(outcomes, profiles, 4)
    assert not check_ud_triples(VotingRule(2, 4, outcomes=tuple(outcomes)))
    assert check_ud_triples(VotingRule(2, 4, outcomes=(None, *borda[1:])))


@pytest.mark.parametrize("m, n", [(12, 2), (25, 1)])
def test_ud_triples_without_a_triple_reads_no_triple_rows(monkeypatch, m, n):
    # below three alternatives there is no triple to realize: 6^m rows of
    # voter vectors would be 2.2 million at m = 12 and past the guard at 25
    def refuse(*args):
        raise AssertionError("triple rows read without a triple")

    monkeypatch.setattr(social_choice, "_nogood_literals", refuse)
    monkeypatch.setattr(social_choice, "_nogoods", refuse)
    rule = projection_rule(m, n, 0)
    assert check_ud_triples(rule)
    assert rule.is_total()


def test_cyclic_pairwise_rule_is_not_total():
    # Condorcet profiles leave majority without a linear outcome
    majority = pairwise_majority_rule(3, 3)
    assert not check_ud(majority)
    assert not majority.is_total()
    # on two alternatives an odd electorate can never cycle
    assert check_ud(pairwise_majority_rule(3, 2))


def random_pairwise_tables(rng, m, n):
    """Tables for every pair.  Half the draws mix, per pair, uniform random
    bits, a voter's projection, its negation and constants, which cycle on
    some profile more often than not; the other half give every pair the
    same voter's projection, its negation, or one random order's bit, all
    total."""
    vectors = np.arange(1 << m)
    voter, order = rng.integers(m), rng.permutation(n)
    if rng.integers(2):
        kind = rng.integers(3)
        return tuple(tuple([(vectors >> voter) & 1, 1 - ((vectors >> voter) & 1),
                            np.full(1 << m, int(order[a] < order[b]))][kind].tolist())
                     for a, b in alternative_pairs(n))
    tables = []
    for _ in alternative_pairs(n):
        kind, voter = rng.integers(4), rng.integers(m)
        table = [rng.integers(0, 2, 1 << m), (vectors >> voter) & 1,
                 1 - ((vectors >> voter) & 1), np.full(1 << m, rng.integers(2))][kind]
        tables.append(tuple(table.tolist()))
    return tuple(tables)


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (2, 4), (3, 4)])
def test_is_total_matches_a_brute_force_over_the_profile_domain(m, n):
    # is_total gathers the tables' literal truth table at the search's
    # nogoods; the oracle reads every profile's tournament off the domain
    rng = np.random.default_rng(1000 * m + n)
    inputs = profile_domain(m, n).pair_inputs
    tables = [random_pairwise_tables(rng, m, n) for _ in range(40)]
    verdicts = []
    for rule_tables in tables:
        rule = VotingRule(m, n, tables=rule_tables)
        bits = np.array(rule_tables)[np.arange(inputs.shape[1]), inputs]
        want = all(oracles.tournament_is_acyclic(row, n) for row in np.unique(bits, axis=0).tolist())
        assert rule.is_total() == want
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_find_dictator_examples():
    assert find_dictator(projection_rule(3, 3, 1)) == 1
    assert find_dictator(anti_projection_rule(2, 3, 0)) is None
    assert find_dictator(pairwise_majority_rule(3, 2)) is None
    # table-form projection also detected
    assert find_dictator(projection_rule(2, 3, 1).as_table()) == 1


def test_arrow_report_round_trip():
    report = arrow_report(projection_rule(2, 3, 0))
    assert report.pareto and report.iia and report.ud
    assert report.dictator == 0
    assert report.per_voter == (True, False)
    assert report.pareto_witness is None and report.iia_witness is None

    bad = arrow_report(constant_rule(2, 2, (0, 1)))
    assert not bad.pareto
    profile, a, b = bad.pareto_witness
    assert len(profile) == 2 and all(ballot.index(a) < ballot.index(b) for ballot in profile)

    p, q, a, b = arrow_report(borda_rule(2, 3)).iia_witness
    assert len(p) == len(q) == 2 and a != b


def test_arrow_report_scans_for_copying_voters_once(monkeypatch):
    calls = []
    scan = social_choice._copying_voters

    def counted(rule):
        calls.append(rule)
        return scan(rule)

    rules = projection_rule(3, 2, 2), borda_rule(2, 3), constant_rule(2, 3, (2, 0, 1))
    monkeypatch.setattr(social_choice, "_copying_voters", counted)
    reports = [arrow_report(rule) for rule in rules]
    assert calls == list(rules[1:])  # the total pairwise projection is read off its tables
    monkeypatch.undo()
    assert [r.dictator for r in reports] == [find_dictator(rule) for rule in rules] == [2, None, None]
    assert [r.per_voter for r in reports] == [(False, False, True), (False, False), (False, False)]


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2)])
@pytest.mark.parametrize(
    "make",
    [
        lambda m, n: projection_rule(m, n, m - 1),
        lambda m, n: anti_projection_rule(m, n, 0),
        lambda m, n: constant_rule(m, n, tuple(range(n))),
        lambda m, n: borda_rule(m, n),
    ],
    ids=["projection", "anti-projection", "constant", "borda"],
)
def test_lifted_circuit_copies_exactly_the_dictator(m, n, make):
    from arrowq.hilbert import BallotSpace, lift_rule_to_unitary

    rule = make(m, n)
    circuit = lift_rule_to_unitary(BallotSpace(n), rule)
    assert min(circuit.copied_voters, default=None) == find_dictator(rule)


def perturbed_dictator(m, n, voter, flips):
    """Dictator table with the outcome reversed at a few profile indices."""
    outcomes = [p[voter] for p in all_profiles(m, n)]
    for j in flips:
        outcomes[j] = reverse_order(outcomes[j])
    return VotingRule(m, n, outcomes=tuple(outcomes))


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
@pytest.mark.parametrize(
    "make",
    [
        lambda m, n: borda_rule(m, n),
        lambda m, n: anti_projection_rule(m, n, m - 1),
        lambda m, n: constant_rule(m, n, tuple(range(n))),
        lambda m, n: perturbed_dictator(m, n, 0, [5, 17, 30]),
        lambda m, n: perturbed_dictator(m, n, m - 1, [len(enumerate_orders(n)) ** m - 2]),
    ],
    ids=["borda", "anti-projection", "constant", "perturbed-early", "perturbed-late"],
)
def test_witnesses_match_plain_loop_scan(m, n, make):
    rule = make(m, n)
    profiles = list(all_profiles(m, n))
    pareto, pw = check_pareto(rule)
    iia, iw = check_iia(rule)
    assert pw == oracles.first_pareto_violation(rule.outcomes, profiles, n)
    assert iw == oracles.first_iia_violation(rule.outcomes, profiles, n)
    assert pareto == (pw is None) and iia == (iw is None)


def test_partial_dictator_table_keeps_its_dictator():
    outcomes = [p[1] for p in all_profiles(3, 3)]
    for j in range(0, len(outcomes), 7):
        outcomes[j] = None
    report = arrow_report(VotingRule(3, 3, outcomes=tuple(outcomes)))
    assert report.pareto and report.iia and not report.ud
    assert report.dictator == 1
    assert report.per_voter == (False, True, False)


def test_partial_table_witnesses_skip_undecided_profiles():
    rule = perturbed_dictator(2, 3, 0, [5, 17, 30])
    outcomes = list(rule.outcomes)
    outcomes[5] = None
    profiles = list(all_profiles(2, 3))
    _, pw = check_pareto(VotingRule(2, 3, outcomes=tuple(outcomes)))
    _, iw = check_iia(VotingRule(2, 3, outcomes=tuple(outcomes)))
    assert pw == oracles.first_pareto_violation(outcomes, profiles, 3)
    assert iw == oracles.first_iia_violation(outcomes, profiles, 3)


@st.composite
def table_rules(draw):
    """Total or partial (2, 3) and (3, 3) table rules: a copying voter's
    table or random rankings, with a few entries replaced or undecided."""
    m, n = draw(st.sampled_from([(2, 3), (3, 3)]))
    orders = oracles.all_rankings(n)
    profiles = list(product(orders, repeat=m))
    base = draw(st.sampled_from(["copy", "total", "partial"]))
    if base == "copy":
        voter = draw(st.integers(0, m - 1))
        outcomes = [profile[voter] for profile in profiles]
    else:
        entries = st.sampled_from(orders if base == "total" else [*orders, None])
        outcomes = draw(st.lists(entries, min_size=len(profiles), max_size=len(profiles)))
    edits = st.dictionaries(st.integers(0, len(profiles) - 1), st.sampled_from([*orders, None]),
                            max_size=4)
    for j, out in draw(edits).items():
        outcomes[j] = out
    return VotingRule(m, n, outcomes=tuple(outcomes))


@pytest.mark.parametrize("rule", [
    pairwise_majority_rule(3, 3),  # cycles on twelve profiles
    pairwise_majority_rule(3, 4),
    VotingRule(2, 4, tables=((0, 1, 1, 1),) * 6),
    VotingRule(2, 3, tables=((0, 0, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1))),  # voter 1, 0, 1 per pair
], ids=["majority@3x3", "majority@3x4", "or@2x4", "mixed-projections@2x3"])
def test_a_cyclic_rule_that_keeps_unanimity_is_audited_off_its_tables(monkeypatch, rule):
    # every table keeps unanimity, so every (pair, voter vector) cell occurs
    # at a decided profile and no profile is decoded for the verdicts
    def refuse(*args):
        raise AssertionError("the audit read the profiles")

    m, n = rule.voters, rule.alternatives
    profiles = list(product(oracles.all_rankings(n), repeat=m))
    per_voter = oracles.copying_voters(rule.as_table().outcomes, profiles, m)
    monkeypatch.setattr(social_choice, "_copying_voters", refuse)
    monkeypatch.setattr(social_choice, "profile_domain", refuse)
    report = arrow_report(rule)
    assert not report.ud and report.per_voter == per_voter
    assert report.dictator is find_dictator(rule) is None


@settings(max_examples=80, deadline=None)
@given(table_rules())
@example(borda_rule(2, 3))
@example(borda_rule(3, 3))
@example(anti_projection_rule(3, 3, 1))
@example(perturbed_dictator(3, 3, 2, [0]))  # both witnesses at the first profile
@example(perturbed_dictator(3, 3, 0, [215]))  # and at the last
@example(perturbed_dictator(2, 3, 1, [34]))
def test_arrow_report_matches_the_plain_loop_oracles(rule):
    m, n = rule.voters, rule.alternatives
    profiles = list(product(oracles.all_rankings(n), repeat=m))
    pw = oracles.first_pareto_violation(rule.outcomes, profiles, n)
    iw = oracles.first_iia_violation(rule.outcomes, profiles, n)
    per_voter = oracles.copying_voters(rule.outcomes, profiles, m)
    report = arrow_report(rule)
    assert (report.pareto, report.pareto_witness) == (pw is None, pw)
    assert (report.iia, report.iia_witness) == (iw is None, iw)
    assert report.ud == (None not in rule.outcomes)
    assert report.per_voter == per_voter
    assert report.dictator == (per_voter.index(True) if True in per_voter else None)
    assert check_ud_triples(rule) == oracles.realizes_every_triple(rule.outcomes, profiles, n)


@st.composite
def pairwise_rules(draw):
    """Random (2, 3), (3, 3) and (2, 4) pair tables, cyclic ones included;
    half of them respect unanimity, so Pareto holds in closed form."""
    m, n = draw(st.sampled_from([(2, 3), (3, 3), (2, 4)]))
    table = st.lists(st.integers(0, 1), min_size=1 << m, max_size=1 << m)
    tables = draw(st.lists(table, min_size=len(alternative_pairs(n)),
                           max_size=len(alternative_pairs(n))))
    if draw(st.booleans()):
        tables = [[0, *t[1:-1], 1] for t in tables]
    return VotingRule(m, n, tables=tuple(map(tuple, tables)))


@settings(max_examples=80, deadline=None)
@given(pairwise_rules())
@example(projection_rule(3, 3, 1))
@example(pairwise_majority_rule(3, 3))  # cycles on twelve profiles
@example(VotingRule(2, 4, tables=((0, 1, 1, 1),) * 6))  # Pareto, but cycles
@example(VotingRule(2, 3, tables=((1, 0, 1, 0),) * 3))  # reverses voter 0: total, no dictator
@example(VotingRule(2, 3, tables=((0, 0, 0, 0),) * 3))  # constant
@example(VotingRule(2, 3, tables=((0,) * 4, (1,) * 4, (0,) * 4)))  # cycles everywhere: all copy
def test_pairwise_closed_forms_match_the_table_scan(rule):
    table = rule.as_table()
    assert arrow_report(rule) == arrow_report(table)
    assert find_dictator(rule) == find_dictator(table)


@pytest.mark.parametrize("m, n", [(3, 5), (4, 5), (4, 8), (6, 4)])
def test_fair_rules_past_the_profile_guard_are_audited_without_a_domain(monkeypatch, m, n):
    def refuse(*args):
        raise AssertionError("the audit built a profile domain")

    monkeypatch.delenv(GUARD_ENV, raising=False)
    with pytest.raises(SizeLimitError, match=r"^profile count \(n!\)\^m"):
        social_choice.ProfileDomain(m, n)
    v = verify_arrow(m, n)
    monkeypatch.setattr(social_choice, "profile_domain", refuse)
    for rule, voter in zip(v.rules, v.rule_dictators):
        per_voter = tuple(i == voter for i in range(m))
        assert arrow_report(rule) == social_choice.ArrowReport(
            True, None, True, None, True, voter, per_voter)
        assert find_dictator(rule) == voter
    assert len(v.rules) == m


def test_pairwise_totality_takes_the_triple_row_guard(monkeypatch):
    # 6^8 = 1,679,616 rows of one triple, where the profile domain would list 6^8 profiles
    # built by hand, as a rule file gives it: the builders refuse (8, 3) first
    monkeypatch.delenv(GUARD_ENV, raising=False)
    rule = VotingRule(8, 3, tables=(tuple(v & 1 for v in range(1 << 8)),) * 3)
    message = r"^triple row count C\(n,3\)\*6\^m = 1679616 exceeds"
    with pytest.raises(SizeLimitError, match=message):
        rule.is_total()
    with pytest.raises(SizeLimitError, match=message):
        arrow_report(rule)
    assert projection_rule(7, 3, 0).is_total()  # 6^7 = 279,936 rows


# ---- exhaustive enumeration against the independent oracle ----

def test_fair_rules_match_brute_force_oracle_22():
    got = [r.tables for r in enumerate_fair_rules(2, 2)]
    assert got == oracles.brute_force_fair_rules(2, 2) == FAIR_22


def test_fair_rules_match_brute_force_oracle_23():
    got = [r.tables for r in enumerate_fair_rules(2, 3)]
    assert got == oracles.brute_force_fair_rules(2, 3) == FAIR_23


def test_fair_rules_single_voter():
    got = [r.tables for r in enumerate_fair_rules(1, 3)]
    assert got == oracles.brute_force_fair_rules(1, 3)
    assert len(got) == 1
    assert find_dictator(enumerate_fair_rules(1, 4)[0]) == 0


def test_fair_rules_33_match_frozen_oracle_output():
    # frozen from the (slow) brute-force oracle run; all three projections
    got = [r.tables for r in enumerate_fair_rules(3, 3)]
    assert got == FAIR_33


def test_every_fair_rule_passes_all_predicates_after_tabulation():
    for rule in enumerate_fair_rules(2, 3):
        table = rule.as_table()
        assert check_pareto(table)[0]
        assert check_iia(table)[0]
        assert check_ud(table)
        assert find_dictator(table) == find_dictator(rule)


def test_fair_rule_outcomes_agree_with_oracle_evaluation():
    for rule in enumerate_fair_rules(2, 3):
        for profile in all_profiles(2, 3):
            expected = oracles.rule_outcome_from_tables(rule.tables, profile, 3)
            assert rule.outcome(profile) == expected


def test_verify_arrow_dichotomy():
    v = verify_arrow(2, 3)
    assert (v.fair_rule_count, v.all_dictatorial, v.dictators) == (2, True, (0, 1))
    assert v.rule_dictators == (1, 0) and v.dictator_codes.tolist() == [1, 0]
    with pytest.raises(ValueError, match="read-only"):
        v.dictator_codes[0] = 0
    assert verify_arrow(2, 3) == v and v.rules == enumerate_fair_rules(2, 3)
    assert verify_arrow(2, 2).rules != v.rules and v.rules != list(v.rules)
    v22 = verify_arrow(2, 2)
    assert not v22.all_dictatorial
    assert v22.fair_rule_count == 4
    v33 = verify_arrow(3, 3)
    assert (v33.fair_rule_count, v33.all_dictatorial) == (3, True)
    assert v33.dictators == (0, 1, 2)


def test_verify_arrow_24_within_guard():
    v = verify_arrow(2, 4)
    assert v.all_dictatorial and v.fair_rule_count == 2


def test_enumeration_guard(monkeypatch):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    with pytest.raises(SizeLimitError, match="^alternative count"):
        enumerate_fair_rules(2, 9)
    # n <= 2: at most 2^4 voter vectors, so 16,384 rules
    with pytest.raises(SizeLimitError, match=r"^profile bit-vector size 2\^m"):
        enumerate_fair_rules(5, 2)
    # n >= 3: the first sizes past C(n,3)*6^m <= 2^19 triple rows
    for (m, n), rows in (((8, 3), 1679616), ((7, 4), 1119744), ((6, 6), 933120)):
        with pytest.raises(SizeLimitError, match=rf"^triple row count C\(n,3\)\*6\^m = {rows} "):
            enumerate_fair_rules(m, n)


@pytest.mark.parametrize("override", [None, "2", "1000"])
@pytest.mark.usefixtures("refuse_large_aranges")
def test_two_alternative_listing_is_guarded_by_its_rule_count(monkeypatch, override):
    # with one or two alternatives the listing holds 2^(pairs*(2^m-2)) rules;
    # under an override the 2^m <= 16k bound alone admitted (5, 2), 2^30 rules
    monkeypatch.delenv(GUARD_ENV, raising=False)
    if override is not None:
        monkeypatch.setenv(GUARD_ENV, override)
    for m in range(1, 5):  # the sizes admitted without an override, both n
        assert len(enumerate_fair_rules(m, 1)) == 1
        assert len(enumerate_fair_rules(m, 2)) == 1 << ((1 << m) - 2)
    if override is None:
        for n in (1, 2):
            with pytest.raises(SizeLimitError, match=r"^profile bit-vector size 2\^m = 32 exceeds"):
                enumerate_fair_rules(5, n)
    else:
        with pytest.raises(SizeLimitError,
                           match=r"^fair rule count 2\^\(pairs\*\(2\^m-2\)\) = 2\^30 exceeds"):
            enumerate_fair_rules(5, 2)


def test_triple_rows_cached_under_an_override_keep_their_guard(monkeypatch):
    # the guard is checked outside _nogood_literals' cache: literals built
    # while the override admits (6, 6) do not let the search, the audit or a
    # builder past it later
    monkeypatch.setenv(GUARD_ENV, "2")
    rule = projection_rule(6, 6, 0)
    assert rule.is_total()
    monkeypatch.delenv(GUARD_ENV)
    message = r"^triple row count C\(n,3\)\*6\^m = 933120 exceeds the size guard 524288 "
    with pytest.raises(SizeLimitError, match=message):
        rule.is_total()
    with pytest.raises(SizeLimitError, match=message):
        projection_rule(6, 6, 0)
    with pytest.raises(SizeLimitError, match=message):
        enumerate_fair_rules(6, 6)
    hits = social_choice._nogood_literals.cache_info().hits
    social_choice._nogood_literals(6, 6)  # the literals are still cached
    assert social_choice._nogood_literals.cache_info().hits == hits + 1


@pytest.mark.parametrize("m, n", [(2, 2), (3, 3), (2, 4)])
def test_search_tables_are_cached_read_only(m, n):
    # the search and is_total share them, so a write by one would reach
    # every later call of the size
    values = social_choice._unanimity_values(m, n)
    enumerate_fair_rules(m, n)
    assert social_choice._unanimity_values(m, n) is values
    arrays = [values]
    if n > 2:
        arrays.append(social_choice._nogoods(m, n))
        assert projection_rule(m, n, 0).is_total()
        assert social_choice._nogoods(m, n) is arrays[-1]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[..., 0] = 1
    assert [r.tables for r in enumerate_fair_rules(m, n)] == (
        FAIR_22 if n == 2 else projection_tables(m, n))


@pytest.mark.parametrize("override", [None, "1", "3", "1000"])
def test_power_guard_admits_what_the_built_power_admits(monkeypatch, override):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    if override is not None:
        monkeypatch.setenv(GUARD_ENV, override)
    limit = 16 * guard_multiplier()
    for base, exponent, factor in product(range(1, 9), range(-2, 41), (1, 3)):
        if factor * base ** exponent > limit:
            with pytest.raises(SizeLimitError, match="^size = "):
                check_power_guard(base, exponent, 16, "size", factor)
        else:
            check_power_guard(base, exponent, 16, "size", factor)


def test_search_never_builds_a_profile_domain(monkeypatch):
    def refuse(m, n):
        raise AssertionError("the search built a profile domain")

    monkeypatch.setattr(social_choice, "profile_domain", refuse)
    for m, n in ((3, 4), (4, 3), (3, 5), (4, 5), (5, 3), (6, 4)):
        v = verify_arrow(m, n)
        assert v.all_dictatorial and v.dictators == tuple(range(m))
    for m, n in ((2, 9), (5, 2), (8, 3)):
        with pytest.raises(SizeLimitError):
            enumerate_fair_rules(m, n)


@pytest.mark.parametrize("m, n", [(1, 3), (2, 3), (3, 3), (4, 3), (2, 4), (3, 4), (2, 5)])
def test_closed_form_nogoods_match_the_profile_domain(m, n):
    # the derivation the closed form replaced: per triple, the distinct
    # (xy, yz, xz) rows of the domain's pair inputs, as variables
    # pair * 2^m + voter vector; the cached literals hold each row once per
    # cyclic outcome, (1, 1, 0) in the first half of the columns and
    # (0, 0, 1) in the second, in the same row order
    inputs = profile_domain(m, n).pair_inputs.astype(np.int64)
    k = {pair: i for i, pair in enumerate(alternative_pairs(n))}
    lits = social_choice._nogood_literals(m, n)
    triples = len(list(combinations(range(n), 3)))
    assert lits.shape == (3, 2 * triples * 6 ** m)
    assert lits.dtype == np.intp  # a narrower index makes every gather cast it
    assert lits.flags.c_contiguous
    first, second = np.split(lits, 2, axis=1)
    assert np.array_equal(first >> 1, second >> 1)
    assert (first & 1 == np.array([[1], [1], [0]])).all()
    assert (second & 1 == np.array([[0], [0], [1]])).all()
    got = (first >> 1).T.reshape(triples, 6 ** m, 3)
    for t, (x, y, z) in enumerate(combinations(range(n), 3)):
        cols = np.array([k[x, y], k[y, z], k[x, z]])
        want = cols * (1 << m) + np.unique(inputs[:, cols], axis=0)
        assert len(np.unique(got[t], axis=0)) == len(got[t])  # each row once
        assert np.array_equal(np.unique(got[t], axis=0), want)


def projection_tables(m, n):
    # closed form at n >= 3: exactly the m projections, in table order
    return [
        (tuple((v >> i) & 1 for v in range(1 << m)),) * len(alternative_pairs(n))
        for i in reversed(range(m))
    ]


@pytest.mark.parametrize(
    "m, n", [(3, 4), (4, 3), (2, 5), (3, 5), (4, 5), (4, 8), (5, 3), (6, 3), (6, 4), (7, 3),
             (6, 5), (5, 8)]
)
def test_fair_rules_are_the_projections(m, n):
    assert [r.tables for r in enumerate_fair_rules(m, n)] == projection_tables(m, n)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_two_alternative_fair_rules_are_the_unanimous_tables(m):
    # closed form at n = 2: every table with t[0] = 0 and t[2^m - 1] = 1
    want = [((0,) + inner + (1,),) for inner in product((0, 1), repeat=(1 << m) - 2)]
    assert [r.tables for r in enumerate_fair_rules(m, 2)] == want


def test_single_alternative_fair_rule_is_pairwise():
    (rule,) = enumerate_fair_rules(3, 1)
    assert rule.tables == () and rule.is_total() and find_dictator(rule) == 0


# (m, 1) rules have no pair tables, so every voter matches; (4, 4) has the
# widest tables the search's guard admits, 2^4 bits, on six pairs
@pytest.mark.parametrize(
    "m, n", [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3), (2, 4), (3, 4), (4, 3),
             (1, 1), (2, 1), (3, 1), (4, 4)]
)
def test_batched_dictators_match_find_dictator(m, n):
    v = verify_arrow(m, n)
    assert v.rule_dictators == tuple(find_dictator(rule) for rule in v.rules)
    # find_dictator reads a total pairwise rule's tables as verify_arrow does;
    # the profile scan is the independent check
    scanned = [np.flatnonzero(social_choice._copying_voters(rule)) for rule in v.rules]
    assert v.rule_dictators == tuple(int(s[0]) if s.size else None for s in scanned)


def test_verify_arrow_42_stays_within_its_working_set():
    # 16,384 rules of 16 bits: the int8 tables take 256 KB, and the listing
    # and the dictator pass build no int64 copy of them (2.4 MB traced when
    # they did)
    verify_arrow(4, 2)  # numpy's lazy imports fall outside the measurement
    tracemalloc.start()
    try:
        verify_arrow(4, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.2e6


def test_verify_arrow_48_stays_within_its_working_set():
    # the search builds its 145,152 nogoods from the cached intp triple rows
    # as 3.5 MB of intp literals, and a sweep gathers 0.4 MB of int8 truth
    # values from them; int64 literals with a transposed copy and its
    # decoding once peaked at 14.4 MB
    verify_arrow(4, 8)  # the rows are built and cached outside the measurement
    tracemalloc.start()
    try:
        verify_arrow(4, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 7e6


# frozen: (clauses, decisions, propagations, conflicts).  Clauses are a
# unit clause per table end and two nogoods per triple and per way the
# voters rank it (6^m); m projections are m - 1 binary branch points, each
# trying both values.  Without conflicts unit propagation reaches a unique
# fixpoint, so the propagation count does not depend on the clause order.
SEARCH_COUNTERS = {
    (1, 1): (0, 0, 0, 0), (2, 1): (0, 0, 0, 0), (3, 1): (0, 0, 0, 0),
    (1, 2): (2, 0, 2, 0), (2, 2): (2, 0, 2, 0), (3, 2): (2, 0, 2, 0), (4, 2): (2, 0, 2, 0),
    (1, 3): (18, 0, 6, 0), (2, 3): (78, 2, 16, 0),
    (3, 3): (438, 4, 50, 0), (4, 3): (2598, 6, 144, 0),
    (1, 4): (60, 0, 12, 0), (2, 4): (300, 2, 34, 0),
    (3, 4): (1740, 4, 104, 0), (4, 4): (10380, 6, 294, 0),
    (2, 5): (740, 2, 58, 0), (3, 5): (4340, 4, 176, 0),
    (4, 5): (25940, 6, 494, 0), (4, 8): (145208, 6, 1394, 0),
    (5, 3): (15558, 8, 382, 0), (6, 3): (93318, 10, 956, 0),
    (6, 4): (373260, 10, 1922, 0), (7, 3): (559878, 12, 2298, 0),
    (6, 5): (933140, 10, 3210, 0), (5, 8): (870968, 8, 3632, 0),
}


@pytest.mark.parametrize("m, n", SEARCH_COUNTERS)
def test_search_counters(m, n):
    clauses, decisions, propagations, conflicts = SEARCH_COUNTERS[m, n]
    triples = len(list(combinations(range(n), 3)))
    assert clauses == 2 * len(alternative_pairs(n)) + 2 * triples * 6 ** m
    assert verify_arrow(m, n).stats() == {
        "clauses": clauses, "decisions": decisions,
        "propagations": propagations, "conflicts": conflicts,
    }


# the narrow widths, and the widths about where an int8 column sum stops
# holding a unit (w - 1) or an all-true (w) nogood
WIDTHS = [2, 3, 4, 127, 128, 129, 200]


def literals(width, values, *nogoods):
    """clauses.propagate's literal table for values (-1 unassigned) and its
    [width, C] literals 2 * var + bit for width-2 nogoods given as ((var,
    bit), ...), each followed by width - 2 literals of padding variables,
    numbered after values, that hold 1."""
    pad = [(len(values) + i, 1) for i in range(width - 2)]
    sign = np.array([2 * v - 1 if v >= 0 else 0 for v in values] + [1] * len(pad), dtype=np.int8)
    lits = np.array([[2 * v + b for v, b in (*nogood, *pad)] for nogood in nogoods], dtype=np.intp)
    return np.stack([-sign, sign], axis=1).ravel(), lits.T


def assigned(truth, count):
    """The first count variables of a literal table, -1 where unassigned."""
    return [-1 if t == 0 else int(t > 0) for t in truth[1:2 * count:2]]


@pytest.mark.parametrize("width", WIDTHS)
def test_propagate_chain_reaches_fixpoint(width):
    # x0 = 1 forces x1 = 0; then x1 = 0 forces x2 = 1, in the next sweep,
    # from the nogood's first literal; the last nogood's x2 = 0 is false,
    # so it forces nothing
    truth, lits = literals(width, [1, -1, -1, -1], ((0, 1), (1, 1)), ((2, 0), (1, 0)), ((2, 0), (3, 1)))
    assert clauses.propagate(truth, [lits])
    assert assigned(truth, 4) == [1, 0, 1, -1]


@pytest.mark.parametrize("width", WIDTHS)
def test_propagate_all_true_nogood_is_a_conflict(width):
    truth, lits = literals(width, [1, 0], ((0, 1), (1, 0)))
    assert not clauses.propagate(truth, [lits])
    # one literal false: the nogood holds and forces nothing
    truth, lits = literals(width, [1, 1], ((0, 1), (1, 0)))
    assert clauses.propagate(truth, [lits])
    assert assigned(truth, 2) == [1, 1]


@pytest.mark.parametrize("width", WIDTHS)
def test_propagate_variable_forced_both_ways(width):
    # with x0 = 1 one nogood forces x1 = 0 and the other x1 = 1; the sweep
    # that finds it assigns nothing, x2's forcing included
    truth, lits = literals(width, [1, -1, -1], ((0, 1), (1, 1)), ((0, 1), (1, 0)), ((0, 1), (2, 1)))
    assert not clauses.propagate(truth, [lits])
    assert assigned(truth, 3) == [1, -1, -1]


def test_propagate_refuses_a_width_its_sums_cannot_hold():
    truth, lits = literals(1 << 15, [1, 0], ((0, 1), (1, 0)))
    with pytest.raises(ValueError, match="^nogood width 32768: "):
        clauses.propagate(truth, [lits])
    assert not clauses.propagate(truth, [lits[1:]])  # width 32,767: all true


@pytest.mark.parametrize("width", WIDTHS)
def test_search_on_wide_nogoods_matches_the_brute_force_completions(width):
    # six variables, each nogood padded to the width with literals that
    # hold, so the padding changes no branch: x0 = 1 forces x1 = x2 = 0,
    # which makes the third nogood all true; an int8 sum missed that from
    # width 128 and every unit from 129, and listed violating leaves
    truth, lits = literals(width, [-1] * 6, ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 0), (2, 0)),
                           ((3, 1), (4, 1)), ((4, 0), (5, 1)), ((2, 1), (5, 0)))
    values = np.where(truth[1::2] == 0, -1, truth[1::2] > 0).astype(np.int8)
    leaves, decisions, propagations, conflicts = clauses.search(values, [lits])
    pairs = [[divmod(lit, 2) for lit in column] for column in lits.T.tolist()]
    assert list(map(tuple, leaves.tolist())) == oracles.formula_completions(values.tolist(), pairs)
    # padding variables count as set by values
    assert (len(leaves), decisions, propagations - (width - 2), conflicts) == (6, 12, 12, 1)


def random_formula(seed):
    """A seeded formula for clauses.search: 4-8 variables, up to two of them
    assigned, and one or two [w, C] literal arrays of distinct widths 1-4,
    each nogood on w distinct variables with random bits.  The clause count
    grows with 2^w, so every width meets conflicts."""
    rng = np.random.default_rng(seed)
    count = int(rng.integers(4, 9))
    values = np.full(count, -1, dtype=np.int8)
    fixed = rng.choice(count, size=int(rng.integers(0, 3)), replace=False)
    values[fixed] = rng.integers(0, 2, size=len(fixed))
    nogoods = []
    for width in sorted(rng.choice(4, size=int(rng.integers(1, 3)), replace=False) + 1):
        clauses = int(rng.integers(1, (count << width) // 4 + 1))
        var = np.array([rng.choice(count, size=width, replace=False) for _ in range(clauses)])
        nogoods.append((2 * var + rng.integers(0, 2, size=var.shape)).T.astype(np.intp))
    return values, nogoods


@pytest.mark.parametrize("seed", range(200))
def test_search_leaves_match_the_brute_force_completions(seed):
    # of these formulas 33 conflict at the root and 45 inside the tree
    values, nogoods = random_formula(seed)
    leaves = clauses.search(values, nogoods)[0]
    pairs = [[divmod(lit, 2) for lit in lits] for array in nogoods for lits in array.T.tolist()]
    want = oracles.formula_completions(values.tolist(), pairs)
    assert list(map(tuple, leaves.tolist())) == want


# frozen: (decisions, propagations, conflicts) of clauses.search on random_formula,
# computed before the sweep read only the unit columns.  Seeds 2, 5, 9, 12
# and 14 meet no conflict; 13, 27 and 114 find a nogood with every literal
# true at the root, and 75, 101 and 107 a variable forced both ways there;
# the rest conflict inside the tree, 8, 21, 54, 93 and 166 only by forcing
# both ways, 55 only by a true nogood, and 7, 32 and 33 in both ways
FORMULA_COUNTERS = {
    2: (178, 25, 0), 5: (46, 3, 0), 9: (10, 6, 0), 12: (58, 8, 0), 14: (0, 4, 0),
    13: (0, 2, 1), 27: (0, 2, 1), 114: (0, 4, 1),
    75: (0, 0, 1), 101: (0, 2, 1), 107: (0, 3, 1),
    7: (40, 32, 3), 8: (186, 20, 4), 21: (10, 2, 2), 32: (56, 39, 7), 33: (10, 19, 5),
    54: (26, 5, 3), 55: (26, 20, 2), 93: (44, 16, 6), 166: (16, 7, 1),
}


@pytest.mark.parametrize("seed", FORMULA_COUNTERS)
def test_search_counters_on_random_formulas(seed):
    values, nogoods = random_formula(seed)
    assert clauses.search(values, nogoods)[1:] == FORMULA_COUNTERS[seed]


@pytest.mark.parametrize("seed", range(12))
def test_search_without_nogoods_lists_every_completion(seed):
    # no nogood: nothing branches, and the only propagations are values' own
    rng = np.random.default_rng(seed)
    count = int(rng.integers(0, 11))
    values = rng.integers(0, 2, size=count).astype(np.int8)
    values[rng.random(count) < (0, 0.5, 1)[seed % 3]] = -1  # all, some, none assigned
    leaves, decisions, propagations, conflicts = clauses.search(values, [])
    assert list(map(tuple, leaves.tolist())) == oracles.formula_completions(values.tolist(), [])
    assert (decisions, propagations, conflicts) == (0, int(np.count_nonzero(values >= 0)), 0)


@pytest.mark.parametrize("seed", range(200))
def test_violated_matches_the_brute_force_completions(seed):
    values, nogoods = random_formula(seed)
    pairs = [[divmod(lit, 2) for lit in lits] for array in nogoods for lits in array.T.tolist()]
    solutions = set(oracles.formula_completions([-1] * len(values), pairs))
    for bits in product((0, 1), repeat=len(values)):
        assert clauses.violated(np.array(bits, dtype=np.int8), nogoods) == (bits not in solutions)


@pytest.mark.parametrize("width", [127, 128, 129, 200])
def test_violated_on_wide_nogoods_matches_the_brute_force_completions(width):
    # the padding variables hold 1 in every assignment, as literals() sets them
    _, lits = literals(width, [-1] * 6, ((0, 1), (1, 1)), ((0, 1), (2, 1)), ((1, 0), (2, 0)),
                           ((3, 1), (4, 1)), ((4, 0), (5, 1)), ((2, 1), (5, 0)))
    pad = (1,) * (width - 2)
    pairs = [[divmod(lit, 2) for lit in column] for column in lits.T.tolist()]
    solutions = set(oracles.formula_completions([-1] * 6 + list(pad), pairs))
    for bits in product((0, 1), repeat=6):
        assert clauses.violated(np.array(bits + pad), [lits]) == (bits + pad not in solutions)


# ---- reversible circuit table ----

def test_circuit_table_is_bijective_and_fixes_voters():
    rule = projection_rule(2, 3, 0)
    perm = classical_circuit_table(rule)
    d = 6
    assert np.array_equal(np.sort(perm), np.arange(d ** 3))
    for a in range(d):
        for idx in range(d ** 2):
            out = perm[a * d ** 2 + idx]
            assert out % d ** 2 == idx  # voter registers unchanged


def test_circuit_table_zero_ancilla_row_writes_outcome():
    rule = borda_rule(2, 2)
    perm = classical_circuit_table(rule)
    d = 2
    for profile in all_profiles(2, 2):
        idx = order_rank(profile[0]) * d + order_rank(profile[1])
        assert perm[idx] // d ** 2 == order_rank(rule.outcome(profile))


def test_circuit_table_larger_register_passes_non_ballots_through():
    rule = projection_rule(1, 2, 0)
    perm = classical_circuit_table(rule, d=3)
    # voter value 2 is not a ballot: every ancilla block leaves it fixed
    for a in range(3):
        assert perm[a * 3 + 2] == a * 3 + 2
    assert np.array_equal(np.sort(perm), np.arange(9))


def test_circuit_table_guard():
    with pytest.raises(SizeLimitError):
        classical_circuit_table(projection_rule(4, 3, 0))
    # checked before any profile is scanned: 24^5 profiles would take minutes
    with pytest.raises(SizeLimitError):
        classical_circuit_table(projection_rule(5, 4, 0))


# ---- JSON round trips ----

def test_rule_json_round_trip_pairwise():
    rule = enumerate_fair_rules(2, 3)[0]
    data = rule_to_json_dict(rule)
    assert data["kind"] == "pairwise"
    back = rule_from_json_dict(data)
    assert back.tables == rule.tables


@pytest.mark.parametrize("rule", [
    VotingRule(1, 2, tables=((0, True),)),
    VotingRule(1, 2, tables=((0, 1.0),)),
    VotingRule(1, 2, tables=((0, np.int64(1)),)),
    VotingRule(1, 2, tables=((np.uint8(0), np.int8(1)),)),
    VotingRule(1, 3, outcomes=((0, 1.0, 2), (True, 0, 2), (2, np.int64(1), 0),
                               (1, 2, 0), (2, 0, 1), (2, 1, 0))),
], ids=["bool", "float", "int64", "small-ints", "table"])
def test_rule_json_survives_json_text(rule):
    # entries the constructor accepts are written as Python ints
    data = json.loads(json.dumps(rule_to_json_dict(rule)))
    assert rule_from_json_dict(data) == rule


def test_rule_json_round_trip_table():
    rule = borda_rule(2, 3).as_table()
    data = rule_to_json_dict(rule)
    assert data["kind"] == "table"
    back = rule_from_json_dict(data)
    assert back.outcomes == rule.outcomes


@pytest.mark.parametrize("bad", [(0, 0, 1), (0, 1), (0, 1, 3)])
def test_table_rule_rejects_a_non_ranking_entry(bad):
    outcomes = [list(p[0]) for p in all_profiles(2, 3)]
    outcomes[7] = list(bad)
    message = "^" + re.escape(f"{bad!r} is not a ranking of alternatives 0..2") + "$"
    with pytest.raises(ValueError, match=message):
        VotingRule(2, 3, outcomes=tuple(tuple(o) for o in outcomes))
    data = {"voters": 2, "alternatives": 3, "kind": "table", "entries": outcomes}
    with pytest.raises(ValueError, match=message):
        rule_from_json_dict(data)


def test_table_rule_ranks_list_entries_as_tuples():
    # a list entry is unhashable, so it takes the per-entry path; a None
    # hole ranks -1 on both paths
    outcomes = [None if j % 5 == 0 else p[1] for j, p in enumerate(all_profiles(2, 3))]
    as_tuples = VotingRule(2, 3, outcomes=tuple(outcomes))
    as_lists = VotingRule(2, 3, outcomes=tuple(None if o is None else list(o) for o in outcomes))
    want = [-1 if o is None else order_rank(o) for o in outcomes]
    assert as_tuples.outcome_ranks.tolist() == as_lists.outcome_ranks.tolist() == want
    outcomes[7] = [0, 0, 1]
    with pytest.raises(ValueError, match=r"^\(0, 0, 1\) is not a ranking of alternatives 0..2$"):
        VotingRule(2, 3, outcomes=tuple(outcomes))


# (3,3) table documents with bad values anywhere in their 216 entries
_LEAVES = [True, 1.0, "1", None, 10 ** 400]
_ENTRIES = [5, [], [0, 1], [0, 0, 1], [0, 1, 3], None]
_MUTATIONS = st.one_of(
    st.tuples(st.just("leaf"), st.integers(0, 215), st.integers(0, 2), st.sampled_from(_LEAVES)),
    st.tuples(st.just("entry"), st.integers(0, 215), st.just(0), st.sampled_from(_ENTRIES)),
    st.tuples(st.just("drop"), st.integers(0, 215), st.just(0), st.none()),
    st.tuples(st.just("voters"), st.just(0), st.just(0), st.sampled_from([2, 63, 10 ** 7, 10 ** 400])),
)


def _mutated_table_doc(voter, mutations):
    data = rule_to_json_dict(projection_rule(3, 3, voter).as_table())
    entries = data["entries"]
    for kind, j, i, value in mutations:
        row = entries[j % len(entries)]
        if kind == "leaf" and type(row) is list and row:
            row[i % len(row)] = value
        elif kind == "entry":
            entries[j % len(entries)] = list(value) if type(value) is list else value
        elif kind == "drop":
            del entries[j % len(entries)]
        elif kind == "voters":
            data["voters"] = value
    return data


def _read(reader, *args):
    try:
        return reader(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2), st.lists(_MUTATIONS, max_size=4))
@example(0, [("entry", 3, 0, [0, 0, 1]), ("leaf", 215, 2, True)])
@example(1, [("voters", 0, 0, 10 ** 400), ("leaf", 200, 0, "1")])
@example(2, [("entry", 7, 0, None), ("voters", 0, 0, 2), ("entry", 9, 0, [0, 1, 3])])
@example(2, [("entry", 214, 0, 5), ("leaf", 215, 1, 10 ** 400)])
@example(0, [("entry", 5, 0, None), ("entry", 9, 0, [0, 1, 3])])
@example(1, [("entry", 5, 0, None), ("leaf", 9, 1, True)])
def test_table_reader_matches_the_per_entry_reader(voter, mutations):
    # entry types, then the size guard, then the entry count, then the ranking
    data = _mutated_table_doc(voter, mutations)
    want = _read(oracles.table_rule_per_entry, data["voters"], 3, data["entries"])
    assert _read(rule_from_json_dict, data) == want


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (2, 4)])
def test_table_document_reads_into_the_shared_rankings(m, n):
    # a read rule holds at most n! distinct ranking objects, whatever its
    # holes, and equals the rule read one entry at a time
    data = json.loads(json.dumps(rule_to_json_dict(borda_rule(m, n))))
    data["entries"][::5] = [None] * len(data["entries"][::5])
    rule = rule_from_json_dict(data)
    assert len({id(o) for o in rule.outcomes if o is not None}) <= len(enumerate_orders(n))
    want = oracles.table_rule_per_entry(m, n, data["entries"])
    assert rule == want
    assert rule.outcome_ranks.tolist() == want.outcome_ranks.tolist()


def test_reading_a_34_table_stays_within_its_working_set():
    # 13,824 entries: the rule holds int64 ranks and one reference per entry
    # to the 24 shared rankings, 0.22 MB; a tuple per entry held 1.1 MB
    data = json.loads(json.dumps(rule_to_json_dict(borda_rule(3, 4))))
    rule_from_json_dict(data)  # the rankings and their ranks are cached outside the measurement
    tracemalloc.start()
    try:
        rule_from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


@pytest.mark.parametrize(
    "kind, entries, voters",
    [
        ("pairwise", [[0, 1]], 63),
        ("pairwise", [[0, 1]], 10 ** 7),
        ("pairwise", [[0, 1]], 10 ** 400),
        ("table", [[0, 1], [1, 0]], 100),
        ("table", [[0, 1], [1, 0]], 10 ** 7),
    ],
)
def test_rule_with_a_huge_declared_voter_count_is_refused_cheaply(kind, entries, voters):
    # 2^m or (n!)^m entries cannot be listed once m reaches 63; the check must
    # not build 1 << m (1.25 MB at m = 10^7) or (n!)^m on the way
    data = {"voters": voters, "alternatives": 2, "kind": kind, "entries": entries}
    tracemalloc.start()
    try:
        message = rf"^{voters} voters need 2\^{voters} or more rule entries$"
        with pytest.raises(ValueError, match=message):
            rule_from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda: projection_rule(100, 3, 0),
    lambda: pairwise_majority_rule(100, 2),
    lambda: pairwise_majority_rule(63, 2),
], ids=["projection", "majority", "majority-63"])
def test_rule_builders_refuse_before_building(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"^\d+ voters need 2\^\d+ or more rule entries$"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("build", [
    lambda m, n: projection_rule(m, n, 0),
    pairwise_majority_rule,
], ids=["projection", "majority"])
def test_rule_builders_guard_the_table_size(monkeypatch, build):
    # a builder takes the guard of what reads its tables: from three
    # alternatives the triple-row guard C(n,3)*6^m <= 2^19 of the search, the
    # audit and the lift, with verify_arrow's message; at two the table guard
    # 2^m <= 2^19. Each refuses before listing 2^m entries (2^40 would
    # exhaust memory).
    monkeypatch.delenv(GUARD_ENV, raising=False)

    def refused(m, n):
        tracemalloc.start()
        started = time.perf_counter()
        try:
            with pytest.raises(SizeLimitError) as refusal:
                build(m, n)
            elapsed = time.perf_counter() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert elapsed < 0.1 and peak < 1 << 20
        return str(refusal.value)

    for m, n in [(8, 3), (7, 4), (6, 6), (30, 3), (40, 3)]:
        with pytest.raises(SizeLimitError, match=r"^triple row count C\(n,3\)\*6\^m = ") as search:
            verify_arrow(m, n)
        assert refused(m, n) == str(search.value)
    assert refused(20, 2).startswith("pair table size 2^m = 1048576 exceeds")
    assert refused(40, 2).startswith("pair table size 2^m = 2^40 exceeds")
    for m, n in [(7, 3), (6, 4), (6, 5), (4, 8), (5, 8), (19, 2)]:
        assert len(build(m, n).tables[-1]) == 1 << m


@pytest.mark.parametrize("m", range(1, 7))
def test_rule_builders_tabulate_their_aggregators(m):
    votes = [bin(v).count("1") for v in range(1 << m)]
    assert pairwise_majority_rule(m, 3).tables == (tuple(int(2 * c > m) for c in votes),) * 3
    for voter in range(m):
        want = tuple((v >> voter) & 1 for v in range(1 << m))
        assert projection_rule(m, 3, voter).tables == (want,) * 3


@pytest.mark.parametrize("table", [
    (0, 2), (0, -1), (0, 0.5), (0, "1"), (0, None), (0, [1]), (0, float("nan")), (0, 1, 1),
], ids=["2", "-1", "half", "str", "none", "list", "nan", "long"])
def test_pair_tables_accept_only_bits(table):
    with pytest.raises(ValueError, match=re.escape("each table needs 2^m bits")):
        VotingRule(1, 2, tables=(table,))


def test_rule_builders_admit_the_largest_guarded_table(monkeypatch):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    rule = pairwise_majority_rule(19, 2)  # 2^19 = MAX_PROFILES entries
    assert len(rule.tables[0]) == social_choice.MAX_PROFILES


@pytest.mark.parametrize("build", [
    lambda: projection_rule(1, 2000, 0),
    lambda: pairwise_majority_rule(1, 2000),
], ids=["projection", "majority"])
def test_rule_builders_guard_the_alternative_count(monkeypatch, build):
    # 2000 alternatives would list 1,999,000 pairs and tables
    monkeypatch.delenv(GUARD_ENV, raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="^alternative count = 2000 exceeds"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_rule_builders_build_no_table_without_a_pair():
    tracemalloc.start()
    try:
        rules = projection_rule(40, 1, 7), pairwise_majority_rule(100, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert [rule.tables for rule in rules] == [(), ()]
    assert [rule.outcome(((0,),) * rule.voters) for rule in rules] == [(0,), (0,)]


def test_rule_alternative_count_is_checked_before_pairs_or_n_factorial(monkeypatch):
    # the alternative guard holds for pairwise rules too, before any of the
    # 44,850 pairs is listed
    monkeypatch.delenv("ARROWQ_GUARD_OVERRIDE", raising=False)
    data = {"voters": 1, "alternatives": 300, "kind": "pairwise", "entries": [[0, 1]]}
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match="^alternative count = 300 exceeds"):
            rule_from_json_dict(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # a table rule takes the same guard before the size check computes n!
    data = {"voters": 1, "alternatives": 9, "kind": "table", "entries": [[0, 1]]}
    with pytest.raises(SizeLimitError, match="^alternative count = 9 exceeds"):
        rule_from_json_dict(data)


def test_rule_json_rejects_garbage():
    with pytest.raises(ValueError):
        rule_from_json_dict({"voters": 2, "alternatives": 3, "kind": "wat", "entries": []})
    with pytest.raises(ValueError):
        rule_from_json_dict({"voters": 2, "kind": "table"})
