import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arrowq import SizeLimitError
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
    order_from_pair_bits,
    pair_input,
    pairwise_majority_rule,
    profile_domain,
    profile_index,
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
        assert profile_index(profile) == i


def test_pair_input_bits():
    profile = ((0, 1, 2), (2, 1, 0))
    assert pair_input(profile, 0, 1) == 0b01
    assert pair_input(profile, 1, 2) == 0b01
    assert pair_input(profile, 0, 2) == 0b01


def test_order_from_pair_bits_roundtrip():
    from arrowq.hilbert import decompose_ballot_pairwise

    for n in (2, 3, 4):
        for order in enumerate_orders(n):
            assert order_from_pair_bits(decompose_ballot_pairwise(order), n) == order


def test_order_from_pair_bits_rejects_cycles():
    with pytest.raises(IntransitiveOutcomeError):
        order_from_pair_bits((1, 0, 1), 3)
    with pytest.raises(IntransitiveOutcomeError):
        order_from_pair_bits((0, 1, 0), 3)


@given(st.sampled_from(list(enumerate_orders(3))), st.sampled_from(list(enumerate_orders(3))))
def test_projection_outcome_copies_the_voter(b0, b1):
    rule = projection_rule(2, 3, 1)
    assert rule.outcome((b0, b1)) == b1


def test_majority_rule_cycles_on_condorcet_profile():
    rule = pairwise_majority_rule(3, 3)
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    with pytest.raises(IntransitiveOutcomeError):
        rule.outcome(cyclic)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (2, 4)])
def test_profile_domain_rows_match_scalar_functions(m, n):
    domain = profile_domain(m, n)
    pairs = alternative_pairs(n)
    for j, profile in enumerate(all_profiles(m, n)):
        assert profile_index(profile) == j
        assert domain.profile(j) == profile
        assert domain.ballot_ranks[j].tolist() == [order_rank(b) for b in profile]
        assert domain.pair_inputs[j].tolist() == [pair_input(profile, a, b) for a, b in pairs]
    assert len(domain.ballot_ranks) == j + 1


def test_profile_domain_guard():
    with pytest.raises(SizeLimitError):
        profile_domain(2, 7)


def test_cyclic_profiles_tabulate_as_undecided():
    majority = pairwise_majority_rule(3, 3)
    table = majority.as_table()
    cyclic = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    assert table.outcomes[profile_index(cyclic)] is None
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
    outcomes = list(table.outcomes)
    outcomes[0] = None
    partial = VotingRule(2, 3, outcomes=tuple(outcomes))
    assert not check_ud(partial)
    assert not check_ud_triples(partial)


def test_cyclic_pairwise_rule_is_not_total():
    # Condorcet profiles leave majority without a linear outcome
    majority = pairwise_majority_rule(3, 3)
    assert not check_ud(majority)
    assert not majority.is_total()
    # on two alternatives an odd electorate can never cycle
    assert check_ud(pairwise_majority_rule(3, 2))


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
    payload = report.to_json_dict()
    assert payload["dictator"] == 0 and payload["iia_witness"] is None

    bad = arrow_report(constant_rule(2, 2, (0, 1)))
    assert not bad.pareto and bad.to_json_dict()["pareto_witness"] is not None


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
    assert v.rule_dictators == (1, 0)
    v22 = verify_arrow(2, 2)
    assert not v22.all_dictatorial
    assert v22.fair_rule_count == 4
    v33 = verify_arrow(3, 3)
    assert (v33.fair_rule_count, v33.all_dictatorial) == (3, True)
    assert v33.dictators == (0, 1, 2)


def test_verify_arrow_24_within_guard():
    v = verify_arrow(2, 4)
    assert v.all_dictatorial and v.fair_rule_count == 2


def test_enumeration_guard():
    with pytest.raises(SizeLimitError):
        enumerate_fair_rules(2, 5)
    with pytest.raises(SizeLimitError):
        enumerate_fair_rules(5, 3)


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


def test_rule_json_round_trip_table():
    rule = borda_rule(2, 3).as_table()
    data = rule_to_json_dict(rule)
    assert data["kind"] == "table"
    back = rule_from_json_dict(data)
    assert back.outcomes == rule.outcomes


def test_rule_json_rejects_garbage():
    with pytest.raises(ValueError):
        rule_from_json_dict({"voters": 2, "alternatives": 3, "kind": "wat", "entries": []})
    with pytest.raises(ValueError):
        rule_from_json_dict({"voters": 2, "kind": "table"})
