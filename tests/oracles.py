"""Independent oracles used by the test suite.

Everything here is deliberately dumb and self-contained: plain loops over
explicitly materialized objects, no imports from the package's search or
simulation code.  Expected values frozen in tests were computed with these
functions.
"""

from itertools import permutations, product


def all_rankings(n):
    return [tuple(p) for p in permutations(range(n))]


def ranks_above(ranking, a, b):
    return ranking.index(a) < ranking.index(b)


def unordered_pairs(n):
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


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
