"""Walk the fair-rule search: enumerate every voting rule satisfying
Pareto, IIA, and unrestricted domain at small sizes, then inspect who
dictates.  Three or more alternatives leave only the projections; two
alternatives still admit genuinely collective rules."""

from arrowq import (
    arrow_report,
    find_dictator,
    pairwise_majority_rule,
    verify_arrow,
)

for m, n in ((2, 2), (2, 3), (3, 3)):
    verification = verify_arrow(m, n)
    print(f"{m} voters, {n} alternatives: "
          f"{verification.fair_rule_count} fair rules, "
          f"all dictatorial: {verification.all_dictatorial}")
    for rule, dictator in zip(verification.rules, verification.rule_dictators):
        label = f"dictator {dictator}" if dictator is not None else "no dictator"
        print(f"  tables {rule.tables}  ->  {label}")
    print()

# majority is fair-sounding but fails the axioms once cycles appear
majority = pairwise_majority_rule(3, 3)
report = arrow_report(majority)
print("pairwise majority, 3 voters, 3 alternatives:")
print(f"  pareto: {report.pareto}")
print(f"  iia:    {report.iia}")
print(f"  total:  {report.ud}")
if not report.ud:
    print("  a Condorcet cycle keeps it from ranking every profile")
print(f"  dictator: {find_dictator(majority)}")
