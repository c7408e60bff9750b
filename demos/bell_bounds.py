"""Classical versus quantum bounds for two-party inequalities: enumerate
deterministic strategies for the exact classical range, evaluate the
singlet at optimal axes, then recover the quantum maximum in closed form
from the state's correlation matrix.  Ends with the six-ballot axis embedding that ties rankings to
measurement directions."""

from math import sqrt

from arrowq import (
    ch_value,
    chsh_optimal_axes,
    chsh_value,
    classical_bound,
    default_embedding,
    enumerate_orders,
    maximize_violation,
    singlet_state,
)

for name in ("chsh", "ch"):
    lo, hi = classical_bound(name)
    print(f"{name}: every deterministic strategy stays inside [{lo}, {hi}]")
print()

axes = chsh_optimal_axes()
s = chsh_value(singlet_state(), *axes)
c = ch_value(singlet_state(), *axes)
print(f"singlet at optimal axes: S = {s.value:.12f} (2*sqrt(2) = {2 * sqrt(2):.12f})")
print(f"  violates |S| <= 2: {s.violated}")
print(f"  CH = {c.value:.12f} and (S - 2)/4 = {(s.value - 2) / 4:.12f}")
print()

found_axes, value = maximize_violation("chsh")
print(f"closed-form optimum from the correlation matrix: S = {value:.12f}")
print(f"  gap to the quantum maximum: {abs(value - 2 * sqrt(2)):.2e}")
print()

emb = default_embedding()
print("ballot -> signed measurement axis:")
for ballot in enumerate_orders(3):
    axis, sign = emb.embed(ballot)
    print(f"  {ballot} -> axis {axis}, sign {sign:+d}")
