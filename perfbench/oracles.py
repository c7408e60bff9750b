"""Independent oracles for every operation the benchmark runs.

Nothing here calls arrowq: each expected verdict is recomputed from the
generated input with plain itertools/numpy code, a closed form, or a count
that the theory fixes.  A check raises Rejected with a one-line reason
when the program's output disagrees.
"""

from __future__ import annotations

import json
from itertools import permutations, product
from math import cos, factorial, lgamma, log, sin, sqrt

import numpy as np

TOL = 1e-9
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


class Rejected(Exception):
    """The program's output is not what the oracle expects."""


def expect(condition: bool, reason: str):
    if not condition:
        raise Rejected(reason)


# ---- orders and profiles, reimplemented ----

def orders(n: int) -> list[tuple[int, ...]]:
    """All n! rankings in lexicographic order (the program's ballot index)."""
    return list(permutations(range(n)))


def profiles(m: int, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All (n!)^m profiles, voter 0 most significant."""
    return list(product(orders(n), repeat=m))


def pairs(n: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(n) for b in range(a + 1, n)]


def above(ballot, a: int, b: int) -> bool:
    return ballot.index(a) < ballot.index(b)


def pairwise_outcome(tables, profile, n: int):
    """Ranking a pairwise rule gives at one profile, None on a cycle."""
    wins = [0] * n
    for k, (a, b) in enumerate(pairs(n)):
        v = sum(1 << i for i, ballot in enumerate(profile) if above(ballot, a, b))
        wins[a if tables[k][v] else b] += 1
    if sorted(wins) != list(range(n)):
        return None
    return tuple(sorted(range(n), key=lambda x: -wins[x]))


# ---- verify-arrow ----

def check_verify_arrow(m: int, n: int, code: int, text: str):
    """Fair-rule count is 2^(2^m - 2) at n = 2 and m at n >= 3, where every
    rule is the projection onto one voter."""
    expect(code == 0, f"exit {code}, expected 0")
    report = json.loads(text)
    res = report["results"]
    rules = res["rules"]
    if n == 2:
        want = 2 ** (2 ** m - 2)
        expect(res["fair_rule_count"] == want, f"{res['fair_rule_count']} fair rules, expected {want}")
        expect(len(rules) == want, f"{len(rules)} rules listed, expected {want}")
        expect(len({str(r) for r in rules}) == want, "a fair rule is listed twice")
        full = (1 << m) - 1
        expect(all(r[0][0] == 0 and r[0][full] == 1 for r in rules), "a rule breaks unanimity")
        expect(res["all_dictatorial"] is (m == 1), "all_dictatorial wrong at n = 2")
    else:
        expect(res["fair_rule_count"] == m, f"{res['fair_rule_count']} fair rules, expected {m}")
        projections = sorted(
            [[(v >> i) & 1 for v in range(1 << m)]] * len(pairs(n)) for i in range(m)
        )
        expect(sorted(rules) == projections, "fair rules are not the m projections")
        expect(res["all_dictatorial"] is True, "a fair rule has no dictator")
        expect(sorted(res["rule_dictators"]) == list(range(m)), "wrong dictator list")
    expect(report["pass"] is True, "report does not pass")


# ---- arrow_report on generated rule documents ----

class RuleDoc:
    """A generated rule document plus the verdicts the oracle expects."""

    def __init__(self, doc: dict, expected: dict):
        self.doc = doc
        self.expected = expected
        self.m, self.n = doc["voters"], doc["alternatives"]
        self._profiles = None

    def outcome(self, profile):
        if self.doc["kind"] == "pairwise":
            return pairwise_outcome(self.doc["entries"], profile, self.n)
        if self._profiles is None:
            self._profiles = {p: i for i, p in enumerate(profiles(self.m, self.n))}
        out = self.doc["entries"][self._profiles[tuple(map(tuple, profile))]]
        return None if out is None else tuple(out)


def check_arrow_report(rule: RuleDoc, report):
    exp = rule.expected
    for field in ("pareto", "iia", "ud", "dictator", "per_voter"):
        if field in exp:
            got = getattr(report, field)
            if field == "per_voter":
                got = tuple(got)
            expect(got == exp[field], f"{field} = {got!r}, expected {exp[field]!r}")
    if report.pareto_witness is not None:
        profile, a, b = report.pareto_witness
        expect(all(above(x, a, b) for x in profile), "Pareto witness pair is not unanimous")
        out = rule.outcome(profile)
        expect(out is not None and above(out, b, a), "Pareto witness is not overridden")
    if report.iia_witness is not None:
        p, q, a, b = report.iia_witness
        expect(
            [above(x, a, b) for x in p] == [above(x, a, b) for x in q],
            "IIA witness profiles differ on the pair",
        )
        op, oq = rule.outcome(p), rule.outcome(q)
        expect(above(op, a, b) != above(oq, a, b), "IIA witness outcomes agree on the pair")


# ---- bell ----

def exact_chsh_max(amps) -> float:
    """Horodecki: max S = 2 sqrt(l1 + l2) over the two largest eigenvalues
    of T^T T, with T the correlation matrix of the two-qubit state."""
    psi = np.asarray(amps, dtype=complex)
    t = np.array(
        [[np.real(np.vdot(psi, np.kron(sa, sb) @ psi)) for sb in PAULI] for sa in PAULI]
    )
    lam = np.sort(np.linalg.eigvalsh(t.T @ t))[::-1]
    return float(2.0 * sqrt(max(lam[0] + lam[1], 0.0)))


def check_bell(inequality: str, exact_s: float, code: int, text: str) -> float:
    """Returns the optimizer gap: exact maximum minus the value found."""
    expect(code == 0, f"exit {code}, expected 0")
    report = json.loads(text)
    value = report["results"]["value"]
    exact = exact_s if inequality == "chsh" else (exact_s - 2.0) / 4.0
    expect(abs(value - exact) <= TOL, f"{inequality} value {value!r} is off the exact maximum {exact!r}")
    expect(report["pass"] is True, "report does not pass")
    return exact - value


# ---- cloning ----

def clone_fidelity(theta: float) -> float:
    return (cos(theta) ** 3 + sin(theta) ** 3) ** 2


def check_clone_test(thetas, voter: int, n: int, code: int, text: str):
    expect(code == 0, f"exit {code}, expected 0")
    report = json.loads(text)
    res = report["results"]
    expect(report["config"]["voter"] == voter, f"cloned voter {report['config']['voter']}, expected {voter}")
    expect(len(res["fidelity"]) == len(thetas), "wrong number of fidelities")
    for theta, f in zip(thetas, res["fidelity"]):
        expect(abs(f - clone_fidelity(theta)) <= TOL, f"fidelity {f!r} at theta {theta!r}")
    basis = res["basis_fidelity"]
    expect(len(basis) == factorial(n), "wrong number of basis fidelities")
    expect(all(abs(f - 1.0) <= TOL for f in basis), "a basis ballot does not clone")
    expect(report["pass"] is True, "report does not pass")


def check_no_cloning(trials: int, report):
    expect(report.trials == trials, f"{report.trials} trials, expected {trials}")
    expect(report.nonbasis_strictly_below is True, "a superposition cloned perfectly")
    expect(report.min_fidelity >= 0.5 - TOL, "fidelity below the pi/4 minimum of 1/2")
    expect(
        abs(report.min_fidelity - clone_fidelity(report.min_theta)) <= TOL,
        "minimum fidelity off the closed form",
    )


# ---- ks-verify ----

def check_ks(instance: dict, code: int, text: str):
    """Verdict recomputed from the coloring sums; any basis index outside
    0..len(vectors)-1 is malformed input, which must exit 2."""
    count = len(instance["vectors"])
    if any(not 0 <= i < count for b in instance["bases"] for i in b):
        expect(code == 2, f"exit {code} with an out-of-range basis index, expected 2")
        return
    violated = [b for b in instance["bases"] if sum(instance["coloring"][i] for i in b) != 1]
    want = 0 if not violated else 1
    expect(code == want, f"exit {code}, expected {want}")
    report = json.loads(text)
    expect(report["results"]["violated_bases"] == violated, "wrong violated bases")
    expect(report["pass"] is (not violated), "wrong pass verdict")


# ---- energy ----

def energy_terms(m: int, n: int, strategy: str, variant: str, k: float, temp: float):
    kt = k * temp

    def erase(d):
        return kt * log(d) * (1 if strategy == "with-memory" else d - 1)

    if variant == "resolved":
        return erase(m), erase(factorial(n))
    mf = factorial(m)
    if strategy == "with-memory":
        return kt * log(factorial(n)), kt * lgamma(mf + 1)
    return (n - 1) * kt * log(n), ((mf - 1) * kt * log(mf) if mf > 1 else 0.0)


def check_energy(expected: tuple[float, float], code: int, text: str):
    expect(code == 0, f"exit {code}, expected 0")
    res = json.loads(text)["results"]
    for name, want in zip(("E1", "E2"), expected):
        expect(abs(res[name] - want) <= 1e-12 * abs(want), f"{name} = {res[name]!r}, expected {want!r}")
    expect(res["E"] == res["E1"] + res["E2"], "E is not E1 + E2")
