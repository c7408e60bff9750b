"""Seeded inputs and operation lists for the four workloads.

Every input is generated here, before timing, from the workload seed; the
program receives only argv and the files written to the work directory.
Calls go through module attributes (``arrowq.cli.main``,
``social_choice.arrow_report``, ...) looked up at call time, so the traced
run's wrappers see them.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import pi
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import arrowq.cli
from arrowq import hilbert, social_choice

import oracles as O

# Every operation gets a deadline so a run always ends; the one search
# instance that does not finish in arrowq 0.1.0, verify-arrow (4,3),
# gets a short one so its cost per run stays fixed.
GUARD_DEADLINE_S = 60.0
SEARCH_DEADLINE_S = 2.0

# (m, n, executions per pass): the millisecond instances repeat to give
# their per-operation means many samples; (4,2) takes about a second.
ARROW_LIGHT = [(2, 2, 16), (3, 2, 16), (4, 2, 4), (2, 3, 16), (3, 3, 16), (2, 4, 16)]
ARROW_HEAVY = (3, 4)
ARROW_DEADLINED = (4, 3)

# (m, n, audits of each document per pass): the (3,3) audits take
# milliseconds, so they repeat to give their per-operation means samples.
AUDIT_SIZES = [(3, 3, 12), (3, 4, 1)]
AUDIT_PERTURBED = 4
AUDIT_PARTIAL_SHARE = 0.05

THETA_GRID = 256
SCAN_TRIALS = 300
ENERGY_CASES = [
    (3, 3, "with-memory", "resolved"),
    (5, 4, "without-memory", "resolved"),
    (4, 3, "with-memory", "literal"),
    (6, 5, "without-memory", "literal"),
]


@dataclass
class CliResult:
    code: int
    text: str


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is the oracle (untimed).

    ``check`` raises oracles.Rejected on a wrong verdict and may return an
    observation (the Bell optimizer gap).  ``known_defect`` names the
    failure class, and a substring of its detail, of a defect arrowq 0.1.0
    has; such a failure is expected rather than unexpected.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], object]
    deadline_s: float = GUARD_DEADLINE_S
    known_defect: Optional[tuple[str, str]] = None


def run_cli(argv: list[str]) -> CliResult:
    """The CLI in-process; the report is captured as the user would see it."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = arrowq.cli.main(argv)
    return CliResult(code, out.getvalue())


def cli_op(name, argv, check, **kw) -> Op:
    return Op(name, lambda: run_cli(argv), lambda r: check(r.code, r.text), **kw)


def write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---- arrow-search ----

def verify_arrow_op(m: int, n: int, **kw) -> Op:
    argv = ["verify-arrow", "--voters", str(m), "--alternatives", str(n)]
    return cli_op(f"verify-arrow@{m}x{n}", argv, lambda c, t: O.check_verify_arrow(m, n, c, t), **kw)


def arrow_search(seed: int, workdir: Path) -> list[Op]:
    ops = [verify_arrow_op(m, n) for m, n, repeats in ARROW_LIGHT for _ in range(repeats)]
    ops.append(verify_arrow_op(*ARROW_HEAVY))
    ops.append(
        verify_arrow_op(
            *ARROW_DEADLINED, deadline_s=SEARCH_DEADLINE_S, known_defect=("deadline", "")
        )
    )
    # Seeded order spreads the repeated instances over the pass.
    random.Random(seed).shuffle(ops)
    return ops


# ---- rule-audit ----

def _table_doc(m, n, outcome) -> dict:
    entries = [None if o is None else list(o) for o in map(outcome, O.profiles(m, n))]
    return {"voters": m, "alternatives": n, "kind": "table", "entries": entries}


def _pairwise_doc(m, n, table) -> dict:
    entries = [list(table)] * len(O.pairs(n))
    return {"voters": m, "alternatives": n, "kind": "pairwise", "entries": entries}


def _borda(n):
    def outcome(profile):
        score = [0] * n
        for ballot in profile:
            for pos, a in enumerate(ballot):
                score[a] += n - 1 - pos
        return tuple(sorted(range(n), key=lambda a: (-score[a], a)))

    return outcome


def _perturbed_dictator(m, n, voter, rng, stratum) -> dict:
    """Dictator table with one profile's outcome reversed.  The profile is
    drawn from the middle half of the stratum-th of AUDIT_PERTURBED equal
    slices of the domain and moved to the next one with a unanimous pair,
    so both a Pareto and an IIA witness sit there; stratifying keeps each
    operation's scan depth, and so its time, nearly the same for every
    seed."""
    profs = O.profiles(m, n)
    size = len(profs)
    width = size // AUDIT_PERTURBED
    lo = stratum * width + width // 4
    j = rng.randrange(lo, lo + width // 2)
    while not any(all(O.above(x, a, b) == O.above(profs[j][0], a, b) for x in profs[j])
                  for a, b in O.pairs(n)):
        j = j + 1 if j + 1 < size else lo
    doc = _table_doc(m, n, lambda p: p[voter])
    doc["entries"][j] = list(reversed(profs[j][voter]))
    return doc


def _audit(path: str):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return social_choice.arrow_report(social_choice.rule_from_json_dict(doc))


def rule_audit(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for m, n, repeats in AUDIT_SIZES:
        no_voter = (False,) * m

        def dictator(d):
            return {"pareto": True, "iia": True, "ud": True, "dictator": d,
                    "per_voter": tuple(i == d for i in range(m))}

        d_table, d_pair, d_anti, d_partial = (rng.randrange(m) for _ in range(4))
        docs = [
            ("dictator-table", _table_doc(m, n, lambda p: p[d_table]), dictator(d_table), None),
            ("dictator-pairwise",
             _pairwise_doc(m, n, [(v >> d_pair) & 1 for v in range(1 << m)]), dictator(d_pair), None),
            ("borda", _table_doc(m, n, _borda(n)),
             {"pareto": True, "iia": False, "ud": True, "dictator": None, "per_voter": no_voter}, None),
            ("anti-projection", _table_doc(m, n, lambda p: tuple(reversed(p[d_anti]))),
             {"pareto": False, "iia": True, "ud": True, "dictator": None, "per_voter": no_voter}, None),
            ("majority",
             _pairwise_doc(m, n, [int(2 * bin(v).count("1") > m) for v in range(1 << m)]),
             {"pareto": True, "iia": True, "ud": False, "dictator": None, "per_voter": no_voter}, None),
        ]
        for k in range(AUDIT_PERTURBED):
            doc = _perturbed_dictator(m, n, rng.randrange(m), rng, k)
            docs.append((f"perturbed-dictator-{k}", doc,
                         {"pareto": False, "iia": False, "ud": True, "dictator": None,
                          "per_voter": no_voter}, None))
        partial = _table_doc(m, n, lambda p: p[d_partial])
        for j in rng.sample(range(len(partial["entries"])),
                            int(AUDIT_PARTIAL_SHARE * len(partial["entries"]))):
            partial["entries"][j] = None
        # Partial-domain tables crash check_pareto in arrowq 0.1.0.
        docs.append(("partial-domain", partial, {"pareto": True, "iia": True, "ud": False},
                     ("exception", "outside the rule's domain")))

        for family, doc, expected, defect in docs:
            name = f"{family}@{m}x{n}"
            path = write_json(workdir / f"{name}.json", doc)
            rule = O.RuleDoc(doc, expected)
            ops += [Op(name, lambda path=path: _audit(path),
                       lambda rep, rule=rule: O.check_arrow_report(rule, rep),
                       known_defect=defect)] * repeats
    # Seeded order spreads the repeated audits over the pass.
    rng.shuffle(ops)
    return ops


# ---- bell-optimize ----

def _unit(v):
    return v / np.linalg.norm(v)


def bell_optimize(seed: int, workdir: Path) -> list[Op]:
    """One random two-qubit state with random starting axes, optimized for
    both inequalities at the CLI's default budget."""
    rng = np.random.default_rng(seed)
    amps = _unit(rng.normal(size=4) + 1j * rng.normal(size=4))
    axes = [_unit(rng.normal(size=3)).tolist() for _ in range(4)]
    doc = {
        "state": [[float(z.real), float(z.imag)] for z in amps],
        "alice_axes": axes[:2],
        "bob_axes": axes[2:],
    }
    path = write_json(workdir / "scenario.json", doc)
    exact = O.exact_chsh_max(amps)
    ops = []
    for ineq in ("chsh", "ch"):
        argv = ["bell", "--inequality", ineq, "--optimize", "--scenario", path, "--seed", str(seed)]
        ops.append(cli_op(f"bell-{ineq}", argv,
                          lambda c, t, ineq=ineq: O.check_bell(ineq, exact, c, t)))
    return ops


# ---- cloning-circuits ----

def _random_unitary(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _ks_doc(rng, d, bases_count, bad_basis=None) -> dict:
    vectors = np.vstack([_random_unitary(rng, d) for _ in range(bases_count)])
    bases = [list(range(k * d, (k + 1) * d)) for k in range(bases_count)]
    coloring = [0] * len(vectors)
    for k, basis in enumerate(bases):
        for i in rng.choice(basis, size=2 if k == bad_basis else 1, replace=False):
            coloring[int(i)] = 1
    return {
        "dimension": d,
        "vectors": [[[float(z.real), float(z.imag)] for z in row] for row in vectors],
        "bases": bases,
        "coloring": coloring,
    }


def _ks_negative_index_doc(rng, d) -> dict:
    """Two bases whose first one is declared with index -1 for its last
    vector, stored at the end of the list: a malformed index that numpy
    wraps onto a genuine basis member."""
    doc = _ks_doc(rng, d, 2)
    vecs, col = doc["vectors"], doc["coloring"]
    order = list(range(d - 1)) + list(range(d, 2 * d)) + [d - 1]
    doc["vectors"] = [vecs[i] for i in order]
    doc["coloring"] = [col[i] for i in order]
    doc["bases"] = [list(range(d - 1)) + [-1], list(range(d - 1, 2 * d - 1))]
    return doc


def cloning_circuits(seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng(seed)
    thetas = sorted([0.0, pi / 2] + rng.uniform(0.0, pi / 2, THETA_GRID - 2).tolist())
    grid = ",".join(repr(t) for t in thetas)
    ops = []
    for m in (2, 3):
        argv = ["clone-test", "--theta", grid, "--voters", str(m), "--alternatives", "3"]
        ops.append(cli_op(f"clone-default@{m}x3", argv,
                          lambda c, t: O.check_clone_test(thetas, 0, 3, c, t)))
        voter = int(rng.integers(m))
        path = write_json(workdir / f"dictator-{m}x3.json",
                          _table_doc(m, 3, lambda p, voter=voter: p[voter]))
        argv = ["clone-test", "--theta", grid, "--rule", path]
        ops.append(cli_op(f"clone-table@{m}x3", argv,
                          lambda c, t, voter=voter: O.check_clone_test(thetas, voter, 3, c, t)))
    scan_seed = int(rng.integers(1 << 31))
    for m in (2, 3):
        ops.append(Op(
            f"no-cloning-scan@m{m}",
            lambda m=m: hilbert.no_cloning_scan(
                hilbert.BallotSpace(3), trials=SCAN_TRIALS, seed=scan_seed, m=m),
            lambda rep: O.check_no_cloning(SCAN_TRIALS, rep),
        ))

    instances = [
        ("ks-valid@d3", _ks_doc(rng, 3, 2), None),
        ("ks-valid@d4", _ks_doc(rng, 4, 3), None),
        ("ks-violated@d4", _ks_doc(rng, 4, 2, bad_basis=1), None),
        # A negative basis index passes in arrowq 0.1.0 instead of exiting 2.
        ("ks-negative-index@d3", _ks_negative_index_doc(rng, 3),
         ("wrong_verdict", "out-of-range basis index")),
    ]
    for name, doc, defect in instances:
        path = write_json(workdir / f"{name}.json", doc)
        ops.append(cli_op(name, ["ks-verify", "--instance", path],
                          lambda c, t, doc=doc: O.check_ks(doc, c, t), known_defect=defect))

    temp = float(rng.uniform(250.0, 350.0))
    for m, n, strategy, variant in ENERGY_CASES:
        expected = O.energy_terms(m, n, strategy, variant, 1.380649e-23, temp)
        argv = ["energy", "--voters", str(m), "--alternatives", str(n), "--strategy", strategy,
                "--variant", variant, "--T", repr(temp)]
        ops.append(cli_op(f"energy-{strategy}-{variant}@{m}x{n}", argv,
                          lambda c, t, e=expected: O.check_energy(e, c, t)))
    return ops


WORKLOADS = {
    "arrow-search": arrow_search,
    "rule-audit": rule_audit,
    "bell-optimize": bell_optimize,
    "cloning-circuits": cloning_circuits,
}
