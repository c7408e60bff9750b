"""Command-line driver: verification subcommands emitting deterministic
JSON reports.

Every report is {"subcommand", "config", "results", "pass"} serialized
with sorted keys, so identical invocations produce byte-identical output;
wall time goes to stderr unless --timing embeds it in the JSON.  Exit
status: 0 when the pass summary holds, 1 when it fails, 2 on errors such
as malformed input or an exceeded size guard.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from math import cos, pi, sin, sqrt

import numpy as np

from ._guards import SizeLimitError, guard_multiplier
from .bell import (
    ch_value,
    chsh_value,
    classical_bound,
    default_scenario,
    maximize_violation,
    scenario_from_json_dict,
)
from .hilbert import (
    BallotSpace,
    PureState,
    basis_state,
    cloning_fidelity,
    ks_instance_from_json_dict,
    lift_rule_to_unitary,
    verify_ks_coloring,
)
from .landauer import EnergyParams, voting_energy
from .social_choice import (
    find_dictator,
    projection_rule,
    rule_from_json_dict,
    verify_arrow,
)

DEFAULT_THETAS = (0.0, pi / 8, pi / 4, 3 * pi / 8, pi / 2)
TSIRELSON = 2 * sqrt(2.0)


def _emit(report: dict, output: str):
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---- subcommand bodies: each returns (config, results, passed) ----

def _run_verify_arrow(args):
    config = {"voters": args.voters, "alternatives": args.alternatives}
    verification = verify_arrow(args.voters, args.alternatives)
    results = verification.to_json_dict()
    results["rules"] = [[list(t) for t in r.tables] for r in verification.rules]
    if args.alternatives > 2:
        passed = verification.all_dictatorial
    else:
        passed = not verification.all_dictatorial
    return config, results, passed


def _run_clone_test(args):
    thetas = DEFAULT_THETAS if args.theta is None else tuple(
        float(x) for x in args.theta.split(",") if x.strip()
    )
    if args.rule is not None:
        rule = rule_from_json_dict(_load_json(args.rule))
    else:
        rule = projection_rule(args.voters, args.alternatives, 0)
    m, n = rule.voters, rule.alternatives
    space = BallotSpace(n)
    if space.ballots < 2:
        raise ValueError("cloning superpositions need at least two ballots")
    circuit = lift_rule_to_unitary(space, rule)
    voter = args.voter
    if voter is None:
        voter = find_dictator(rule)
        if voter is None:
            raise ValueError("rule has no dictator; pick --voter for a dictatorial rule")

    config = {
        "voters": m,
        "alternatives": n,
        "voter": voter,
        "theta": list(thetas),
        "rule_file": args.rule,
        "tolerance": args.tolerance,
    }

    fidelities, predicted = [], []
    for theta in thetas:
        amps = np.zeros(space.d, dtype=complex)
        amps[0], amps[1] = cos(theta), sin(theta)
        psi = PureState(amps, space.d)
        fidelities.append(cloning_fidelity(circuit, voter, psi))
        predicted.append((cos(theta) ** 3 + sin(theta) ** 3) ** 2)
    formula_error = max(
        abs(f - p) for f, p in zip(fidelities, predicted)
    ) if thetas else 0.0

    basis_fid = [
        cloning_fidelity(circuit, voter, basis_state(space.d, i))
        for i in range(space.ballots)
    ]
    basis_ok = all(abs(f - 1.0) <= args.tolerance for f in basis_fid)

    results = {
        "theta": list(thetas),
        "fidelity": fidelities,
        "predicted": predicted,
        "max_formula_error": formula_error,
        "basis_fidelity": basis_fid,
        "basis_ok": basis_ok,
    }
    passed = basis_ok and formula_error <= args.tolerance
    return config, results, passed


def _run_bell(args):
    name = args.inequality.lower()
    scenario = (
        scenario_from_json_dict(_load_json(args.scenario))
        if args.scenario is not None
        else default_scenario()
    )
    lo, hi = classical_bound(name)

    config = {
        "inequality": name,
        "optimize": bool(args.optimize),
        "budget": args.budget,
        "seed": args.seed,
        "scenario_file": args.scenario,
    }

    if args.optimize:
        initial = None
        if args.scenario is not None:
            initial = list(scenario.alice_axes[:2]) + list(scenario.bob_axes[:2])
        axes, _ = maximize_violation(
            name, state=scenario.state, initial_axes=initial,
            budget=args.budget, seed=args.seed,
        )
    else:
        if len(scenario.alice_axes) < 2 or len(scenario.bob_axes) < 2:
            raise ValueError("need two axes per party")
        axes = (*scenario.alice_axes[:2], *scenario.bob_axes[:2])

    chsh, ch = chsh_value(scenario.state, *axes), ch_value(scenario.state, *axes)
    result = chsh if name == "chsh" else ch
    identity_error = abs(ch.value - (chsh.value - 2.0) / 4.0)
    within_ceiling = abs(chsh.value) <= TSIRELSON + 1e-6
    bounds_match = (result.classical_lower, result.classical_upper) == (lo, hi)

    results = result.to_json_dict()
    results.update(
        {
            "enumerated_lower": lo,
            "enumerated_upper": hi,
            "bounds_match_enumeration": bounds_match,
            "chsh_companion_value": chsh.value,
            "ch_companion_value": ch.value,
            "identity_error": identity_error,
            "within_quantum_ceiling": within_ceiling,
            "optimized": bool(args.optimize),
        }
    )
    passed = bounds_match and within_ceiling and identity_error <= 1e-10
    return config, results, passed


def _run_energy(args):
    params = EnergyParams(k=args.k, T=args.T, log_base=args.log_base)
    report = voting_energy(params, args.voters, args.alternatives, args.strategy, args.variant)
    other_name = "literal" if args.variant == "resolved" else "resolved"
    other = voting_energy(params, args.voters, args.alternatives, args.strategy, other_name)

    config = {
        "voters": args.voters,
        "alternatives": args.alternatives,
        "strategy": args.strategy,
        "variant": args.variant,
        "k": args.k,
        "T": args.T,
        "log_base": args.log_base,
    }
    results = report.to_json_dict()
    if (other.E1, other.E2, other.E) != (report.E1, report.E2, report.E):
        results["alternate"] = other.to_json_dict()
    else:
        results["alternate"] = None
    passed = report.E == report.E1 + report.E2 and report.E1 >= 0 and report.E2 >= 0
    return config, results, passed


def _run_ks_verify(args):
    instance = ks_instance_from_json_dict(_load_json(args.instance))
    valid, violated = verify_ks_coloring(instance)
    config = {"instance_file": args.instance}
    results = {
        "valid": valid,
        "vector_count": int(instance.vectors.shape[0]),
        "basis_count": len(instance.bases),
        "violated_bases": [list(b) for b in violated],
    }
    return config, results, valid


# ---- driver ----

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arrowq",
        description="Voting impossibility checks, ballot-circuit cloning tests, "
        "Bell-type bounds, basis-coloring verification, and erasure-energy reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", default="-", help="report path, - for stdout")
        p.add_argument("--json", action="store_true", help="no-op; JSON is the only format")
        p.add_argument("--seed", type=int, default=0, help="seed for any randomized step")
        p.add_argument("--timing", action="store_true", help="embed wall time in the report")

    p = sub.add_parser("verify-arrow", help="enumerate fair rules and test for dictators")
    p.add_argument("--voters", type=int, default=2)
    p.add_argument("--alternatives", type=int, default=3)
    common(p)
    p.set_defaults(run=_run_verify_arrow)

    p = sub.add_parser("clone-test", help="cloning fidelities of a dictatorial circuit")
    p.add_argument("--theta", default=None, help="comma-separated angles; default 0..pi/2 grid")
    p.add_argument("--rule", default=None, help="rule JSON file; default projection rule")
    p.add_argument("--voter", type=int, default=None, help="dictator register; default auto")
    p.add_argument("--voters", type=int, default=2, help="voters for the default rule")
    p.add_argument("--alternatives", type=int, default=3, help="alternatives for the default rule")
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)
    p.set_defaults(run=_run_clone_test)

    p = sub.add_parser("bell", help="inequality values, classical bounds, optional optimization")
    p.add_argument("--inequality", choices=("chsh", "ch"), default="chsh")
    p.add_argument("--optimize", action="store_true", help="search axes for maximal value")
    p.add_argument("--scenario", default=None, help="scenario JSON file; default optimal axes + singlet")
    p.add_argument("--budget", type=int, default=10_000, help="evaluation budget when optimizing")
    common(p)
    p.set_defaults(run=_run_bell)

    p = sub.add_parser("energy", help="erasure-energy ledger for dictator search")
    p.add_argument("--voters", type=int, default=3)
    p.add_argument("--alternatives", type=int, default=3)
    p.add_argument("--strategy", choices=("with-memory", "without-memory"), default="with-memory")
    p.add_argument("--variant", choices=("resolved", "literal"), default="resolved")
    p.add_argument("--k", type=float, default=EnergyParams().k, help="Boltzmann constant, J/K")
    p.add_argument("--T", type=float, default=300.0, help="temperature, K")
    p.add_argument("--log-base", type=float, default=None, dest="log_base")
    common(p)
    p.set_defaults(run=_run_energy)

    p = sub.add_parser("ks-verify", help="check a basis-coloring instance")
    p.add_argument("--instance", required=True, help="instance JSON file")
    common(p)
    p.set_defaults(run=_run_ks_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        config, results, passed = args.run(args)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - started

    config["seed"] = args.seed
    config["guard_multiplier"] = guard_multiplier()
    report = {
        "subcommand": args.subcommand,
        "config": config,
        "results": results,
        "pass": passed,
    }
    if args.timing:
        report["wall_time_s"] = elapsed
    _emit(report, args.output)
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
