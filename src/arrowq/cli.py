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
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from math import cos, inf, isfinite, pi, sin, sqrt
from types import NoneType

import numpy as np

from ._guards import SizeLimitError, guard_multiplier
from .bell import _inequalities, classical_bound, default_scenario, scenario_from_json_dict
from .hilbert import (
    BallotSpace,
    _cloning_run,
    ks_instance_from_json_dict,
    lift_rule_to_unitary,
    verify_ks_coloring,
)
from .landauer import EnergyOverflowError, EnergyParams, voting_energy
from .social_choice import projection_rule, rule_from_json_dict, verify_arrow

DEFAULT_THETAS = (0.0, pi / 8, pi / 4, 3 * pi / 8, pi / 2)
TSIRELSON = 2 * sqrt(2.0)
# largest text piece a digit array is written in: a 4 MB table goes out in
# pieces small enough to reuse the heap's freed chunks (see _digit_pieces)
_PIECE_BYTES = 1 << 15
# json's text for a value of each exact scalar type; anything else,
# subclasses and non-finite floats included, goes through json.dumps
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x),
    bool: ("false", "true").__getitem__,
    NoneType: lambda _: "null",
}
_JSON_SCALARS = frozenset(_SCALAR_TEXT)


@dataclass(frozen=True, eq=False)
class _Codes:
    """A 1-D integer array of codes -1 and up that the writer spells as the
    list of its entries with null for -1, such as verify-arrow's dictator
    of each fair rule (see _code_pieces)."""

    array: np.ndarray


def _encode(value, indent: str = "") -> str:
    """json.dumps(value, sort_keys=True, indent=2), byte for byte, for
    the values _pieces takes."""
    return "".join(_pieces(value, indent))


def _pieces(value, indent: str = ""):
    """The text of _encode(value, indent) as pieces in document order, so a
    report is joined once, by its writer, rather than once per nesting
    level.  Takes dicts with str keys, lists, tuples, JSON scalars,
    integer arrays whose entries are digits 0-9 (written as their
    .tolist()), and _Codes.

    With indent, json.dumps runs CPython's pure-Python encoder.  Here a
    key, and a scalar of an exact JSON type, is written by its type with
    json's own spelling; any other scalar goes through json.dumps.  Every
    list whose entries all have such types is one call of the C encoder,
    with ",\n" and the indent as its item separator."""
    inner = indent + "  "
    write = _SCALAR_TEXT.get(type(value))
    if write is not None:
        yield write(value)
    elif isinstance(value, np.ndarray):
        yield from _digit_pieces(value, indent)
    elif isinstance(value, _Codes):
        yield from _code_pieces(value.array, indent)
    elif not isinstance(value, (dict, list, tuple)):
        yield json.dumps(value)
    elif not value:
        yield "{}" if isinstance(value, dict) else "[]"
    elif isinstance(value, dict):
        separator = f"{{\n{inner}"
        for k in sorted(value):
            yield f"{separator}{encode_basestring_ascii(k)}: "
            yield from _pieces(value[k], inner)
            separator = f",\n{inner}"
        yield f"\n{indent}}}"
    elif _JSON_SCALARS.issuperset(map(type, value)):
        items = _list_encoder(inner)(value)
        yield f"[\n{inner}{items[1:-1]}\n{indent}]"
    else:
        separator = f"[\n{inner}"
        for x in value:
            yield separator
            yield from _pieces(x, inner)
            separator = f",\n{inner}"
        yield f"\n{indent}]"


@lru_cache(maxsize=64)
def _list_encoder(inner: str):
    """The encode of a JSON encoder with ",\n" + inner as its item
    separator, one per indent."""
    return json.JSONEncoder(separators=(f",\n{inner}", ": ")).encode


@lru_cache(maxsize=64)
def _row_template(shape: tuple[int, ...], indent: str) -> tuple[np.ndarray, np.ndarray]:
    """(template, slots) of _digit_pieces for rows of the shape under
    indent: the read-only bytes of an all-zero row behind its separator
    and the read-only byte offsets of its digits, in order."""
    inner = indent + "  "
    row = f",\n{inner}" + _encode(np.zeros(shape, dtype=int).tolist(), inner)
    template = np.frombuffer(row.encode(), dtype=np.uint8)  # read-only: it views the bytes
    slots = np.flatnonzero(template == ord("0"))
    slots.flags.writeable = False
    return template, slots


def _digit_pieces(array: np.ndarray, indent: str):
    """The text of _encode(array.tolist(), indent), in pieces, for an
    integer array of one or more dimensions whose entries are digits 0-9,
    such as a fair-rule bit table.

    A single digit prints as one byte, so every row's text has the layout
    of an all-zero row and differs from it only in the zeros' bytes.  That
    row, encoded behind its separator once per row shape and indent
    (_row_template), is tiled into a byte buffer once per call, and each
    row's digits, in order, are scattered over its zeros' bytes in one
    assignment.  The opening "[\\n" + indent has the separator's layout,
    so the first piece's first comma becomes the bracket, and later pieces
    put the comma back.

    The rows go out at most _PIECE_BYTES of text at a time, each piece
    decoded from the one buffer that every piece reuses.  A buffer of the
    whole text (4.0 MB of rule rows at 4 voters and 2 alternatives) was a
    fresh allocation on every call, and each of its pages a fresh page
    fault.  A caller that keeps every piece, as a StringIO does until it
    joins them, holds the table's text twice over; 32 KiB pieces fit more
    of the heap's freed chunks than 64 KiB ones, so such a caller grows
    the heap less per report, and glibc does not trim the freed top and
    fault it in again on every call."""
    if array.dtype.kind not in "iu" or array.ndim < 1 or (
            array.size and not 0 <= array.min() <= array.max() <= 9):
        raise ValueError(f"cannot write a {array.dtype} array of shape {array.shape}:"
                         " the writer takes integer arrays of digits 0-9")
    if not len(array):
        yield "[]"
        return
    template, slots = _row_template(array.shape[1:], indent)
    count = max(1, _PIECE_BYTES // len(template))  # rows per piece
    buffer = np.tile(template, (min(count, len(array)), 1))
    for first in range(0, len(array), count):
        block = array[first:first + count]
        rows = buffer[:len(block)]
        rows[:, slots] = block.reshape(len(block), -1) + ord("0")
        rows[0, 0] = ord("," if first else "[")
        yield str(rows, "ascii")
    yield f"\n{indent}]"


def _code_pieces(codes: np.ndarray, indent: str):
    """The text of _encode([None if c < 0 else c for c in codes], indent),
    in pieces, for a 1-D integer array of codes -1 and up.

    Every entry after the first goes out behind the same separator, so a
    run of -1 is one repeated separator-and-null string, and each other
    code one separator-and-number piece: the pieces take a Python step per
    code that is not -1 and a C-level repeat per run, whatever the array's
    length.  At 4 voters and 2 alternatives 4 of the 16,384 rules have a
    dictator."""
    if codes.dtype.kind not in "iu" or codes.ndim != 1 or (codes.size and codes.min() < -1):
        raise ValueError(f"cannot write a {codes.dtype} array of shape {codes.shape} as codes:"
                         " the writer takes 1-D integer arrays of codes -1 and up")
    if not len(codes):
        yield "[]"
        return
    separator = f",\n{indent}  "
    null = f"{separator}null"
    head, rest = int(codes[0]), codes[1:]
    yield f"[{separator[1:]}{'null' if head < 0 else head}"  # "[\n" and the inner indent open it
    done = 0  # entries of rest written
    coded = (rest >= 0).nonzero()[0]
    for at, code in zip(coded.tolist(), rest[coded].tolist()):
        yield null * (at - done)
        yield f"{separator}{code}"
        done = at + 1
    yield null * (len(rest) - done)
    yield f"\n{indent}]"


def _emit(report: dict, output: str):
    """Write the report and a newline to stdout (output "-") or to the file
    output.  Every piece is made before anything is written or the file is
    opened, so a report that cannot be encoded writes nothing; the pieces
    then go out in one writelines."""
    pieces = [*_pieces(report), "\n"]
    if output == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:  # json's parser recurses once per nesting level
            raise ValueError(f"{path}: JSON nested too deeply to read") from None


# ---- subcommand bodies: each returns (config, results, passed) ----

def _run_verify_arrow(args):
    config = {"voters": args.voters, "alternatives": args.alternatives}
    verification = verify_arrow(args.voters, args.alternatives)
    results = {
        "voters": verification.voters,
        "alternatives": verification.alternatives,
        "fair_rule_count": verification.fair_rule_count,
        "all_dictatorial": verification.all_dictatorial,
        "dictators": list(verification.dictators),
        "rule_dictators": _Codes(verification.dictator_codes),
        "rules": verification.rules.tables,
        "stats": verification.stats(),
    }
    # every fair rule has a dictator exactly past two alternatives, or with one
    # voter: a lone voter's fair rules copy it, so the theorem holds there too
    passed = verification.all_dictatorial == (args.alternatives > 2 or args.voters == 1)
    return config, results, passed


def _run_clone_test(args):
    thetas = list(DEFAULT_THETAS if args.theta is None else (
        float(x) for x in args.theta.split(",") if x.strip()
    ))
    if not thetas:  # no superposition tested is no pass
        raise ValueError(f"--theta lists no angle: {args.theta!r}")
    if not all(map(isfinite, thetas)):
        raise ValueError(f"--theta lists a non-finite angle: {args.theta!r}")
    if not 0 <= args.tolerance < inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    if args.rule is not None:
        rule = rule_from_json_dict(_load_json(args.rule))
    else:
        rule = projection_rule(args.voters, args.alternatives, 0)
    m, n = rule.voters, rule.alternatives
    space = BallotSpace(n)
    if space.ballots < 2:
        raise ValueError("cloning superpositions need at least two ballots")
    circuit = lift_rule_to_unitary(space, rule)
    # a total rule on two or more ballots copies at most one voter
    voter = min(circuit.copied_voters, default=None)
    if voter is None:
        raise ValueError("rule has no dictator")

    config = {
        "voters": m,
        "alternatives": n,
        "voter": voter,
        "theta": thetas,  # the per-angle results below follow this order
        "rule_file": args.rule,
        "tolerance": args.tolerance,
    }

    # cos(theta)|b0> + sin(theta)|b1>, stored on the two rays it occupies
    amps = [(cos(theta), sin(theta)) for theta in thetas]
    # one read of the swept ranks serves the fidelities and the basis check
    clones, ranks = _cloning_run(circuit, voter, amps, rays=(0, 1))
    fidelities = clones.tolist()
    predicted = [(c ** 3 + s ** 3) ** 2 for c, s in amps]
    formula_error = max(abs(f - p) for f, p in zip(fidelities, predicted))

    # basis ray k clones exactly when the circuit writes k into the ancilla
    basis_fid = (ranks == np.arange(space.ballots)).astype(float).tolist()
    basis_ok = all(abs(f - 1.0) <= args.tolerance for f in basis_fid)

    results = {
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
        "scenario_file": args.scenario,
    }

    axes = None  # --optimize: maximize_violation's axes
    if not args.optimize:
        if len(scenario.alice_axes) < 2 or len(scenario.bob_axes) < 2:
            raise ValueError("need two axes per party")
        axes = (*scenario.alice_axes[:2], *scenario.bob_axes[:2])  # checked by the scenario

    chsh, ch = _inequalities(scenario.state, axes)
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
    try:  # the requested ledger alone decides the exit code
        other = voting_energy(params, args.voters, args.alternatives, args.strategy, other_name)
    except EnergyOverflowError:
        other = None

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
    differs = other is not None and (other.E1, other.E2, other.E) != (report.E1, report.E2, report.E)
    results["alternate"] = other.to_json_dict() if differs else None
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

@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The arrowq parser, built on first use and shared by later main()
    calls; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="arrowq",
        description="Voting impossibility checks, ballot-circuit cloning tests, "
        "Bell-type bounds, basis-coloring verification, and erasure-energy reports.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--output", default="-", help="report path, - for stdout")
        p.add_argument("--seed", type=int, default=0, help="echoed as config.seed; no step is randomized")
        p.add_argument("--timing", action="store_true", help="embed wall time in the report")

    p = sub.add_parser("verify-arrow", help="enumerate fair rules and test for dictators")
    p.add_argument("--voters", type=int, default=2)
    p.add_argument("--alternatives", type=int, default=3)
    common(p)
    p.set_defaults(run=_run_verify_arrow)

    # no abbreviation: the gone --voter flag must not read as --voters
    p = sub.add_parser("clone-test", help="cloning fidelities of a dictatorial circuit",
                       allow_abbrev=False)
    p.add_argument("--theta", default=None, help="comma-separated angles; default 0..pi/2 grid")
    p.add_argument("--rule", default=None, help="rule JSON file; default projection rule")
    p.add_argument("--voters", type=int, default=2, help="voters for the default rule")
    p.add_argument("--alternatives", type=int, default=3, help="alternatives for the default rule")
    p.add_argument("--tolerance", type=float, default=1e-9)
    common(p)
    p.set_defaults(run=_run_clone_test)

    p = sub.add_parser("bell", help="inequality values, classical bounds, optional optimization")
    p.add_argument("--inequality", choices=("chsh", "ch"), default="chsh")
    p.add_argument("--optimize", action="store_true", help="maximal-value axes for the state")
    p.add_argument("--scenario", default=None, help="scenario JSON file; default optimal axes + singlet")
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
        _emit(report, args.output)  # an --output path that cannot be opened is an OSError
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wall time: {elapsed:.3f}s", file=sys.stderr)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
