import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from enum import IntEnum
from math import cos, factorial, inf, log, nan, pi, sin, sqrt
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from arrowq import bell, cli, social_choice
from arrowq._guards import GUARD_ENV
from arrowq.bell import chsh_value, default_scenario, scenario_from_json_dict
from arrowq.hilbert import ks_instance_from_json_dict, ks_instance_from_rule, verify_ks_coloring
from arrowq.landauer import BOLTZMANN_J_PER_K
from arrowq.social_choice import (
    borda_rule,
    find_dictator,
    pairwise_majority_rule,
    projection_rule,
    rule_from_json_dict,
    rule_to_json_dict,
)

import oracles


def run_cli(*argv, check_stderr_timing=True):
    """cli.main in-process, as a CompletedProcess: stdout and stderr are
    captured, and argparse's SystemExit gives the return code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    proc = subprocess.CompletedProcess(argv, code, out.getvalue(), err.getvalue())
    if check_stderr_timing and proc.returncode in (0, 1):
        assert "wall time:" in proc.stderr
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


def run_main(capsys, *argv):
    """cli.main in-process: (exit code, stdout, stderr)."""
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def stdlib_layout(text):
    return json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


# ---- determinism: identical invocations give byte-identical reports ----

@pytest.mark.parametrize(
    "argv",
    [
        ("verify-arrow", "--voters", "2", "--alternatives", "3"),
        ("clone-test",),
        ("bell",),
        ("bell", "--inequality", "ch", "--optimize"),
        ("energy",),
    ],
)
def test_repeat_runs_are_byte_identical(argv):
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a.stdout == b.stdout
    assert a.returncode == b.returncode == 0


# every step the script below takes, in one fresh interpreter: each
# subcommand's default run, verify-arrow at (3,3) and (4,2), and the triple
# check of a table rule; it prints whether numpy alone loads numpy.ma, then
# the steps after which it is loaded
FRESH_STEPS = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
import numpy
print(json.dumps("numpy.ma" in sys.modules))
from arrowq import cli
from arrowq.social_choice import borda_rule, check_ud_triples
loaded = ["import"] if "numpy.ma" in sys.modules else []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv
    if "numpy.ma" in sys.modules and not loaded:
        loaded.append(" ".join(argv))
assert check_ud_triples(borda_rule(2, 3).as_table())
if "numpy.ma" in sys.modules and not loaded:
    loaded.append("check_ud_triples")
print(json.dumps(loaded))
"""


def test_no_step_imports_numpy_masked_arrays(tmp_path):
    # numpy's unique loads numpy.ma, which took 11-16 ms of every
    # verify-arrow process for one sort of at most m dictators
    instance = tmp_path / "ks.json"
    instance.write_text(json.dumps(TWO_DIM_INSTANCE))
    argvs = [["verify-arrow"], ["clone-test"], ["bell"], ["energy"],
             ["ks-verify", "--instance", str(instance)],
             ["verify-arrow", "--voters", "3", "--alternatives", "3"],
             ["verify-arrow", "--voters", "4", "--alternatives", "2"]]
    path = [str(Path(cli.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run([sys.executable, "-c", FRESH_STEPS, json.dumps(argvs)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert proc.returncode == 0, proc.stderr
    with_numpy, loaded = map(json.loads, proc.stdout.splitlines())
    if with_numpy:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert loaded == []


# ---- verify-arrow ----

def test_verify_arrow_three_alternatives_passes():
    proc = run_cli("verify-arrow", "--voters", "2", "--alternatives", "3")
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["subcommand"] == "verify-arrow"
    assert report["pass"] is True
    assert report["results"]["fair_rule_count"] == 2
    assert report["results"]["all_dictatorial"] is True
    assert report["results"]["dictators"] == [0, 1]
    assert len(report["results"]["rules"]) == 2


def test_verify_arrow_two_alternatives_still_passes():
    # the dichotomy flips: fair non-dictatorial rules exist below three options
    proc = run_cli("verify-arrow", "--voters", "2", "--alternatives", "2")
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["results"]["all_dictatorial"] is False
    assert report["results"]["fair_rule_count"] == 4


def test_verify_arrow_runs_the_search_once(monkeypatch, capsys):
    calls = []
    search = social_choice.enumerate_fair_rules

    def counted(m, n):
        calls.append((m, n))
        return search(m, n)

    monkeypatch.setattr(social_choice, "enumerate_fair_rules", counted)
    monkeypatch.setattr(cli, "enumerate_fair_rules", counted, raising=False)
    assert cli.main(["verify-arrow", "--voters", "2", "--alternatives", "3"]) == 0
    assert calls == [(2, 3)]
    assert len(json.loads(capsys.readouterr().out)["results"]["rules"]) == 2


def test_verify_arrow_builds_no_voting_rule(monkeypatch, capsys):
    def refuse(self):
        raise AssertionError("a VotingRule was built")

    monkeypatch.delenv(GUARD_ENV, raising=False)
    monkeypatch.setattr(social_choice.VotingRule, "__post_init__", refuse)
    code, out, _ = run_main(capsys, "verify-arrow", "--voters", "4", "--alternatives", "2")
    assert code == 0
    assert len(json.loads(out)["results"]["rules"]) == 16384
    assert out == stdlib_layout(out)
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.VERIFY_ARROW_REPORT_SHA256[4, 2]


@pytest.mark.parametrize("m, n", sorted(oracles.VERIFY_ARROW_REPORT_SHA256))
def test_verify_arrow_reports_match_their_frozen_digests(monkeypatch, capsys, m, n):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    code, out, _ = run_main(capsys, "verify-arrow", "--voters", str(m), "--alternatives", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.VERIFY_ARROW_REPORT_SHA256[m, n]


def test_verify_arrow_reports_search_stats():
    argv = ("verify-arrow", "--voters", "4", "--alternatives", "3")
    a, b = run_cli(*argv), run_cli(*argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    stats = report_of(a)["results"]["stats"]
    assert stats == {"clauses": 2598, "conflicts": 0, "decisions": 6, "propagations": 144}


def test_verify_arrow_single_alternative_reports():
    # one rule, the constant, which every voter dictates: the n <= 2 check fails
    proc = run_cli("verify-arrow", "--voters", "2", "--alternatives", "1")
    assert proc.returncode == 1
    assert report_of(proc)["results"]["rules"] == [[]]


@pytest.mark.parametrize("n", [1, 2])
def test_verify_arrow_one_voter_passes(n):
    # a lone voter's only fair rule copies its ballot: the theorem holds
    proc = run_cli("verify-arrow", "--voters", "1", "--alternatives", str(n))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["pass"] is True
    assert report["results"]["all_dictatorial"] is True
    assert report["results"]["fair_rule_count"] == 1


def test_verify_arrow_guard_exits_two(monkeypatch):
    # the first sizes past the C(n,3)*6^m triple-row guard
    monkeypatch.delenv(GUARD_ENV, raising=False)
    for m, n in ((8, 3), (7, 4), (6, 6)):
        proc = run_cli("verify-arrow", "--voters", str(m), "--alternatives", str(n))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("size limit: triple row count C(n,3)*6^m = ")
        assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("override", ["2", "1000"])
@pytest.mark.usefixtures("refuse_large_aranges")
def test_verify_arrow_listing_past_its_rule_count_exits_two(monkeypatch, override):
    # (5, 2) would list 2^30 rules
    monkeypatch.setenv(GUARD_ENV, override)
    proc = run_cli("verify-arrow", "--voters", "5", "--alternatives", "2")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("size limit: fair rule count 2^(pairs*(2^m-2)) = 2^30 exceeds")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "flags", [("--voters", "0"), ("--voters", "-1"), ("--alternatives", "0")]
)
def test_verify_arrow_empty_electorate_exits_two(flags):
    proc = run_cli("verify-arrow", *flags)
    assert proc.returncode == 2
    assert proc.stderr == "error: need at least one voter and one alternative\n"
    assert proc.stdout == ""


# ---- clone-test ----

def test_clone_test_default_passes():
    proc = run_cli("clone-test")
    assert proc.returncode == 0
    report = report_of(proc)
    results = report["results"]
    assert results["basis_ok"] is True
    assert results["max_formula_error"] <= 1e-9
    assert abs(results["fidelity"][2] - 0.5) < 1e-9  # theta = pi/4
    assert all(abs(f - 1.0) < 1e-12 for f in results["basis_fidelity"])


def test_clone_test_explicit_theta_list():
    proc = run_cli("clone-test", "--theta", "0.0,0.7853981633974483")
    assert proc.returncode == 0
    report = report_of(proc)
    results = report["results"]
    assert report["config"]["theta"] == [0.0, 0.7853981633974483]
    assert "theta" not in results
    assert abs(results["fidelity"][0] - 1.0) < 1e-12
    assert abs(results["fidelity"][1] - 0.5) < 1e-9


def test_clone_test_without_an_angle_exits_two():
    # no superposition tested is no pass
    proc = run_cli("clone-test", "--theta", ",")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: --theta lists no angle: ','\n"


@pytest.mark.parametrize("theta", ["nan", "inf", "0.1,nan", "0.2,-inf"])
def test_clone_test_refuses_a_non_finite_angle(theta, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a state was built")

    monkeypatch.setattr(cli, "_cloning_run", refuse)
    assert run_main(capsys, "clone-test", "--theta", theta) == (
        2, "", f"error: --theta lists a non-finite angle: {theta!r}\n")


@pytest.mark.parametrize("flags", [("--alternatives", "-1"), ("--voters", "0")])
def test_clone_test_empty_electorate_exits_two(flags):
    proc = run_cli("clone-test", *flags)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: need at least one voter and one alternative\n"


def test_clone_test_rule_file(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule_to_json_dict(projection_rule(2, 3, 1))))
    proc = run_cli("clone-test", "--rule", str(path))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["config"]["voter"] == 1
    assert report["pass"] is True


def test_clone_test_table_rule_file(tmp_path, capsys):
    # a (3,3) table file is read with one type scan of its 216 entries; a
    # bad leaf deep in it gets the message of the entry it sits in
    data = rule_to_json_dict(projection_rule(3, 3, 2).as_table())
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(data))
    code, out, _ = run_main(capsys, "clone-test", "--rule", str(path))
    assert code == 0 and json.loads(out)["config"]["voter"] == 2
    data["entries"][200][1] = True
    path.write_text(json.dumps(data))
    assert run_main(capsys, "clone-test", "--rule", str(path)) == (
        2, "", "error: an outcome must be a list of integers, got [1, True, 2]\n")


def test_clone_test_rejects_non_dictatorial_rule(tmp_path):
    path = tmp_path / "majority.json"
    path.write_text(json.dumps(rule_to_json_dict(pairwise_majority_rule(3, 3))))
    proc = run_cli("clone-test", "--rule", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_clone_test_rejects_a_total_rule_without_a_dictator(tmp_path, capsys):
    path = tmp_path / "borda.json"
    path.write_text(json.dumps(rule_to_json_dict(borda_rule(2, 3))))
    assert run_main(capsys, "clone-test", "--rule", str(path)) == (
        2, "", "error: rule has no dictator\n")


def test_clone_test_voter_flag_is_gone():
    # a total rule copies at most one voter, so the register is always derived;
    # the old flag must not be read as an abbreviation of --voters
    proc = run_cli("clone-test", "--voter", "1", check_stderr_timing=False)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "unrecognized arguments: --voter 1" in proc.stderr


def test_clone_test_takes_its_register_from_the_circuit(tmp_path, monkeypatch, capsys):
    def refuse(rule):
        raise AssertionError("the rule was scanned for copying voters")

    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule_to_json_dict(projection_rule(2, 3, 1))))
    calls = [("clone-test",), ("clone-test", "--rule", str(path))]
    expected = [run_main(capsys, *argv)[:2] for argv in calls]
    monkeypatch.setattr(social_choice, "_copying_voters", refuse)
    assert [run_main(capsys, *argv)[:2] for argv in calls] == expected
    assert [json.loads(out)["config"]["voter"] for _, out in expected] == [0, 1]


def test_clone_test_refuses_one_ballot_without_building_a_table(capsys):
    # 2^40 table entries could not be listed; the default rule at one
    # alternative has no pair table, so the one-ballot refusal comes first
    tracemalloc.start()
    try:
        result = run_main(capsys, "clone-test", "--alternatives", "1", "--voters", "40")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == (2, "", "error: cloning superpositions need at least two ballots\n")
    assert peak < 1 << 20


def test_clone_test_rejects_a_non_ranking_entry(tmp_path):
    data = rule_to_json_dict(projection_rule(2, 3, 0).as_table())
    data["entries"][7] = [0, 0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli("clone-test", "--rule", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: (0, 0, 1) is not a ranking of alternatives 0..2\n"


@pytest.mark.parametrize(
    "kind, entries, message",
    [
        ("table", [5, [0, 1]], "an outcome must be a list of integers, got 5"),
        ("table", [[1.5, 0], [0, 1]], "an outcome must be a list of integers, got [1.5, 0]"),
        ("table", [[0, 1], ["1", 0]], "an outcome must be a list of integers, got ['1', 0]"),
        ("pairwise", [3], "a pair table must be a list of integers, got 3"),
        ("pairwise", 3, "rule entries must be a list, got 3"),
        ("pairwise", [[0, 1.9]], "a pair table must be a list of integers, got [0, 1.9]"),
        ("pairwise", [[0, "1"]], "a pair table must be a list of integers, got [0, '1']"),
        ("pairwise", [[0, True]], "a pair table must be a list of integers, got [0, True]"),
    ],
)
def test_clone_test_rejects_non_integer_rule_entries(tmp_path, capsys, kind, entries, message):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(
        {"voters": 1, "alternatives": 2, "kind": kind, "entries": entries}
    ))
    assert run_main(capsys, "clone-test", "--rule", str(path)) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("key", ["voters", "alternatives"])
def test_clone_test_rejects_a_non_integer_size(tmp_path, capsys, key):
    data = rule_to_json_dict(projection_rule(1, 2, 0))
    data[key] = float(data[key])
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(data))
    code, out, err = run_main(capsys, "clone-test", "--rule", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: voters and alternatives must be integers") and err.count("\n") == 1


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_clone_test_tolerance_must_be_finite_and_nonnegative(tolerance):
    proc = run_cli("clone-test", "--tolerance", tolerance)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: --tolerance") and proc.stderr.count("\n") == 1


def test_clone_test_guards_the_circuit_before_building_the_rule(monkeypatch):
    # the default rule's builder takes the lift's guard, the search's triple
    # rows, so clone-test refuses exactly the sizes verify-arrow refuses, with
    # the same line, and builds nothing of size 2^m first (2^30 bits at 30)
    monkeypatch.delenv(GUARD_ENV, raising=False)
    for m, n in [(8, 3), (7, 4), (6, 6), (30, 3)]:
        size = ("--voters", str(m), "--alternatives", str(n))
        search = run_cli("verify-arrow", *size)
        tracemalloc.start()
        try:
            proc = run_cli("clone-test", *size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("size limit: triple row count C(n,3)*6^m = ")
        assert proc.stderr.count("\n") == 1
        assert (search.returncode, search.stderr) == (2, proc.stderr)
        assert peak < 1 << 20


@pytest.mark.parametrize("m, n", [(4, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 8), (6, 4), (7, 3)])
def test_clone_test_passes_past_the_dense_table(tmp_path, monkeypatch, capsys, m, n):
    # the lift reads the swept line off the rule: no d^(m+1) table, and
    # no identity matrix for the basis rays
    def refuse(*args, **kwargs):
        raise AssertionError("a dense table was built")

    monkeypatch.delenv(GUARD_ENV, raising=False)
    verification = social_choice.verify_arrow(m, n)
    path = tmp_path / "fair.json"
    path.write_text(json.dumps(rule_to_json_dict(verification.rules[0])))
    monkeypatch.setattr(social_choice, "classical_circuit_table", refuse)
    monkeypatch.setattr(np, "eye", refuse)
    thetas = [0.0, 0.3, pi / 4, 1.2, pi / 2]
    for argv, voter in [(("--voters", str(m), "--alternatives", str(n)), 0),
                        (("--rule", str(path)), verification.rule_dictators[0])]:
        code, out, _ = run_main(capsys, "clone-test", "--theta", ",".join(map(repr, thetas)), *argv)
        results = json.loads(out)["results"]
        assert code == 0 and json.loads(out)["config"]["voter"] == voter
        expected = [(cos(t) ** 3 + sin(t) ** 3) ** 2 for t in thetas]
        assert np.abs(np.subtract(results["fidelity"], expected)).max() <= 1e-12
        assert results["basis_fidelity"] == [1.0] * factorial(n) and results["basis_ok"]


_THETA_GRID = oracles.theta_grid(27)
_CLONE_TEST_ARGV = {
    "default@2x3": (),
    "grid@3x3": ("--theta", _THETA_GRID, "--voters", "3", "--alternatives", "3"),
    "grid@4x5": ("--theta", _THETA_GRID, "--voters", "4", "--alternatives", "5"),
    "grid@4x8": ("--theta", _THETA_GRID, "--voters", "4", "--alternatives", "8"),
    "table@3x3": ("--theta", _THETA_GRID, "--rule", "rule.json"),
}


@pytest.mark.parametrize("case", sorted(oracles.CLONE_TEST_REPORT_SHA256))
def test_clone_test_reports_match_their_frozen_digests(tmp_path, monkeypatch, capsys, case):
    # the report names its rule file, so the file sits at one relative path
    monkeypatch.delenv(GUARD_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rule.json").write_text(
        json.dumps(rule_to_json_dict(projection_rule(3, 3, 1).as_table())))
    code, out, _ = run_main(capsys, "clone-test", *_CLONE_TEST_ARGV[case])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.CLONE_TEST_REPORT_SHA256[case]


@pytest.mark.parametrize("case", ["default@2x3", "grid@4x5", "table@3x3"])
def test_clone_test_reads_its_swept_ranks_once(tmp_path, monkeypatch, capsys, case):
    # the fidelities and the basis check read the same n! swept outcomes;
    # at (4,8) one read takes tens of milliseconds
    monkeypatch.delenv(GUARD_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rule.json").write_text(
        json.dumps(rule_to_json_dict(projection_rule(3, 3, 1).as_table())))
    calls = []
    swept_ranks = social_choice.VotingRule.swept_ranks

    def counted(rule, *args):
        calls.append(args)
        return swept_ranks(rule, *args)

    monkeypatch.setattr(social_choice.VotingRule, "swept_ranks", counted)
    code, out, _ = run_main(capsys, "clone-test", *_CLONE_TEST_ARGV[case])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.CLONE_TEST_REPORT_SHA256[case]
    assert len(calls) == 1


def test_clone_test_on_a_large_register_holds_only_the_two_rays(monkeypatch, capsys):
    # 256 angles on the 8! = 40,320 rays of (4,8): a dense [K, d] angle grid
    # and its [d, K] temporaries traced about 500 MB
    monkeypatch.delenv(GUARD_ENV, raising=False)
    tracemalloc.start()
    try:
        code, out, _ = run_main(capsys, "clone-test", *_CLONE_TEST_ARGV["grid@4x8"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["pass"] is True
    assert peak < 40 << 20


@pytest.mark.parametrize(
    "argv",
    [
        ("verify-arrow", "--voters", "1000000"),
        ("clone-test", "--voters", "1000000"),
        ("clone-test", "--alternatives", "1000000"),
    ],
)
def test_huge_size_flags_are_refused_before_the_power_is_built(monkeypatch, argv):
    # 6^(m+1) or 1000000! alone takes 0.18 s or more to build, and a size
    # past 4300 digits cannot be printed in the message
    monkeypatch.delenv(GUARD_ENV, raising=False)
    started = time.perf_counter()
    proc = run_cli(*argv)
    elapsed = time.perf_counter() - started
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("size limit: ") and proc.stderr.count("\n") == 1
    assert elapsed < 0.1


def test_clone_test_missing_file_exits_two(tmp_path):
    proc = run_cli("clone-test", "--rule", str(tmp_path / "nope.json"))
    assert proc.returncode == 2


# ---- bell ----

def test_bell_default_chsh():
    proc = run_cli("bell")
    assert proc.returncode == 0
    results = report_of(proc)["results"]
    assert abs(results["value"] - 2 * sqrt(2.0)) < 1e-9
    assert results["violated"] is True
    assert results["bounds_match_enumeration"] is True
    assert results["identity_error"] <= 1e-10
    assert results["within_quantum_ceiling"] is True


def test_bell_ch_optimized():
    proc = run_cli("bell", "--inequality", "ch", "--optimize")
    assert proc.returncode == 0
    results = report_of(proc)["results"]
    assert abs(results["value"] - (sqrt(2.0) - 1) / 2) < 1e-12
    assert results["violated"] is True


@pytest.mark.parametrize("inequality", ["chsh", "ch"])
def test_bell_evaluates_each_inequality_once(monkeypatch, capsys, inequality):
    # chsh_value, ch_value and the report all evaluate through these two
    counts = {}
    for name in ("_chsh", "_ch"):
        def counted(*args, _fn=getattr(bell, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(bell, name, counted)
    assert cli.main(["bell", "--inequality", inequality]) == 0
    assert counts == {"_chsh": 1, "_ch": 1}
    results = json.loads(capsys.readouterr().out)["results"]
    companion = "chsh_companion_value" if inequality == "chsh" else "ch_companion_value"
    assert results["value"] == results[companion]


def test_bell_scenario_file(tmp_path):
    # all four axes equal: S collapses to 2 E(z, z) = -2 on the singlet
    z = [0.0, 0.0, 1.0]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"alice_axes": [z, z], "bob_axes": [z, z]}))
    proc = run_cli("bell", "--scenario", str(path))
    assert proc.returncode == 0
    results = report_of(proc)["results"]
    assert abs(results["value"] + 2.0) < 1e-12
    assert results["violated"] is False


def test_bell_bad_scenario_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    proc = run_cli("bell", "--scenario", str(path))
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "subcommand, flag",
    [("clone-test", "--rule"), ("bell", "--scenario"), ("ks-verify", "--instance")],
)
def test_deeply_nested_json_exits_two(tmp_path, subcommand, flag):
    # json's parser recurses once per level and raises RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 200000 + "]" * 200000)
    proc = run_cli(subcommand, flag, str(path))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {path}: JSON nested too deeply to read\n"


def test_bell_nan_axis_exits_two(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"alice_axes": [[NaN, 0, 0], [1, 0, 0]]}')
    proc = run_cli("bell", "--scenario", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "a scenario must be a JSON object, got list"),
        ({"alice_axes": [["0", "0", "1"], ["1", "0", "0"]]}, "an axis must be a list of numbers"),
        ({"bob_axes": [[0, 0, True], [1, 0, 0]]}, "an axis must be a list of numbers"),
        ({"state": [["0", 0], [0.6, 0], [-0.8, 0], [0, 0]]}, "a state amplitude must be"),
        ({"state": [[False, 0], [0.6, 0], [-0.8, 0], [0, 0]]}, "a state amplitude must be"),
        ({"alice_axes": [[10 ** 400, 0, 0], [1, 0, 0]]}, "int too large to convert to float"),
    ],
)
def test_bell_scenario_needs_an_object_of_numbers(tmp_path, capsys, doc, message):
    # strings and booleans are not JSON numbers, even where float() takes them
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_main(capsys, "bell", "--scenario", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_bell_scenario_needs_two_axes_per_party(tmp_path, capsys):
    doc = default_scenario().to_json_dict()
    doc["alice_axes"], doc["bob_axes"] = doc["alice_axes"][:1], doc["bob_axes"][:1]
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert run_main(capsys, "bell", "--scenario", str(path)) == (
        2, "", "error: need two axes per party\n")


_BELL_ARGV = {
    "default@chsh": (),
    "default@ch": ("--inequality", "ch"),
    "default-optimize@chsh": ("--optimize",),
    "default-optimize@ch": ("--inequality", "ch", "--optimize"),
    "random@chsh": ("--scenario", "random.json"),
    "random@ch": ("--inequality", "ch", "--scenario", "random.json"),
    "random-optimize@chsh": ("--optimize", "--scenario", "random.json", "--seed", "21"),
    "random-optimize@ch": ("--inequality", "ch", "--optimize", "--scenario", "random.json",
                           "--seed", "21"),
    "no-alice_axes@chsh": ("--scenario", "no-alice_axes.json"),
    "no-bob_axes@ch": ("--inequality", "ch", "--scenario", "no-bob_axes.json"),
    "no-bob_axes-optimize@chsh": ("--optimize", "--scenario", "no-bob_axes.json"),
    "no-state@chsh": ("--scenario", "no-state.json"),
}


def _write_bell_scenarios(directory):
    """random.json holds oracles.bell_scenario(21); no-<key>.json holds it
    less that key."""
    doc = oracles.bell_scenario(21)
    (directory / "random.json").write_text(json.dumps(doc))
    for key in doc:
        (directory / f"no-{key}.json").write_text(
            json.dumps({k: v for k, v in doc.items() if k != key}))


@pytest.mark.parametrize("case", sorted(oracles.BELL_REPORT_SHA256))
def test_bell_reports_match_their_frozen_digests(tmp_path, monkeypatch, capsys, case):
    # the report names its scenario file, so the files sit at relative paths
    monkeypatch.delenv(GUARD_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    _write_bell_scenarios(tmp_path)
    code, out, _ = run_main(capsys, "bell", *_BELL_ARGV[case])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.BELL_REPORT_SHA256[case]


@pytest.mark.parametrize(
    "doc, line",
    [
        ({"alice_axes": [[1, 1, 0], [1, 0, 0]]}, "axis [1.0, 1.0, 0.0] is not a finite unit vector"),
        ({"bob_axes": [[0, 0, 1], [0.6, 0.6, 0]]}, "axis [0.6, 0.6, 0.0] is not a finite unit vector"),
        ({"state": [[1, 0], ["0", 0], [0, 0], [0, 0]]},
         "malformed scenario: a state amplitude must be an [re, im] pair of numbers, got ['0', 0]"),
        ({"state": [[1, 0], [1, 0], [0, 0], [0, 0]]}, "malformed scenario: state is not normalized"),
        ([0, 0, 1], "a scenario must be a JSON object, got list"),
    ],
)
def test_bell_refusals_keep_their_line(tmp_path, capsys, doc, line):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert run_main(capsys, "bell", "--optimize", "--scenario", str(path)) == (
        2, "", f"error: {line}\n")


# a value of each key that fails to parse, and the line it gives
_UNPARSABLE = {
    "alice_axes": ([[0, 0, True], [1, 0, 0]], "an axis must be a list of numbers"),
    "bob_axes": ([[0, 0, 1], "x"], "an axis must be a list of numbers"),
    "state": ([[1, 0], [0, None], [0, 0], [0, 0]], "a state amplitude must be"),
}


@pytest.mark.parametrize("key", sorted(_UNPARSABLE))
def test_a_malformed_key_reads_the_same_whatever_else_the_file_holds(tmp_path, capsys, key):
    # keys are parsed before any default stands in for a missing one and
    # before the scenario checks its axes, so another key's absence, or a
    # non-unit axis under it, never changes the line
    value, fragment = _UNPARSABLE[key]
    doc = dict(oracles.bell_scenario(21), **{key: value})
    others = [k for k in doc if k != key]
    variants = [doc] + [{k: v for k, v in doc.items() if k != other} for other in others]
    variants += [dict(doc, **{other: [[1, 1, 0], [1, 0, 0]]})
                 for other in others if other != "state"]
    path = tmp_path / "scenario.json"
    lines = set()
    for variant in variants:
        path.write_text(json.dumps(variant))
        code, out, err = run_main(capsys, "bell", "--scenario", str(path))
        assert (code, out) == (2, "")
        lines.add(err)
    (line,) = lines
    assert line.startswith("error: malformed scenario: ") and fragment in line


@pytest.mark.parametrize("case", sorted(c for c in _BELL_ARGV if not c.startswith("no-")))
def test_bell_reads_one_bloch_decomposition_and_checks_each_axis_once(
        tmp_path, monkeypatch, capsys, case):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    _write_bell_scenarios(tmp_path)
    calls = {"_bloch": 0, "unit_axis": 0, "default_scenario": 0}
    for name in calls:
        def counted(*args, _fn=getattr(bell, name), _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(bell, name, counted)
        monkeypatch.setattr(cli, name, counted, raising=False)
    code, out, _ = run_main(capsys, "bell", *_BELL_ARGV[case])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.BELL_REPORT_SHA256[case]
    # the scenario checks its four axes; the optimizer's four are checked once more
    assert calls == {
        "_bloch": 1,
        "unit_axis": 8 if "--optimize" in _BELL_ARGV[case] else 4,
        "default_scenario": 0 if "--scenario" in _BELL_ARGV[case] else 1,
    }


def test_bell_budget_flag_is_gone():
    proc = run_cli("bell", "--optimize", "--budget", "10", check_stderr_timing=False)
    assert proc.returncode == 2
    assert "unrecognized arguments: --budget" in proc.stderr


# ---- energy ----

def test_energy_default_report():
    proc = run_cli("energy")
    assert proc.returncode == 0
    report = report_of(proc)
    results = report["results"]
    assert results["E"] == results["E1"] + results["E2"]
    assert results["m"] == 3 and results["n"] == 3
    assert results["alternate"]["formula_variant"] == "literal"


def test_energy_without_a_second_variant_reports_no_alternate():
    # one voter and one alternative: both formula variants give the same ledger
    report = report_of(run_cli("energy", "--voters", "1", "--alternatives", "1"))
    assert report["results"]["alternate"] is None
    assert report["results"]["E"] == report["results"]["E1"] + report["results"]["E2"]


def test_energy_unit_constants():
    proc = run_cli("energy", "--k", "1.0", "--T", "1.0")
    assert proc.returncode == 0
    results = report_of(proc)["results"]
    assert results["E"] == 2.8903717578961645


def test_energy_zero_temperature_exits_two():
    proc = run_cli("energy", "--T", "0")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "flags", [("--k", "inf"), ("--T", "inf"), ("--T", "nan"), ("--log-base", "nan")]
)
def test_energy_non_finite_parameter_exits_two(flags):
    # inf gave exit 0 with "E": Infinity; nan exit 1 with NaN terms
    proc = run_cli("energy", *flags)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ("--voters", "171", "--variant", "literal"),
    ("--voters", "3", "--alternatives", "171", "--strategy", "without-memory"),
    ("--k", "1e300", "--T", "1e300"),
])
def test_energy_past_the_float_range_exits_two(monkeypatch, argv):
    # 171! is past the largest float: with the sizes' guard raised, the
    # literal (m!)! and the resolved (n! - 1) * kT log(n!) raised
    # OverflowError (exit 1); a finite k * T past it gave "E": Infinity
    monkeypatch.setenv(GUARD_ENV, "9")
    proc = run_cli("energy", *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.endswith(" overflow a float\n")
    assert proc.stderr.count("\n") == 1


_ENERGY_ARGV = {
    "default": (),
    "literal": ("--variant", "literal"),
    "without-memory": ("--strategy", "without-memory"),
    "without-memory-literal": ("--strategy", "without-memory", "--variant", "literal"),
    "log-base-2": ("--log-base", "2"),
    "unit-constants": ("--k", "1.0", "--T", "1.0"),
    "one-by-one": ("--voters", "1", "--alternatives", "1"),
    **{f"{s}-{v}@{m}x{n}": ("--voters", str(m), "--alternatives", str(n), "--strategy", s,
                            "--variant", v, "--T", "300.0")
       for m, n, s, v in [(3, 3, "with-memory", "resolved"), (5, 4, "without-memory", "resolved"),
                          (4, 3, "with-memory", "literal"), (6, 5, "without-memory", "literal")]},
}


@pytest.mark.parametrize("case", sorted(oracles.ENERGY_REPORT_SHA256))
def test_energy_reports_match_their_frozen_digests(monkeypatch, capsys, case):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    code, out, _ = run_main(capsys, "energy", *_ENERGY_ARGV[case])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == oracles.ENERGY_REPORT_SHA256[case]


def test_energy_exit_code_is_the_requested_ledgers(monkeypatch):
    # each finite ledger exited 2 when the other variant overflowed
    monkeypatch.setenv(GUARD_ENV, "9")
    procs = [run_cli("energy", "--voters", "171"),
             run_cli("energy", "--voters", "3", "--alternatives", "171",
                     "--strategy", "without-memory", "--variant", "literal")]
    assert [proc.returncode for proc in procs] == [0, 0]
    resolved, literal = (report_of(proc)["results"] for proc in procs)
    assert resolved["E1"] == BOLTZMANN_J_PER_K * 300.0 * log(171)
    assert resolved["alternate"] is literal["alternate"] is None
    proc = run_cli("energy", "--voters", "171", "--variant", "literal")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("error: the literal with-memory energies for 171 voters and 3"
                           " alternatives overflow a float\n")


@pytest.mark.parametrize("variant", ["resolved", "literal"])
@pytest.mark.parametrize("size", [("1", "1"), ("3", "3")])
@pytest.mark.parametrize("flags, message", [
    (("--log-base", "0.5"), "error: log base must be finite and above 1, got 0.5\n"),
    (("--k", "1e-200", "--T", "1e-200"),
     "error: k = 1e-200 and T = 1e-200 make a bit erasure's energy k*T*log 2 round to 0\n"),
])
def test_energy_refuses_a_ledger_with_no_positive_bit_price(variant, size, flags, message):
    # a base below 1 gave -0.0 at (1, 1); an underflowing k*T gave 0.0 there
    # and "zero energy exactly for a one-state register" at (3, 3)
    proc = run_cli("energy", "--voters", size[0], "--alternatives", size[1],
                   "--variant", variant, *flags)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", message)


# ---- ks-verify ----

def make_instance_file(tmp_path, coloring=None):
    instance = ks_instance_from_rule(projection_rule(2, 3, 0), ((0, 1, 2), (2, 1, 0)))
    data = instance.to_json_dict()
    if coloring is not None:
        data["coloring"] = coloring
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(data))
    return path


def test_ks_verify_valid_instance(tmp_path):
    proc = run_cli("ks-verify", "--instance", str(make_instance_file(tmp_path)))
    assert proc.returncode == 0
    results = report_of(proc)["results"]
    assert results["valid"] is True
    assert results["violated_bases"] == []


def test_ks_verify_all_ones_coloring_fails(tmp_path):
    path = make_instance_file(tmp_path, coloring=[1] * 6)
    proc = run_cli("ks-verify", "--instance", str(path))
    assert proc.returncode == 1
    results = report_of(proc)["results"]
    assert results["valid"] is False
    assert results["violated_bases"]


@pytest.mark.parametrize("index", [-1, 6])
def test_ks_verify_out_of_range_basis_index_exits_two(tmp_path, index):
    path = make_instance_file(tmp_path)
    data = json.loads(path.read_text())
    data["bases"] = [[0, 1, 2, 3, 4, index]]
    path.write_text(json.dumps(data))
    proc = run_cli("ks-verify", "--instance", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


TWO_DIM_INSTANCE = {
    "dimension": 2,
    "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    "bases": [[0, 1]],
    "coloring": [1, 0],
}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("dimension", 2.0, "dimension must be an integer, got 2.0"),
        ("bases", [[0, 1.7]], "a basis must be a list of integers, got [0, 1.7]"),
        ("bases", [[0, True]], "a basis must be a list of integers, got [0, True]"),
        ("coloring", [1, 0.4], "the coloring must be a list of integers, got [1, 0.4]"),
        ("coloring", [1, "0"], "the coloring must be a list of integers, got [1, '0']"),
    ],
)
def test_ks_verify_rejects_non_integers(tmp_path, capsys, key, value, message):
    # int() would truncate these into a valid instance that passes
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(TWO_DIM_INSTANCE))
    assert run_main(capsys, "ks-verify", "--instance", str(path))[0] == 0
    path.write_text(json.dumps({**TWO_DIM_INSTANCE, key: value}))
    assert run_main(capsys, "ks-verify", "--instance", str(path)) == (
        2, "", f"error: malformed coloring instance: {message}\n"
    )


@pytest.mark.parametrize(
    "entry, message",
    [
        ("true", "a vector entry must be an [re, im] pair of numbers, got [True, 0]"),
        ("1" + "0" * 400,
         "a vector entry must be finite, got an int too large to convert to float"),
        ("NaN", "a vector entry must be finite, got nan"),
        ("Infinity", "a vector entry must be finite, got inf"),
    ],
)
def test_ks_verify_rejects_a_vector_entry_that_is_no_number(tmp_path, capsys, entry, message):
    # true and NaN passed, the 400-digit integer gave a traceback
    text = json.dumps(TWO_DIM_INSTANCE).replace("[[1, 0], [0, 0]]", f"[[{entry}, 0], [0, 0]]", 1)
    path = tmp_path / "instance.json"
    path.write_text(text)
    assert run_main(capsys, "ks-verify", "--instance", str(path)) == (
        2, "", f"error: malformed coloring instance: {message}\n"
    )


@pytest.mark.parametrize("instance", [
    {**TWO_DIM_INSTANCE, "bases": []},
    {"dimension": 0, "vectors": [], "bases": [], "coloring": []},
])
def test_ks_verify_refuses_an_instance_without_a_basis(tmp_path, capsys, instance):
    # a coloring of no basis passed vacuously
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    assert run_main(capsys, "ks-verify", "--instance", str(path)) == (
        2, "", "error: an instance must declare at least one basis\n"
    )


@pytest.mark.parametrize("dimension", [0, -1])
def test_ks_verify_refuses_a_dimension_below_one(tmp_path, capsys, dimension):
    # dimension 0 with an empty basis exited 1 as a failed check, and -1
    # exited 2 with numpy's reshape message
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"dimension": dimension, "vectors": [], "bases": [[]], "coloring": []}))
    assert run_main(capsys, "ks-verify", "--instance", str(path)) == (
        2, "", f"error: dimension must be at least 1, got {dimension}\n"
    )


@pytest.mark.parametrize("vectors", [[[]], [[[1, 0]]], "not rows"])
def test_ks_verify_refuses_a_dimension_below_one_before_its_rows(tmp_path, capsys, vectors):
    # no row has -1 entries, so the row-length check gave "vectors must be
    # lists of -1 amplitudes" where "vectors": [] gets the dimension line
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({"dimension": -1, "vectors": vectors, "bases": [[0]], "coloring": [0]}))
    assert run_main(capsys, "ks-verify", "--instance", str(path)) == (
        2, "", "error: dimension must be at least 1, got -1\n"
    )


def test_ks_verify_missing_instance_flag():
    proc = run_cli("ks-verify", check_stderr_timing=False)
    assert proc.returncode == 2


# ---- shared flags ----

def test_output_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("energy", "--output", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    on_disk = json.loads(out.read_text())
    assert on_disk["subcommand"] == "energy"


def test_an_output_path_that_cannot_be_opened_exits_two(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_main(capsys, "energy", "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and not path.parent.exists()


def test_output_file_holds_the_stdout_bytes(monkeypatch, capsys, tmp_path):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    argv = ("verify-arrow", "--voters", "4", "--alternatives", "2")
    path = tmp_path / "r42.json"
    assert run_main(capsys, *argv, "--output", str(path))[:2] == (0, "")
    code, out, _ = run_main(capsys, *argv)
    on_disk = path.read_bytes()
    assert code == 0 and on_disk == out.encode()
    assert hashlib.sha256(on_disk).hexdigest() == oracles.VERIFY_ARROW_REPORT_SHA256[4, 2]


def test_a_report_the_writer_refuses_writes_nothing(capsys, tmp_path):
    # the refused array comes last, after pieces that encode fine
    report = {"config": {"voters": 2}, "results": {"dictators": [0, 1],
                                                   "rules": np.array([[0, 10]], dtype=np.int8)}}
    path = tmp_path / "report.json"
    path.write_text("an earlier report\n")
    for output in ("-", str(path)):
        with pytest.raises(ValueError, match="digits 0-9"):
            cli._emit(report, output)
    assert capsys.readouterr().out == ""
    assert path.read_text() == "an earlier report\n"


def test_writer_row_templates_are_cached_read_only():
    rules = np.array([[[0, 1], [1, 1]], [[1, 0], [0, 1]]], dtype=np.int8)
    first = cli._encode({"rules": rules})
    template, slots = cli._row_template(rules.shape[1:], "  ")
    assert cli._encode({"rules": rules[::-1]}) == json.dumps(
        {"rules": rules[::-1].tolist()}, sort_keys=True, indent=2)
    assert cli._row_template(rules.shape[1:], "  ")[0] is template  # one per shape and indent
    for array in (template, slots):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert cli._encode({"rules": rules}) == first


def test_verify_arrow_reports_in_one_process_match_their_digests(monkeypatch):
    # the cached literals, unanimity values and row templates of one size
    # are read by later calls; a call of another size in between changes
    # no byte of the next report
    monkeypatch.delenv(GUARD_ENV, raising=False)
    outs = []
    for m, n in ((3, 3), (4, 2), (2, 4), (3, 3)):
        proc = run_cli("verify-arrow", "--voters", str(m), "--alternatives", str(n))
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == oracles.VERIFY_ARROW_REPORT_SHA256[m, n]
        outs.append(proc.stdout)
    assert outs[0] == outs[-1]


def test_timing_flag_adds_key_and_breaks_nothing_else():
    plain = report_of(run_cli("energy"))
    timed = report_of(run_cli("energy", "--timing"))
    assert "wall_time_s" not in plain
    assert timed["wall_time_s"] >= 0.0
    timed.pop("wall_time_s")
    assert timed == plain


def test_seed_is_echoed_in_config():
    report = report_of(run_cli("bell", "--seed", "3", "--optimize"))
    assert report["config"]["seed"] == 3


def test_json_flag_is_refused():
    # JSON is the only format, so the flag that asked for it is gone
    proc = run_cli("energy", "--json")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --json" in proc.stderr


# ---- report writer and parser reuse ----

class Color(IntEnum):
    RED = 1


json_text = st.text(st.sampled_from(list(', []{}":\\\x00\né雪1a')))
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | st.sampled_from([nan, inf, -inf, -0.0, 1e300]) | json_text)
json_values = st.recursive(
    json_scalars,
    lambda kids: st.lists(kids) | st.lists(kids).map(tuple) | st.dictionaries(json_text, kids),
    max_leaves=20,
)


_SHARED = [0.1, 2, None, "x", True]


@given(json_values)
@example([[[[[[[[[[]]]]]]]]]])
@example({"a": {"b": {"c": [{}, [], ()]}}})
@example([["a, b", "[1, 2]"], [1, 2.5, None, True, nan, -inf], (0, -0.0, 1e300)])
@example({", ": [", "], "": {"\"": "é, 雪"}})
# scalars the writer spells by their exact type, and ones it hands to json.dumps
@example([np.float64(0.1), Color.RED, [Color.RED, 2], np.float64(nan)])
@example([True, 1, [1, True], {"1": True, "true": 1}])
@example([-0.0, 5e-324, 1e16, [-0.0, 5e-324, 1e16, -1e-7]])
@example(nan)
@example(inf)
@example(-inf)
@example([nan, [inf], [-inf, 1.5], {"x": nan, "y": -inf}])
@example({"é": 1, "雪": [None], "\x00": {"ä\n": "ß"}, "\U0001f600": -inf})
# one list object under several keys and at several indents
@example({"a": _SHARED, "b": _SHARED, "c": {"d": _SHARED, "e": [_SHARED, (1, _SHARED)]}})
def test_report_writer_matches_json_dumps(value):
    assert cli._encode(value) == json.dumps(value, sort_keys=True, indent=2)


digit_arrays = hnp.arrays(np.int8, hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=4),
                          elements=st.integers(0, 9))


@given(digit_arrays, st.integers(0, 3), json_text, st.sampled_from([1, 40, 1 << 16]))
@example(np.zeros((1, 0, 4), dtype=np.int8), 2, "rules", 1 << 16)  # the (2,1) table
@example(np.arange(10, dtype=np.int8).reshape(5, 1, 2), 3, "", 1 << 16)
@example(np.arange(10, dtype=np.int8).reshape(5, 1, 2), 3, "", 1)
@example(np.arange(24, dtype=np.int8).reshape(3, 2, 4) % 10, 1, "rules", 40)
def test_report_writer_writes_digit_arrays_as_their_lists(array, depth, key, piece_bytes):
    # piece_bytes 1 writes one row per piece, 40 a few rows, 1 << 16 all of these
    value, listed = array, array.tolist()
    for _ in range(depth):
        value, listed = {key: value, "~": [value]}, {key: listed, "~": [listed]}
    with mock.patch.object(cli, "_PIECE_BYTES", piece_bytes):
        assert cli._encode(value) == json.dumps(listed, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "array",
    [
        np.array([[0, 1], [-1, 0]], dtype=np.int8),
        np.array([[0, 1], [10, 0]], dtype=np.int8),
        np.array([[0.0, 1.0]]),
        np.array([[True, False]]),
        np.array(3, dtype=np.int8),
    ],
)
def test_report_writer_refuses_arrays_it_cannot_write(array):
    with pytest.raises(ValueError):
        cli._encode({"rules": array})


def test_every_subcommand_report_has_the_stdlib_layout(tmp_path, capsys):
    instance = make_instance_file(tmp_path)
    for argv in (
        ("verify-arrow", "--voters", "3", "--alternatives", "2"),
        ("clone-test", "--theta", "0.1,0.7853981633974483"),
        ("bell", "--inequality", "ch", "--optimize"),
        ("energy", "--timing"),
        ("ks-verify", "--instance", str(instance)),
    ):
        code, out, _ = run_main(capsys, *argv)
        assert code == 0
        assert out == stdlib_layout(out)


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    for argv in (("energy",), ("verify-arrow",), ("bell",), ("energy", "--voters", "4")):
        assert run_main(capsys, *argv)[0] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


# defaults follow non-default values of the same flags, so state the
# parser kept from one call would show in the next report
INTERLEAVED = [
    ("verify-arrow", "--voters", "3", "--alternatives", "2"),
    ("bell", "--inequality", "ch", "--optimize"),
    ("verify-arrow",),
    ("energy", "--variant", "literal", "--T", "10"),
    ("bell",),
    ("energy",),
    ("verify-arrow", "--voters", "3", "--alternatives", "2"),
    ("bell", "--inequality", "ch", "--optimize"),
]


def test_in_process_calls_match_fresh_processes(capsys):
    fresh = {
        argv: subprocess.Popen([sys.executable, "-m", "arrowq", *argv], stdout=subprocess.PIPE,
                               stderr=subprocess.DEVNULL, text=True)
        for argv in dict.fromkeys(INTERLEAVED)
    }
    expected = {argv: (proc.communicate(timeout=120)[0], proc.returncode)
                for argv, proc in fresh.items()}
    for argv in INTERLEAVED:
        code, out, _ = run_main(capsys, *argv)
        assert (out, code) == expected[argv]


# ---- mutated input documents ----

def _clone_verdict(doc, report):
    return report["config"]["voter"] == find_dictator(rule_from_json_dict(doc))


def _bell_verdict(doc, report):
    scenario = scenario_from_json_dict(doc)
    axes = (*scenario.alice_axes[:2], *scenario.bob_axes[:2])
    return report["results"]["value"] == chsh_value(scenario.state, *axes).value


def _ks_verdict(doc, report):
    return report["results"]["valid"] == verify_ks_coloring(ks_instance_from_json_dict(doc))[0]


# name: (subcommand and file flag, valid document, its reader, the API's verdict on a report)
DOCUMENTS = {
    "pairwise rule": (("clone-test", "--rule"), rule_to_json_dict(projection_rule(2, 3, 1)),
                      rule_from_json_dict, _clone_verdict),
    "table rule": (("clone-test", "--rule"), rule_to_json_dict(projection_rule(1, 3, 0).as_table()),
                   rule_from_json_dict, _clone_verdict),
    "scenario": (("bell", "--scenario"), default_scenario().to_json_dict(),
                 scenario_from_json_dict, _bell_verdict),
    "instance": (("ks-verify", "--instance"), TWO_DIM_INSTANCE,
                 ks_instance_from_json_dict, _ks_verdict),
}
# Every one is malformed wherever it lands: JSON-number leaves are unit-norm
# entries or integers, and 1.5 breaks either.
BAD_LEAVES = (True, False, "1", None, nan, inf, -inf, 1.5, 10 ** 400)


def _positions(doc, path=()):
    """(path, value) for every position in a document, the root first."""
    yield path, doc
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _positions(value, path + (key,))


def _replaced(doc, path, change):
    """A copy of doc with change applied to the value at path."""
    if not path:
        return change(doc)
    copy = dict(doc) if isinstance(doc, dict) else list(doc)
    copy[path[0]] = _replaced(doc[path[0]], path[1:], change)
    return copy


@st.composite
def mutated_documents(draw):
    """(name, document, malformed): a leaf swapped for a bad value, a
    top-level key dropped, or some value wrapped in a list."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = DOCUMENTS[name][1]
    how = draw(st.sampled_from(("swap", "drop", "wrap")))
    if how == "drop":
        key = draw(st.sampled_from(sorted(doc)))
        # a scenario's keys are optional: the default axes or state stand in
        return name, {k: v for k, v in doc.items() if k != key}, name != "scenario"
    positions = list(_positions(doc))
    if how == "wrap":
        path = draw(st.sampled_from([p for p, _ in positions]))
        return name, _replaced(doc, path, lambda v: [v]), True
    path = draw(st.sampled_from([p for p, v in positions if not isinstance(v, (dict, list))]))
    bad = draw(st.sampled_from(BAD_LEAVES))
    # a huge declared size has its own test, with values that cannot make
    # a build without the early size checks allocate gigabytes
    if path in (("voters",), ("alternatives",)) and bad == 10 ** 400:
        bad = 1.5
    return name, _replaced(doc, path, lambda v: bad), True


@pytest.fixture(scope="module")
def document_path(tmp_path_factory):
    return tmp_path_factory.mktemp("documents") / "doc.json"


@settings(max_examples=150, deadline=None)
@given(mutated_documents())
def test_mutated_documents_exit_two_or_get_the_api_verdict(document_path, case):
    name, doc, malformed = case
    (subcommand, flag), _, reader, verdict = DOCUMENTS[name]
    document_path.write_text(json.dumps(doc))
    proc = run_cli(subcommand, flag, str(document_path))
    if malformed:
        assert proc.returncode == 2
        with pytest.raises(ValueError):
            reader(doc)
    if proc.returncode == 2:
        assert proc.stdout == "" and proc.stderr.count("\n") == 1
        assert proc.stderr.startswith(("error: ", "size limit: "))
    else:
        report = report_of(proc)
        assert report["pass"] is (proc.returncode == 0)
        assert verdict(doc, report)
