import json
import subprocess
import sys
from math import sqrt

import pytest

from arrowq import cli, social_choice
from arrowq.hilbert import ks_instance_from_rule
from arrowq.social_choice import (
    pairwise_majority_rule,
    projection_rule,
    rule_to_json_dict,
)

BASE = [sys.executable, "-m", "arrowq"]


def run_cli(*argv, check_stderr_timing=True):
    proc = subprocess.run(
        BASE + list(argv), capture_output=True, text=True, timeout=120
    )
    if check_stderr_timing and proc.returncode in (0, 1):
        assert "wall time:" in proc.stderr
    return proc


def report_of(proc):
    return json.loads(proc.stdout)


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


def test_verify_arrow_guard_exits_two():
    proc = run_cli("verify-arrow", "--voters", "5", "--alternatives", "3")
    assert proc.returncode == 2
    assert "size limit:" in proc.stderr
    assert proc.stdout == ""


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
    results = report_of(proc)["results"]
    assert results["theta"] == [0.0, 0.7853981633974483]
    assert abs(results["fidelity"][0] - 1.0) < 1e-12
    assert abs(results["fidelity"][1] - 0.5) < 1e-9


def test_clone_test_rule_file(tmp_path):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps(rule_to_json_dict(projection_rule(2, 3, 1))))
    proc = run_cli("clone-test", "--rule", str(path))
    assert proc.returncode == 0
    report = report_of(proc)
    assert report["config"]["voter"] == 1
    assert report["pass"] is True


def test_clone_test_rejects_non_dictatorial_rule(tmp_path):
    path = tmp_path / "majority.json"
    path.write_text(json.dumps(rule_to_json_dict(pairwise_majority_rule(3, 3))))
    proc = run_cli("clone-test", "--rule", str(path))
    assert proc.returncode == 2
    assert "error:" in proc.stderr


def test_clone_test_rejects_a_non_ranking_entry(tmp_path):
    data = rule_to_json_dict(projection_rule(2, 3, 0).as_table())
    data["entries"][7] = [0, 0, 1]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    proc = run_cli("clone-test", "--rule", str(path))
    assert proc.returncode == 2
    assert proc.stderr == "error: (0, 0, 1) is not a ranking of alternatives 0..2\n"


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
    counts = {}
    for name in ("chsh_value", "ch_value"):
        def counted(*args, _fn=getattr(cli, name), _name=name):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    assert cli.main(["bell", "--inequality", inequality]) == 0
    assert counts == {"chsh_value": 1, "ch_value": 1}
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


def test_bell_nan_axis_exits_two(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"alice_axes": [[NaN, 0, 0], [1, 0, 0]]}')
    proc = run_cli("bell", "--scenario", str(path))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "Traceback" not in proc.stderr


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


def test_energy_unit_constants():
    proc = run_cli("energy", "--k", "1.0", "--T", "1.0")
    assert proc.returncode == 0
    results = report_of(proc)["results"]
    assert results["E"] == 2.8903717578961645


def test_energy_zero_temperature_exits_two():
    proc = run_cli("energy", "--T", "0")
    assert proc.returncode == 2
    assert "error:" in proc.stderr


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


def test_json_flag_is_accepted():
    proc = run_cli("energy", "--json")
    assert proc.returncode == 0
