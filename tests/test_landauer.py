from math import factorial, inf, lgamma, log, nan

import pytest
from hypothesis import assume, given, strategies as st

from arrowq import SizeLimitError
from arrowq.landauer import (
    BOLTZMANN_J_PER_K,
    EnergyOverflowError,
    EnergyParams,
    divergence_scan,
    erase_cost,
    voting_energy,
)

KT = BOLTZMANN_J_PER_K * 300.0


def test_bit_erasure_is_kt_log2():
    cost = erase_cost(EnergyParams(k=BOLTZMANN_J_PER_K, T=300.0), 2, "with-memory")
    assert cost.energy == KT * log(2.0)


def test_single_outcome_erasure_is_free():
    params = EnergyParams(k=1.0, T=1.0)
    for strategy in ("with-memory", "without-memory"):
        assert erase_cost(params, 1, strategy).energy == 0.0


def test_without_memory_ratio_is_cardinality_minus_one():
    params = EnergyParams(k=1.0, T=1.0)
    for D in range(2, 9):
        with_mem = erase_cost(params, D, "with-memory").energy
        without = erase_cost(params, D, "without-memory").energy
        assert without == (D - 1) * with_mem


def test_voting_energy_three_voters_three_alternatives():
    report = voting_energy(EnergyParams(k=1.0, T=1.0), 3, 3, "with-memory")
    assert report.E1 == log(3.0)
    assert report.E2 == log(6.0)
    assert report.E == log(3.0) + log(6.0)
    assert report.E == 2.8903717578961645


def test_single_voter_needs_no_tally_erasure():
    report = voting_energy(EnergyParams(k=1.0, T=1.0), 1, 3, "with-memory")
    assert report.E1 == 0.0
    assert report.E2 == log(6.0)


def test_single_alternative_needs_no_outcome_erasure():
    report = voting_energy(EnergyParams(k=1.0, T=1.0), 4, 1, "with-memory")
    assert report.E1 == log(4.0)
    assert report.E2 == 0.0


def test_without_memory_voting_energy():
    report = voting_energy(EnergyParams(k=1.0, T=1.0), 3, 3, "without-memory")
    assert report.E1 == 2 * log(3.0)
    assert report.E2 == 5 * log(6.0)


def test_literal_variant_small_cases():
    params = EnergyParams(k=1.0, T=1.0)
    report = voting_energy(params, 3, 3, "with-memory", variant="literal")
    # counts microstates of the full profile record rather than the tally
    assert report.E1 == log(factorial(3))
    assert abs(report.E2 - lgamma(factorial(3) + 1)) < 1e-12
    assert report.formula_variant == "literal"


def test_literal_variant_without_memory():
    params = EnergyParams(k=1.0, T=1.0)
    report = voting_energy(params, 3, 4, "without-memory", variant="literal")
    assert report.E1 == (4 - 1) * log(4.0)
    assert report.E2 == (factorial(3) - 1) * log(factorial(3))


def test_variants_coincide_only_in_degenerate_cases():
    params = EnergyParams(k=1.0, T=1.0)
    for m, n in ((1, 1), (2, 2)):
        a = voting_energy(params, m, n, "with-memory", variant="resolved")
        b = voting_energy(params, m, n, "with-memory", variant="literal")
        assert abs(a.E - b.E) < 1e-12
    a = voting_energy(params, 6, 3, "with-memory", variant="resolved")
    b = voting_energy(params, 6, 3, "with-memory", variant="literal")
    assert a.E != b.E


def test_log_base_two_measures_in_bits():
    params = EnergyParams(k=1.0, T=1.0, log_base=2.0)
    cost = erase_cost(params, 2, "with-memory")
    assert cost.energy == 1.0
    report = voting_energy(params, 4, 2, "with-memory")
    assert report.E1 == 2.0


def test_temperature_linearity():
    cold = voting_energy(EnergyParams(k=1.0, T=1.0), 5, 3, "with-memory")
    hot = voting_energy(EnergyParams(k=1.0, T=10.0), 5, 3, "with-memory")
    assert abs(hot.E - 10.0 * cold.E) < 1e-12


def test_report_json_keys():
    report = voting_energy(EnergyParams(k=1.0, T=2.0), 3, 3, "with-memory")
    data = report.to_json_dict()
    assert set(data) == {
        "m", "n", "strategy", "k", "T", "log_base", "E1", "E2", "E",
        "formula_variant",
    }
    assert data["log_base"] is None


def test_divergence_scan_values_and_monotonicity():
    scan = divergence_scan(EnergyParams(k=1.0, T=1.0), 5, "with-memory")
    assert scan.energies == (0.0, log(2.0), log(3.0), log(4.0), log(5.0))
    assert scan.strictly_increasing
    assert "dictator" in scan.annotation
    assert "finite-energy" in scan.annotation


def test_divergence_scan_without_memory_grows_faster():
    params = EnergyParams(k=1.0, T=1.0)
    a = divergence_scan(params, 6, "with-memory").energies
    b = divergence_scan(params, 6, "without-memory").energies
    for m in range(2, 6):
        assert b[m] > a[m]


def test_error_paths():
    with pytest.raises(ValueError):
        EnergyParams(k=1.0, T=0.0)
    with pytest.raises(ValueError):
        EnergyParams(k=0.0, T=1.0)
    with pytest.raises(ValueError):
        EnergyParams(k=1.0, T=1.0, log_base=1.0)
    params = EnergyParams(k=1.0, T=1.0)
    with pytest.raises(ValueError):
        erase_cost(params, 0, "with-memory")
    with pytest.raises(ValueError):
        erase_cost(params, 2, "sometimes")
    with pytest.raises(ValueError):
        voting_energy(params, 0, 3, "with-memory")
    with pytest.raises(ValueError):
        voting_energy(params, 3, 3, "with-memory", variant="folklore")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"k": inf}, "Boltzmann constant"),
        ({"k": nan}, "Boltzmann constant"),
        ({"T": inf}, "temperature"),
        ({"T": nan}, "temperature"),
        ({"log_base": nan}, "log base"),
        ({"log_base": inf}, "log base"),
    ],
)
def test_energy_params_must_be_finite(kwargs, message):
    # inf gave E = inf with a passing ledger, NaN nine NaN terms
    with pytest.raises(ValueError, match=message):
        EnergyParams(**{"k": 1.0, "T": 1.0, **kwargs})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"log_base": 0.5}, "^log base must be finite and above 1, got 0.5$"),
        ({"k": 1e-200, "T": 1e-200}, "log 2 round to 0$"),
        ({"k": 1e300, "T": 1e300}, "log 2 overflow a float$"),
    ],
)
@pytest.mark.parametrize("variant", ["resolved", "literal"])
def test_both_variants_refuse_a_ledger_with_no_positive_bit_price(kwargs, message, variant):
    # the literal variant returned E = -5.0e-20 at base 0.5 and E = 0.0 at
    # k = T = 1e-200, where the resolved one failed on its own erasure costs
    with pytest.raises(ValueError, match=message):
        voting_energy(EnergyParams(**kwargs), 3, 3, variant=variant)


_POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)


@given(k=_POSITIVE, T=_POSITIVE, log_base=st.none() | st.floats(min_value=1.0, max_value=1e308),
       D=st.integers(min_value=1, max_value=10 ** 6))
def test_an_accepted_ledger_prices_exactly_the_one_state_register_at_zero(k, T, log_base, D):
    try:
        params = EnergyParams(k=k, T=T, log_base=log_base)
    except ValueError:
        assume(False)
    for strategy in ("with-memory", "without-memory"):
        energy = erase_cost(params, D, strategy).energy
        assert energy == 0 if D == 1 else 0 < energy
    for variant in ("resolved", "literal"):
        try:
            report = voting_energy(params, 3, 3, variant=variant)
        except EnergyOverflowError:  # a finite bit price can still overflow at (3, 3)
            continue
        assert report.E1 > 0 and report.E2 > 0


def test_erase_cost_past_the_float_range_is_a_value_error(monkeypatch):
    # D - 1 = 171! - 1 has no float: this raised OverflowError, and a message
    # must not print D's 310 digits
    with pytest.raises(ValueError, match="overflows a float") as info:
        erase_cost(EnergyParams(), factorial(171), "without-memory")
    assert "\n" not in str(info.value) and len(str(info.value)) < 120
    # with memory only log(D) is taken, which a big integer has
    assert erase_cost(EnergyParams(), factorial(171)).energy == KT * log(factorial(171))
    # voting_energy keeps its own message
    monkeypatch.setenv("ARROWQ_GUARD_OVERRIDE", "9")
    with pytest.raises(ValueError, match="^the resolved without-memory energies for 3 voters"
                       " and 171 alternatives overflow a float$"):
        voting_energy(EnergyParams(), 3, 171, "without-memory")


def test_size_guard_on_voting_energy(monkeypatch):
    monkeypatch.delenv("ARROWQ_GUARD_OVERRIDE", raising=False)
    params = EnergyParams(k=1.0, T=1.0)
    with pytest.raises(SizeLimitError):
        voting_energy(params, 21, 3, "with-memory")
    with pytest.raises(SizeLimitError):
        divergence_scan(params, 10_001, "with-memory")
    monkeypatch.setenv("ARROWQ_GUARD_OVERRIDE", "2")
    report = voting_energy(params, 21, 3, "with-memory")
    assert report.E1 == log(21.0)
