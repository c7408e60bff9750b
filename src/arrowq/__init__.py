"""Exhaustive small-instance voting impossibility checks, ballot-space
permutation circuits with cloning-fidelity demonstrations, Bell-type
inequality bounds, basis-coloring verification, and erasure-energy
ledgers."""

from ._guards import GUARD_ENV, SizeLimitError
from .orders import (
    LinearOrder,
    alternative_pairs,
    enumerate_orders,
    order_rank,
    prefers,
    reverse_order,
    validate_order,
)
from .social_choice import (
    ArrowReport,
    ArrowVerification,
    IntransitiveOutcomeError,
    Profile,
    VotingRule,
    all_profiles,
    anti_projection_rule,
    arrow_report,
    borda_rule,
    check_iia,
    check_pareto,
    check_ud,
    check_ud_triples,
    classical_circuit_table,
    constant_rule,
    enumerate_fair_rules,
    find_dictator,
    pairwise_majority_rule,
    projection_rule,
    rule_from_json_dict,
    rule_to_json_dict,
    verify_arrow,
)
from .hilbert import (
    BallotSpace,
    KSInstance,
    NoCloningReport,
    PureState,
    UnitaryCircuit,
    ballot_state,
    basis_state,
    cloning_fidelities,
    cloning_fidelity,
    discover_orthonormal_bases,
    is_dictatorial_circuit,
    ks_instance_from_json_dict,
    ks_instance_from_rule,
    lift_rule_to_unitary,
    no_cloning_scan,
    verify_ks_coloring,
)
from .bell import (
    BallotEmbedding,
    InequalityResult,
    TwoPartyScenario,
    ch_value,
    chsh_optimal_axes,
    chsh_value,
    classical_bound,
    default_embedding,
    default_scenario,
    joint_plus_probability,
    maximize_violation,
    measurement_correlation,
    scenario_from_json_dict,
    singlet_state,
    unit_axis,
)
from .landauer import (
    BOLTZMANN_J_PER_K,
    DivergenceScan,
    EnergyParams,
    ErasureCost,
    VotingEnergyReport,
    divergence_scan,
    erase_cost,
    voting_energy,
)

__version__ = "0.1.0"
