"""Erasure-energy accounting for dictator search: the cost of resetting a
D-ary register under two guessing strategies, the two-part total for
finding the dictator (E1) and the dictator's ballot (E2), and the
divergence of E1 with the electorate size.

Strategies: "with-memory" erases once at cost k*T*log(D); "without-memory"
re-erases after every wrong guess, costing (D-1)*k*T*log(D).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import factorial, inf, isfinite, lgamma, log
from typing import Optional

from ._guards import check_guard

BOLTZMANN_J_PER_K = 1.380649e-23

STRATEGIES = ("with-memory", "without-memory")
VARIANTS = ("resolved", "literal")


@dataclass(frozen=True)
class EnergyParams:
    """Thermodynamic inputs: Boltzmann constant, temperature, log base
    (None = natural log).  The one check of a ledger's inputs: once a bit
    erasure has a positive float price, every register of D > 1 states has
    one too, so no energy is checked after it is computed."""

    k: float = BOLTZMANN_J_PER_K
    T: float = 300.0
    log_base: Optional[float] = None

    def __post_init__(self):
        for name, value in (("Boltzmann constant", self.k), ("temperature", self.T)):
            if not 0 < value < inf:  # NaN fails too
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if self.log_base is not None and not 1 < self.log_base < inf:  # logs are negative below 1
            raise ValueError(f"log base must be finite and above 1, got {self.log_base}")
        bit = self.k * self.T * self.log(2)
        if not 0 < bit < inf:
            raise ValueError(f"k = {self.k} and T = {self.T} make a bit erasure's energy k*T*log 2"
                             f" {'round to 0' if bit == 0 else 'overflow a float'}")

    def log(self, x: float) -> float:
        return log(x) if self.log_base is None else log(x, self.log_base)


def _check_strategy(strategy: str):
    if strategy not in STRATEGIES:
        raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")


@dataclass(frozen=True)
class ErasureCost:
    """Energy to reset one D-ary register under one strategy."""

    strategy: str
    cardinality: int
    energy: float


class EnergyOverflowError(ValueError, OverflowError):
    """An energy past the float range: a ValueError to callers, and an
    OverflowError to voting_energy, which raises one with its own message."""


def erase_cost(params: EnergyParams, D: int, strategy: str = "with-memory") -> ErasureCost:
    """k*T*log(D) with memory; (D-1)*k*T*log(D) without."""
    _check_strategy(strategy)
    if D < 1:
        raise ValueError(f"register cardinality must be at least 1, got {D}")
    base = params.k * params.T * params.log(D)
    try:  # D - 1 past the float range has no float to multiply
        energy = base if strategy == "with-memory" else (D - 1) * base
    except OverflowError:
        raise EnergyOverflowError(f"the {strategy} erasure energy of a register of"
                                  f" {D.bit_length()}-bit cardinality overflows a float") from None
    return ErasureCost(strategy, D, energy)


@dataclass(frozen=True)
class VotingEnergyReport:
    """E1 (identify the dictator among m voters) + E2 (identify the
    dictator's ballot among n! orders) = E."""

    m: int
    n: int
    strategy: str
    k: float
    T: float
    log_base: Optional[float]
    E1: float
    E2: float
    E: float
    formula_variant: str

    def to_json_dict(self) -> dict:
        return asdict(self)


def voting_energy(
    params: EnergyParams, m: int, n: int, strategy: str = "with-memory",
    variant: str = "resolved",
) -> VotingEnergyReport:
    """Total erasure energy for the dictator search.

    The "resolved" variant erases a size-m register for the dictator and a
    size-n! register for the ballot.  The "literal" variant evaluates a
    commonly printed but letter-clashing set of closed forms verbatim:
    with memory E1 = k*T*log(n!), E2 = k*T*log((m!)!); without memory
    E1 = (n-1)*k*T*log(n), E2 = (m!-1)*k*T*log(m!).  The variants coincide
    only in degenerate cases such as m = n = 1 or m = n = 2.
    """
    _check_strategy(strategy)
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if m < 1 or n < 1:
        raise ValueError("need at least one voter and one alternative")
    check_guard(m, 20, "voter count for factorial energies")
    check_guard(n, 20, "alternative count for factorial energies")

    kt = params.k * params.T
    try:  # a factorial past the float range, or lgamma of one near it, raises
        if variant == "resolved":
            e1 = erase_cost(params, m, strategy).energy
            e2 = erase_cost(params, factorial(n), strategy).energy
        else:
            mfact = factorial(m)
            if strategy == "with-memory":
                e1 = kt * params.log(factorial(n))
                # log((m!)!) via lgamma keeps the doubly factorial size finite
                lg = lgamma(mfact + 1)
                e2 = kt * (lg if params.log_base is None else lg / log(params.log_base))
            else:
                e1 = (n - 1) * kt * params.log(n)
                e2 = (mfact - 1) * kt * params.log(mfact)
    except OverflowError:
        e1 = e2 = inf
    if not isfinite(e1 + e2):
        raise EnergyOverflowError(f"the {variant} {strategy} energies for {m} voters"
                                  f" and {n} alternatives overflow a float")
    return VotingEnergyReport(
        m=m, n=n, strategy=strategy, k=params.k, T=params.T,
        log_base=params.log_base, E1=e1, E2=e2, E=e1 + e2,
        formula_variant=variant,
    )


@dataclass(frozen=True)
class DivergenceScan:
    """E1 as the electorate grows, plus the reading of its divergence."""

    strategy: str
    energies: tuple[float, ...]
    strictly_increasing: bool
    annotation: str


def divergence_scan(
    params: EnergyParams, m_max: int, strategy: str = "with-memory"
) -> DivergenceScan:
    """E1(m) for m = 1..m_max; unbounded growth means no finite-energy
    procedure can single out a dictator in the infinite-voter limit."""
    _check_strategy(strategy)
    if m_max < 1:
        raise ValueError("m_max must be at least 1")
    check_guard(m_max, 10_000, "divergence scan length")
    energies = tuple(erase_cost(params, m, strategy).energy for m in range(1, m_max + 1))
    increasing = all(b > a for a, b in zip(energies, energies[1:]))
    annotation = (
        "E1 grows without bound with the voter count; identifying a dictator "
        "in the infinite-electorate limit has no finite-energy implementation, "
        "so no dictatorial circuit exists there."
    )
    return DivergenceScan(strategy, energies, increasing, annotation)
