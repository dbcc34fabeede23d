"""Design tools for multi-ratio switched-capacitor DC-DC converters.

The pipeline runs: pick a target ratio, generate its signed-digit code
family (numrep), pin the steady-state voltages exactly (linsolve), watch
the bank settle there (chargesim), price the conduction losses (lossmodel),
and plan regulation around the lattice (regulation). topology holds the
board switch vector of each code of the radix-2, three-capacitor bank.
"""

from .chargesim import BankState, SimTrace, charge_locus, run
from .errors import (
    DomainError,
    FitError,
    ResourceLimitError,
    SingularSystemError,
    UnsupportedCodeError,
)
from .linsolve import (
    KvlSystem,
    build_system,
    current_balance,
    find_redundant,
    kvl_row,
    redundancy_scores,
    schedule_currents,
    solve_unique,
    sort_codes_by_zeros,
    step_up,
)
from .lossmodel import (
    ReqSpec,
    average_extracted_req,
    build_req_spec,
    extract_req,
    load_line_fit,
    req_multi,
    req_zero_beta_multiplier,
    vo_under_load,
)
from .numrep import (
    CodeSet,
    SignedDigitCode,
    TargetRatio,
    balanced_sequence,
    enumerate_codes,
    spawn_codes,
)
from .regulation import (
    DitherPlan,
    RatioChoice,
    dither_average,
    dither_plan,
    ldo_efficiency_bound,
    ldo_select_ratio,
)
from .topology import switch_states

__version__ = "0.1.0"

__all__ = [
    "BankState",
    "CodeSet",
    "DitherPlan",
    "DomainError",
    "FitError",
    "KvlSystem",
    "RatioChoice",
    "ReqSpec",
    "ResourceLimitError",
    "SignedDigitCode",
    "SimTrace",
    "SingularSystemError",
    "TargetRatio",
    "UnsupportedCodeError",
    "average_extracted_req",
    "balanced_sequence",
    "build_req_spec",
    "build_system",
    "charge_locus",
    "current_balance",
    "dither_average",
    "dither_plan",
    "enumerate_codes",
    "extract_req",
    "find_redundant",
    "kvl_row",
    "ldo_efficiency_bound",
    "ldo_select_ratio",
    "load_line_fit",
    "redundancy_scores",
    "req_multi",
    "req_zero_beta_multiplier",
    "run",
    "schedule_currents",
    "solve_unique",
    "sort_codes_by_zeros",
    "spawn_codes",
    "step_up",
    "switch_states",
    "vo_under_load",
]
