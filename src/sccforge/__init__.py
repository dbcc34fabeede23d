"""Design tools for multi-ratio switched-capacitor DC-DC converters.

The pipeline runs: pick a target ratio, generate its signed-digit code
family (numrep), wire each code (topology), pin the steady-state voltages
exactly (linsolve), watch the bank settle there (chargesim), price the
conduction losses (lossmodel), and plan regulation around the lattice
(regulation).
"""

from .chargesim import BankState, SimTrace, StepResult, TraceRecord, charge_locus, run, step
from .errors import (
    DomainError,
    FitError,
    ResourceLimitError,
    SingularSystemError,
    UnsupportedCodeError,
)
from .linsolve import (
    KvlSystem,
    SolvabilityReport,
    active_schedule,
    build_system,
    check_solvable,
    current_balance,
    find_redundant,
    redundancy_scores,
    solve_unique,
    sort_codes_by_zeros,
    step_up,
)
from .lossmodel import (
    RcParams,
    ReqSpec,
    TopologySlot,
    average_extracted_req,
    build_req_spec,
    cap_to_cap_response,
    charging_response,
    efficiency,
    extract_req,
    load_line_fit,
    redistribution_loss,
    req_follower,
    req_multi,
    req_zero_beta_limit,
    req_zero_beta_multiplier,
    slot_cap_ratios,
    vo_under_load,
)
from .numrep import (
    CodeSet,
    SignedDigitCode,
    TargetRatio,
    balanced_sequence,
    conventional_code,
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
from .topology import (
    GroupConnection,
    SwitchStates,
    Topology,
    code_to_topology,
    kvl_row,
    switch_states,
)

__version__ = "0.1.0"

__all__ = [
    "BankState",
    "CodeSet",
    "DitherPlan",
    "DomainError",
    "FitError",
    "GroupConnection",
    "KvlSystem",
    "RatioChoice",
    "RcParams",
    "ReqSpec",
    "ResourceLimitError",
    "SignedDigitCode",
    "SimTrace",
    "SingularSystemError",
    "SolvabilityReport",
    "StepResult",
    "SwitchStates",
    "TargetRatio",
    "Topology",
    "TopologySlot",
    "TraceRecord",
    "UnsupportedCodeError",
    "active_schedule",
    "average_extracted_req",
    "balanced_sequence",
    "build_req_spec",
    "build_system",
    "cap_to_cap_response",
    "charge_locus",
    "charging_response",
    "check_solvable",
    "code_to_topology",
    "conventional_code",
    "current_balance",
    "dither_average",
    "dither_plan",
    "efficiency",
    "enumerate_codes",
    "extract_req",
    "find_redundant",
    "kvl_row",
    "ldo_efficiency_bound",
    "ldo_select_ratio",
    "load_line_fit",
    "redistribution_loss",
    "redundancy_scores",
    "req_follower",
    "req_multi",
    "req_zero_beta_limit",
    "req_zero_beta_multiplier",
    "run",
    "slot_cap_ratios",
    "solve_unique",
    "sort_codes_by_zeros",
    "spawn_codes",
    "step",
    "step_up",
    "switch_states",
    "vo_under_load",
]
