"""gridcap: time-series AC-OPF, KKT sensitivity ranking and capacitor
planning for islanded microgrids."""

__version__ = "0.1.0"

from .acopf import (
    KktReport,
    Objective,
    OpfProblem,
    OpfSolution,
    OpfStatus,
    OpfStructure,
    SolverOptions,
    kkt_report,
    objective_cost,
    solve,
)
from .admittance import AdmittanceMatrix, build_admittance
from .model import (
    Branch,
    BranchStatus,
    Bus,
    BusKind,
    DemandSeries,
    Generator,
    GridcapError,
    Network,
    PfSign,
    PvUnit,
    ShuntCapacitor,
    ValidationError,
    pv_injection,
)
from .netfile import (
    NetworkFileError,
    load_demand,
    load_network,
    parse_demand,
    parse_network,
    serialize_demand,
    serialize_network,
)
from .planning import (
    CaseSummary,
    ComparisonBlock,
    PlanningDecision,
    PlanningInput,
    economic_comparison,
    plan,
    shed_voll_cost,
    voll_cost,
)
from .sensitivity import (
    FdQuantity,
    FdResult,
    RankTable,
    RawSensitivity,
    ScoreWeights,
    SensitivityRecord,
    aggregate_hours,
    composite_score,
    cross_case_rank_table,
    extract,
    fd_oracle,
)
from .study import (
    CaseId,
    CaseResult,
    Scenario,
    StudyResult,
    run_case,
    run_four_case_study,
    uniform_stress,
)
