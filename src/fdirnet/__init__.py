"""Distributed identification and reconstruction of block-sparse errors
in a multi-agent sensor network, from nonlinear inter-agent measurements.
"""

from .blocklin import (
    BlockMat,
    BlockStructure,
    BlockVec,
    block_sparsity,
    complement,
    norm_2q,
    support,
)
from .exceptions import (
    ConvergenceFailure,
    DomainViolation,
    FdirError,
    InfeasibleError,
    ProtocolViolation,
)
from .measurements import (
    MeasurementKind,
    MeasurementStack,
    eval_edge,
    eval_stack,
    jacobian_fd_check,
    jacobian_stack,
    regular_point_check,
    search_space_dim,
    singular_values,
)
from .oracle import LinearizedProblem, brute_force_support, centralized_l21
from .prox import ProxCase, ProxProblem, ProxSolution, objective, solve_exact, \
    solve_prox, stationarity_residual, zero_test
from .scenario import FaultReport, Scenario, load_scenario, scenario_from_dict
from .solver import (
    InnerParams,
    OuterParams,
    SolveResult,
    build_network,
    identify_faults,
    inner_admm,
    outer_scp,
)
from .topology import Hypergraph, Tables, build_tables, validate_connectivity

__version__ = "0.1.0"
