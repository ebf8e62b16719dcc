"""Numerical laboratory for Toeplitz operators on weighted ball spaces.

The package assembles truncated Toeplitz matrices over weighted Bergman
spaces on the complex unit ball, decomposes them along quasi-homogeneous
levels, and probes quantization and Fredholm behaviour numerically.
"""

from types import ModuleType as _ModuleType

from .berezin import (
    DecayTable,
    FredholmReport,
    MatrixSymbol,
    MinSingularTable,
    SpectrumSample,
    berezin_of_operator,
    berezin_of_symbol,
    boundary_vanishing_probe,
    default_radius_schedule,
    essential_spectrum_sample,
    fredholm_index_report,
    kernel_coefficients,
    min_singular_probe,
    mobius,
    quantization_probe,
)
from .core import (
    BallGeometry,
    TruncatedBasis,
    WeightedSpace,
    basis_norm_constant,
    count_basis,
    dim_level,
    enumerate_basis,
    level_layout,
    levels_up_to,
    monomial_moment,
)
from .errors import DomainError
from .levels import (
    FactorizationReport,
    LevelBlock,
    RecoveredSymbol,
    RecoveryReport,
    block_norms,
    level_block_direct,
    off_block_mass,
    recover_symbol_and_remainder,
    verify_tensor_factorization,
)
from .quadrature import (
    GAUSS_JACOBI,
    MONTE_CARLO,
    BallRule,
    QuadratureSpec,
    ball_rule,
    gauss_jacobi_rule,
    monte_carlo_points,
)
from .suites import (
    ExperimentConfig,
    SuiteResult,
    default_config,
    load_config,
    parse_config_text,
    run_all,
    summary_lines,
    write_outputs,
)
from .symbols import (
    ProductSymbol,
    SymbolExpr,
    SymbolSyntaxError,
    classify_symbol,
    eval_on_points,
    parse_symbol,
    rebase_inner,
    symbol_to_text,
)
from .toeplitz import (
    AssemblyPath,
    OperatorMatrix,
    assemble,
    assembly_path,
    diagonal_values,
    export_matrix_csv,
    gamma_sequence,
    operator_norm,
    radial_toeplitz_diagonal,
    resolve_assembly_spec,
    semicommutator,
    toeplitz_matrix,
    toeplitz_matrix_with_stderr,
)

__version__ = "0.1.0"

# the public names are the names imported above, so each is listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
