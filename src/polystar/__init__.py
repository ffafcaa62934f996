"""polystar: exact and high-precision evaluation of nested harmonic sums,
multiple polylogarithms, and mechanical verification of their transformation
identities."""

from .kernel import (BudgetExceededError, DomainError, EvalResult,
                     NonConvergenceError, SingularFitError, adaptive_quadrature,
                     binom_ratio_sum, binomial)
from .compositions import (Composition, ShapeBlocks, domain_check, q_of,
                           shape_args, shape_composition)
from .exact import (aux_rhs, dilcher_classic, dilcher_plus, gen_harmonic,
                    main_rhs, mean_example1_rhs, mean_lhs, mean_rhs, mhsv,
                    mneimneh_lhs, odd_binom_sum, pan_xu_check)
from .chains import (FactorSpec, PairingUnavailableError, QKernelSpec,
                     TruncationSchedule, adaptive_sum, dp_chain_sum,
                     dp_q_coupled, naive_chain_sum)
from .polylog import (li, li_identity_sides, li_star, zeta, zeta_star,
                      zeta_star_closed)
from .catalog import IdentityReport, fuzz, list_identities, verify

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "Composition", "DomainError", "EvalResult",
    "FactorSpec", "IdentityReport", "NonConvergenceError",
    "PairingUnavailableError", "QKernelSpec", "ShapeBlocks",
    "SingularFitError", "TruncationSchedule", "adaptive_quadrature",
    "adaptive_sum", "aux_rhs", "binom_ratio_sum", "binomial",
    "dilcher_classic", "dilcher_plus", "domain_check", "dp_chain_sum", "dp_q_coupled", "fuzz", "gen_harmonic",
    "li", "li_identity_sides", "li_star", "list_identities", "main_rhs",
    "mean_example1_rhs", "mean_lhs", "mean_rhs", "mhsv", "mneimneh_lhs",
    "naive_chain_sum", "odd_binom_sum", "pan_xu_check", "q_of",
    "shape_args", "shape_composition", "verify", "zeta", "zeta_star",
    "zeta_star_closed",
]
