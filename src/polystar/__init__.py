"""polystar: exact and high-precision evaluation of nested harmonic sums,
multiple polylogarithms, and mechanical verification of their transformation
identities.

The public names are re-exported lazily (PEP 562): each is imported from its
module on first access, so ``import polystar`` loads none of the modules,
and none of numpy, mpmath or SciPy."""

import importlib

__version__ = "0.1.0"

# the public names, by the module that defines them
_EXPORTS = {
    "kernel": ("BudgetExceededError", "DomainError", "EvalResult",
               "NonConvergenceError", "PairingUnavailableError", "SingularFitError",
               "adaptive_quadrature", "binom_ratio_sum", "binomial"),
    "compositions": ("Composition", "ShapeBlocks", "domain_check", "q_of",
                     "shape_args", "shape_composition"),
    "exact": ("aux_rhs", "dilcher_classic", "dilcher_plus", "gen_harmonic",
              "main_rhs", "mean_example1_rhs", "mean_lhs", "mean_rhs", "mhsv",
              "mneimneh_lhs", "odd_binom_sum", "pan_xu_check"),
    "chains": ("FactorSpec", "QKernelSpec", "TruncationSchedule", "adaptive_sum",
               "dp_chain_sum", "dp_q_coupled", "naive_chain_sum"),
    "polylog": ("li", "li_identity_sides", "li_star", "zeta", "zeta_star",
                "zeta_star_closed"),
    "catalog": ("IdentityReport", "fuzz", "list_identities", "verify"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
