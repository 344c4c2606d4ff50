"""avgvar: Monte Carlo densities of time-averaged variance and option prices
under OU-driven and CIR stochastic volatility.

The averaged variance over [0, T] is the single random input to the
conditional Black-Scholes price when the asset and volatility drivers are
independent. This package estimates its probability density by the
Malliavin (Skorokhod-weight) representation p(x) = E[1{F > x} delta],
cross-checks it against a kernel density estimate, and prices European
calls three mutually consistent ways: quadrature against the density, the
mixing formula, and plain path simulation.

``import avgvar`` loads no submodule and not numpy: each public name is
imported from its submodule on first access (``_EXPORTS`` maps them), so a
command that only validates a config pays for none of the simulation code.
``from avgvar import <submodule>`` imports that submodule as usual.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "density": ("DensityEstimate", "auto_grid", "kde_density", "malliavin_density"),
    "ensemble": ("EnsembleResult", "run_ensemble"),
    "errors": ("AvgVarError", "ConfigError", "EmptyEnsemble", "FailureBudgetExceeded",
               "GridTooCoarse", "InvalidGrid", "TooFewSamples", "ValidationError"),
    "models": ("CIRParams", "Contract", "OUParams", "ValidatedCIRModel",
               "ValidatedOUModel", "VolFunctionSpec", "reference_vol_family",
               "validate_cir", "validate_contract", "validate_ou"),
    "paths": ("CIRPathBatch", "OUPathBatch", "TimeGrid", "make_grid",
              "sample_terminal_asset", "simulate_cir_paths", "simulate_ou_paths"),
    "pricing": ("PriceEstimate", "bs_conditional", "ensemble_prices", "martingale_check",
                "mc_estimate", "price_from_density", "price_mixing", "price_plain_mc"),
    "rng": ("NoiseStream",),
    "weights": ("WeightBatch",),
    "weights_cir": ("cir_kernel", "skorokhod_weight_cir"),
    "weights_ou": ("skorokhod_weight_ou",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # an unknown name, a submodule's included, must raise AttributeError:
    # ``from avgvar import ensemble`` then falls back to importing it
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
