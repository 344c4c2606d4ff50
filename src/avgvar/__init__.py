"""avgvar: Monte Carlo densities of time-averaged variance and option prices
under OU-driven and CIR stochastic volatility.

The averaged variance over [0, T] is the single random input to the
conditional Black-Scholes price when the asset and volatility drivers are
independent. This package estimates its probability density by the
Malliavin (Skorokhod-weight) representation p(x) = E[1{F > x} delta],
cross-checks it against a kernel density estimate, and prices European
calls three mutually consistent ways: quadrature against the density, the
mixing formula, and plain path simulation.
"""

__version__ = "0.1.0"

from .density import (DensityEstimate, auto_grid, kde_density,
                      malliavin_density, winsorize_weights)
from .ensemble import EnsembleResult, run_ensemble
from .errors import (AvgVarError, ConfigError, EmptyEnsemble,
                     FailureBudgetExceeded, GridTooCoarse, InvalidGrid,
                     TooFewSamples, ValidationError)
from .models import (CIRParams, Contract, OUParams, ValidatedCIRModel,
                     ValidatedOUModel, VolFunctionSpec, reference_vol_family,
                     validate_cir, validate_contract, validate_ou)
from .paths import (CIRPathBatch, OUPathBatch, TimeGrid, cir_paths_from_increments,
                    make_grid, ou_paths_from_increments, sample_terminal_asset,
                    simulate_cir_paths, simulate_ou_paths)
from .pricing import (PriceEstimate, bs_conditional, martingale_check, mc_estimate,
                      price_from_density, price_mixing, price_plain_mc)
from .rng import NoiseStream
from .weights import WeightBatch
from .weights_cir import cir_kernel, skorokhod_weight_cir
from .weights_ou import skorokhod_weight_ou

__all__ = [name for name in dir() if not name.startswith("_")]
