import numpy as np
import pytest

from avgvar import (CIRParams, OUParams, make_grid, reference_vol_family,
                    validate_cir, validate_ou)
from avgvar.selfcheck import CIR_FAST_DECAY

SEED = 20240601


@pytest.fixture(scope="session")
def ref_vol():
    return reference_vol_family(0.1, 0.1)


@pytest.fixture(scope="session")
def ou_model(ref_vol):
    return validate_ou(OUParams(alpha=1.0, k=0.5, y0=0.0, s0=100.0,
                                r=0.05, mu=0.05, T=1.0), ref_vol)


@pytest.fixture(scope="session")
def cir_model():
    return validate_cir(CIRParams(b=1.0, k=0.25, z0=1.0, s0=100.0,
                                  r=0.05, mu=0.05, T=1.0))


@pytest.fixture(scope="session")
def fast_cir():
    """Fast mean reversion over a long horizon (b=20, k=1.5, z0=0.5, T=2):
    one Euler step on an 8-step grid moves Z a quarter of the way to b."""
    return validate_cir(CIR_FAST_DECAY)


@pytest.fixture(scope="session")
def grid64():
    return make_grid(1.0, 64)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(SEED)
