import numpy as np
import pytest

from avgvar import (CIRParams, OUParams, ensemble, make_grid, reference_vol_family,
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


@pytest.fixture
def fault_weight(monkeypatch):
    """Fault injection after the weight: ``fault_weight(fault, *models)``
    wraps the ensembles' weight functions of the named models (both by
    default) so that each batch's delta becomes ``fault(wb)``, wb the
    batch's WeightBatch."""
    def inject(fault, *models):
        for tag in models or ("ou", "cir"):
            name = f"skorokhod_weight_{tag}"

            def weight(batch, params, ws, make_weight=getattr(ensemble, name)):
                wb = make_weight(batch, params, ws)
                wb.delta = fault(wb)
                return wb
            monkeypatch.setattr(ensemble, name, weight)
    return inject
