"""The OU weight: the linear case of ``avgvar.weights``.

The exact transition Y_{j+1} = e^{-alpha dt} Y_j + step_sd xi_j has the
constant step derivatives Phi_y = e^{-alpha dt} and Phi_xi = step_sd
(``paths.ou_step``), and f = sigma^2 has f' = 2 nu and f'' = 2 nu'. The
batch carries nu and nu' at the nodes (``batch.nu``, ``batch.nu_prime``)
and sum_j w_j nu_j D_j over the noise parts D_j of Y_j (``batch.nu_noise``),
from which g . xi follows, so this module never calls the volatility
function and never sees a normal.
"""

from .paths import ou_step
from .weights import linear_weight


def skorokhod_weight_ou(batch, params, ws):
    """Per-path weights of a batch of OU paths, as a ``WeightBatch``. The
    weight runs in place over ``batch.nu`` and spends it; it takes no slot
    of ``ws``, which it accepts for the signature both weights share."""
    decay, step_sd = ou_step(params, batch.grid.dt)
    return linear_weight(batch.grid, batch.nu, batch.nu_prime, decay, step_sd,
                         batch.nu_noise, df=2.0)
