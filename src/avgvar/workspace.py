"""Per-worker chunk buffers, allocated once and reused by every chunk.

A chunk of P paths on an n-step grid works on a few whole (n+1, P) or
(n, P) arrays. Allocated afresh for each chunk, they make the peak resident
memory depend on whether glibc serves them from its heap or from fresh
mmaps, which moves with unrelated allocations. ``run_ensemble`` therefore
gives each worker one ``Workspace`` for the whole ensemble. The simulators,
the volatility pass and the weights take their whole arrays from it by
slot name, so a chunk run on a warmed workspace allocates no whole array
and the peak is the workspace itself.

A slot is storage, not a quantity: a later stage of a chunk takes a slot
that an earlier stage has finished with. Every array but the normals as
drawn is time-major. The slots, in the order a chunk fills them:

    both  tmp0        the normals as drawn, one row per path
          dW          the normals transposed (OU: as drawn, then scaled in
                      place to dW; CIR: times sqrt(dt)), the batch's dW
          states      Y or Z, the batch's states
    OU    tmp0        sigma pass scratch, then the weight's wf
          tmp1        sigma'' (spent by nu_terms), then the weight's av
          sigma       sigma, overwritten by the batch's nu
          sigma_prime sigma', overwritten by the batch's nu'
          tmp2        the guard's mask, then the weight's kappa
    CIR   recip       the batch's recip_integral
          tmp0        log phi, then Z^{-3/2}
          psi         the kernel's psi_step
          sqrt_z      the kernel's sqrt(Z), which the weight reuses
          f_hat       the kernel's f_hat
          dW          the weight's abar (completed in place to rho): only
                      the kernel reads the batch's dW

So a worker holds seven whole arrays for either model. A batch whose
arrays live in a workspace is spent once the next chunk starts (a CIR
batch's dW once its weight has run). Every function that takes ``ws`` also
runs with ``ws=None``, and then allocates fresh arrays as a direct call
expects.
"""

import math

import numpy as np


class Workspace:
    """Named byte buffers, each large enough for one array of ``size``
    float64 elements, allocated on first use."""

    def __init__(self, size):
        self.nbytes = int(size) * np.dtype(float).itemsize
        self._slots = {}

    def take(self, name, shape, dtype=float):
        """Slot ``name`` as a C-contiguous array of ``shape`` and ``dtype``.
        Its contents are whatever the slot last held."""
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = np.empty(self.nbytes, np.uint8)
        dtype = np.dtype(dtype)
        return slot[:math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)


def take(ws, name, shape, dtype=float):
    """``ws.take(name, shape, dtype)``, or a fresh array without a workspace."""
    if ws is None:
        return np.empty(shape, dtype)
    return ws.take(name, shape, dtype)
