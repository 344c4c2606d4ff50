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
that an earlier stage has finished with. Every array is time-major. The
slots, in the order a chunk fills them:

    OU    states      Y, the batch's states
          sigma       the batch's nu, only when weights are computed; the
                      weight's adjoint, gradient and then tangent V, in place
          sigma_prime the batch's nu', only when weights are computed
    CIR   dW          the normals, drawn one tile of step rows at a time
                      and scaled to dW in place, the batch's dW
          states      Z, the batch's states
          lam         the weight's adjoint, then g, then Phi_xi g

The OU pass and the CIR weight's two sweeps work on one tile of
``paths.TILE_ROWS`` rows at a time, and take the tile's arrays from a
second workspace of tile-sized slots (``tiles``):

    OU    noise       the tile's normals as drawn, turned in place into the
                      noise part D of Y, then nu D w_j
          tmp0        the volatility function's scratch, then sigma^2 w_j
          tmp1        sigma'' on every tile, spent by nu_terms when
                      weights are computed and unread when not
          tmp2        the volatility function's mask, then the guard's
          sigma       sigma
          sigma_prime sigma'
    CIR   phi_xi      Phi_xi, then Phi_xi^2
          phi_zxi     k / (2 sqrt(Z)), then Phi_zxi, then 2 Phi_zxi g
          phi_z       Phi_z
          phi_zz      Phi_zz

So an OU worker touches three whole arrays with weights and one without,
and a CIR worker three (dW, Z and lam), each besides the tiles and the
noise stream's one tile of a block's draw; no worker holds a whole array
of normals as drawn. A batch whose arrays live in a workspace is spent
once the next chunk starts. Every function that takes ``ws`` also runs with
``ws=None``, and then allocates fresh arrays as a direct call expects;
``weights_cir.cir_kernel`` takes the tile workspace ``tw`` it writes into.
"""

import math

import numpy as np


class Workspace:
    """Named byte buffers, each large enough for one array of ``size``
    float64 elements, allocated on first use."""

    def __init__(self, size):
        self.nbytes = int(size) * np.dtype(float).itemsize
        self._slots = {}
        self._tiles = None

    def take(self, name, shape, dtype=float):
        """Slot ``name`` as a C-contiguous array of ``shape`` and ``dtype``.
        Its contents are whatever the slot last held."""
        slot = self._slots.get(name)
        if slot is None:
            slot = self._slots[name] = np.empty(self.nbytes, np.uint8)
        dtype = np.dtype(dtype)
        return slot[:math.prod(shape) * dtype.itemsize].view(dtype).reshape(shape)

    def tiles(self, size):
        """A workspace of ``size``-element slots kept by this one for a pass
        over tiles of a chunk, made again only when a larger one is asked."""
        if self._tiles is None or self._tiles.nbytes < size * np.dtype(float).itemsize:
            self._tiles = Workspace(size)
        return self._tiles


def take(ws, name, shape, dtype=float):
    """``ws.take(name, shape, dtype)``, or a fresh array without a workspace."""
    if ws is None:
        return np.empty(shape, dtype)
    return ws.take(name, shape, dtype)


def tiles(ws, size):
    """``ws.tiles(size)``, or a fresh workspace of that slot size without one."""
    if ws is None:
        return Workspace(size)
    return ws.tiles(size)
