"""Per-worker chunk buffers, allocated once and reused by every chunk.

A chunk of P paths on an n-step grid works on a few whole (n+1, P) or
(n, P) arrays. Allocated afresh for each chunk, they make the peak resident
memory depend on whether glibc serves them from its heap or from fresh
mmaps, which moves with unrelated allocations. ``run_ensemble`` therefore
gives each worker one ``Workspace`` for the whole ensemble. The simulators,
the volatility pass and the weights take their arrays, whole and
tile-sized, from it by slot name, so a chunk run on a warmed workspace
allocates no whole array and the peak is the workspace itself.

A slot is storage, not a quantity: a later stage of a chunk takes a slot
that an earlier stage has finished with. Every array is time-major. A
chunk takes whole (n+1, P) or (n, P) arrays and, for the OU pass and the
CIR weight's two sweeps, which work on one tile of ``paths.TILE_ROWS``
rows at a time, tile-sized ones, all from the one workspace. No name is
taken at both sizes. The slots, in the order a chunk fills them:

    OU    nu          the batch's nu; the weight's adjoint, gradient and
                      then tangent V, in place
          nu_prime    the batch's nu'
          noise       tile: the normals as drawn, turned in place into the
                      noise part D of Y, then nu D w_j
          y           tile: Y, whose last node row the batch keeps
          tmp0        tile: the volatility function's scratch
          tmp1        tile: sigma'', spent by nu_terms
          tmp2        tile: the volatility function's mask
          sigma       tile: sigma, then sigma^2 w_j
          sigma_prime tile: sigma'
          mask        tile: the guard's mask
    CIR   dW          the normals, drawn one tile of step rows at a time
                      and scaled to dW in place, the batch's dW
          states      Z, the batch's states
          lam         the weight's adjoint, then g, then Phi_xi g
          phi_xi      tile: Phi_xi, then Phi_xi^2
          phi_zxi     tile: k / (2 sqrt(Z)), then Phi_zxi, then 2 Phi_zxi g
          phi_z       tile: Phi_z
          phi_zz      tile: Phi_zz

So an OU worker touches two whole arrays (nu and nu', about 17 MB at
n = 512 and 2048 paths; a traced chunk peaks at 2.23 whole arrays) and a
CIR worker three (dW, Z and lam; 3.17), each besides the tiles and the
noise stream's one tile of a block's draw; no worker holds a whole array
of normals as drawn. A batch lives in its workspace: it is spent once
the next batch runs there.

A slot is allocated by its first ``take`` and again only when a larger
array is asked of it, so a caller needs no knowledge of the layout. A
worker's first chunk is its largest, so no slot grows after it.
"""

import math

import numpy as np


class Workspace:
    """Named byte buffers, each allocated on first use and again only when
    a larger array is asked of it."""

    def __init__(self):
        self._slots = {}

    def take(self, name, shape, dtype=float):
        """Slot ``name`` as a C-contiguous array of ``shape`` and ``dtype``.
        Its contents are whatever the slot last held."""
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        slot = self._slots.get(name)
        if slot is None or slot.size < nbytes:
            slot = self._slots[name] = np.empty(nbytes, np.uint8)
        return slot[:nbytes].view(dtype).reshape(shape)
