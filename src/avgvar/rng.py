"""Counter-based noise streams for reproducible parallel simulation.

Every path owns an independent Philox stream addressed by
(global seed, namespace, purpose, path_index): the seed and the
namespace/purpose tags form the 128-bit Philox key, and the path index is
placed in the high words of the 256-bit counter. A path therefore always
sees the same normals no matter which worker draws them, in what order, or
how the ensemble is chunked -- the property the reproducibility tests
(byte-identical output for any --threads value) rely on.

Purpose tags keep logically distinct draws from colliding:

    PURPOSE_VOL    volatility-driver increments
    PURPOSE_ASSET  terminal asset normal (independent of the vol driver)
    PURPOSE_BRIDGE + level   Brownian-bridge refinement noise per halving
                             (reserved for the grid-convergence tests)

Namespaces separate independent ensembles that share a seed (e.g. the
mixing and plain-MC pricers must not reuse the same volatility paths).
"""

import numpy as np
from numpy.random import Generator, Philox

PURPOSE_VOL = 0
PURPOSE_ASSET = 1
PURPOSE_BRIDGE = 16

NAMESPACE_DENSITY = 0
NAMESPACE_MIXING = 1
NAMESPACE_PLAIN = 2
NAMESPACE_MOMENTS = 3

_MASK64 = (1 << 64) - 1


class NoiseStream:
    """Per-path standard-normal streams under one (seed, namespace, purpose) key.

    ``normals(path_index, count)`` is a pure function of its arguments and
    the key: re-requesting a path's draws always returns the same values.
    """

    def __init__(self, seed, purpose, namespace=0):
        self.seed = int(seed) & _MASK64
        self.purpose = int(purpose)
        self.namespace = int(namespace)
        self._key = np.array(
            [self.seed, ((self.namespace << 8) | self.purpose) & _MASK64],
            dtype=np.uint64,
        )
        self._bg = Philox(key=self._key)
        self._gen = Generator(self._bg)

    def _rewind(self, path_index):
        # Placing the path index in counter word 2 gives each path 2^128
        # private blocks; a path never consumes more than a few thousand.
        self._bg.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([0, 0, path_index, 0], dtype=np.uint64),
                "key": self._key,
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def normals(self, path_index, count):
        """Standard normals for one path, independent of any other call."""
        self._rewind(int(path_index))
        return self._gen.standard_normal(int(count))

    def normal_matrix(self, path_indices, count, antithetic=False):
        """Stack per-path draws into a (len(path_indices), count) matrix.

        With ``antithetic=True`` odd path indices return the negated draws of
        their even partner (index - 1), giving exact antithetic pairs while
        keeping the per-path addressing scheme intact.
        """
        path_indices = np.asarray(path_indices, dtype=np.int64)
        out = np.empty((path_indices.size, count))
        for row, idx in enumerate(path_indices):
            if antithetic and idx % 2 == 1:
                out[row] = -self.normals(idx - 1, count)
            else:
                out[row] = self.normals(idx, count)
        return out
