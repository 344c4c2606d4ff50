"""Counter-based noise streams for reproducible parallel simulation.

Paths are addressed in blocks of BLOCK = 256. The global seed and the
namespace/purpose tags form the 128-bit Philox key; the block index
``path // BLOCK`` is placed in counter word 2 of the 256-bit counter, and
the block's stream is drawn as one (BLOCK, count) matrix of standard
normals whose row ``path % BLOCK`` belongs to the path. A path's normals
are therefore a pure function of (seed, namespace, purpose, path index,
count): they do not depend on which worker draws them, in what order, or
how the ensemble is chunked -- the property the reproducibility tests
(byte-identical output for any --threads value) rely on. One stream rewind
serves 256 paths, and BLOCK divides the ensemble's chunk size, so a chunk
draws whole blocks straight into its own rows. Rows of one block drawn with
different counts share the block's stream, so each (namespace, purpose)
is drawn with one count per ensemble.

Purpose tags keep logically distinct draws from colliding:

    PURPOSE_VOL    volatility-driver increments
    PURPOSE_ASSET  terminal asset normal (independent of the vol driver)
    PURPOSE_BRIDGE + level   Brownian-bridge refinement noise per halving
                             (reserved for the grid-convergence tests)

Namespaces separate independent ensembles that share a seed: the self
check's mixing, plain-MC and moment ensembles each draw their own paths,
apart from the weighted (density) ensemble that ``avgvar price`` reads all
three prices off.
"""

import numbers

import numpy as np

from .errors import ValidationError

PURPOSE_VOL = 0
PURPOSE_ASSET = 1
PURPOSE_BRIDGE = 16

NAMESPACE_DENSITY = 0
NAMESPACE_MIXING = 1
NAMESPACE_PLAIN = 2
NAMESPACE_MOMENTS = 3

BLOCK = 256

_MASK64 = (1 << 64) - 1


def check_seed(seed):
    """Raise E_INVALID_SEED unless ``seed`` fits the noise key's 64 bits."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValidationError([("E_INVALID_SEED",
                                f"seed must be an integer in [0, 2^64), got {seed}")])


class NoiseStream:
    """Block-addressed standard-normal streams under one (seed, namespace,
    purpose) key.

    ``normal_matrix(path_indices, count)`` is a pure function of its
    arguments and the key: re-requesting a path's draws always returns the
    same values. A seed outside [0, 2^64) raises E_INVALID_SEED; it would
    otherwise alias a seed inside the range.
    """

    def __init__(self, seed, purpose, namespace=0):
        # numpy.random is imported by the first stream, not with the
        # package, so a command that draws nothing never loads it
        from numpy.random import Generator, Philox

        check_seed(seed)
        self.seed = int(seed)
        self.purpose = int(purpose)
        self.namespace = int(namespace)
        self._key = np.array(
            [self.seed, ((self.namespace << 8) | self.purpose) & _MASK64],
            dtype=np.uint64,
        )
        self._bg = Philox(key=self._key)
        self._gen = Generator(self._bg)

    def _rewind(self, block):
        # Placing the block index in counter word 2 leaves words 0 and 1,
        # 2^128 Philox blocks, to each 256-path block; one draw of
        # 256 * count normals uses about 64 * count of them.
        self._bg.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.array([0, 0, block, 0], dtype=np.uint64),
                "key": self._key,
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def normal_matrix(self, path_indices, count, antithetic=False, out=None):
        """A (len(path_indices), count) matrix whose row i holds the normals
        of path ``path_indices[i]``, written into ``out`` when given.

        Each block the request touches is rewound once. A whole block that
        fills consecutive rows in path order is drawn straight into them;
        otherwise the block's rows are drawn up to the last one needed, and
        the requested ones are copied out. With ``antithetic=True`` an odd
        path returns the negated normals of its even partner (index - 1),
        which lies in the same block.
        """
        idx = np.asarray(path_indices, dtype=np.int64).reshape(-1)
        count = int(count)
        if out is None:
            out = np.empty((idx.size, count))
        if idx.size == 0:
            return out
        odd = (idx % 2 == 1) if antithetic else np.zeros(idx.size, dtype=bool)
        src = idx - odd  # the path whose row is read
        block = src // BLOCK
        order = np.argsort(block, kind="stable")
        for at in np.split(order, np.flatnonzero(np.diff(block[order])) + 1):
            b = int(block[at[0]])
            self._rewind(b)
            lo = at[0]
            first = b * BLOCK
            if at.size == BLOCK and np.array_equal(idx[lo:lo + BLOCK],
                                                   np.arange(first, first + BLOCK)):
                rows = out[lo:lo + BLOCK]
                self._gen.standard_normal(out=rows)
                if antithetic:
                    np.negative(rows[0::2], out=rows[1::2])
                continue
            drawn = self._gen.standard_normal((int(src[at].max()) - first + 1, count))
            out[at] = drawn[src[at] - first]
            flip = at[odd[at]]
            out[flip] = -out[flip]
        return out
