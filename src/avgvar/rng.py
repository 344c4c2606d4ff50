"""Keyed noise streams for reproducible parallel simulation.

Paths are addressed in blocks of BLOCK = 256. Each block has a generator of
its own, SFC64 seeded by ``SeedSequence(seed, spawn_key=(namespace,
purpose, block))``: one keyed substream per block, so no block's draws can
overlap another's (L'Ecuyer et al., Math. Comput. Simul. 135 (2017)). A
block is drawn time-major: row j of its draw holds the step-j normals of
its 256 paths, path p in column ``p % BLOCK``. A path's
normals are therefore a pure function of (seed, namespace, purpose, path
index, step): they do not depend on which worker draws them, in what
order, how the ensemble is chunked, or how many steps are drawn -- the
property the reproducibility tests (byte-identical output for any
--threads value) rely on.

A stream keeps each block's generator and the row it has reached, so a
simulator asks for one tile of step rows of a range of paths at a time
and never holds the normals of a whole path: a request that starts where
the block's last one stopped continues it, one that starts at row 0
restarts the block (``_rewind``), and any other raises ValueError: a
stream never skips rows. Pairing is fixed when the stream is built. With
``antithetic=True`` a block draws 128 columns per row instead: path 2i
reads column i and path 2i + 1 its negation, so the pairs share one
block and each half of a pair costs nothing to draw.

Purpose tags keep logically distinct draws from colliding:

    PURPOSE_VOL    volatility-driver increments
    PURPOSE_ASSET  terminal asset normal (independent of the vol driver)

Namespaces separate independent ensembles that share a seed; the
commands draw in NAMESPACE_DENSITY.
"""

import numbers

import numpy as np

from .errors import ValidationError

PURPOSE_VOL = 0
PURPOSE_ASSET = 1

NAMESPACE_DENSITY = 0

BLOCK = 256


def check_seed(seed):
    """Raise E_INVALID_SEED unless ``seed`` is an integer in [0, 2^64), one
    64-bit word."""
    if not isinstance(seed, numbers.Integral) or not 0 <= seed < 2**64:
        raise ValidationError([("E_INVALID_SEED",
                                f"seed must be an integer in [0, 2^64), got {seed}")])


class NoiseStream:
    """Block-keyed standard-normal streams under one (seed, namespace,
    purpose) key, paired antithetically or not for all their draws.

    ``normal_matrix(paths, lo, hi)`` serves each block's rows in order,
    from row 0 or from where the block's last request stopped, and its
    values are a pure function of its arguments and the stream: requesting
    a path's draws again from row 0 returns the same values. A seed outside
    [0, 2^64) raises E_INVALID_SEED.
    """

    def __init__(self, seed, purpose, namespace=0, antithetic=False):
        check_seed(seed)
        self.seed = int(seed)
        self.purpose = int(purpose)
        self.namespace = int(namespace)
        self.antithetic = bool(antithetic)
        self._blocks = {}  # block -> [generator, next row]
        self._scratch = np.empty(0)

    def _rewind(self, block):
        """A new generator at row 0 of block ``block``."""
        # numpy.random is imported by the first draw, not with the package,
        # so a command that draws nothing never loads it
        from numpy.random import SFC64, Generator, SeedSequence

        key = (self.namespace, self.purpose, int(block))
        return Generator(SFC64(SeedSequence(self.seed, spawn_key=key)))

    def _rows(self, block, lo, hi):
        """Rows lo..hi-1 of block ``block``, 128 columns wide when paired
        and 256 when not, as a view of the stream's scratch buffer. lo is 0
        or the row where the block's last request stopped."""
        state = self._blocks.get(block)
        if lo == 0:
            state = self._blocks[block] = [self._rewind(block), 0]
        elif state is None or state[1] != lo:
            raise ValueError(f"block {block} cannot start at row {lo}: a request "
                             f"starts at row 0 or where the block's last one stopped")
        gen = state[0]
        width = BLOCK // 2 if self.antithetic else BLOCK
        size = (hi - lo) * width
        if self._scratch.size < size:
            self._scratch = np.empty(size)
        rows = self._scratch[:size].reshape(hi - lo, width)
        gen.standard_normal(out=rows)
        state[1] = hi
        return rows

    def normal_matrix(self, paths, lo, hi, out=None):
        """The normals of steps lo..hi-1 of the paths in ``paths``, a range
        of step 1, as a time-major (hi - lo, len(paths)) matrix whose column
        i belongs to path ``paths[i]``, written into ``out`` when given.

        Each block the request touches draws its rows once, and its share
        of the paths is copied in as drawn. The stream keeps the generators
        of this request's blocks only.
        """
        if not isinstance(paths, range) or paths.step != 1:
            raise ValueError(f"paths must be a range of step 1, got {paths!r}")
        lo, hi = int(lo), int(hi)
        if out is None:
            out = np.empty((hi - lo, len(paths)))
        if len(paths) == 0 or hi <= lo:
            return out
        first, stop = paths.start, paths.stop
        blocks = range(first // BLOCK, (stop - 1) // BLOCK + 1)
        for b in blocks:
            p0, p1 = max(b * BLOCK, first), min((b + 1) * BLOCK, stop)
            _put(out[:, p0 - first:p1 - first], p0 % BLOCK, self._rows(b, lo, hi),
                 self.antithetic)
        self._blocks = {b: self._blocks[b] for b in blocks}
        return out


def _put(dst, c0, rows, antithetic):
    """Write paths c0, c0 + 1, ... of a block, one per column of ``dst``,
    from the block's drawn ``rows``; antithetic path c reads column c // 2,
    negated when c is odd."""
    if not antithetic:
        np.copyto(dst, rows[:, c0:c0 + dst.shape[1]])
        return
    for parity in (0, 1):
        at = (parity - c0) % 2  # the first column whose path has this parity
        part = dst[:, at::2]
        src = rows[:, (c0 + at) // 2:(c0 + at) // 2 + part.shape[1]]
        if parity:
            np.negative(src, out=part)
        else:
            np.copyto(part, src)
