import numpy as np
import pytest
from numpy.random import SFC64, Generator, SeedSequence

from avgvar.errors import ValidationError
from avgvar.rng import BLOCK, PURPOSE_ASSET, PURPOSE_VOL, NoiseStream
from bridge import refine_increments


def _block(seed, namespace, purpose, block, count, width=BLOCK):
    """Block ``block`` of a stream, ``count`` rows of ``width`` normals drawn
    time-major from a fresh SFC64 under the block's spawn key."""
    key = SeedSequence(seed, spawn_key=(namespace, purpose, block))
    return Generator(SFC64(key)).standard_normal((count, width))


def test_streams_match_fresh_sfc64_construction():
    # column path % BLOCK of block path // BLOCK, row j for step j
    s = NoiseStream(123, PURPOSE_VOL, namespace=2)
    paths = range(7, 3 * BLOCK + 18)
    m = s.normal_matrix(paths, 0, 16)
    assert m.shape == (16, len(paths))
    for col, path in zip(m.T, paths):
        want = _block(123, 2, PURPOSE_VOL, path // BLOCK, 16)[:, path % BLOCK]
        assert np.array_equal(col, want)
    whole = s.normal_matrix(range(BLOCK, 2 * BLOCK), 0, 16)
    assert np.array_equal(whole, _block(123, 2, PURPOSE_VOL, 1, 16))
    top = NoiseStream(2**64 - 1, PURPOSE_ASSET).normal_matrix(range(2), 0, 3)
    assert np.array_equal(top, _block(2**64 - 1, 0, PURPOSE_ASSET, 0, 3)[:, :2])


def test_streams_are_reproducible_and_order_independent():
    # any range of paths returns its columns of one whole draw, in any
    # order of requests: within a block, crossing one or two block
    # boundaries, a partial tail, a single path, or none
    s = NoiseStream(123, PURPOSE_VOL)
    n_paths = 3 * BLOCK + 40
    full = s.normal_matrix(range(n_paths), 0, 24)
    for paths in (range(3 * BLOCK, n_paths),
                  range(BLOCK - 5, 2 * BLOCK + 5),
                  range(5, 9),
                  range(BLOCK + 1, 3 * BLOCK + 7),
                  range(n_paths - 1, n_paths),
                  range(0, n_paths),
                  range(BLOCK, BLOCK)):
        assert np.array_equal(s.normal_matrix(paths, 0, 24), full[:, paths.start:paths.stop])
    out = np.empty((24, n_paths))
    assert s.normal_matrix(range(n_paths), 0, 24, out=out) is out
    assert np.array_equal(out, full)


@pytest.mark.parametrize("paths", [[0, 1, 2], np.arange(3), range(0, 6, 2), range(6, 0, -1)],
                         ids=["list", "array", "stepped_range", "reversed_range"])
def test_anything_but_a_range_of_step_one_is_rejected(paths):
    with pytest.raises(ValueError, match="range of step 1"):
        NoiseStream(123, PURPOSE_VOL).normal_matrix(paths, 0, 4)


def test_first_steps_do_not_depend_on_the_count():
    # time-major blocks: a path's first m normals are the same however
    # many steps are drawn
    idx = range(BLOCK + 9)
    short = NoiseStream(9, PURPOSE_VOL).normal_matrix(idx, 0, 5)
    long = NoiseStream(9, PURPOSE_VOL).normal_matrix(idx, 0, 77)
    assert np.array_equal(short, long[:5])


def test_tile_by_tile_draw_with_a_restart_equals_one_whole_draw():
    idx = range(2 * BLOCK + 3)
    n = 50
    whole = NoiseStream(4, PURPOSE_VOL).normal_matrix(idx, 0, n)
    s = NoiseStream(4, PURPOSE_VOL)
    tiles = np.empty((n, len(idx)))
    for lo in range(0, n, 16):
        s.normal_matrix(idx, lo, min(lo + 16, n), out=tiles[lo:lo + 16])
    assert np.array_equal(tiles, whole)
    # a request that does not continue where its block stopped restarts
    # the block and draws up to its first row: backwards, and past a gap
    for lo, hi in ((20, 30), (40, 45), (3, 4)):
        assert np.array_equal(s.normal_matrix(idx, lo, hi), whole[lo:hi])
    fresh = NoiseStream(4, PURPOSE_VOL).normal_matrix(idx[BLOCK:], 7, 19)
    assert np.array_equal(fresh, whole[7:19, BLOCK:])


def test_distinct_paths_purposes_namespaces_differ():
    def draw(seed, purpose=PURPOSE_VOL, namespace=0, path=0):
        stream = NoiseStream(seed, purpose, namespace=namespace)
        return stream.normal_matrix(range(path, path + 1), 0, 32)[:, 0]

    base = draw(1)
    assert not np.array_equal(base, draw(1, path=1))
    assert not np.array_equal(base, draw(1, path=BLOCK))
    assert not np.array_equal(base, draw(1, purpose=PURPOSE_ASSET))
    assert not np.array_equal(base, draw(1, namespace=1))
    assert not np.array_equal(base, draw(2))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seed_outside_the_key_range_is_rejected(seed):
    # a seed is one 64-bit word, the range every command documents
    with pytest.raises(ValidationError) as info:
        NoiseStream(seed, PURPOSE_VOL)
    assert [code for code, _ in info.value.violations] == ["E_INVALID_SEED"]


def test_antithetic_pairs_negate():
    # odd paths read the negated normals of their even partners, and each
    # antithetic block draws 128 columns per step
    s = NoiseStream(11, PURPOSE_VOL, antithetic=True)
    n = 16
    m = s.normal_matrix(range(2 * BLOCK), 0, n)
    assert np.array_equal(m[:, 1::2], -m[:, 0::2])
    # even path 2i of a block is column i of 128 columns drawn per row
    for b in range(2):
        half = _block(11, 0, PURPOSE_VOL, b, n, width=BLOCK // 2)
        assert np.array_equal(m[:, b * BLOCK:(b + 1) * BLOCK:2], half)
    # ranges that start on an odd path or cross the block boundary read
    # the same columns
    for paths in (range(BLOCK - 4, BLOCK + 4), range(BLOCK - 1, BLOCK + 2), range(3, 4)):
        assert np.array_equal(s.normal_matrix(paths, 0, n), m[:, paths.start:paths.stop])
    # and so does a tile-by-tile draw
    tiles = np.vstack([s.normal_matrix(range(2 * BLOCK), lo, lo + 4) for lo in range(0, n, 4)])
    assert np.array_equal(tiles, m)
    # pairing is the stream's: an unpaired stream of the same key draws
    # other values
    plain = NoiseStream(11, PURPOSE_VOL).normal_matrix(range(2 * BLOCK), 0, n)
    assert not np.array_equal(plain, m)


def test_bridge_refinement_preserves_coarse_increments():
    s = NoiseStream(5, PURPOSE_VOL)
    xi = s.normal_matrix(range(2), 0, 128).T
    dW = xi[0] * np.sqrt(1.0 / 128)
    fine = refine_increments(dW, 1.0 / 128, xi[1])
    assert fine.shape == (256,)
    # pairwise sums reproduce the coarse increments to roundoff
    assert np.allclose(fine[0::2] + fine[1::2], dW, rtol=0, atol=1e-16)


def test_bridge_refinement_statistics():
    # refined increments must be N(0, dt/2) iid: check variance within noise
    s = NoiseStream(6, PURPOSE_VOL)
    n, dt = 256, 1.0 / 256
    dW = s.normal_matrix(range(200), 0, n).T * np.sqrt(dt)
    z = s.normal_matrix(range(1000, 1200), 0, n).T
    fine = refine_increments(dW, dt, z)
    var = fine.var()
    se = fine.size**-0.5 * np.sqrt(2) * (dt / 2)
    assert abs(var - dt / 2) < 4 * se
