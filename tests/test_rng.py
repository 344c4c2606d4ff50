import numpy as np
import pytest
from numpy.random import Generator, Philox

from avgvar.errors import ValidationError
from avgvar.rng import BLOCK, PURPOSE_ASSET, PURPOSE_VOL, NoiseStream
from bridge import refine_increments


def _block(key, block, count):
    """Block ``block`` of the stream under ``key``, drawn from a fresh Philox."""
    counter = np.array([0, 0, block, 0], dtype=np.uint64)
    return Generator(Philox(counter=counter, key=key)).standard_normal((BLOCK, count))


def test_streams_match_fresh_counter_construction():
    # row r of block b is row r of one (BLOCK, count) draw at counter [0, 0, b, 0]
    s = NoiseStream(123, PURPOSE_VOL, namespace=2)
    key = np.array([123, (2 << 8) | PURPOSE_VOL], dtype=np.uint64)
    idx = np.array([7, 255, 256, 300, 3 * BLOCK + 17])
    m = s.normal_matrix(idx, 16)
    for row, path in zip(m, idx):
        assert np.array_equal(row, _block(key, path // BLOCK, 16)[path % BLOCK])
    whole = s.normal_matrix(np.arange(BLOCK, 2 * BLOCK), 16)
    assert np.array_equal(whole, _block(key, 1, 16))


def test_streams_are_reproducible_and_order_independent():
    # any index set returns the rows of one contiguous draw: permuted,
    # non-contiguous, crossing blocks, a partial tail, or a repeated path
    s = NoiseStream(123, PURPOSE_VOL)
    n_paths = 3 * BLOCK + 40
    full = s.normal_matrix(np.arange(n_paths), 24)
    rng = np.random.default_rng(0)
    for idx in (rng.permutation(n_paths),
                np.arange(1, n_paths, 7),
                np.arange(BLOCK - 5, 2 * BLOCK + 5),
                np.arange(3 * BLOCK, n_paths),
                np.array([n_paths - 1, 0, 5, 5, BLOCK])):
        assert np.array_equal(s.normal_matrix(idx, 24), full[idx])
    out = np.empty((n_paths, 24))
    assert s.normal_matrix(np.arange(n_paths), 24, out=out) is out
    assert np.array_equal(out, full)


def test_distinct_paths_purposes_namespaces_differ():
    def draw(seed, purpose=PURPOSE_VOL, namespace=0, path=0):
        return NoiseStream(seed, purpose, namespace=namespace).normal_matrix([path], 32)[0]

    base = draw(1)
    assert not np.array_equal(base, draw(1, path=1))
    assert not np.array_equal(base, draw(1, path=BLOCK))
    assert not np.array_equal(base, draw(1, purpose=PURPOSE_ASSET))
    assert not np.array_equal(base, draw(1, namespace=1))
    assert not np.array_equal(base, draw(2))


@pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
def test_seed_outside_the_key_range_is_rejected(seed):
    # masked to 64 bits, -1 would draw the noise of 2^64 - 1 and 2^64 + 1 that of 1
    with pytest.raises(ValidationError) as info:
        NoiseStream(seed, PURPOSE_VOL)
    assert [code for code, _ in info.value.violations] == ["E_INVALID_SEED"]


def test_antithetic_pairs_negate():
    s = NoiseStream(11, PURPOSE_VOL)
    plain = s.normal_matrix(np.arange(2 * BLOCK), 16)
    # whole blocks, drawn straight into place, and a set that crosses the
    # block boundary in pieces
    for idx in (np.arange(2 * BLOCK), np.arange(BLOCK - 4, BLOCK + 4),
                np.array([BLOCK + 1, BLOCK - 1, 3, 0])):
        m = s.normal_matrix(idx, 16, antithetic=True)
        partner = idx - idx % 2
        sign = np.where(idx % 2 == 1, -1.0, 1.0)[:, None]
        assert np.array_equal(m, sign * plain[partner])


def test_bridge_refinement_preserves_coarse_increments():
    s = NoiseStream(5, PURPOSE_VOL)
    xi = s.normal_matrix([0, 1], 128)
    dW = xi[0] * np.sqrt(1.0 / 128)
    fine = refine_increments(dW, 1.0 / 128, xi[1])
    assert fine.shape == (256,)
    # pairwise sums reproduce the coarse increments to roundoff
    assert np.allclose(fine[0::2] + fine[1::2], dW, rtol=0, atol=1e-16)


def test_bridge_refinement_statistics():
    # refined increments must be N(0, dt/2) iid: check variance within noise
    s = NoiseStream(6, PURPOSE_VOL)
    n, dt = 256, 1.0 / 256
    dW = s.normal_matrix(np.arange(200), n) * np.sqrt(dt)
    z = s.normal_matrix(np.arange(200) + 1000, n)
    fine = refine_increments(dW, dt, z)
    var = fine.var()
    se = fine.size**-0.5 * np.sqrt(2) * (dt / 2)
    assert abs(var - dt / 2) < 4 * se
