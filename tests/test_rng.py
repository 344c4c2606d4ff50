import numpy as np
from numpy.random import Generator, Philox

from avgvar.rng import PURPOSE_ASSET, PURPOSE_VOL, NoiseStream
from bridge import refine_increments


def test_streams_are_reproducible_and_order_independent():
    s = NoiseStream(123, PURPOSE_VOL)
    a = s.normals(5, 64)
    _ = s.normals(9, 64)
    _ = s.normals(0, 8)
    assert np.array_equal(s.normals(5, 64), a)


def test_streams_match_fresh_counter_construction():
    s = NoiseStream(123, PURPOSE_VOL, namespace=2)
    a = s.normals(7, 16)
    key = np.array([123, (2 << 8) | PURPOSE_VOL], dtype=np.uint64)
    fresh = Generator(Philox(counter=np.array([0, 0, 7, 0], dtype=np.uint64), key=key))
    assert np.array_equal(a, fresh.standard_normal(16))


def test_distinct_paths_purposes_namespaces_differ():
    base = NoiseStream(1, PURPOSE_VOL).normals(0, 32)
    assert not np.array_equal(base, NoiseStream(1, PURPOSE_VOL).normals(1, 32))
    assert not np.array_equal(base, NoiseStream(1, PURPOSE_ASSET).normals(0, 32))
    assert not np.array_equal(base, NoiseStream(1, PURPOSE_VOL, namespace=1).normals(0, 32))
    assert not np.array_equal(base, NoiseStream(2, PURPOSE_VOL).normals(0, 32))


def test_antithetic_pairs_negate():
    s = NoiseStream(11, PURPOSE_VOL)
    m = s.normal_matrix([0, 1, 2, 3], 16, antithetic=True)
    assert np.array_equal(m[1], -m[0])
    assert np.array_equal(m[3], -m[2])
    plain = s.normal_matrix([0, 2], 16)
    assert np.array_equal(m[0], plain[0])
    assert np.array_equal(m[2], plain[1])


def test_bridge_refinement_preserves_coarse_increments():
    s = NoiseStream(5, PURPOSE_VOL)
    dW = s.normals(0, 128) * np.sqrt(1.0 / 128)
    z = s.normals(1, 128)
    fine = refine_increments(dW, 1.0 / 128, z)
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
