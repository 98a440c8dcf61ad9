import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdirnet.blocklin import (
    BlockMat,
    BlockStructure,
    BlockVec,
    block_sparsity,
    complement,
    norm_2q,
    support,
)

V = BlockVec.from_blocks([[3, 4], [0, 0], [5, 12]])


def test_structure_invariants():
    s = BlockStructure((2, 1, 3))
    assert s.total == 6
    assert s.offsets == (0, 2, 3, 6)
    assert s.slice_of(1) == slice(2, 3)
    with pytest.raises(ValueError):
        BlockStructure((2, 0))


def test_offsets_are_plain_ints():
    s = BlockStructure((2, 1, 3))
    assert all(type(o) is int for o in s.offsets)
    assert type(s.total) is int


@pytest.mark.parametrize("d", [1, 2, 3])
def test_uniform_block_norms_bit_equal_the_per_block_norm(rng, d):
    # the stacked x^T x of uniform blocks must give np.linalg.norm's value
    # of every block to the last bit (norm(axis=1) and einsum do not)
    scale = rng.choice([1e-150, 1e-3, 1.0, 1e3, 1e150], size=(5000, 1))
    v = BlockVec(BlockStructure((d,) * 5000), (rng.normal(size=(5000, d)) * scale).ravel())
    expected = np.array([np.linalg.norm(v.block(i)) for i in range(5000)])
    assert v.block_norms().tobytes() == expected.tobytes()
    mixed = BlockVec.from_blocks([[3.0, 4.0], [1.0], [2.0, 3.0, 6.0]])
    assert mixed.block_norms().tolist() == [5.0, 1.0, 7.0]
    assert BlockVec(BlockStructure(())).block_norms().shape == (0,)


def test_blocks_concatenate_back():
    parts = [V.block(i) for i in range(3)]
    assert np.array_equal(np.concatenate(parts), V.data)


def test_norm_2q_examples():
    assert norm_2q(V, 1) == pytest.approx(18.0)
    assert norm_2q(V, 2) == pytest.approx(np.sqrt(194))
    zero = BlockVec.from_blocks([[0, 0], [0]])
    for q in (0.5, 1, 2, 3):
        assert norm_2q(zero, q) == 0.0
    with pytest.raises(ValueError):
        norm_2q(V, 0.0)
    with pytest.raises(ValueError):
        norm_2q(V, -1.0)


@settings(deadline=None, max_examples=50)
@given(st.lists(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4),
                min_size=1, max_size=5))
def test_norm_22_equals_euclidean(blocks):
    v = BlockVec.from_blocks(blocks)
    assert norm_2q(v, 2) == pytest.approx(np.linalg.norm(v.data), abs=1e-12)


@settings(deadline=None, max_examples=50)
@given(st.floats(-10, 10), st.floats(1.0, 4.0))
def test_norm_2q_homogeneous(alpha, q):
    v = BlockVec.from_blocks([[1.0, -2.0], [3.0], [0.0, 0.5, 4.0]])
    scaled = BlockVec(v.structure, alpha * v.data)
    assert norm_2q(scaled, q) == pytest.approx(abs(alpha) * norm_2q(v, q),
                                               rel=1e-10, abs=1e-10)


def test_block_sparsity_and_support():
    assert block_sparsity(V, 0.0) == 2
    assert support(V) == {0, 2}
    assert complement(support(V), 3) == {1}
    assert block_sparsity(BlockVec.from_blocks([[0, 0]]), 0.0) == 0
    noisy = BlockVec.from_blocks([[1e-9, 0], [2, 0]])
    assert block_sparsity(noisy, 1e-6) == 1
    assert block_sparsity(V, 0.0) == len(support(V, 0.0))
    assert support(V, 0) | complement(support(V, 0), 3) == {0, 1, 2}


def test_blockmat_identity_and_scaling():
    s = BlockStructure((2,))
    A = BlockMat(s, s)
    A.set_block(0, 0, 2 * np.eye(2))
    v = BlockVec.from_blocks([[1.0, 1.0]])
    assert np.allclose(A.apply(v).data, [2, 2])
    A.set_block(0, 0, np.eye(2))
    assert np.array_equal(A.apply(v).data, v.data)


def test_blockmat_against_dense_reference(rng):
    rows = BlockStructure((1, 2, 3))
    cols = BlockStructure((2, 2, 1))
    A = BlockMat(rows, cols)
    blocks = [[np.zeros((m, n)) for n in cols.lengths] for m in rows.lengths]
    for l in range(3):
        for i in range(3):
            if rng.random() < 0.6:
                blocks[l][i] = rng.normal(size=(rows.lengths[l], cols.lengths[i]))
                A.set_block(l, i, blocks[l][i])
    dense = A.to_dense()
    assert np.array_equal(dense, np.block(blocks))
    v = BlockVec(cols, rng.normal(size=cols.total))
    assert np.allclose(A.apply(v).data, dense @ v.data, atol=1e-12)
    dense[:] = 1.0  # a copy: the matrix keeps its blocks
    assert np.array_equal(A.to_dense(), np.block(blocks))


def test_blockmat_shape_checks():
    A = BlockMat(BlockStructure((2,)), BlockStructure((2,)))
    with pytest.raises(ValueError):
        A.set_block(0, 0, np.zeros((1, 2)))
    with pytest.raises(ValueError):
        A.apply(BlockVec.from_blocks([[1.0, 2.0, 3.0]]))
