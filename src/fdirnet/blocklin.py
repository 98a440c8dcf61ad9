"""Block-partitioned vectors and matrices, and the l2,q norm family.

A vector's blocks are stored contiguously in one flat buffer with an offset
table; a matrix's in one dense array. All block indices are 0-based.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BlockStructure:
    """A partition of ``range(total)`` into contiguous blocks."""

    lengths: tuple[int, ...]
    total: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lengths = tuple(self.lengths)  # Python ints are kept: int() on each costs more
        object.__setattr__(self, "lengths", lengths if set(map(type, lengths)) <= {int}
                           else tuple(map(int, lengths)))
        if self.lengths and min(self.lengths) < 1:
            raise ValueError("block lengths must be positive")
        object.__setattr__(self, "total", sum(self.lengths))

    @cached_property  # built on first use only: a kept vector need not hold it
    def offsets(self) -> tuple[int, ...]:
        return tuple(itertools.accumulate(self.lengths, initial=0))

    @property
    def num_blocks(self) -> int:
        return len(self.lengths)

    def slice_of(self, i: int) -> slice:
        if not 0 <= i < self.num_blocks:
            raise IndexError(f"block index {i} out of range")
        return slice(self.offsets[i], self.offsets[i + 1])


class BlockVec:
    """A real vector partitioned into blocks.

    Parameters
    ----------
    structure : BlockStructure
    data : array_like of length ``structure.total``
    """

    def __init__(self, structure: BlockStructure, data=None):
        self.structure = structure
        if data is None:
            self.data = np.zeros(structure.total)
        else:
            self.data = np.asarray(data, dtype=float).copy()
            if self.data.shape != (structure.total,):
                raise ValueError(
                    f"data has shape {self.data.shape}, expected ({structure.total},)"
                )

    @classmethod
    def from_blocks(cls, blocks) -> "BlockVec":
        blocks = [np.atleast_1d(np.asarray(b, dtype=float)) for b in blocks]
        structure = BlockStructure(tuple(len(b) for b in blocks))
        return cls(structure, np.concatenate(blocks) if blocks else np.zeros(0))

    def block(self, i: int) -> np.ndarray:
        """View of the i-th block (writable; mutates the underlying buffer)."""
        return self.data[self.structure.slice_of(i)]

    def block_norms(self) -> np.ndarray:
        lengths = self.structure.lengths
        if lengths and lengths.count(lengths[0]) == len(lengths):
            # x^T x per block as one stacked matmul: bit-equal to np.linalg.norm
            # of each block, which np.einsum and norm(axis=1) are not
            X = self.data.reshape(-1, lengths[0])
            return np.sqrt(np.matmul(X[:, None, :], X[:, :, None])).reshape(-1)
        return np.array(
            [np.linalg.norm(self.block(i)) for i in range(self.structure.num_blocks)]
        )

    def copy(self) -> "BlockVec":
        return BlockVec(self.structure, self.data)

    def __len__(self):
        return self.structure.total

    def __repr__(self):
        return f"BlockVec(lengths={self.structure.lengths}, data={self.data!r})"


def norm_2q(v: BlockVec, q: float) -> float:
    """(sum_i ||v[i]||^q)^(1/q); equals the Euclidean norm for q = 2."""
    if q <= 0:
        raise ValueError("q must be positive")
    if q == 2.0:
        # avoids needless pow round-off in the common case
        return float(np.linalg.norm(v.data))
    return float(np.sum(v.block_norms() ** q) ** (1.0 / q))


def block_sparsity(v: BlockVec, tol: float = 0.0) -> int:
    """Number of blocks with Euclidean norm strictly above tol."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    return int(np.count_nonzero(v.block_norms() > tol))


def support(v: BlockVec, tol: float = 0.0) -> frozenset:
    """Indices of blocks with norm strictly above tol."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    norms = v.block_norms()
    return frozenset(int(i) for i in np.flatnonzero(norms > tol))


def complement(s, k: int) -> frozenset:
    """{0..k-1} minus s."""
    return frozenset(range(k)) - frozenset(s)


class BlockMat:
    """A block matrix held as one dense array; blocks never set are exactly zero.

    Block (l, i) is the slice (row block l, column block i) of ``dense``,
    which is allocated on first use. Houses the measurement Jacobian R,
    which fills ``dense`` on first read.
    """

    def __init__(self, row_structure: BlockStructure, col_structure: BlockStructure):
        self.row_structure = row_structure
        self.col_structure = col_structure

    @cached_property  # so that a subclass can fill it on first read
    def dense(self) -> np.ndarray:
        return np.zeros((self.row_structure.total, self.col_structure.total))

    def set_block(self, l: int, i: int, content) -> None:
        content = np.atleast_2d(np.asarray(content, dtype=float))
        expected = (self.row_structure.lengths[l], self.col_structure.lengths[i])
        if content.shape != expected:
            raise ValueError(
                f"block ({l},{i}) has shape {content.shape}, expected {expected}"
            )
        self.dense[self.row_structure.slice_of(l), self.col_structure.slice_of(i)] = content

    def apply(self, v: BlockVec) -> BlockVec:
        if v.structure.lengths != self.col_structure.lengths:
            raise ValueError("column structure mismatch")
        return BlockVec(self.row_structure, self.dense @ v.data)

    def to_dense(self) -> np.ndarray:
        return self.dense.copy()
