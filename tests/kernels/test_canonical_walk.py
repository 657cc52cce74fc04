"""Property suite for the packed swap-walk ``canonical_min`` kernel.

The kernel's contract, independent of how it walks the orbit:

* every minimum is the exhaustive orbit minimum — against
  :func:`exact_npn_canonical` at n = 0..5 and against the gather-based
  ``orbit(tt).min()`` at n = 6;
* a table's minimum does not depend on the batch it is computed in —
  whatever the chunking and the low-variable expansion the kernel picks
  for that batch size;
* every NPN image of a table gets the same minimum.

The walk's shape (chunk rows, expanded low variables) is read from the
kernel itself, so the boundary batches below follow it if it is retuned.
"""

import itertools
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.baselines.exact_enum import exact_npn_canonical
from repro.core.truth_table import TruthTable
from repro.kernels import ops
from tests.strategies import tables_with_transforms, truth_table_batches, truth_tables


def _oracle(tt: TruthTable) -> int:
    if tt.n <= 5:
        return exact_npn_canonical(tt).representative.bits
    return int(kernels.orbit(tt).min())


def _shape_boundaries(n: int) -> list[int]:
    """Batch sizes on both sides of every change of the walk's shape."""
    sizes = {1}
    batch = 1
    while True:
        rows, k = ops._walk_shape(n, batch + 1)
        if k != ops._walk_shape(n, batch)[1]:
            sizes.update((batch, batch + 1))
        batch += 1
        if rows < batch:  # the first batch split into two chunks
            sizes.update((rows, batch))
            return sorted(sizes)


class TestAgainstOracle:
    @given(batch=truth_table_batches(min_n=0, max_n=5, max_size=6))
    @settings(max_examples=40)
    def test_matches_exhaustive_enumeration(self, batch):
        minima = kernels.canonical_min(batch, n=batch[0].n if batch else 0)
        assert [int(m) for m in minima] == [_oracle(tt) for tt in batch]

    @given(batch=truth_table_batches(n=6, min_size=1, max_size=3))
    @settings(max_examples=8)
    def test_n6_matches_orbit_minimum(self, batch):
        minima = kernels.canonical_min(batch)
        assert [int(m) for m in minima] == [_oracle(tt) for tt in batch]

    @pytest.mark.parametrize("n", range(0, 7))
    def test_empty_batch(self, n):
        minima = kernels.canonical_min([], n)
        assert minima.dtype == np.uint64 and minima.shape == (0,)

    @given(tt=truth_tables(min_n=0, max_n=6), copies=st.integers(2, 40))
    @settings(max_examples=20)
    def test_duplicate_laden_batch(self, tt, copies):
        batch = [tt] * copies + [~tt] + [tt]
        minima = kernels.canonical_min(batch)
        assert set(minima.tolist()) == {_oracle(tt)}


class TestBatchIndependence:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_shape_boundaries_cover_expansion_and_chunking(self, n):
        shapes = [ops._walk_shape(n, b) for b in _shape_boundaries(n)]
        assert len({k for _, k in shapes}) >= 2
        assert any(rows < b for (rows, _), b in zip(shapes, _shape_boundaries(n)))

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_minimum_independent_of_batch(self, n):
        """Each boundary batch agrees with the same tables one by one."""
        rng = np.random.default_rng(70 + n)
        sizes = _shape_boundaries(n)
        pool = rng.integers(0, 1 << (1 << n), size=max(sizes), dtype=np.uint64)
        alone = np.array(
            [kernels.canonical_min([int(v)], n)[0] for v in pool],
            dtype=np.uint64,
        )
        for size in sizes:
            assert np.array_equal(
                kernels.canonical_min(pool[:size].tolist(), n), alone[:size]
            ), size
        for index in rng.choice(len(pool), size=3, replace=False):
            assert int(alone[index]) == _oracle(TruthTable(n, int(pool[index])))

    @given(
        batch=truth_table_batches(min_n=3, max_n=6, min_size=2, max_size=24),
        data=st.data(),
    )
    @settings(max_examples=30)
    def test_minimum_independent_of_neighbours(self, batch, data):
        order = data.draw(st.permutations(range(len(batch))))
        whole = kernels.canonical_min(batch)
        shuffled = kernels.canonical_min([batch[i] for i in order])
        assert shuffled.tolist() == [int(whole[i]) for i in order]


class TestOrbitInvariance:
    @given(case=tables_with_transforms(transforms=6, min_n=1, max_n=6))
    @settings(max_examples=30)
    def test_every_image_gets_the_same_minimum(self, case):
        tt, transforms = case
        images = [tt.apply(t) for t in transforms]
        minima = kernels.canonical_min([tt] + images)
        assert len(set(minima.tolist())) == 1
        assert int(minima[0]) <= min(image.bits for image in [tt] + images)


class TestSwapPath:
    @pytest.mark.parametrize(
        "n,k", [(n, k) for n in range(0, 7) for k in range(0, n + 1)]
    )
    def test_visits_every_coset_once(self, n, k):
        """Replaying the swaps on the coset words (the low-input block
        as one letter) visits each of the ``n!/k!`` arrangements once."""
        word = ["low"] * k + list(range(k, n))
        seen = [tuple(word)]
        for i in ops._swap_path(n, k):
            assert 0 <= i < n - 1
            word[i], word[i + 1] = word[i + 1], word[i]
            seen.append(tuple(word))
        expected = set(itertools.permutations(["low"] * k + list(range(k, n))))
        assert len(seen) == len(set(seen)) == factorial(n) // factorial(k)
        assert set(seen) == expected
