"""Gather-table construction, caching, and on-disk persistence."""

import numpy as np
import pytest

from repro.core.transforms import NPNTransform, all_transforms
from repro.kernels import gather as gather_module
from repro.kernels.gather import (
    MAX_KERNEL_VARS,
    GatherTable,
    clear_memory_cache,
    gather_table,
)


@pytest.fixture(autouse=True)
def fresh_memory_cache():
    """Each test sees (and leaves behind) a clean process cache."""
    clear_memory_cache()
    yield
    clear_memory_cache()


class TestConstruction:
    @pytest.mark.parametrize("n", range(0, MAX_KERNEL_VARS + 1))
    def test_shapes(self, n):
        from math import factorial

        table = gather_table(n)
        assert table.perms.shape == (factorial(n), max(n, 0))
        assert table.perm_maps.shape == (factorial(n), 1 << n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_maps_agree_with_apply_index(self, n):
        """Row ``p``, phase ``q`` maps minterm ``m`` to apply_index(m)."""
        table = gather_table(n)
        for transform in all_transforms(n, include_output=False):
            row = table.row_of(transform.perm)
            maps = table.index_maps(
                np.array([row]), np.array([transform.input_phase])
            )[0]
            for m in range(1 << n):
                assert maps[m] == transform.apply_index(m)

    def test_row_of_every_permutation(self):
        table = gather_table(4)
        import itertools

        for row, perm in enumerate(itertools.permutations(range(4))):
            assert table.row_of(perm) == row
            assert tuple(table.perms[row]) == perm

    def test_group_index_maps_order(self):
        """Block enumeration is permutation-major, phase-minor."""
        n = 3
        table = gather_table(n)
        maps = table.group_index_maps(slice(0, table.num_perms))
        expected = [
            NPNTransform(perm_row, phase, 0)
            for perm_row in [tuple(p) for p in table.perms.tolist()]
            for phase in range(1 << n)
        ]
        assert maps.shape == (len(expected), 1 << n)
        for row, transform in zip(maps, expected):
            for m in range(1 << n):
                assert row[m] == transform.apply_index(m)

    def test_rejects_out_of_range_arity(self):
        with pytest.raises(ValueError, match="n <= 6"):
            gather_table(MAX_KERNEL_VARS + 1)
        with pytest.raises(ValueError):
            gather_table(-1)

    def test_memory_cache_returns_same_object(self):
        assert gather_table(5) is gather_table(5)


class TestDiskPersistence:
    def test_lazy_write_and_reload(self, tmp_path):
        cache = tmp_path / "kernels"
        table = gather_table(4, cache_dir=cache)
        files = list(cache.glob("gather_n4.*.npz"))
        assert len(files) == 1
        # A cold process (simulated by clearing memory) loads from disk.
        clear_memory_cache()
        reloaded = gather_table(4, cache_dir=cache)
        assert np.array_equal(reloaded.perm_maps, table.perm_maps)
        assert np.array_equal(reloaded.perms, table.perms)

    def test_memory_hit_still_persists(self, tmp_path):
        gather_table(3)  # memory-only first
        cache = tmp_path / "kernels"
        gather_table(3, cache_dir=cache)  # same table, now persisted
        assert list(cache.glob("gather_n3.*.npz"))

    def test_corrupted_cache_is_rebuilt_and_repaired(self, tmp_path):
        cache = tmp_path / "kernels"
        gather_table(3, cache_dir=cache)
        path = next(cache.glob("gather_n3.*.npz"))
        path.write_bytes(b"not an npz archive")
        clear_memory_cache()
        table = gather_table(3, cache_dir=cache)  # silently rebuilt
        assert isinstance(table, GatherTable)
        assert table.perm_maps.shape == (6, 8)
        # The bad file was replaced, so the *next* cold start loads it.
        clear_memory_cache()
        reloaded = gather_table(3, cache_dir=cache)
        assert np.array_equal(reloaded.perm_maps, table.perm_maps)
        with np.load(path) as data:  # on-disk copy is valid again
            assert data["perm_maps"].shape == (6, 8)

    def test_wrong_shape_cache_is_rebuilt(self, tmp_path):
        cache = tmp_path / "kernels"
        cache.mkdir()
        wrong = gather_module._cache_path(3, cache)
        np.savez(
            wrong,
            perms=np.zeros((2, 3), dtype=np.uint8),
            perm_maps=np.zeros((2, 8), dtype=np.uint8),
        )
        table = gather_table(3, cache_dir=cache)
        assert table.perm_maps.shape == (6, 8)

    def test_unwritable_cache_dir_degrades_gracefully(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("occupied")
        # cache_dir points *into* a file: mkdir fails, table still serves.
        table = gather_table(2, cache_dir=blocker / "sub")
        assert table.n == 2

    def test_no_write_without_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        gather_table(4)
        assert not any(tmp_path.rglob("*.npz"))
