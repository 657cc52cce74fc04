"""Properties of the router's batched shard keys.

The router keys every table op of one event-loop tick in one packed
signature pass.  Workers pick their shards with the scalar
:func:`shard_key_of` (through :meth:`HashRing.shard_filter`), so the two
paths must agree byte for byte — on any mix of arities in one flush, and
for every NPN image of a function.
"""

import asyncio

from hypothesis import given
from hypothesis import strategies as st

from repro.fabric.ring import shard_key_of
from repro.fabric.router import RouterService
from tests.strategies import npn_orbits, truth_table_batches


def routed_keys(tables) -> list[str]:
    """Keys a default-parts router computes for ``tables`` in one tick."""
    router = RouterService(port=0)

    async def one_tick():
        return await asyncio.gather(*(router._shard_key(t) for t in tables))

    keyed = asyncio.run(one_tick()) if tables else []
    assert router._key_flushes == (1 if tables else 0)
    assert all(batch == len(tables) for _, batch in keyed)
    return [key for key, _ in keyed]


@given(
    batches=st.lists(
        truth_table_batches(min_n=0, max_n=8, max_size=6), max_size=5
    ),
    order=st.randoms(use_true_random=False),
)
def test_batched_keys_equal_shard_key_of_on_mixed_arities(batches, order):
    tables = [table for batch in batches for table in batch]
    order.shuffle(tables)
    assert routed_keys(tables) == [shard_key_of(table) for table in tables]


@given(orbit=npn_orbits(min_n=0, max_n=7))
def test_every_npn_image_gets_its_tables_key(orbit):
    seed_function, images = orbit
    expected = shard_key_of(seed_function)
    assert routed_keys([seed_function, *images]) == [expected] * (
        1 + len(images)
    )
