"""Vectorized transform primitives on packed ``uint64`` truth tables.

Three primitives, all operating on batches and all exact:

* :func:`apply_transforms` — every table × every transform in one numpy
  gather (``[B, T]`` ``uint64`` images);
* :func:`orbit` / :func:`orbit_chunks` — the full exhaustive NPN orbit
  of one table, as one array for small arities and as streamed chunks
  for ``n = 5, 6`` where the intermediate bit matrices are what costs
  memory (the packed orbit itself is at most 92 160 words);
* :func:`canonical_min` — the batched exhaustive canonical minimum: the
  lexicographically smallest table over each input's whole orbit,
  byte-identical to
  :func:`repro.baselines.exact_enum.exact_npn_canonical`.

The first two route through the gather tables: unpack tables to a
``[B, 2**n]`` bit matrix once, gather it through precomputed index maps,
and pack the gathered bits back to ``uint64`` rows.  The canonical
minimum needs every image but no particular order, so it never unpacks:
it walks the packed words through all permutations by adjacent variable
swaps, each a shift-and-mask delta-swap.  Output negation is a single
XOR with the full table mask on packed words in both.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from functools import lru_cache
from math import factorial
from pathlib import Path

import numpy as np

from repro.core import bitops
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable
from repro.kernels.gather import MAX_KERNEL_VARS, gather_table

__all__ = [
    "bit_matrix",
    "pack_rows",
    "transform_index_maps",
    "apply_transforms",
    "orbit",
    "orbit_chunks",
    "canonical_min",
    "canonical_min_table",
]

#: Soft cap on the number of ``uint8`` entries any gather materialises.
_ENTRY_BUDGET = 1 << 25


def _as_ints(tables, n: int | None) -> tuple[int, list[int]]:
    """Normalise a table batch to ``(arity, raw integer list)``.

    ``n`` is required for raw integers and must match :class:`TruthTable`
    items when both are given.
    """
    ints: list[int] = []
    batch_n: int | None = None
    for item in tables:
        if isinstance(item, TruthTable):
            if batch_n is None:
                batch_n = item.n
            elif item.n != batch_n:
                raise ValueError(
                    f"mixed arities in batch: {item.n} != {batch_n}"
                )
            ints.append(item.bits)
        else:
            ints.append(int(item))
    if batch_n is None:
        if n is None:
            raise ValueError("pass n when tables are raw integers")
        batch_n = n
    elif n is not None and n != batch_n:
        raise ValueError(f"explicit n={n} != batch arity {batch_n}")
    return batch_n, ints


def bit_matrix(n: int, ints: Sequence[int]) -> np.ndarray:
    """``[B, 2**n]`` ``uint8`` bit matrix of raw integer tables.

    Row ``b``, column ``m`` holds bit ``m`` of table ``b`` — the
    unpacked form every gather operates on.  One serialisation pass, no
    per-row numpy.
    """
    if n > MAX_KERNEL_VARS:
        raise ValueError(f"kernels serve n <= {MAX_KERNEL_VARS}, got n={n}")
    size = 1 << n
    raw = b"".join(value.to_bytes(8, "little") for value in ints)
    matrix = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8),
        axis=1,
        bitorder="little",
    )
    return matrix[:, :size]


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``[..., 2**n]`` bit array back to ``uint64`` tables.

    The inverse of :func:`bit_matrix` along the last axis; works for any
    leading shape (the gather primitives pack ``[B, T, 2**n]`` blocks).
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if packed.shape[-1] < 8:
        pad = np.zeros(
            packed.shape[:-1] + (8 - packed.shape[-1],), dtype=np.uint8
        )
        packed = np.concatenate([packed, pad], axis=-1)
    return (
        np.ascontiguousarray(packed)
        .view("<u8")
        .reshape(packed.shape[:-1])
    )


def transform_index_maps(
    n: int,
    transforms: Sequence[NPNTransform],
    cache_dir: str | Path | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``([T, 2**n] uint8 gather maps, [T] uint8 output phases)``.

    Row ``t`` maps image minterms of ``transforms[t]`` to source
    minterms (input permutation and phase folded in); output negation is
    returned separately because it acts after packing.
    """
    table = gather_table(n, cache_dir)
    rows = np.fromiter(
        (table.row_of(t.perm) for t in transforms),
        dtype=np.intp,
        count=len(transforms),
    )
    phases = np.fromiter(
        (t.input_phase for t in transforms),
        dtype=np.uint8,
        count=len(transforms),
    )
    outputs = np.fromiter(
        (t.output_phase for t in transforms),
        dtype=np.uint8,
        count=len(transforms),
    )
    return table.index_maps(rows, phases), outputs


def apply_transforms(
    tables,
    transforms: Sequence[NPNTransform],
    n: int | None = None,
    cache_dir: str | Path | None = None,
) -> np.ndarray:
    """Image of every table under every transform: ``[B, T]`` ``uint64``.

    ``result[b, t] == transforms[t].apply_table(tables[b], n)`` for all
    pairs — many tables × many transforms in one gather.  ``tables`` may
    be :class:`TruthTable` objects or raw integers (then ``n`` is
    required); all transforms must act on the same arity.
    """
    transforms = list(transforms)
    batch_n, ints = _as_ints(tables, n)
    for t in transforms:
        if t.n != batch_n:
            raise ValueError(
                f"transform arity {t.n} != table arity {batch_n}"
            )
    size = 1 << batch_n
    bits = bit_matrix(batch_n, ints)
    out = np.empty((len(ints), len(transforms)), dtype=np.uint64)
    if not transforms:
        return out
    mask = np.uint64(bitops.table_mask(batch_n))
    chunk = max(1, _ENTRY_BUDGET // max(1, len(ints) * size))
    for start in range(0, len(transforms), chunk):
        stop = min(start + chunk, len(transforms))
        maps, outputs = transform_index_maps(
            batch_n, transforms[start:stop], cache_dir
        )
        packed = pack_rows(bits[:, maps])  # [B, chunk]
        flip = outputs.astype(bool)
        if flip.any():
            packed[:, flip] ^= mask
        out[:, start:stop] = packed
    return out


def orbit_chunks(
    table: TruthTable,
    include_output: bool = True,
    cache_dir: str | Path | None = None,
) -> Iterator[np.ndarray]:
    """Stream the exhaustive orbit of one table as ``uint64`` chunks.

    Concatenated, the chunks enumerate the images of *every* transform
    in :func:`repro.core.transforms.all_transforms` order (output phase
    slowest, then permutation, then input phase) — ``2**(n+1) * n!``
    entries with multiplicity, ``2**n * n!`` without output negation.
    Streaming bounds the live ``uint8`` gather intermediates; the packed
    chunks themselves are small.
    """
    n = table.n
    gt = gather_table(n, cache_dir)
    bits = bit_matrix(n, [table.bits])
    mask = np.uint64(bitops.table_mask(n))
    size = gt.table_size
    perm_block = max(1, _ENTRY_BUDGET // (size * size))
    outputs = (0, 1) if include_output else (0,)
    for output_phase in outputs:
        for start in range(0, gt.num_perms, perm_block):
            maps = gt.group_index_maps(slice(start, start + perm_block))
            packed = pack_rows(bits[:, maps])[0]
            yield packed ^ mask if output_phase else packed


def orbit(
    table: TruthTable,
    include_output: bool = True,
    cache_dir: str | Path | None = None,
) -> np.ndarray:
    """The full exhaustive orbit of one table as a ``uint64`` array.

    For ``n <= 4`` this is a single gather (at most 768 entries); for
    ``n = 5, 6`` the computation streams through :func:`orbit_chunks`
    and only the packed result (<= 92 160 words) is materialised.
    """
    return np.concatenate(
        list(orbit_chunks(table, include_output, cache_dir))
    )


def canonical_min(tables: Iterable, n: int | None = None) -> np.ndarray:
    """Batched exhaustive canonical minimum: ``[B]`` ``uint64``.

    Entry ``b`` is the smallest truth table in the full NPN orbit of
    ``tables[b]`` — the canonical form of
    :func:`repro.baselines.exact_enum.exact_npn_canonical`, for the
    whole batch at once.

    The orbit minimum is a minimum over a set, so the enumeration order
    is free.  Each table's ``2**(n+1)`` input/output phase images are
    held as one row of packed words; an adjacent-swap walk then carries
    every row through all ``n!`` variable permutations, one delta-swap
    on the whole array per step, under a running minimum.  Small
    batches first expand the rows over the permutations of the low
    variables, so the walk takes fewer, larger steps.
    """
    batch_n, ints = _as_ints(tables, n)
    if not 0 <= batch_n <= MAX_KERNEL_VARS:
        raise ValueError(
            f"kernels serve n <= {MAX_KERNEL_VARS}, got n={batch_n}"
        )
    words = np.array(ints, dtype=np.uint64) & np.uint64(
        bitops.table_mask(batch_n)
    )
    best = np.empty(len(words), dtype=np.uint64)
    rows, low_vars = _walk_shape(batch_n, len(words))
    for start in range(0, len(words), rows):
        best[start : start + rows] = _walk_min(
            words[start : start + rows], batch_n, low_vars
        )
    return best


def canonical_min_table(tt: TruthTable) -> TruthTable:
    """Single-table convenience wrapper around :func:`canonical_min`."""
    return TruthTable(tt.n, int(canonical_min([tt])[0]))


# ----------------------------------------------------------------------
# The packed-word permutation walk behind :func:`canonical_min`
# ----------------------------------------------------------------------


def _minterm_mask(keep) -> np.uint64:
    """The ``uint64`` word with bit ``m`` set iff ``keep(m)``."""
    return np.uint64(sum(1 << m for m in range(64) if keep(m)))


#: ``_PHASE_MASKS[i]``: the minterms with ``x_i = 0``.  Flipping input
#: ``i`` swaps them with the minterms ``1 << i`` above.
_PHASE_MASKS = tuple(
    _minterm_mask(lambda m, i=i: not m >> i & 1)
    for i in range(MAX_KERNEL_VARS)
)

#: ``_SWAP_MASKS[i]``: the minterms with ``x_i = 1, x_{i+1} = 0``.
#: Exchanging inputs ``i`` and ``i + 1`` swaps them with the minterms
#: ``1 << i`` above.
_SWAP_MASKS = tuple(
    _minterm_mask(lambda m, i=i: m >> i & 1 and not m >> (i + 1) & 1)
    for i in range(MAX_KERNEL_VARS - 1)
)

#: Words per walk chunk: small enough that one step's operands stay in
#: cache, large enough that numpy's per-call overhead is amortised.
_WALK_WORDS = _ENTRY_BUDGET >> 9


@lru_cache(maxsize=None)
def _swap_path(n: int, k: int) -> tuple[int, ...]:
    """Adjacent swaps visiting every coset of ``S_k`` in ``S_n`` once.

    ``S_k`` permutes inputs ``0 .. k-1`` among themselves.  A coset is
    the arrangement of inputs ``k .. n-1`` over the ``n`` positions, the
    low inputs filling the rest as one block; step ``i`` exchanges
    positions ``i`` and ``i + 1``.  Plain changes
    (Steinhaus–Johnson–Trotter): input ``n - 1`` sweeps across every
    position of each arrangement of the others, reversing direction
    between sweeps, so the walk has ``n! / k! - 1`` steps.  ``k <= 1``
    is the plain-changes order of all ``n!`` permutations.
    """
    if n <= max(k, 1):
        return ()
    leftward = tuple(range(n - 2, -1, -1))
    path: list[int] = []
    at_right = True
    for step in (*_swap_path(n - 1, k), None):
        path.extend(leftward if at_right else reversed(leftward))
        at_right = not at_right
        if step is None:
            break
        # Input n-1 now sits at one end; shift past it if it is at 0.
        path.append(step if at_right else step + 1)
    return tuple(path)


def _walk_shape(n: int, batch: int) -> tuple[int, int]:
    """``(tables per chunk, low inputs k)`` of one walk.

    A batch too small to fill a chunk is expanded over the ``k!``
    permutations of its low inputs first, choosing the ``k`` that fits
    the chunk and minimises the step count ``k! + n!/k!``.
    """
    width = 2 << n
    if batch * width >= _WALK_WORDS:
        return max(1, _WALK_WORDS // width), 0
    fits = [
        k
        for k in range(n + 1)
        if batch * factorial(k) * width <= _WALK_WORDS
    ]
    k = min(fits, key=lambda k: factorial(k) + factorial(n) // factorial(k))
    return max(1, batch), k


def _swap_inputs(state: np.ndarray, i: int, scratch: np.ndarray) -> None:
    """Exchange inputs ``i`` and ``i + 1`` of every word, in place."""
    shift = np.uint64(1 << i)
    np.right_shift(state, shift, out=scratch)
    scratch ^= state
    scratch &= _SWAP_MASKS[i]
    state ^= scratch
    scratch <<= shift
    state ^= scratch


def _walk_min(words: np.ndarray, n: int, k: int) -> np.ndarray:
    """Orbit minima of one chunk of masked tables (see :func:`canonical_min`)."""
    state = np.stack([words, words ^ np.uint64(bitops.table_mask(n))], axis=1)
    for i in range(n):  # double over input i's phase: shift, mask, OR
        shift = np.uint64(1 << i)
        flipped = (state & _PHASE_MASKS[i]) << shift
        flipped |= (state >> shift) & _PHASE_MASKS[i]
        state = np.concatenate([state, flipped], axis=1)
    if k > 1:  # one block per permutation of inputs 0 .. k-1
        blocks = [state]
        scratch = np.empty_like(state)
        for i in _swap_path(k, 0):
            block = blocks[-1].copy()
            _swap_inputs(block, i, scratch)
            blocks.append(block)
        state = np.concatenate(blocks, axis=1)
    best = state.copy()
    scratch = np.empty_like(state)
    for i in _swap_path(n, k):
        _swap_inputs(state, i, scratch)
        np.minimum(best, state, out=best)
    return best.min(axis=1)
