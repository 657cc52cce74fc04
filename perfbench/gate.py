"""Correctness gate: every answer is checked offline, off the clock.

Three checks, any failure raises :class:`GateError` and the run reports
no numbers:

* every hit's witness re-verifies: the reply's representative, put
  through the reply's transform, is the query, and the class id names
  that representative;
* every answer agrees with an offline :meth:`ClassLibrary.match_many`
  reference over the same artifact, on hit or miss and on class id;
* every answer agrees with what the workload built the query to be
  (the exact class of a cut, the source class of a random image).
"""

from __future__ import annotations

from repro.canonical.form import parse_canonical_class_id
from repro.core.transforms import NPNTransform
from repro.core.truth_table import TruthTable


class GateError(AssertionError):
    """An answer the program gave is wrong."""


def check_answers(tables, expected, replies, library) -> dict:
    """Gate ``replies`` (decoded, ``None`` when unanswered) to ``tables``.

    ``expected[i]`` is the class id the workload built query ``i`` to
    have, or ``None`` when only the reference decides.  Unanswered and
    error replies are not checked here; they count as failed requests.
    Returns counts of what was checked.
    """
    distinct: dict[tuple[int, int], int] = {}
    for index, reply in enumerate(replies):
        if reply is not None and reply.get("ok"):
            distinct.setdefault((tables[index].n, tables[index].bits), len(distinct))
    queries = [None] * len(distinct)
    for (n, bits), slot in distinct.items():
        queries[slot] = TruthTable(n, bits)
    reference = library.match_many(queries)
    verified: set = set()
    checked = hits = 0
    for index, reply in enumerate(replies):
        if reply is None or not reply.get("ok"):
            continue
        table = tables[index]
        result = reply["result"]
        ref = reference[distinct[(table.n, table.bits)]]
        want = None if ref is None else ref.class_id
        got = result.get("class_id") if result.get("hit") else None
        if got != want:
            raise GateError(
                f"request {index} ({table.n}:{table.to_hex()}): served "
                f"{got!r}, offline reference {want!r}"
            )
        if expected[index] is not None and got != expected[index]:
            raise GateError(
                f"request {index} ({table.n}:{table.to_hex()}): served "
                f"{got!r}, built as a member of {expected[index]!r}"
            )
        checked += 1
        if got is None:
            continue
        hits += 1
        key = (table.n, table.bits, got, repr(result.get("transform")))
        if key in verified:
            continue
        representative = TruthTable.from_hex(table.n, result["representative"])
        witness = NPNTransform.from_dict(result["transform"])
        if representative.apply(witness) != table:
            raise GateError(
                f"request {index} ({table.n}:{table.to_hex()}): witness "
                f"{result['transform']} does not map {got!r} onto the query"
            )
        if parse_canonical_class_id(got) != representative:
            raise GateError(
                f"request {index}: class id {got!r} does not name the "
                f"served representative {result['representative']!r}"
            )
        verified.add(key)
    return {
        "checked": checked,
        "hits": hits,
        "distinct_queries": len(queries),
        "distinct_witnesses": len(verified),
    }
