"""Crash recovery: read the durable tail of the log, replay it in LSN order.

Recovery is what :meth:`repro.QueryEngine.open_live` runs on every open:

1. read the manifest to find the live snapshot generation and its
   ``base_lsn`` (the last update already folded into that generation),
2. :func:`read_records` -- scan the log, tolerate a torn tail, and keep only
   records newer than ``base_lsn`` (records at or below it are already in
   the snapshot; they survive on disk only when a crash interrupted the
   checkpointer between its manifest flip and its log truncation),
3. :func:`replay` -- apply those records through
   :meth:`~repro.engine.engine.QueryEngine.apply_record`, which rebuilds the
   affected index state *without* re-logging anything.

Replay is strictly LSN-ordered -- the monotonic guard below raises on any
regression or duplicate instead of silently reordering an insert/delete
pair.  The ``wal-ordering`` lint rule checks that the guard stays in place.
"""

from __future__ import annotations

from typing import Sequence, TYPE_CHECKING

from repro.wal.log import WalError, WalRecord, WalScan, scan_wal

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.engine import QueryEngine


def read_records(path: str, after_lsn: int = 0) -> WalScan:
    """Scan ``path`` and keep the records with ``lsn > after_lsn``.

    The torn-tail diagnostics of the underlying scan are preserved, with
    ``valid_bytes`` still describing the whole durable prefix of the file.
    """
    scan = scan_wal(path)
    pending = [record for record in scan.records if record.lsn > after_lsn]
    return WalScan(
        records=pending,
        valid_bytes=scan.valid_bytes,
        torn_bytes=scan.torn_bytes,
        torn_reason=scan.torn_reason,
    )


def replay(engine: "QueryEngine", records: Sequence[WalRecord],
           after_lsn: int = 0) -> int:
    """Apply recovered records to ``engine`` in strict LSN order.

    Every record must carry an LSN past ``after_lsn`` and past its
    predecessor's -- the monotonic guard that keeps a reordered or duplicated
    record from silently corrupting the replayed state.  Records are applied
    through :meth:`~repro.engine.engine.QueryEngine.apply_record`, which
    never re-appends to the log.  Returns the number of records applied.
    """
    last_lsn = after_lsn
    applied = 0
    for record in records:
        if record.lsn <= last_lsn:
            raise WalError(
                f"replay out of LSN order: record {record.lsn} after {last_lsn}"
            )
        engine.apply_record(record)
        last_lsn = record.lsn
        applied += 1
    return applied

