"""Segmented append-only write-ahead log of acknowledged async jobs.

The async job queue acknowledges a submission before solving it, which
makes the ack a *promise*: once ``/solve_batch mode=async`` has returned a
job id, a ``kill -9`` must not lose the work.  This module keeps that
promise.  Every submission is journaled -- the full request documents, not
references -- to an append-only log **before** the ack leaves the process,
and on restart :meth:`JobWal.replay` returns every journaled job that never
logged a completion marker so the service can push it back through the
normal deduping batch path.

Record framing
--------------
Each record is length-prefixed and CRC-framed::

    [4-byte LE payload length][4-byte LE CRC32 of payload][payload JSON]

A torn tail (the crash landed mid-write) or a corrupt record fails its CRC;
the reader stops there, reports how many bytes it dropped, and the writer
truncates the tail on open -- a damaged log never poisons recovery, it only
shortens it to the records that were durable.

Durability policy
-----------------
Submit records are fsynced before the ack (group commit: concurrent
submitters share one fsync whenever their writes land before a neighbour's
sync call -- the ``fsyncs_coalesced`` counter measures the saving).
Lifecycle markers (``start``/``complete``) are buffered writes only: losing
one merely causes an idempotent replay, because the result store already
holds every solved outcome and the batch path dedupes by fingerprint.

Sharding & compaction
---------------------
Jobs are striped across ``segments`` independent log files by job sequence
number, each with its own locks, so concurrent submitters do not serialise
behind one fsync queue.  A segment is compacted -- rewritten keeping only
records of unfinished jobs -- after ``compact_interval`` completions land
in it, so the log tracks the *live* queue instead of growing with total
history.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Any, Callable, Iterator

from .faults import inject

#: Framing header: payload length + CRC32, both little-endian uint32.
_HEADER = struct.Struct("<II")

#: Log file name pattern inside the WAL directory.
SEGMENT_PATTERN = "wal-{index:02d}.log"

#: Record types, in lifecycle order.
RECORD_TYPES = ("submit", "start", "complete")


class WalError(RuntimeError):
    """Raised for structural misuse of the WAL (not for torn tails, which
    are expected crash debris and handled by truncation)."""


def encode_record(payload: dict[str, Any]) -> bytes:
    """Frame one record: length + CRC header, JSON payload."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(len(body), zlib.crc32(body)) + body


def decode_records(data: bytes) -> tuple[list[dict[str, Any]], int]:
    """Decode framed records; returns ``(records, valid_bytes)``.

    Scanning stops at the first truncated or CRC-corrupt record;
    ``valid_bytes`` is the offset of the last intact record's end, so the
    caller can truncate the broken tail away.
    """
    records: list[dict[str, Any]] = []
    offset = 0
    total = len(data)
    while offset + _HEADER.size <= total:
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > total:  # torn tail: the crash landed mid-record
            break
        body = data[start:end]
        if zlib.crc32(body) != crc:
            break
        try:
            record = json.loads(body.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            break
        if not isinstance(record, dict):
            break
        records.append(record)
        offset = end
    return records, offset


class WalSegment:
    """One append-only log file with group-commit fsync.

    ``append`` writes into the OS buffer under the write lock;
    ``append(durable=True)`` additionally syncs -- but a concurrent
    submitter whose record was already covered by a neighbour's fsync skips
    the syscall entirely (``fsyncs_coalesced``).  All counters are guarded
    by the write lock.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()
        self._sync_lock = threading.Lock()
        self.appends = 0
        self.fsyncs = 0
        self.fsyncs_coalesced = 0
        self.truncated_bytes = 0
        self.compactions = 0
        #: Completion markers appended since the last compaction (the
        #: compaction trigger counter of the owning :class:`JobWal`).
        self.completes_since_compact = 0
        records, valid = self._read_all()
        self._records = records
        self._file = open(self.path, "ab")
        if self._file.tell() > valid:  # crash debris: drop the torn tail
            self.truncated_bytes += self._file.tell() - valid
            self._file.truncate(valid)
            self._file.seek(valid)
        self._appended_offset = valid
        self._synced_offset = valid

    def _read_all(self) -> tuple[list[dict[str, Any]], int]:
        if not self.path.exists():
            return [], 0
        return decode_records(self.path.read_bytes())

    # ------------------------------------------------------------------ #
    # Appending
    # ------------------------------------------------------------------ #
    def append(self, record: dict[str, Any], durable: bool) -> None:
        """Write one record; with ``durable`` it is on disk when this
        returns (directly or via a concurrent group commit)."""
        inject("wal.append")
        frame = encode_record(record)
        with self._write_lock:
            self._file.write(frame)
            self._file.flush()
            self._appended_offset += len(frame)
            offset = self._appended_offset
            self.appends += 1
            self._records.append(record)
        if durable:
            self.sync(offset)

    def sync(self, up_to_offset: int | None = None) -> None:
        """Group-commit fsync: everything appended before the call is made
        durable; skipped when a neighbour's fsync already covered it."""
        with self._sync_lock:
            if up_to_offset is not None and self._synced_offset >= up_to_offset:
                with self._write_lock:
                    self.fsyncs_coalesced += 1
                return
            inject("wal.fsync")
            with self._write_lock:
                target = self._appended_offset
                self._file.flush()
            os.fsync(self._file.fileno())
            self._synced_offset = max(self._synced_offset, target)
            with self._write_lock:
                self.fsyncs += 1

    # ------------------------------------------------------------------ #
    # Reading / compaction
    # ------------------------------------------------------------------ #
    def records(self) -> list[dict[str, Any]]:
        with self._write_lock:
            return list(self._records)

    def live_submissions(self) -> list[dict[str, Any]]:
        """Submit records with no completion marker, in append order."""
        with self._write_lock:
            completed = {
                record.get("job_id")
                for record in self._records
                if record.get("type") == "complete"
            }
            return [
                record
                for record in self._records
                if record.get("type") == "submit" and record.get("job_id") not in completed
            ]

    def compact(self) -> int:
        """Rewrite the segment keeping only records of unfinished jobs.

        Atomic: the survivors are written to a sibling temp file, fsynced,
        and moved over the segment with ``os.replace`` -- a crash during
        compaction leaves either the old log or the new one, never a mix.
        Returns the number of records dropped.
        """
        inject("wal.compact")
        with self._sync_lock, self._write_lock:
            live = {
                record.get("job_id")
                for record in self._records
                if record.get("type") == "submit"
            } - {
                record.get("job_id")
                for record in self._records
                if record.get("type") == "complete"
            }
            survivors = [
                record for record in self._records if record.get("job_id") in live
            ]
            dropped = len(self._records) - len(survivors)
            temp_path = self.path.with_suffix(".compact")
            with open(temp_path, "wb") as temp:
                for record in survivors:
                    temp.write(encode_record(record))
                temp.flush()
                os.fsync(temp.fileno())
            self._file.close()
            os.replace(temp_path, self.path)
            self._file = open(self.path, "ab")
            self._records = survivors
            self._appended_offset = self._file.tell()
            self._synced_offset = self._appended_offset
            self.compactions += 1
            self.completes_since_compact = 0
            return dropped

    def close(self) -> None:
        """Flush, final-fsync and close the segment.

        The final fsync makes *buffered* lifecycle markers (start/complete)
        durable too, so a graceful shutdown leaves a log that replays to
        exactly the in-memory queue state -- no spurious re-runs on the
        next start, and never a torn tail.
        """
        with self._sync_lock, self._write_lock:
            if not self._file.closed:
                self._file.flush()
                if self._appended_offset > self._synced_offset:
                    os.fsync(self._file.fileno())
                    self._synced_offset = self._appended_offset
                    self.fsyncs += 1
                self._file.close()


class JobWal:
    """The job queue's write-ahead log: ``segments`` striped WAL files.

    Parameters
    ----------
    directory:
        Where the segment files live (created if missing).  A restart on
        the same directory finds every journaled job again.
    segments:
        Independent log files; a job's records all land in the segment
        chosen by its sequence number, so compaction is per-segment and
        concurrent submitters rarely share an fsync queue.
    compact_interval:
        Completion markers a segment absorbs before it is compacted.
    """

    def __init__(
        self,
        directory: str | Path,
        segments: int = 4,
        compact_interval: int = 256,
    ):
        if segments < 1:
            raise WalError("segments must be >= 1")
        if compact_interval < 1:
            raise WalError("compact_interval must be >= 1")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.compact_interval = compact_interval
        self._segments = [
            WalSegment(self.directory / SEGMENT_PATTERN.format(index=index))
            for index in range(segments)
        ]
        self._lock = threading.Lock()
        self.replays = 0
        self.replayed_jobs = 0

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def _segment_of(self, sequence: int) -> WalSegment:
        return self._segments[sequence % len(self._segments)]

    # ------------------------------------------------------------------ #
    # Journaling (called by the job queue)
    # ------------------------------------------------------------------ #
    def journal_submit(
        self,
        job_id: str,
        sequence: int,
        created_unix: float,
        documents: list[dict[str, Any]],
    ) -> None:
        """Durably journal one acknowledged submission (fsynced on return)."""
        self._segment_of(sequence).append(
            {
                "type": "submit",
                "job_id": job_id,
                "seq": sequence,
                "created_unix": created_unix,
                "requests": documents,
            },
            durable=True,
        )

    def journal_start(self, job_id: str, sequence: int) -> None:
        """Buffered start marker (diagnostic only; replay ignores it)."""
        self._segment_of(sequence).append(
            {"type": "start", "job_id": job_id, "seq": sequence}, durable=False
        )

    def journal_complete(self, job_id: str, sequence: int, status: str) -> None:
        """Buffered completion marker; triggers compaction at the interval.

        Deliberately not fsynced: losing it replays a finished job, which
        the deduping batch path answers from the result store -- cheap and
        idempotent, unlike an fsync per completion.
        """
        segment = self._segment_of(sequence)
        segment.append(
            {"type": "complete", "job_id": job_id, "seq": sequence, "status": status},
            durable=False,
        )
        with segment._write_lock:
            segment.completes_since_compact += 1
            due = segment.completes_since_compact >= self.compact_interval
        if due:
            segment.compact()

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #
    def replay(self) -> tuple[list[dict[str, Any]], int]:
        """Unfinished submissions in sequence order, plus the max sequence.

        The max sequence covers *every* journaled record (finished or not)
        so a restarted queue never reissues a job id.
        """
        live: list[dict[str, Any]] = []
        max_sequence = 0
        for segment in self._segments:
            live.extend(segment.live_submissions())
            for record in segment.records():
                max_sequence = max(max_sequence, int(record.get("seq", 0)))
        live.sort(key=lambda record: int(record.get("seq", 0)))
        with self._lock:
            self.replays += 1
            self.replayed_jobs += len(live)
        return live, max_sequence

    def compact(self) -> int:
        """Compact every segment now; returns total records dropped."""
        return sum(segment.compact() for segment in self._segments)

    # ------------------------------------------------------------------ #
    # Introspection / lifecycle
    # ------------------------------------------------------------------ #
    def live_jobs(self) -> list[str]:
        """Job ids journaled but not yet completed, in sequence order."""
        return [record["job_id"] for record in self.replay_peek()]

    def replay_peek(self) -> list[dict[str, Any]]:
        """Like :meth:`replay` but without touching the replay counters."""
        live: list[dict[str, Any]] = []
        for segment in self._segments:
            live.extend(segment.live_submissions())
        live.sort(key=lambda record: int(record.get("seq", 0)))
        return live

    def stats(self) -> dict[str, Any]:
        totals = {
            "segments": len(self._segments),
            "appends": 0,
            "fsyncs": 0,
            "fsyncs_coalesced": 0,
            "compactions": 0,
            "truncated_bytes": 0,
        }
        for segment in self._segments:
            with segment._write_lock:
                totals["appends"] += segment.appends
                totals["fsyncs"] += segment.fsyncs
                totals["fsyncs_coalesced"] += segment.fsyncs_coalesced
                totals["compactions"] += segment.compactions
                totals["truncated_bytes"] += segment.truncated_bytes
        with self._lock:
            totals["replays"] = self.replays
            totals["replayed_jobs"] = self.replayed_jobs
        totals["live_jobs"] = len(self.replay_peek())
        return totals

    def close(self) -> None:
        for segment in self._segments:
            segment.close()

    def __enter__(self) -> "JobWal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def iter_wal_files(directory: str | Path) -> Iterator[Path]:
    """The segment files currently present under ``directory``."""
    yield from sorted(Path(directory).glob("wal-*.log"))
