"""Structured JSON-lines run log.

One record per line, each a JSON object with a ``kind`` discriminator:
``header`` (config fingerprint, policy, streams, sampling setup), ``sample``
(one metrics interval), ``final`` (end-of-run summary), and the campaign
heartbeat kinds (``campaign_start`` / ``job_start`` / ``job_done`` /
``campaign_end``).

Two modes: *buffered* (default — records accumulate in memory and are
written once by :meth:`write`, so the simulator never does I/O mid-run) and
*live* (``live=True`` — every record is written and flushed immediately,
which is what campaign heartbeats need so an operator can tail the file
while jobs run).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

KIND_HEADER = "header"
KIND_SAMPLE = "sample"
KIND_FINAL = "final"


class RunLog:
    """JSONL record accumulator / writer."""

    def __init__(self, path: Optional[str] = None,
                 live: bool = False) -> None:
        self.path = path
        self.live = live and path is not None
        self.records: List[Dict[str, Any]] = []
        self._fh = None
        if self.live:
            self._fh = open(path, "w", encoding="utf-8")

    def emit(self, kind: str, **fields: Any) -> Dict[str, Any]:
        record = {"kind": kind}
        record.update(fields)
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()
        return record

    def write(self, path: Optional[str] = None) -> None:
        """Write all buffered records (no-op for live logs, already on disk)."""
        if self.live:
            return
        target = path or self.path
        if target is None:
            raise ValueError("RunLog has no path to write to")
        with open(target, "w", encoding="utf-8") as f:
            for record in self.records:
                f.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL file, skipping blank lines."""
    records: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
