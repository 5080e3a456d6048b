"""NDJSON audit log of mutation receipts.

Every mutation that reaches a shard leaves exactly one audit record --
``applied``, ``noop``, or ``rejected`` (with the error) -- so the
mutation history of a tenant is reconstructible from the log
alone.  Records append to an NDJSON file when a path is configured and
always land in a bounded in-memory ring, which is what the
``/v1/{tenant}/audit`` endpoint serves (the file is the durable copy,
the ring is the queryable tail).
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

__all__ = ["AuditLog"]


class AuditLog:
    """Thread-safe NDJSON writer + bounded in-memory tail."""

    def __init__(
        self, path: Optional[str] = None, ring_size: int = 4096
    ) -> None:
        self._path = path
        self._lock = threading.Lock()
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=ring_size)
        self._seq = 0
        self._file = open(path, "a", encoding="utf-8") if path else None

    @property
    def path(self) -> Optional[str]:
        return self._path

    def record(
        self,
        tenant: str,
        session: str,
        outcome: str,
        mutation: Dict[str, Any],
        version: Optional[int] = None,
        delta: Optional[str] = None,
        error: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Append one receipt; returns the record written."""
        with self._lock:
            self._seq += 1
            entry: Dict[str, Any] = {
                "seq": self._seq,
                "time": time.time(),  # noqa: wall-clock receipt timestamp
                "tenant": tenant,
                "session": session,
                "outcome": outcome,
                "mutation": mutation,
            }
            if version is not None:
                entry["version"] = version
            if delta is not None:
                entry["delta"] = delta
            if error is not None:
                entry["error"] = error
            self._ring.append(entry)
            if self._file is not None:
                self._file.write(json.dumps(entry, sort_keys=True) + "\n")
                self._file.flush()
            return entry

    def tail(
        self, tenant: Optional[str] = None, limit: int = 100
    ) -> List[Dict[str, Any]]:
        """The most recent ``limit`` records (newest last), optionally
        one tenant's; a negative ``limit`` returns every record."""
        with self._lock:
            entries = list(self._ring)
        if tenant is not None:
            entries = [e for e in entries if e["tenant"] == tenant]
        if limit < 0:
            return entries
        return entries[-limit:] if limit else []

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None
