"""Content-addressed result store: one atomic JSON file per point.

The store is the service's source of truth for completed work.  Keys
are point digests (:mod:`repro.service.digest`); values are the
flattened result rows :func:`repro.sim.sweep._run_point` produces.
Writes go through a temp file + ``os.replace`` so a reader (or a
service restarted after SIGKILL) never observes a half-written row —
a row either exists completely or not at all, which is what lets the
journal treat "result file present" as "point done" during resume.

Concurrent writers of the same digest are harmless by construction:
both compute the same deterministic row and the last rename wins with
identical bytes.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from typing import Any, Dict, List, Optional

_SUFFIX = ".json"
#: ``fullmatch``, not ``match`` with ``$``: ``$`` accepts a trailing newline.
_DIGEST = re.compile(r"[0-9a-f]{64}")


def _is_digest(digest: str) -> bool:
    return _DIGEST.fullmatch(digest) is not None


class ResultStore:
    """Directory of ``<digest>.json`` result rows with atomic writes."""

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> str:
        if not _is_digest(digest):
            raise ValueError(f"malformed digest {digest!r}")
        return os.path.join(self.root, digest + _SUFFIX)

    def has(self, digest: str) -> bool:
        return os.path.exists(self._path(digest))

    def get(self, digest: str) -> Optional[Dict[str, Any]]:
        """The stored row, or ``None`` when the point is not cached."""
        try:
            with open(self._path(digest)) as handle:
                row: Dict[str, Any] = json.load(handle)
        except FileNotFoundError:
            return None
        return row

    def put(self, digest: str, row: Dict[str, Any]) -> None:
        """Atomically persist one result row under its digest."""
        path = self._path(digest)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(row, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def digests(self) -> List[str]:
        """All stored digests, sorted (stable for status reporting)."""
        return sorted(
            name[: -len(_SUFFIX)]
            for name in os.listdir(self.root)
            if name.endswith(_SUFFIX) and _is_digest(name[: -len(_SUFFIX)])
        )

    def __len__(self) -> int:
        return len(self.digests())
