"""The content-addressed result store: one simulation per spec_hash, ever.

Documents live as canonical bytes under ``<root>/documents/<hash>.json``
with a small ``index.json`` as the fast startup path.  The index is a
*cache of a cache*: deleting it loses nothing — :class:`ResultStore`
rebuilds it by scanning the documents directory, then any configured
``runs_roots`` of persisted run directories (their manifests carry the
spec hash and every summary field the run-kind document needs, so a
store can be reconstructed from plain simulation output that never went
through the daemon).

Byte-identity contract: :meth:`get_bytes` returns exactly the bytes
:meth:`put` stored — the serve layer sends them verbatim, so two cache
hits (or a hit and the original miss) can be compared with ``==`` on
the wire.
"""

from __future__ import annotations

import json
import re
import threading
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..errors import ServeError
from ..io import atomic_write
from ..obs import metrics as obs_metrics
from ..obs.runtime import emit as obs_emit
from ..specs import document_bytes, document_from_persisted_run

__all__ = ["INDEX_NAME", "ResultStore"]

INDEX_NAME = "index.json"
_DOCUMENTS = "documents"
_HASH_RE = re.compile(r"^[0-9a-f]{64}$")


class ResultStore:
    """Thread-safe spec_hash → result-document store on disk."""

    def __init__(
        self,
        root: Union[str, Path],
        *,
        runs_roots: Iterable[Union[str, Path]] = (),
    ) -> None:
        self.root = Path(root)
        self.documents_dir = self.root / _DOCUMENTS
        self.documents_dir.mkdir(parents=True, exist_ok=True)
        self._runs_roots = tuple(Path(p) for p in runs_roots)
        self._lock = threading.Lock()
        self._hashes: Dict[str, str] = {}  # spec_hash -> document filename
        self.skipped: List[Tuple[str, str]] = []  # (path, reason) of scans
        loaded = self._load_index()
        if not loaded:
            self.rebuild()

    # -- startup -------------------------------------------------------

    def _load_index(self) -> bool:
        path = self.root / INDEX_NAME
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            hashes = payload["hashes"]
            if not isinstance(hashes, dict):
                raise TypeError("index hashes must be an object")
        except FileNotFoundError:
            return False
        except (OSError, ValueError, KeyError, TypeError):
            # a torn or stale index is not an error — it is exactly the
            # situation the rebuild path exists for
            return False
        with self._lock:
            self._hashes = {
                spec_hash: filename
                for spec_hash, filename in hashes.items()
                if (self.documents_dir / filename).is_file()
            }
        return True

    def rebuild(self) -> int:
        """Reconstruct the index from documents and persisted runs.

        Scans ``<root>/documents`` first (stored documents are already
        canonical), then every configured runs root, turning each
        complete persisted run directory into a run-kind document.
        Unreadable entries are skipped with a recorded reason (the
        ``persist_scan_skipped_total`` counter, a journal event, and
        the :attr:`skipped` list).  Returns the number of documents
        indexed.
        """
        from ..io.streaming import iter_persisted_manifests

        hashes: Dict[str, str] = {}
        for path in sorted(self.documents_dir.glob("*.json")):
            spec_hash = path.stem
            if _HASH_RE.match(spec_hash):
                hashes[spec_hash] = path.name
            else:
                self._record_skip(path, "not a spec-hash-named document")
        with self._lock:
            self._hashes = hashes
        for runs_root in self._runs_roots:
            for run_dir, manifest in iter_persisted_manifests(
                runs_root, on_skip=self._record_skip
            ):
                known = (manifest.get("run_info") or {}).get("spec_hash")
                if known is not None and known in self:
                    continue
                document = document_from_persisted_run(run_dir)
                if document is None:
                    continue
                spec = document.get("spec") or {}
                if spec.get("seed") is None:
                    # an unseeded run is a fresh random draw every time:
                    # its recorded outcome must never answer for a new one
                    continue
                self.put(document["spec_hash"], document)
        self._persist_index()
        return len(self._hashes)

    def _record_skip(self, path: Any, reason: str) -> None:
        self.skipped.append((str(path), reason))

    # -- the store proper ----------------------------------------------

    def put(self, spec_hash: str, document: Mapping[str, Any]) -> Path:
        """Store a result document under its spec hash (idempotent)."""
        if not isinstance(spec_hash, str) or not _HASH_RE.match(spec_hash):
            raise ServeError(
                f"refusing to store a document under non-hash key "
                f"{spec_hash!r}"
            )
        if document.get("spec_hash") != spec_hash:
            raise ServeError(
                f"document carries spec_hash "
                f"{str(document.get('spec_hash'))[:12]}…, cannot store it "
                f"under {spec_hash[:12]}…"
            )
        filename = f"{spec_hash}.json"
        path = self.documents_dir / filename
        with self._lock:
            already = spec_hash in self._hashes
        if not already:
            atomic_write(path, document_bytes(document))
            with self._lock:
                self._hashes[spec_hash] = filename
            self._persist_index()
            obs_metrics.REGISTRY.inc("serve_store_documents_total")
            obs_emit("serve.store_put", spec_hash=spec_hash)
        return path

    def get_bytes(self, spec_hash: str) -> Optional[bytes]:
        """The stored canonical document bytes, or ``None``."""
        with self._lock:
            filename = self._hashes.get(spec_hash)
        if filename is None:
            return None
        try:
            return (self.documents_dir / filename).read_bytes()
        except OSError:
            # the document vanished underneath us; drop the index entry
            with self._lock:
                self._hashes.pop(spec_hash, None)
            return None

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        """The stored document, parsed, or ``None``."""
        data = self.get_bytes(spec_hash)
        return None if data is None else json.loads(data.decode("utf-8"))

    def __contains__(self, spec_hash: str) -> bool:
        with self._lock:
            return spec_hash in self._hashes

    def __len__(self) -> int:
        with self._lock:
            return len(self._hashes)

    def hashes(self) -> List[str]:
        with self._lock:
            return sorted(self._hashes)

    def _persist_index(self) -> None:
        with self._lock:
            payload = {"format_version": 1, "hashes": dict(self._hashes)}
        atomic_write(
            self.root / INDEX_NAME,
            (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode(
                "utf-8"
            ),
        )
