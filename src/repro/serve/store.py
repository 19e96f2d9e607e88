"""The content-addressed result store: one simulation per spec_hash, ever.

Documents live as canonical bytes under ``<root>/documents/<hash>.json``,
and that directory is the whole store: :class:`ResultStore` scans it
at every start, then every configured ``runs_roots`` of persisted run
directories (their manifests carry the spec hash and every summary
field the run-kind document needs, so a store can be reconstructed
from plain simulation output that never went through the daemon).  A
run persisted under a runs root after one start is served after the
next.  Stores written before this layout also hold an ``index.json``;
it is left in place and never read.

The store holds exact answers only.  ``fidelity`` stays out of
``spec_hash``, so a document whose spec asked for the ``surrogate`` or
``auto`` tier (older daemons stored those) would answer an exact
request for the same hash: the scan skips it with a recorded reason
and leaves it on disk, and the first exact job for the hash replaces
it.

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
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple, Union

from ..errors import ServeError
from ..io import atomic_write
from ..obs import metrics as obs_metrics
from ..obs.runtime import emit as obs_emit
from ..specs import document_bytes, document_from_persisted_run

__all__ = ["ResultStore"]

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
        self._hashes: Set[str] = set()
        self.skipped: List[Tuple[str, str]] = []  # (path, reason) of scans
        self.rebuild()

    # -- startup -------------------------------------------------------

    def rebuild(self) -> int:
        """Scan the documents directory and persisted runs; the startup path.

        Scans ``<root>/documents`` first (stored documents are already
        canonical), then every configured runs root, storing each
        complete, seeded, exact-tier persisted run directory as a
        run-kind document.  Unreadable entries and non-exact specs are
        skipped with a recorded reason (the :attr:`skipped` list; a
        runs root's unreadable entries also bump the
        ``persist_scan_skipped_total`` counter and emit a journal
        event).  Returns the number of documents stored.
        """
        from ..io.streaming import iter_persisted_manifests

        hashes: Set[str] = set()
        for path in sorted(self.documents_dir.glob("*.json")):
            if not _HASH_RE.match(path.stem):
                self._record_skip(path, "not a spec-hash-named document")
                continue
            try:
                document = json.loads(path.read_bytes())
                reason = non_exact_reason(document.get("spec") or {})
            except (OSError, ValueError, AttributeError, TypeError) as exc:
                reason = f"unreadable document: {exc}"
            if reason is not None:
                self._record_skip(path, reason)
                continue
            hashes.add(path.stem)
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
                reason = non_exact_reason(spec)
                if reason is not None:
                    self._record_skip(run_dir, reason)
                    continue
                self.put(document["spec_hash"], document)
        return len(self)

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
        path = self._path(spec_hash)
        if spec_hash not in self:
            atomic_write(path, document_bytes(document))
            with self._lock:
                self._hashes.add(spec_hash)
            obs_metrics.REGISTRY.inc("serve_store_documents_total")
            obs_emit("serve.store_put", spec_hash=spec_hash)
        return path

    def _path(self, spec_hash: str) -> Path:
        return self.documents_dir / f"{spec_hash}.json"

    def get_bytes(self, spec_hash: str) -> Optional[bytes]:
        """The stored canonical document bytes, or ``None``."""
        if spec_hash not in self:
            return None
        try:
            return self._path(spec_hash).read_bytes()
        except OSError:
            # the document vanished underneath us; forget its hash
            with self._lock:
                self._hashes.discard(spec_hash)
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


def non_exact_reason(spec: Mapping[str, Any]) -> Optional[str]:
    """Why the store may not hold answers to a spec document, or ``None``.

    Every run the spec makes must be exact-tier: the run, the
    ensemble's ``run``, or the sweep's ``base`` and ``fidelity`` axis (a
    missing ``fidelity`` is ``"exact"``; an experiment has none).  It
    reads the document's fields, so the startup scan builds no spec.
    """
    template = spec.get("run") or spec.get("base") or spec
    default = [template.get("fidelity", "exact")]
    others = sorted(set((spec.get("axes") or {}).get("fidelity", default)) - {"exact"})
    if not others:
        return None
    return (
        f"fidelity {others[0]!r} may answer from the surrogate tier; the "
        "store holds exact answers only"
    )
