"""Content-addressed response cache.

Keys are the canonical digest of (provider_id, endpoint, sorted params);
values are opaque bytes stored one file per key. Entries are immutable:
re-putting identical bytes is a no-op, different bytes are an error.
"""

from __future__ import annotations

import hashlib
import json
import threading
from pathlib import Path
from typing import Any, Mapping

from finorch import files
from finorch.errors import CacheMiss, EngineError, unusable_path

__all__ = ["ResponseCache", "cache_key", "canonical_bytes"]


def cache_key(provider_id: str, endpoint: str, params: Mapping[str, Any]) -> str:
    """Canonical digest of one request: sha256 over a sorted-param JSON form."""
    canon = json.dumps(
        [provider_id, endpoint, sorted((str(k), str(v)) for k, v in params.items())],
        ensure_ascii=False,
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def canonical_bytes(payload: Any) -> bytes:
    """Stable JSON encoding used for cached response bodies."""
    return json.dumps(
        payload, ensure_ascii=False, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


class ResponseCache:
    """File-per-key cache: concurrent readers, exclusive writers."""

    def __init__(self, root: Path | str):
        self._root = Path(root)
        with unusable_path("use cache directory", self._root):
            self._root.mkdir(parents=True, exist_ok=True)
        self._write_lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        if not key or any(ch not in "0123456789abcdef" for ch in key):
            raise ValueError(f"cache key must be a hex digest, got {key!r}")
        return self._root / key

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def get(self, key: str) -> bytes:
        path = self._path(key)
        with unusable_path("read cache entry", path):
            try:
                data = path.read_bytes()
            except FileNotFoundError:
                self.misses += 1
                raise CacheMiss(f"no cache entry for {key}") from None
        self.hits += 1
        return data

    def put(self, key: str, data: bytes) -> None:
        path = self._path(key)
        with self._write_lock:
            if path.exists():
                with unusable_path("read cache entry", path):
                    existing = path.read_bytes()
                if existing == data:
                    return  # identical re-put: no-op
                raise EngineError(
                    f"cache entry {key} already exists with different bytes"
                )
            files.replace(path, data, "write cache entry")
