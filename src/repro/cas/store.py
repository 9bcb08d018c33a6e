"""The content-addressed blob store (CAS).

One sha256-keyed byte store shared by everything that keeps blobs: the
registry's layer storage, the storage drivers' committed diffs, and the
ch-image build cache.  Content addressing is what makes the paper's §4.2
registry economics work ("persistence ... portability, debugging with old
versions, or general future reproducibility"): identical bytes are stored
once no matter how many images, repositories, or builders reference them.

Integrity: :meth:`ContentStore.get` returns only bytes that hash to their
key, so readers need no check of their own.  ``put`` hashes what it stores;
``get`` re-hashes only bytes it did not (swapped in under the key: bit rot)
and drops them with a :class:`CasError` if they fail.  A ``put`` of bytes
already present replaces a copy the store did not hash with the bytes it
just hashed.

Lifetime model — two levels, weakest first:

* **LRU residency**: unreferenced blobs live in least-recently-used
  order and are evicted when a ``max_bytes`` bound would be exceeded.
  The bound is the store's alone; a build cache that should stay small
  is given a bounded store.  Build-cache entries rely on this: losing
  one is just a future cache miss.
* **refcounts** (:meth:`ContentStore.incref`): durable references held by
  owners with persistence semantics (a registry that accepted a push, a
  storage driver that committed a layer).  Referenced blobs are never
  evicted and never garbage-collected.

:meth:`ContentStore.gc` additionally takes a ``keep`` set so callers with
their own reachability notion (the build cache's Merkle chains) can
protect exactly the blobs their live records still name.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from ..errors import ReproError

__all__ = ["CasError", "CasStats", "ContentStore", "blob_digest"]


class CasError(ReproError):
    """Missing or corrupt blob, or inconsistent reference bookkeeping."""


def blob_digest(data: bytes) -> str:
    """The content address of *data* (``sha256:<hex>``)."""
    return "sha256:" + hashlib.sha256(data).hexdigest()


@dataclass
class CasStats:
    """Hit/miss/evict accounting for one store."""

    puts: int = 0            # put() calls
    dedup_hits: int = 0      # put() of already-present bytes
    hits: int = 0            # get() served
    misses: int = 0          # get() of an absent digest
    evictions: int = 0       # blobs dropped by the LRU bound
    bytes_in: int = 0        # bytes offered to put()
    bytes_stored: int = 0    # bytes physically added (post-dedup)
    bytes_evicted: int = 0
    gc_runs: int = 0
    gc_reclaimed: int = 0
    gc_bytes_reclaimed: int = 0

    @property
    def bytes_deduped(self) -> int:
        """Bytes put() accepted without storing (the dedup savings)."""
        return self.bytes_in - self.bytes_stored

    def as_dict(self) -> dict:
        return {
            "puts": self.puts,
            "dedup_hits": self.dedup_hits,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "bytes_in": self.bytes_in,
            "bytes_stored": self.bytes_stored,
            "bytes_deduped": self.bytes_deduped,
            "bytes_evicted": self.bytes_evicted,
            "gc_runs": self.gc_runs,
            "gc_reclaimed": self.gc_reclaimed,
            "gc_bytes_reclaimed": self.gc_bytes_reclaimed,
        }


class ContentStore:
    """A refcounted sha256 blob store with size-bounded LRU residency.

    ``max_bytes=None`` (the default) disables eviction entirely — the
    right mode for a registry, which must never silently lose a pushed
    layer.  With a bound, :meth:`put` evicts least-recently-used
    *unreferenced* blobs until the new blob fits; if everything resident
    is referenced the bound is allowed to overflow rather than lose data.
    """

    def __init__(self, *, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes <= 0:
            raise CasError(f"max_bytes must be positive: {max_bytes}")
        self.max_bytes = max_bytes
        self.stats = CasStats()
        self._blobs: OrderedDict[str, bytes] = OrderedDict()
        #: digest -> the bytes object this store hashed for it
        self._hashed: dict[str, bytes] = {}
        self._refs: dict[str, int] = {}
        self._size = 0

    # -- introspection -----------------------------------------------------------

    def has(self, digest: str) -> bool:
        return digest in self._blobs

    __contains__ = has

    @property
    def size_bytes(self) -> int:
        return self._size

    @property
    def blob_count(self) -> int:
        return len(self._blobs)

    def digests(self) -> list[str]:
        """Resident digests, least-recently-used first."""
        return list(self._blobs)

    def size_of(self, digest: str) -> int:
        """Size of a resident blob without touching LRU order or stats."""
        try:
            return len(self._blobs[digest])
        except KeyError:
            raise CasError(f"no blob {digest[:19]}... in store")

    def refcount(self, digest: str) -> int:
        return self._refs.get(digest, 0)

    def protected(self, digest: str) -> bool:
        """True if *digest* may be neither evicted nor garbage-collected."""
        return self._refs.get(digest, 0) > 0

    # -- data plane --------------------------------------------------------------

    def put(self, data: bytes, expect: Optional[str] = None) -> str:
        """Store *data*; returns its digest.  Identical bytes dedup to the
        existing blob, and eviction makes room if bounded.  With *expect*
        (the digest the bytes were fetched by), bytes that hash otherwise
        raise :class:`CasError` and nothing is stored.  Resident bytes the
        store did not hash are replaced, not deduplicated."""
        digest = blob_digest(data)
        if expect is not None and digest != expect:
            raise CasError(f"blob {expect[:19]}... does not match its digest")
        self.stats.puts += 1
        self.stats.bytes_in += len(data)
        if digest in self._blobs:
            if self._hashed.get(digest) is self._blobs[digest]:
                self.stats.dedup_hits += 1
                self._blobs.move_to_end(digest)
                return digest
            self._remove(digest)  # swapped in under the key: maybe rotten
        self._evict_for(len(data))
        self._blobs[digest] = self._hashed[digest] = data
        self._size += len(data)
        self.stats.bytes_stored += len(data)
        return digest

    def get(self, digest: str) -> bytes:
        """Fetch a blob (LRU-touching); raises :class:`CasError` on a miss
        or on bytes that do not hash to *digest*, which are dropped."""
        try:
            data = self._blobs[digest]
        except KeyError:
            self.stats.misses += 1
            raise CasError(f"no blob {digest[:19]}... in store")
        if self._hashed.get(digest) is not data:
            if blob_digest(data) != digest:
                self._remove(digest)
                raise CasError(
                    f"blob {digest[:19]}... does not match its digest")
            self._hashed[digest] = data
        self._blobs.move_to_end(digest)
        self.stats.hits += 1
        return data

    # -- reference plane ----------------------------------------------------------

    def incref(self, digest: str) -> None:
        if digest not in self._blobs:
            raise CasError(f"cannot reference absent blob {digest[:19]}...")
        self._refs[digest] = self._refs.get(digest, 0) + 1

    def decref(self, digest: str) -> None:
        n = self._refs.get(digest, 0)
        if n <= 0:
            raise CasError(f"refcount underflow on {digest[:19]}...")
        if n == 1:
            del self._refs[digest]
        else:
            self._refs[digest] = n - 1

    # -- reclamation --------------------------------------------------------------

    def _remove(self, digest: str) -> int:
        """Drop *digest*'s bytes, protected or not; returns their size."""
        self._hashed.pop(digest, None)
        size = len(self._blobs.pop(digest))
        self._size -= size
        return size

    def _evict_for(self, incoming: int) -> None:
        if self.max_bytes is None:
            return
        for digest in list(self._blobs):  # oldest (LRU) first
            if self._size + incoming <= self.max_bytes:
                break
            if self.protected(digest):
                continue
            self.stats.evictions += 1
            self.stats.bytes_evicted += self._remove(digest)

    def discard(self, digest: str) -> bool:
        """Drop one specific blob if present and unprotected; returns
        whether it was removed.  The precise tool for owners reclaiming
        their own blobs on a shared store (the build cache's GC)."""
        if digest not in self._blobs or self.protected(digest):
            return False
        self.stats.gc_reclaimed += 1
        self.stats.gc_bytes_reclaimed += self._remove(digest)
        return True

    def gc(self, keep: Iterable[str] = ()) -> list[str]:
        """Reclaim every blob that is unreferenced and not in
        *keep*; returns the reclaimed digests (LRU order)."""
        keep = set(keep)
        reclaimed: list[str] = []
        self.stats.gc_runs += 1
        for digest in list(self._blobs):
            if self.protected(digest) or digest in keep:
                continue
            reclaimed.append(digest)
            self.stats.gc_reclaimed += 1
            self.stats.gc_bytes_reclaimed += self._remove(digest)
        return reclaimed
