"""The Merkle-keyed, instruction-level build cache.

``ch-image build-cache``: what the paper lists as missing in §6.1
("Charliecloud lacks a per-instruction build cache ... this caching can
greatly accelerate repetitive builds") and recommends building in §6.2.2,
grown the way real Charliecloud later grew it — except keyed and stored
like BuildKit:

* **Keys are Merkle chains.**  A chain starts from the base-image digest
  combined with the force mode, and each instruction extends it with its
  kind, its text, and (for COPY/ADD) the digest of the copied context.
  Identical prefixes share keys, so two Dockerfiles hit each other's
  caches exactly as far as they agree.
* **Values are layer diffs**, stored as blobs in a
  :class:`~repro.cas.store.ContentStore` — not full-tree snapshots.  A
  hit replays the diff; a record whose blob was LRU-evicted degrades to a
  miss and drops itself.
* **Caches travel.**  :meth:`BuildCache.export_to_registry` pushes every
  diff blob plus a JSON cache manifest (the BuildKit ``cache-to``
  pattern); a fresh builder on another node imports it and gets hits on
  every unchanged instruction.

Garbage collection is mark-and-sweep over the Merkle chains: tagged
images mark their chain reachable; ``gc()`` sweeps unreachable records
and discards exactly the blobs no surviving record names (safe even on a
store shared with registries and storage drivers, which hold refcounts).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..archive import TarArchive
from ..errors import ReproError
from .store import CasError, ContentStore

__all__ = ["BuildCache", "BuildCacheStats", "CacheRecord",
           "CACHE_MANIFEST_VERSION"]

CACHE_MANIFEST_VERSION = 1


class CacheManifestError(ReproError):
    """Malformed or incompatible cache manifest."""


@dataclass(frozen=True)
class CacheRecord:
    """One cached instruction result: the diff its execution produced."""

    key: str
    parent: str       # parent chain key ("" at a chain root)
    kind: str         # RUN / COPY / ADD
    text: str         # instruction text (for --tree and debugging)
    diff_digest: str  # CAS blob holding the serialized diff archive


@dataclass
class BuildCacheStats:
    """Instruction-level cache accounting (blob-level lives in the store)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    dropped_records: int = 0  # records whose blob was evicted underneath
    imports: int = 0          # records installed by import
    exports: int = 0          # records shipped by export
    inflight_hits: int = 0    # builds that waited on an in-flight execution

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "dropped_records": self.dropped_records,
            "imports": self.imports,
            "exports": self.exports,
            "inflight_hits": self.inflight_hits,
        }

    def copy(self) -> "BuildCacheStats":
        """An independent snapshot of these counters."""
        return BuildCacheStats(**self.as_dict())

    def delta(self, earlier: "BuildCacheStats") -> "BuildCacheStats":
        """Counter-wise ``self - earlier``: what happened between two
        snapshots of the same counter set (the per-image attribution the
        build farm reports)."""
        mine, theirs = self.as_dict(), earlier.as_dict()
        return BuildCacheStats(**{k: mine[k] - theirs[k] for k in mine})


class BuildCache:
    """One build cache, possibly shared by many builders.

    Passing the same instance to several :class:`~repro.core.ChImage`
    builders shares records, blobs and the one :attr:`stats`; passing
    only the same *store* shares blob bytes but not cache entries.  A
    size bound belongs to the store: ``store=ContentStore(max_bytes=N)``.
    """

    def __init__(self, *, store: Optional[ContentStore] = None):
        self.store = store if store is not None else ContentStore()
        self.stats = BuildCacheStats()
        self.records: dict[str, CacheRecord] = {}
        self._parents: dict[str, str] = {}   # every chain key, incl. meta-only
        self._labels: dict[str, str] = {}
        self.tags: dict[str, str] = {}       # image tag -> chain key
        #: single-flight table: key -> waiter tokens parked behind the one
        #: in-flight execution of that key (see :meth:`flight_begin`)
        self._inflight: dict[str, list[Any]] = {}

    # -- single-flight (BuildKit-style in-flight dedup) ----------------------------

    def flight_begin(self, key: str) -> bool:
        """Claim *key* for execution.  True → caller is the leader and
        must run the work (and later call :meth:`flight_finish`); False →
        the key is already being built, park behind it with
        :meth:`flight_wait`."""
        if key in self._inflight:
            return False
        self._inflight[key] = []
        return True

    def flight_in_progress(self, key: str) -> bool:
        return key in self._inflight

    def flight_wait(self, key: str, token: Any) -> None:
        """Park *token* (scheduler-defined) behind the in-flight *key*."""
        self._inflight[key].append(token)

    def flight_finish(self, key: str) -> list[Any]:
        """The leader is done (success or failure): release the key and
        return the parked waiter tokens, in arrival order."""
        return self._inflight.pop(key, [])

    def note_inflight_hit(self) -> None:
        self.stats.inflight_hits += 1

    # -- key derivation ------------------------------------------------------------

    def begin(self, base_digest: str, *, force: bool = False,
              force_mode: str = "") -> str:
        """Root key of a chain: base-image digest ⊕ force mode."""
        mode = force_mode if force else ""
        key = hashlib.sha256(
            f"cache:{base_digest}|force={force}|mode={mode}".encode()
        ).hexdigest()
        self._parents.setdefault(key, "")
        self._labels.setdefault(
            key, f"FROM {base_digest[:19]} force={force}"
                 + (f" mode={mode}" if mode else ""))
        return key

    def extend(self, key: str, kind: str, text: str, *,
               context: str = "") -> str:
        """Child key for one instruction.  *context* carries digests of
        build-context inputs (COPY sources) so content changes invalidate
        even when the instruction text does not."""
        child = hashlib.sha256(
            f"{key}|{kind}|{text}|{context}".encode()).hexdigest()
        self._parents.setdefault(child, key)
        self._labels.setdefault(child, f"{kind} {text}".strip()[:72])
        return child

    # -- hit / store ---------------------------------------------------------------

    def lookup(self, key: str) -> Optional[TarArchive]:
        """The cached diff for *key*, or None.  A record whose blob was
        evicted self-heals: it is dropped and the lookup is a miss."""
        rec = self.records.get(key)
        if rec is None:
            self.stats.misses += 1
            return None
        try:
            blob = self.store.get(rec.diff_digest)
        except CasError:
            del self.records[key]
            self.stats.dropped_records += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return TarArchive.deserialize(blob)

    def store_diff(self, key: str, kind: str, text: str,
                   diff: TarArchive) -> CacheRecord:
        """Record *diff* as the result of the instruction at *key*."""
        digest = self.store.put(diff.serialize())
        rec = CacheRecord(key=key, parent=self._parents.get(key, ""),
                          kind=kind, text=text, diff_digest=digest)
        self.records[key] = rec
        self.stats.stores += 1
        return rec

    # -- tags & reachability -------------------------------------------------------

    def tag(self, name: str, key: str) -> None:
        self.tags[name] = key

    def untag(self, name: str) -> bool:
        return self.tags.pop(name, None) is not None

    def reachable_keys(self) -> set[str]:
        """Every chain key on a path from a tag back to its chain root."""
        seen: set[str] = set()
        for key in self.tags.values():
            while key and key not in seen:
                seen.add(key)
                key = self._parents.get(key, "")
        return seen

    def gc(self) -> dict:
        """Sweep records unreachable from any tag, then discard the blobs
        no surviving record names.  Refcounted blobs (registry layers,
        driver commits on a shared store) are never touched."""
        reachable = self.reachable_keys()
        dropped = [k for k in self.records if k not in reachable]
        dropped_digests = {self.records[k].diff_digest for k in dropped}
        for k in dropped:
            del self.records[k]
        kept_digests = {r.diff_digest for r in self.records.values()}
        reclaimed = 0
        bytes_reclaimed = 0
        for digest in sorted(dropped_digests - kept_digests):
            if not self.store.has(digest):
                continue
            size = self.store.size_of(digest)
            if self.store.discard(digest):
                reclaimed += 1
                bytes_reclaimed += size
        # prune unreachable bookkeeping so --tree stays readable
        for k in [k for k in self._parents if k not in reachable
                  and k not in self.records]:
            self._parents.pop(k, None)
            self._labels.pop(k, None)
        return {"records_dropped": len(dropped),
                "blobs_reclaimed": reclaimed,
                "bytes_reclaimed": bytes_reclaimed}

    def reset(self) -> dict:
        """``build-cache --reset``: drop every record, tag, and owned blob."""
        digests = {r.diff_digest for r in self.records.values()}
        self.records.clear()
        self.tags.clear()
        self._parents.clear()
        self._labels.clear()
        reclaimed = sum(1 for d in digests if self.store.discard(d))
        return {"records_dropped": len(digests), "blobs_reclaimed": reclaimed}

    # -- introspection -------------------------------------------------------------

    def keys(self) -> list[str]:
        """Sorted record keys (determinism tests compare these)."""
        return sorted(self.records)

    def tree(self) -> str:
        """Render the Merkle chains, git-log style (``--tree``)."""
        children: dict[str, list[str]] = {}
        for key, parent in self._parents.items():
            children.setdefault(parent, []).append(key)
        for kids in children.values():
            kids.sort(key=lambda k: self._labels.get(k, k))
        tags_by_key: dict[str, list[str]] = {}
        for name, key in sorted(self.tags.items()):
            tags_by_key.setdefault(key, []).append(name)
        lines: list[str] = []

        def visit(key: str, depth: int) -> None:
            rec = self.records.get(key)
            mark = "*" if rec is not None else "."
            label = self._labels.get(key, key[:12])
            suffix = ""
            if rec is not None:
                suffix = f"  [{rec.diff_digest[:19]}]"
            if key in tags_by_key:
                suffix += "  (" + ", ".join(tags_by_key[key]) + ")"
            lines.append(f"{'  ' * depth}{mark} {key[:12]} {label}{suffix}")
            for child in children.get(key, []):
                visit(child, depth + 1)

        for root in children.get("", []):
            visit(root, 0)
        if not lines:
            return "build cache is empty"
        return "\n".join(lines)

    def summary(self) -> str:
        s = self.stats
        st = self.store.stats
        lines = [
            f"records:       {len(self.records)}",
            f"tags:          {len(self.tags)}",
            f"blobs:         {self.store.blob_count} "
            f"({self.store.size_bytes} bytes)",
            f"hits/misses:   {s.hits}/{s.misses}",
            f"stores:        {s.stores}",
            f"evictions:     {st.evictions} ({st.bytes_evicted} bytes)",
            f"dedup hits:    {st.dedup_hits} ({st.bytes_deduped} bytes)",
            f"inflight hits: {s.inflight_hits}",
            f"imported:      {s.imports}  exported: {s.exports}",
        ]
        return "\n".join(lines)

    # -- export / import -----------------------------------------------------------

    def to_manifest(self) -> dict:
        """The JSON-able cache manifest (records + chain topology + tags);
        blob payloads travel separately, content-addressed."""
        return {
            "version": CACHE_MANIFEST_VERSION,
            "records": [
                {"key": r.key, "parent": r.parent, "kind": r.kind,
                 "text": r.text, "diff": r.diff_digest}
                for _, r in sorted(self.records.items())
            ],
            "parents": dict(sorted(self._parents.items())),
            "labels": dict(sorted(self._labels.items())),
            "tags": dict(sorted(self.tags.items())),
        }

    def export_to_registry(self, registry, ref) -> str:
        """Push this cache to *registry* under *ref*: every diff blob plus
        the manifest blob (BuildKit-style registry cache export).
        Returns the manifest digest."""
        manifest = json.dumps(self.to_manifest(), sort_keys=True).encode()
        blobs = [self.store.get(r.diff_digest)
                 for _, r in sorted(self.records.items())]
        self.stats.exports += len(blobs)
        return registry.push_cache(ref, manifest, blobs)

    def import_manifest(self, manifest: dict,
                        fetch: Callable[[str], bytes]) -> int:
        """Install records from a parsed manifest, fetching each diff blob
        with *fetch* into the local store.  Returns records installed."""
        if manifest.get("version") != CACHE_MANIFEST_VERSION:
            raise CacheManifestError(
                f"unsupported cache manifest version "
                f"{manifest.get('version')!r}")
        self._parents.update(manifest.get("parents", {}))
        self._labels.update(manifest.get("labels", {}))
        installed = 0
        for entry in manifest.get("records", ()):
            blob = fetch(entry["diff"])
            try:
                self.store.put(blob, expect=entry["diff"])
            except CasError as err:
                raise CacheManifestError(f"cache blob: {err}") from None
            self.records[entry["key"]] = CacheRecord(
                key=entry["key"], parent=entry["parent"],
                kind=entry["kind"], text=entry["text"],
                diff_digest=entry["diff"])
            installed += 1
        for name, key in manifest.get("tags", {}).items():
            self.tags.setdefault(name, key)
        self.stats.imports += installed
        return installed

    def import_from_registry(self, registry, ref) -> int:
        """Pull a cache manifest pushed by :meth:`export_to_registry` and
        install it; returns records installed."""
        manifest_bytes, fetch = registry.pull_cache(ref)
        return self.import_manifest(json.loads(manifest_bytes), fetch)

