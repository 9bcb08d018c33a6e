"""Content-addressed storage and the shared build cache.

The subsystem behind ``ch-image build-cache`` and the registry/driver
blob dedup: a refcounted sha256 :class:`ContentStore` (LRU eviction, GC),
tree-diff helpers shared with the storage drivers, and the
Merkle-keyed :class:`BuildCache` whose values are layer diffs and whose
manifests travel between builders via any OCI registry.

See docs/CACHING.md for the design and key-derivation rules.
"""

from .cache import (
    CACHE_MANIFEST_VERSION,
    BuildCache,
    BuildCacheStats,
    CacheRecord,
)
from .diff import (
    Snapshot,
    apply_diff_to_snapshot,
    diff_against_snapshot,
    member_digest,
    snapshot_and_diff,
    snapshot_digest,
    snapshot_of_archive,
    snapshot_tree,
)
from .store import CasError, CasStats, ContentStore, blob_digest

__all__ = [
    "BuildCache",
    "BuildCacheStats",
    "CacheRecord",
    "CACHE_MANIFEST_VERSION",
    "CasError",
    "CasStats",
    "ContentStore",
    "blob_digest",
    "member_digest",
    "Snapshot",
    "snapshot_and_diff",
    "snapshot_of_archive",
    "snapshot_tree",
    "snapshot_digest",
    "diff_against_snapshot",
    "apply_diff_to_snapshot",
]
