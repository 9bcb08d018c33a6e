"""Tree snapshots and layer diffs, shared by storage drivers and the
build cache.

A *snapshot* is ``path -> member digest`` for a whole tree; a *diff* is
the overlayfs-style :class:`~repro.archive.TarArchive` containing changed
members plus character-device whiteouts for deletions.  Keeping the
hashing here (one implementation) is what makes cache keys and layer
diffs agree everywhere: the same bytes hash the same whether a storage
driver, a registry, or the build cache looks at them.

Two implementations produce every snapshot and diff:

* The **reference oracle** — pack the whole tree, hash every member
  (:func:`diff_against_snapshot` over :meth:`TarArchive.pack`).  O(tree)
  per instruction boundary; always correct; selected by
  ``REPRO_SIM_REFERENCE=1`` / :func:`repro.sim.opts.reference_engine`.

* The **incremental walker** — consult the VFS change journal
  (:class:`~repro.kernel.vfs.Filesystem` generation counters) and walk
  only *dirty* directories, splicing the previous snapshot's entries for
  clean subtrees and reusing memoized member digests keyed by
  ``(device, inode, generation)``.  O(changed paths) per boundary.

The two are bit-identical — same snapshot mappings, same
:func:`snapshot_digest`, same serialized diff archives — which the
Hypothesis suite in ``tests/cas/test_incremental_property.py`` asserts
across random mutation sequences.  The walker counts its work in
:data:`repro.sim.profile.COUNTERS` (``snapshot.walk_full``,
``snapshot.walk_dirty``, ``snapshot.splice``, ``digest.memo_hit``,
``digest.memo_miss``) and, when a tracer is attached, under the same
names in its ``TraceMetrics.counters``.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import Optional
from weakref import WeakKeyDictionary

from ..archive import TarArchive, TarMember, member_of
from ..errors import KernelError
from ..kernel import FileType, Syscalls
from ..sim import opts as _opts
from ..sim.profile import COUNTERS

__all__ = [
    "member_digest",
    "Snapshot",
    "snapshot_tree",
    "snapshot_of_archive",
    "snapshot_digest",
    "snapshot_and_diff",
    "rebase_snapshot",
    "diff_against_snapshot",
    "apply_diff_to_snapshot",
]

#: ``/`` is the last path separator below ``0`` in ASCII, so
#: ``[path + "/", path + AFTER_SLASH)`` brackets exactly the descendants
#: of *path* in a sorted path list.
_AFTER_SLASH = chr(ord("/") + 1)


def member_digest(m: TarMember) -> str:
    """Content+metadata digest of one archive member.

    Extended attributes (file capabilities, ...) count only when there
    are any: they wrap the plain digest, so a member without xattrs keeps
    the digest it has always had.  A symlink's are left out: the kernel
    stores none on symlinks (``setxattr`` follows them), so the ones
    :func:`~repro.archive.member_of` lists for a symlink are its
    target's, which can change without the symlink changing."""
    h = hashlib.sha256()
    h.update(f"{m.ftype}|{m.mode}|{m.uid}|{m.gid}|{m.target}|"
             f"{m.rdev}".encode())
    h.update(m.data)
    digest = h.hexdigest()
    if not m.xattrs or m.ftype is FileType.SYMLINK:
        return digest
    h = hashlib.sha256(f"xattrs\x00{digest}".encode())
    for name, value in sorted(m.xattrs):
        h.update(f"\x00{name}\x00{len(value)}\x00".encode())
        h.update(value)
    return h.hexdigest()


class Snapshot(dict):
    """``path -> member digest`` plus the change-journal bookkeeping that
    makes the *next* walk incremental.

    ``meta``
        ``path -> (device, inode, data_bytes)`` as of the walk that
        produced this snapshot.  The (device, inode) pair anchors splice
        decisions — a renamed subtree re-appears at a new path and must
        not inherit the old path's digests; ``data_bytes`` lets storage
        drivers charge full-tree byte costs without re-packing.
    ``base_gen``
        ``device_id -> filesystem generation`` floor at walk time: any
        inode whose generation is at or below the floor is unchanged
        since this snapshot.
    ``view_key``
        The :meth:`~repro.kernel.Syscalls.digest_view_key` of the
        interface that walked, or ``None`` when the snapshot came from
        the reference path (then it can seed a diff but never a splice).
    ``mounts``
        Root-relative mountpoints under the walked root at walk time
        (``""`` for a mount on the root itself).  The next walk treats
        them as dirty even if they are gone: an umount changes what the
        path shows without touching any journal generation.

    Instances are treated as immutable once built;
    :func:`apply_diff_to_snapshot` returns a new one.
    """

    __slots__ = ("meta", "base_gen", "view_key", "mounts", "_digest",
                 "_sorted")

    def __init__(self, mapping=(), *, view_key: Optional[tuple] = None):
        super().__init__(mapping)
        self.meta: dict[str, tuple] = {}
        self.base_gen: dict[int, int] = {}
        self.view_key = view_key
        self.mounts: frozenset[str] = frozenset()
        self._digest: Optional[str] = None
        self._sorted: Optional[list[str]] = None

    def sorted_paths(self) -> list[str]:
        """Paths in sorted order, computed once."""
        s = self._sorted
        if s is None:
            s = self._sorted = sorted(self)
        return s

    def total_bytes(self) -> int:
        """Sum of member data bytes (valid on fresh walks, where ``meta``
        covers every path)."""
        return sum(m[2] for m in self.meta.values())


def snapshot_of_archive(archive: TarArchive) -> dict[str, str]:
    """``path -> member digest`` for an already-packed tree."""
    return {m.path: member_digest(m) for m in archive}


# -- the member-digest memo ----------------------------------------------------------
#
# kernel -> {view_key -> {(device, inode): (generation, digest)}}.  Keyed
# weakly by kernel so simulated machines are collectable; partitioned by
# view key because the *same* inode stats differently through different
# interfaces (fakeroot lies, user-namespace ID display).  Inode numbers
# are never reused, so an entry for a freed inode can never hit again:
# once a view's memo passes _MEMO_SLACK x the live inodes of the
# filesystems mounted where it walks, those entries are dropped.

_DIGEST_MEMO: "WeakKeyDictionary" = WeakKeyDictionary()
_MEMO_SLACK = 2


def _memo_for(sys: Syscalls) -> tuple[tuple, dict]:
    views = _DIGEST_MEMO.get(sys.kernel)
    if views is None:
        views = _DIGEST_MEMO[sys.kernel] = {}
    view = sys.digest_view_key()
    memo = views.get(view)
    if memo is None:
        memo = views[view] = {}
    return view, memo


def _count(sys: Syscalls, event: str, n: int = 1) -> None:
    """Record walker work in the global counter registry and, when a
    tracer is attached, in its per-run metrics."""
    if n <= 0:
        return
    COUNTERS.count(event, n)
    tracer = sys.kernel.tracer
    if tracer is not None:
        tracer.metrics.counters.count(event, n)


def _journal_capable(sys: Syscalls, prev) -> Optional[Snapshot]:
    """*prev* as a journal-capable snapshot, or None: it must have been
    walked by an interface with the same digest view as *sys*."""
    if isinstance(prev, Snapshot) and prev.view_key is not None \
            and prev.view_key == sys.digest_view_key():
        return prev
    return None


def _wrap_reference(cur: dict[str, str], full: TarArchive) -> Snapshot:
    """Wrap a reference-path snapshot dict so storage drivers can charge
    byte costs; ``view_key=None`` keeps it out of the splice fast path."""
    snap = Snapshot(cur)
    meta = snap.meta
    for m in full:
        meta[m.path] = (None, None, len(m.data))
    return snap


def _walk_incremental(sys: Syscalls, root: str, jprev: Optional[Snapshot],
                      prev_digests) -> tuple[Snapshot, list[TarMember], int]:
    """Walk the tree under *root*, re-hashing only what the change
    journal says is dirty relative to *jprev* (None: walk everything,
    still memoized).

    Returns ``(snapshot, changed_members, dirty_dirs)``.  *prev_digests*
    (any mapping, or None to skip collection) decides which members land
    in ``changed_members``; traced syscalls issued for a dirty path are
    exactly the ones :meth:`TarArchive.pack` would issue for it.
    """
    view, memo = _memo_for(sys)
    cur = Snapshot(view_key=view)
    meta = cur.meta
    base = cur.base_gen
    changed: list[TarMember] = []

    rootpath = root.rstrip("/") or "/"
    prefix = "/" if rootpath == "/" else rootpath + "/"
    cur.mounts = frozenset(
        "" if mp == rootpath else mp[len(prefix):]
        for mp in sys.mnt_ns.mounts
        if mp != "/" and (mp == rootpath or mp.startswith(prefix)))
    # mounts there now or at the previous walk: a since-removed mount
    # leaves the journal untouched but changes what the path shows
    dirty_mounts = cur.mounts | (jprev.mounts if jprev is not None
                                 else frozenset())
    fs_by_dev = {m.fs.device_id: m.fs for m in sys.mnt_ns.mounts.values()}

    floors = jprev.base_gen if jprev is not None else None
    pmeta = jprev.meta if jprev is not None else None
    prev_sorted = jprev.sorted_paths() if jprev is not None else None

    try:
        res0 = sys.mnt_ns.resolve(rootpath, sys.cred, cwd=sys.getcwd())
    except KernelError:
        res0 = None  # let the traced readdir below raise the real error

    # Whole-tree early exit: the root's subtree generation is at or below
    # every floor and no mount shadows (or shadowed) part of the tree —
    # nothing moved.
    if jprev is not None and not dirty_mounts and res0 is not None \
            and res0.inode.tree_gen <= floors.get(res0.fs.device_id, -1):
        return jprev, [], 0

    dirty_dirs = 0
    memo_hits = 0
    memo_misses = 0
    spliced = 0

    def note_dev(dev: int) -> None:
        if dev not in base:
            fs = fs_by_dev.get(dev)
            if fs is not None:
                base[dev] = fs.gen

    def splice_subtree(rel: str) -> None:
        # Copy the clean directory's own entry plus its whole descendant
        # range from the previous snapshot — no syscalls, no hashing.
        nonlocal spliced
        cur[rel] = jprev[rel]
        meta[rel] = pmeta[rel]
        lo = bisect_left(prev_sorted, rel + "/")
        hi = bisect_left(prev_sorted, rel + _AFTER_SLASH)
        for p in prev_sorted[lo:hi]:
            cur[p] = jprev[p]
            meta[p] = pmeta[p]
        spliced += 1 + (hi - lo)

    def clean_dir(rel: str, st) -> bool:
        if floors is None:
            return False
        if st.st_tree_gen > floors.get(st.st_dev, -1):
            return False
        pm = pmeta.get(rel)
        if pm is None or pm[0] != st.st_dev or pm[1] != st.st_ino:
            return False  # new or renamed-into-place directory
        if dirty_mounts and any(mp == rel or mp.startswith(rel + "/")
                                for mp in dirty_mounts):
            return False  # a mount shadows (or shadowed) this subtree
        return True

    def clean_file(rel: str, st) -> bool:
        if floors is None or st.st_gen > floors.get(st.st_dev, -1):
            return False
        pm = pmeta.get(rel)
        return pm is not None and pm[0] == st.st_dev and pm[1] == st.st_ino

    def hashed(full: str, rel: str, st
               ) -> tuple[str, Optional[TarMember]]:
        nonlocal memo_hits, memo_misses
        key = (st.st_dev, st.st_ino)
        hit = memo.get(key)
        if hit is not None and hit[0] == st.st_gen:
            memo_hits += 1
            return hit[1], None
        m = member_of(sys, full, rel, st)
        d = member_digest(m)
        memo[key] = (st.st_gen, d)
        memo_misses += 1
        return d, m

    def record(full: str, rel: str, st) -> None:
        d, m = hashed(full, rel, st)
        cur[rel] = d
        meta[rel] = (st.st_dev, st.st_ino,
                     st.st_size if st.ftype is FileType.REG else 0)
        if prev_digests is not None and prev_digests.get(rel) != d:
            changed.append(m if m is not None
                           else member_of(sys, full, rel, st))

    def walk(dirpath: str, rel: str) -> None:
        nonlocal dirty_dirs
        dirty_dirs += 1
        for entry in sys.readdir(dirpath):
            full = f"{dirpath.rstrip('/')}/{entry.name}"
            relpath = f"{rel}/{entry.name}" if rel else entry.name
            st = sys.lstat(full)
            note_dev(st.st_dev)
            if st.ftype is FileType.DIR:
                if clean_dir(relpath, st):
                    splice_subtree(relpath)
                    continue
                record(full, relpath, st)
                walk(full, relpath)
            else:
                if clean_file(relpath, st):
                    cur[relpath] = jprev[relpath]
                    meta[relpath] = pmeta[relpath]
                    continue
                record(full, relpath, st)

    if res0 is not None:
        note_dev(res0.fs.device_id)
    walk(rootpath, "")

    _count(sys, "digest.memo_hit", memo_hits)
    _count(sys, "digest.memo_miss", memo_misses)
    _count(sys, "snapshot.splice", spliced)
    if len(memo) > _MEMO_SLACK * sum(fs.live_inodes
                                     for fs in fs_by_dev.values()):
        _drop_freed(memo, fs_by_dev)
    return cur, changed, dirty_dirs


def _drop_freed(memo: dict, fs_by_dev: dict) -> None:
    """Forget memo entries for inodes a mounted filesystem has freed
    (entries for filesystems not mounted here are left alone)."""
    for key in [k for k in memo
                if k[0] in fs_by_dev and not fs_by_dev[k[0]].has_inode(k[1])]:
        del memo[key]


def snapshot_tree(sys: Syscalls, root: str, prev=None):
    """Digest the tree under *root* as seen through *sys*.

    Reference mode packs and hashes everything.  Otherwise the journal
    walker runs against *prev* when it is a journal-capable
    :class:`Snapshot` of this tree from the same view (re-reading only
    what changed since), or with an empty baseline (a full walk, but
    memoized and producing a journal-capable :class:`Snapshot`)."""
    if not _opts.optimizations_enabled():
        _count(sys, "snapshot.walk_full")
        return snapshot_of_archive(TarArchive.pack(sys, root))
    jprev = _journal_capable(sys, prev)
    cur, _changed, dirty = _walk_incremental(sys, root, jprev, None)
    if jprev is None:
        _count(sys, "snapshot.walk_full")
    else:
        _count(sys, "snapshot.walk_dirty", dirty)
    return cur


def rebase_snapshot(src: Snapshot, dev: int, inos: dict[str, int],
                    floor: int) -> Snapshot:
    """*src* re-anchored onto a byte-identical copy of its tree: the
    digests and view carry over, each path's ``meta`` names the copy's
    inode at that path (``inos``, on device *dev*), and the journal floor
    is *floor*, the copy's filesystem generation right after the copy.

    Exact when the copy preserves every field
    :func:`~repro.archive.member_of` reads (``clone_tree`` does) and
    *src* describes the source as it was at copy time: any copy inode
    changed since has ``gen > floor`` (a changed directory
    ``tree_gen > floor``), so the next walk re-reads exactly those, and a
    path whose inode moved fails the ``(dev, ino)`` anchor check.  The
    caller must refuse a *src* with a mount under its root (the copy
    holds none), so the result records no mounts."""
    out = Snapshot(src, view_key=src.view_key)
    meta = src.meta
    out.meta = {p: (dev, inos[p], meta[p][2]) for p in src}
    out.base_gen = {dev: floor}
    out._digest, out._sorted = src._digest, src._sorted  # same mapping
    return out


def snapshot_digest(snapshot) -> str:
    """One deterministic digest for a whole snapshot (used as the
    base-image component of build-cache keys).  Cached on
    :class:`Snapshot` instances — they are immutable once built."""
    cached = getattr(snapshot, "_digest", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    paths = (snapshot.sorted_paths() if isinstance(snapshot, Snapshot)
             else sorted(snapshot))
    for path in paths:
        h.update(f"{path}\x00{snapshot[path]}\n".encode())
    digest = "sha256:" + h.hexdigest()
    if isinstance(snapshot, Snapshot):
        snapshot._digest = digest
    return digest


def _whiteouts(prev, cur) -> list[TarMember]:
    return [TarMember(path=p, ftype=FileType.CHR, mode=0, uid=0,
                      gid=0, rdev=(0, 0))
            for p in sorted(p for p in prev if p not in cur)]


def snapshot_and_diff(sys: Syscalls, root: str, prev=None
                      ) -> tuple[TarArchive, Snapshot]:
    """Snapshot the tree under *root* and diff it against *prev* in one
    pass.  Returns ``(diff, snapshot)`` — the diff holds changed/added
    members in path order plus whiteouts for paths that disappeared,
    bit-identical to packing the tree and calling
    :func:`diff_against_snapshot`, but touching only dirty subtrees when
    *prev* is a journal-capable :class:`Snapshot` from the same view.
    """
    prev_map = prev if prev is not None else {}
    if not _opts.optimizations_enabled():
        full = TarArchive.pack(sys, root)
        _count(sys, "snapshot.walk_full")
        diff, cur = diff_against_snapshot(prev_map, full)
        return diff, _wrap_reference(cur, full)
    jprev = _journal_capable(sys, prev_map)
    cur, changed, dirty = _walk_incremental(sys, root, jprev, prev_map)
    if jprev is None:
        _count(sys, "snapshot.walk_full")
    else:
        _count(sys, "snapshot.walk_dirty", dirty)
    changed.sort(key=lambda m: m.path)
    return TarArchive(changed + _whiteouts(prev_map, cur)), cur


def diff_against_snapshot(prev, full: TarArchive
                          ) -> tuple[TarArchive, dict[str, str]]:
    """Diff a packed tree against the previous snapshot (the reference
    oracle — every member hashed from scratch).

    Returns ``(diff, new_snapshot)``: the diff holds changed/added members
    in path order plus whiteouts (character devices with mode 0, as
    overlayfs represents deletions) for paths that disappeared.
    """
    cur: dict[str, str] = {}
    members_by_path: dict[str, TarMember] = {}
    for m in full:
        cur[m.path] = member_digest(m)
        members_by_path[m.path] = m
    changed = [members_by_path[p] for p in sorted(cur)
               if prev.get(p) != cur[p]]
    return TarArchive(changed + _whiteouts(prev, cur)), cur


def apply_diff_to_snapshot(prev, diff: TarArchive):
    """The snapshot that results from applying *diff* to a tree whose
    snapshot was *prev* — without re-packing the tree.

    Journal bookkeeping is carried over when *prev* is a
    :class:`Snapshot`: the floor generations stay (they still bound every
    *untouched* inode) and ``meta`` entries for paths the diff rewrote
    are dropped — applying the diff mutates those paths through real
    syscalls, so the journal marks their directories dirty and the next
    walk re-anchors them."""
    if isinstance(prev, Snapshot):
        out = Snapshot(prev, view_key=prev.view_key)
        out.meta = dict(prev.meta)
        out.base_gen = dict(prev.base_gen)
        out.mounts = prev.mounts
        meta = out.meta
    else:
        out = dict(prev)
        meta = None
    for m in diff:
        if m.ftype is FileType.CHR and m.mode == 0:  # whiteout
            out.pop(m.path, None)
        else:
            out[m.path] = member_digest(m)
        if meta is not None:
            meta.pop(m.path, None)
    return out
