"""``copy_tree`` copies a subtree in one pass and one journal generation;
the recursive copy it replaced is kept here as its oracle.

The oracle allocates (one generation) and links (one more, with a touch
that walks to the root) every inode on its own.  Two identical worlds
take the same copy, one through each: every inode of the destination
filesystem must end with the same number, entries (in order), parent
edges and every other field but ``gen``/``tree_gen``.  The journal is
checked on its own terms: the copy is stamped at or below the
filesystem generation right after it, and every ancestor of the copy
moved above the generation before it.
"""

import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import Errno, KernelError
from repro.kernel import FileType, Filesystem, FsFeatures, copy_tree
from repro.kernel.filesystem import make_ext4, make_tmpfs


def old_copy_tree(src_fs, src_ino, dst_fs, dst_parent_ino, name, *, now=0):
    """One alloc and one link_child per inode, recursively."""
    src = src_fs.inode(src_ino)
    parent = dst_fs.inode(dst_parent_ino)
    dup = dst_fs.alloc(
        src.ftype, src.mode, src.uid, src.gid, now=now,
        data=src.data, target=src.target, rdev=src.rdev,
        exe_impl=src.exe_impl, exe_arch=src.exe_arch,
        exe_static=src.exe_static,
    )
    dup.xattrs = dict(src.xattrs)
    dup.mtime = src.mtime
    dst_fs.link_child(parent, name, dup)
    if src.is_dir:
        for child_name in sorted(src.entries):
            old_copy_tree(src_fs, src.entries[child_name], dst_fs, dup.ino,
                          child_name, now=now)
    return dup


# -- random source trees -----------------------------------------------------------

modes = st.integers(0, 0o7777)
ids = st.sampled_from([0, 7, 1000, 65534])
mtimes = st.integers(0, 10**6)
xattrs = st.dictionaries(st.sampled_from(["user.a", "user.b", "security.c"]),
                         st.binary(max_size=4), max_size=2)
names = st.sampled_from(["a", "b", "bin", "etc", "lib", "x.so", "z"])

regular = st.tuples(
    st.just("reg"), modes, ids, mtimes, xattrs, st.binary(max_size=8),
    st.one_of(st.none(),
              st.tuples(st.sampled_from(["true", "sh"]),
                        st.sampled_from(["x86_64", "aarch64", "noarch"]),
                        st.booleans())))
symlink = st.tuples(st.just("lnk"), ids, mtimes,
                    st.sampled_from(["/etc", "../a", "dangling", "x.so"]))
device = st.tuples(st.sampled_from(["chr", "blk", "fifo"]), modes, ids,
                   mtimes, st.tuples(st.integers(0, 9), st.integers(0, 9)))


def directory(children):
    return st.tuples(st.just("dir"), modes, ids, mtimes, xattrs,
                     st.dictionaries(names, children, max_size=4))


trees = directory(st.recursive(st.one_of(regular, symlink, device),
                               directory, max_leaves=24))

_DEVICES = {"chr": FileType.CHR, "blk": FileType.BLK, "fifo": FileType.FIFO}


def plant(fs, parent, name, spec):
    """Create *spec* as entry *name* of *parent*; returns its inode."""
    kind = spec[0]
    if kind == "dir":
        _, mode, uid, mtime, xa, children = spec
        node = fs.alloc(FileType.DIR, mode, uid, uid)
    elif kind == "reg":
        _, mode, uid, mtime, xa, data, exe = spec
        node = fs.alloc(FileType.REG, mode, uid, uid, data=data)
        if exe is not None:
            node.exe_impl, node.exe_arch, node.exe_static = exe
    elif kind == "lnk":
        _, uid, mtime, target = spec
        xa = {}
        node = fs.alloc(FileType.SYMLINK, 0o777, uid, uid, target=target)
    else:
        _, mode, uid, mtime, rdev = spec
        xa = {}
        node = fs.alloc(_DEVICES[kind], mode, uid, uid, rdev=rdev)
    node.mtime = mtime
    node.xattrs = dict(xa)
    fs.link_child(parent, name, node)
    if kind == "dir":
        for child, child_spec in children.items():
            plant(fs, node, child, child_spec)
    return node


def world(spec, *, same_fs, hardlink):
    """``/src`` holds *spec*; the copy goes under ``/dst/in`` of the same
    filesystem or of a second one.  With *hardlink*, the first regular
    file of the tree gets a second name, ``/src/hard``."""
    src_fs = make_ext4()
    src = plant(src_fs, src_fs.root, "src", spec)
    if hardlink:
        first = next((node for _, node in src_fs.iter_tree(src.ino)
                      if node.ftype is FileType.REG), None)
        if first is not None:
            src_fs.link_child(src, "hard", first)
    dst_fs = src_fs if same_fs else make_tmpfs()
    outer = dst_fs.alloc(FileType.DIR, 0o755, 0, 0)
    dst_fs.link_child(dst_fs.root, "dst", outer)
    inner = dst_fs.alloc(FileType.DIR, 0o700, 0, 0)
    dst_fs.link_child(outer, "in", inner)
    return src_fs, src.ino, dst_fs, inner.ino


def state(fs):
    """Everything of *fs* but the journal: each inode's fields (entries
    in order), the parent edges and the next inode number."""
    inodes = {}
    for ino, node in fs._inodes.items():
        fields = {f.name: getattr(node, f.name)
                  for f in dataclasses.fields(node)
                  if f.name not in ("gen", "tree_gen")}
        fields["entries"] = list(node.entries.items())
        inodes[ino] = fields
    return inodes, fs._parents, repr(fs._next_ino)


def ancestors(fs, ino):
    """Every directory above inode *ino*, up to the root."""
    out, todo = set(), list(fs._parents.get(ino, ()))
    while todo:
        up = todo.pop()
        if up not in out:
            out.add(up)
            todo.extend(fs._parents.get(up, ()))
    return out


@settings(max_examples=150, deadline=None)
@given(spec=trees, same_fs=st.booleans(), hardlink=st.booleans(),
       now=st.integers(0, 10**6))
def test_copy_matches_the_recursive_copy(spec, same_fs, hardlink, now):
    old = world(spec, same_fs=same_fs, hardlink=hardlink)
    new = world(spec, same_fs=same_fs, hardlink=hardlink)
    assert state(old[2]) == state(new[2])
    old_top = old_copy_tree(*old, "copy", now=now)
    dst_fs = new[2]
    before = dst_fs.gen
    top = copy_tree(*new, "copy", now=now)

    assert top.ino == old_top.ino
    assert state(old[2]) == state(dst_fs)
    assert [(p, n.ino) for p, n in old[2].iter_tree()] == \
        [(p, n.ino) for p, n in dst_fs.iter_tree()]

    # one stamp for the copy, one touch linking it in
    assert dst_fs.gen == before + 2
    copied = [top] + [node for _, node in dst_fs.iter_tree(top.ino)]
    assert all(before < node.gen <= dst_fs.gen and
               before < node.tree_gen <= dst_fs.gen for node in copied)
    assert all(dst_fs.inode(up).tree_gen > before
               for up in ancestors(dst_fs, top.ino))


def test_a_deep_tree_copies_without_recursion():
    fs = make_ext4()
    node = src = plant(fs, fs.root, "src", ("dir", 0o755, 0, 0, {}, {}))
    depth = sys.getrecursionlimit() + 100
    for _ in range(depth):
        child = fs.alloc(FileType.DIR, 0o755, 0, 0)
        fs.link_child(node, "d", child)
        node = child
    top = copy_tree(fs, src.ino, fs, fs.root_ino, "copy")
    assert sum(1 for _ in fs.iter_tree(top.ino)) == depth


# -- failures leave nothing behind -----------------------------------------------------

SMALL = ("dir", 0o755, 0, 0, {}, {"f": ("reg", 0o644, 0, 0, {}, b"x", None),
                                  "d": ("dir", 0o755, 0, 0, {}, {})})


def _read_only_target():
    src_fs = make_ext4()
    src = plant(src_fs, src_fs.root, "src", SMALL)
    ro = Filesystem("ext4", features=FsFeatures(read_only=True))
    return src_fs, src.ino, ro, ro.root_ino, "copy"


def _existing_name():
    src_fs, src_ino, dst_fs, parent_ino = world(SMALL, same_fs=True,
                                                hardlink=False)
    plant(dst_fs, dst_fs.inode(parent_ino), "copy",
          ("reg", 0o644, 0, 0, {}, b"", None))
    return src_fs, src_ino, dst_fs, parent_ino, "copy"


def _file_parent():
    src_fs, src_ino, dst_fs, parent_ino = world(SMALL, same_fs=False,
                                                hardlink=False)
    f = plant(dst_fs, dst_fs.inode(parent_ino), "file",
              ("reg", 0o644, 0, 0, {}, b"", None))
    return src_fs, src_ino, dst_fs, f.ino, "copy"


def _bad_name(name):
    def make():
        return (*world(SMALL, same_fs=False, hardlink=False), name)
    return make


@pytest.mark.parametrize("make,errno", [
    pytest.param(_read_only_target, Errno.EROFS, id="erofs"),
    pytest.param(_existing_name, Errno.EEXIST, id="eexist"),
    pytest.param(_file_parent, Errno.ENOTDIR, id="enotdir"),
    pytest.param(_bad_name(""), Errno.EINVAL, id="empty-name"),
    pytest.param(_bad_name("a/b"), Errno.EINVAL, id="slash-name"),
    pytest.param(_bad_name(".."), Errno.EINVAL, id="dotdot-name"),
])
def test_a_failed_copy_leaves_no_inode(make, errno):
    args = make()
    dst_fs = args[2]
    before = (dst_fs.live_inodes, dst_fs.gen, state(dst_fs))
    with pytest.raises(KernelError) as err:
        copy_tree(*args)
    assert err.value.errno is errno
    assert (dst_fs.live_inodes, dst_fs.gen, state(dst_fs)) == before
