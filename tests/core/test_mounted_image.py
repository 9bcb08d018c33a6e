"""Mounted single-file images against the per-node unpack they replace.

A deploy converts its image once (ch-convert: ``ch-image pull``, then
:func:`~repro.archive.pack_image`) and every node mounts that one blob
read-only (:func:`~repro.archive.decode_image`, shared through
:meth:`~repro.net.Network.decoded_image`) instead of unpacking the layers.
The unpack (``ImageStorage.pull`` -> ``TarArchive.extract_layers``) is
still the only code that applies layers, and it is the oracle here: the
mounted view must pack exactly as the unpacked tree does, as the same
ch-run user sees them.
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.archive import (ArchiveError, TarArchive, TarMember, decode_image,
                           member_of, pack_image)
from repro.cas.store import blob_digest
from repro.cluster import astra_build_workflow, make_astra, make_machine, \
    make_world
from repro.cluster import astra as astra_module
from repro.cluster.astra import _convert
from repro.containers.oci import ImageConfig
from repro.containers.registry import Registry
from repro.containers.runtime import ContainerError, enter_container
from repro.core import ChImage, ChRun
from repro.errors import Errno, KernelError
from repro.kernel import FileType, Syscalls
from repro.net import Network

SITE = "site.example"
REF = f"{SITE}/alice/img:v1"
ATSE = "FROM centos:7\nRUN yum install -y gcc openmpi hdf5 atse\n"

# -- the oracle property ------------------------------------------------------

_PATHS = ["a", "b", "a/x", "a/y", "b/x", "a/x/q"]
_TARGETS = ["a", "x", "/a/x", "../b", "none"]
_OWNERS = [(0, 0), (1000, 1000), (7, 7)]
_TAGS = [(), (("user.tag", b"v"),)]


def _member(kind, path, mode, owner, data, target, tag):
    uid, gid = owner
    if kind is FileType.DIR:
        return TarMember(path, kind, mode, uid, gid, xattrs=tag)
    if kind is FileType.SYMLINK:
        return TarMember(path, kind, 0o777, uid, gid, target=target)
    if kind == "whiteout":
        return TarMember(path, FileType.CHR, 0, 0, 0)
    if kind is FileType.CHR:
        return TarMember(path, kind, 0o666, uid, gid, rdev=(1, 3))
    return TarMember(path, kind, mode & 0o777 if kind is FileType.FIFO
                     else mode, uid, gid, data=data, xattrs=tag)


_layer = st.lists(st.builds(
    _member,
    st.sampled_from([FileType.REG, FileType.DIR, FileType.SYMLINK,
                     FileType.FIFO, "whiteout"]),
    st.sampled_from(_PATHS),
    st.sampled_from([0o755, 0o644, 0o700, 0o555, 0o4755, 0o1777, 0o000]),
    st.sampled_from(_OWNERS),
    st.sampled_from([b"", b"one", b"two two"]),
    st.sampled_from(_TARGETS),
    st.sampled_from(_TAGS),
), max_size=8)

#: A base layer, so that most members have their directory.
_BASE = [TarMember(p, FileType.DIR, 0o755, 0, 0) for p in ("a", "a/x", "b")]

#: A layer stack: the base, up to three drawn layers, and, in one stack
#: of four, a device member on top (the unprivileged unpack refuses it).
_stack = st.builds(
    lambda layers, device: [_BASE, *layers, *(
        [[TarMember("b/dev", FileType.CHR, 0o666, 0, 0, rdev=(1, 3))]]
        if device else [])],
    st.lists(_layer, min_size=1, max_size=3),
    st.sampled_from([False, False, False, True]))

#: (existing path, new name): hardlinks made in the unpacked tree, as a
#: RUN ``ln`` makes them (a layer member cannot carry one)
_links = st.lists(st.tuples(st.sampled_from(_PATHS),
                            st.sampled_from(["h", "a/h", "b/x/h"])),
                  max_size=2)


def _node(stack):
    """A fresh node whose site registry holds *stack* as image REF, and
    alice's ch-image on it."""
    registry = Registry(SITE)
    registry.push(REF, ImageConfig(), [TarArchive(m) for m in stack])
    node = make_machine("login1", network=Network(registries={SITE: registry}))
    return node, ChImage(node, node.login("alice"))


def _view(node, ch, image) -> bytes:
    """*image* (a path or a mounted filesystem) as ch-run shows it to
    alice: the whole tree from inside her Type III container."""
    ctx = enter_container(ch.user_proc, image, "type3", dev_fs=node.dev_fs,
                          comm="ch-run")
    return [member_of(ctx.sys, "/", "."), *TarArchive.pack(ctx.sys, "/")]


def _d(path, mode=0o755):
    return TarMember(path, FileType.DIR, mode, 0, 0)


def _f(path, data=b"f", mode=0o644):
    return TarMember(path, FileType.REG, mode, 0, 0, data=data)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_stack, _links)
# a whiteout of a directory, a later layer replacing a file with a
# directory, and a hardlink: what the mount must show after all three
@example([[_d("a"), _d("a/x"), _f("a/x/q"), _f("b", b"old")],
          [TarMember("a/x", FileType.CHR, 0, 0, 0), _d("b"),
           _f("b/x", b"new", 0o4755)]], [("b/x", "h")])
# a FIFO, a symlink out of the image and an xattr on a directory
@example([[TarMember("a", FileType.DIR, 0o755, 0, 0,
                     xattrs=(("user.tag", b"v"),)),
           TarMember("a/x", FileType.FIFO, 0o644, 0, 0),
           TarMember("b", FileType.SYMLINK, 0o777, 0, 0, target="/etc")]],
         [])
# a device member: the unprivileged unpack refuses it, so must convert
@example([[_d("a"), TarMember("a/x", FileType.CHR, 0o666, 0, 0,
                              rdev=(1, 3))]], [])
# an unreadable file: the unpack takes it, the convert cannot read it
@example([[_f("a", b"secret", 0o000)]], [])
def test_mounted_view_packs_as_the_unpacked_tree(stack, links):
    """For any layer stack: where the unpack fails, the convert fails the
    same way; where it succeeds, the mount of the converted blob shows
    alice in ch-run exactly the tree the unpack made."""
    node, ch = _node(stack)
    try:
        tree = ch.pull(REF)  # the unpack every node used to repeat
    except KernelError as err:
        with pytest.raises(KernelError) as exc:
            _convert(_node(stack)[0], "alice", REF, flatten=False)
        assert exc.value.errno is err.errno
        return
    for src, name in links:
        try:
            ch.sys.link(f"{tree}/{src}", f"{tree}/{name}")
        except KernelError:
            pass
    try:
        blob = pack_image(ch.sys, tree)
    except KernelError as err:
        # ch-convert reads the tree as alice on the host, without the
        # capabilities her container has: an unreadable member stops it
        assert err.errno is Errno.EACCES
        return
    if not links:
        assert _convert(_node(stack)[0], "alice", REF, flatten=False) == blob
    image = node.kernel.network.decoded_image(blob_digest(blob), blob)
    assert _view(node, ch, image) == _view(node, ch, tree)


# -- the decoder takes clean packed trees only --------------------------------


def _blob(*members):
    return TarArchive([_d("."), *members]).serialize()


@pytest.mark.parametrize("blob,why", [
    (TarArchive([_d("a")]).serialize(), "no root directory"),
    (TarArchive([_f("."), _d("a")]).serialize(), "no root directory"),
    (_blob(_d("a"), TarMember("a/x", FileType.CHR, 0, 0, 0)), "whiteout"),
    (_blob(_d("a"), _f("a/x"), _f("a/x")), "second member"),
    (_blob(_d("a"), _d("a")), "second member"),
    (_blob(_f("a/x")), "no parent"),
    (_blob(_f("a"), _f("a/x")), "no parent"),
    (_blob(_f("a//x")), "no parent"),
    (_blob(_f("..")), "no parent"),
], ids=["no-root", "root-not-dir", "whiteout", "duplicate-file",
        "duplicate-dir", "missing-parent", "parent-not-dir", "empty-name",
        "dotdot"])
def test_decoder_rejects_what_is_not_a_clean_packed_tree(blob, why):
    with pytest.raises(ArchiveError) as exc:
        decode_image(blob)
    assert why in str(exc.value)


def test_decoded_image_keeps_root_owner_mode_and_xattrs():
    blob = TarArchive([
        TarMember(".", FileType.DIR, 0o750, 1000, 1001,
                  xattrs=(("user.root", b"r"),)),
        _d("a"), TarMember("a/l", FileType.SYMLINK, 0o777, 1000, 1000,
                           target="../b")]).serialize()
    fs = decode_image(blob)
    root = fs.root
    assert (root.mode, root.uid, root.gid, root.xattrs) == \
        (0o750, 1000, 1001, {"user.root": b"r"})
    assert fs.lookup(fs.lookup(root, "a"), "l").target == "../b"
    assert fs.features.read_only


# -- the mount is read-only ---------------------------------------------------


@pytest.fixture
def mounted():
    """alice's ch-run container rooted at a small mounted image."""
    node = make_machine("cn1", network=Network())
    alice = node.login("alice")
    sys = Syscalls(alice)
    sys.mkdir_p("/home/alice/img/empty")
    sys.write_file("/home/alice/img/f", b"data")
    sys.setxattr("/home/alice/img/f", "user.tag", b"v")
    sys.symlink("f", "/home/alice/img/l")
    blob = pack_image(sys, "/home/alice/img")
    fs = node.kernel.network.decoded_image(blob_digest(blob), blob)
    return enter_container(alice, fs, "type3", comm="ch-run").sys


MUTATIONS = {
    "write": lambda s: s.write_file("/f", b"x"),
    "create": lambda s: s.write_file("/new", b"x"),
    "truncate": lambda s: s.truncate("/f"),
    "mkdir": lambda s: s.mkdir("/d"),
    "unlink": lambda s: s.unlink("/f"),
    "rmdir": lambda s: s.rmdir("/empty"),
    "rename": lambda s: s.rename("/f", "/g"),
    "chmod": lambda s: s.chmod("/f", 0o600),
    "chown": lambda s: s.chown("/f", 0, 0),
    "setxattr": lambda s: s.setxattr("/f", "user.x", b"1"),
    "removexattr": lambda s: s.removexattr("/f", "user.tag"),
    "symlink": lambda s: s.symlink("f", "/l2"),
    "mknod": lambda s: s.mknod("/p", FileType.FIFO, 0o644),
    "link": lambda s: s.link("/f", "/h"),
}


@pytest.mark.parametrize("call", sorted(MUTATIONS))
def test_every_mutation_of_the_mount_fails_erofs(mounted, call):
    """Even container root, with every capability in its namespace, gets
    EROFS, and the image is unchanged."""
    sys = mounted
    before = pack_image(sys, "/")
    with pytest.raises(KernelError) as exc:
        MUTATIONS[call](sys)
    assert exc.value.errno is Errno.EROFS
    assert pack_image(sys, "/") == before


def test_the_shared_filesystem_itself_is_frozen(mounted):
    """The decode is frozen, not only mounted read-only: another
    kernel's writable mount of the same object refuses writes too."""
    fs = mounted.mnt_ns.mounts["/"].fs
    node = make_machine("cn2")
    root = Syscalls(node.kernel.init_process)
    root.mkdir_p("/mnt/img")
    node.kernel.init_process.mnt_ns.add_mount("/mnt/img", fs)
    for call in (lambda: root.write_file("/mnt/img/f", b"x"),
                 lambda: root.chmod("/mnt/img/f", 0o600),
                 lambda: fs.alloc(FileType.REG, 0o644, 0, 0)):
        with pytest.raises(KernelError) as exc:
            call()
        assert exc.value.errno is Errno.EROFS


def test_workdir_on_a_read_only_image_is_a_container_error(mounted):
    """A workdir the read-only image lacks cannot be made: ch-run exits
    125 with the reason instead of raising the kernel's EROFS."""
    node = make_machine("cn1")
    alice = node.login("alice")
    Syscalls(alice).mkdir_p("/home/alice/img")
    with pytest.raises(ContainerError) as exc:
        enter_container(alice, "/home/alice/img", "type3", read_only=True,
                        workdir="/work")
    assert "cannot enter workdir /work" in str(exc.value)
    fs = mounted.mnt_ns.mounts["/"].fs
    res = ChRun(node, alice).run(fs, ["true"], workdir="/work")
    assert res.status == 125
    assert "cannot enter workdir /work" in res.output
    assert "Read-only file system" in res.output


# -- one decode per world, verified bytes only --------------------------------


def _deploy():
    """Fig 6 on two aarch64 nodes of a fresh world."""
    world = make_world(arches=("aarch64",))
    astra = make_astra(world, n_compute=2)
    rep = astra_build_workflow(astra, "alice", ATSE, "atse", n_nodes=2)
    return world, astra, rep


def test_nodes_share_one_decoded_image_and_worlds_share_nothing(monkeypatch):
    roots = []
    real = Syscalls.mount_image

    def recording(sys, fs):
        roots.append((sys.kernel.hostname, fs))
        return real(sys, fs)

    monkeypatch.setattr(Syscalls, "mount_image", recording)
    world, astra, rep = _deploy()
    assert rep.success, rep.phases
    (digest, fs), = world.network.images.items()
    # both ranks mounted the one decode of the one distributed blob
    assert [host for host, _ in roots] == ["astra-cn001", "astra-cn002"]
    assert all(root is fs for _, root in roots)
    assert rep.distribution.blobs == 1
    assert all(node.content_store.has(digest) for node in astra.compute)

    other, _, rep2 = _deploy()
    assert rep2.success
    # the same image converts to the same blob, decoded anew in its world
    assert list(other.network.images) == [digest]
    assert other.network.images[digest] is not fs


def test_a_tampered_node_copy_fails_its_rank_and_poisons_nothing(
        monkeypatch):
    """Rank 0's copy is swapped, after the broadcast, for another valid
    image blob under the same digest: its store refuses the bytes, its
    rank fails loudly, and rank 1 mounts the real image."""
    evil = TarArchive([_d("."), _d("opt")]).serialize()
    real = astra_module.distribute_blobs

    def tampering(registry, digests, nodes, topology, **kwargs):
        report = real(registry, digests, nodes, topology, **kwargs)
        nodes[0].content_store._blobs[digests[0]] = evil
        return report

    monkeypatch.setattr(astra_module, "distribute_blobs", tampering)
    world, astra, rep = _deploy()
    assert not rep.success
    status0, status1 = rep.deploy.rank_statuses
    out0, out1 = rep.deploy.rank_outputs
    assert status0 == 125
    assert "cannot mount" in out0 and "does not match its digest" in out0
    assert status1 == 0 and "[rank 1] ATSE on astra-cn002 (aarch64)" in out1
    (digest, fs), = world.network.images.items()
    registry = world.site_registry
    assert pack_image(_root_sys(fs), "/") == \
        pack_image(_root_sys(decode_image(registry.blob_at_rest(digest))),
                   "/")
    assert blob_digest(evil) not in world.network.images


def _root_sys(fs):
    """Host root's syscalls on a machine with *fs* mounted as its root."""
    node = make_machine("viewer")
    node.kernel.init_process.mnt_ns.set_root(fs)
    return Syscalls(node.kernel.init_process)
