"""VFS tests: inode management, permission evaluation, mode rendering."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import Errno, KernelError
from repro.kernel import (
    Cap,
    Credentials,
    FileType,
    Filesystem,
    IdMap,
    UserNamespace,
    copy_tree,
    make_ext4,
    may_access,
    mode_to_string,
)
from repro.kernel.vfs import capable_wrt_inode, ids_mapped


@pytest.fixture
def fs():
    return make_ext4()


@pytest.fixture
def init_ns():
    return UserNamespace.initial()


def _file(fs, name, mode, uid, gid, parent=None, data=b"x"):
    node = fs.alloc(FileType.REG, mode, uid, gid, data=data)
    fs.link_child(parent or fs.root, name, node)
    return node


class TestInodeManagement:
    def test_root_exists(self, fs):
        assert fs.root.is_dir
        assert fs.root.ino == 1

    def test_link_and_lookup(self, fs):
        node = _file(fs, "hello", 0o644, 0, 0)
        assert fs.lookup(fs.root, "hello") is node
        assert node.nlink == 1

    def test_duplicate_name_rejected(self, fs):
        _file(fs, "a", 0o644, 0, 0)
        with pytest.raises(KernelError) as exc:
            _file(fs, "a", 0o644, 0, 0)
        assert exc.value.errno == Errno.EEXIST

    def test_bad_names_rejected(self, fs):
        node = fs.alloc(FileType.REG, 0o644, 0, 0)
        for bad in ("", ".", "..", "a/b"):
            with pytest.raises(KernelError):
                fs.link_child(fs.root, bad, node)

    def test_unlink_drops_inode(self, fs):
        node = _file(fs, "f", 0o644, 0, 0)
        fs.unlink_child(fs.root, "f")
        with pytest.raises(KernelError):
            fs.inode(node.ino)

    def test_hard_link_keeps_inode(self, fs):
        node = _file(fs, "f", 0o644, 0, 0)
        fs.link_child(fs.root, "g", node)
        assert node.nlink == 2
        fs.unlink_child(fs.root, "f")
        assert fs.inode(node.ino) is node

    def test_dir_nlink_accounting(self, fs):
        sub = fs.alloc(FileType.DIR, 0o755, 0, 0)
        fs.link_child(fs.root, "sub", sub)
        assert fs.root.nlink == 3  # self + "." + sub's ".."
        assert sub.nlink == 2

    def test_iter_tree_and_sizes(self, fs):
        d = fs.alloc(FileType.DIR, 0o755, 0, 0)
        fs.link_child(fs.root, "d", d)
        _file(fs, "a", 0o644, 0, 0, data=b"12345")
        _file(fs, "b", 0o644, 0, 0, parent=d, data=b"123")
        _file(fs, "e", 0o644, 0, 0)
        paths = [p for p, _ in fs.iter_tree()]
        # sorted pre-order: a directory's subtree before its next sibling
        assert paths == ["a", "d", "d/b", "e"]
        assert [p for p, _ in fs.iter_tree(d.ino)] == ["b"]
        assert fs.total_bytes() == 9

    def test_live_inodes_and_has_inode(self, fs):
        node = _file(fs, "f", 0o644, 0, 0)
        assert fs.has_inode(node.ino)
        assert fs.live_inodes == 2  # the root and f
        fs.unlink_child(fs.root, "f")
        assert not fs.has_inode(node.ino)
        assert fs.live_inodes == 1

    def test_readonly_fs_rejects_alloc(self):
        from repro.kernel import FsFeatures
        ro = Filesystem("ext4", features=FsFeatures(read_only=True))
        with pytest.raises(KernelError) as exc:
            ro.alloc(FileType.REG, 0o644, 0, 0)
        assert exc.value.errno == Errno.EROFS


class TestPermissionEvaluation:
    def test_owner_bits_govern(self, fs, init_ns):
        alice = Credentials.for_user(1000, 1000, userns=init_ns)
        node = _file(fs, "f", 0o600, 1000, 1000)
        assert may_access(alice, node, read=True, write=True)
        assert not may_access(alice, node, execute=True)

    def test_group_bits(self, fs, init_ns):
        bob = Credentials.for_user(1001, 1001, frozenset({2000}), init_ns)
        node = _file(fs, "f", 0o640, 1000, 2000)
        assert may_access(bob, node, read=True)
        assert not may_access(bob, node, write=True)

    def test_other_bits(self, fs, init_ns):
        eve = Credentials.for_user(1002, 1002, userns=init_ns)
        node = _file(fs, "f", 0o604, 1000, 2000)
        assert may_access(eve, node, read=True)
        assert not may_access(eve, node, write=True)

    def test_first_match_governs_group_deny(self, fs, init_ns):
        """The §2.1.4 scenario: rwx---r-x denies group members what 'other'
        can do — managers can NOT execute /bin/reboot, others can."""
        reboot = _file(fs, "reboot", 0o705, 0, 2000)  # rwx---r-x
        manager = Credentials.for_user(1000, 1000, frozenset({2000}), init_ns)
        other = Credentials.for_user(1001, 1001, userns=init_ns)
        assert not may_access(manager, reboot, execute=True)
        assert may_access(other, reboot, execute=True)

    def test_dropping_group_flips_to_other(self, fs, init_ns):
        """...and a manager who drops the group regains access (the trap)."""
        reboot = _file(fs, "reboot", 0o705, 0, 2000)
        manager = Credentials.for_user(1000, 1000, frozenset({2000}), init_ns)
        assert not may_access(manager, reboot, execute=True)
        manager.groups = frozenset()
        assert may_access(manager, reboot, execute=True)

    def test_root_dac_override(self, fs, init_ns):
        root = Credentials.root(init_ns)
        node = _file(fs, "f", 0o000, 1000, 1000)
        assert may_access(root, node, read=True, write=True)

    def test_root_needs_one_x_bit_to_exec(self, fs, init_ns):
        root = Credentials.root(init_ns)
        node = _file(fs, "f", 0o600, 1000, 1000)
        assert not may_access(root, node, execute=True)
        node.mode = 0o601
        assert may_access(root, node, execute=True)

    def test_container_root_cannot_override_unmapped_inode(self, fs, init_ns):
        """capable_wrt_inode_uidgid: caps only apply when inode IDs are
        mapped in the caller's namespace (the Figure 5 mechanism)."""
        ns = UserNamespace(init_ns, 1000, 1000)
        ns.set_uid_map(IdMap.single(0, 1000), writer_euid=1000,
                       writer_privileged=False)
        ns.deny_setgroups()
        ns.set_gid_map(IdMap.single(0, 1000), writer_egid=1000,
                       writer_privileged=False)
        cont_root = Credentials.root(ns)
        cont_root.ruid = cont_root.euid = cont_root.suid = cont_root.fsuid = 1000
        cont_root.rgid = cont_root.egid = cont_root.sgid = cont_root.fsgid = 1000
        owned_by_host_root = _file(fs, "p", 0o600, 0, 0)  # unmapped in ns
        owned_by_user = _file(fs, "q", 0o600, 1000, 1000)  # mapped (as 0)
        assert not ids_mapped(cont_root, owned_by_host_root)
        assert ids_mapped(cont_root, owned_by_user)
        assert not may_access(cont_root, owned_by_host_root, write=True)
        assert may_access(cont_root, owned_by_user, write=True)
        assert not capable_wrt_inode(cont_root, owned_by_host_root, Cap.CHOWN)
        assert capable_wrt_inode(cont_root, owned_by_user, Cap.CHOWN)


class TestModeString:
    @pytest.mark.parametrize(
        "ftype,mode,expect",
        [
            (FileType.REG, 0o644, "-rw-r--r--"),
            (FileType.DIR, 0o755, "drwxr-xr-x"),
            (FileType.SYMLINK, 0o777, "lrwxrwxrwx"),
            (FileType.CHR, 0o640, "crw-r-----"),
            (FileType.REG, 0o4755, "-rwsr-xr-x"),
            (FileType.REG, 0o4644, "-rwSr--r--"),
            (FileType.REG, 0o2755, "-rwxr-sr-x"),
            (FileType.DIR, 0o1777, "drwxrwxrwt"),
        ],
    )
    def test_render(self, ftype, mode, expect):
        assert mode_to_string(ftype, mode) == expect


class TestCopyTree:
    def test_copy_preserves_metadata(self, fs):
        d = fs.alloc(FileType.DIR, 0o750, 7, 8)
        fs.link_child(fs.root, "src", d)
        f = fs.alloc(FileType.REG, 0o4711, 25, 25, data=b"secret")
        f.xattrs["user.tag"] = b"v"
        fs.link_child(d, "f", f)
        dst = make_ext4()
        copy_tree(fs, d.ino, dst, dst.root_ino, "dup")
        got = dst.lookup(dst.root, "dup")
        assert got.mode == 0o750 and (got.uid, got.gid) == (7, 8)
        inner = dst.lookup(got, "f")
        assert inner.data == b"secret"
        assert inner.mode == 0o4711
        assert inner.xattrs == {"user.tag": b"v"}

    def test_copy_is_deep(self, fs):
        d = fs.alloc(FileType.DIR, 0o755, 0, 0)
        fs.link_child(fs.root, "src", d)
        f = fs.alloc(FileType.REG, 0o644, 0, 0, data=b"a")
        fs.link_child(d, "f", f)
        dst = make_ext4()
        copy_tree(fs, d.ino, dst, dst.root_ino, "dup")
        f.data = b"mutated"
        inner = dst.lookup(dst.lookup(dst.root, "dup"), "f")
        assert inner.data == b"a"


# -- property: permission check is a pure function of class bits ------------------

@given(mode=st.integers(0, 0o777), want=st.sampled_from(["r", "w", "x"]))
def test_permission_matches_class_bits(mode, want):
    fs = make_ext4()
    ns = UserNamespace.initial()
    node = fs.alloc(FileType.REG, mode, 1000, 2000, data=b"")
    owner = Credentials.for_user(1000, 5000, userns=ns)
    member = Credentials.for_user(1001, 2000, userns=ns)
    other = Credentials.for_user(1002, 5001, userns=ns)
    kw = {{"r": "read", "w": "write", "x": "execute"}[want]: True}
    bit = {"r": 4, "w": 2, "x": 1}[want]
    assert may_access(owner, node, **kw) == bool((mode >> 6) & bit)
    assert may_access(member, node, **kw) == bool((mode >> 3) & bit)
    assert may_access(other, node, **kw) == bool(mode & bit)
