"""Additional syscall edge cases: errno fidelity for less-travelled paths."""

import pytest

from repro.errors import Errno, KernelError, strerror
from repro.kernel import FileType, MountFlags, Syscalls, make_tmpfs


class TestAccessAndTruncate:
    def test_access_flags(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"data")
        alice_sys.chmod("/home/alice/f", 0o400)
        assert alice_sys.access("/home/alice/f", read=True)
        assert not alice_sys.access("/home/alice/f", write=True)
        assert not alice_sys.access("/nonexistent", read=True)

    def test_truncate(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"0123456789")
        alice_sys.truncate("/home/alice/f", 4)
        assert alice_sys.read_file("/home/alice/f") == b"0123"
        alice_sys.truncate("/home/alice/f")
        assert alice_sys.read_file("/home/alice/f") == b""

    def test_truncate_denied(self, alice_sys, bob_sys):
        alice_sys.write_file("/tmp/f", b"x")
        alice_sys.chmod("/tmp/f", 0o644)
        with pytest.raises(KernelError) as exc:
            bob_sys.truncate("/tmp/f")
        assert exc.value.errno == Errno.EACCES


class TestLinksAndDirs:
    def test_link_to_directory_eperm(self, alice_sys):
        alice_sys.mkdir_p("/home/alice/d")
        with pytest.raises(KernelError) as exc:
            alice_sys.link("/home/alice/d", "/home/alice/d2")
        assert exc.value.errno == Errno.EPERM

    def test_link_across_filesystems_exdev(self, kernel, root_sys):
        root_sys.mkdir_p("/mnt")
        kernel.init_process.mnt_ns.add_mount("/mnt", make_tmpfs())
        root_sys.write_file("/data/f", b"")
        with pytest.raises(KernelError) as exc:
            root_sys.link("/data/f", "/mnt/f")
        assert exc.value.errno == Errno.EXDEV

    def test_rename_across_filesystems_exdev(self, kernel, root_sys):
        root_sys.mkdir_p("/mnt")
        kernel.init_process.mnt_ns.add_mount("/mnt", make_tmpfs())
        root_sys.write_file("/data/f", b"")
        with pytest.raises(KernelError) as exc:
            root_sys.rename("/data/f", "/mnt/f")
        assert exc.value.errno == Errno.EXDEV

    def test_rename_onto_existing_file_replaces(self, alice_sys):
        alice_sys.write_file("/home/alice/a", b"A")
        alice_sys.write_file("/home/alice/b", b"B")
        alice_sys.rename("/home/alice/a", "/home/alice/b")
        assert alice_sys.read_file("/home/alice/b") == b"A"
        assert not alice_sys.exists("/home/alice/a")

    def test_rename_onto_nonempty_dir_enotempty(self, alice_sys):
        alice_sys.mkdir_p("/home/alice/src")
        alice_sys.mkdir_p("/home/alice/dst/full")
        with pytest.raises(KernelError) as exc:
            alice_sys.rename("/home/alice/src", "/home/alice/dst")
        assert exc.value.errno == Errno.ENOTEMPTY

    def test_rename_onto_itself_is_a_noop(self, alice_sys):
        alice_sys.write_file("/tmp/a", b"A")
        alice_sys.rename("/tmp/a", "/tmp/a")
        assert alice_sys.read_file("/tmp/a") == b"A"

    def test_rename_onto_another_link_of_the_same_inode_is_a_noop(
            self, alice_sys):
        alice_sys.write_file("/tmp/a", b"A")
        alice_sys.link("/tmp/a", "/tmp/b")
        alice_sys.rename("/tmp/a", "/tmp/b")
        assert alice_sys.read_file("/tmp/a") == b"A"
        assert alice_sys.read_file("/tmp/b") == b"A"
        assert alice_sys.stat("/tmp/a").st_nlink == 2

    def test_rename_directory_into_itself_einval(self, alice_sys):
        alice_sys.mkdir("/tmp/d")
        with pytest.raises(KernelError) as exc:
            alice_sys.rename("/tmp/d", "/tmp/d/sub")
        assert exc.value.errno == Errno.EINVAL
        assert alice_sys.stat("/tmp/d").ftype is FileType.DIR

    def test_rename_directory_below_itself_einval(self, alice_sys):
        alice_sys.mkdir_p("/tmp/d/e")
        with pytest.raises(KernelError) as exc:
            alice_sys.rename("/tmp/d", "/tmp/d/e/sub")
        assert exc.value.errno == Errno.EINVAL
        assert alice_sys.exists("/tmp/d/e")

    def test_rename_file_onto_empty_directory_eisdir(self, alice_sys):
        alice_sys.write_file("/tmp/f", b"F")
        alice_sys.mkdir("/tmp/d")
        with pytest.raises(KernelError) as exc:
            alice_sys.rename("/tmp/f", "/tmp/d")
        assert exc.value.errno == Errno.EISDIR
        assert alice_sys.read_file("/tmp/f") == b"F"
        assert alice_sys.stat("/tmp/d").ftype is FileType.DIR

    def test_rename_directory_onto_file_enotdir(self, alice_sys):
        alice_sys.mkdir("/tmp/d")
        alice_sys.write_file("/tmp/f", b"F")
        with pytest.raises(KernelError) as exc:
            alice_sys.rename("/tmp/d", "/tmp/f")
        assert exc.value.errno == Errno.ENOTDIR
        assert alice_sys.read_file("/tmp/f") == b"F"
        assert alice_sys.stat("/tmp/d").ftype is FileType.DIR

    def test_parent_dotdot_after_a_symlink_is_physical(self, root_sys):
        root_sys.mkdir_p("/x/y")
        root_sys.symlink("/x/y", "/tmp/link")
        root_sys.write_file("/tmp/link/../f", b"F")
        assert root_sys.read_file("/tmp/link/../f") == b"F"
        assert root_sys.read_file("/x/f") == b"F"
        assert not root_sys.exists("/tmp/f")

    def test_chdir_to_file_enotdir(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        with pytest.raises(KernelError) as exc:
            alice_sys.chdir("/home/alice/f")
        assert exc.value.errno == Errno.ENOTDIR

    def test_readdir_without_read_permission(self, alice_sys, bob_sys):
        alice_sys.mkdir_p("/home/alice/private")
        alice_sys.chmod("/home/alice/private", 0o711)
        alice_sys.chmod("/home/alice", 0o755)
        with pytest.raises(KernelError) as exc:
            bob_sys.readdir("/home/alice/private")
        assert exc.value.errno == Errno.EACCES

    def test_readlink_on_regular_file_einval(self, alice_sys):
        alice_sys.write_file("/home/alice/f", b"")
        with pytest.raises(KernelError) as exc:
            alice_sys.readlink("/home/alice/f")
        assert exc.value.errno == Errno.EINVAL


class TestExecMisc:
    def test_exec_directory_eisdir(self, alice_sys):
        alice_sys.mkdir_p("/home/alice/d")
        with pytest.raises(KernelError) as exc:
            alice_sys.prepare_exec("/home/alice/d")
        assert exc.value.errno == Errno.EISDIR

    def test_exec_fifo_eacces(self, alice_sys):
        alice_sys.mknod("/home/alice/p", FileType.FIFO, 0o777)
        with pytest.raises(KernelError):
            alice_sys.prepare_exec("/home/alice/p")


class TestUmask:
    def test_umask_roundtrip(self, alice_sys):
        old = alice_sys.umask(0o077)
        assert old == 0o022
        alice_sys.write_file("/home/alice/secret", b"")
        assert alice_sys.stat("/home/alice/secret").st_mode & 0o777 == 0o600
        assert alice_sys.umask(0o022) == 0o077


class TestStrerror:
    def test_known(self):
        assert strerror(Errno.EPERM) == "Operation not permitted"
        assert strerror(22) == "Invalid argument"

    def test_unknown(self):
        assert "Unknown error" in strerror(9999)

    def test_kernel_error_format(self):
        err = KernelError(Errno.EACCES, "/x", syscall="open")
        assert "open" in str(err)
        assert "[Errno 13]" in str(err)
        assert err.strerror == "Permission denied"


class TestReadonlyMountWrites:
    def test_unlink_on_ro_mount(self, kernel, root_sys):
        ro_fs = make_tmpfs()
        Syscalls(kernel.init_process)  # build content via raw fs
        node = ro_fs.alloc(FileType.REG, 0o644, 0, 0, data=b"x")
        ro_fs.link_child(ro_fs.root, "f", node)
        root_sys.mkdir_p("/ro")
        kernel.init_process.mnt_ns.add_mount(
            "/ro", ro_fs, flags=MountFlags(read_only=True))
        with pytest.raises(KernelError) as exc:
            root_sys.unlink("/ro/f")
        assert exc.value.errno == Errno.EROFS
        with pytest.raises(KernelError):
            root_sys.chmod("/ro/f", 0o600)
        with pytest.raises(KernelError):
            root_sys.chown("/ro/f", 1, 1)
