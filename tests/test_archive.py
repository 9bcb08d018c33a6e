"""Archive pack/extract/serialize tests, including the fakeroot-aware pack
and the ownership-flattening invariants."""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.archive import ArchiveError, TarArchive, TarMember
from repro.containers.buildah import IgnoreChownSyscalls
from repro.core.seccomp import SeccompSyscalls
from repro.errors import Errno, KernelError
from repro.fakeroot import FAKEROOT_CLASSIC, PSEUDO, FakerootSyscalls
from repro.kernel import FileType, Kernel, Syscalls, make_ext4
from repro.obs import attach_tracer


@pytest.fixture
def kernel():
    k = Kernel(make_ext4())
    sys0 = Syscalls(k.init_process)
    sys0.mkdir_p("/src/sub")
    sys0.write_file("/src/a.txt", b"alpha")
    sys0.write_file("/src/sub/b.txt", b"beta")
    sys0.chmod("/src/a.txt", 0o4755)  # setuid, to test flattening
    sys0.chown("/src/a.txt", 10, 20)
    sys0.symlink("../a.txt", "/src/sub/link")
    sys0.mkdir_p("/dst")
    return k


@pytest.fixture
def root_sys(kernel):
    return Syscalls(kernel.init_process)


class TestPackExtract:
    def test_roundtrip(self, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        a.extract(root_sys, "/dst", preserve_owner=True)
        assert root_sys.read_file("/dst/a.txt") == b"alpha"
        assert root_sys.read_file("/dst/sub/b.txt") == b"beta"
        assert root_sys.readlink("/dst/sub/link") == "../a.txt"
        st = root_sys.stat("/dst/a.txt")
        assert (st.kuid, st.kgid) == (10, 20)

    def test_extract_without_owner_uses_extractor(self, kernel, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        sys0 = root_sys
        sys0.mkdir_p("/home/alice/dst")
        sys0.chown("/home/alice/dst", 1000, 1000)
        sys0.chown("/home/alice", 1000, 1000) if sys0.exists("/home/alice") \
            else None
        alice = Syscalls(kernel.login(1000, 1000))
        a.extract(alice, "/home/alice/dst", preserve_owner=False)
        st = alice.stat("/home/alice/dst/a.txt")
        assert (st.kuid, st.kgid) == (1000, 1000)

    def test_preserve_owner_fails_unprivileged(self, kernel, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        root_sys.mkdir_p("/home/alice")
        root_sys.chown("/home/alice", 1000, 1000)
        alice = Syscalls(kernel.login(1000, 1000))
        alice.mkdir_p("/home/alice/dst")
        with pytest.raises(ArchiveError) as exc:
            a.extract(alice, "/home/alice/dst", preserve_owner=True)
        assert "chown" in str(exc.value)

    def test_preserve_owner_warn_mode_collects(self, kernel, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        root_sys.mkdir_p("/home/alice")
        root_sys.chown("/home/alice", 1000, 1000)
        alice = Syscalls(kernel.login(1000, 1000))
        alice.mkdir_p("/home/alice/dst")
        warnings = a.extract(alice, "/home/alice/dst", preserve_owner=True,
                             on_chown_error="warn")
        assert any("a.txt" in w for w in warnings)

    def test_serialize_roundtrip(self, root_sys):
        a = TarArchive.pack(root_sys, "/src")
        b = TarArchive.deserialize(a.serialize())
        assert [m.path for m in b] == [m.path for m in a]
        assert b.member("a.txt").data == b"alpha"
        assert b.digest() == a.digest()

    def test_deserialize_garbage(self):
        with pytest.raises(ArchiveError):
            TarArchive.deserialize(b"not|an|archive\n")
        with pytest.raises(ArchiveError):
            TarArchive.deserialize(b"odd-line-count\n")

    def test_exe_metadata_survives(self, root_sys):
        from repro.shell.install import install_binary
        install_binary(root_sys, "/src/tool", "coreutils.echo",
                       arch="aarch64", static=True)
        a = TarArchive.deserialize(
            TarArchive.pack(root_sys, "/src").serialize())
        m = a.member("tool")
        assert m.exe_impl == "coreutils.echo"
        assert m.exe_arch == "aarch64"
        assert m.exe_static


def _alice_tree(kernel, root_sys):
    """alice's image directory, her ``.bashrc`` beside it, and her
    syscalls: the unprivileged puller of §5.2."""
    root_sys.mkdir_p("/home/alice/img")
    root_sys.chown("/home/alice", 1000, 1000)
    root_sys.chown("/home/alice/img", 1000, 1000)
    alice = Syscalls(kernel.login(1000, 1000))
    alice.write_file("/home/alice/.bashrc", b"alias ll='ls -l'\n")
    return alice


class TestLayerOverlay:
    """Layers unpack in order onto one tree: a later member meets what an
    earlier layer left at its path."""

    def test_whiteout_member(self):
        assert TarMember("gone", FileType.CHR, 0, 0, 0).is_whiteout
        assert not TarMember("null", FileType.CHR, 0o666, 0, 0,
                             rdev=(1, 3)).is_whiteout
        assert not TarMember("f", FileType.REG, 0, 0, 0).is_whiteout

    def test_whiteout_removes_its_path_unprivileged(self, kernel, root_sys):
        """A whiteout deletes; it is not a device to mknod (EPERM in a
        user namespace and for any unprivileged user)."""
        alice = _alice_tree(kernel, root_sys)
        TarArchive([
            TarMember("etc", FileType.DIR, 0o755, 0, 0),
            TarMember("etc/gone", FileType.REG, 0o644, 0, 0, data=b"hi"),
            TarMember("etc/d", FileType.DIR, 0o755, 0, 0),
            TarMember("etc/d/f", FileType.REG, 0o644, 0, 0, data=b"f"),
        ]).extract(alice, "/home/alice/img")
        TarArchive([
            TarMember("etc/gone", FileType.CHR, 0, 0, 0),
            TarMember("etc/d", FileType.CHR, 0, 0, 0),
            TarMember("etc/d/f", FileType.CHR, 0, 0, 0),
            TarMember("etc/never", FileType.CHR, 0, 0, 0),
        ]).extract(alice, "/home/alice/img")
        assert [e.name for e in alice.readdir("/home/alice/img/etc")] == []

    def test_whiteout_stays_inside_the_tree(self, kernel, root_sys):
        """A whiteout below an earlier layer's symlink out of the image
        deletes nothing: alice's own directory is not the image's."""
        alice = _alice_tree(kernel, root_sys)
        alice.mkdir("/home/alice/private", 0o700)
        alice.write_file("/home/alice/private/key", b"secret")
        TarArchive([
            TarMember("x", FileType.SYMLINK, 0o777, 0, 0,
                      target="/home/alice"),
        ]).extract(alice, "/home/alice/img")
        TarArchive([
            TarMember("x/private", FileType.CHR, 0, 0, 0),
            TarMember("x/.bashrc", FileType.CHR, 0, 0, 0),
        ]).extract(alice, "/home/alice/img")
        assert alice.read_file("/home/alice/private/key") == b"secret"
        assert alice.exists("/home/alice/.bashrc")
        assert alice.lstat("/home/alice/img/x").ftype is FileType.SYMLINK

    def test_whiteout_through_a_symlink_inside_the_tree(self, kernel,
                                                        root_sys):
        alice = _alice_tree(kernel, root_sys)
        TarArchive([
            TarMember("etc", FileType.DIR, 0o755, 0, 0),
            TarMember("etc/gone", FileType.REG, 0o644, 0, 0, data=b"hi"),
            TarMember("e", FileType.SYMLINK, 0o777, 0, 0, target="etc"),
        ]).extract(alice, "/home/alice/img")
        TarArchive([TarMember("e/gone", FileType.CHR, 0, 0, 0)]
                   ).apply_diff(alice, "/home/alice/img")
        assert not alice.exists("/home/alice/img/etc/gone")
        assert alice.lstat("/home/alice/img/e").ftype is FileType.SYMLINK

    def test_regular_member_replaces_a_symlink(self, kernel, root_sys):
        """A later layer's file lands on an earlier layer's symlink to
        the puller's own dotfile: tar replaces the link, it does not write
        (or chmod) through it."""
        alice = _alice_tree(kernel, root_sys)
        TarArchive([
            TarMember("etc", FileType.DIR, 0o755, 0, 0),
            TarMember("etc/x", FileType.SYMLINK, 0o777, 0, 0,
                      target="/home/alice/.bashrc"),
        ]).extract(alice, "/home/alice/img")
        TarArchive([
            TarMember("etc/x", FileType.REG, 0o600, 0, 0, data=b"owned",
                      exe_impl="coreutils.true"),
        ]).extract(alice, "/home/alice/img")
        assert alice.read_file("/home/alice/.bashrc") == b"alias ll='ls -l'\n"
        assert alice.stat("/home/alice/.bashrc").st_mode & 0o777 == 0o644
        st = alice.lstat("/home/alice/img/etc/x")
        assert (st.ftype, st.st_mode & 0o777, st.exe_impl) == \
            (FileType.REG, 0o600, "coreutils.true")
        assert alice.read_file("/home/alice/img/etc/x") == b"owned"

    def test_symlink_replacement_is_unlink_and_retry(self, kernel, root_sys):
        from repro.obs import attach_tracer
        alice = _alice_tree(kernel, root_sys)
        alice.symlink("/home/alice/.bashrc", "/home/alice/img/x")
        tracer = attach_tracer(kernel)
        tracer.clear()
        TarArchive([TarMember("x", FileType.REG, 0o644, 0, 0, data=b"y")]
                    ).extract(alice, "/home/alice/img")
        calls = [(e.name, e.errno) for e in tracer.events]
        assert calls == [("write_file", "ELOOP"), ("unlink", ""),
                         ("write_file", ""), ("chmod", "")]

    def test_directory_member_replaces_a_symlink(self, kernel, root_sys):
        """A later layer's directory lands on an earlier layer's symlink
        to a directory outside the image: the link is replaced, and the
        member's mode is not chmod-ed onto the link's target."""
        alice = _alice_tree(kernel, root_sys)
        alice.mkdir("/home/alice/private", 0o700)
        TarArchive([
            TarMember("x", FileType.SYMLINK, 0o777, 0, 0,
                      target="/home/alice/private"),
        ]).extract(alice, "/home/alice/img")
        TarArchive([
            TarMember("x", FileType.DIR, 0o777, 0, 0,
                      xattrs=(("user.tag", b"v"),)),
        ]).extract(alice, "/home/alice/img")
        assert alice.stat("/home/alice/private").st_mode & 0o7777 == 0o700
        assert alice.listxattr("/home/alice/private") == []
        st = alice.lstat("/home/alice/img/x")
        assert (st.ftype, st.st_mode & 0o7777) == (FileType.DIR, 0o777)
        assert alice.getxattr("/home/alice/img/x", "user.tag") == b"v"

    def test_directory_member_replaces_a_file(self, kernel, root_sys):
        alice = _alice_tree(kernel, root_sys)
        TarArchive([TarMember("x", FileType.REG, 0o644, 0, 0, data=b"f")]
                   ).extract(alice, "/home/alice/img")
        TarArchive([TarMember("x", FileType.DIR, 0o755, 0, 0),
                    TarMember("x/f", FileType.REG, 0o644, 0, 0, data=b"in")]
                   ).extract(alice, "/home/alice/img")
        assert alice.lstat("/home/alice/img/x").ftype is FileType.DIR
        assert alice.read_file("/home/alice/img/x/f") == b"in"

    def test_symlink_member_replaces_a_directory(self, kernel, root_sys):
        """The reverse: an earlier layer's directory, contents and all,
        gives way to a later layer's symlink."""
        alice = _alice_tree(kernel, root_sys)
        TarArchive([
            TarMember("etc", FileType.DIR, 0o755, 0, 0),
            TarMember("lib", FileType.DIR, 0o755, 0, 0),
            TarMember("lib/sub", FileType.DIR, 0o755, 0, 0),
            TarMember("lib/sub/f", FileType.REG, 0o644, 0, 0, data=b"f"),
        ]).extract(alice, "/home/alice/img")
        TarArchive([TarMember("lib", FileType.SYMLINK, 0o777, 0, 0,
                              target="etc")]
                   ).extract(alice, "/home/alice/img")
        assert alice.readlink("/home/alice/img/lib") == "etc"
        assert alice.readdir("/home/alice/img/etc") == []

    @pytest.mark.parametrize("member,before,calls", [
        (TarMember("x", FileType.REG, 0o644, 0, 0, data=b"y"), "dir",
         [("write_file", "EISDIR"), ("readdir", ""), ("unlink", ""),
          ("rmdir", ""),
          ("write_file", ""), ("chmod", "")]),
        (TarMember("x", FileType.REG, 0o644, 0, 0, data=b"y"), "fifo",
         [("write_file", "ENXIO"), ("unlink", ""), ("write_file", ""),
          ("chmod", "")]),
        (TarMember("x", FileType.FIFO, 0o600, 0, 0), "file",
         [("mknod", "EEXIST"), ("unlink", ""), ("mknod", ""),
          ("chmod", "")]),
        (TarMember("x", FileType.FIFO, 0o600, 0, 0), "fifo",
         [("mknod", "EEXIST"), ("unlink", ""), ("mknod", ""),
          ("chmod", "")]),
    ], ids=["file-on-dir", "file-on-fifo", "fifo-on-file", "fifo-on-fifo"])
    def test_member_replaces_what_its_first_call_meets(self, kernel,
                                                       root_sys, member,
                                                       before, calls):
        """A regular or special member is made in one call; the error
        that call returns names what is in the way, which is deleted and
        the call retried."""
        from repro.obs import attach_tracer
        alice = _alice_tree(kernel, root_sys)
        x = "/home/alice/img/x"
        if before == "dir":
            alice.mkdir(x, 0o755)
            alice.write_file(f"{x}/f", b"in")
        elif before == "fifo":
            alice.mknod(x, FileType.FIFO, 0o644)
        else:
            alice.write_file(x, b"old")
        tracer = attach_tracer(kernel)
        tracer.clear()
        TarArchive([member]).extract(alice, "/home/alice/img")
        assert [(e.name, e.errno) for e in tracer.events] == calls
        st = alice.lstat(x)
        assert (st.ftype, st.st_mode & 0o7777) == (member.ftype, member.mode)
        if member.ftype is FileType.REG:
            assert alice.read_file(x) == b"y"

    @pytest.mark.parametrize("member,outside", [
        (TarMember("x/d", FileType.REG, 0o644, 0, 0, data=b"y"),
         FileType.DIR),
        (TarMember("x/.bashrc", FileType.FIFO, 0o644, 0, 0), FileType.REG),
        (TarMember("x/link", FileType.REG, 0o644, 0, 0, data=b"y"),
         FileType.SYMLINK),
    ], ids=["file-on-dir", "fifo-on-file", "file-on-symlink"])
    def test_member_below_a_symlink_replaces_nothing_outside(
            self, kernel, root_sys, member, outside):
        """Below an earlier layer's ``x -> /home/alice`` a member that
        would meet something of alice's is walked beneath the image
        instead: ``x`` leads to the image's own ``home/alice``, which is
        missing, so the member fails with ENOENT."""
        alice = _alice_tree(kernel, root_sys)
        alice.mkdir("/home/alice/d", 0o700)
        alice.symlink(".bashrc", "/home/alice/link")
        TarArchive([TarMember("x", FileType.SYMLINK, 0o777, 0, 0,
                              target="/home/alice")]
                   ).extract(alice, "/home/alice/img")
        with pytest.raises(KernelError) as err:
            TarArchive([member]).extract(alice, "/home/alice/img")
        assert err.value.errno is Errno.ENOENT
        assert alice.lstat(f"/home/alice/{member.path[2:]}").ftype \
            is outside
        assert alice.lstat("/home/alice/d").ftype is FileType.DIR
        assert alice.readlink("/home/alice/link") == ".bashrc"
        assert alice.read_file("/home/alice/.bashrc") == \
            b"alias ll='ls -l'\n"

    def test_symlink_member_below_a_symlink_deletes_nothing_outside(
            self, kernel, root_sys):
        """An earlier layer's ``x -> /home/alice`` would put a symlink
        member ``x/private`` on alice's own directory: it is not deleted,
        and the member fails (ENOENT: the image has no ``home/alice``)
        instead of landing there."""
        alice = _alice_tree(kernel, root_sys)
        alice.mkdir("/home/alice/private", 0o700)
        alice.write_file("/home/alice/private/key", b"secret")
        TarArchive([TarMember("x", FileType.SYMLINK, 0o777, 0, 0,
                              target="/home/alice")]
                   ).extract(alice, "/home/alice/img")
        with pytest.raises(KernelError) as err:
            TarArchive([TarMember("x/private", FileType.SYMLINK, 0o777, 0,
                                  0, target="/etc")]
                       ).extract(alice, "/home/alice/img")
        assert err.value.errno is Errno.ENOENT
        assert alice.lstat("/home/alice/private").ftype is FileType.DIR
        assert alice.read_file("/home/alice/private/key") == b"secret"

    def test_directory_member_below_a_symlink_deletes_nothing_outside(
            self, kernel, root_sys):
        alice = _alice_tree(kernel, root_sys)
        TarArchive([TarMember("x", FileType.SYMLINK, 0o777, 0, 0,
                              target="/home/alice")]
                   ).extract(alice, "/home/alice/img")
        with pytest.raises(KernelError) as err:
            TarArchive([TarMember("x/.bashrc", FileType.DIR, 0o777, 0, 0)]
                       ).extract(alice, "/home/alice/img")
        assert err.value.errno is Errno.ENOENT
        st = alice.lstat("/home/alice/.bashrc")
        assert (st.ftype, st.st_mode & 0o7777) == (FileType.REG, 0o644)
        assert alice.read_file("/home/alice/.bashrc") == b"alias ll='ls -l'\n"

    def test_directory_member_on_a_directory_only_chmods(self, kernel,
                                                         root_sys):
        """Telling a directory from a symlink costs no traced call."""
        from repro.obs import attach_tracer
        alice = _alice_tree(kernel, root_sys)
        alice.mkdir("/home/alice/img/d", 0o700)
        tracer = attach_tracer(kernel)
        tracer.clear()
        TarArchive([TarMember("d", FileType.DIR, 0o755, 0, 0)]
                   ).extract(alice, "/home/alice/img")
        assert [(e.name, e.errno) for e in tracer.events] == [("chmod", "")]

    def test_pulled_image_with_a_deleted_file(self, world, login, alice):
        """Push an image whose last layer deletes a file, then pull it as
        ch-image does (unprivileged, flattening every layer)."""
        from repro.containers import Podman
        from repro.core import ChImage
        podman = Podman(login, alice)
        res = podman.build("FROM centos:7\nRUN echo hi > /etc/gone\n"
                           "RUN rm /etc/gone\n", "gone")
        assert res.success, res.text
        manifest = podman.push("gone", "gitlab.example.gov/alice/gone:1")
        assert manifest.layer_count == 3
        ch = ChImage(login, alice)
        path = ch.pull("gitlab.example.gov/alice/gone:1")
        assert not ch.sys.exists(f"{path}/etc/gone")
        assert ch.sys.exists(f"{path}/etc/passwd")


    @pytest.mark.parametrize("ftype", [FileType.CHR, FileType.BLK])
    def test_regular_member_replaces_a_device(self, kernel, root_sys, ftype):
        """Writing a device succeeds and keeps the device, so a regular
        member deletes one in its way first, as tar(1) replaces it."""
        root_sys.mkdir("/img", 0o755)
        root_sys.mknod("/img/x", ftype, 0o644, rdev=(1, 3))
        TarArchive([TarMember("x", FileType.REG, 0o640, 0, 0,
                              data=b"hello")]).extract(root_sys, "/img")
        st = root_sys.lstat("/img/x")
        assert (st.ftype, st.st_mode & 0o7777) == (FileType.REG, 0o640)
        assert root_sys.read_file("/img/x") == b"hello"
        # a plain write onto a device is left alone: the data vanishes
        root_sys.mknod("/img/null", FileType.CHR, 0o666, rdev=(1, 3))
        root_sys.write_file("/img/null", b"gone")
        assert root_sys.lstat("/img/null").ftype is FileType.CHR


#: An earlier layer's link above every member of a later one, and where
#: a walk confined to the image (``RESOLVE_IN_ROOT``) takes ``x``: out of
#: the image an unconfined walk goes to alice's home or to ``/``.
_ESCAPES = {"/home/alice": "home/alice", "../../..": "", "/": ""}

#: One member of each kind below ``x``, each named after something of
#: alice's it would overwrite, chmod or delete if it escaped.
_BELOW = {
    "regular": TarMember("x/.bashrc", FileType.REG, 0o777, 0, 0,
                         data=b"owned"),
    "directory": TarMember("x/d", FileType.DIR, 0o777, 0, 0),
    "fifo": TarMember("x/link", FileType.FIFO, 0o666, 0, 0),
    "symlink": TarMember("x/d", FileType.SYMLINK, 0o777, 0, 0,
                         target="/etc"),
    "whiteout": TarMember("x/d", FileType.CHR, 0, 0, 0),
}


class TestConfinement:
    """Every member stays inside the image: walked beneath it, a link
    above a member clamps at the image root instead of leaving it."""

    DEST = "/home/alice/a/b/img"

    @pytest.mark.parametrize("kind", sorted(_BELOW))
    @pytest.mark.parametrize("target", sorted(_ESCAPES))
    def test_member_below_a_link_out_of_the_image(self, kernel, root_sys,
                                                  target, kind):
        alice = _alice_tree(kernel, root_sys)
        alice.mkdir("/home/alice/d", 0o700)
        alice.write_file("/home/alice/d/key", b"secret")
        alice.symlink(".bashrc", "/home/alice/link")
        alice.mkdir_p(self.DEST)

        def alices_own():
            packed = TarArchive.pack(alice, "/home/alice")
            return TarArchive([m for m in packed
                               if m.path != "a" and not
                               m.path.startswith("a/")]).serialize()

        before = alices_own()
        TarArchive([
            TarMember("d", FileType.DIR, 0o755, 0, 0),
            TarMember("x", FileType.SYMLINK, 0o777, 0, 0, target=target),
        ]).extract(alice, self.DEST)
        member = _BELOW[kind]
        lands = f"{self.DEST}/{_ESCAPES[target]}".rstrip("/")
        name = member.path.split("/")[1]
        if _ESCAPES[target] and not member.is_whiteout:
            # the image has no home/alice: the clamped walk's ENOENT
            with pytest.raises(KernelError) as err:
                TarArchive([member]).extract(alice, self.DEST)
            assert err.value.errno is Errno.ENOENT
        else:
            TarArchive([member]).extract(alice, self.DEST)
        assert alices_own() == before
        if _ESCAPES[target]:
            assert not alice.exists(lands)
            assert alice.lstat(f"{self.DEST}/d").ftype is FileType.DIR
        elif member.is_whiteout:
            assert not alice.exists(f"{lands}/{name}")
        else:
            st = alice.lstat(f"{lands}/{name}")
            assert st.ftype is member.ftype
            if member.ftype is FileType.REG:
                assert alice.read_file(f"{lands}/{name}") == b"owned"
            if member.ftype is FileType.SYMLINK:
                assert alice.readlink(f"{lands}/{name}") == "/etc"
            else:
                assert st.st_mode & 0o7777 == member.mode
        assert alice.readlink(f"{self.DEST}/x") == target

    def test_dotdot_in_a_member_path_stops_at_the_image(self, kernel,
                                                        root_sys):
        alice = _alice_tree(kernel, root_sys)
        TarArchive([TarMember("../../.bashrc", FileType.REG, 0o644, 0, 0,
                              data=b"owned")]).extract(alice,
                                                       "/home/alice/img")
        assert alice.read_file("/home/alice/.bashrc") == \
            b"alias ll='ls -l'\n"
        assert alice.read_file("/home/alice/img/.bashrc") == b"owned"

    def test_a_directory_made_unsearchable_midway_is_honoured(
            self, kernel, root_sys):
        """A directory an earlier member opened is searched again after a
        later member chmods it: the members below then fail EACCES as a
        walk from the image root would."""
        alice = _alice_tree(kernel, root_sys)
        with pytest.raises(KernelError) as err:
            TarArchive([
                TarMember("d", FileType.DIR, 0o755, 0, 0),
                TarMember("d/e", FileType.DIR, 0o755, 0, 0),
                TarMember("d/e/f", FileType.REG, 0o644, 0, 0, data=b"1"),
                TarMember("d", FileType.DIR, 0o600, 0, 0),
                TarMember("d/e/g", FileType.REG, 0o644, 0, 0, data=b"2"),
            ]).extract(alice, "/home/alice/img")
        assert err.value.errno is Errno.EACCES
        alice.chmod("/home/alice/img/d", 0o755)
        assert alice.read_file("/home/alice/img/d/e/f") == b"1"
        assert not alice.exists("/home/alice/img/d/e/g")


class TestFlattening:
    def test_flatten_member(self):
        m = TarMember("x", FileType.REG, 0o6755, 1000, 998)
        f = m.flattened()
        assert (f.uid, f.gid) == (0, 0)
        assert f.mode == 0o755  # setuid+setgid cleared

    def test_flatten_idempotent(self):
        m = TarMember("x", FileType.REG, 0o6755, 1000, 998)
        assert m.flattened().flattened() == m.flattened()

    def test_pack_flatten(self, root_sys):
        a = TarArchive.pack(root_sys, "/src", flatten=True)
        for m in a:
            assert (m.uid, m.gid) == (0, 0)
            assert not m.mode & 0o6000


class TestFakerootAwarePack:
    def test_lies_enter_archive(self, kernel, root_sys):
        """fakeroot's purpose: archives with root ownership (§5.1), and the
        §6.2.2 ownership-preserving push falls out."""
        root_sys.mkdir_p("/home/alice/tree")
        root_sys.chown("/home/alice/tree", 1000, 1000)
        root_sys.chown("/home/alice", 1000, 1000)
        alice = Syscalls(kernel.login(1000, 1000))
        fr = FakerootSyscalls(alice, FAKEROOT_CLASSIC)
        fr.write_file("/home/alice/tree/f", b"x")
        fr.chown("/home/alice/tree/f", 47, 48)
        packed = TarArchive.pack(fr, "/home/alice/tree")
        m = packed.member("f")
        assert (m.uid, m.gid) == (47, 48)
        # raw pack sees the truth
        raw = TarArchive.pack(alice, "/home/alice/tree")
        assert (raw.member("f").uid, raw.member("f").gid) == (1000, 1000)


# -- property: serialize/deserialize roundtrip over generated members ---------------

_member = st.builds(
    TarMember,
    path=st.from_regex(r"[a-z][a-z0-9]{0,6}(/[a-z][a-z0-9]{0,6}){0,2}",
                       fullmatch=True),
    ftype=st.sampled_from([FileType.REG, FileType.SYMLINK]),
    mode=st.integers(0, 0o7777),
    uid=st.integers(0, 70000),
    gid=st.integers(0, 70000),
    data=st.binary(max_size=64),
    target=st.sampled_from(["", "a", "/abs/target"]),
)


@given(st.lists(_member, max_size=8))
def test_serialize_roundtrip_property(members):
    # symlink members keep target only; regular files keep data only
    fixed = [
        TarMember(m.path, m.ftype, m.mode, m.uid, m.gid,
                  data=m.data if m.ftype is FileType.REG else b"",
                  target=m.target if m.ftype is FileType.SYMLINK else "")
        for m in members
    ]
    a = TarArchive(fixed)
    b = TarArchive.deserialize(a.serialize())
    assert list(b) == list(a)


# -- differential: the handle loop against the per-member path-walk loop -----

_PATHS = ["a", "b", "a/x", "a/y", "b/x", "a/x/q"]
#: Sibling names only: a link never leads out of the image, so the
#: confined walk and an unconfined one agree.
_TARGETS = ["a", "b", "x", "y", "q", "none"]
_OWNERS = [(0, 0), (1000, 1000), (7, 7)]
_TAGS = [(), (("user.tag", b"v"),)]


def _member_of(kind, path, mode, owner, data, target, tag):
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
    _member_of,
    st.sampled_from([FileType.REG, FileType.DIR, FileType.SYMLINK,
                     FileType.FIFO, FileType.CHR, "whiteout"]),
    st.sampled_from(_PATHS),
    st.sampled_from([0o755, 0o644, 0o700, 0o555, 0o4755, 0o1777, 0o000]),
    st.sampled_from(_OWNERS),
    st.sampled_from([b"", b"one", b"two two"]),
    st.sampled_from(_TARGETS),
    st.sampled_from(_TAGS),
), max_size=8)

_WRAPPERS = {
    "plain": lambda alice: alice,
    "fakeroot": lambda alice: FakerootSyscalls(alice, PSEUDO),
    "seccomp": lambda alice: SeccompSyscalls(alice),
    "ignore-chown": lambda alice: IgnoreChownSyscalls(alice),
}


def _unpack_stack(layers, wrapper, how, fast):
    """Unpack *layers* onto a fresh alice-owned image, one call per layer
    (*how* ``"extract"`` or ``"apply_diff"``) or the whole stack in one
    ``extract_layers`` call, on a fast kernel (*fast*) or a reference
    one; what the unpack did."""
    kernel = Kernel(make_ext4(), fast=fast)
    root = Syscalls(kernel.init_process)
    root.mkdir_p("/home/alice/img")
    root.chown("/home/alice", 1000, 1000)
    root.chown("/home/alice/img", 1000, 1000)
    sys = _WRAPPERS[wrapper](Syscalls(kernel.login(1000, 1000)))
    tracer = attach_tracer(kernel)
    tracer.clear()
    ticks = kernel.ticks
    error = None
    try:
        if how == "extract_layers":
            TarArchive.extract_layers(layers, sys, "/home/alice/img")
        else:
            for layer in layers:
                getattr(layer, how)(sys, "/home/alice/img")
    except KernelError as err:
        error = err.errno
    calls = [(e.name, e.errno, e.depth) for e in tracer.events]
    ticks = kernel.ticks - ticks
    lies = sorted(((ino, repr(lie)) for (_, ino), lie in sys.db)
                  if hasattr(sys, "db") else ())
    tree = TarArchive.pack(root, "/home/alice/img").serialize()
    return error, calls, ticks, lies, tree


def _d(path, mode=0o755):
    return TarMember(path, FileType.DIR, mode, 0, 0)


def _f(path):
    return TarMember(path, FileType.REG, 0o644, 0, 0, data=b"f")


_HOWS = ["extract", "extract_layers", "apply_diff"]


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(_layer, min_size=1, max_size=3),
       st.sampled_from(sorted(_WRAPPERS)), st.sampled_from(_HOWS))
# an open directory whose parent loses its search bit, is deleted, or
# becomes a symlink: each must be walked again
@example([[_d("a"), _d("a/x"), _f("a/x/q"), _d("a", 0o600), _f("a/x/y")]],
         "plain", "extract")
@example([[_d("a"), _d("a/x"), _f("a/x/q")],
          [TarMember("a", FileType.CHR, 0, 0, 0), _f("a/x/y")]],
         "seccomp", "apply_diff")
@example([[_d("a"), _d("a/x"), _d("b"), _d("b/x"), _f("a/x/q")],
          [TarMember("a", FileType.SYMLINK, 0o777, 0, 0, target="b"),
           _f("a/x/y")]], "fakeroot", "extract")
# the same three with the directories kept open from layer to layer
@example([[_d("a"), _d("a/x"), _f("a/x/q")], [_d("a", 0o600)],
          [_f("a/x/y")]], "plain", "extract_layers")
@example([[_d("a"), _d("a/x"), _f("a/x/q")],
          [TarMember("a", FileType.CHR, 0, 0, 0), _f("a/x/y")]],
         "seccomp", "extract_layers")
@example([[_d("a"), _d("a/x"), _d("b"), _d("b/x"), _f("a/x/q")],
          [TarMember("a", FileType.SYMLINK, 0o777, 0, 0, target="b"),
           _f("a/x/y")]], "fakeroot", "extract_layers")
def test_handle_loop_matches_the_path_walk_loop(layers, wrapper, how):
    """The unpack with directories kept open (the fast path) does what
    the reference engine's loop does, which walks every member's whole
    path from the image root: the same error, traced calls and errnos,
    ticks, lie database and tree.  One ``extract_layers`` call over the
    stack, which keeps its directories open from layer to layer, does
    what one ``extract`` per layer does."""
    layers = [TarArchive(members) for members in layers]
    fast = _unpack_stack(layers, wrapper, how, True)
    assert fast == _unpack_stack(layers, wrapper, how, False)
    if how == "extract_layers":
        assert fast == _unpack_stack(layers, wrapper, "extract", True)


def test_extract_layers_journals_one_generation_per_layer(root_sys):
    root_sys.mkdir_p("/img")
    fs = root_sys.open_dir("/img").fs
    layers = [TarArchive([_d("a"), _d("a/x"), _f("a/x/q")]),
              TarArchive([_f("a/x/y"), _d("b")]),
              TarArchive([_f("b/z")])]
    before = fs.gen
    TarArchive.extract_layers(layers, root_sys, "/img")
    assert fs.gen == before + len(layers)
    assert sorted(e.name for e in root_sys.readdir("/img/a/x")) == \
        ["q", "y"]
