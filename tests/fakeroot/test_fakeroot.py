"""Tests for the fakeroot engines: the Figure 7 behaviours and demo
transcript, Table 1, consistency of lies, engine quirks, and
persistence."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import make_machine
from repro.distro import populate_userland
from repro.errors import Errno, KernelError
from repro.fakeroot import (
    ENGINES,
    FAKEROOT_CLASSIC,
    FAKEROOT_NG,
    PSEUDO,
    FakerootError,
    FakerootSyscalls,
    Lie,
    LieDatabase,
    LieFormatError,
    engine_by_name,
)
from repro.kernel import FileType, Kernel, Syscalls, make_ext4
from repro.shell import ExecContext, OutputSink, run_shell
from repro.shell.install import install_binary, install_script

#: the paper's Figure 7 demo script
FIG7_SCRIPT = """\
set -x
touch test.file
chown nobody test.file
mknod test.dev c 1 1
ls -lh test.dev test.file
"""

#: Table 1: approach, architectures, daemon?, persistency per engine
TABLE1 = {
    "fakeroot": ("LD_PRELOAD", "any", "yes", "save/restore from file"),
    "fakeroot-ng": ("ptrace", "ppc, x86, x86_64", "yes",
                    "save/restore from file"),
    "pseudo": ("LD_PRELOAD", "any", "yes", "database"),
}


@pytest.fixture
def kernel():
    k = Kernel(make_ext4(), hostname="ws")
    sys0 = Syscalls(k.init_process)
    sys0.mkdir_p("/home/alice")
    sys0.chown("/home/alice", 1000, 1000)
    return k


@pytest.fixture
def alice_sys(kernel):
    return Syscalls(kernel.login(1000, 1000, user="alice", home="/home/alice"))


@pytest.fixture
def fr(alice_sys):
    return FakerootSyscalls(alice_sys, FAKEROOT_CLASSIC)


class TestFigure7:
    """The paper's fakeroot demo: touch, chown nobody, mknod, ls."""

    def test_chown_fakes_success(self, fr, alice_sys):
        fr.write_file("/home/alice/test.file", b"")
        fr.chown("/home/alice/test.file", 65534, -1)  # nobody
        st = fr.stat("/home/alice/test.file")
        assert st.st_uid == 65534
        assert st.st_gid == 0  # own gid displays as root

    def test_mknod_fakes_device(self, fr):
        fr.mknod("/home/alice/test.dev", FileType.CHR, 0o644, rdev=(1, 1))
        st = fr.stat("/home/alice/test.dev")
        assert st.ftype is FileType.CHR
        assert st.st_rdev == (1, 1)
        assert st.st_uid == 0 and st.st_gid == 0

    def test_unwrapped_ls_exposes_the_lies(self, fr, alice_sys):
        """Figure 7's second ls: outside fakeroot, the files are plain and
        owned by the real user."""
        fr.write_file("/home/alice/test.file", b"")
        fr.chown("/home/alice/test.file", 65534, -1)
        fr.mknod("/home/alice/test.dev", FileType.CHR, rdev=(1, 1))
        st_file = alice_sys.stat("/home/alice/test.file")
        st_dev = alice_sys.stat("/home/alice/test.dev")
        assert st_file.st_uid == 1000
        assert st_dev.ftype is FileType.REG  # really a plain file
        assert st_dev.st_rdev == (0, 0)

    def test_identity_is_root(self, fr):
        assert fr.geteuid() == 0
        assert fr.getuid() == 0
        assert fr.getegid() == 0

    def test_demo_transcript(self, world):
        """The demo as the paper runs it: ``ls`` inside the wrapper shows
        the lies, ``ls`` outside exposes them."""
        ws = make_machine("workstation", network=world.network)
        root = ws.root_sys()
        populate_userland(root, "x86_64")
        install_binary(root, "/usr/bin/fakeroot", "fakeroot.classic")
        install_script(root, "/home/alice/fakeroot.sh", FIG7_SCRIPT)
        alice = ws.login("alice")
        ctx = ExecContext(alice, Syscalls(alice),
                          env={"PATH": "/usr/bin:/bin"})
        ctx.sys.chdir("/home/alice")
        wrapped = ctx.child(stdout=OutputSink(), stderr=OutputSink())
        run_shell(wrapped, "fakeroot /home/alice/fakeroot.sh")
        naked = ctx.child(stdout=OutputSink(), stderr=OutputSink())
        run_shell(naked, "ls -lh test.dev test.file")
        inside, outside = wrapped.stdout.text(), naked.stdout.text()
        # inside: a device node owned root:root, a file owned by nobody
        assert "crw-r--r-- 1 root root   1, 1" in inside
        assert "nobody root" in inside
        # outside: two plain files owned by alice
        assert "alice alice" in outside
        assert "crw" not in outside


class TestLieConsistency:
    def test_later_stat_sees_earlier_chown(self, fr):
        fr.write_file("/home/alice/f", b"")
        fr.chown("/home/alice/f", 25, 31)
        assert (fr.stat("/home/alice/f").st_uid,
                fr.stat("/home/alice/f").st_gid) == (25, 31)

    def test_partial_chown_merges(self, fr):
        fr.write_file("/home/alice/f", b"")
        fr.chown("/home/alice/f", 25, -1)
        fr.chown("/home/alice/f", -1, 31)
        st = fr.stat("/home/alice/f")
        assert (st.st_uid, st.st_gid) == (25, 31)

    def test_rename_preserves_lie(self, fr):
        fr.write_file("/home/alice/f", b"")
        fr.chown("/home/alice/f", 25, 25)
        fr.rename("/home/alice/f", "/home/alice/g")
        assert fr.stat("/home/alice/g").st_uid == 25

    def test_unlink_forgets_lie(self, fr):
        fr.write_file("/home/alice/f", b"")
        fr.chown("/home/alice/f", 25, 25)
        dev_ino = (fr.inner.stat("/home/alice/f").st_dev,
                   fr.inner.stat("/home/alice/f").st_ino)
        fr.unlink("/home/alice/f")
        assert fr.db.get(*dev_ino) is None

    def test_hard_links_share_lies(self, fr):
        fr.write_file("/home/alice/a", b"")
        fr.link("/home/alice/a", "/home/alice/b")
        fr.chown("/home/alice/a", 7, 7)
        assert fr.stat("/home/alice/b").st_uid == 7

    def test_chmod_real_when_possible(self, fr, alice_sys):
        fr.write_file("/home/alice/f", b"")
        fr.chmod("/home/alice/f", 0o4755)
        # Owner chmod works for real: visible outside the wrapper too.
        assert alice_sys.stat("/home/alice/f").st_mode & 0o7777 == 0o4755

    def test_chmod_eperm_becomes_lie(self, fr, kernel):
        root = Syscalls(kernel.init_process)
        root.write_file("/home/alice/rootfile", b"")
        root.chmod("/home/alice/rootfile", 0o644)
        fr.chmod("/home/alice/rootfile", 0o600)  # EPERM for alice -> lie
        assert fr.stat("/home/alice/rootfile").st_mode & 0o777 == 0o600
        assert fr.inner.stat("/home/alice/rootfile").st_mode & 0o777 == 0o644


class TestEngineQuirks:
    def test_ptrace_engine_rejects_unsupported_arch(self, kernel):
        """On Astra (aarch64) only the LD_PRELOAD engines run."""
        kernel.arch = "aarch64"
        alice = kernel.login(1000, 1000, user="alice")
        with pytest.raises(FakerootError) as exc:
            FakerootSyscalls(Syscalls(alice), FAKEROOT_NG)
        assert "aarch64" in str(exc.value)

    def test_ptrace_engine_runs_on_x86_64(self, alice_sys):
        FakerootSyscalls(alice_sys, FAKEROOT_NG)

    def test_classic_does_not_fake_xattrs(self, fr):
        fr.write_file("/home/alice/f", b"")
        with pytest.raises(KernelError) as exc:
            fr.setxattr("/home/alice/f", "security.capability", b"caps")
        assert exc.value.errno == Errno.EPERM

    def test_pseudo_fakes_xattrs(self, alice_sys):
        ps = FakerootSyscalls(alice_sys, PSEUDO)
        ps.write_file("/home/alice/f", b"")
        ps.setxattr("/home/alice/f", "security.capability", b"caps")
        assert ps.getxattr("/home/alice/f", "security.capability") == b"caps"
        # ...but the real file has no such xattr
        with pytest.raises(KernelError):
            alice_sys.getxattr("/home/alice/f", "security.capability")

    def test_static_binary_wrapping_flag(self):
        assert not FAKEROOT_CLASSIC.wraps_static_binaries
        assert not PSEUDO.wraps_static_binaries
        assert FAKEROOT_NG.wraps_static_binaries

    def test_table1_rows(self):
        rows = {e.name: e.table_row() for e in ENGINES.values()}
        assert {name: (r["approach"], r["architectures"], r["daemon?"],
                       r["persistency"]) for name, r in rows.items()} \
            == TABLE1
        assert all(r["implementation"] == name for name, r in rows.items())

    @pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
    @pytest.mark.parametrize("engine", list(ENGINES.values()),
                             ids=list(ENGINES))
    def test_table1_live_probe(self, kernel, engine, arch):
        """Each engine lies about chown and mknod wherever its
        architectures column says it runs, and refuses to start
        elsewhere."""
        kernel.arch = arch
        sys = Syscalls(kernel.login(1000, 1000, user="alice"))
        if not engine.supports_arch(arch):
            with pytest.raises(FakerootError):
                FakerootSyscalls(sys, engine)
            return
        fr = FakerootSyscalls(sys, engine)
        fr.write_file("/home/alice/f", b"")
        fr.chown("/home/alice/f", 0, 0)
        fr.mknod("/home/alice/dev", FileType.CHR, rdev=(1, 1))
        assert fr.stat("/home/alice/f").st_uid == 0
        assert fr.stat("/home/alice/dev").ftype is FileType.CHR

    def test_engine_by_name(self):
        assert engine_by_name("pseudo") is PSEUDO
        with pytest.raises(KeyError):
            engine_by_name("nope")

    def test_setuid_not_intercepted(self, fr):
        """fakeroot does not fake set*id — apt's sandbox drop still fails
        under it (why Figure 9 also needs the apt.conf change)."""
        with pytest.raises(KernelError):
            fr.seteuid(100)


class TestPersistence:
    def test_save_and_restore(self, fr, alice_sys):
        fr.write_file("/home/alice/f", b"")
        fr.chown("/home/alice/f", 25, 31)
        fr.mknod("/home/alice/dev", FileType.BLK, rdev=(8, 1))
        fr.save_state("/home/alice/.fakeroot.state")
        fresh = FakerootSyscalls(alice_sys, FAKEROOT_CLASSIC)
        assert fresh.stat("/home/alice/f").st_uid == 0  # no lie yet
        fresh.load_state("/home/alice/.fakeroot.state")
        assert fresh.stat("/home/alice/f").st_uid == 25
        assert fresh.stat("/home/alice/dev").ftype is FileType.BLK

    def test_dump_load_roundtrip_empty(self):
        db = LieDatabase()
        assert len(LieDatabase.load(db.dump())) == 0

    def test_load_rejects_garbage(self):
        with pytest.raises(LieFormatError):
            LieDatabase.load(b"1 2 3\n")
        with pytest.raises(LieFormatError):
            LieDatabase.load(b"a b c d e f g\n")


class TestLieDatabase:
    def test_merge_semantics(self):
        a = Lie(uid=1, xattrs=(("security.x", b"1"),))
        b = Lie(gid=2, xattrs=(("security.y", b"2"),))
        m = a.merged_with(b)
        assert m.uid == 1 and m.gid == 2
        assert dict(m.xattrs) == {"security.x": b"1", "security.y": b"2"}

    def test_record_and_forget(self):
        db = LieDatabase()
        db.record(1, 2, Lie(uid=5))
        db.record(1, 2, Lie(gid=6))
        lie = db.get(1, 2)
        assert lie.uid == 5 and lie.gid == 6
        db.forget(1, 2)
        assert db.get(1, 2) is None


# -- property tests: dump/load roundtrip and invisibility invariant --------------

_lie = st.builds(
    Lie,
    uid=st.one_of(st.none(), st.integers(0, 70000)),
    gid=st.one_of(st.none(), st.integers(0, 70000)),
    mode=st.one_of(st.none(), st.integers(0, 0o7777)),
    ftype=st.one_of(st.none(), st.sampled_from([FileType.CHR, FileType.BLK])),
    rdev=st.one_of(st.none(), st.tuples(st.integers(0, 255),
                                        st.integers(0, 255))),
)


@given(st.dictionaries(st.tuples(st.integers(1, 9), st.integers(1, 999)),
                       _lie, max_size=10))
def test_dump_load_roundtrip(entries):
    db = LieDatabase()
    for (dev, ino), lie in entries.items():
        db.record(dev, ino, lie)
    again = LieDatabase.load(db.dump())
    assert list(again) == list(db)


@given(st.integers(0, 70000), st.integers(0, 70000))
def test_lies_never_leak_to_raw_syscalls(uid, gid):
    """Invariant: intercepted metadata writes are never visible to raw reads."""
    k = Kernel(make_ext4())
    sys0 = Syscalls(k.init_process)
    sys0.mkdir_p("/home/alice")
    sys0.chown("/home/alice", 1000, 1000)
    raw = Syscalls(k.login(1000, 1000))
    fr = FakerootSyscalls(raw, FAKEROOT_CLASSIC)
    fr.write_file("/home/alice/f", b"")
    fr.chown("/home/alice/f", uid, gid)
    st = raw.stat("/home/alice/f")
    assert (st.kuid, st.kgid) == (1000, 1000)
    assert fr.stat("/home/alice/f").st_uid == uid
    assert fr.stat("/home/alice/f").st_gid == gid
