"""Tests for the privileged helpers: authorization, Figure 1/4 maps, and
the CVE-2018-7169 setgroups check."""

import pytest

from repro.errors import Errno, KernelError
from repro.helpers import HelperError, ShadowUtils
from repro.kernel import (
    Credentials,
    FileType,
    IdMapEntry,
    Kernel,
    Syscalls,
    make_ext4,
    may_access,
)


@pytest.fixture
def kernel():
    k = Kernel(make_ext4(), hostname="login1")
    Syscalls(k.init_process).mkdir_p("/etc")
    return k


@pytest.fixture
def shadow(kernel):
    s = ShadowUtils(kernel, users={"alice": 1000, "bob": 1001})
    s.usermod_add_subuids("alice", 200000, 65536)
    s.usermod_add_subgids("alice", 200000, 65536)
    s.usermod_add_subuids("bob", 265536, 65536)
    s.usermod_add_subgids("bob", 265536, 65536)
    return s


@pytest.fixture
def alice(kernel):
    return kernel.login(1000, 1000, user="alice")


class TestAuthorization:
    def test_figure1_map_installs(self, kernel, shadow, alice):
        """Figure 1: alice -> container 0, 200000..200064 -> 1..65."""
        subuid = Syscalls(kernel.init_process).read_file("/etc/subuid")
        assert "alice:200000:65536" in subuid.decode()  # the admin's grant
        sys = Syscalls(alice)
        sys.unshare_user()
        shadow.newuidmap(alice, alice, [
            IdMapEntry(0, 1000, 1),
            IdMapEntry(1, 200000, 65536),
        ])
        ns = alice.cred.userns
        assert [line.split() for line in ns.uid_map.format().splitlines()] \
            == [["0", "1000", "1"], ["1", "200000", "65536"]]
        assert ns.uid_to_host(0) == 1000
        assert ns.uid_to_host(65) == 200064
        assert ns.uid_from_host(200064) == 65  # one-to-one, no squashing

    def test_foreign_range_rejected(self, shadow, alice):
        """§2.1.2's warning: if alice could map bob's subordinate range she
        would own bob's files; the helper must refuse."""
        Syscalls(alice).unshare_user()
        with pytest.raises(HelperError) as exc:
            shadow.newuidmap(alice, alice, [
                IdMapEntry(0, 1000, 1),
                IdMapEntry(1, 265536, 10),  # bob's range
            ])
        assert exc.value.errno == Errno.EPERM

    def test_arbitrary_host_uid_rejected(self, shadow, alice):
        """Mapping host UID 1001 (bob himself) is never authorized."""
        Syscalls(alice).unshare_user()
        with pytest.raises(HelperError):
            shadow.newuidmap(alice, alice, [IdMapEntry(65537, 1001, 1)])

    def test_own_uid_always_allowed(self, shadow, alice):
        Syscalls(alice).unshare_user()
        shadow.newuidmap(alice, alice, [IdMapEntry(0, 1000, 1)])
        assert alice.cred.userns.uid_to_host(0) == 1000

    def test_no_grants_no_rootless_setup(self, kernel):
        s = ShadowUtils(kernel, users={"carol": 1002})
        carol = kernel.login(1002, 1002, user="carol")
        with pytest.raises(HelperError):
            s.setup_rootless_userns(carol)

    def test_empty_request_einval(self, shadow, alice):
        Syscalls(alice).unshare_user()
        with pytest.raises(HelperError) as exc:
            shadow.newuidmap(alice, alice, [])
        assert exc.value.errno == Errno.EINVAL


class TestUseradd:
    def test_useradd_allocates_disjoint_ranges(self, kernel):
        s = ShadowUtils(kernel, users={})
        a = s.useradd("alice", 1000)
        b = s.useradd("bob", 1001)
        assert a[0] != b[0]
        assert s.subuid().authorizes("alice", 1000, a[0], 65536)
        assert s.subgid().authorizes("bob", 1001, b[1], 65536)

    def test_config_persisted_in_etc(self, kernel):
        s = ShadowUtils(kernel, users={})
        s.useradd("alice", 1000)
        raw = Syscalls(kernel.init_process).read_file("/etc/subuid").decode()
        assert raw.startswith("alice:")

    def test_rootless_setup_after_useradd(self, kernel):
        s = ShadowUtils(kernel, users={})
        start, _ = s.useradd("alice", 1000)
        alice = kernel.login(1000, 1000, user="alice")
        s.setup_rootless_userns(alice)
        sys = Syscalls(alice)
        assert sys.geteuid() == 0
        assert alice.cred.userns.uid_to_host(1) == start


class TestCve2018_7169:
    """newgidmap's setgroups check (paper §2.1.4)."""

    def _manager_world(self, kernel):
        """A 'managers'-group-denied file: rwx---r-x root:2000."""
        sys0 = Syscalls(kernel.init_process)
        sys0.mkdir_p("/bin")
        sys0.write_file("/bin/reboot", b"#!/bin/sh\n")
        sys0.chown("/bin/reboot", 0, 2000)
        sys0.chmod("/bin/reboot", 0o705)

    def test_fixed_helper_requires_setgroups_deny(self, kernel):
        s = ShadowUtils(kernel, users={"mallory": 1003})
        mallory = kernel.login(1003, 1003, frozenset({2000}), user="mallory")
        Syscalls(mallory).unshare_user()
        with pytest.raises(HelperError) as exc:
            # self-only gid map with setgroups still "allow"
            s.newgidmap(mallory, mallory, [IdMapEntry(0, 1003, 1)])
        assert "setgroups" in str(exc.value)

    def test_vulnerable_helper_enables_group_drop_attack(self, kernel):
        """With the pre-fix helper, a manager can drop the 'managers' group
        via setgroups and flip a group-deny into an 'other' allow."""
        self._manager_world(kernel)
        s = ShadowUtils(kernel, users={"mallory": 1003},
                        fixed_cve_2018_7169=False)
        mallory = kernel.login(1003, 1003, frozenset({2000}), user="mallory")
        sys = Syscalls(mallory)

        # Before: group match denies execute.
        res = mallory.mnt_ns.resolve("/bin/reboot", mallory.cred)
        assert not may_access(mallory.cred, res.inode, execute=True)

        sys.unshare_user()
        s.newuidmap(mallory, mallory, [IdMapEntry(0, 1003, 1)])
        s.newgidmap(mallory, mallory, [IdMapEntry(0, 1003, 1)])  # no deny!
        assert mallory.cred.userns.setgroups == "allow"
        sys.setgroups([])  # drop 'managers' — permitted: ns root + allow

        res = mallory.mnt_ns.resolve("/bin/reboot", mallory.cred)
        assert may_access(mallory.cred, res.inode, execute=True)  # the attack

    def test_fixed_helper_blocks_attack_end_to_end(self, kernel):
        self._manager_world(kernel)
        s = ShadowUtils(kernel, users={"mallory": 1003})
        mallory = kernel.login(1003, 1003, frozenset({2000}), user="mallory")
        sys = Syscalls(mallory)
        sys.unshare_user()
        s.newuidmap(mallory, mallory, [IdMapEntry(0, 1003, 1)])
        with pytest.raises(HelperError):
            s.newgidmap(mallory, mallory, [IdMapEntry(0, 1003, 1)])
        # The correct sequence (deny first) leaves setgroups unusable:
        sys.deny_setgroups()
        s.newgidmap(mallory, mallory, [IdMapEntry(0, 1003, 1)])
        with pytest.raises(KernelError) as exc:
            sys.setgroups([])
        assert exc.value.errno == Errno.EPERM

    def test_subgid_authorized_map_keeps_setgroups_allow(self, kernel, shadow):
        """Admin-authorized multi-range maps legitimately keep setgroups
        (Type II builds need it for package managers)."""
        alice = kernel.login(1000, 1000, user="alice")
        shadow.setup_rootless_userns(alice)
        Syscalls(alice).setgroups([0, 5])  # works
