"""Storage cost-model tests: the FS_PARAMS-driven simulated costs."""

import pytest

from repro.containers.storage import make_driver
from repro.kernel import Kernel, Syscalls, make_ext4, make_lustre
from repro.kernel.filesystem_params import FS_PARAMS


@pytest.fixture
def host():
    k = Kernel(make_ext4())
    sys0 = Syscalls(k.init_process)
    sys0.mkdir_p("/home/alice")
    sys0.chown("/home/alice", 1000, 1000)
    return k


def _user_sys(host):
    proc = host.login(1000, 1000, user="alice", home="/home/alice")
    sys = Syscalls(proc)
    sys.setup_single_id_userns()
    return sys


class TestCostModel:
    def test_params_exist_for_all_modeled_types(self):
        for fstype in ("ext4", "tmpfs", "nfs", "lustre", "overlay"):
            assert fstype in FS_PARAMS
            assert FS_PARAMS[fstype].meta_op_cost > 0

    def test_shared_fs_metadata_more_expensive(self):
        assert FS_PARAMS["nfs"].meta_op_cost > 10 * FS_PARAMS["ext4"].meta_op_cost
        assert FS_PARAMS["lustre"].meta_op_cost > 10 * FS_PARAMS["ext4"].meta_op_cost

    def test_fuse_overhead_only_on_overlay(self):
        assert FS_PARAMS["overlay"].fuse_overhead > 0
        assert FS_PARAMS["ext4"].fuse_overhead == 0

    def test_vfs_cost_scales_with_activity(self, host):
        from repro.archive import TarArchive, TarMember
        from repro.kernel import FileType
        sys = _user_sys(host)
        d = make_driver("vfs", sys, "/home/alice/storage")
        assert d.simulated_cost() == 0
        layer = TarArchive([TarMember("f", FileType.REG, 0o644, 0, 0,
                                      data=b"x" * 1000)])
        d.unpack_image("base", [layer], preserve_owner=True)
        cost1 = d.simulated_cost()
        assert cost1 > 0
        tree = d.begin_build("base", "w")
        d.commit(tree)
        assert d.simulated_cost() > cost1

    def test_lustre_vfs_costs_more_than_local(self, host):
        """Same work, pricier metadata on the shared filesystem."""
        from repro.archive import TarArchive, TarMember
        from repro.kernel import FileType
        root = Syscalls(host.init_process)
        root.mkdir_p("/scratch")
        host.init_process.mnt_ns.add_mount(
            "/scratch", make_lustre(xattr_support=True))
        root.chown("/scratch", 1000, 1000)
        layer = TarArchive([TarMember("f", FileType.REG, 0o644, 0, 0,
                                      data=b"x" * 100)])
        sys = _user_sys(host)
        local = make_driver("vfs", sys, "/home/alice/s1")
        shared = make_driver("vfs", sys, "/scratch/s2")
        for d in (local, shared):
            d.unpack_image("base", [layer], preserve_owner=True)
        assert shared.simulated_cost() > 10 * local.simulated_cost()
