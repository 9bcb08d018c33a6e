"""Fig 6 with the §6.2.2 build cache: ``cached`` changes the build only.

The cached and the uncached pipelines share the deploy: the login node
converts the pushed image once, the one image blob is distributed, and
every rank mounts it read-only.  No compute node builds, and the ranks
print what the uncached deploy of the same Dockerfile prints.
"""

import pytest

from repro.cluster import make_astra, make_world
from repro.cluster.astra import run_pipeline
from repro.core import ChImage
from repro.kernel import Syscalls
from tests.conftest import ATSE_DOCKERFILE

N_NODES = 3


def _deploy(runtime, *, cached):
    world = make_world(arches=("aarch64",))
    astra = make_astra(world, n_compute=N_NODES)
    report = run_pipeline(astra, "alice", ATSE_DOCKERFILE, "atse",
                          cached=cached, n_nodes=N_NODES, runtime=runtime)
    return world, astra, report


@pytest.mark.parametrize("runtime", ["charliecloud", "singularity"])
def test_cached_deploy_mounts_the_one_converted_image(monkeypatch, runtime):
    builds, mounts = [], []
    real_build, real_mount = ChImage.build, Syscalls.mount_image

    def recording_build(ch, *args, **kwargs):
        builds.append(ch.machine.hostname)
        return real_build(ch, *args, **kwargs)

    def recording_mount(sys, fs):
        mounts.append((sys.kernel.hostname, fs))
        return real_mount(sys, fs)

    monkeypatch.setattr(ChImage, "build", recording_build)
    monkeypatch.setattr(Syscalls, "mount_image", recording_mount)
    world, astra, report = _deploy(runtime, cached=True)
    assert report.success, report.phases
    assert report.cache_records == 3

    # the login node built once; no compute node built at all
    assert builds == [astra.login.hostname]
    # every rank mounted the one decode of the one distributed blob
    (digest, fs), = world.network.images.items()
    assert [host for host, _ in mounts] \
        == [node.hostname for node in astra.compute]
    assert all(root is fs for _, root in mounts)
    assert report.distribution.blobs == 1
    assert all(node.content_store.has(digest) for node in astra.compute)

    monkeypatch.undo()
    _, _, uncached = _deploy(runtime, cached=False)
    assert uncached.success, uncached.phases
    assert report.deploy.rank_outputs == uncached.deploy.rank_outputs
