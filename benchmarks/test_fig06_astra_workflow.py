"""Figure 6: the Astra container build workflow — podman build on the login
node, push to the GitLab registry, parallel deploy with an HPC runtime."""

import itertools

from repro.cluster import astra_build_workflow, laptop_build_workflow, make_astra

from .conftest import ATSE_DOCKERFILE, report


def test_fig06_astra_workflow(benchmark, world_multiarch):
    astra = make_astra(world_multiarch, n_compute=4)
    tags = (f"atse-{i}" for i in itertools.count())

    def workflow():
        return astra_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                    next(tags), n_nodes=4)

    rep = benchmark(workflow)
    assert rep.success
    assert rep.layer_count == 4
    for rank in range(4):
        assert f"[rank {rank}]" in rep.deploy.output
        assert "(aarch64)" in rep.deploy.output

    report("Figure 6: Astra workflow", [
        ("build", "rootless podman on astra-login1 (aarch64): ok"),
        ("push", f"{rep.pushed_ref} ({rep.layer_count} layers)"),
        ("deploy", f"{len(rep.deploy.nodes)} nodes via scheduler + "
                   "Charliecloud: ok"),
        ("paper", "podman build -> GitLab registry -> parallel launch"),
    ])


def test_fig06_contrast_laptop_build_fails(world_multiarch):
    """The motivating failure: the same workflow from an x86-64 laptop."""
    astra = make_astra(world_multiarch, n_compute=2)
    rep = laptop_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                "atse-x86", n_nodes=2)
    assert rep.build_ok and rep.push_ok
    assert not rep.deploy.success
    assert "Exec format error" in rep.deploy.output
