"""Figure 6 deploy-phase runtime choices (§4.2: 'originally demonstrated
with Singularity, however any HPC container runtime ... could also be
used')."""

import pytest

from repro.cluster import astra_build_workflow, make_astra

ATSE = "FROM centos:7\nRUN yum install -y gcc openmpi hdf5 atse\n"


@pytest.fixture
def astra(world_multiarch):
    return make_astra(world_multiarch, n_compute=2)


def test_deploy_with_singularity(astra):
    rep = astra_build_workflow(astra, "alice", ATSE, "atse", n_nodes=2,
                               runtime="singularity")
    assert rep.success, rep.phases
    assert "[rank 1] ATSE on astra-cn002 (aarch64)" in rep.deploy.output


def test_deploy_with_charliecloud(astra):
    rep = astra_build_workflow(astra, "alice", ATSE, "atse", n_nodes=2,
                               runtime="charliecloud")
    assert rep.success, rep.phases
    for rank, node in enumerate(astra.compute):
        assert f"[rank {rank}] ATSE on {node.hostname} (aarch64)" \
            in rep.deploy.rank_outputs[rank]


def test_unknown_runtime_rejected(astra):
    from repro.cluster.astra import WorkflowError
    with pytest.raises(WorkflowError):
        astra_build_workflow(astra, "alice", ATSE, "atse",
                             runtime="kubernetes")
