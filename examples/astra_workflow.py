#!/usr/bin/env python3
"""The Astra container DevOps workflow (paper §4.2, Figure 6).

Astra is aarch64; images built on x86-64 laptops do not run there.  This
example shows:

1. the failing "build on your laptop" anti-pattern, and
2. the Figure 6 workflow: rootless podman build on Astra's login node →
   push to the site GitLab registry → parallel deployment on compute nodes
   with Charliecloud under the resource manager.

Run:  python examples/astra_workflow.py
"""

from repro.cluster import (
    astra_build_workflow,
    laptop_build_workflow,
    make_astra,
    make_world,
)

ATSE_DOCKERFILE = """\
FROM centos:7
RUN yum install -y gcc
RUN yum install -y openmpi hdf5
RUN yum install -y atse
"""


def main() -> None:
    world = make_world()  # multi-arch hub: x86_64 + aarch64 base images
    astra = make_astra(world, n_compute=4)

    print("=" * 70)
    print("Anti-pattern: build the ATSE stack on an x86-64 laptop")
    print("=" * 70)
    report = laptop_build_workflow(astra, "alice", ATSE_DOCKERFILE,
                                   "atse-laptop", n_nodes=2)
    for phase in report.phases:
        print(f"  {phase}")
    print(f"  first rank output: "
          f"{report.deploy.rank_outputs[0].strip()}")
    assert not report.success

    print()
    print("=" * 70)
    print("Figure 6 workflow: build ON Astra, push, deploy in parallel")
    print("=" * 70)
    report = astra_build_workflow(astra, "alice", ATSE_DOCKERFILE, "atse",
                                  n_nodes=4)
    for phase in report.phases:
        print(f"  {phase}")
    print()
    print("podman build transcript (tail):")
    for line in report.build_transcript.splitlines()[-6:]:
        print(f"    {line}")
    print()
    print("parallel application output:")
    print(report.deploy.output, end="")
    assert report.success

    print()
    print(f"registry now serves: "
          f"{world.site_registry.repositories()} "
          f"(persistent manifests: "
          f"{len(world.site_registry.history('alice/atse'))})")


if __name__ == "__main__":
    main()
