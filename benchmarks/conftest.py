"""Shared fixtures for the benchmark harness.

Each ``test_fig*``/``test_table*`` file regenerates one figure or table
from the paper's evaluation; ``test_ablation_*`` files measure the design
choices §4/§6 call out.  Timings are of the simulated substrate, so the
meaningful comparisons are *relative* (who wins, by what factor) plus the
qualitative outcomes (who fails, with which error).
"""

import json
import pathlib

import pytest

from repro.cluster import make_machine, make_world

#: where committed benchmark artifacts land (the repo root)
BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent

FIG2_DOCKERFILE = """\
FROM centos:7
RUN echo hello
RUN yum install -y openssh
"""

FIG3_DOCKERFILE = """\
FROM debian:buster
RUN echo hello
RUN apt-get update
RUN apt-get install -y openssh-client
"""

FIG8_DOCKERFILE = """\
FROM centos:7
RUN yum install -y epel-release
RUN yum install -y fakeroot
RUN echo hello
RUN fakeroot yum install -y openssh
"""

FIG9_DOCKERFILE = """\
FROM debian:buster
RUN echo 'APT::Sandbox::User "root";' > /etc/apt/apt.conf.d/no-sandbox
RUN echo hello
RUN apt-get update
RUN apt-get install -y pseudo
RUN fakeroot apt-get install -y openssh-client
"""

ATSE_DOCKERFILE = """\
FROM centos:7
RUN yum install -y gcc
RUN yum install -y openmpi hdf5
RUN yum install -y atse
"""


@pytest.fixture
def world():
    return make_world(arches=("x86_64",))


@pytest.fixture
def world_multiarch():
    return make_world()


@pytest.fixture
def login(world):
    return make_machine("login1", network=world.network)


@pytest.fixture
def alice(login):
    return login.login("alice")


def report(title: str, rows: list[tuple[str, str]]) -> None:
    """Print a paper-vs-measured block (shown with pytest -s or on failure)."""
    width = max(len(k) for k, _ in rows)
    print(f"\n### {title}")
    for key, value in rows:
        print(f"  {key.ljust(width)} : {value}")


def write_bench(name: str, payload: dict) -> pathlib.Path:
    """Write the ``BENCH_<name>.json`` artifact; ``benchmarks/gate.py``
    checks the committed ones against their baselines.  One emitter for
    every ``test_scaling_*`` file: stable key order, 2-space indent,
    trailing newline — so regenerated artifacts diff cleanly."""
    path = BENCH_DIR / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path
