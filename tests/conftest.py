"""Shared fixtures for integration-level tests, and the one definition
of each paper figure's Dockerfile (``benchmarks/`` imports them too)."""

import pathlib

import pytest

from repro.cluster import make_machine, make_world

#: directory holding the golden trace transcripts (see
#: tests/test_golden_transcripts.py and docs/OBSERVABILITY.md)
GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate tests/golden/*.json from the current trace "
             "digests instead of comparing against them")

#: the paper's Figure 2 Dockerfile
FIG2_DOCKERFILE = """\
FROM centos:7
RUN echo hello
RUN yum install -y openssh
"""

#: the paper's Figure 3 Dockerfile
FIG3_DOCKERFILE = """\
FROM debian:buster
RUN echo hello
RUN apt-get update
RUN apt-get install -y openssh-client
"""

#: the paper's Figure 5 Dockerfile (Podman unprivileged mode)
FIG5_DOCKERFILE = """\
FROM centos:7
RUN yum install -y openssh-server
"""

#: the paper's Figure 8 Dockerfile (manual fakeroot, CentOS)
FIG8_DOCKERFILE = """\
FROM centos:7
RUN yum install -y epel-release
RUN yum install -y fakeroot
RUN echo hello
RUN fakeroot yum install -y openssh
"""

#: the paper's Figure 9 Dockerfile (manual workarounds, Debian)
FIG9_DOCKERFILE = """\
FROM debian:buster
RUN echo 'APT::Sandbox::User "root";' > /etc/apt/apt.conf.d/no-sandbox
RUN echo hello
RUN apt-get update
RUN apt-get install -y pseudo
RUN fakeroot apt-get install -y openssh-client
"""

#: the Figure 6 ATSE image built on Astra (one layer per RUN)
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


@pytest.fixture
def golden_check(request):
    """Compare a trace digest against its stored golden transcript.

    ``pytest --update-golden`` rewrites the stored file instead; the diff
    then shows up in review like any other behaviour change.
    """
    from repro.obs.export import dump_golden

    def check(name: str, digest: dict) -> None:
        path = GOLDEN_DIR / f"{name}.json"
        text = dump_golden(digest)
        if request.config.getoption("--update-golden"):
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
        assert path.exists(), \
            f"no golden transcript {path.name}; run pytest --update-golden"
        expected = path.read_text()
        assert text == expected, (
            f"trace digest diverged from tests/golden/{path.name}; if the "
            f"change is intentional, rerun with --update-golden and review "
            f"the diff")

    return check
