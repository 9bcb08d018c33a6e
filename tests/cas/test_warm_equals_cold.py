"""A cached rebuild makes the image a cold build makes (§6.2.2).

Each builder builds one Dockerfile cold, then again with every RUN a
cache hit, and the two trees must agree member for member: type, mode,
owner, xattrs, data and link target.  The instructions leave what a
naive diff replay loses: a FIFO, a file capability (ping's
``security.capability``) and a directory owned by a non-root ID.
"""

import pytest

from repro.archive import TarArchive
from repro.cluster import make_machine, make_world
from repro.containers import Podman
from repro.core import ChImage

DOCKERFILE = """\
FROM centos:7
RUN mknod /p p
RUN yum install -y iputils
RUN mkdir /dd && chown 5:5 /dd
"""


def _members(sys, tree: str) -> dict:
    return {m.path: (m.ftype, m.mode, m.uid, m.gid, m.xattrs, m.data,
                     m.target)
            for m in TarArchive.pack(sys, tree)}


def _chimage(login, alice):
    ch = ChImage(login, alice, cache=True, force_mode="seccomp")

    def build(tag):
        result = ch.build(tag=tag, dockerfile=DOCKERFILE, force=True)
        assert result.success, result.text
        return result.cache_hits, _members(ch.sys, ch.storage.path_of(tag))
    return build


def _podman(login, alice):
    podman = Podman(login, alice)

    def build(tag):
        result = podman.build(DOCKERFILE, tag)
        assert result.success, result.text
        return result.cache_hits, _members(podman.buildah.driver.sys,
                                           podman.buildah.image_tree(tag))
    return build


@pytest.mark.parametrize("builder", [_chimage, _podman],
                         ids=["chimage-seccomp", "podman"])
def test_warm_build_reproduces_the_cold_tree(login, alice, builder):
    build = builder(login, alice)
    cold_hits, cold = build("cold")
    warm_hits, warm = build("warm")
    assert (cold_hits, warm_hits) == (0, 3)
    assert warm == cold
