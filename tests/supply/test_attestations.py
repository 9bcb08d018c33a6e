"""SBOM and provenance statements: content and parallelism-invariance.

The acceptance property from the issue: attestation blob digests are a
pure function of the build *inputs* (Dockerfile text, installed set,
resolved bases), so two fresh worlds building the same family at
``--parallelism 1`` and ``--parallelism 8`` emit byte-identical
statements.
"""

import json

from repro.cluster import make_machine, make_world
from repro.core import ChImage
from repro.supply import (
    PROVENANCE_FORMAT,
    SBOM_FORMAT,
    build_attestations,
    packages_of,
    provenance_statement,
    sbom_statement,
)
from tests.conftest import FIG2_DOCKERFILE

DIAMOND = """\
FROM centos:7 AS base
RUN echo base > /base.txt

FROM base AS left
RUN yum install -y gcc
RUN echo left > /left.txt

FROM base AS right
RUN yum install -y openssh
RUN echo right > /right.txt

FROM base
COPY --from=left /left.txt /l
COPY --from=right /right.txt /r
RUN echo done
"""


def fresh_builder():
    world = make_world(arches=("x86_64",))
    login = make_machine("login1", network=world.network)
    return ChImage(login, login.login("alice"), force_mode="seccomp")


class TestSbom:
    def test_fig2_sbom_lists_the_install(self):
        ch = fresh_builder()
        assert ch.build(tag="app", dockerfile=FIG2_DOCKERFILE,
                        force=True).success
        sbom = sbom_statement(ch.sys, ch.storage.path_of("app"),
                              image="app")
        assert sbom["format"] == SBOM_FORMAT
        pkgs = packages_of(sbom)
        assert pkgs["openssh"] == "7.4p1"
        assert sbom["package_count"] == len(pkgs) > 1  # base set too
        # canonical: sorted by (origin, name)
        keys = [(p["origin"], p["name"]) for p in sbom["packages"]]
        assert keys == sorted(keys)

    def test_imageless_tree_has_empty_sbom(self):
        ch = fresh_builder()
        ch.sys.mkdir_p("/tmp/empty")
        sbom = sbom_statement(ch.sys, "/tmp/empty")
        assert sbom["package_count"] == 0 and sbom["packages"] == []


class TestProvenance:
    def test_statement_carries_the_chain(self):
        stmt = provenance_statement(DIAMOND, image="app",
                                    subject="chain:xyz")
        assert stmt["format"] == PROVENANCE_FORMAT
        assert stmt["subject"] == "chain:xyz"
        assert len(stmt["stages"]) == 4
        assert stmt["stages"][1]["base"] == "stage:0"
        for stage in stmt["stages"]:
            for ins in stage["instructions"]:
                assert len(ins["chain_key"]) == 64
                int(ins["chain_key"], 16)  # hex chain key
        assert "centos:7" in stmt["bases"]

    def test_unresolvable_base_falls_back_to_placeholder(self):
        def resolve(ref):
            raise KeyError(ref)
        stmt = provenance_statement("FROM centos:7\nRUN echo hi\n",
                                    resolve_base=resolve)
        assert stmt["bases"]["centos:7"] == "image:centos:7"

    def test_force_mode_changes_the_statement(self):
        plain = provenance_statement(FIG2_DOCKERFILE)
        forced = provenance_statement(FIG2_DOCKERFILE, force=True,
                                      force_mode="seccomp")
        assert plain != forced
        assert forced["builder"]["force_mode"] == "seccomp"


class TestParallelismInvariance:
    def test_attestation_digests_identical_across_parallelism(self):
        """Fresh worlds at --parallelism 1 and 8 attest byte-identically
        — scheduling changes when stages run, never what is recorded."""
        digests = []
        for parallelism in (1, 8):
            ch = fresh_builder()
            r = ch.build(tag="app", dockerfile=DIAMOND, force=True,
                         parallel=parallelism)
            assert r.success, r.text
            bundle = build_attestations(ch, "app", DIAMOND, force=True,
                                        force_mode="seccomp")
            # both statements must also be parseable canonical JSON
            assert json.loads(bundle.sbom)["format"] == SBOM_FORMAT
            assert json.loads(bundle.provenance)["format"] \
                == PROVENANCE_FORMAT
            digests.append(bundle.digests())
        assert digests[0] == digests[1]
        assert set(digests[0]) == {"sbom", "provenance"}
