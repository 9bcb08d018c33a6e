"""The four workloads: the paper's own workflows, each a closed loop with
one client.

A workload's constructor does its one-time set-up (a base image tree, a
primed cache).  Ops come in rounds: each round is a seeded permutation of
the workload's op kinds.  :meth:`Workload.prepare` does an op's untimed
per-op set-up (a fresh world, cluster or fleet) and returns the timed call
plus the check of its output.  The seed picks op order, nonces, tags, layer
bytes and pull tapes; the program only ever sees those generated inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.archive import TarArchive, TarMember
from repro.cas import ContentStore
from repro.cluster import (RegistryFleet, astra_build_workflow,
                           distribute_blobs, make_astra, make_deploy_topology,
                           make_machine, make_world)
from repro.containers import ImageConfig, Podman
from repro.core import ChImage
from repro.kernel import FileType
from repro.sim import WorkloadSpec, run_workload

# -- the paper's Dockerfiles -------------------------------------------------

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

FIG5_DOCKERFILE = """\
FROM centos:7
RUN yum install -y openssh-server
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


@dataclass
class Op:
    """One prepared op: the timed call and the checks of its result."""

    run: Callable[[], Any]
    #: "" when the result is what the paper shows, else what is wrong
    check: Callable[[Any], str]
    #: sim-clock latencies the result carries (virtual seconds)
    sim_s: Callable[[Any], list[float]] = field(default=lambda result: [])


class Workload:
    name = ""
    kinds: tuple[str, ...] = ()
    #: ops in a traced run: whole rounds, and >= 1 000 sim samples where
    #: the workload has a sim clock
    trace_ops = 20

    def __init__(self, seed: int):
        self.rng = random.Random(f"{seed}|{self.name}")

    def round(self) -> list[str]:
        kinds = list(self.kinds)
        self.rng.shuffle(kinds)
        return kinds

    def nonce(self) -> str:
        return f"{self.rng.getrandbits(32):08x}"

    def prepare(self, kind: str) -> Op:
        raise NotImplementedError


def _transcript_check(success: bool, markers: tuple[str, ...]):
    def check(result) -> str:
        if result.success != success:
            return f"success={result.success}, paper shows {success}"
        missing = [m for m in markers if m not in result.text]
        return f"transcript lacks {missing}" if missing else ""
    return check


class PaperBuilds(Workload):
    """The seven figure builds, each on a fresh x86_64 world."""

    name = "paper-builds"
    # kind -> (Dockerfile, --force, paper's outcome, transcript markers);
    # "{tag}" is replaced by the op's tag
    FIGURES = {
        "fig2": (FIG2_DOCKERFILE, False, False, ("cpio: chown",)),
        "fig3": (FIG3_DOCKERFILE, False, False,
                 ("E: setgroups 65534 failed",)),
        "fig5": (FIG5_DOCKERFILE, False, False, ("Permission denied",)),
        "fig8": (FIG8_DOCKERFILE, False, True,
                 ("grown in 5 instructions: {tag}",)),
        "fig9": (FIG9_DOCKERFILE, False, True,
                 ("grown in 6 instructions: {tag}",)),
        "fig10": (FIG2_DOCKERFILE, True, True,
                  ("--force: init OK & modified 1 RUN instructions",
                   "grown in 3 instructions: {tag}")),
        "fig11": (FIG3_DOCKERFILE, True, True,
                  ("--force: init OK & modified 2 RUN instructions",
                   "grown in 4 instructions: {tag}")),
    }
    kinds = tuple(FIGURES)
    trace_ops = 21

    def prepare(self, kind: str) -> Op:
        dockerfile, force, success, markers = self.FIGURES[kind]
        tag = f"fig-{self.nonce()}"
        world = make_world(arches=("x86_64",))
        login = make_machine("login1", network=world.network)
        check = _transcript_check(
            success, tuple(m.format(tag=tag) for m in markers))
        if kind == "fig5":
            podman = Podman(login, login.login("bob"), unprivileged=True,
                            ignore_chown_errors=True)
            return Op(lambda: podman.build(dockerfile, tag), check)
        ch = ChImage(login, login.login("alice"))
        return Op(lambda: ch.build(tag=tag, dockerfile=dockerfile,
                                   force=force), check)


class AstraDeploy(Workload):
    """Fig 6: build on the Astra login node, push, deploy on 32 nodes."""

    name = "astra-deploy"
    kinds = ("deploy",)
    N_NODES = 32
    trace_ops = 32          # 32 ops x 32 rank finishes = 1 024 sim samples

    def prepare(self, kind: str) -> Op:
        tag = f"atse-{self.nonce()}"
        cluster = make_astra(make_world(arches=("aarch64",)),
                             n_compute=self.N_NODES)
        return Op(lambda: astra_build_workflow(
                      cluster, "alice", ATSE_DOCKERFILE, tag,
                      n_nodes=self.N_NODES, deploy_strategy="tree"),
                  self.check, lambda rep: list(rep.deploy.rank_finishes))

    def check(self, rep) -> str:
        if not rep.success:
            return f"workflow failed: {rep.phases}"
        if rep.layer_count != 4:
            return f"pushed {rep.layer_count} layers, expected 4"
        outputs = rep.deploy.rank_outputs
        bad = [i for i in range(self.N_NODES)
               if i >= len(outputs) or f"[rank {i}]" not in outputs[i]
               or "(aarch64)" not in outputs[i]]
        return f"ranks {bad} printed the wrong output" if bad else ""


class CacheRebuild(Workload):
    """§6.2.2: cached rebuilds of a 12-RUN Dockerfile on a 3 000-file base."""

    name = "cache-rebuild"
    kinds = ("cold", "warm", "partial")
    trace_ops = 21
    BASE = "bigbase:1"
    N_DIRS, FILES_PER_DIR, N_RUNS = 60, 50, 12

    def __init__(self, seed: int):
        super().__init__(seed)
        world = make_world(arches=("x86_64",))
        login = make_machine("login1", network=world.network)
        self.ch = ChImage(login, login.login("alice"), cache=True)
        self._make_base(self.ch.storage)
        primed = self.ch.build(tag="app", dockerfile=self.dockerfile())
        if not primed.success:
            raise RuntimeError(f"priming build failed:\n{primed.text}")

    def _make_base(self, storage) -> None:
        """A centos:7 userland plus N_DIRS x FILES_PER_DIR library files,
        materialized directly in storage with a pinned digest (as the
        cold-build scaling benchmark does)."""
        storage.pull("centos:7")
        storage.copy("centos:7", self.BASE)
        path, sys = storage.path_of(self.BASE), storage.sys
        for d in range(self.N_DIRS):
            sys.mkdir(f"{path}/pkg{d:03d}", 0o755)
            for f in range(self.FILES_PER_DIR):
                sys.write_file(f"{path}/pkg{d:03d}/lib{f:03d}.so",
                               f"elf {d}/{f} ".encode() * 8)
        storage.set_digest(self.BASE, "sha256:" + "ab" * 32)

    def dockerfile(self, first: str = "", last: str = "") -> str:
        runs = [f"build-step-{i}" for i in range(self.N_RUNS)]
        runs[0] += first
        runs[-1] += last
        return f"FROM {self.BASE}\n" + "".join(
            f"RUN echo {text} > /out{i}.txt\n" for i, text in enumerate(runs))

    def prepare(self, kind: str) -> Op:
        if self.ch.storage.exists("app"):
            self.ch.storage.delete("app")
        nonce = f"-{self.nonce()}"
        first = nonce if kind == "cold" else ""
        last = nonce if kind == "partial" else ""
        hits = {"cold": 0, "warm": self.N_RUNS, "partial": self.N_RUNS - 1}
        expected = {"/out0.txt": f"build-step-0{first}\n",
                    f"/out{self.N_RUNS - 1}.txt":
                        f"build-step-{self.N_RUNS - 1}{last}\n"}
        text = self.dockerfile(first, last)

        def check(result) -> str:
            if not result.success:
                return f"build failed: {result.error}"
            if result.cache_hits != hits[kind]:
                return f"{result.cache_hits} hits, expected {hits[kind]}"
            root = self.ch.storage.path_of("app")
            wrong = [p for p, want in expected.items()
                     if self.ch.sys.read_file(root + p).decode() != want]
            return f"wrong contents in {wrong}" if wrong else ""
        return Op(lambda: self.ch.build(tag="app", dockerfile=text), check)


class _StubNode:
    """A kernel-free broadcast target: a hostname and a blob store."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        self.content_store = ContentStore()


class SiteDistribution(Workload):
    """A fresh sharded fleet per op: pushes, a Zipf pull tape, and a tree
    broadcast to 1 024 stub nodes."""

    name = "site-distribution"
    kinds = ("distribute",)
    N_SHARDS, REPLICAS, N_STUBS = 8, 2, 1024
    IMAGES = tuple(f"app:v{i}" for i in range(16))
    TENANTS = (("alice", 3.0), ("bob", 1.0))
    RATE, DURATION = 150.0, 8.0    # pulls per virtual s, below capacity

    def prepare(self, kind: str) -> Op:
        fleet = RegistryFleet("site", n_shards=self.N_SHARDS,
                              replicas=self.REPLICAS)
        tokens = {}
        for tenant, _ in self.TENANTS:
            tokens[tenant] = f"token-{tenant}-{self.nonce()}"
            fleet.add_tenant(tenant, token=tokens[tenant])
        spec = WorkloadSpec(seed=self.rng.getrandbits(31), rate=self.RATE,
                            duration=self.DURATION, zipf_s=1.1,
                            images=self.IMAGES, tenants=self.TENANTS,
                            tokens=tokens)
        pushes = [(ref, [self._layer("bin", 3000), self._layer("lib", 1500)])
                  for ref in spec.refs()]
        hottest = spec.refs()[0]
        stubs = [_StubNode(f"stub{i:04d}") for i in range(self.N_STUBS)]
        topology = make_deploy_topology(fleet, stubs)

        def run():
            for ref, layers in pushes:
                fleet.push(ref, ImageConfig(), layers,
                           token=tokens[ref.split("/", 1)[0]])
            report = run_workload(fleet, spec)
            digests = fleet.image_blob_digests(hottest)
            distribute_blobs(fleet, digests, stubs, topology,
                             strategy="tree")
            return report, digests

        def check(result) -> str:
            report, digests = result
            if (report.completed, report.dropped, report.failed) != \
                    (report.offered, 0, 0):
                return f"pull tape: {report.as_dict()}"
            missing = sum(not stub.content_store.has(d)
                          for stub in stubs for d in digests)
            return f"{missing} blobs missing on stubs" if missing else ""
        return Op(run, check, lambda result: result[0].latencies)

    def _layer(self, name: str, size: int) -> TarArchive:
        return TarArchive([TarMember(name, FileType.REG, 0o644, 0, 0,
                                     data=self.rng.randbytes(size))])


WORKLOADS = {w.name: w for w in (PaperBuilds, AstraDeploy, CacheRebuild,
                                 SiteDistribution)}
