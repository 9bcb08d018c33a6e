"""A differential build oracle for ``ch-image --force=seccomp``.

Hypothesis generates small Dockerfiles: ``FROM centos:7`` or ``FROM
debian:buster``; RUNs of ``echo > file``, ``mkdir``, ``ln -s``, ``chmod``
and ``chown``; a ``yum``/``apt-get install`` of a catalog subset; ``COPY``
from the build context; and a two-stage graph with ``COPY --from``.  Each
Dockerfile ends in a probe RUN that lists every file it made, so the
probe's ``ls -l`` shows the ownership and modes a build sees.  Every
spec is built several ways, and the results must agree:

(a) cache off, cold, warm, and partly warm (the same ``ChImage`` with the
    last RUN changed) push identical flattened trees, and the RUNs that
    run print identical lines;
(b) ``build_parallel`` at 1 and at 4 gives the digest of the sequential
    build;
(c) rootless Podman (Type II) pushes the tree ``ch-image --force=seccomp``
    (Type III) pushes, once ownership is flattened and ``security.*``
    xattrs are dropped.  Those xattrs are the one divergence: only Type
    II's user namespace owns its filesystem, so only it can store a file
    capability; the seccomp filter fakes the ``setxattr``;
(d) without ``--force`` the same build fails at its first privileged
    instruction, on the paper's lines: Fig 2's ``cpio: chown``, Fig 3's
    ``setgroups 65534``; a spec with no privileged instruction builds
    the same tree with or without ``--force``.
"""

import re
from dataclasses import replace
from typing import NamedTuple

from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.archive import TarArchive
from repro.cluster import make_machine, make_world
from repro.containers import Podman
from repro.core import ChImage, build_parallel, push_image
from repro.kernel import Kernel, Syscalls, make_ext4

SITE = "gitlab.example.gov"
CONTEXT = "/home/alice/ctx"

#: distro -> (base image, install command prefix)
BASES = {
    "centos": ("centos:7", "yum install -y"),
    "debian": ("debian:buster", "apt-get update && apt-get install -y"),
}
#: distro -> catalog package -> a file it installs (for the probe's ls)
PACKAGES = {
    "centos": {"openssh": "/usr/libexec/openssh/ssh-keysign",
               "iputils": "/usr/bin/ping",
               "sash": "/opt/sash/sash.dat",
               "gcc": "/usr/bin/gcc",
               "openmpi": "/usr/lib64/openmpi/lib/libmpi.so"},
    "debian": {"openssh-client": "/usr/lib/openssh/ssh-keysign",
               "xauth": "/usr/bin/xauth",
               "openmpi-bin": "/usr/bin/mpirun"},
}
#: the lines an unforced Type III build fails on, by cause
FIG2_LINE = ("error: unpacking of archive failed on file "
             "/usr/libexec/openssh/ssh-keysign: cpio: chown")
FIG3_LINE = ("E: setgroups 65534 failed - setgroups "
             "(1: Operation not permitted)")
#: catalog package -> the file it gives a capability (``setcap``)
CAPABLE = {"iputils": "usr/bin/ping",
           "openssh-client": "usr/lib/openssh/ssh-keysign"}
UNFORCED_LINES = {
    "openssh": FIG2_LINE,
    "iputils": ("error: unpacking of archive failed on file "
                "/usr/bin/ping: cpio: cap_set_file"),
    "sash": ("chown: changing ownership of '/opt/sash/sash.dat': "
             "Invalid argument"),
}
#: every mode keeps the owner's rwx, so the unprivileged pack can walk it
MODES = ("755", "700", "2755", "4755", "1777")
OWNERS = ("0:0", "5:7", "65534:65534")
TEXTS = ("hello", "a b", "x1")


class Spec(NamedTuple):
    distro: str
    body: str                   # the Dockerfile without its probe RUN
    probe: list[str]            # the paths the probe lists
    context: dict[str, bytes]   # build-context file name -> bytes
    packages: list[str]
    two_stage: bool

    def dockerfile(self, last: str = "") -> str:
        """The body, then *last* or the probe RUN."""
        return self.body + (
            last or "RUN ls -l " + " ".join(self.probe or ["/"])) + "\n"


@st.composite
def _ops(draw, prefix: str, sources: list[str]):
    """RUN/COPY lines of one stage; the files they make go in /o.
    *sources* names files an earlier stage made (for ``COPY --from``)."""
    lines, made, context = [], [], {}
    for i in range(draw(st.integers(0, 4))):
        kinds = ["echo", "mkdir", "copy"] + (
            ["ln", "chmod", "chown"] if made else []) + (
            ["copy-from"] if sources else [])
        kind = draw(st.sampled_from(kinds))
        name = f"/o/{prefix}{kind[0]}{i}"
        if kind == "echo":
            lines.append(f"RUN mkdir -p /o && echo "
                         f"{draw(st.sampled_from(TEXTS))} > {name}")
        elif kind == "mkdir":
            lines.append(f"RUN mkdir -p {name}")
        elif kind == "copy":
            context[f"{prefix}{i}"] = draw(st.sampled_from(TEXTS)).encode()
            lines.append(f"COPY {CONTEXT}/{prefix}{i} {name}")
        elif kind == "copy-from":
            lines.append(f"COPY --from=build {draw(st.sampled_from(sources))}"
                         f" {name}k")
            name += "k"
        elif kind == "ln":
            lines.append(f"RUN ln -s {draw(st.sampled_from(made))} {name}")
        elif kind == "chmod":
            lines.append(f"RUN chmod {draw(st.sampled_from(MODES))} "
                         f"{draw(st.sampled_from(made))}")
            continue
        else:
            lines.append(f"RUN chown {draw(st.sampled_from(OWNERS))} "
                         f"{draw(st.sampled_from(made))}")
            continue
        made.append(name)
    return lines, made, context


@st.composite
def specs(draw):
    distro = draw(st.sampled_from(sorted(BASES)))
    base, install = BASES[distro]
    lines, context = [], {}
    sources: list[str] = []
    two_stage = draw(st.booleans())
    if two_stage:
        first, made, ctx1 = draw(_ops("s", []))
        sources = [name for name in made if name[4] in "ec"]  # files
        lines += [f"FROM {base} AS build"] + first + [""]
        context.update(ctx1)
    packages = draw(st.lists(st.sampled_from(sorted(PACKAGES[distro])),
                             unique=True, max_size=2))
    lines.append(f"FROM {base}")
    if packages:
        lines.append(f"RUN {install} {' '.join(packages)}")
    ops, made, ctx2 = draw(_ops("", sources))
    context.update(ctx2)
    probe = sorted(made) + [PACKAGES[distro][p] for p in packages]
    return Spec(distro, "\n".join(lines + ops) + "\n", probe, context,
                packages, two_stage)


_DATE = re.compile(r" [A-Z][a-z]{2} [ \d]\d \d\d:\d\d ")


def _lines(result, *, last_only=False) -> list[str]:
    """The transcript with ls dates (the build clock) masked and without
    the line naming the tag; with *last_only*, just what the final RUN
    printed."""
    lines = [_DATE.sub(" DATE ", line) for line in result.transcript
             if not line.startswith("grown in ")]
    if last_only:
        start = max(i for i, line in enumerate(lines)
                    if line == "workarounds: RUN: seccomp")
        end = max(i for i, line in enumerate(lines)
                  if line.startswith("--force: init OK"))
        lines = lines[start + 1:end]
    return lines


def _without_security(member):
    return replace(member, xattrs=tuple(
        x for x in member.xattrs if not x[0].startswith("security.")))


def _unpacked(layers) -> dict:
    """The tree *layers* make when unpacked in order, by path."""
    sys = Syscalls(Kernel(make_ext4()).init_process)
    sys.mkdir_p("/img")
    for layer in layers:
        layer.apply_diff(sys, "/img")
    return {m.path: m.flattened() for m in TarArchive.pack(sys, "/img")}


class _Site:
    """A fresh world and login node; builds push to the site registry."""

    def __init__(self, spec: Spec):
        self.world = make_world(arches=("x86_64",))
        self.login = make_machine("login1", network=self.world.network)
        self.alice = self.login.login("alice")
        sys = Syscalls(self.alice)
        sys.mkdir_p(CONTEXT)
        for name, data in spec.context.items():
            sys.write_file(f"{CONTEXT}/{name}", data)

    def chimage(self, **kwargs) -> ChImage:
        return ChImage(self.login, self.alice, force_mode="seccomp",
                       **kwargs)

    def pushed(self, push, tag: str) -> dict:
        """Push *tag* with *push*, pull it back, and unpack it."""
        push(tag, f"{SITE}/alice/oracle:{tag}")
        _, layers = self.world.site_registry.pull(f"alice/oracle:{tag}")
        return _unpacked(layers)

    def pushed_ch(self, ch: ChImage, tag: str) -> dict:
        return self.pushed(lambda t, dest: push_image(ch.storage, t, dest),
                           tag)


def _build(ch, tag, dockerfile, force=True):
    result = ch.build(tag=tag, dockerfile=dockerfile, force=force)
    assert result.success, result.text
    return result


def _oracle(spec: Spec):
    site = _Site(spec)
    dockerfile = spec.dockerfile()

    # (a) cache off, cold, warm and partly warm
    off_ch = site.chimage()
    off = _build(off_ch, "off", dockerfile)
    tree = site.pushed_ch(off_ch, "off")
    probe_lines = _lines(off, last_only=True)
    cached = site.chimage(cache=True)
    cold = _build(cached, "cold", dockerfile)
    assert _lines(cold) == _lines(off)
    assert site.pushed_ch(cached, "cold") == tree
    warm = _build(cached, "warm", dockerfile)
    assert warm.cache_hits == sum(line.startswith(("RUN", "COPY"))
                                  for line in dockerfile.splitlines())
    assert site.pushed_ch(cached, "warm") == tree
    partly = site.chimage(cache=True)
    _build(partly, "before", spec.dockerfile("RUN echo probe"))
    partial = _build(partly, "partial", dockerfile)
    assert partial.cache_hits == warm.cache_hits - 1
    assert _lines(partial, last_only=True) == probe_lines
    assert site.pushed_ch(partly, "partial") == tree

    # (b) the stage DAG at 1 and at 4 workers: the sequential digest
    digests = set()
    for n in (1, 4):
        ch = site.chimage()
        result = build_parallel(ch, tag=f"par{n}", dockerfile=dockerfile,
                                force=True, parallelism=n)
        assert result.success, result.text
        digests.add(TarArchive.pack(ch.sys, ch.storage.path_of(
            f"par{n}")).digest())
    assert digests == {TarArchive.pack(
        off_ch.sys, off_ch.storage.path_of("off")).digest()}

    # (c) Type II (rootless Podman) against Type III.  Buildah builds
    # single-stage Dockerfiles only.
    if not spec.two_stage:
        podman = Podman(site.login, site.alice)
        result = podman.build(dockerfile, "podman")
        assert result.success, result.text
        type2 = site.pushed(podman.push, "podman")
        assert {path: _without_security(m) for path, m in type2.items()} \
            == tree
        # the divergence: file capabilities, on Type II only
        assert not [m for m in tree.values() if m != _without_security(m)]
        capable = {path for path, m in type2.items()
                   if m != _without_security(m)}
        assert capable == {CAPABLE[p] for p in spec.packages
                           if p in CAPABLE}
        assert {name for path in capable for name, _ in type2[path].xattrs
                if name.startswith("security.")} <= {"security.capability"}

    # (d) without --force
    plain = site.chimage()
    result = plain.build(tag="plain", dockerfile=dockerfile)
    expected = _unforced_lines(spec)
    if expected is None:
        assert result.success, result.text
        assert site.pushed_ch(plain, "plain") == tree
    else:
        assert not result.success
        assert expected & set(result.transcript), (expected, result.text)


def _unforced_lines(spec: Spec):
    """The lines the first privileged instruction fails on without
    --force, or None if the spec has none."""
    for line in spec.body.splitlines():
        if line.startswith(("RUN yum", "RUN apt-get")):
            if spec.distro == "debian":
                return {FIG3_LINE}
            failing = {UNFORCED_LINES[p] for p in spec.packages
                       if p in UNFORCED_LINES}
            if failing:
                return failing
        elif line.startswith("RUN chown") and \
                not line.startswith("RUN chown 0:0"):
            path = line.split()[-1]
            return {f"chown: changing ownership of '{path}': "
                    "Invalid argument"}
    return None


@settings(max_examples=25, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(specs())
# a chowned file listed after a cache hit (the old lie database's
# divergence), ping's file capability, and a two-stage Debian build
@example(Spec("centos",
              "FROM centos:7\nRUN yum install -y openssh\n"
              "RUN mkdir -p /o && echo hello > /o/e0\n"
              "RUN chown 5:7 /o/e0\n",
              ["/o/e0", "/usr/libexec/openssh/ssh-keysign"], {},
              ["openssh"], False))
@example(Spec("centos", "FROM centos:7\nRUN yum install -y iputils\n",
              ["/usr/bin/ping"], {}, ["iputils"], False))
@example(Spec("debian",
              "FROM debian:buster AS build\n"
              "RUN mkdir -p /o && echo x1 > /o/se0\n\n"
              "FROM debian:buster\n"
              "RUN apt-get update && apt-get install -y openssh-client\n"
              "COPY --from=build /o/se0 /o/c0k\n",
              ["/o/c0k", "/usr/lib/openssh/ssh-keysign"], {},
              ["openssh-client"], True))
def test_force_oracle(spec):
    _oracle(spec)
