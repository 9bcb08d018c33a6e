"""A pull whose unpack fails leaves nothing behind.

The image stores unpack a pulled image's layers into a fresh tree.  When
a layer cannot be applied (here an unprivileged user meets a device
member), the partial tree must go too: otherwise ch-image's next pull
returns it as the image, Buildah's next pull fails with ``already in
storage`` instead of the real error, and Enroot's next import unpacks
over the leftovers.
"""

import pytest

from repro.archive import TarArchive, TarMember
from repro.cluster import make_machine
from repro.containers import Podman
from repro.containers.hpc_runtimes import Enroot
from repro.containers.oci import ImageConfig
from repro.containers.registry import Registry
from repro.core import ChImage
from repro.errors import BuildError, Errno, KernelError
from repro.kernel import FileType
from repro.net import Network

SITE = "site.example"
REF = f"{SITE}/alice/dev:v1"

#: ``a``, then a device the unprivileged unpack cannot create, then ``z``
LAYERS = [
    [TarMember("a", FileType.REG, 0o644, 0, 0, data=b"a")],
    [TarMember("dev", FileType.CHR, 0o666, 0, 0, rdev=(1, 3))],
    [TarMember("z", FileType.REG, 0o644, 0, 0, data=b"z")],
]


def _login():
    registry = Registry(SITE)
    registry.push(REF, ImageConfig(), [TarArchive(m) for m in LAYERS])
    return make_machine("login1",
                        network=Network(registries={SITE: registry}))


def _errno(exc: BaseException):
    while not isinstance(exc, KernelError):
        exc = exc.__cause__
    return exc.errno


def test_ch_image_pull_leaves_no_partial_tree():
    login = _login()
    ch = ChImage(login, login.login("alice"))
    path = ch.storage.path_of(REF)
    for _ in range(2):
        with pytest.raises(KernelError) as exc:
            ch.pull(REF)
        assert exc.value.errno is Errno.EPERM
        assert not ch.sys.exists(path)


def test_buildah_pull_leaves_no_partial_tree():
    login = _login()
    podman = Podman(login, login.login("alice"))
    driver = podman.buildah.driver
    path = driver.image_path(REF)
    for _ in range(2):
        with pytest.raises(BuildError) as exc:
            podman.pull(REF)
        assert _errno(exc.value) is Errno.EPERM
        assert not driver.sys.exists(path)


def test_enroot_import_leaves_no_partial_tree():
    login = _login()
    enroot = Enroot(login, login.login("alice"))
    for _ in range(2):
        with pytest.raises(KernelError) as exc:
            enroot.import_image(REF)
        assert exc.value.errno is Errno.EPERM
        assert enroot.sys.readdir(enroot.data_dir) == []
