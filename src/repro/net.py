"""The outside world a machine can reach: package repos and registries.

Attached to a kernel as ``kernel.network``.  ``online=False`` models the
air-gapped / restricted-network scenarios that motivate building directly on
HPC resources (paper §2: "resources available only on specific networks or
systems"), and ``reachable_registries`` models license-server-style
network scoping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from .archive import decode_image
from .errors import PackageError, RegistryError
from .kernel import Filesystem

if TYPE_CHECKING:  # pragma: no cover
    from .containers.registry import Registry
    from .distro.repository import PackageUniverse

__all__ = ["Network"]


@dataclass
class Network:
    """One machine's connectivity.

    ``blocked_repo_prefixes`` models network scoping: site-internal
    resources (license servers, private repos) that exist in the universe
    but are unreachable from some vantage points — the §3.2 limitation of
    sandboxed build environments ("may not be able to access needed
    resources, such as private code or licenses").

    One network serves one world, so it also holds the world's mounted
    images (:meth:`decoded_image`): what every node that mounts an image
    blob shares.
    """

    universe: Optional["PackageUniverse"] = None
    registries: dict[str, "Registry"] = field(default_factory=dict)
    online: bool = True
    blocked_repo_prefixes: tuple[str, ...] = ()
    #: image blob digest -> the read-only filesystem decoded from it
    images: dict[str, Filesystem] = field(default_factory=dict, repr=False,
                                          compare=False)

    def decoded_image(self, digest: str, blob: bytes) -> Filesystem:
        """The read-only filesystem of image blob *blob*
        (:func:`~repro.archive.decode_image`), decoded the first time a
        machine on this network mounts it and shared by every later
        mount, so a mount costs O(1) in the image's members.  The caller
        must have verified that *blob* hashes to *digest* (a
        :class:`~repro.cas.ContentStore` ``get`` does), so bytes that do
        not match never enter the memo."""
        fs = self.images.get(digest)
        if fs is None:
            fs = self.images[digest] = decode_image(
                blob, label=f"squashfs:{digest[:19]}")
        return fs

    def _check_reachable(self, repo_id: str) -> None:
        rid = repo_id.removeprefix("repo://")
        for prefix in self.blocked_repo_prefixes:
            if rid.startswith(prefix):
                raise PackageError(
                    f"cannot reach repository {repo_id!r}: host not on "
                    "this network (site-internal resource)")

    def repo(self, repo_id: str):
        if not self.online:
            raise PackageError(f"network unreachable fetching {repo_id!r}")
        if self.universe is None:
            raise PackageError(f"no package universe reachable "
                               f"for {repo_id!r}")
        self._check_reachable(repo_id)
        return self.universe.repo(repo_id)

    def has_repo(self, repo_id: str) -> bool:
        try:
            self._check_reachable(repo_id)
        except PackageError:
            return False
        return (self.online and self.universe is not None
                and self.universe.has_repo(repo_id))

    def registry(self, name: str):
        if not self.online:
            raise RegistryError(f"network unreachable for registry {name!r}")
        try:
            return self.registries[name]
        except KeyError:
            raise RegistryError(f"unknown registry {name!r}")
