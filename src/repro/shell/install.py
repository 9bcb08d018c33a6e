"""Helper to install executable files into a simulated filesystem tree."""

from __future__ import annotations

from ..kernel import Syscalls

__all__ = ["install_binary", "install_script"]


def install_binary(
    sys: Syscalls,
    path: str,
    impl: str,
    *,
    arch: str = "noarch",
    static: bool = False,
    mode: int = 0o755,
    content: bytes = b"\x7fELF simulated binary",
) -> None:
    """Create an executable at *path* dispatching to registered impl *impl*."""
    parent = path.rsplit("/", 1)[0] or "/"
    sys.mkdir_p(parent)
    sys.write_file(path, content, exe=(impl, arch, static))
    sys.chmod(path, mode)


def install_script(sys: Syscalls, path: str, body: str, *,
                   mode: int = 0o755) -> None:
    """Create a ``#!/bin/sh`` script at *path*."""
    parent = path.rsplit("/", 1)[0] or "/"
    sys.mkdir_p(parent)
    text = body if body.startswith("#!") else "#!/bin/sh\n" + body
    sys.write_file(path, text.encode())
    sys.chmod(path, mode)
