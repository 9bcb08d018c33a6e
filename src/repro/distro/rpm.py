"""RPM: the payload-unpack engine whose ``chown(2)`` is Figure 2's failure.

rpm unpacks the cpio payload *as the calling user believes itself to be*:
every file is chowned to its packaged owner.  In a Type II container those
IDs are mapped, so the calls succeed; in a plain Type III container any
non-root owner is unmapped and chown fails — ``cpio: chown`` — unless a
fakeroot wrapper is interposed.
"""

from __future__ import annotations


from ..errors import KernelError, PackageError
from ..shell import ExecContext, run_shell
from ..userdb import UserDb
from .packages import Package, PackageDb, PackageFile

__all__ = ["CpioError", "ScriptletError", "RPM_DB_PATH", "unpack_package",
           "rpm_install"]

RPM_DB_PATH = "/var/lib/rpm/packages"


class CpioError(PackageError):
    """Payload unpack failed — carries the offending file and operation."""

    def __init__(self, pkg: Package, path: str, op: str, err: KernelError):
        self.pkg = pkg
        self.path = path
        self.op = op
        self.err = err
        super().__init__(
            f"unpacking of archive failed on file {path}: cpio: {op}"
        )


class ScriptletError(PackageError):
    """A %pre/%post scriptlet exited non-zero."""

    def __init__(self, pkg: Package, which: str, status: int):
        self.pkg = pkg
        self.which = which
        self.status = status
        super().__init__(f"{pkg.name}: {which} scriptlet failed, exit status "
                         f"{status}")


def _run_scriptlet(ctx: ExecContext, pkg: Package, script: str | None,
                   which: str) -> None:
    if not script:
        return
    status = run_shell(ctx.child(), script)
    if status != 0:
        raise ScriptletError(pkg, which, status)


def _install_one_file(ctx: ExecContext, f: PackageFile, db: UserDb) -> None:
    sys = ctx.sys
    parent = f.path.rsplit("/", 1)[0] or "/"
    sys.mkdir_p(parent)
    if f.ftype == "d":
        if not sys.exists(f.path):
            sys.mkdir(f.path, 0o755)
    elif f.ftype == "l":
        if not sys.exists(f.path):
            sys.symlink(f.target, f.path)
        return  # symlinks: no chown/chmod in this model
    else:
        sys.write_file(f.path, f.content,
                       exe=(f.exe_impl, f.exe_arch, f.exe_static))

    user = db.user_by_name(f.owner)
    group = db.group_by_name(f.group)
    uid = user.uid if user is not None else 0
    gid = group.gid if group is not None else 0
    # cpio always restores ownership — this is THE failing call of Figure 2.
    sys.chown(f.path, uid, gid)
    sys.chmod(f.path, f.mode)
    if f.caps is not None:
        sys.setxattr(f.path, "security.capability", f.caps.encode())


def unpack_package(ctx: ExecContext, pkg: Package) -> None:
    """Unpack one package's payload, raising :class:`CpioError` with the
    same operation names rpm's cpio reports."""
    db = UserDb.load(ctx.sys)
    for f in sorted(pkg.files, key=lambda x: x.path):
        try:
            _install_one_file(ctx, f, db)
        except KernelError as err:
            op = {"chown": "chown", "setxattr": "cap_set_file",
                  "chmod": "chmod", "mknod": "mknod"}.get(err.syscall, "write")
            raise CpioError(pkg, f.path, op, err) from err


def rpm_install(ctx: ExecContext, pkg: Package, *, run_scripts: bool = True
                ) -> None:
    """The full rpm install transaction for one package."""
    if run_scripts:
        _run_scriptlet(ctx, pkg, pkg.pre_script, "%pre")
    unpack_package(ctx, pkg)
    if run_scripts:
        _run_scriptlet(ctx, pkg, pkg.post_script, "%post")
    PackageDb(ctx.sys, RPM_DB_PATH).add(pkg)
