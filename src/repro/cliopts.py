"""``--opt V`` / ``--opt=V`` parsing shared by the string-argv CLI shims
(``astra-deploy``, ``astra-matrix``, ``ch-image build``).

Each helper reads the option at ``argv[i]`` and returns
``(value, new_i, error)``: *new_i* indexes the last argument consumed,
and *error* is a ready-to-print message (empty on success).
"""

from __future__ import annotations

__all__ = ["int_opt", "str_opt"]


def str_opt(argv: list[str], i: int, prog: str) -> tuple[str, int, str]:
    """A string option; an error when ``--opt`` is the last argument."""
    name, eq, value = argv[i].partition("=")
    if eq:
        return value, i, ""
    i += 1
    if i >= len(argv):
        return "", i, f"{prog}: {name} needs a value"
    return argv[i], i, ""


def int_opt(argv: list[str], i: int, prog: str, *, minimum: int,
            what: str = "") -> tuple[int, int, str]:
    """An integer option of at least *minimum*; the error calls it *what*
    (default ``--opt value``)."""
    what = what or f"{argv[i].partition('=')[0]} value"
    value, i, _ = str_opt(argv, i, prog)
    try:
        n = int(value)
    except ValueError:
        n = minimum - 1
    if n < minimum:
        return 0, i, f"{prog}: bad {what} {value!r}"
    return n, i, ""
