"""A ch-image command-line front end.

``ch_image_cli(ch, argv)`` mirrors the CLI the paper's transcripts invoke:
``ch-image build [--force] [--trace] [--profile] [--parallel N]
[--fault-plan SPEC] [--retries N] -t TAG -f DOCKERFILE .``, plus pull/
push/list/delete, ``ch-image build-cache [--tree|--gc|--reset]`` and
``build-cache {export|import} REF`` for the §6.2.2 build cache, and
``ch-image trace [--audit|--json]`` to report on the last traced build.
Returns (exit_status, output_text).
"""

from __future__ import annotations

import json

from ..cliopts import int_opt, str_opt
from ..containers.oci import ImageRef
from ..errors import KernelError, ReproError
from ..obs.export import trace_to_dict
from ..obs.report import privilege_audit, render_span_tree, render_summary
from ..sim.profile import COUNTERS, render_counter_table
from .builder import ChImage
from .images import DEFAULT_HUB
from .push import push_image

__all__ = ["ch_image_cli"]

_PROG = "ch-image"


def ch_image_cli(ch: ChImage, argv: list[str]) -> tuple[int, str]:
    if not argv:
        return 1, ("usage: ch-image {audit|build|build-cache|pull|push|"
                   "list|delete|trace} ...")
    command, *args = argv

    if command == "build":
        force = False
        force_mode = None
        parallel = 1
        fault_spec = None
        retry_budget = 8
        profile = False
        tag = ""
        dockerfile_path = ""
        rest = []
        i = 0
        while i < len(args):
            a = args[i]
            name = a.partition("=")[0]
            err = ""
            if a == "--force":
                force = True
            elif a.startswith("--force="):
                force = True
                force_mode = a.split("=", 1)[1]
                if force_mode not in ("fakeroot", "seccomp"):
                    return 1, f"ch-image: unknown --force mode {force_mode!r}"
            elif name == "--parallel":
                parallel, i, err = int_opt(args, i, _PROG, minimum=1)
            elif name == "--fault-plan":
                fault_spec, i, err = str_opt(args, i, _PROG)
            elif name == "--retries":
                retry_budget, i, err = int_opt(args, i, _PROG, minimum=0)
            elif a == "--trace":
                ch.enable_tracing()
            elif a == "--profile":
                profile = True
            elif a == "-t":
                tag, i, err = str_opt(args, i, _PROG)
            elif a == "-f":
                dockerfile_path, i, err = str_opt(args, i, _PROG)
            else:
                rest.append(a)
            if err:
                return 1, err
            i += 1
        if not tag or not dockerfile_path:
            return 1, "ch-image build: need -t TAG and -f DOCKERFILE"
        try:
            dockerfile = ch.sys.read_file(dockerfile_path).decode()
        except KernelError as err:
            return 1, f"ch-image: can't read {dockerfile_path}: " \
                      f"{err.strerror}"
        fault_plan = None
        if fault_spec is not None:
            from ..sim import FaultPlan, FaultPlanError
            if parallel == 1:
                return 1, ("ch-image: --fault-plan needs --parallel "
                           "(worker crashes need the build farm)")
            try:
                fault_plan = FaultPlan.parse(fault_spec)
            except FaultPlanError as err:
                return 1, f"ch-image: {err}"
        saved_mode = ch.force_mode
        if force_mode is not None:
            ch.force_mode = force_mode
        before = COUNTERS.snapshot() if profile else None
        try:
            result = ch.build(tag=tag, dockerfile=dockerfile, force=force,
                              parallel=parallel, fault_plan=fault_plan,
                              retry_budget=retry_budget)
        finally:
            ch.force_mode = saved_mode
        text = result.text
        if profile:
            table = render_counter_table(COUNTERS.delta(before),
                                         title="build profile")
            text = f"{text}\n{table}" if text else table
        return (0 if result.success else 1), text

    if command == "pull":
        if not args:
            return 1, "ch-image pull: need an image reference"
        try:
            path = ch.pull(args[0])
        except ReproError as err:
            return 1, f"ch-image: pull failed: {err}"
        return 0, f"pulled {args[0]} to {path}"

    if command == "push":
        if len(args) < 2:
            return 1, "ch-image push: need IMAGE DEST"
        try:
            manifest = push_image(ch.storage, args[0], args[1])
        except (ReproError, KernelError) as err:
            return 1, f"ch-image: push failed: {err}"
        return 0, (f"pushed {args[0]} to {args[1]} "
                   f"({manifest.layer_count} layer)")

    if command in ("list", "list-images"):
        return 0, "\n".join(ch.storage.list_images())

    if command in ("delete", "rm"):
        if not args:
            return 1, "ch-image delete: need an image name"
        try:
            ch.storage.delete(args[0])
        except KernelError as err:
            return 1, f"ch-image: delete failed: {err.strerror}"
        if ch.cache is not None:
            # the image's chain is no longer tag-reachable; the records
            # stay until ``build-cache --gc`` sweeps them
            ch.cache.untag(args[0])
        return 0, f"deleted {args[0]}"

    if command == "build-cache":
        cache = ch.cache
        if cache is None:
            return 1, ("ch-image build-cache: the build cache is not "
                       "enabled (construct ChImage with cache=True)")
        if "--tree" in args:
            return 0, cache.tree()
        if "--gc" in args:
            res = cache.gc()
            return 0, (f"garbage collected: {res['records_dropped']} "
                       f"records, {res['blobs_reclaimed']} blobs "
                       f"({res['bytes_reclaimed']} bytes)")
        if "--reset" in args:
            res = cache.reset()
            return 0, (f"reset: dropped {res['records_dropped']} records, "
                       f"{res['blobs_reclaimed']} blobs")
        if args and args[0] in ("export", "import"):
            if len(args) < 2:
                return 1, f"ch-image build-cache {args[0]}: need a REF"
            ref = ImageRef.parse(args[1])
            net = ch.machine.kernel.network
            if net is None:
                return 1, "ch-image build-cache: no network reachable"
            try:
                registry = net.registry(ref.registry or DEFAULT_HUB)
                if args[0] == "export":
                    digest = cache.export_to_registry(registry, ref)
                    return 0, (f"exported {len(cache.records)} records "
                               f"to {args[1]} ({digest[:19]}...)")
                installed = cache.import_from_registry(registry, ref)
                return 0, f"imported {installed} records from {args[1]}"
            except ReproError as err:
                return 1, f"ch-image build-cache {args[0]} failed: {err}"
        return 0, cache.summary()

    if command == "audit":
        names = [a for a in args if not a.startswith("--")]
        if not names:
            return 1, "ch-image audit: need an image name"
        name = names[0]
        if not ch.storage.exists(name):
            return 1, f"ch-image audit: no image {name!r} in storage"
        from ..archive import TarArchive
        from ..supply import (audit_layers, layers_as_dict,
                              make_advisory_db, packages_of,
                              sbom_statement)
        path = ch.storage.path_of(name)
        sbom = sbom_statement(ch.sys, path, image=name)
        findings = [f.as_dict() for f in
                    make_advisory_db(seed=0).scan(packages_of(sbom))]
        audits = audit_layers([TarArchive.pack(ch.storage.sys, path)])
        size = layers_as_dict(audits)
        if "--json" in args:
            return 0, json.dumps({"image": name, "sbom": sbom,
                                  "findings": findings, "size": size},
                                 sort_keys=True)
        lines = [f"image audit: {name}",
                 f"  packages: {sbom['package_count']}"]
        worst = f" (worst: {findings[0]['severity']})" if findings else ""
        lines.append(f"  findings: {len(findings)}{worst}")
        for f in findings:
            fixed = f"< {f['fixed_in']}" if f["fixed_in"] else "(no fix)"
            lines.append(f"    {f['id']} {f['severity']}: {f['package']} "
                         f"{f['installed']} {fixed}: {f['summary']}")
        layer = size["layers"][0]
        top = layer["largest"][0] if layer["largest"] else None
        largest = f", largest {top['path']} ({top['size']})" if top else ""
        lines.append(f"  size: {size['total_bytes']} bytes, "
                     f"{layer['members']} members{largest}")
        return 0, "\n".join(lines)

    if command == "trace":
        tracer = ch.tracer
        if tracer is None:
            return 1, ("ch-image trace: tracing is not enabled "
                       "(build with --trace, or set REPRO_TRACE=1)")
        if "--json" in args:
            return 0, json.dumps(trace_to_dict(tracer), sort_keys=True)
        if "--audit" in args:
            return 0, privilege_audit(tracer).render()
        return 0, (render_span_tree(tracer) + "\n\n" +
                   render_summary(tracer))

    return 1, f"ch-image: unknown command {command!r}"
