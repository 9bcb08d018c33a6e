"""Charliecloud (Type III): the paper's primary contribution.

``ch-image`` — fully unprivileged Dockerfile interpreter with --force
fakeroot injection; ``ch-run`` — unprivileged runtime; single-layer,
ownership-flattened push.
"""

from .build_graph import (
    BuildGraphError,
    BuildGraphScheduler,
    ScheduleReport,
    TaskReport,
    build_parallel,
    plan_flight_key,
    stage_plan_keys,
)
from .builder import ChBuildResult, ChImage
from .cli import ch_image_cli
from .force import CONFIGS, DEBDERIV, ForceConfig, InitStep, RHEL7, detect_config
from .images import ImageStorage
from .push import flatten_archive, push_image
from .runtime import ChRun, ChRunResult
from .seccomp import SeccompSyscalls

__all__ = [
    "BuildGraphError",
    "BuildGraphScheduler",
    "ScheduleReport",
    "TaskReport",
    "build_parallel",
    "plan_flight_key",
    "stage_plan_keys",
    "ChBuildResult",
    "ChImage",
    "ch_image_cli",
    "CONFIGS",
    "DEBDERIV",
    "ForceConfig",
    "InitStep",
    "RHEL7",
    "detect_config",
    "ImageStorage",
    "flatten_archive",
    "push_image",
    "ChRun",
    "ChRunResult",
    "SeccompSyscalls",
]
