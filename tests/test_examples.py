"""Every script in ``examples/`` runs to completion and prints the
transcript line its purpose depends on, so the demos (and the
Dockerfiles they carry) cannot rot unnoticed."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"

#: script -> a line of its output that shows it did its job
EXPECTED = {
    "quickstart.py": "cpio: chown",
    "privilege_models.py": "--force build: ok (modified 1 RUN instructions)",
    "fakeroot_demo.py": "crw-r--r-- 1 root root   1, 1",
    "astra_workflow.py": "[rank 3] ATSE on astra-cn004 (aarch64)",
    "ci_pipeline.py": "pipeline hpc-app: passed",
    "hpc_survey.py": "definition files only",
}


def test_every_example_is_covered():
    assert sorted(p.name for p in EXAMPLES.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES / script), run_name="__main__")
    assert EXPECTED[script] in capsys.readouterr().out
