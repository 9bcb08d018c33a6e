"""End-to-end matrix orchestration: farm, fleet, faults, metrics, CLI.

Uses the 2x2 helper family (8 stage builds, 6 unique, amplification
1.333x) so every accounting number is small enough to assert exactly.
"""

import pytest

from repro.cluster import make_astra, make_machine, make_world
from repro.cluster.fleet import RegistryFleet
from repro.kernel import Syscalls
from repro.matrix import (
    MatrixSpec,
    astra_matrix_cli,
    build_matrix,
    plan_matrix,
)
from repro.obs import attach_tracer
from repro.sim import FaultPlan

TEMPLATE = """\
FROM ${base}
RUN echo shared > /s
RUN echo ${app} > /a
"""

SPEC_TEXT = """\
name: fam
tag: fam/${base}:${app}
tenant: hpc
axis base: centos:7 | debian:buster
axis app: a1 | a2
template: |
  FROM ${base}
  RUN echo shared > /s
  RUN echo ${app} > /a
"""


def spec_dict(**over):
    d = {
        "name": "fam",
        "tag": "fam/${base}:${app}",
        "axes": {"base": ["centos:7", "debian:buster"],
                 "app": ["a1", "a2"]},
        "template": TEMPLATE,
        "tenant": "hpc",
    }
    d.update(over)
    return d


def family():
    return MatrixSpec.from_dict(spec_dict())


class TestBuildMatrix:
    def test_cold_cache_run_matches_the_plan(self, login, alice):
        spec = family()
        plan = plan_matrix(spec)
        report = build_matrix(login, alice, spec, parallelism=2)
        assert report.success
        assert len(report.cells) == 4
        # the static plan is exact on a cold cache
        assert report.measured_stores == plan.unique_stage_builds == 6
        assert report.measured_hits == \
            plan.total_stage_builds - plan.unique_stage_builds == 2
        assert report.amplification == pytest.approx(8 / 6)
        # per-cell attribution slices sum back to the farm totals
        assert sum(c.cache.get("stores", 0) for c in report.cells) == 6
        assert sum(c.cache.get("hits", 0) for c in report.cells) == 2
        for cell in report.cells:
            assert cell.digest.startswith("chain:")
            assert cell.worker >= 0
            assert not cell.deduped      # all four dockerfiles differ

    def test_images_land_in_builder_storage(self, login, alice):
        report = build_matrix(login, alice, family(), parallelism=4)
        storage = report.farm_report  # FarmReport keeps no storage ref;
        assert storage is not None    # digests prove the tags exist
        assert set(report.digests()) == {
            "fam/centos-7:a1", "fam/centos-7:a2",
            "fam/debian-buster:a1", "fam/debian-buster:a2"}

    def test_parallelism_does_not_change_digests(self):
        """Scheduling changes when, never what: fresh worlds at
        parallelism 1 and 4 produce identical per-variant digests."""
        digests = []
        for n in (1, 4):
            world = make_world(arches=("x86_64",))
            login = make_machine("login1", network=world.network)
            rep = build_matrix(login, login.login("alice"), family(),
                               parallelism=n)
            assert rep.success
            digests.append(rep.digests())
        assert digests[0] == digests[1]

    def test_failing_cell_is_an_outcome_not_an_exception(self,
                                                         login, alice):
        spec = MatrixSpec.from_dict(spec_dict(
            axes={"base": ["centos:7", "nope-such-image:1"],
                  "app": ["a1", "a2"]}))
        report = build_matrix(login, alice, spec, parallelism=2)
        assert not report.success
        good = [c for c in report.cells if c.success]
        bad = [c for c in report.cells if not c.success]
        assert len(good) == 2 and len(bad) == 2
        assert all("nope-such-image" in c.tag for c in bad)
        assert all(c.error for c in bad)
        assert any("FAILED" in line for line in report.summary())

    def test_push_into_fleet_under_tenant(self, login, alice):
        fleet = RegistryFleet("site", n_shards=2, replicas=2)
        report = build_matrix(login, alice, family(), parallelism=2,
                              fleet=fleet, token="s3cret")
        assert report.success
        assert report.tenant == "hpc"          # from the spec
        assert report.pushed == 4
        assert all(c.pushed_ref == f"hpc/{c.tag}" for c in report.cells)
        assert "hpc" in fleet.tenants
        assert report.fleet_report["shards"] == 2
        assert any("pushed 4 images" in line
                   for line in report.summary())

    def test_explicit_tenant_overrides_spec(self, login, alice):
        fleet = RegistryFleet("site", n_shards=1, replicas=1)
        report = build_matrix(login, alice, family(), parallelism=2,
                              fleet=fleet, tenant="other", token="t")
        assert report.success and report.tenant == "other"
        assert report.cells[0].pushed_ref.startswith("other/")

    def test_worker_crash_requeues_and_converges(self, login, alice):
        plan = FaultPlan().add_worker_crash(0, 1e-9)
        report = build_matrix(login, alice, family(), parallelism=2,
                              fault_plan=plan)
        assert report.success
        assert report.worker_crashes == 1
        assert report.requeues >= 1
        assert any("worker crash" in line for line in report.summary())

    def test_matrix_counters_and_span(self, login, alice):
        tracer = attach_tracer(login.kernel)
        report = build_matrix(login, alice, family(), parallelism=2)
        assert report.success
        snap = tracer.metrics.snapshot()["counters"]
        assert snap["matrix.cells"] == 4
        assert snap["matrix.unique_cell_builds"] == 4
        assert snap["matrix.stage_builds_total"] == 8
        assert snap["matrix.stage_builds_unique"] == 6
        assert snap["matrix.amplification_x100"] == 133
        assert "matrix.failed_cells" not in snap
        assert any(sp.name == "matrix fam" and sp.kind == "matrix"
                   for sp in tracer.roots)

    def test_report_as_dict_is_json_shaped(self, login, alice):
        import json
        report = build_matrix(login, alice, family(), parallelism=2)
        d = report.as_dict()
        json.dumps(d)
        assert d["success"] is True
        assert len(d["cells"]) == 4
        assert d["plan"]["unique_stage_builds"] == 6


class TestMatrixCli:
    @pytest.fixture
    def astra(self):
        return make_astra(make_world(), n_compute=2)

    def write_spec(self, astra, text=SPEC_TEXT,
                   path="/home/alice/family.spec"):
        sys = Syscalls(astra.login.login("alice"))
        sys.write_file(path, text.encode())
        return path

    def test_happy_path(self, astra):
        path = self.write_spec(astra)
        status, out = astra_matrix_cli(
            astra, ["--parallelism", "2", "-f", path, "alice"])
        assert status == 0, out
        assert "4 cells -> 4 unique images" in out
        assert "8 stage builds -> 6 unique" in out
        assert "amplification 1.33x" in out
        assert "ok: 4 cells built" in out

    def test_push_through_registry_fleet(self, astra):
        path = self.write_spec(astra)
        status, out = astra_matrix_cli(
            astra, ["--registry-shards", "2", "--replicas", "2",
                    "--token", "s3cret", "-f", path, "alice"])
        assert status == 0, out
        assert "pushed 4 images to 2 shard(s) as tenant 'hpc'" in out

    def test_usage_without_spec_or_user(self, astra):
        status, out = astra_matrix_cli(astra, [])
        assert status == 1 and out.startswith("usage:")

    def test_unknown_option(self, astra):
        status, out = astra_matrix_cli(astra, ["--bogus", "x", "alice"])
        assert status == 1 and "unknown option '--bogus'" in out

    def test_bad_parallelism(self, astra):
        status, out = astra_matrix_cli(
            astra, ["--parallelism", "0", "-f", "/x", "alice"])
        assert status == 1 and "bad --parallelism" in out

    def test_replicas_exceed_shards(self, astra):
        path = self.write_spec(astra)
        status, out = astra_matrix_cli(
            astra, ["--registry-shards", "1", "--replicas", "2",
                    "-f", path, "alice"])
        assert status == 1 and "exceeds --registry-shards" in out

    def test_unknown_user(self, astra):
        path = self.write_spec(astra)
        status, out = astra_matrix_cli(astra, ["-f", path, "mallory"])
        assert status == 1 and "no account 'mallory'" in out

    def test_unreadable_spec_file(self, astra):
        status, out = astra_matrix_cli(
            astra, ["-f", "/no/such.spec", "alice"])
        assert status == 1 and "can't read /no/such.spec" in out

    def test_degenerate_spec_is_a_cli_error(self, astra):
        path = self.write_spec(astra, text=(
            "name: solo\ntag: solo:${a}\naxis a: one\n"
            "template: |\n  FROM centos:7\n  RUN echo ${a}\n"))
        status, out = astra_matrix_cli(astra, ["-f", path, "alice"])
        assert status == 1
        assert "astra-matrix:" in out and "single cell" in out

    def test_bad_fault_plan(self, astra):
        path = self.write_spec(astra)
        status, out = astra_matrix_cli(
            astra, ["--fault-plan", "gremlins=yes", "-f", path, "alice"])
        assert status == 1 and "astra-matrix:" in out

    def test_fault_plan_crash_still_converges(self, astra):
        path = self.write_spec(astra)
        status, out = astra_matrix_cli(
            astra, ["--parallelism", "2",
                    "--fault-plan", "seed=3,worker-crash=0@0.000000001",
                    "-f", path, "alice"])
        assert status == 0, out
        assert "1 worker crash" in out

    def test_failing_cell_sets_exit_status(self, astra):
        path = self.write_spec(astra, text=SPEC_TEXT.replace(
            "debian:buster", "nope-such-image:1"))
        status, out = astra_matrix_cli(astra, ["-f", path, "alice"])
        assert status == 1 and "FAILED" in out
