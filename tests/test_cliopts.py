"""The ``--opt V`` / ``--opt=V`` helpers both astra CLIs parse with."""

from repro.cliopts import int_opt, str_opt


class TestStrOpt:
    def test_separate_and_joined_forms(self):
        assert str_opt(["--runtime", "singularity"], 0, "p") \
            == ("singularity", 1, "")
        assert str_opt(["--runtime=singularity"], 0, "p") \
            == ("singularity", 0, "")

    def test_joined_value_keeps_later_equals_signs(self):
        assert str_opt(["--fault-plan=seed=7"], 0, "p")[0] == "seed=7"

    def test_missing_value(self):
        value, i, err = str_opt(["x", "--fault-plan"], 1, "astra-deploy")
        assert err == "astra-deploy: --fault-plan needs a value"


class TestIntOpt:
    def test_both_forms(self):
        assert int_opt(["--nodes", "4"], 0, "p", minimum=1) == (4, 1, "")
        assert int_opt(["--nodes=4"], 0, "p", minimum=1) == (4, 0, "")

    def test_below_minimum_and_non_integer(self):
        for argv in (["--replicas", "0"], ["--replicas=lots"],
                     ["--replicas"]):
            _, _, err = int_opt(argv, 0, "astra-matrix", minimum=1)
            assert err.startswith("astra-matrix: bad --replicas value ")

    def test_custom_error_noun(self):
        _, _, err = int_opt(["--nodes", "-2"], 0, "astra-deploy",
                            minimum=1, what="node count")
        assert err == "astra-deploy: bad node count '-2'"
