"""Tests for the experiment registry and per-experiment invariants."""

import hashlib

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentResult, list_experiments, run
from repro.experiments.base import ExperimentResult as BaseResult

ALL_EXPERIMENTS = list_experiments()


class TestRegistry:
    def test_covers_every_table_and_figure(self):
        expected = {
            "table1", "table2", "table3", "table4", "table5", "table6",
            "figure1", "figure4", "figure5", "figure6", "figure8",
            "figure9", "figure10", "figure11", "figure12", "figure13",
            "figure14", "figure15", "figure16", "figure17",
            "section29", "section210", "section73", "section76",
            "section79", "section710",
            "fleet", "fleet_strategies", "fleet_crosspod",
            "fleet_contention", "fleet_replay", "fleet_deploy",
        }
        assert set(ALL_EXPERIMENTS) == expected

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            run("figure99")


_CACHE: dict[str, ExperimentResult] = {}


def _cached(experiment_id: str) -> ExperimentResult:
    if experiment_id not in _CACHE:
        _CACHE[experiment_id] = run(experiment_id)
    return _CACHE[experiment_id]


# sha256 of each experiment's rendered report.  A change that moves a
# model's printed output updates its pin and states the old and new value.
RENDER_SHA256 = {
    "figure1":
        "7092dc9664ab81cc813c03b4311d63ff04df0efe7afbaf544b035ecd5c8df8ea",
    "figure10":
        "0d4f14b8861bcee11f0297bedf18216cad987ef5fc911186791965efa33fdc99",
    "figure11":
        "9847d159da924b4d8cb47da6a352981ce8fb4306200f1eca74fcfe28f5529452",
    "figure12":
        "1fbcba1d7ff16d025cbaca3813e36b3edfa4adff19bae03694f3c85b4cccdc93",
    "figure13":
        "a1494c1cf614c1ae0db181d7195b1f0d49740d96b9ab6c41a8a047973a8ccceb",
    "figure14":
        "14c2782eb7ca3dc4d4d7c6fc6f654021264f58c1b9b0959d3d76342fbecf910d",
    "figure15":
        "cf80e653a2e010a00400845a69f4cfc59d977ea8fea102ff327baed691883c99",
    "figure16":
        "069ac013f33ddfc59c2b05012f9c0209c42ed6e9a3524c637a7051b31ed18d14",
    "figure17":
        "037b3d1d6afdaac1e9adf1e345d9793a803ff15fb256acca15fe4b31e5fb8521",
    "figure4":
        "fad1003adc63dbff5ae2a8850b980715b3c22422bbc5a0e1d826361cd3300718",
    "figure5":
        "911d20b5be88ba8590baf8dc4972e0578f782250900508028b4d00a7641fb260",
    "figure6":
        "54f79cf359b9776aa42d97ac35601450e5aeac78234b212913c0452aa682b2a5",
    "figure8":
        "274522468dad2fc937a95894f8bc3a8afb024a50f19e00b83df5c712093b2e03",
    "figure9":
        "f4efb9558f97258b9f5ebb9be383c87ef29a6d17429fb2d5bcf35f3bc55bd428",
    "fleet":
        "1398142821eec5bca94209d21cc15698cb81ed679a8c7e7d4e260d2e91532453",
    "fleet_contention":
        "2844766fac6552af2b6db1975d6bf176435a390171304ce14e8962dbf27023f9",
    "fleet_crosspod":
        "2d135b0e685caa8363c76d026973b13b58fb4833cdbb3bcbaa3c9da958a80d5c",
    "fleet_deploy":
        "628c2fb5d285bdf9b267c64da9eaea895406d34a23046afa36173f21c90ecbd1",
    "fleet_replay":
        "caf57d01b33948d7284f538956308b5816138afd9cd679f0a39cf139781fe6a9",
    "fleet_strategies":
        "d9b198daba480a1ca1df18f037c0923aa3bee38b1bdcf697711cad5fe1cc0aa3",
    "section210":
        "27c9717a63adf6589cbe34c889aa4a3be4e633cb74c6a8c1a357cbefa7e2f137",
    "section29":
        "dcbde2083225c8293b12702d4daa6889196f036673841c0d34659b562c7f8cc0",
    "section710":
        "ec0bc02c419c7660f897601f31e008c829b80dd2768df49ec5aac7b096d2965f",
    "section73":
        "0c5a609b46f2404c649e36d1fefa0cfaf5ea85d887e04d28bfe152a21f8a8340",
    "section76":
        "3873d51eac301580df545886274490bb02e318fc3107df2c0536b29c0440b251",
    "section79":
        "36e42a587baf4d37f157b2dff1bde362a09d961fa3e3d6667958dd79b1123a31",
    "table1":
        "7a5db4cc87a78b09455997aa33313b0d4d333da4260354d0b83292964d386b01",
    "table2":
        "98e7b8ca0010b9bc60a5c7c33faef7cd777f3964adb399f6818d3e694ca3f6dd",
    "table3":
        "a0eea7b4ad6bfad3968c03c70edf5032cd6ed43b3cfcac66ac9c2e894b8cb559",
    "table4":
        "6a56c0ceb9ba4a7584ff3367d76e62d1aa4c8c5cc1a5020c2defdbb7885667b9",
    "table5":
        "e6ad7bdc0197ead459de1c162fa8eb0e23ffd3e018608a9c0144978b0f6192a5",
    "table6":
        "2a9e1a70a399947dcb4fb03fca6d4d40e7c4ec60d1b2ca525d1eb9ac9ee81242",
}


@pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
class TestEveryExperiment:
    @pytest.fixture
    def result(self, experiment_id):
        return _cached(experiment_id)

    def test_returns_result(self, result, experiment_id):
        assert isinstance(result, ExperimentResult)
        assert result.experiment_id == experiment_id

    def test_has_paper_claims(self, result, experiment_id):
        assert result.paper, f"{experiment_id} publishes no paper claims"
        assert result.measured, f"{experiment_id} measures nothing"

    def test_renders(self, result, experiment_id):
        text = result.render()
        assert experiment_id in text
        assert "paper vs measured" in text

    def test_rows_match_columns(self, result, experiment_id):
        for row in result.rows:
            assert len(row) == len(result.columns), experiment_id

    def test_render_bytes_pinned(self, result, experiment_id):
        text = result.render()
        assert hashlib.sha256(text.encode()).hexdigest() == \
            RENDER_SHA256[experiment_id]


class TestHeadlineClaims:
    """Spot-check the quantitative paper-vs-measured agreements."""

    def test_figure6_ratios(self):
        result = run("figure6")
        measured = result.measured["twisted/regular throughput, 4x4x8"]
        assert 1.3 <= measured <= 1.8
        measured = result.measured["twisted/regular throughput, 4x8x8"]
        assert 1.15 <= measured <= 1.6

    def test_figure4_spares_staircase(self):
        result = run("figure4")
        assert result.measured["goodput @1K chips, 99.0-99.5%"] == \
            pytest.approx(0.75, abs=0.03)
        assert result.measured["goodput @2K chips"] == pytest.approx(
            0.50, abs=0.03)

    def test_figure9_chain(self):
        result = run("figure9")
        assert result.measured["TPU v3 vs CPU"] == pytest.approx(9.8,
                                                                 rel=0.1)
        assert result.measured["TPU v4 vs CPU"] == pytest.approx(30.1,
                                                                 rel=0.1)

    def test_table3_gains(self):
        result = run("table3")
        assert result.measured["LLM gain"] == pytest.approx(2.3, rel=0.15)
        assert 1.1 <= result.measured["GPT-3 pre-training gain"] <= 1.9

    def test_figure13_headline(self):
        result = run("figure13")
        assert result.measured["overall v4/v3 performance"] == \
            pytest.approx(2.1, rel=0.1)
        assert result.measured["overall v4/v3 perf/Watt"] == \
            pytest.approx(2.7, rel=0.1)

    def test_section76_carbon(self):
        result = run("section76")
        assert result.measured["energy ratio"] == pytest.approx(2.85,
                                                                abs=0.01)
        assert result.measured["CO2e ratio"] == pytest.approx(18.3, abs=0.2)

    def test_section210_ceilings(self):
        result = run("section210")
        assert float(result.measured["optics cost fraction"].rstrip("%")) < 5
        assert float(result.measured["optics power fraction"].rstrip("%")) < 3

    def test_fleet_replay_byte_identical(self):
        result = _cached("fleet_replay")
        assert result.measured[
            "replay reproduces recorded telemetry byte-for-byte"] == "yes"

    def test_fleet_deploy_ocs_advantage(self):
        result = _cached("fleet_deploy")
        assert result.measured["OCS goodput"] > \
            result.measured["static goodput"]
        assert result.measured["capacity drained"] > 0


class TestResultContainer:
    def test_comparison_rows_include_measured_only_keys(self):
        result = BaseResult(experiment_id="x", title="t", columns=["a"])
        result.paper["p"] = 1
        result.measured["m"] = 2
        rows = dict((r[0], (r[1], r[2])) for r in result.comparison_rows())
        assert rows["p"] == (1, "-")
        assert rows["m"] == ("-", 2)

    def test_render_includes_notes(self):
        result = BaseResult(experiment_id="x", title="t", columns=["a"])
        result.notes.append("calibrated constant")
        assert "calibrated constant" in result.render()
