"""Experiments for production performance: Table 3, Figures 11, 12, 13, 16."""

from __future__ import annotations

from repro.chips.roofline import place_models, ridge_point, roofline_curve
from repro.chips.specs import A100, TPUV3, TPUV4
from repro.experiments.base import ExperimentResult
from repro.models.perfmodel import (geomean_speedup, perf_per_watt_ratio,
                                    speedup_v4_over_v3)
from repro.models.profiles import PRODUCTION_APPS
from repro.models.scaling import (apps_scaling_well,
                                  production_scaling_curves)
from repro.parallelism.costmodel import llm_step_cost
from repro.parallelism.search import (TABLE3_GPT3, TABLE3_LLM,
                                      search_best_configuration)


def run_table3() -> ExperimentResult:
    """Table 3: topology + partitioning search for the LLM and GPT-3."""
    result = ExperimentResult(
        experiment_id="table3",
        title="Topology/partitioning improvements for a 512-chip slice",
        columns=["case", "version", "topology", "spec",
                 "throughput (seqs/s)", "MFU"],
    )
    for case in (TABLE3_LLM, TABLE3_GPT3):
        baseline = llm_step_cost(case.model, case.baseline_shape,
                                 case.baseline_spec, case.global_batch)
        search = search_best_configuration(case)
        best = search.best
        shape_txt = "x".join(map(str, case.baseline_shape))
        result.rows.append([case.name, "baseline pick", shape_txt,
                            case.baseline_spec.label,
                            round(baseline.throughput_seqs, 1),
                            round(baseline.model_flops_utilization, 2)])
        result.rows.append([case.name, "search best",
                            "x".join(map(str, best.shape)), best.spec.label,
                            round(best.throughput_seqs, 1),
                            round(best.model_flops_utilization, 2)])
        result.paper[f"{case.name} baseline (seqs/s)"] = \
            case.paper_baseline_throughput
        result.measured[f"{case.name} baseline (seqs/s)"] = round(
            baseline.throughput_seqs, 1)
        result.paper[f"{case.name} best (seqs/s)"] = \
            case.paper_best_throughput
        result.measured[f"{case.name} best (seqs/s)"] = round(
            best.throughput_seqs, 1)
        result.paper[f"{case.name} gain"] = round(case.paper_gain, 2)
        result.measured[f"{case.name} gain"] = round(search.gain, 2)
    return result


def run_figure11() -> ExperimentResult:
    """Figure 11: weak-scaling of the eight production apps."""
    curves = production_scaling_curves()
    result = ExperimentResult(
        experiment_id="figure11",
        title="Scalability of TPU v4 production workloads (log-log)",
        columns=["app", "chips", "speedup", "efficiency"],
    )
    for app, curve in sorted(curves.items()):
        for chips, speedup, eff in zip(curve.chips, curve.speedup,
                                       curve.efficiency()):
            result.rows.append([app, chips, round(speedup, 1),
                                round(eff, 2)])
    good = apps_scaling_well()
    result.paper["apps scaling well to 3K"] = "CNN0, RNN0, RNN1, BERT1"
    result.measured["apps scaling well to 3K"] = ", ".join(sorted(good))
    result.paper["BERT0 limit"] = 2048
    result.measured["BERT0 limit"] = curves["BERT0"].chips[-1]
    result.paper["DLRM0/1 limit"] = 1024
    result.measured["DLRM0/1 limit"] = curves["DLRM0"].chips[-1]

    from repro.reporting.figures import AsciiChart, Series
    chart = AsciiChart("Figure 11 (log-log): speedup vs chips",
                       x_label="chips", y_label="speedup",
                       log_x=True, log_y=True)
    for app in ("CNN0", "DLRM0"):
        curve = curves[app]
        chart.add(Series(app, curve.chips, curve.speedup))
    result.charts.append(chart)
    return result


def run_figure12() -> ExperimentResult:
    """Figure 12: TPU v4 vs v3 speedup per production app."""
    result = ExperimentResult(
        experiment_id="figure12",
        title="Speedup of TPU v4 vs TPU v3 at equal slice sizes",
        columns=["app", "paper speedup", "measured speedup"],
    )
    for app in sorted(PRODUCTION_APPS):
        target = PRODUCTION_APPS[app].paper_speedup_v4_over_v3
        measured = speedup_v4_over_v3(app)
        result.rows.append([app, target, round(measured, 2)])
        result.paper[app] = target
        result.measured[app] = round(measured, 2)
    return result


def run_figure13() -> ExperimentResult:
    """Figure 13: CMEM ablation, overall speedup, and perf/Watt."""
    result = ExperimentResult(
        experiment_id="figure13",
        title="CMEM on/off, performance and performance/Watt vs TPU v3",
        columns=["app", "v4/v3 (CMEM on)", "v4/v3 (CMEM off)",
                 "CMEM contribution"],
    )
    for app in sorted(PRODUCTION_APPS):
        with_cmem = speedup_v4_over_v3(app)
        without = speedup_v4_over_v3(app, cmem=False)
        result.rows.append([app, round(with_cmem, 2), round(without, 2),
                            round(with_cmem / without, 2)])
    result.paper["overall v4/v3 performance"] = 2.1
    result.measured["overall v4/v3 performance"] = round(geomean_speedup(), 2)
    result.paper["overall v4/v3 perf/Watt"] = 2.7
    result.measured["overall v4/v3 perf/Watt"] = round(
        perf_per_watt_ratio(), 2)
    result.paper["CMEM contribution overall"] = 1.2
    result.measured["CMEM contribution overall"] = round(
        geomean_speedup() / geomean_speedup(cmem=False), 2)
    result.paper["CMEM contribution RNN1"] = 2.0
    result.measured["CMEM contribution RNN1"] = round(
        speedup_v4_over_v3("RNN1") / speedup_v4_over_v3("RNN1", cmem=False),
        2)
    return result


def run_figure16() -> ExperimentResult:
    """Figure 16: rooflines for TPU v3/v4 and A100 with model markers."""
    result = ExperimentResult(
        experiment_id="figure16",
        title="Roofline models (operational intensity in FLOP/byte)",
        columns=["chip", "model", "OI", "attainable (TFLOPS)",
                 "memory bound"],
    )
    for spec in (TPUV3, TPUV4, A100):
        for point in place_models(spec):
            result.rows.append([
                spec.name, point.model, point.operational_intensity,
                round(point.attainable / 1e12, 1),
                "yes" if point.memory_bound else "no",
            ])
    result.paper["TPU v4 ridge point (FLOP/B)"] = round(275e12 / 1200e9)
    result.measured["TPU v4 ridge point (FLOP/B)"] = round(ridge_point(TPUV4))
    result.paper["A100 ridge point lower than v4"] = "yes"
    result.measured["A100 ridge point lower than v4"] = (
        "yes" if ridge_point(A100) < ridge_point(TPUV4) else "no")
    ois, roofs = roofline_curve(TPUV4)
    result.measured["curve points computed"] = len(ois)
    return result
