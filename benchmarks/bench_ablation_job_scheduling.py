"""Ablation benchmark: job-stream scheduling, OCS vs static (Section 2.5).

Quantifies "the OCS also simplifies scheduling, which increases
utilization" on the fleet engine: the `small` preset's Table 2 job
stream and outage trace replayed under both placement policies.  A job
that does not fit waits in the queue under either policy, so the share
of submitted jobs that ever ran is reported next to utilization.
"""

from repro.fleet import compare_policies, preset_config


def test_ablation_job_scheduling(benchmark):
    reports = benchmark.pedantic(
        compare_policies, args=(preset_config("small"),),
        kwargs={"seed": 0}, rounds=1, iterations=1)
    summaries = {name: report.summary for name, report in reports.items()}
    print()
    for name, summary in summaries.items():
        ran = 1.0 - summary["jobs_never_ran"] / summary["jobs_submitted"]
        print(f"{name}: utilization {summary['utilization']:.3f}, "
              f"share of {summary['jobs_submitted']:.0f} submitted jobs "
              f"that ran {ran:.3f}")
    assert summaries["ocs"]["utilization"] >= \
        summaries["static"]["utilization"]
