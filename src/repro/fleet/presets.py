"""Named fleet scenarios for the CLI, experiments, and tests.

Presets trade fidelity for runtime: `tiny` keeps unit tests fast,
`small` is the CLI/CI smoke scenario, `medium` stresses queueing across
four pods, `serving` skews the mix toward Section 3.1 serving
residencies to exercise preemption, `replay` is the compact
record/replay round-trip scenario, `deploy_week` overlays the
'deploy_week' rollout-drain schedule on a week of live traffic
(Section 2.4 incremental deployment against real load), and `large` is
the machine-wide scenario — eight small pods whose job mix includes Table 2's biggest
slices (48 blocks, against 27-block pods), so those jobs *must* span
pods over the trunk OCS layer, and whose failures include spare-port-
repairable optical faults.  `hyperscale` scales that machine-wide
scenario to 64 pods for the vectorized event core (and the `fleet
sweep` multi-seed runner), and `edge` is the contention edge-case
scenario, tuned so cross-pod preemption (and, rarely, trunk-freeing
defrag) fires under generated load, anchoring the record/replay
byte-identity smoke for the machine-wide contention paths.

`serve_surge` layers the online serving tier (request-level QPS
curves, replica pools, autoscaling) onto the deploy-week fleet, with a
launch surge timed into the rollout drain.

Every preset carries the config's placement strategy (first_fit by
default), the OCS reconfiguration-latency knobs, and the trunk/spare
sizing; the CLI's `--strategy`/`--reconfig-seconds`/`--trunk-ports`/
`--cross-pod` flags override them per run via
:meth:`~repro.fleet.config.FleetConfig.with_overrides`.

Every preset runs on the one fleet engine and replays byte-identically
per seed, so each can anchor the digest and replay gates.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.units import DAY, HOUR, MINUTE

PRESETS: dict[str, FleetConfig] = {
    # One pod, one simulated day: fast enough for unit tests.
    "tiny": FleetConfig(
        num_pods=1, blocks_per_pod=64,
        horizon_seconds=1 * DAY, arrival_window_seconds=18 * HOUR,
        mean_interarrival_seconds=6 * MINUTE, mean_job_seconds=3 * HOUR,
        max_job_blocks=8, serving_fraction=0.1,
        mean_serving_seconds=12 * HOUR,
        host_mtbf_seconds=60 * DAY, mean_repair_seconds=2 * HOUR),
    # Two pods, two days, heavier jobs: the CI smoke scenario.
    "small": FleetConfig(
        num_pods=2, blocks_per_pod=64,
        horizon_seconds=2 * DAY, arrival_window_seconds=1.5 * DAY,
        mean_interarrival_seconds=7 * MINUTE, mean_job_seconds=6 * HOUR,
        max_job_blocks=16, serving_fraction=0.1,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR),
    # Four pods, a simulated week, shapes up to a half pod.
    "medium": FleetConfig(
        num_pods=4, blocks_per_pod=64,
        horizon_seconds=7 * DAY, arrival_window_seconds=6 * DAY,
        mean_interarrival_seconds=7 * MINUTE, mean_job_seconds=10 * HOUR,
        max_job_blocks=32, serving_fraction=0.1,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR),
    # Eight pods, machine-wide jobs: Table 2's 48-block slices cannot
    # fit a 27-block pod, so cross-pod placement is load-bearing.
    # Optical faults (30% of outages) repair via the pods' 8 spare
    # ports in minutes instead of hours when spares remain.
    "large": FleetConfig(
        num_pods=8, blocks_per_pod=27,
        horizon_seconds=4 * DAY, arrival_window_seconds=3 * DAY,
        mean_interarrival_seconds=12 * MINUTE, mean_job_seconds=8 * HOUR,
        max_job_blocks=48, serving_fraction=0.1,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR,
        strategy="best_fit",
        cross_pod=True, trunk_ports=64,
        spare_ports=8, optical_failure_fraction=0.3,
        port_repair_seconds=5 * MINUTE),
    # Sixty-four pods behind one trunk layer: the scale target of the
    # vectorized event core.  Same per-pod sizing and machine-wide job
    # mix as `large` (48-block slices must span 27-block pods), but
    # eight times the pods and a denser arrival stream, so the dispatch
    # loop, the switch banks, and the failure overlay all run at fleet
    # scale.  Kept to two simulated days so `fleet sweep` can fan a
    # hundred seeds across worker processes in CI-compatible time.
    "hyperscale": FleetConfig(
        num_pods=64, blocks_per_pod=27,
        horizon_seconds=2 * DAY, arrival_window_seconds=1.5 * DAY,
        mean_interarrival_seconds=2 * MINUTE, mean_job_seconds=6 * HOUR,
        max_job_blocks=48, serving_fraction=0.1,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR,
        strategy="best_fit",
        cross_pod=True, trunk_ports=64,
        spare_ports=8, optical_failure_fraction=0.3,
        port_repair_seconds=5 * MINUTE),
    # Record/replay smoke scenario: between tiny and small — enough
    # traffic that a trace exercises every record type, short enough
    # that `fleet record` + `fleet replay` round-trips stay fast in CI
    # and the fleet_replay experiment.
    "replay": FleetConfig(
        num_pods=2, blocks_per_pod=64,
        horizon_seconds=1 * DAY, arrival_window_seconds=18 * HOUR,
        mean_interarrival_seconds=5 * MINUTE, mean_job_seconds=3 * HOUR,
        max_job_blocks=16, serving_fraction=0.1,
        mean_serving_seconds=12 * HOUR,
        host_mtbf_seconds=60 * DAY, mean_repair_seconds=2 * HOUR),
    # A week of live traffic with two staggered pod upgrades (the
    # 'deploy_week' drain schedule): pod 3 pulled on day 1, pod 2 on
    # day 3, each returning block by block over ~1.5 days as hardware
    # lands — §2.4 incremental deployment composed with §2.5 placement.
    "deploy_week": FleetConfig(
        num_pods=4, blocks_per_pod=64,
        horizon_seconds=7 * DAY, arrival_window_seconds=6 * DAY,
        mean_interarrival_seconds=7 * MINUTE, mean_job_seconds=10 * HOUR,
        max_job_blocks=32, serving_fraction=0.1,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR,
        strategy="best_fit", deploy_schedule="deploy_week"),
    # Contention edge-case scenario: small pods under a machine-wide
    # mix, a low preemption bar (production training may evict batch),
    # the defrag strategy, and a trunk bank tight enough that
    # concurrent cross-pod slices fight over ports — so cross-pod
    # preemption and trunk-freeing defrag both fire under generated
    # load.  The record/replay smoke rides this preset: evictions and
    # migrations are scheduler *decisions*, not inputs, so a recorded
    # trace must replay byte-identically with every new path enabled.
    "edge": FleetConfig(
        num_pods=4, blocks_per_pod=8,
        horizon_seconds=1 * DAY, arrival_window_seconds=18 * HOUR,
        mean_interarrival_seconds=5 * MINUTE, mean_job_seconds=2 * HOUR,
        max_job_blocks=16, serving_fraction=0.05,
        prod_fraction=0.2, mean_serving_seconds=12 * HOUR,
        host_mtbf_seconds=60 * DAY, mean_repair_seconds=2 * HOUR,
        preempt_priority=1, strategy="defrag", defrag_max_moves=2,
        cross_pod=True, trunk_ports=20,
        # Contention swings fast here (2h jobs on 8-block pods); the
        # observability sampler needs a tighter cadence than the
        # 15-minute default to resolve queue-depth spikes.
        obs_sample_every_seconds=5 * MINUTE),
    # The online-serving stress scenario: deploy_week's fleet and drain
    # schedule with the request-level serving tier on top — two diurnal
    # model pools (scenario 'surge') whose ads pool takes a 3x launch
    # spike exactly as the schedule pulls pod 3, so the autoscaler must
    # triple a pool while a quarter of the fleet drains and outage
    # failovers interrupt live replicas.  The autoscaler-vs-static
    # capacity-split benchmark and the serve CI smoke ride this preset.
    "serve_surge": FleetConfig(
        num_pods=4, blocks_per_pod=64,
        horizon_seconds=7 * DAY, arrival_window_seconds=6 * DAY,
        mean_interarrival_seconds=7 * MINUTE, mean_job_seconds=10 * HOUR,
        max_job_blocks=32, serving_fraction=0.1,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR,
        strategy="best_fit", deploy_schedule="deploy_week",
        serve_scenario="surge"),
    # Serving-heavy mix: long residencies plus background training.
    "serving": FleetConfig(
        num_pods=2, blocks_per_pod=64,
        horizon_seconds=3 * DAY, arrival_window_seconds=2 * DAY,
        mean_interarrival_seconds=8 * MINUTE, mean_job_seconds=4 * HOUR,
        max_job_blocks=16, serving_fraction=0.4,
        mean_serving_seconds=1 * DAY,
        host_mtbf_seconds=120 * DAY, mean_repair_seconds=4 * HOUR),
}


def preset_config(name: str) -> FleetConfig:
    """Look up a preset by name.

    >>> preset_config('tiny').num_pods
    1
    """
    if name not in PRESETS:
        raise ConfigurationError(
            f"unknown fleet preset {name!r}; have {sorted(PRESETS)}")
    return PRESETS[name]


def preset_names() -> list[str]:
    """Available preset names, sorted."""
    return sorted(PRESETS)
