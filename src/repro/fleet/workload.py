"""Job-stream generation for the fleet simulator.

Training jobs sample their slice shape from the measured Table 2
popularity mix and their DNN type from the 2022 Table 1 snapshot;
serving jobs are long-lived forward-only DLRM deployments sized by the
Section 3.1 QPS requirement via :func:`repro.models.serving.chips_for_qps`.
Arrival times come from their own RNG stream, separate from the per-job
attribute draws (shape, type, duration, priority), so reshaping the
workload never perturbs when jobs arrive.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.core.slicing import SliceShape, blocks_needed, parse_shape
from repro.errors import ConfigurationError
from repro.fleet.config import FleetConfig
from repro.models.dlrm import DLRMConfig
from repro.models.serving import chips_for_qps
from repro.models.workload import TABLE1_MIX, TABLE2_SLICES

#: Priority bands: best-effort research, production training, serving.
PRIORITY_BATCH = 0
PRIORITY_PROD = 1
PRIORITY_SERVING = 2

#: How far a categorical mix may sum from 1, as ``Generator.choice``
#: allows for float64 probabilities.
_PROBABILITY_ATOL = float(np.sqrt(np.finfo(np.float64).eps))

#: Sub-block shapes for serving deployments under one block (64 chips).
_SUB_BLOCK_BY_CHIPS: dict[int, SliceShape] = {
    1: (1, 1, 1), 2: (1, 1, 2), 4: (1, 2, 2), 8: (2, 2, 2),
    16: (2, 2, 4), 32: (2, 4, 4),
}


class _BlocksOnFirstRead:
    """``job.blocks``: ``blocks_needed(job.shape)``, computed on first read.

    The value lands in the job's ``__dict__``, which this non-data
    descriptor never shadows, so later reads are plain attribute
    lookups, as with `functools.cached_property`, which under CPython
    3.11 also takes a class-wide lock on every first read: once per job
    in a fleet run.  Not a dataclass field, so `FleetJob`'s fields,
    ``repr``, ``==``, hash and pickling are as they were.
    """

    def __set_name__(self, owner: type, name: str) -> None:
        self.name = name

    def __get__(self, job: FleetJob | None, owner: type | None = None
                ) -> int | _BlocksOnFirstRead:
        if job is None:
            return self
        blocks = job.__dict__[self.name] = blocks_needed(job.shape)
        return blocks


@dataclass(frozen=True)
class FleetJob:
    """One job offered to the fleet scheduler.

    Attributes:
        job_id: dense id in arrival order.
        kind: 'train' or 'serve'.
        model_type: Table 1 DNN family ('Transformer', 'MLP/DLRM', ...).
        shape: requested slice shape in chips.
        arrival: submission time in simulated seconds.
        work_seconds: useful work to finish (training) or residency
            (serving).
        priority: scheduling band; higher preempts lower.
    """

    job_id: int
    kind: str
    model_type: str
    shape: SliceShape
    arrival: float
    work_seconds: float
    priority: int

    #: 4x4x4 blocks the job occupies (cached: the dispatch loop's hot
    #: query, and shape legality never changes on a frozen job).
    blocks = _BlocksOnFirstRead()

    @property
    def is_serving(self) -> bool:
        """True for forward-only serving deployments."""
        return self.kind == "serve"


def truncated_slice_mix(max_blocks: int, *, grid_side: int | None = None
                        ) -> tuple[list[SliceShape], np.ndarray]:
    """Table 2 shapes at or under `max_blocks`, with renormalized shares.

    With `grid_side`, shapes are also filtered to those whose block-grid
    extent fits a cubic `grid_side`-block pod — elongated shapes like
    4x4x32 (block extent 1x1x8) exist in production exactly because the
    OCS frees slices from physical adjacency, but a fleet comparing
    against static wiring must offer both policies geometrically
    placeable work.
    """
    shapes: list[SliceShape] = []
    weights: list[float] = []
    for usage in TABLE2_SLICES:
        shape, _ = parse_shape(usage.label)
        if blocks_needed(shape) > max_blocks:
            continue
        if grid_side is not None and \
                max(d // 4 for d in shape) > grid_side and \
                blocks_needed(shape) > 1:
            continue
        shapes.append(shape)
        weights.append(usage.share)
    if not shapes:
        raise ConfigurationError(
            f"no Table 2 shape fits under {max_blocks} blocks")
    probabilities = np.array(weights) / sum(weights)
    return shapes, probabilities


def model_type_mix(snapshot: str = "TPU v4 (10/2022, training)"
                   ) -> tuple[list[str], np.ndarray]:
    """One Table 1 column as (model types, normalized shares)."""
    if snapshot not in TABLE1_MIX:
        raise ConfigurationError(f"unknown Table 1 snapshot {snapshot!r}")
    mix = {kind: share for kind, share in TABLE1_MIX[snapshot].items()
           if share > 0}
    kinds = sorted(mix)
    probabilities = np.array([mix[kind] for kind in kinds])
    return kinds, probabilities / probabilities.sum()


def _categorical_cdf(probabilities: np.ndarray) -> list[float]:
    """The CDF ``Generator.choice(n, p=probabilities)`` searches, built once.

    The mix is checked as ``choice`` checks it (finite, non-negative,
    summing to 1 within sqrt(eps)) and normalized as ``choice``
    normalizes it (``cumsum``, then divide by the last entry), so
    ``bisect_right(cdf, rng.random())`` is the index ``choice`` returns
    from the same generator state, and it consumes the same one draw.
    """
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0 or not np.isfinite(p).all() or \
            (p < 0).any() or abs(float(p.sum()) - 1.0) > _PROBABILITY_ATOL:
        raise ConfigurationError(
            f"a categorical mix must be finite, non-negative and sum to "
            f"1, got {p.tolist()}")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def shape_for_chips(chips: int) -> SliceShape:
    """The legal serving slice shape closest to a chip count.

    Sub-block meshes under 64 chips, cube-balanced block multiples
    above — the rounding rule every serving deployment (the generated
    residencies here and the serve tier's replica pools) shares.
    """
    if chips in _SUB_BLOCK_BY_CHIPS:
        return _SUB_BLOCK_BY_CHIPS[chips]
    from repro.core.availability import balanced_block_shape
    return balanced_block_shape(max(chips, 64))


def serving_shape(config: FleetConfig) -> SliceShape:
    """Slice shape of one serving deployment at the config's QPS target.

    Sizes the slice with the Section 3.1 latency/throughput model, then
    rounds the chip count to the nearest legal shape via
    :func:`shape_for_chips`.
    """
    shape = shape_for_chips(chips_for_qps(DLRMConfig(),
                                          config.serving_qps))
    if blocks_needed(shape) > config.max_job_blocks:
        raise ConfigurationError(
            f"serving slice needs {blocks_needed(shape)} blocks, over the "
            f"{config.max_job_blocks}-block cap")
    return shape


@dataclass(frozen=True)
class TraceWorkload:
    """A recorded job stream, interchangeable with :func:`generate_jobs`.

    Wraps the jobs of a loaded :class:`repro.fleet.trace.FleetTrace`
    behind the same calling convention as the synthetic generator, so
    :class:`repro.fleet.simulator.FleetSimulator` treats "replay this
    trace" and "draw from Table 2" as the same kind of input.  The RNG
    arguments are accepted and ignored: a trace's dice were already
    rolled when it was recorded, which is the whole point — replayed
    runs measure scheduling, never fresh draws.
    """

    jobs: tuple[FleetJob, ...]

    def __call__(self, config: FleetConfig, *,
                 arrival_rng: np.random.Generator | None = None,
                 shape_rng: np.random.Generator | None = None
                 ) -> list[FleetJob]:
        """Return the recorded stream (RNGs ignored, see class docs)."""
        return list(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)


def hostile_background_mix(config: FleetConfig, *,
                           arrival_rng: np.random.Generator | None = None,
                           shape_rng: np.random.Generator | None = None
                           ) -> list[FleetJob]:
    """A deterministic contention probe: saturating low-priority load
    plus periodic machine-wide high-priority arrivals.

    The adversarial stream behind the cross-pod-preemption gate (and a
    :data:`~repro.fleet.simulator.JobSource`, so it plugs into
    :class:`~repro.fleet.simulator.FleetSimulator` like any workload;
    the RNG arguments are accepted and ignored — hostility is exact,
    not sampled).  Background: every pod is packed wall to wall with
    batch-priority training jobs that outlive the run, so no capacity
    ever frees on its own.  Foreground: the largest machine-wide
    Table 2 shape under the config's cap arrives on a fixed cadence at
    production priority — with `preempt_priority` at or below that
    band, each arrival can only ever run by assembling a cross-pod
    placement out of evictions.  Without machine-wide preemption the
    foreground class starves outright, which is exactly the A/B the
    benchmark gate measures.
    """
    shapes, _ = truncated_slice_mix(config.max_job_blocks)
    foreground = max(
        (shape for shape in shapes
         if blocks_needed(shape) > config.blocks_per_pod),
        key=blocks_needed, default=None)
    if foreground is None:
        raise ConfigurationError(
            f"hostile mix needs a machine-wide shape; no Table 2 shape "
            f"exceeds one {config.blocks_per_pod}-block pod under the "
            f"{config.max_job_blocks}-block cap")
    # Background jobs a third of a pod each: big enough that evicting
    # a few frees real capacity, small enough to pack pods exactly.
    grain = max(1, config.blocks_per_pod // 3)
    background = (4, 4, 4 * grain)
    per_pod = config.blocks_per_pod // grain
    jobs = [
        FleetJob(job_id=job_id, kind="train", model_type="LLM",
                 shape=background, arrival=0.0,
                 work_seconds=2 * config.horizon_seconds,
                 priority=PRIORITY_BATCH)
        for job_id in range(config.num_pods * per_pod)]
    cadence = config.arrival_window_seconds / 8
    for beat in range(1, 7):
        jobs.append(FleetJob(
            job_id=len(jobs), kind="train", model_type="LLM",
            shape=foreground, arrival=beat * cadence,
            work_seconds=cadence * 0.3, priority=PRIORITY_PROD))
    return jobs


def generate_jobs(config: FleetConfig, *,
                  arrival_rng: np.random.Generator,
                  shape_rng: np.random.Generator) -> list[FleetJob]:
    """Draw the full job stream for one fleet run.

    Arrivals are a Poisson process cut at the config's arrival window;
    everything else (shape, type, duration, priority, serving flag) is
    drawn per-job from `shape_rng`.  A job's slice shape and model type
    are each one ``shape_rng.random()`` looked up in its mix's CDF,
    built once per call: index ``bisect_right(cdf, u)``, exactly the
    index and the draw of ``shape_rng.choice(len(p), p=p)``, without
    that call's per-draw check of `p` and rebuild of the CDF.

    A machine-wide config (`max_job_blocks` above one pod) samples the
    untruncated-geometry Table 2 mix: shapes larger than a pod exist in
    production exactly because the machine-level OCS layer can stitch
    them across pods, so no pod-grid filter applies — under static
    wiring (or with cross-pod placement disabled) those jobs simply
    queue forever, which is the comparison's point.
    """
    shapes, shape_p = truncated_slice_mix(
        config.max_job_blocks,
        grid_side=None if config.machine_wide_jobs
        else config.pod_grid_side)
    kinds, kind_p = model_type_mix()
    shape_cdf = _categorical_cdf(shape_p)
    kind_cdf = _categorical_cdf(kind_p)
    serve_shape = serving_shape(config) if config.serving_fraction > 0 \
        else None

    jobs: list[FleetJob] = []
    clock = 0.0
    while True:
        clock += float(arrival_rng.exponential(
            config.mean_interarrival_seconds))
        if clock > config.arrival_window_seconds:
            break
        job_id = len(jobs)
        if serve_shape is not None and \
                shape_rng.random() < config.serving_fraction:
            jobs.append(FleetJob(
                job_id=job_id, kind="serve", model_type="MLP/DLRM",
                shape=serve_shape, arrival=clock,
                work_seconds=float(shape_rng.exponential(
                    config.mean_serving_seconds)),
                priority=PRIORITY_SERVING))
            continue
        shape = shapes[bisect_right(shape_cdf, shape_rng.random())]
        model = kinds[bisect_right(kind_cdf, shape_rng.random())]
        priority = PRIORITY_PROD \
            if shape_rng.random() < config.prod_fraction \
            else PRIORITY_BATCH
        jobs.append(FleetJob(
            job_id=job_id, kind="train", model_type=model, shape=shape,
            arrival=clock,
            work_seconds=float(shape_rng.exponential(
                config.mean_job_seconds)),
            priority=priority))
    return jobs
