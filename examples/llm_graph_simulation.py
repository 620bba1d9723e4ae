"""Simulate one LLM training step at the graph-op level (Section 7.3/7.10).

Builds the Table 3 LLM's training-step graph, partitions it with
GSPMD-style propagation over an 8x8x8 slice (data=8, model=64 — the
"best perf" row of Table 3), and executes it on the event-driven
scheduler.  Shows where the collectives come from, how much
communication hides under compute, and what the Wang et al. [59]
decomposition buys.

Run:  python examples/llm_graph_simulation.py
"""

from collections import Counter

from repro.graph import (DeviceMesh, MeshAxis, PipelineConfig,
                         PipelineSchedule, analytic_bubble_fraction,
                         overlap_speedup, partition, simulate,
                         simulate_pipeline, transformer_step_graph)
from repro.models.transformer import LLM_CONFIG

NUM_LAYERS = 8          # a slice of the 64-layer model, for speed
GLOBAL_BATCH = 256


def main() -> None:
    mesh = DeviceMesh((8, 8, 8), [MeshAxis("data", 8, (0,)),
                                  MeshAxis("model1", 64, (1, 2))])
    print(f"device mesh: {mesh.describe()}")

    graph, annotations = transformer_step_graph(
        LLM_CONFIG, global_batch=GLOBAL_BATCH, num_layers=NUM_LAYERS)
    print(f"logical graph: {graph.describe()}")

    program = partition(graph, mesh, annotations)
    print(f"partitioned:   {program.describe()}")

    collectives = Counter((op.kind, op.mesh_axis)
                          for op in program.graph.collectives())
    print("\ncollectives materialized by sharding propagation:")
    for (kind, axis), count in sorted(collectives.items()):
        print(f"  {count:3d} x {kind} over axis {axis!r}")

    trace = simulate(program)
    print(f"\n{trace.summary()}")
    print(f"\ntimeline ({NUM_LAYERS} layers, one step):")
    print(trace.timeline(width=64))

    flops = program.per_chip_flops()
    print(f"\nMFU at this step time: {trace.mfu(flops, 275e12):.1%}")
    print("(naive Megatron-1D over 64-way model parallelism is comm-bound;")
    print(" Table 3-style 2D sharding + overlap is how production runs")
    print(" reach PaLM's sustained 57.8%)")

    times = overlap_speedup(program, chunks=4)
    print("\nscheduling ablation (Section 7.10 / ref [59]):")
    for label in ("serial", "overlap", "decomposed"):
        print(f"  {label:10s} {times[label] * 1e3:8.2f} ms "
              f"({times['serial'] / times[label]:.2f}x vs serial)")

    # Third parallelism type (Section 2.7): wrap the stage program in a
    # pipeline, Table 3's GPT-3 style (depth 16).
    stage_seconds = trace.makespan
    print("\npipeline wrap (depth 16, the Table 3 GPT-3 revision):")
    for microbatches in (16, 64):
        outcome = simulate_pipeline(PipelineConfig(
            num_stages=16, num_microbatches=microbatches,
            forward_seconds=stage_seconds / 3,
            backward_seconds=2 * stage_seconds / 3,
            schedule=PipelineSchedule.ONE_F_ONE_B))
        print(f"  m={microbatches:3d}: bubble "
              f"{outcome.bubble_fraction:.1%} (analytic "
              f"{analytic_bubble_fraction(16, microbatches):.1%}), "
              f"peak {outcome.peak_activations} resident microbatches")


if __name__ == "__main__":
    main()
