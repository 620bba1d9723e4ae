"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro import (TPUv4Supercomputer, alltoall_analysis, simulate_goodput)
from repro.network.simcollectives import simulate_ring_allreduce
from repro.sparsecore import (CategoricalFeature, DistributedEmbedding,
                              EmbeddingTable, plan_for_tables,
                              synthetic_batch)


class TestMachineLifecycle:
    """Provision, fail, reschedule, analyze — the full OCS story."""

    def test_full_story(self):
        machine = TPUv4Supercomputer()

        # 1. Provision a twisted production slice.
        job = machine.create_slice((4, 8, 8), twisted=True, name="prod")
        assert machine.fabric.total_circuits() == job.wiring.num_optical_links
        baseline_throughput = alltoall_analysis(
            job.topology, 50e9).per_node_throughput

        # 2. The interconnect beats the untwisted alternative.
        machine.release(job)
        plain = machine.create_slice((4, 8, 8), twisted=False, name="plain")
        plain_throughput = alltoall_analysis(
            plain.topology, 50e9).per_node_throughput
        assert baseline_throughput > 1.2 * plain_throughput
        machine.release(plain)

        # 3. Hosts fail; scheduling routes around them.
        sick = [0, 1, 5]
        for block_id in sick:
            machine.blocks[block_id].fail_host(block_id % 16)
        job = machine.create_slice((4, 4, 8), name="rescheduled")
        assert not set(job.block_ids) & set(sick)

        # 4. Cleanup restores a pristine fabric.
        machine.release(job)
        for block_id in sick:
            machine.blocks[block_id].host_up[block_id % 16] = True
        assert machine.fabric.total_circuits() == 0
        assert all(block.available for block in machine.blocks)

    def test_many_concurrent_slices(self):
        machine = TPUv4Supercomputer()
        slices = [machine.create_slice((4, 4, 4)) for _ in range(64)]
        assert machine.utilization() == 1.0
        with pytest.raises(Exception):
            machine.create_slice((4, 4, 4))
        for s in slices:
            machine.release(s)
        assert machine.utilization() == 0.0


class TestSimulatorAgainstAnalytics:
    def test_collective_on_provisioned_slice(self):
        """FlowSim on a machine-provisioned topology matches theory."""
        machine = TPUv4Supercomputer()
        job = machine.create_slice((4, 4, 8))
        from repro.network.collectives import ring_allreduce_time
        simulated = simulate_ring_allreduce(job.topology, 4e6, 50e9, dim=2)
        analytic = ring_allreduce_time(8, 4e6, 50e9)
        assert simulated.seconds == pytest.approx(analytic, rel=0.01)

    def test_goodput_consistent_with_machine(self):
        """Monte Carlo and direct machine scheduling agree in expectation."""
        result = simulate_goodput(1024, 0.995, use_ocs=True, trials=50,
                                  seed=3)
        assert 0.7 <= result.mean_goodput <= 0.8


class TestEmbeddingOnSlices:
    def test_training_step_on_sliced_tables(self):
        """Shard tables over a slice's chips; forward+backward works."""
        machine = TPUv4Supercomputer()
        job = machine.create_slice((4, 4, 4))
        tables = {"t": EmbeddingTable("t", vocab_size=2048, dim=8)}
        plan = plan_for_tables(list(tables.values()), job.num_chips,
                               replicate_small=False)
        engine = DistributedEmbedding(tables=tables,
                                      feature_to_table={"f": "t"},
                                      plan=plan)
        feature = CategoricalFeature("f", vocab_size=2048, avg_valency=4)
        batches = {"f": synthetic_batch(feature, 32, seed=0)}
        out = engine.forward(batches)
        np.testing.assert_allclose(out["f"], tables["t"].lookup(batches["f"]))
        engine.backward(batches, {"f": np.ones_like(out["f"])})
        assert engine.last_traffic.rows_gathered.sum() > 0
