"""Distributed hashtable: local structures, both variants, invariants."""

import dataclasses

import numpy as np
import pytest

from repro.machines import perlmutter_cpu, perlmutter_gpu, summit_gpu
from repro.workloads.hashtable import (
    HashTableConfig,
    TableGeometry,
    chain_lengths,
    collect_values,
    generate_keys,
    local_insert,
    run_hashtable,
)


class TestGeometry:
    def test_locate_in_range(self):
        geom = TableGeometry(nranks=4, slots_per_rank=16, heap_per_rank=8)
        for key in range(1, 500):
            r, s = geom.locate(key)
            assert 0 <= r < 4 and 0 <= s < 16

    def test_locate_deterministic(self):
        geom = TableGeometry(nranks=4, slots_per_rank=16, heap_per_rank=8)
        assert geom.locate(12345) == geom.locate(12345)

    def test_zero_key_reserved(self):
        geom = TableGeometry(nranks=2, slots_per_rank=4, heap_per_rank=4)
        with pytest.raises(ValueError):
            geom.locate(0)

    def test_for_inserts_sizing(self):
        geom = TableGeometry.for_inserts(4, 1000, load_factor=0.5)
        assert geom.total_slots >= 2000
        assert geom.heap_per_rank >= 250

    def test_spread_across_ranks(self):
        geom = TableGeometry(nranks=8, slots_per_rank=64, heap_per_rank=8)
        rng = np.random.default_rng(0)
        homes = [geom.locate(int(k))[0] for k in rng.integers(1, 1 << 60, 2000)]
        counts = np.bincount(homes, minlength=8)
        assert counts.min() > 150  # roughly uniform

    def test_validation(self):
        with pytest.raises(ValueError):
            TableGeometry(0, 1, 1)
        with pytest.raises(ValueError):
            TableGeometry.for_inserts(2, 10, load_factor=0)

    @pytest.mark.parametrize("runtime", ["one_sided", "two_sided"])
    @pytest.mark.parametrize("nranks", [0, -1])
    def test_runner_rejects_fewer_than_one_rank(self, runtime, nranks):
        with pytest.raises(ValueError, match=f"nranks must be an integer >= 1, got {nranks}"):
            run_hashtable(perlmutter_cpu(), runtime, HashTableConfig(total_inserts=100), nranks)


class TestLocalInsert:
    def _state(self, slots=4, heap=4):
        return (
            np.zeros(slots, dtype=np.int64),
            np.zeros(slots, dtype=np.int64),
            np.zeros(2 * heap, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
        )

    def test_insert_into_empty_slot(self):
        table, chain, heap, meta = self._state()
        assert local_insert(5, 2, table, chain, heap, meta) is False
        assert table[2] == 5

    def test_collision_goes_to_heap(self):
        table, chain, heap, meta = self._state()
        local_insert(5, 2, table, chain, heap, meta)
        assert local_insert(9, 2, table, chain, heap, meta) is True
        assert table[2] == 5
        assert heap[0] == 9
        assert chain[2] == 1  # 1-based heap index

    def test_chain_links_preserve_all(self):
        table, chain, heap, meta = self._state(heap=8)
        for key in (5, 9, 13, 17):
            local_insert(key, 2, table, chain, heap, meta)
        assert sorted(collect_values(table, heap, meta)) == [5, 9, 13, 17]
        assert chain_lengths(chain, heap)[2] == 3

    def test_heap_exhaustion_raises(self):
        table, chain, heap, meta = self._state(heap=1)
        local_insert(1, 0, table, chain, heap, meta)
        local_insert(2, 0, table, chain, heap, meta)
        with pytest.raises(RuntimeError, match="heap exhausted"):
            local_insert(3, 0, table, chain, heap, meta)

    def test_corrupt_chain_detected(self):
        table, chain, heap, meta = self._state()
        chain[0] = 99  # out of range
        with pytest.raises(RuntimeError, match="corrupt"):
            chain_lengths(chain, heap)


class TestKeyGeneration:
    def test_keys_unique_nonzero(self):
        cfg = HashTableConfig(total_inserts=5000, seed=1)
        parts = generate_keys(cfg, 4)
        allk = np.concatenate(parts)
        assert len(allk) == 5000
        assert len(np.unique(allk)) == 5000
        assert np.all(allk > 0)

    def test_partition_balanced(self):
        cfg = HashTableConfig(total_inserts=1001, seed=1)
        parts = generate_keys(cfg, 4)
        sizes = [len(p) for p in parts]
        assert sum(sizes) == 1001
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        cfg = HashTableConfig(total_inserts=100, seed=9)
        a = generate_keys(cfg, 2)
        b = generate_keys(cfg, 2)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


@pytest.mark.parametrize(
    "runtime,machine_factory,nranks",
    [
        ("one_sided", perlmutter_cpu, 4),
        ("one_sided", perlmutter_cpu, 8),
        ("two_sided", perlmutter_cpu, 4),
        ("two_sided", perlmutter_cpu, 8),
        ("shmem", perlmutter_gpu, 4),
        ("shmem", summit_gpu, 6),
    ],
)
class TestDistributedCorrectness:
    def test_all_values_stored_exactly_once(self, runtime, machine_factory, nranks):
        cfg = HashTableConfig(total_inserts=1500, seed=2)
        keys = np.concatenate(generate_keys(cfg, nranks))
        res = run_hashtable(machine_factory(), runtime, cfg, nranks)
        assert sorted(res.extras["values"]) == sorted(keys.tolist())


class TestDistributedBehaviour:
    def test_chains_intact_after_one_sided_run(self):
        cfg = HashTableConfig(total_inserts=2000, seed=4, load_factor=0.9)
        res = run_hashtable(perlmutter_cpu(), "one_sided", cfg, 4)
        for chain, heap in zip(res.extras["chains"], res.extras["heaps"]):
            chain_lengths(chain, heap)  # raises on corruption
        assert res.extras["collisions"] > 0  # high load factor collides

    def test_gups_metric_positive(self):
        cfg = HashTableConfig(total_inserts=500, seed=2)
        res = run_hashtable(perlmutter_cpu(), "one_sided", cfg, 2)
        assert res.extras["gups"] > 0

    def test_one_sided_no_sync_until_end(self):
        """Paper: 'there is no synchronization until ending the insert' —
        sync count stays at the two barriers regardless of insert count."""
        cfg = HashTableConfig(total_inserts=400, seed=2)
        res = run_hashtable(perlmutter_cpu(), "one_sided", cfg, 2)
        # cas_blocking waits contribute; what matters is no collective sync
        # scaling: atomics >> barrier syncs.
        assert res.counters.atomics >= 400

    def test_two_sided_one_sided_crossover(self):
        """Paper Fig. 9: two-sided wins at P=2, one-sided wins at scale."""
        cfg = HashTableConfig(total_inserts=2000, seed=5)
        t = {}
        for P in (2, 32):
            for rt in ("one_sided", "two_sided"):
                t[(rt, P)] = run_hashtable(perlmutter_cpu(), rt, cfg, P).time
        assert t[("two_sided", 2)] < t[("one_sided", 2)]
        assert t[("one_sided", 32)] < t[("two_sided", 32)]

    def test_two_sided_poll_is_the_profiles_wait_poll(self):
        """The two-sided insert loop's ``recv_poll`` charges the profile's
        ``wait_poll`` per wake: editing it moves the hashtable time."""
        cfg = HashTableConfig(total_inserts=500, seed=2)
        slow = perlmutter_cpu()
        slow.runtimes["two_sided"] = dataclasses.replace(
            slow.runtimes["two_sided"], wait_poll=1e-6
        )
        base = run_hashtable(perlmutter_cpu(), "two_sided", cfg, 4).time
        assert run_hashtable(slow, "two_sided", cfg, 4).time > base

    def test_summit_cross_socket_atomics_hurt(self):
        """Paper Fig. 9: Summit GPUs stop scaling past one island."""
        cfg = HashTableConfig(total_inserts=3000, seed=5)
        t3 = run_hashtable(summit_gpu(), "shmem", cfg, 3).time
        t4 = run_hashtable(summit_gpu(), "shmem", cfg, 4).time
        assert t4 > t3 * 0.9

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HashTableConfig(total_inserts=0)
        with pytest.raises(ValueError):
            HashTableConfig(load_factor=1.5)

    def test_unknown_runtime_rejected(self):
        with pytest.raises((ValueError, KeyError)):
            run_hashtable(perlmutter_cpu(), "rdma", HashTableConfig(), 2)
