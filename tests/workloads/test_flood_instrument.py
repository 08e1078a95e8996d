"""Flood microbenchmark and the Table II instrumentation."""

import pytest

from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.sweep import SweepSpec, run_sweep
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.instrument import characterize_workloads


def _flood_point(params, seed):
    r = run_flood(
        perlmutter_cpu(), "two_sided", params["nbytes"],
        params["msgs_per_sync"], iters=1,
    )
    return {"nbytes": r.nbytes, "msgs_per_sync": r.msgs_per_sync}


class TestFlood:
    def test_bandwidth_positive_and_bounded(self):
        r = run_flood(perlmutter_cpu(), "two_sided", 65536, 16, iters=2)
        assert 0 < r.bandwidth <= 32e9

    def test_bandwidth_rises_with_n(self):
        bw = [
            run_flood(perlmutter_cpu(), "two_sided", 1024, n, iters=2).bandwidth
            for n in (1, 16, 256)
        ]
        assert bw[0] < bw[1] < bw[2]

    def test_bandwidth_rises_with_size(self):
        bw = [
            run_flood(perlmutter_cpu(), "one_sided", B, 16, iters=2).bandwidth
            for B in (64, 4096, 262144)
        ]
        assert bw[0] < bw[1] < bw[2]

    def test_all_runtimes_supported(self):
        for machine, rt in (
            (perlmutter_cpu(), "two_sided"),
            (perlmutter_cpu(), "one_sided"),
            (perlmutter_gpu(), "shmem"),
        ):
            r = run_flood(machine, rt, 4096, 4, iters=1)
            assert r.runtime == rt
            assert r.bandwidth > 0

    def test_as_sample_roundtrip(self):
        r = run_flood(perlmutter_cpu(), "two_sided", 1024, 4, iters=1)
        s = r.as_sample()
        assert s.nbytes == 1024 and s.msgs_per_sync == 4
        assert s.bandwidth == r.bandwidth

    def test_validation(self):
        with pytest.raises(ValueError):
            run_flood(perlmutter_cpu(), "two_sided", 4, 1)
        with pytest.raises(ValueError, match="multiple of the 8-byte element"):
            run_flood(perlmutter_cpu(), "one_sided", 100, 16, iters=2)
        with pytest.raises(ValueError):
            run_flood(perlmutter_cpu(), "two_sided", 64, 0)
        with pytest.raises((ValueError, KeyError)):
            run_flood(perlmutter_cpu(), "smoke", 64, 1)
        with pytest.raises(ValueError, match="nranks"):
            run_flood(perlmutter_cpu(), "two_sided", 64, 4, nranks=1)
        with pytest.raises(ValueError, match="iters"):
            run_flood(perlmutter_cpu(), "two_sided", 64, 4, iters=0)

    @pytest.mark.parametrize("iters", [float("nan"), 2.5], ids=["nan", "fraction"])
    def test_non_integer_iters_are_typed(self, iters):
        """``nan`` slips past ``iters < 1``; either used to reach ``range``."""
        with pytest.raises(ValueError, match=r"flood iters must be an integer >= 1"):
            run_flood(perlmutter_cpu(), "one_sided", 64, 4, iters=iters)

    def test_sweep_covers_grid(self):
        """A (size x msg/sync) flood grid is a sweep over run_flood points."""
        out = run_sweep(SweepSpec(
            name="flood-grid",
            runner=_flood_point,
            axes={"nbytes": (64, 1024), "msgs_per_sync": (1, 4)},
        ))
        assert len(out) == 4
        assert {(r.value["nbytes"], r.value["msgs_per_sync"]) for r in out} == {
            (64, 1), (64, 4), (1024, 1), (1024, 4),
        }


class TestCasFlood:
    def test_latency_fields(self):
        r = run_cas_flood(perlmutter_cpu(), "one_sided", n_ops=16)
        assert r["latency_per_cas"] > 0
        assert r["cas_rate"] == pytest.approx(1 / r["latency_per_cas"])

    def test_target_rank_validated(self):
        with pytest.raises(ValueError):
            run_cas_flood(perlmutter_cpu(), "one_sided", target_rank=0)
        with pytest.raises(ValueError):
            run_cas_flood(perlmutter_cpu(), "one_sided", nranks=2, target_rank=2)
        for n_ops in (0, -3):
            with pytest.raises(ValueError, match="n_ops must be an integer >= 1, got"):
                run_cas_flood(perlmutter_cpu(), "one_sided", n_ops=n_ops)


class TestTable2:
    def test_characterization_rows(self):
        rows = characterize_workloads(perlmutter_cpu())
        assert [r.workload for r in rows] == ["Stencil", "SpTRSV", "Hashtable"]
        stencil = rows[0]
        assert stencil.msgs_per_sync == "4"
        assert stencil.pattern == "BSP sync"
        sptrsv = rows[1]
        assert sptrsv.msgs_per_sync == "1"
        # Paper: average ~100 words per SpTRSV message.
        assert "avg" in sptrsv.words_per_msg
        ht = rows[2]
        assert ht.notify_receiver == "No"
        assert "insert" in ht.msgs_per_sync
