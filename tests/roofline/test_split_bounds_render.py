"""SplitModel (Fig. 10), workload bounds (Fig. 6), ASCII rendering."""

import pytest

from repro.machines import perlmutter_cpu, perlmutter_gpu
from repro.roofline import (
    Series,
    SplitModel,
    WorkloadProfile,
    ascii_loglog,
    bound_workload,
)


@pytest.fixture
def split():
    return SplitModel.from_machine(perlmutter_gpu(), "gpu0", "gpu1")


class TestSplitModel:
    def test_k1_is_baseline(self, split):
        t = float(split.time(1 << 20, 1))
        expected = split.o + split.L + (1 << 20) / split.channel_bandwidth
        assert t == pytest.approx(expected)

    def test_split_wins_large_volumes(self, split):
        assert float(split.speedup(16 << 20, 4)) > 2.5

    def test_split_loses_small_volumes(self, split):
        assert float(split.speedup(4 << 10, 4)) < 1.0

    def test_crossover_monotone(self, split):
        V = split.crossover_volume(4)
        assert float(split.speedup(V * 4, 4)) > 1.0
        assert float(split.speedup(V / 4, 4)) < 1.0

    def test_paper_crossover_131KB(self, split):
        assert 64 * 1024 <= split.crossover_volume(4) <= 256 * 1024

    def test_paper_asymptote_2_9x(self, split):
        assert split.asymptotic_speedup(4) == pytest.approx(2.9, rel=0.15)

    def test_more_chunks_than_channels_reuses(self):
        m = SplitModel(
            o=1e-7, L=1e-7, channel_bandwidth=25e9,
            injection_bandwidth=1e15, channels=4,
        )
        # 8 chunks on 4 channels: two waves.
        t8 = float(m.time(1 << 24, 8))
        t4 = float(m.time(1 << 24, 4))
        assert t8 >= t4 * 0.9

    def test_speedup_capped_by_channels(self):
        m = SplitModel(
            o=0.0, L=0.0, channel_bandwidth=25e9,
            injection_bandwidth=1e18, channels=4,
        )
        assert m.asymptotic_speedup(4) <= 4.0 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            SplitModel(o=0, L=0, channel_bandwidth=0, injection_bandwidth=1)
        m = SplitModel(o=0, L=0, channel_bandwidth=1e9, injection_bandwidth=1e9)
        with pytest.raises(ValueError):
            m.time(100, 0)
        with pytest.raises(ValueError):
            m.time(-1, 1)


class TestWorkloadBounds:
    def test_bound_rows_structure(self):
        prof = WorkloadProfile(
            "stencil", (8192.0, 65536.0), msgs_per_sync=4, pattern="halo",
        )
        wb = bound_workload(perlmutter_cpu(), "two_sided", prof)
        rows = wb.rows()
        assert len(rows) == 2
        assert rows[1]["bound_GBps"] > rows[0]["bound_GBps"]
        assert all(0 < r["fraction_of_peak"] <= 1 for r in rows)

    def test_one_sided_four_ops_bound_slower(self):
        two = bound_workload(
            perlmutter_cpu(),
            "two_sided",
            WorkloadProfile("sptrsv", (800.0,), 1, "mailbox"),
        )
        one = bound_workload(
            perlmutter_cpu(),
            "one_sided",
            WorkloadProfile("sptrsv", (800.0,), 1, "mailbox"),
        )
        assert one.time_per_sync[0] > two.time_per_sync[0]

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile("x", (), 1, "mailbox")
        with pytest.raises(ValueError):
            WorkloadProfile("x", (-1.0,), 1, "mailbox")
        with pytest.raises(ValueError):
            WorkloadProfile("x", (8.0,), 0, "mailbox")


class TestAsciiRender:
    def test_renders_grid_and_legend(self):
        s = Series("model", [(2.0**k, 2.0**k) for k in range(3, 20)], marker="o")
        out = ascii_loglog([s], width=40, height=10, title="T", xlabel="B", ylabel="GB/s")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert sum(line.count("o") for line in lines) >= 10
        assert "legend: o=model" in out

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ascii_loglog([Series("empty", [])])

    def test_rejects_multichar_marker(self):
        with pytest.raises(ValueError):
            Series("x", [(1, 1)], marker="ab")

    def test_degenerate_single_point(self):
        out = ascii_loglog([Series("p", [(10.0, 10.0)])], width=20, height=5)
        assert "p" in out
