"""The seven workloads of the host-time benchmark.

Every workload drives the simulator from outside, through public
functions only, and is sized (``FULL``) for roughly 3 s per rep on the
2-core sandbox.  ``SMOKE`` is the same body at about 1/50 of the op
count; it is what ``run.py --smoke`` measures and what every run uses as
its untimed warm-up, so lazy imports and the route caches held by the
shared topology/machine objects are filled before the first timed rep.

Lifecycle, driven by ``run.py``:

* ``Workload(seed)`` — *set-up*: seeded input generation, topology and
  machine construction.  Counted in ``setup_s``, never in ``wall_ref_s``.
* ``prepare(sizes, metrics)`` — a fresh ``Simulator``/``Fabric``/cache per
  rep, outside the timed region.  ``metrics`` is the obs registry of the
  traced run (``None`` on timed reps).
* ``body(fresh)`` — the timed region.
* ``checks(sizes, out)`` / ``final_checks(sizes)`` — correctness, untimed;
  each returns ``[(name, ok), ...]`` and feeds ``pass_frac``.
* ``digest(out)`` — bytes covering the simulated outputs (``sim_digest``).
"""

from __future__ import annotations

import json
import random
import shutil
import struct
import tempfile
from pathlib import Path

import repro
from repro import perf
from repro.faults import FaultInjector, FaultPlan
from repro.net import AdaptiveRouting, CongestionConfig, Fabric, dragonfly
from repro.sim import Simulator
from repro.sweep import ResultCache, SweepSpec, run_sweep
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.ml.training import run_training_step

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
GOLDENS = ROOT / "tests" / "regression" / "goldens"
# Scratch space for the sweep cache: inside the checkout, gitignored.
WORK = HERE / ".work"

GOLDEN_EXPERIMENTS = ("table2", "fig03", "fig05", "fig08", "fig09")


class Workload:
    """Base: see the module docstring for the lifecycle."""

    name: str
    op_unit: str
    FULL: dict
    SMOKE: dict
    # paper_suite is the cold cost a user of `repro run all` pays every
    # time: no warm-up, one rep.
    cold_single_rep = False

    def __init__(self, seed: int):
        self.seed = seed

    def ops(self, sizes: dict) -> int:
        raise NotImplementedError

    def prepare(self, sizes: dict, metrics=None):
        return sizes

    def body(self, fresh):
        raise NotImplementedError

    def finish(self, fresh) -> None:
        """Release what ``prepare`` opened (untimed)."""

    def checks(self, sizes: dict, out) -> list[tuple[str, bool]]:
        return []

    def final_checks(self, sizes: dict) -> list[tuple[str, bool]]:
        return []

    def digest(self, out) -> bytes:
        raise NotImplementedError

    def counts(self, out) -> dict[str, float]:
        """Exact counts only the harness can see (merged into the trace)."""
        return {}

    def makespan(self, out, snapshot: dict) -> float:
        """Simulated seconds covered by one rep (``sim.makespan_s``)."""
        raise NotImplementedError


# -- paper_suite -------------------------------------------------------------


class PaperSuite(Workload):
    name = "paper_suite"
    op_unit = "experiments"
    FULL = {"experiments": None}  # None = every registered experiment
    SMOKE = {"experiments": GOLDEN_EXPERIMENTS}
    cold_single_rep = True

    def _names(self, sizes):
        return sizes["experiments"] or repro.experiment_names()

    def ops(self, sizes):
        return len(self._names(sizes))

    def body(self, sizes):
        reports = {}
        for name in self._names(sizes):
            try:
                reports[name] = repro.run_experiment(name)
            except Exception as exc:  # one crash must not hide the rest
                reports[name] = exc
        return reports

    def checks(self, sizes, reports):
        out = []
        for name, report in reports.items():
            if isinstance(report, Exception):
                out.append((f"{name}:raised:{type(report).__name__}", False))
                continue
            out += [(f"{name}:{k}", bool(ok)) for k, ok in report.expectations.items()]
            if name in GOLDEN_EXPERIMENTS:
                golden = (GOLDENS / f"{name}.txt").read_text()
                out.append(
                    (f"{name}:golden", report.render().rstrip("\n") == golden.rstrip("\n"))
                )
        return out

    def digest(self, reports):
        return "\n".join(
            f"{name}\n{r if isinstance(r, Exception) else r.render()}"
            for name, r in reports.items()
        ).encode()

    def makespan(self, reports, snapshot):
        # Experiments do not return their simulated clocks; the latest bin
        # of the fabric's bytes timeline (1e-4 s bins, merged over every
        # job) is the latest simulated arrival any of them saw.
        timeline = snapshot.get("net.bytes_timeline") or [[0.0, 0.0]]
        return max(t for t, _ in timeline)


# -- fabric_* ----------------------------------------------------------------

_FABRIC = (8, 4, 2)  # dragonfly(groups, routers_per_group, nodes_per_router)
_N_PAIRS = 1024
_MESSAGE_SIZES = (64, 4096, 65536)


class _FabricWorkload(Workload):
    """``Fabric.transfer`` in a closed loop over seeded (src != dst) pairs."""

    op_unit = "transfers"

    def __init__(self, seed):
        super().__init__(seed)
        self.topology = dragonfly(*_FABRIC).topology
        rng = random.Random(seed)
        endpoints = list(self.topology.endpoints)
        pairs = [tuple(rng.sample(endpoints, 2)) for _ in range(_N_PAIRS)]
        n = self.FULL["transfers"]
        self.traffic = [
            (*pairs[i % _N_PAIRS], _MESSAGE_SIZES[i % len(_MESSAGE_SIZES)])
            for i in range(n)
        ]

    def ops(self, sizes):
        return sizes["transfers"]

    def fabric_options(self) -> dict:
        """Fresh routing / congestion / fault objects for one fabric."""
        return {}

    def _fabric(self, options: dict, metrics=None):
        return Fabric(Simulator(), self.topology, metrics=metrics, **options)

    def prepare(self, sizes, metrics=None):
        fabric = self._fabric(self.fabric_options(), metrics)
        return fabric, self.traffic[: sizes["transfers"]]

    def body(self, fresh):
        fabric, traffic = fresh
        transfer = fabric.transfer
        arrivals, hops = [], []
        for src, dst, nbytes in traffic:
            d = transfer(src, dst, nbytes)
            arrivals.append(d.arrival)
            hops.append(d.route.nhops)
        return arrivals, hops

    def checks(self, sizes, out):
        arrivals, _hops = out
        return [("all_transfers_returned", len(arrivals) == sizes["transfers"])]

    def digest(self, out):
        arrivals, _hops = out
        return struct.pack(f"<{len(arrivals)}d", *arrivals)

    def counts(self, out):
        _arrivals, hops = out
        route = self.topology.route
        minimal = [route(src, dst).nhops for src, dst, _ in self.traffic[: len(hops)]]
        return {"net.routing.detours": sum(h > m for h, m in zip(hops, minimal))}

    def makespan(self, out, snapshot):
        return max(out[0])


class FabricClean(_FabricWorkload):
    name = "fabric_clean"
    FULL = {"transfers": 300_000, "parity_prefix": 5_000}
    SMOKE = {"transfers": 6_000, "parity_prefix": 100}

    def final_checks(self, sizes):
        prefix = self.traffic[: sizes["parity_prefix"]]
        default, _ = self.body((self._fabric({}), prefix))
        minimal, _ = self.body((self._fabric({"routing": "minimal"}), prefix))
        return [("minimal_routing_bit_identical_to_default", default == minimal)]


class FabricAdaptiveCC(_FabricWorkload):
    name = "fabric_adaptive_cc"
    FULL = {"transfers": 60_000}
    SMOKE = {"transfers": 1_200}

    def fabric_options(self):
        return {"routing": AdaptiveRouting(candidates=2), "congestion": CongestionConfig()}


class FabricFaulty(_FabricWorkload):
    name = "fabric_faulty"
    FULL = {"transfers": 150_000}
    SMOKE = {"transfers": 3_000}

    def fabric_options(self):
        plan = FaultPlan.uniform(loss=0.01, jitter=1e-7, seed=self.seed)
        return {"faults": FaultInjector(plan)}


# -- bulk_epoch --------------------------------------------------------------


class BulkEpoch(Workload):
    name = "bulk_epoch"
    op_unit = "cas_ops+messages"
    FULL = {"cas_ops": 1_000_000, "msgs_per_sync": 32_768, "iters": 10}
    SMOKE = {"cas_ops": 20_000, "msgs_per_sync": 640, "iters": 10}
    _PARITY = {"cas_ops": 256, "msgs_per_sync": 256, "iters": 2}

    def __init__(self, seed):
        super().__init__(seed)
        self.cpu = repro.get_machine("perlmutter-cpu")
        self.gpu = repro.get_machine("perlmutter-gpu")

    def ops(self, sizes):
        return sizes["cas_ops"] + sizes["msgs_per_sync"] * sizes["iters"]

    def body(self, sizes):
        cas = run_cas_flood(self.cpu, "one_sided", n_ops=sizes["cas_ops"])
        flood = run_flood(
            self.gpu, "shmem", 64, sizes["msgs_per_sync"], iters=sizes["iters"]
        )
        return cas, flood

    def final_checks(self, sizes):
        bulk = self.body(self._PARITY)
        with perf.vectorized(False):
            scalar = self.body(self._PARITY)
        return [
            ("cas_flood_bulk_equals_scalar", bulk[0] == scalar[0]),
            ("flood_bulk_equals_scalar", bulk[1] == scalar[1]),
        ]

    def digest(self, out):
        return repr(out).encode()

    def makespan(self, out, snapshot):
        cas, flood = out
        return cas["time"] + flood.time_total


# -- cluster_step ------------------------------------------------------------


class ClusterStep(Workload):
    name = "cluster_step"
    op_unit = "routed_messages"
    FULL = {"nranks": 32, "grad_bytes": 64 * 2**20, "buckets": 8, "iters": 4}
    SMOKE = {"nranks": 32, "grad_bytes": 8 * 2**20, "buckets": 1, "iters": 1}

    def __init__(self, seed):
        super().__init__(seed)
        self.machine = repro.get_machine("perlmutter-gpu-x8@dragonfly(4,2,2)")

    def ops(self, sizes):
        p = sizes["nranks"]
        return sizes["iters"] * sizes["buckets"] * 2 * (p - 1) * p

    def body(self, sizes):
        return run_training_step(self.machine, "shmem", **sizes)

    def checks(self, sizes, result):
        return [("comm_fraction_in_unit_interval", 0.0 < result.comm_fraction < 1.0)]

    def digest(self, result):
        return repr(result).encode()

    def makespan(self, result, snapshot):
        return result.time * result.iters


# -- sweep_grid --------------------------------------------------------------


def _flood_point(params, seed):
    """Sweep point runner: one flood run on a freshly built machine."""
    r = run_flood(
        repro.get_machine(params["machine"]),
        params["runtime"],
        params["size"],
        params["msgs"],
        iters=2,
    )
    return {"bandwidth": r.bandwidth, "time_total": r.time_total}


class SweepGrid(Workload):
    name = "sweep_grid"
    op_unit = "points_served"
    _MACHINES = ("perlmutter-cpu", "frontier-cpu")
    _RUNTIMES = ("two_sided", "one_sided")
    FULL = {
        "sizes": tuple(64 * 8**k for k in range(6)),  # 64 B .. 2 MiB
        "msgs": (1, 4, 16, 64, 256, 1024),
        "warm_passes": 20,
    }
    SMOKE = {"sizes": (64, 4096), "msgs": (1, 16), "warm_passes": 3}

    def _npoints(self, sizes):
        return (
            len(self._MACHINES) * len(self._RUNTIMES)
            * len(sizes["sizes"]) * len(sizes["msgs"])
        )

    def ops(self, sizes):
        return self._npoints(sizes) * (1 + sizes["warm_passes"])

    def prepare(self, sizes, metrics=None):
        spec = SweepSpec(
            name="perf_sweep_grid",
            runner=_flood_point,
            axes={
                "machine": self._MACHINES,
                "runtime": self._RUNTIMES,
                "size": sizes["sizes"],
                "msgs": sizes["msgs"],
            },
            common={"seed": self.seed},
        )
        WORK.mkdir(exist_ok=True)
        cache_dir = tempfile.mkdtemp(prefix="sweep-cache-", dir=WORK)
        return spec, ResultCache(cache_dir), sizes["warm_passes"], cache_dir

    def body(self, fresh):
        spec, cache, warm_passes, _dir = fresh
        cold = run_sweep(spec, jobs=1, cache=cache)
        warm = [run_sweep(spec, jobs=1, cache=cache) for _ in range(warm_passes)]
        return cold, warm

    def finish(self, fresh):
        shutil.rmtree(fresh[3], ignore_errors=True)

    def checks(self, sizes, out):
        cold, warm = out
        n = self._npoints(sizes)
        cold_values = [r.value for r in cold]
        results = [("cold_pass_ran_every_point", sum(r.cached for r in cold) == 0)]
        for i, sweep in enumerate(warm):
            results.append((f"warm{i}:values_equal_cold", [r.value for r in sweep] == cold_values))
            results.append((f"warm{i}:all_cache_hits", sum(r.cached for r in sweep) == n))
        return results

    def digest(self, out):
        cold, _warm = out
        return json.dumps([r.value for r in cold], sort_keys=True).encode()

    def makespan(self, out, snapshot):
        cold, _warm = out
        return sum(r.value["time_total"] for r in cold)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w
    for w in (
        PaperSuite,
        FabricClean,
        FabricAdaptiveCC,
        FabricFaulty,
        BulkEpoch,
        ClusterStep,
        SweepGrid,
    )
}
