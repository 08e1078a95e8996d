"""The one point runner behind every experiment point that runs a workload.

Every figure is a sweep of the same workloads over machine x runtime x
message size x msgs/sync, so a point states *what* runs and this module
says *how*: ``params["workload"]`` names the runner and the rest of
``params`` are its arguments, plain JSON values with the machine given by
registry name.  Three optional keys cover every variation:

* ``placement`` — passed through to the workload runner;
* ``interconnect`` — a :data:`~repro.machines.cluster.FABRICS` key: the
  point runs on a 2-node cluster of ``machine`` joined by that fabric;
* ``faults`` — keyword arguments of :meth:`repro.faults.FaultPlan.uniform`:
  the point runs under :func:`repro.faults.inject`, and its value gains
  the scope's ``drops`` / ``retransmits`` / ``exhausted``.

A point that is not a workload run (an analytic bound, a topology fact, a
cluster of jobs) keeps its own runner in its experiment module.
"""

from __future__ import annotations

from repro import faults
from repro.machines.cluster import FABRICS, make_cluster
from repro.machines.registry import get_machine
from repro.workloads.flood import run_cas_flood, run_flood
from repro.workloads.hashtable import HashTableConfig, run_hashtable
from repro.workloads.ml import run_kv_transfer, run_moe_dispatch, run_training_step
from repro.workloads.sptrsv import MatrixSpec, generate_matrix, run_sptrsv
from repro.workloads.stencil import StencilConfig, run_stencil

__all__ = ["run_point", "sptrsv_matrix"]


def sptrsv_matrix(n_supernodes: int, seed: int):
    """The synthetic supernodal matrix the SpTRSV experiments solve."""
    return generate_matrix(
        MatrixSpec(n_supernodes=n_supernodes, width_lo=3, width_hi=130, seed=seed)
    )


def _flood(m, p, kw):
    r = run_flood(m, p["runtime"], p["size"], p["msgs"], iters=p["iters"], **kw)
    return {"bandwidth": r.bandwidth, "latency_per_message": r.latency_per_message}


def _cas(m, p, kw):
    c = run_cas_flood(
        m, p["runtime"], **{k: p[k] for k in ("nranks", "target_rank") if k in p}
    )
    return {"ops": c["ops"], "latency_per_cas": c["latency_per_cas"]}


def _stencil(m, p, kw):
    cfg = StencilConfig(nx=p["nx"], ny=p["nx"], iters=p["iters"], mode="simulate")
    res = run_stencil(m, p["runtime"], cfg, p["P"], **kw)
    return {"time": res.time, "halo_max": max(res.extras["halo_bytes"].values())}


def _sptrsv(m, p, kw):
    matrix = sptrsv_matrix(p["n_supernodes"], p["seed"])
    return {"time": run_sptrsv(m, p["runtime"], matrix, p["P"], **kw).time}


def _hashtable(m, p, kw):
    cfg = HashTableConfig(total_inserts=p["total_inserts"], seed=p["seed"])
    res = run_hashtable(m, p["runtime"], cfg, p["P"], **kw)
    return {"time": res.time, "gups": res.extras["gups"]}


def _training(m, p, kw):
    r = run_training_step(
        m, p["runtime"], nranks=p["P"], grad_bytes=p["grad_bytes"],
        tokens_per_rank=p["tokens"], **kw,
    )
    return {"time": r.time, "comm_time": r.comm_time,
            "comm_fraction": r.comm_fraction, "algorithm": r.algorithm}


def _moe(m, p, kw):
    r = run_moe_dispatch(
        m, p["runtime"], nranks=p["P"], tokens_per_rank=p["tokens"],
        hidden=p["hidden"], **kw,
    )
    return {"time": r.time, "comm_fraction": r.comm_fraction,
            "tokens_per_s": r.tokens_per_s, "algorithm": r.algorithm}


def _kv(m, p, kw):
    r = run_kv_transfer(
        m, p["runtime"], nranks=p["P"], context_tokens=p["context"], **kw
    )
    return {"transfer_time": r.transfer_time, "ttft": r.ttft,
            "transfer_bandwidth": r.transfer_bandwidth, "kv_bytes": r.kv_bytes,
            "algorithm": r.algorithm}


_RUNNERS = {
    "flood": _flood, "cas": _cas, "stencil": _stencil, "sptrsv": _sptrsv,
    "hashtable": _hashtable, "training": _training, "moe": _moe, "kv": _kv,
}


def run_point(params, seed):
    """Run the workload ``params["workload"]`` names with the rest of
    ``params`` as its arguments (see the module docstring)."""
    runner = _RUNNERS.get(params["workload"])
    if runner is None:
        raise ValueError(
            f"unknown workload {params['workload']!r}; available: {sorted(_RUNNERS)}"
        )
    machine = get_machine(params["machine"])
    if params.get("interconnect") is not None:
        machine = make_cluster(machine, 2, FABRICS[params["interconnect"]])
    kw = {"placement": params["placement"]} if "placement" in params else {}
    if "faults" not in params:
        return runner(machine, params, kw)
    with faults.inject(faults.FaultPlan.uniform(**params["faults"])) as scope:
        value = runner(machine, params, kw)
    stats = scope.stats()
    return {**value, **{k: stats[k] for k in ("drops", "retransmits", "exhausted")}}
