"""Why Horovod: the parameter-server baseline, measured (paper §1).

Distributed TensorFlow's native gRPC path routes every worker's
gradients through parameter servers; the paper adopts Horovod's MPI
allreduce instead. This example shows both sides:

1. cost model: per-step gradient-exchange time for NT3's 620 MB fused
   gradient — PS scales linearly with workers, the ring stays flat;
2. functional: a real synchronous PS run vs a real Horovod run on the
   same small problem produce the same learning curve (the semantics
   agree; only the communication pattern differs).

Run:  python examples/parameter_server_vs_horovod.py
"""

import numpy as np

from repro.analysis import line_chart
from repro.candle.nt3 import NT3_SPEC
from repro.cluster.machine import SUMMIT
from repro.hvd.fusion import DEFAULT_FUSION_BYTES
from repro.mpi.network import CollectiveCostModel
from repro.ps import PsCostModel, run_parameter_server_training
from repro.telemetry.report import format_table


def cost_comparison() -> None:
    ring = CollectiveCostModel(SUMMIT.fabric, ranks_per_node=6)
    ps = PsCostModel(SUMMIT.fabric)
    nbytes = NT3_SPEC.gradient_bytes
    pieces = [DEFAULT_FUSION_BYTES] * (nbytes // DEFAULT_FUSION_BYTES)
    if nbytes % DEFAULT_FUSION_BYTES:
        pieces.append(nbytes % DEFAULT_FUSION_BYTES)
    counts = [6, 12, 24, 48, 96, 192, 384]
    ps_ms = [ps.step_seconds(nbytes, n) * 1e3 for n in counts]
    ring_ms = [sum(ring.allreduce_hierarchical(p, n) for p in pieces) * 1e3 for n in counts]
    print(
        line_chart(
            counts,
            {"parameter server": ps_ms, "ring allreduce": ring_ms},
            log_x=True,
            title="per-step gradient exchange, NT3 gradient (ms vs workers)",
        )
    )
    rows = [
        {"workers": n, "ps_ms": round(p, 1), "ring_ms": round(r, 1), "ratio": round(p / r, 1)}
        for n, p, r in zip(counts, ps_ms, ring_ms)
    ]
    print()
    print(format_table(rows))


def functional_comparison() -> None:
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 6))
    y = np.eye(2)[(x[:, 0] > 0).astype(int)]

    def build():
        from repro.nn import SGD, Activation, Dense, Sequential

        m = Sequential([Dense(5, activation="tanh"), Dense(2), Activation("softmax")])
        m.build((6,), seed=3)
        m.compile(SGD(lr=0.1), "categorical_crossentropy")
        return m

    res_sync = run_parameter_server_training(
        nworkers=3, build_model=build, data=(x, y), steps=30, batch_size=30
    )
    res_async = run_parameter_server_training(
        nworkers=3, build_model=build, data=(x, y), steps=30, batch_size=30,
        mode="async",
    )
    print("\nfunctional parameter-server runs (3 workers, 30 steps):")
    for res in (res_sync, res_async):
        print(f"  {res.mode:<6} loss {np.mean(res.losses[:3]):.4f} -> "
              f"{np.mean(res.losses[-3:]):.4f} ({res.server_updates} server updates)")


if __name__ == "__main__":
    cost_comparison()
    functional_comparison()
