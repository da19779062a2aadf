"""Epoch partitioning across workers (paper §2.3.2).

The paper adjusts the number of epochs per GPU with::

    def comp_epochs(n, myrank=0, nprocs=1):
        j = int(n // nprocs)
        k = n % nprocs
        if myrank < nprocs-1:
            i = j
        else:
            i = j + k
        return i

and then notes: "For load balancing, we ensure that the number of
epochs is the same for each GPU" — i.e. in practice they run the
balanced variant where the remainder is dropped. Both are provided;
the experiments use the balanced one, matching the paper's runs (384
epochs / 384 GPUs = exactly 1 each, etc.).
"""

from __future__ import annotations

__all__ = ["comp_epochs", "comp_epochs_balanced"]


def comp_epochs(n: int, myrank: int = 0, nprocs: int = 1) -> int:
    """The paper's epoch partition: last rank absorbs the remainder."""
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if not 0 <= myrank < nprocs:
        raise ValueError(f"myrank {myrank} out of range for nprocs {nprocs}")
    if n < 0:
        raise ValueError(f"epoch count must be non-negative, got {n}")
    j = int(n // nprocs)
    k = n % nprocs
    if myrank < nprocs - 1:
        return j
    return j + k


def comp_epochs_balanced(n: int, nprocs: int = 1) -> int:
    """Load-balanced epochs per worker: same on every rank, >= 1.

    Drops the remainder (the paper keeps per-GPU epochs equal); clamps
    to at least one epoch, since a worker must see the data once.
    """
    if nprocs <= 0:
        raise ValueError(f"nprocs must be positive, got {nprocs}")
    if n <= 0:
        raise ValueError(f"epoch count must be positive, got {n}")
    return max(1, n // nprocs)
