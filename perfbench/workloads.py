"""The benchmark's named workloads and the program inputs each one builds.

Every workload uses the shipped defaults (nearest-neighbor chain, n_t=256,
n_w=16, order 3, default network and loss weights) with basis_k = q.  Only
q, the epoch count and the seed differ.
"""

from __future__ import annotations

from dataclasses import dataclass

# magnus-study sweep: the CLI's default window counts and all three orders
STUDY_NW = (4, 8, 16, 32, 64)
STUDY_ORDERS = (1, 2, 3)
# evaluate + study rounds per run, at least; more while time is left
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    q: int
    epochs: int  # fixed length of the training loop
    warmup: int  # first epochs left out of the epoch medians
    setups: int  # cold context builds, one fresh process each
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "q2-train", q=2, epochs=300, warmup=10, setups=15,
            why="q=2 training: small tape nodes, so autodiff, magnus and network "
                "interpreter overhead dominate; scatter and eigen cost little",
        ),
        Workload(
            "q4-train", q=4, epochs=16, warmup=2, setups=3,
            why="q=4 training: EL and regularizer scatter, dense materialization "
                "and Jacobi set-up dominate; fused propagation shows little",
        ),
    )
}


def run_config(w: Workload, seed: int):
    """The RunConfig a user hands to `trainer.train` for this workload."""
    from cdqfi.config import RunConfig
    from cdqfi.models import ModelSpec

    return RunConfig(model=ModelSpec("nearest-neighbor", w.q), basis_k=w.q,
                     epochs=w.epochs, seed=seed)
