"""The benchmark's workloads: harness configs, instances per run, expected outcomes.

Each workload is a family of problem instances of one shape. A run measures
`instances` of them, with harness seeds derived from the run's --seed, so that
the reported figures average over instances instead of hanging on one draw
of data, graph and starting point. Standard library only: run.py imports it
before any child process has pinned its BLAS threads.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    flags: dict  # harness.parse_config overrides, the seed excluded
    instances: int  # problem instances measured per run
    expect_stop: str  # RunResult.stop every uncapped execution must report
    tol_ds: float | None  # final d_s every uncapped execution must reach
    why: str

    def instance_seeds(self, seed: int) -> list:
        """Harness seeds of the run's instances; distinct across run seeds."""
        return [seed * self.instances + j for j in range(self.instances)]

    def config_flags(self, instance_seed: int, max_rounds: int | None = None) -> dict:
        """The harness flags of one instance, with the round cap lowered if asked."""
        flags = dict(self.flags, seed=instance_seed)
        if max_rounds is not None:
            key = "max_epochs" if flags["algorithm"] == "drsgd" else "max_iters"
            flags[key] = min(flags[key], max_rounds)
        return flags


_RING8 = dict(graph="ring", n=8, t=1, alpha=1.0, d=30, r=5, m=100, gap=0.8)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="gta-ring8",
            flags=dict(
                _RING8,
                algorithm="drgta",
                beta_hat=0.05,
                tol_ds=1e-8,
                tol_grad=0.0,
                max_iters=20000,
            ),
            instances=6,
            expect_stop="ds_tol",
            tol_ds=1e-8,
            why="acceptance instance run to d_s<=1e-8: time to solution, per-agent Python "
            "work on small matrices and one metrics snapshot and CSV row per round",
        ),
        Workload(
            name="sgd-ring8",
            flags=dict(
                _RING8,
                algorithm="drsgd",
                beta_hat=0.2,
                batch_size=1,
                max_epochs=50,
                tol_ds=0.0,
            ),
            instances=8,
            expect_stop="max_rounds",
            tol_ds=None,
            why="drsgd, 50 epochs of batch-1 steps: per-step manifold and stochastic "
            "gradient work, with one snapshot per 100 steps so metrics and CSV are idle",
        ),
        Workload(
            name="gta-er32",
            flags=dict(
                algorithm="drgta",
                graph="er",
                er_p=0.3,
                n=32,
                t=1,
                alpha=1.0,
                beta_hat=0.05,
                d=200,
                r=10,
                m=100,
                gap=0.8,
                max_iters=200,
                tol_ds=0.0,
                tol_grad=0.0,
            ),
            instances=8,
            expect_stop="max_rounds",
            tol_ds=None,
            why="drgta, 200 rounds on ER(0.3) n=32, d=200, r=10: dense Gram products "
            "and mixing dominate, and set-up is a visible share",
        ),
    )
}
