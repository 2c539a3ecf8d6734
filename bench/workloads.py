"""Inputs of the four workloads, generated from the workload seed.

Every process starts cold, because xvar_recursive, xvar_enum, _dp_tables
and the oracle histograms are all lru_cached.  A repetition ("rep") is a
fixed list of such processes; wall_s is the median over reps of its summed
work, cmd_p50_s / cmd_p90_s the median over reps of the nearest-rank
percentiles of its processes' latencies.

- recursion: gr_table on each of RECURSION, one process per pair, in a
  seeded order.  (4, 6) takes 33-37 s on a 2-core x86 box without gmpy2,
  longer than one run may measure, so the workload takes three pairs that
  run in seconds with the same profile: about 80 % torus products, most of
  it in _mul_large, then left_divide and the QLaurent products it calls
  (see README.md).  p50 lands on (6, 5), p90 on (7, 5).
- expansion: xvar_enum(r, n, budget=None) on each of EXPANSION, one
  process per pair, in a seeded order; budget=None because the default
  family budget refuses both pairs (exit 10 from the CLI).
- oracle: one process makes one criterion-5 pass over FF_CONFIGS, with a
  module seed drawn from the workload seed, so the random-search configs
  build a different certified module in every pass.
- session: one round runs every MENU command once as its own
  ``python -m qkron`` process, in a seeded order and a seeded format.  MENU
  is README's command list plus `verify --suite matrix`, the suite whose
  small schoolbook QLaurent products the workload is meant to load, each
  once and unweighted.
"""

from __future__ import annotations

import random

RECURSION = ((7, 5), (6, 5), (3, 6))
EXPANSION = ((4, 6), (3, 7))
FF_CONFIGS = ((2, 4, 2), (2, 4, 3), (2, 5, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2), (3, 5, 2))

MENU = (
    # README's command list
    "cn --r 10 --n 5",
    "dyck --r 3 --n 5",
    "families --r 2 --n 5",
    "families --r 2 --n 5 --list",
    "xvar --r 2 --n 4 --method enum",
    "grtable --r 2 --n 4",
    "strata --r 2 --n 6 --e2 1",
    "strata --r 10 --n 6 --e2 1 --closed --p 5",
    "example13",
    "ffcount --p 2 --r 2 --n 6 --e1 1 --e2 1",
    "ffstrata --p 2 --r 2 --n 4 --side zp --param 2 --s 0",
    "verify --list",
    "verify --suite bridge --r 2 --n 6",
    # small schoolbook QLaurent products
    "verify --suite matrix",
)
FORMATS = ("text", "json")

TINY = {
    "recursion": ((2, 6), (3, 5), (3, 6)),
    "expansion": ((2, 6), (3, 5)),
    "oracle": ((2, 4, 2),),
    "menu": ("cn --r 10 --n 5", "example13", "verify --suite bridge --r 2 --n 6"),
}

WORKLOADS = ("recursion", "expansion", "oracle", "session")


def job_key(job) -> str:
    """Reference key of a worker job; oracle counts do not depend on the
    module seed (the certified module is unique up to isomorphism)."""
    return " ".join(str(x) for x in (job[:-1] if job[0] == "oracle" else job))


class Reps:
    """Endless seeded sequence of repetitions for one workload."""

    def __init__(self, workload: str, seed: int, tiny: bool = False):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(f"qkron-bench-{workload}-{seed}")
        self.tiny = tiny

    def next(self) -> list:
        """Processes of the next rep, each started cold: a list of jobs
        ([kind, *args]) for a worker, or the argv of one CLI command."""
        rng, tiny = self.rng, self.tiny
        if self.workload == "recursion":
            pairs = TINY["recursion"] if tiny else RECURSION
            return [[["gr_table", r, n]] for r, n in rng.sample(pairs, len(pairs))]
        if self.workload == "expansion":
            pairs = TINY["expansion"] if tiny else EXPANSION
            return [[["xvar_enum", r, n]] for r, n in rng.sample(pairs, len(pairs))]
        if self.workload == "oracle":
            module_seed = rng.randrange(1 << 30)
            configs = TINY["oracle"] if tiny else FF_CONFIGS
            return [[["oracle", r, n, p, module_seed] for r, n, p in configs]]
        menu = TINY["menu"] if tiny else MENU
        return [
            [*cmd.split(), "--format", rng.choice(FORMATS)]
            for cmd in rng.sample(menu, len(menu))
        ]
