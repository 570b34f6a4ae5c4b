"""Benchmark inputs, each a pure function of the workload seed.

The program only ever receives the scenarios built here.  Every op gets its
own workload seed, derived from the run seed, the op stream and the op's
index, so trace synthesis is paid per op as a sweep worker or a fresh
``repro run`` pays it.  The modelled caches start warmed (``warm_caches``,
the processor default).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from repro.core.experiments import design_space_scenarios
from repro.core.scenario import Scenario, get_scenario

#: Trace length of an in-process simulate op (the figure harness default).
SIM_INSTRUCTIONS = 3000

#: (topology, workload, policy, controller) cells of each sim workload.
#: sim_paper is the paper's grid: {base, gals5} x {perl, gcc, fpppp, ijpeg}
#: plus gals5 with perl's FP domain slowed 3x.
PAPER_GRID: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = tuple(
    (topology, benchmark, None, None)
    for topology in ("base", "gals5")
    for benchmark in ("perl", "gcc", "fpppp", "ijpeg")
) + (("gals5", "perl", "perl-fp3", None),)

#: sim_scaled: many-domain and adaptive machines, phased mixes.
SCALED_GRID: Tuple[Tuple[str, str, Optional[str], Optional[str]], ...] = (
    ("cluster4", "perl", None, None),
    ("cluster2", "phased:intfp-osc", None, None),
    ("gals5", "phased:membound-osc", None, "occupancy"),
    ("fem3", "tomcatv", None, "pid"),
)

#: Trace length of the stored scenarios (hits, /compare, ``repro run``).
FABRIC_INSTRUCTIONS = 400
#: Trace length of a cold miss: long enough that the client's poll interval
#: is a small part of the miss latency.
MISS_INSTRUCTIONS = 1500

#: The stored grid that /compare reads and /scenario hits query.
COMPARE_TOPOLOGIES = ("base", "gals5", "fem3")
COMPARE_WORKLOADS = ("perl", "gcc", "ijpeg")

#: Registered scenarios that ``repro run`` subprocesses fetch from the store
#: (and hits query); the dot-product kernel commits its own trace length.
CLI_SCENARIOS = ("gals5", "dotprod-gals5")

#: Cold-miss rotation: one machine, so that misses cost about the same and
#: their median does not jump between unlike cells.
MISS_TOPOLOGY = "gals5"
MISS_WORKLOADS = ("perl", "gcc", "ijpeg", "fpppp")

#: One fabric block: this many /scenario hits, /compare reads, cold misses
#: and ``repro run`` subprocesses, in a seed-shuffled order.
HITS_PER_BLOCK = 200
COMPARES_PER_BLOCK = 10
MISSES_PER_BLOCK = 2
CLIS_PER_BLOCK = 2


def op_seed(run_seed: int, stream: str, index: int) -> int:
    """Deterministic 31-bit seed of op ``index`` in ``stream``."""
    digest = hashlib.sha256(f"{run_seed}:{stream}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def sim_grid(workload: str):
    """The grid of cells a sim workload cycles through."""
    if workload == "sim_paper":
        return PAPER_GRID
    if workload == "sim_scaled":
        return SCALED_GRID
    raise KeyError(f"{workload!r} has no simulation grid")


def sim_pass(workload: str, run_seed: int, pass_index: int) -> List[Scenario]:
    """One pass over a sim workload's grid, every op with a fresh seed."""
    grid = sim_grid(workload)
    scenarios = []
    for offset, (topology, benchmark, policy, controller) in enumerate(grid):
        index = pass_index * len(grid) + offset
        scenarios.append(Scenario(
            name=f"{workload}-{index}", topology=topology, workload=benchmark,
            policy=policy, controller=controller,
            num_instructions=SIM_INSTRUCTIONS,
            seed=op_seed(run_seed, workload, index)))
    return scenarios


@dataclass(frozen=True)
class FabricInputs:
    """What the results store holds before the first timed op."""

    compare_seed: int
    compare_grid: Tuple[Scenario, ...]
    cli_scenarios: Tuple[Scenario, ...]

    @property
    def stored(self) -> Tuple[Scenario, ...]:
        """Every scenario pre-populated into the store."""
        return self.compare_grid + self.cli_scenarios

    def compare_params(self) -> dict:
        """Query parameters of the /compare request over the stored grid."""
        return {"topologies": ",".join(COMPARE_TOPOLOGIES),
                "workloads": ",".join(COMPARE_WORKLOADS),
                "instructions": str(FABRIC_INSTRUCTIONS),
                "seed": str(self.compare_seed)}


def fabric_inputs(run_seed: int) -> FabricInputs:
    """The stored grid and the ``repro run`` scenarios of one run."""
    compare_seed = op_seed(run_seed, "compare", 0)
    grid = design_space_scenarios(
        topologies=COMPARE_TOPOLOGIES, workloads=COMPARE_WORKLOADS,
        num_instructions=FABRIC_INSTRUCTIONS, seed=compare_seed)
    cli = tuple(replace(get_scenario(name),
                        seed=op_seed(run_seed, "cli", index),
                        num_instructions=FABRIC_INSTRUCTIONS)
                for index, name in enumerate(CLI_SCENARIOS))
    return FabricInputs(compare_seed, tuple(grid), cli)


def miss_scenario(run_seed: int, index: int) -> Scenario:
    """The ``index``-th cold miss: a fresh seed, never in the store."""
    return Scenario(name=f"miss-{index}", topology=MISS_TOPOLOGY,
                    workload=MISS_WORKLOADS[index % len(MISS_WORKLOADS)],
                    num_instructions=MISS_INSTRUCTIONS,
                    seed=op_seed(run_seed, "miss", index))


def fabric_block(run_seed: int, block: int, inputs: FabricInputs
                 ) -> List[Tuple[str, object]]:
    """The ops of fabric block ``block``: (kind, argument) pairs.

    A hit's argument is the stored scenario it queries, a miss's its fresh
    scenario, a ``repro run``'s the stored scenario it fetches; /compare
    takes none.
    """
    rng = random.Random(op_seed(run_seed, "block", block))
    stored = inputs.stored
    ops: List[Tuple[str, object]] = [
        ("hit", stored[rng.randrange(len(stored))])
        for _ in range(HITS_PER_BLOCK)]
    ops.extend(("miss", miss_scenario(run_seed, block * MISSES_PER_BLOCK + k))
               for k in range(MISSES_PER_BLOCK))
    ops.extend(("compare", None) for _ in range(COMPARES_PER_BLOCK))
    ops.extend(("cli", inputs.cli_scenarios[k % len(inputs.cli_scenarios)])
               for k in range(CLIS_PER_BLOCK))
    rng.shuffle(ops)
    return ops
