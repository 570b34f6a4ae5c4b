"""Workload generation is a pure function of the workload seed."""

import pytest

import plans


@pytest.mark.parametrize("workload", ["sim_paper", "sim_scaled"])
def test_sim_passes_depend_only_on_the_seed(workload):
    first = plans.sim_pass(workload, 5, 3)
    assert first == plans.sim_pass(workload, 5, 3)
    assert first != plans.sim_pass(workload, 6, 3)
    assert len(first) == len(plans.sim_grid(workload))


def test_every_sim_op_gets_a_fresh_seed():
    seeds = [scenario.seed for index in range(4)
             for scenario in plans.sim_pass("sim_paper", 1, index)]
    assert len(seeds) == len(set(seeds))


def test_paper_grid_is_the_papers():
    cells = {(topology, workload, policy)
             for topology, workload, policy, _ in plans.PAPER_GRID}
    assert len(cells) == 9
    assert ("gals5", "perl", "perl-fp3") in cells
    assert {topology for topology, _, _ in cells} == {"base", "gals5"}


def test_fabric_inputs_and_blocks_depend_only_on_the_seed():
    inputs = plans.fabric_inputs(9)
    assert inputs == plans.fabric_inputs(9)
    assert inputs != plans.fabric_inputs(10)
    block = plans.fabric_block(9, 4, inputs)
    assert block == plans.fabric_block(9, 4, plans.fabric_inputs(9))
    assert block != plans.fabric_block(9, 5, inputs)


def test_a_fabric_block_has_its_fixed_mix():
    ops = plans.fabric_block(1, 0, plans.fabric_inputs(1))
    kinds = [kind for kind, _ in ops]
    assert kinds.count("hit") == plans.HITS_PER_BLOCK
    assert kinds.count("compare") == plans.COMPARES_PER_BLOCK
    assert kinds.count("miss") == plans.MISSES_PER_BLOCK
    assert kinds.count("cli") == plans.CLIS_PER_BLOCK


def test_every_miss_of_a_run_is_distinct():
    inputs = plans.fabric_inputs(4)
    seeds = [argument.seed for block in range(30)
             for kind, argument in plans.fabric_block(4, block, inputs)
             if kind == "miss"]
    assert len(seeds) == 30 * plans.MISSES_PER_BLOCK == len(set(seeds))


def test_misses_are_never_stored_scenarios():
    inputs = plans.fabric_inputs(3)
    stored = {(s.topology, s.workload, s.seed, s.num_instructions)
              for s in inputs.stored}
    misses = [plans.miss_scenario(3, index) for index in range(40)]
    assert len({scenario.seed for scenario in misses}) == 40
    for scenario in misses:
        key = (scenario.topology, scenario.workload, scenario.seed,
               scenario.num_instructions)
        assert key not in stored


def test_cli_scenarios_are_registered_names_with_overrides():
    inputs = plans.fabric_inputs(2)
    assert [s.name for s in inputs.cli_scenarios] == list(plans.CLI_SCENARIOS)
    assert all(s.num_instructions == plans.FABRIC_INSTRUCTIONS
               for s in inputs.cli_scenarios)
