"""Unit tests of the :class:`repro.dag.arrays.DagArrays` compilation."""

import numpy as np
import pytest

from repro.allocation.reference import ReferenceCluster
from repro.allocation.state import AllocationState, prepare_allocation_tables
from repro.dag import PTG, DagArrays, Task, compile_arrays
from repro.dag import arrays as arrays_module
from repro.dag.arrays import compile_arrays_batch
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.exceptions import InvalidGraphError
from repro.platform import grid5000


def brute_force_lead(arrays, bl, path):
    """Smallest gap between the best and second-best option of every choice on *path*."""
    gaps = []
    for options in [arrays.entries_tuple] + [arrays.succ_tuples[v] for v in path[:-1]]:
        if len(options) > 1:
            first, second = sorted((bl[i] for i in options), reverse=True)[:2]
            gaps.append(first - second)
    return min(gaps, default=float("inf"))


def diamond():
    """entry(0) -> {1, 2} -> exit(3), with distinct costs."""
    g = PTG("diamond")
    g.add_task(Task(0, 1e9, 0.0))
    g.add_task(Task(1, 2e9, 0.1))
    g.add_task(Task(2, 4e9, 0.2))
    g.add_task(Task(3, 1e9, 0.0))
    g.add_edge(0, 1, 8.0)
    g.add_edge(0, 2, 8.0)
    g.add_edge(1, 3, 8.0)
    g.add_edge(2, 3, 8.0)
    return g


class TestCompilation:
    def test_basic_shape(self):
        arrays = diamond().arrays()
        assert arrays.n_tasks == 4
        assert arrays.n_edges == 4
        assert arrays.depth == 3
        assert list(arrays.task_ids) == [0, 1, 2, 3]
        assert arrays.index_of == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_csr_adjacency_sorted_by_tid(self):
        arrays = diamond().arrays()
        assert list(arrays.successors_of(0)) == [1, 2]
        assert list(arrays.predecessors_of(3)) == [1, 2]
        assert list(arrays.successors_of(3)) == []
        assert list(arrays.entries) == [0]
        assert list(arrays.exits) == [3]

    def test_levels_match_graph(self):
        g = generate_random_ptg(5, RandomPTGConfig(n_tasks=20))
        g.ensure_single_entry_exit()
        arrays = g.arrays()
        levels = g.precedence_levels()
        for i, tid in enumerate(arrays.task_ids_tuple):
            assert arrays.levels_tuple[i] == levels[tid]
        by_level = g.tasks_by_level()
        for level, tids in by_level.items():
            members = [arrays.task_ids_tuple[i] for i in arrays.level_tuples[level]]
            assert members == tids  # exact tasks_by_level order

    def test_cached_and_invalidated_on_mutation(self):
        g = diamond()
        first = g.arrays()
        assert g.arrays() is first  # cached
        g.add_task(Task(9, 1e9, 0.0))
        g.add_edge(3, 9, 0.0)
        second = g.arrays()
        assert second is not first
        assert second.n_tasks == 5

    def test_empty_graph_rejected(self):
        with pytest.raises(InvalidGraphError):
            compile_arrays(PTG("empty"))

    def test_cycle_rejected(self):
        g = PTG("cycle")
        g.add_task(Task(0, 1e9, 0.0))
        g.add_task(Task(1, 1e9, 0.0))
        g.add_edge(0, 1, 0.0)
        g.add_edge(1, 0, 0.0)
        with pytest.raises(InvalidGraphError):
            g.arrays()

    def test_level_slice_bounds(self):
        arrays = diamond().arrays()
        with pytest.raises(InvalidGraphError):
            arrays.level_slice(99)


FIELDS = (
    "task_ids", "flops", "alpha", "synthetic", "topo", "levels", "level_members",
    "level_offsets", "pred_ptr", "pred_idx", "succ_ptr", "succ_idx", "entries",
    "exits",
)


def assert_compiles_like_a_fresh_graph(g):
    """*g*'s cached compilation equals a from-scratch one of its structure."""
    fresh = compile_arrays(PTG("fresh", tasks=g.tasks(), edges=g.edges()))
    compiled = g.arrays()
    for name in FIELDS:
        assert np.array_equal(getattr(compiled, name), getattr(fresh, name))
    assert compiled.index_of == fresh.index_of
    assert compiled.digest == fresh.digest


class TestCopySharing:
    """Renamed copies share their source's compiled caches until mutated."""

    def test_copy_shares_the_compilation(self):
        g = diamond()
        shared = g.arrays()
        copy = g.copy(name="again")
        assert copy.name == "again"
        assert copy.arrays() is shared
        assert copy.topological_order() == g.topological_order()

    def test_compiling_a_copy_serves_its_source(self):
        g = diamond()
        copy = g.copy(name="again")
        assert copy.arrays() is g.arrays()  # compiled through the copy

    @pytest.mark.parametrize("mutated", ["copy", "source"])
    def test_mutation_detaches_only_the_mutated_graph(self, mutated):
        g = diamond()
        copy = g.copy(name="again")
        shared = g.arrays()
        changed, other = (copy, g) if mutated == "copy" else (g, copy)
        changed.add_task(Task(9, 3e9, 0.0))
        changed.add_edge(3, 9, 0.0)
        assert changed.arrays() is not shared
        assert changed.arrays().n_tasks == 5
        assert other.arrays() is shared
        assert other.arrays().n_tasks == 4
        assert_compiles_like_a_fresh_graph(changed)
        assert_compiles_like_a_fresh_graph(other)

    def test_single_entry_exit_detaches(self):
        g = PTG("forked")
        for tid in range(3):
            g.add_task(Task(tid, 1e9, 0.0))
        g.add_edge(0, 1, 0.0)
        g.add_edge(0, 2, 0.0)
        copy = g.copy(name="forked-again")
        shared = g.arrays()
        copy.ensure_single_entry_exit()  # adds a synthetic exit
        assert copy.arrays().n_tasks == 4
        assert g.arrays() is shared and shared.n_tasks == 3
        assert_compiles_like_a_fresh_graph(copy)

    def test_a_batch_of_copies_compiles_once(self, monkeypatch):
        gathered = []
        gather = arrays_module._gather

        def counting(ptg):
            gathered.append(ptg.name)
            return gather(ptg)

        monkeypatch.setattr(arrays_module, "_gather", counting)
        template = generate_random_ptg(4, RandomPTGConfig(n_tasks=12))
        template.ensure_single_entry_exit()
        other = diamond()
        batch = [template.copy(name=f"job-{i}") for i in range(4)] + [other]
        compiled = compile_arrays_batch(batch)
        assert gathered == ["job-0", other.name]
        assert all(arrays is compiled[0] for arrays in compiled[:4])
        assert template.arrays() is compiled[0]
        assert_compiles_like_a_fresh_graph(batch[2])

    def test_a_batch_of_copies_shares_one_table_sweep(self):
        platform = grid5000.site("nancy")
        reference = ReferenceCluster.of(platform)
        cap = reference.max_allocation(platform)
        template = generate_random_ptg(4, RandomPTGConfig(n_tasks=12))
        template.ensure_single_entry_exit()
        copies = [template.copy(name=f"job-{i}") for i in range(3)]
        prepare_allocation_tables(copies, reference, cap)
        states = [AllocationState(ptg, reference, cap) for ptg in copies]
        assert all(s.durations_table is states[0].durations_table for s in states)
        plain = AllocationState(
            PTG("plain", tasks=template.tasks(), edges=template.edges()),
            reference, cap,
        )
        assert np.array_equal(plain.durations_table, states[0].durations_table)
        assert np.array_equal(plain.gain_table, states[0].gain_table)


class TestBottomLevels:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_graph_dp_bitwise(self, seed):
        g = generate_random_ptg(seed, RandomPTGConfig(n_tasks=20))
        g.ensure_single_entry_exit()
        arrays = g.arrays()
        time_fn = lambda t: t.execution_time(1, 4e9)
        expected = g.bottom_levels(time_fn)
        bl = arrays.bottom_levels([time_fn(t) for t in g.tasks()])
        for i, tid in enumerate(arrays.task_ids_tuple):
            assert bl[i] == expected[tid]  # exact, no tolerance

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_critical_path_matches_graph_walk(self, seed):
        g = generate_random_ptg(seed, RandomPTGConfig(n_tasks=20))
        g.ensure_single_entry_exit()
        arrays = g.arrays()
        time_fn = lambda t: t.execution_time(1, 4e9)
        expected = g.critical_path(time_fn)
        bl = arrays.bottom_levels([time_fn(t) for t in g.tasks()])
        path, lead = arrays.critical_path_py(bl)
        assert [arrays.task_ids_tuple[i] for i in path] == expected
        assert bl[path[0]] == max(bl) == g.critical_path_length(time_fn)
        assert lead == brute_force_lead(arrays, bl, path)

    def test_tie_break_prefers_smallest_tid(self):
        # two parallel middle tasks with identical costs: the reference
        # walk picks the smaller task id
        g = PTG("tie")
        g.add_task(Task(0, 1e9, 0.0))
        g.add_task(Task(5, 2e9, 0.0))
        g.add_task(Task(3, 2e9, 0.0))
        g.add_task(Task(7, 1e9, 0.0))
        for mid in (5, 3):
            g.add_edge(0, mid, 0.0)
            g.add_edge(mid, 7, 0.0)
        time_fn = lambda t: t.execution_time(1, 1e9)
        arrays = g.arrays()
        bl = arrays.bottom_levels([time_fn(t) for t in g.tasks()])
        indices, lead = arrays.critical_path_py(bl)
        path = [arrays.task_ids_tuple[i] for i in indices]
        assert path == g.critical_path(time_fn) == [0, 3, 7]
        assert lead == 0.0  # the tie is the walk's only choice

    def test_walk_picks_the_entry_with_the_largest_bottom_level(self):
        # two entries (bl 4 s and 1.5 s) joining one exit
        g = PTG("two-entries")
        g.add_task(Task(0, 0.5e9, 0.0))
        g.add_task(Task(1, 3e9, 0.0))
        g.add_task(Task(2, 1e9, 0.0))
        g.add_edge(0, 2, 0.0)
        g.add_edge(1, 2, 0.0)
        arrays = g.arrays()
        time_fn = lambda t: t.execution_time(1, 1e9)
        bl = arrays.bottom_levels([time_fn(t) for t in g.tasks()])
        path, lead = arrays.critical_path_py(bl)
        assert path == [1, 2]
        assert g.critical_path(time_fn) == [1, 2]
        assert lead == 4.0 - 1.5  # the entry pick beat its runner-up by 2.5 s

    def test_a_walk_without_choices_has_an_infinite_lead(self):
        g = PTG("chain")
        for tid in range(3):
            g.add_task(Task(tid, 1e9 * (tid + 1), 0.0))
            if tid:
                g.add_edge(tid - 1, tid, 0.0)
        arrays = g.arrays()
        bl = arrays.bottom_levels([t.execution_time(1, 1e9) for t in g.tasks()])
        assert arrays.critical_path_py(bl) == ([0, 1, 2], float("inf"))
