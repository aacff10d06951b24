"""Tests for PTG serialisation (JSON / DOT)."""

import json
import math

import pytest

from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.dag.io import (
    load_workload,
    ptg_from_dict,
    ptg_from_json,
    ptg_to_dict,
    ptg_to_dot,
    ptg_to_json,
    save_workload,
)
from repro.exceptions import InvalidGraphError, ReproError


class TestJsonRoundTrip:
    def test_round_trip_preserves_structure(self, small_random_ptg):
        restored = ptg_from_json(ptg_to_json(small_random_ptg))
        assert restored.name == small_random_ptg.name
        assert restored.n_tasks == small_random_ptg.n_tasks
        assert sorted(restored.edges()) == sorted(small_random_ptg.edges())

    def test_round_trip_preserves_costs(self, small_random_ptg):
        restored = ptg_from_json(ptg_to_json(small_random_ptg))
        for task in small_random_ptg.tasks():
            other = restored.task(task.task_id)
            assert other.flops == pytest.approx(task.flops)
            assert other.alpha == pytest.approx(task.alpha)
            assert other.complexity == task.complexity

    def test_round_trip_via_dict(self, diamond_ptg):
        restored = ptg_from_dict(ptg_to_dict(diamond_ptg))
        restored.validate()
        assert restored.n_edges == diamond_ptg.n_edges

    def test_invalid_json(self):
        with pytest.raises(InvalidGraphError):
            ptg_from_json("this is not json")

    def test_wrong_format_version(self, diamond_ptg):
        payload = ptg_to_dict(diamond_ptg)
        payload["format_version"] = 99
        with pytest.raises(InvalidGraphError):
            ptg_from_dict(payload)

    def test_missing_fields(self):
        with pytest.raises(InvalidGraphError):
            ptg_from_dict({"format_version": 1, "name": "x"})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, where",
        [
            ("flops", "task 1 flops"),
            ("data_elements", "task 1 data_elements"),
            ("data_bytes", "edge 0 -> 1"),
        ],
    )
    def test_non_finite_costs_are_refused(self, diamond_ptg, field, value, where):
        payload = ptg_to_dict(diamond_ptg)
        if field == "data_bytes":
            payload["edges"][0][field] = value  # the edge 0 -> 1
        else:
            payload["tasks"][1][field] = value
        # the json module writes and reads NaN and Infinity
        for parse, source in ((ptg_from_dict, payload), (ptg_from_json, json.dumps(payload))):
            with pytest.raises(ReproError, match=f"{where}.* must be a finite number"):
                parse(source)

    def test_non_dict_payload(self):
        with pytest.raises(InvalidGraphError):
            ptg_from_dict([1, 2, 3])


class TestDot:
    def test_dot_contains_nodes_and_edges(self, diamond_ptg):
        dot = ptg_to_dot(diamond_ptg)
        assert dot.startswith("digraph")
        assert dot.count("->") == diamond_ptg.n_edges
        assert "t0" in dot and "t3" in dot


class TestWorkloadFiles:
    def test_save_and_load(self, tmp_path, rng):
        workload = [
            generate_random_ptg(rng, RandomPTGConfig(n_tasks=6), name=f"w{i}")
            for i in range(3)
        ]
        path = tmp_path / "workload.json"
        save_workload(workload, str(path))
        restored = load_workload(str(path))
        assert [p.name for p in restored] == [p.name for p in workload]
        assert [p.n_tasks for p in restored] == [p.n_tasks for p in workload]

    def test_load_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(InvalidGraphError):
            load_workload(str(path))
