"""Tests for repro.dag.task."""

import math

import pytest

from repro.dag.cost_models import ComplexityClass
from repro.dag.task import Task
from repro.exceptions import ConfigurationError


class TestTaskConstruction:
    def test_defaults(self):
        t = Task(3, flops=1e9, alpha=0.1)
        assert t.name == "t3"
        assert not t.is_synthetic
        assert t.complexity is None

    def test_from_cost_model(self):
        t = Task.from_cost_model(0, ComplexityClass.LINEAR, 1e6, a_factor=10, alpha=0.2)
        assert t.flops == pytest.approx(1e7)
        assert t.data_elements == 1e6
        assert t.complexity is ComplexityClass.LINEAR

    def test_synthetic(self):
        t = Task.synthetic(5, name="__entry__")
        assert t.is_synthetic
        assert t.model is None
        assert t.execution_time(100, 1e9) == 0.0
        assert t.area(10, 1e9) == 0.0
        assert t.marginal_gain(1, 1e9) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(flops=-1, alpha=0.1),
            dict(flops=1e9, alpha=-0.1),
            dict(flops=1e9, alpha=1.1),
            dict(flops=1e9, alpha=0.1, data_elements=-5),
        ],
    )
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            Task(0, **kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["flops", "data_elements"])
    def test_non_finite_costs_name_the_task(self, field, value):
        kwargs = dict(flops=1e9, alpha=0.1, data_elements=4e6)
        kwargs[field] = value
        with pytest.raises(
            ConfigurationError, match=rf"task 7 {field} must be a finite number"
        ):
            Task(7, **kwargs)

    def test_immutability(self):
        t = Task(0, flops=1e9, alpha=0.1)
        with pytest.raises(Exception):
            t.flops = 2e9


class TestTaskTiming:
    def test_execution_time_matches_amdahl(self):
        t = Task(0, flops=2e9, alpha=0.5)
        # (0.5 + 0.5/2) * 2e9 / 1e9 = 1.5
        assert t.execution_time(2, 1e9) == pytest.approx(1.5)

    def test_output_bytes(self):
        t = Task(0, flops=1e9, alpha=0.1, data_elements=4e6)
        assert t.output_bytes == pytest.approx(32e6)

    def test_invalid_processor_count(self):
        t = Task(0, flops=1e9, alpha=0.1)
        with pytest.raises(ConfigurationError):
            t.execution_time(0, 1e9)

    def test_area(self):
        t = Task(0, flops=1e9, alpha=0.0)
        assert t.area(4, 1e9) == pytest.approx(1.0)

    def test_marginal_gain_positive(self):
        t = Task(0, flops=1e9, alpha=0.1)
        assert t.marginal_gain(1, 1e9) > 0
