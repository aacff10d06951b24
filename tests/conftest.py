"""Shared fixtures for the test suite.

Fixtures provide small, deterministic platforms and graphs so the unit
tests stay fast; the integration tests build their own larger scenarios.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

try:  # the property suite is optional outside CI
    from hypothesis import settings as _hypothesis_settings

    # Fixed profile for the CI `properties` job: derandomized draws (plus
    # --hypothesis-seed=0 on the command line) make the examples stable
    # across runs, so a red property job is always reproducible locally
    # with HYPOTHESIS_PROFILE=ci.
    _hypothesis_settings.register_profile("ci", derandomize=True, deadline=None)
    if os.environ.get("HYPOTHESIS_PROFILE"):
        _hypothesis_settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
except ImportError:  # pragma: no cover - hypothesis is installed in CI
    pass

from repro.dag.cost_models import ComplexityClass
from repro.dag.generator import RandomPTGConfig, generate_random_ptg
from repro.dag.graph import PTG
from repro.dag.task import Task
from repro.platform.builder import (
    heterogeneous_platform,
    homogeneous_platform,
    single_cluster_platform,
)
from repro.platform import grid5000


@pytest.fixture
def rng():
    """A deterministic NumPy generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def single_cluster():
    """One homogeneous cluster of 16 processors at 4 GFlop/s."""
    return single_cluster_platform(num_processors=16, speed_gflops=4.0)


@pytest.fixture
def small_platform():
    """A small heterogeneous platform: 8 + 12 processors, shared switch."""
    return heterogeneous_platform(
        cluster_sizes=(8, 12), cluster_speeds=(2.0, 4.0), shared_switch=True, name="small"
    )


@pytest.fixture
def split_switch_platform():
    """The same sizes/speeds as ``small_platform`` but one switch per cluster."""
    return heterogeneous_platform(
        cluster_sizes=(8, 12), cluster_speeds=(2.0, 4.0), shared_switch=False, name="split"
    )


@pytest.fixture
def medium_platform():
    """Three clusters, 40 processors total, moderate heterogeneity."""
    return heterogeneous_platform(
        cluster_sizes=(16, 12, 12),
        cluster_speeds=(3.0, 4.0, 5.0),
        shared_switch=True,
        name="medium",
    )


@pytest.fixture
def lille():
    """The Lille Grid'5000 subset (the smallest of the four sites)."""
    return grid5000.lille()


def memo_hits(session):
    """``allocation.memo_hits`` counted by one ``obs.capture()`` session."""
    counter = session.registry.counters.get("allocation.memo_hits")
    return 0 if counter is None else counter.value


def make_chain_ptg(name="chain", n=4, flops=8e9, alpha=0.1, data=4e6):
    """A linear chain of *n* identical tasks."""
    graph = PTG(name)
    for i in range(n):
        graph.add_task(Task(i, flops=flops, alpha=alpha, data_elements=data))
    for i in range(n - 1):
        graph.add_edge(i, i + 1, 8.0 * data)
    graph.validate()
    return graph


def make_diamond_ptg(name="diamond", flops=8e9, alpha=0.1, data=4e6):
    """Entry -> two parallel tasks -> exit (the smallest non-trivial PTG)."""
    graph = PTG(name)
    for i in range(4):
        graph.add_task(Task(i, flops=flops, alpha=alpha, data_elements=data))
    graph.add_edge(0, 1, 8.0 * data)
    graph.add_edge(0, 2, 8.0 * data)
    graph.add_edge(1, 3, 8.0 * data)
    graph.add_edge(2, 3, 8.0 * data)
    graph.validate()
    return graph


def make_fork_join_ptg(name="forkjoin", width=5, flops=8e9, alpha=0.1, data=4e6):
    """Entry -> *width* parallel tasks -> exit."""
    graph = PTG(name)
    graph.add_task(Task(0, flops=flops, alpha=alpha, data_elements=data))
    for i in range(1, width + 1):
        graph.add_task(Task(i, flops=flops, alpha=alpha, data_elements=data))
        graph.add_edge(0, i, 8.0 * data)
    exit_id = width + 1
    graph.add_task(Task(exit_id, flops=flops, alpha=alpha, data_elements=data))
    for i in range(1, width + 1):
        graph.add_edge(i, exit_id, 8.0 * data)
    graph.validate()
    return graph


@pytest.fixture
def chain_ptg():
    """A 4-task chain."""
    return make_chain_ptg()


@pytest.fixture
def diamond_ptg():
    """A 4-task diamond."""
    return make_diamond_ptg()


@pytest.fixture
def fork_join_ptg():
    """A 7-task fork-join graph of width 5."""
    return make_fork_join_ptg()


@pytest.fixture
def small_random_ptg(rng):
    """A small random PTG (10 computational tasks)."""
    return generate_random_ptg(
        rng,
        RandomPTGConfig(n_tasks=10, complexity=ComplexityClass.MIXED),
        name="small-random",
    )


@pytest.fixture
def random_workload(rng):
    """Three random PTGs with distinct names (a small concurrent workload)."""
    return [
        generate_random_ptg(rng, RandomPTGConfig(n_tasks=8), name=f"wl-{i}")
        for i in range(3)
    ]
