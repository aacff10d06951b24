"""Tests for scenario spec serialisation, validation and content hashes."""

import json
import subprocess
import sys

import pytest

from repro.constraints.registry import STRATEGY_NAMES
from repro.exceptions import ConfigurationError
from repro.experiments.workload import WorkloadSpec
from repro.scenarios.spec import (
    PipelineSpec,
    ScenarioSpec,
    load_specs,
)


def default_spec(**overrides):
    kwargs = dict(
        platform="lille",
        workload=WorkloadSpec(family="fft", n_ptgs=2, seed=3),
        pipeline=PipelineSpec(allocator="hcpa", packing=False),
        strategies=("S", "ES"),
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestRoundTrip:
    def test_to_from_dict_is_identity(self):
        spec = default_spec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_identity(self):
        spec = default_spec()
        text = json.dumps(spec.to_dict())
        assert ScenarioSpec.from_dict(json.loads(text)) == spec
        assert ScenarioSpec.from_dict(json.loads(text)).to_dict() == spec.to_dict()

    def test_defaults_round_trip(self):
        spec = ScenarioSpec()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert spec.strategies is None  # paper default set, resolved lazily

    def test_partial_dict_uses_defaults(self):
        spec = ScenarioSpec.from_dict({"workload": {"family": "strassen"}})
        assert spec.platform == "rennes"
        assert spec.workload.family == "strassen"
        assert spec.pipeline.allocator == "scrap-max"

    def test_strategies_accept_comma_separated_string(self):
        spec = ScenarioSpec.from_dict({"strategies": "S, ES"})
        assert spec.strategies == ("S", "ES")


class TestValidation:
    def test_unknown_scenario_key_raises(self):
        with pytest.raises(ConfigurationError, match="allowed"):
            ScenarioSpec.from_dict({"platfrom": "lille"})

    def test_unknown_workload_key_raises(self):
        with pytest.raises(ConfigurationError, match="workload spec"):
            ScenarioSpec.from_dict({"workload": {"n_tasks": 3}})

    def test_unknown_pipeline_key_raises(self):
        with pytest.raises(ConfigurationError, match="pipeline spec"):
            ScenarioSpec.from_dict({"pipeline": {"scheduler": "x"}})

    @pytest.mark.parametrize(
        "payload, expected_names",
        [
            ({"platform": "paris"}, ["lille", "nancy", "rennes", "sophia"]),
            ({"workload": {"family": "montecarlo"}}, ["random", "fft", "strassen"]),
            ({"pipeline": {"allocator": "heft"}}, ["cpa", "hcpa", "scrap"]),
            ({"pipeline": {"mapper": "insertion"}}, ["ready-list", "global-order"]),
            ({"strategies": ["S", "XYZ"]}, STRATEGY_NAMES[:3]),
        ],
    )
    def test_bad_names_list_available_entries(self, payload, expected_names):
        with pytest.raises(ConfigurationError) as err:
            ScenarioSpec.from_dict(payload)
        for name in expected_names:
            assert name in str(err.value)

    def test_bad_mu_raises(self):
        with pytest.raises(ConfigurationError):
            PipelineSpec(mu=1.5)

    def test_bad_n_ptgs_raises(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_ptgs=0)

    def test_empty_strategy_list_raises(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(strategies=())

    def test_names_are_canonicalised(self):
        spec = ScenarioSpec.from_dict(
            {"platform": "LILLE", "pipeline": {"allocator": "SCRAP-MAX"},
             "strategies": ["wps-width"]}
        )
        assert spec.platform == "lille"
        assert spec.pipeline.allocator == "scrap-max"
        assert spec.strategies == ("WPS-width",)

    def test_unsupported_format_version(self):
        with pytest.raises(ConfigurationError, match="format_version"):
            ScenarioSpec.from_dict({"format_version": 99})


class TestStrategyResolution:
    def test_default_is_the_paper_set(self):
        assert ScenarioSpec().resolved_strategy_names() == tuple(STRATEGY_NAMES)

    def test_strassen_drops_width_strategies(self):
        spec = ScenarioSpec(workload=WorkloadSpec(family="strassen"))
        names = spec.resolved_strategy_names()
        assert names and all("width" not in n for n in names)

    def test_explicit_selection_wins(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(family="strassen"), strategies=("PS-width",)
        )
        assert spec.resolved_strategy_names() == ("PS-width",)


class TestContentHash:
    def test_hash_is_stable_within_process(self):
        assert default_spec().content_hash() == default_spec().content_hash()

    def test_hash_is_independent_of_dict_key_order(self):
        payload = default_spec().to_dict()
        reordered = json.loads(
            json.dumps({k: payload[k] for k in reversed(list(payload))})
        )
        assert (
            ScenarioSpec.from_dict(reordered).content_hash()
            == default_spec().content_hash()
        )

    def test_hash_is_stable_across_process_restarts(self):
        spec = default_spec()
        script = (
            "import json, sys\n"
            "from repro.scenarios.spec import ScenarioSpec\n"
            "spec = ScenarioSpec.from_dict(json.loads(sys.argv[1]))\n"
            "print(spec.content_hash())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script, json.dumps(spec.to_dict())],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": "src"}, cwd=str(__import__("pathlib").Path(__file__).parent.parent),
        )
        assert out.stdout.strip() == spec.content_hash()

    def test_hash_depends_on_every_axis(self):
        base = default_spec().content_hash()
        assert default_spec(platform="nancy").content_hash() != base
        assert default_spec(
            workload=WorkloadSpec(family="fft", n_ptgs=2, seed=4)
        ).content_hash() != base
        assert default_spec(
            pipeline=PipelineSpec(allocator="scrap", packing=False)
        ).content_hash() != base
        assert default_spec(
            pipeline=PipelineSpec(allocator="hcpa", packing=True)
        ).content_hash() != base
        assert default_spec(strategies=("S",)).content_hash() != base

    def test_hash_resolves_the_default_strategy_set(self):
        """None-strategies and the explicit paper set hash identically."""
        implicit = ScenarioSpec(platform="lille")
        explicit = ScenarioSpec(platform="lille", strategies=tuple(STRATEGY_NAMES))
        assert implicit.content_hash() == explicit.content_hash()


class TestLoadSpecs:
    def test_single_object(self):
        assert len(load_specs({"platform": "lille"})) == 1

    def test_list_of_objects(self):
        specs = load_specs([{"platform": "lille"}, {"platform": "nancy"}])
        assert [s.platform for s in specs] == ["lille", "nancy"]

    def test_rejects_scalars(self):
        with pytest.raises(ConfigurationError):
            load_specs("not a spec")

    def test_rejects_non_object_entries(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_specs([3])
        with pytest.raises(ConfigurationError, match="JSON object"):
            load_specs([None])
        with pytest.raises(ConfigurationError, match="JSON object"):
            ScenarioSpec.from_dict({"workload": 3})


class TestServiceSection:
    def test_round_trips(self):
        spec = ScenarioSpec.from_dict(
            {"platform": "lille", "service": {"queue_depth": 8, "slo": 0.25}}
        )
        assert spec.service.queue_depth == 8
        assert spec.service.slo == 0.25
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_true_shorthand_means_defaults(self):
        from repro.service.spec import DEFAULT_QUEUE_DEPTH, DEFAULT_SLO_SECONDS

        spec = ScenarioSpec.from_dict({"service": True})
        assert spec.service.queue_depth == DEFAULT_QUEUE_DEPTH
        assert spec.service.slo == DEFAULT_SLO_SECONDS

    def test_absent_section_leaves_hash_unchanged(self):
        base = ScenarioSpec.from_dict({"platform": "lille"})
        with_service = ScenarioSpec.from_dict(
            {"platform": "lille", "service": {"queue_depth": 8}}
        )
        # the optional section extends the hash only when set, so every
        # pre-existing store key stays valid
        assert "service" not in base.to_dict()
        assert base.content_hash() != with_service.content_hash()
        assert base.content_hash() == ScenarioSpec(platform="lille").content_hash()

    def test_unknown_service_key_raises(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            ScenarioSpec.from_dict({"service": {"depth": 3}})

    def test_invalid_limits_raise(self):
        with pytest.raises(ConfigurationError, match="queue_depth"):
            ScenarioSpec.from_dict({"service": {"queue_depth": 0}})
        with pytest.raises(ConfigurationError, match="slo"):
            ScenarioSpec.from_dict({"service": {"slo": -1.0}})
        with pytest.raises(ConfigurationError, match="retry_after"):
            ScenarioSpec.from_dict({"service": {"retry_after": 0}})


#: Every float-valued field of a scenario file, as (section, field).
FLOAT_FIELDS = [
    ("pipeline", "mu"),
    ("arrivals", "rate"),
    ("arrivals", "burst"),
    ("arrivals", "dwell"),
    ("faults", "start"),
    ("faults", "duration"),
    ("faults", "gap"),
    ("faults", "bandwidth"),
    ("faults", "slowdown"),
    ("service", "slo"),
    ("service", "retry_after"),
]
NOT_FINITE = ["x", float("nan"), float("inf"), float("-inf"), [1.0], True]


class TestMalformedNumbers:
    @pytest.mark.parametrize("section", ["workload", "arrivals", "faults"])
    def test_negative_seeds_are_refused(self, section):
        with pytest.raises(ConfigurationError, match=r"^seed must be an integer >= 0"):
            ScenarioSpec.from_dict({section: {"seed": -1}})

    @pytest.mark.parametrize("section,name", FLOAT_FIELDS)
    @pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
    def test_non_finite_fields_name_the_field(self, section, name, value):
        with pytest.raises(ConfigurationError, match=rf"^{name} must be a finite number"):
            ScenarioSpec.from_dict({section: {name: value}})

    @pytest.mark.parametrize("value", NOT_FINITE, ids=repr)
    def test_non_finite_trace_instants_name_their_index(self, value):
        payload = {"arrivals": {"process": "trace", "trace": [0.0, value]}}
        with pytest.raises(ConfigurationError, match=r"^trace\[1\] must be a finite number"):
            ScenarioSpec.from_dict(payload)

    @pytest.mark.parametrize("value", ["abc", 3.0, None], ids=repr)
    def test_a_trace_must_be_a_list(self, value):
        payload = {"arrivals": {"process": "trace", "trace": value}}
        with pytest.raises(ConfigurationError, match="trace"):
            ScenarioSpec.from_dict(payload)

    def test_finite_numbers_are_kept_as_floats(self):
        spec = ScenarioSpec.from_dict({
            "pipeline": {"mu": 1},
            "arrivals": {"rate": 2, "trace": [0, 1.5]},
            "faults": {"start": 0, "slowdown": 2},
        })
        assert spec.pipeline.mu == 1.0 and isinstance(spec.pipeline.mu, float)
        assert spec.arrivals.rate == 2.0 and spec.arrivals.trace == (0.0, 1.5)
        assert spec.faults.start == 0.0 and spec.faults.slowdown == 2.0
