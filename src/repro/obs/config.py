"""Declarative telemetry selection (:class:`TelemetrySpec`).

The spec is the serialisable switchboard scenario files use to request
telemetry::

    {"platform": "rennes", ..., "telemetry": {"profile": true}}

Its presence in a :class:`~repro.scenarios.spec.ScenarioSpec` turns
capture on for that scenario's runs; the fields select which collectors
are live.  Like PR 5's arrivals section, the telemetry section only
extends the scenario content hash **when set**, so every existing spec
and store key is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_known_keys


@dataclass(frozen=True)
class TelemetrySpec:
    """Which telemetry collectors a scenario run captures.

    Parameters
    ----------
    spans:
        Record hierarchical spans (the Chrome-trace timeline).
    metrics:
        Record counters / gauges / histograms (the ``repro-ptg
        metrics`` tables, notably ``stream.admission_latency``).
    profile:
        Run every root span under :mod:`cProfile` and keep the rendered
        top entries (expensive; off by default).
    """

    spans: bool = True
    metrics: bool = True
    profile: bool = False

    def __post_init__(self) -> None:
        """Validate the field values."""
        for name in ("spans", "metrics", "profile"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"telemetry {name} must be a boolean, got "
                    f"{getattr(self, name)!r}"
                )
        if not (self.spans or self.metrics or self.profile):
            raise ConfigurationError(
                "a telemetry spec must enable at least one collector "
                "(spans, metrics or profile); omit the section to disable "
                "telemetry entirely"
            )

    def to_dict(self) -> Dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "spans": self.spans,
            "metrics": self.metrics,
            "profile": self.profile,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "TelemetrySpec":
        """Build a spec from a plain dict; unknown keys raise."""
        check_known_keys(
            payload, ("spans", "metrics", "profile"), "telemetry spec"
        )
        return cls(**payload)

    def hash_payload(self) -> Dict:
        """The contribution to the scenario content hash (when set)."""
        return self.to_dict()
