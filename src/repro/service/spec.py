"""Declarative service-level objectives of the admission daemon.

A :class:`ServiceSpec` is the optional ``service`` section of a
:class:`~repro.scenarios.spec.ScenarioSpec`: it fixes the per-tenant
admission queue depth (the backpressure limit behind the daemon's HTTP
429 responses), the admission-latency SLO threshold the
``service.slo_violations`` counter is checked against, and the
``Retry-After`` hint rejected clients receive.  Like the ``arrivals``
and ``telemetry`` sections before it, the section only extends the
scenario content hash **when set**, so every existing spec and store
key is unchanged.

Examples
--------
>>> spec = ServiceSpec.from_dict({"queue_depth": 8, "slo": 0.25})
>>> spec.queue_depth, spec.slo, spec.retry_after
(8, 0.25, 1.0)
>>> ServiceSpec.from_dict(spec.to_dict()) == spec
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.exceptions import ConfigurationError
from repro.utils.validation import check_finite, check_known_keys

#: Default per-tenant admission queue depth.
DEFAULT_QUEUE_DEPTH = 64

#: Default admission-latency SLO threshold (seconds of wall time between
#: a submission entering its tenant queue and its admission completing).
DEFAULT_SLO_SECONDS = 0.5


@dataclass(frozen=True)
class ServiceSpec:
    """Admission-daemon limits: queue depth, latency SLO, retry hint.

    Parameters
    ----------
    queue_depth:
        Maximum number of submissions a tenant's admission queue may
        hold; a submission arriving at a full queue is rejected with
        HTTP 429 and a ``Retry-After`` header instead of being queued.
    slo:
        Admission-latency objective in seconds.  Every admission whose
        queue-to-admitted wall time exceeds it increments the
        ``service.slo_violations`` counter (the admission still
        happens -- the SLO is an observability threshold, not a
        timeout).
    retry_after:
        The ``Retry-After`` value (seconds) returned with 429
        responses; clients use it to pace their retries.
    """

    queue_depth: int = DEFAULT_QUEUE_DEPTH
    slo: float = DEFAULT_SLO_SECONDS
    retry_after: float = 1.0

    def __post_init__(self) -> None:
        """Validate and canonicalise the field values."""
        if not isinstance(self.queue_depth, int) or self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be a positive integer, got {self.queue_depth!r}"
            )
        slo = check_finite("slo", self.slo)
        if slo <= 0:
            raise ConfigurationError(f"slo must be positive, got {self.slo!r}")
        object.__setattr__(self, "slo", slo)
        retry_after = check_finite("retry_after", self.retry_after)
        if retry_after <= 0:
            raise ConfigurationError(
                f"retry_after must be positive, got {self.retry_after!r}"
            )
        object.__setattr__(self, "retry_after", retry_after)

    def to_dict(self) -> Dict:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "queue_depth": self.queue_depth,
            "slo": self.slo,
            "retry_after": self.retry_after,
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ServiceSpec":
        """Build a spec from a plain dict; unknown keys raise."""
        check_known_keys(
            payload, ("queue_depth", "slo", "retry_after"), "service spec"
        )
        return cls(**payload)

    def hash_payload(self) -> Dict:
        """The contribution to the scenario content hash (when set)."""
        return self.to_dict()
