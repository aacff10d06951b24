"""The paper aggregates of a stored campaign.

:func:`summarize_store` loads the ``results`` channel and aggregates it
with :class:`~repro.experiments.runner.CampaignResult`, the same code
that aggregates an in-process campaign.  Floats round-trip exactly
through the store, so a summary read back from a store written in shard
order equals the in-process aggregates by construction.
"""

from __future__ import annotations

from typing import Dict, List

from repro.campaigns.store import CampaignStore
from repro.experiments.runner import CampaignConfig, CampaignResult


def summarize_store(store) -> Dict:
    """The aggregates of the campaign in *store* as one JSON-friendly document.

    *store* is a :class:`CampaignStore` or its root path.  Experiments
    are taken in the order their keys first appear in the log, each
    with its last record (the store's last-record-wins rule).

    Records are written with sorted keys, so each record's strategies
    read back in alphabetical order.  When the store's ``meta.json``
    lists exactly the recorded strategy set, ``strategies`` and the
    three series follow the campaign's configured order instead (the
    order ``repro campaign`` prints); otherwise they keep the record
    order.
    """
    store = store if isinstance(store, CampaignStore) else CampaignStore(store)
    experiments = list(store.results_by_key().values())
    # the aggregates never read the config, so a default one stands in
    result = CampaignResult(config=CampaignConfig(), experiments=experiments)
    names = result.strategy_names()
    configured = (store.read_meta() or {}).get("strategies")
    if isinstance(configured, list) and sorted(configured) == sorted(names):
        names = list(configured)

    def ordered(series: Dict[str, List[float]]) -> Dict[str, List[float]]:
        return {name: series[name] for name in names}

    return {
        "experiments": len(experiments),
        "ptg_counts": result.ptg_counts(),
        "strategies": names,
        "average_unfairness": ordered(result.average_unfairness()),
        "average_relative_makespan": ordered(result.average_relative_makespan()),
        "average_mean_application_makespan":
            ordered(result.average_mean_application_makespan()),
    }
