"""Frozen golden oracles, one per optimized layer.

Each module keeps the straightforward formulation a hot path of
``repro`` replaced, so the golden suites and the old-vs-new ratio
benchmarks can assert that the single production path stays
bit-identical to it:

* :mod:`tests.oracles.allocation` -- the dict-based CPA-family loop
  (allocation),
* :mod:`tests.oracles.mapping` -- the per-probe EFT placement, the
  sort-per-event ready list and the uncached timelines / transfers
  (mapping),
* :mod:`tests.oracles.scheduler` -- the quadratic batch replay of the
  online scheduler (streaming),
* :mod:`tests.oracles.simulate` -- the event engine, the fair-share
  network with one completion event per flow and rate change, and the
  schedule executor with per-queue sorts and frontier scans (replay).

Do not "fix" or optimise these modules: their value is to stay exactly
what the production code must reproduce.
"""
