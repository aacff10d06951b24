"""Start ``repro serve`` with the benchmark's layer wrappers installed.

``python3 perfbench/launcher.py TOTALS.json serve SPEC.json --port 0`` --
the traced ``service-http`` run starts its daemon through this file.  It
replaces, from outside the program, the names :mod:`repro.service.app`
imported (``StreamSession``, ``Arrival``, ``ptg_from_dict``,
``validate_schedule``), the connection handler factory of
:mod:`repro.service.http` and ``ServiceApp.handle``; then it runs the
normal command line.  When the daemon stops it writes the span totals
(:meth:`perfbench.tracing.Recorder.summary`) to ``TOTALS.json`` and every
span next to the other traced runs' spans.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common, tracing  # noqa: E402


def install(recorder: tracing.Recorder, patches: tracing.Patches) -> None:
    """Wrap the daemon's layers (see the module docstring)."""
    from repro.service import app as app_module
    from repro.service import http as http_module

    perf_counter = time.perf_counter
    enqueued = {}
    make_session = tracing.traced_session_factory(app_module.StreamSession, recorder)
    arrival_class = app_module.Arrival

    def arrival(ptg, at=0.0, tenant=""):
        # _submit builds the arrival right before queueing it
        enqueued[(tenant, ptg.name)] = perf_counter()
        return arrival_class(ptg, at, tenant=tenant)

    def session(*args, **kwargs):
        built = make_session(*args, **kwargs)
        admit = built.admit

        def admit_after_queue(item):
            queued = enqueued.pop((item.tenant, item.ptg.name), None)
            if queued is not None:
                recorder.counts["service.queue_wait"] += perf_counter() - queued
            return admit(item)

        built.admit = admit_after_queue
        return built

    handler_factory = http_module.connection_handler

    def connection_handler(app):
        handle_connection = handler_factory(app)

        async def traced(reader, writer):
            start = perf_counter()
            try:
                await handle_connection(reader, writer)
            finally:
                recorder.detached("service.http", start, perf_counter())

        return traced

    handle = app_module.ServiceApp.handle

    async def traced_handle(self, request):
        start = perf_counter()
        try:
            return await handle(self, request)
        finally:
            recorder.detached("service.handle", start, perf_counter())

    patches.set(app_module, "StreamSession", session)
    patches.set(app_module, "Arrival", arrival)
    patches.wrap(recorder, app_module, "ptg_from_dict", "dag.decode")
    patches.wrap(recorder, app_module, "validate_schedule", "validate")
    patches.set(http_module, "connection_handler", connection_handler)
    patches.set(app_module.ServiceApp, "handle", traced_handle)


def main(argv) -> int:
    common.require_source()
    from repro.cli import main as repro_main

    totals = Path(argv[0])
    recorder = tracing.Recorder()
    with tracing.Patches() as patches:
        install(recorder, patches)
        code = repro_main(argv[1:])
    totals.write_text(json.dumps(recorder.summary()), encoding="utf-8")
    recorder.dump(common.WORK / "spans-service-http.jsonl")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
