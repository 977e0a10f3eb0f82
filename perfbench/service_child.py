"""The service as deployed, in its own process, for the ``service_churn`` workload.

Serves one webbase over loopback: LRU result cache, tiered store under
``--store`` (fsync off) and the multi-query optimizer on.  The service
accepts the ``mutate`` op, which is off by default, because the
workload's writes churn the simulated Web through it.

Talks to its parent over stdin/stdout, one JSON object per line:

* on start it prints ``{"port": N}`` once the service accepts queries;
* ``mark`` (stdin) replies ``{"setup": <spans>}`` with the spans recorded
  so far and zeroes the tracer, so what follows covers only the timed phase;
* ``finish <JSON list of query texts>`` replies ``{"spans": <spans>,
  "span_cost": <seconds>}``: the spans since ``mark``, and the CPU one span
  costs, measured by answering the texts with spans off and on
  (``Tracer.span_cost``; 0 without ``--trace``);
* ``cpu`` replies ``{"cpu": <seconds>}``, the process's CPU so far;
* ``stop`` (stdin), or end of input, drains the service and prints
  ``{"stopped": true}`` before exiting.

With ``--trace`` the outside-in tracer is installed before the webbase
is built.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import tracer as tracer_mod  # noqa: E402  (sits beside this file)
from repro.core.execution import WebBaseConfig  # noqa: E402
from repro.core.webbase import WebBase  # noqa: E402
from repro.service.server import ServiceConfig, WebBaseService  # noqa: E402
from repro.vps.cache import CachePolicy  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", required=True, help="tiered store directory")
    parser.add_argument("--trace", action="store_true", help="record layer spans")
    args = parser.parse_args()

    tracer_mod.import_program()
    tracer = tracer_mod.Tracer()
    if args.trace:
        tracer.install()
    webbase = WebBase.create(
        WebBaseConfig(
            cache=CachePolicy.lru(),
            store_dir=args.store,
            store_fsync=False,
            mqo=True,
        )
    )
    service = WebBaseService(webbase, ServiceConfig(allow_world_mutation=True))
    _, port = service.start()
    print(json.dumps({"port": port}), flush=True)
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "mark":
                setup = tracer.snapshot()
                tracer.reset()
                print(json.dumps({"setup": setup}), flush=True)
            elif command.startswith("finish "):
                texts = json.loads(command[len("finish ") :])
                spans = tracer.snapshot()
                cost = 0.0
                if args.trace:
                    # An explicit context skips containment, so the probe
                    # runs the planner, cache and algebra spans.
                    cost = tracer.span_cost(
                        lambda: [
                            webbase.query(t, context=webbase.execution_context())
                            for t in texts
                        ]
                    )
                print(json.dumps({"spans": spans, "span_cost": cost}), flush=True)
            elif command == "cpu":
                print(json.dumps({"cpu": time.process_time()}), flush=True)
            elif command == "stop":
                break
    finally:
        service.shutdown()
        if webbase.store is not None:
            webbase.store.close()
    print(json.dumps({"stopped": True}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
