"""One benchmark process: set up a workload, then measure or restart it.

``run.py`` starts this file in a fresh interpreter for every role:

* ``setup``   -- set up and stop (one more set-up time sample);
* ``main``    -- set up, run the timed phase(s), check every output;
* ``restart`` -- reopen the state a ``main`` run left on disk.

The process prints ``@@ready <json>`` once it is ready for its first
timed unit (``run.py`` times set-up from its start to that line; the JSON
carries the ``cpu`` probe times taken at both ends) and ends with
``@@result <json>``.  Only stdlib modules and the
benchmark's own files are imported at the top: the shard processes of
the socket workload re-import this file.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

from calibrate import cpu_probe_median

#: Host speed when ``main`` started, before the program was imported.
_start_cal_ns = 0


def _ready() -> None:
    cal = (_start_cal_ns + cpu_probe_median()) // 2
    print("@@ready " + json.dumps({"cal_ns": cal}), flush=True)


def _result(payload: dict) -> None:
    print("@@result " + json.dumps(payload), flush=True)


def _pct(off: float, on: float) -> float:
    return 100.0 * (on - off) / off if off else 0.0


def main() -> int:
    global _start_cal_ns
    _start_cal_ns = cpu_probe_median()
    parser = argparse.ArgumentParser()
    parser.add_argument("--role", choices=("setup", "main", "restart"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--rundir", required=True)
    parser.add_argument("--state", default="")
    parser.add_argument("--spans", default="")
    args = parser.parse_args()

    import workloads
    from tracing import Tracer, median, percentile

    tracer = Tracer() if args.trace else None

    if args.role == "restart":
        state = json.loads(pathlib.Path(args.state).read_text())
        if tracer:
            workloads.install_layers(tracer)
        workload = workloads.restart(args.workload, args.seed, state, _ready)
        layers = {}
        if tracer:
            layers = workloads.recovery_metrics(tracer.take())
            tracer.uninstall()
        _result(
            {
                "errors": workload.errors,
                "attempted": workload.attempted,
                "failed": workload.failed,
                "layers": layers,
            }
        )
        return 0

    workload = workloads.WORKLOADS[args.workload](args.seed, pathlib.Path(args.rundir))
    if tracer:
        workloads.install_layers(tracer)
    workload.setup()
    _ready()
    setup_spans = []
    if tracer:
        setup_spans = tracer.take()
        tracer.uninstall()
    if args.role == "setup":
        workload.close_setup_only()
        _result({"errors": workload.errors, "attempted": 0, "failed": 0})
        return 0

    # A traced run splits its time: half untraced (the reference for the
    # tracing overhead), half traced (the spans).
    phase_s = args.seconds / 2 if tracer else args.seconds
    untraced = workload.run(phase_s)
    traced = None
    if tracer:
        workloads.install_layers(tracer)
        traced = workload.run(phase_s)
        traced.spans = tracer.take()
        tracer.uninstall()
    state = workload.finish()
    pathlib.Path(args.state).write_text(json.dumps(state))

    result = {
        "errors": workload.errors,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            "throughput_per_s": untraced.throughput(),
            "result_p50_ms": untraced.result_p50_ms(),
            "peak_rss_mb": workload.peak_rss_kb / 1024.0,
        },
    }
    if traced is not None:
        layers = workloads.layer_metrics(traced, setup_spans, workload.info())
        calls_us = [ms * 1e3 for ms in untraced.scaled_calls_ms()]
        layers["service.client.submit_p50_us"] = median(calls_us)
        layers["service.client.submit_p99_us"] = percentile(calls_us, 99)
        layers["trace.overhead_pct.throughput_per_s"] = _pct(
            untraced.throughput(), traced.throughput()
        )
        layers["trace.overhead_pct.result_p50_ms"] = _pct(
            untraced.result_p50_ms(), traced.result_p50_ms()
        )
        result["layers"] = layers
        if args.spans:
            Tracer.dump(setup_spans + traced.spans, args.spans)
    _result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
