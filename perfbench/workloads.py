"""The benchmark's three workloads and the per-layer metrics of a traced run.

Every workload is a closed loop driven by one producer thread: the
producer issues one call, waits for its answer (for a meter, the
journal-before-ack admission reply) and only then issues the next.

* ``figure1`` -- the paper's Fig. 1 sweep on FlockLab (S3 vs S4, every
  node count) with real AES crypto and one worker.  Each timed call is
  one full sweep through ``Session.run``.  It runs no service code.
* ``close`` -- the in-process service with 2 shards and 400 meters per
  billing window (200 per shard cell), fsync on.  The O(m^3) window
  close is almost all of the timed work.
* ``socket`` -- the service with 2 shard *processes* behind TCP
  localhost and 32 meters per window, over many windows.  Its ack path
  (round trip, shard-side wire + WAL + admission) dominates.

The service workloads run in epochs: an epoch is one service directory
holding a fixed number of windows, which ends with ``hard_stop()``.
A fresh process later reopens the last complete epoch (the restart
probe), so recovery always replays and re-verifies the same amount of
journal, however fast the host ran the timed phase.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import shutil
import time
from dataclasses import dataclass, field

from calibrate import Calibrator
from tracing import NO_TAG, SpanIndex, Tracer, median, percentile

#: Digest of ``figure1_to_dict`` for Figure1Spec's default seed (1), two
#: iterations, real crypto: the Fig. 1 numbers this benchmark must keep.
PINNED_FIGURE1 = {
    "seed": 1,
    "iterations": 2,
    "sha256": "7d2655c8338d00c35ce21da044276d1fa6d91c005a60838b0d83b1826a9f6e0d",
}


@dataclass
class Phase:
    """What one timed phase measured (tracing on or off).

    ``calls`` (submits) and ``results`` (sweeps, window closes) hold
    ``(midpoint_ns, duration_ns)``.  Reported times are scaled to the
    reference host speed by ``cal`` (see :mod:`calibrate`): calls by the
    workload's ``call_probe``, results by the ``cpu`` probe.
    """

    cal: Calibrator | None
    call_probe: str = "cpu"
    work: int = 0
    calls: list = field(default_factory=list)
    results: list = field(default_factory=list)
    client_cpu_ns: int = 0
    shard_cpu_ns: int = 0
    spans: list = field(default_factory=list)

    def scaled_ms(self, samples: list, probe: str) -> list[float]:
        return [d * self.cal.scale(probe, t) / 1e6 for t, d in samples]

    def scaled_calls_ms(self) -> list[float]:
        return self.scaled_ms(self.calls, self.call_probe)

    def raw_busy_ns(self) -> int:
        return sum(d for _, d in self.calls) + sum(d for _, d in self.results)

    def throughput(self) -> float:
        busy_ms = sum(self.scaled_calls_ms()) + sum(self.scaled_ms(self.results, "cpu"))
        return self.work / (busy_ms / 1e3) if busy_ms else 0.0

    def result_p50_ms(self) -> float:
        return median(self.scaled_ms(self.results, "cpu"))


def timed(samples: list, call):
    """Run ``call``, append ``(midpoint_ns, duration_ns)``; return its value."""
    start = time.perf_counter_ns()
    value = call()
    end = time.perf_counter_ns()
    samples.append(((start + end) // 2, end - start))
    return value


class Workload:
    """Shared bookkeeping: attempted/failed counts and oracle errors."""

    name = ""

    def __init__(self, seed: int, rundir: pathlib.Path):
        self.seed = seed
        self.rundir = rundir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.peak_rss_kb = 0
        self.cal: Calibrator | None = None

    #: Reference probes this workload's times are scaled by (see calibrate).
    probes: tuple[str, ...] = ("cpu",)
    call_probe = "cpu"

    def new_phase(self) -> Phase:
        """A timed phase; the first one starts the calibration probes."""
        if self.cal is None:
            self.cal = Calibrator(self.probes, self.rundir / "calibrate")
        return Phase(self.cal, self.call_probe)

    def close_calibrator(self) -> None:
        if self.cal is not None:
            self.cal.close()

    def check(self, ok: bool, message: str, count: int = 1) -> None:
        """Count ``count`` attempted operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.errors) < 20:
                self.errors.append(message)

    def own_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def info(self) -> dict:
        """Non-span inputs of the per-layer metrics (workload specific)."""
        return {}


# -- figure1 ---------------------------------------------------------------------


def figure1_digest(result) -> str:
    from repro.analysis.io import figure1_to_dict

    text = json.dumps(figure1_to_dict(result.payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Figure1(Workload):
    """Fig. 1 sweeps, each under its own seed derived from the run's seed.

    One round of S4 at n=24 fails to complete with probability ~0.05, and
    a sweep in which every S4 round fails raises; five iterations per
    node count make that ~1e-7 per sweep.  A fresh seed per sweep spreads
    each run over many channel draws, so runs of different seeds do the
    same amount of simulated work on average.
    """

    name = "figure1"
    iterations = 5
    #: Timed sweeps re-run with stub crypto after the timed phase.
    stub_checks = 4

    def _spec(self, seed: int, iterations: int, crypto: str = "REAL"):
        from repro.core.config import CryptoMode
        from repro.scenarios.spec import Figure1Spec

        return Figure1Spec(
            testbed="flocklab",
            iterations=iterations,
            seed=seed,
            crypto_mode=CryptoMode[crypto],
        )

    def sweep_seed(self, index: int) -> int:
        return self.seed * 100_000 + index

    def setup(self) -> None:
        from repro.scenarios.session import Session

        # The commissioning cache root comes from REPRO_CACHE_DIR, which
        # the runner points at an empty directory for every process.
        self.session = Session(workers=1)
        warm = self.session.run(self._spec(self.sweep_seed(99_999), self.iterations))
        self.rounds_per_sweep = 2 * len(warm.payload.points) * self.iterations
        self.digests: list[str] = []

    def _sweep(self, index: int, phase: Phase) -> None:
        from repro.errors import ReproError

        spec = self._spec(self.sweep_seed(index), self.iterations)
        try:
            result = timed(phase.results, lambda: self.session.run(spec))
        except ReproError as exc:
            self.check(False, f"figure1 sweep under seed {spec.seed}: {exc}", self.rounds_per_sweep)
            self.digests.append("")
            return
        self.check(True, "", self.rounds_per_sweep)
        phase.work += self.rounds_per_sweep
        self.digests.append(figure1_digest(result))

    def run(self, seconds: float) -> Phase:
        phase = self.new_phase()
        deadline = time.perf_counter_ns() + int(seconds * 1e9)
        while time.perf_counter_ns() < deadline:
            self.cal.maybe_sample()
            self._sweep(len(self.digests), phase)
        self.cal.maybe_sample()
        return phase

    def finish(self) -> dict:
        self.close_calibrator()
        last = len(self.digests) - 1
        picks = {round(i * last / (self.stub_checks - 1)) for i in range(self.stub_checks)}
        for index in sorted(picks):
            if not self.digests[index]:
                continue  # the sweep raised; already counted as failed
            spec = self._spec(self.sweep_seed(index), self.iterations, "STUB")
            self.check(
                figure1_digest(self.session.run(spec)) == self.digests[index],
                f"figure1 sweep {index}: stub crypto differs from real crypto",
            )
        pinned = figure1_digest(
            self.session.run(self._spec(PINNED_FIGURE1["seed"], PINNED_FIGURE1["iterations"]))
        )
        self.check(
            pinned == PINNED_FIGURE1["sha256"],
            f"figure1 digest {pinned} for the default seed differs from the pinned "
            f"{PINNED_FIGURE1['sha256']}",
        )
        self.peak_rss_kb = self.own_rss_kb()
        self.session.close()
        return {"seed": self.sweep_seed(0), "digest": self.digests[0]}

    def close_setup_only(self) -> None:
        self.session.close()


def figure1_restart(seed: int, state: dict, report) -> Figure1:
    """A fresh process over the warm commissioning cache: first sweep again."""
    from repro.scenarios.session import Session

    workload = Figure1(seed, pathlib.Path("."))
    with Session(workers=1) as session:
        result = session.run(workload._spec(state["seed"], workload.iterations))
        report()
        workload.check(
            figure1_digest(result) == state["digest"],
            "figure1 sweep 0 after restart differs from the timed one",
        )
    return workload


# -- service workloads -----------------------------------------------------------


def _proc_cpu_ns(pid: int) -> int:
    """utime + stime of a live process, from /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks * 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def _proc_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class Service(Workload):
    """A window-metering closed loop over one ``ServiceClient`` transport."""

    devices = 0
    shards = 2
    transport = ""
    epoch_windows = 0

    def __init__(self, seed: int, rundir: pathlib.Path):
        super().__init__(seed, rundir)
        self.base_load_wh = 100 + seed % 200
        self.next_window = 1
        self.epoch = 0
        self.client = None
        self.epoch_first = 1
        self.last_complete: dict | None = None
        self.wal_bytes = 0
        self.wal_shares = 0
        self.shard_cpu_mark: dict[int, int] = {}
        self.shard_rss_kb = 0

    # -- plumbing ---------------------------------------------------------------

    def _config(self):
        from repro.service import ServiceConfig

        return ServiceConfig(seed=self.seed)

    def _open(self, directory: pathlib.Path):
        from repro.service import ServiceClient

        return ServiceClient(
            self._config(), directory, shards=self.shards, transport=self.transport
        )

    def _shard_pids(self, directory: pathlib.Path) -> list[int]:
        pids = []
        for port_file in sorted(directory.glob("shard-*.port")):
            pids.append(json.loads(port_file.read_text())["pid"])
        return pids

    def _expected_bills(self, first: int, last: int) -> dict[int, int]:
        from repro.service import loadgen

        return {
            device: loadgen.expected_device_total(device, last + 1, self.base_load_wh)
            - loadgen.expected_device_total(device, first, self.base_load_wh)
            for device in range(self.devices)
        }

    def check_bills(self, client, first: int, last: int) -> None:
        """``billing_extract()`` must equal the loadgen oracle per device."""
        if last < first:
            return
        expected = self._expected_bills(first, last)
        bills = client.billing_extract()
        got = {device: bill.total for device, bill in bills.items()}
        wrong = sorted(d for d in expected if got.get(d) != expected[d])
        self.check(
            got == expected,
            f"billing extract over windows {first}..{last} wrong for devices {wrong[:5]}",
        )

    def _window(self, client, window: int, phase: Phase) -> None:
        """One billing window: every meter submits once, then the close."""
        from repro.errors import ReproError
        from repro.service import loadgen

        cpu_start = time.thread_time_ns()
        for sub in loadgen.window_submissions(
            self.devices, window, self.base_load_wh, self.seed
        ):
            try:
                result = timed(
                    phase.calls,
                    lambda: client.submit(sub.device, sub.seq, sub.window, sub.value),
                )
            except ReproError as exc:
                self.check(False, f"submit of device {sub.device} window {window}: {exc}")
                continue
            self.check(
                result.accepted, f"device {sub.device} window {window}: {result.admission}"
            )
            phase.work += result.accepted
        phase.client_cpu_ns += time.thread_time_ns() - cpu_start
        summary = timed(phase.results, lambda: client.close_window(window))
        expected = loadgen.expected_window_total(
            self.devices, window, self.base_load_wh
        )
        self.check(
            summary.total == summary.expected == expected,
            f"window {window}: total {summary.total}, daemon expected "
            f"{summary.expected}, oracle {expected}",
        )

    # -- epochs -----------------------------------------------------------------

    def _epoch_dir(self, epoch: int) -> pathlib.Path:
        return self.rundir / f"epoch-{epoch:04d}"

    def _open_epoch(self) -> None:
        self.epoch += 1
        self.epoch_first = self.next_window
        self.client = self._open(self._epoch_dir(self.epoch))
        self.shard_cpu_mark = {
            pid: _proc_cpu_ns(pid) for pid in self._shard_pids(self._epoch_dir(self.epoch))
        }

    def _end_epoch(self, phase: Phase) -> None:
        """Check bills, record WAL bytes and shard CPU, then hard-stop."""
        directory = self._epoch_dir(self.epoch)
        last = self.next_window - 1
        self.check_bills(self.client, self.epoch_first, last)
        for pid, mark in self.shard_cpu_mark.items():
            phase.shard_cpu_ns += _proc_cpu_ns(pid) - mark
            self.shard_rss_kb = max(self.shard_rss_kb, _proc_hwm_kb(pid))
        self.client.hard_stop()
        self.client = None
        complete = last - self.epoch_first + 1 == self.epoch_windows
        if complete and self.wal_shares == 0:
            # Bytes per share from the first complete epoch: a fixed window
            # set, so the figure is exact for a seed.
            self.wal_bytes = sum(
                p.stat().st_size for p in directory.glob("shard-*.wal")
            )
            self.wal_shares = self.devices * self.epoch_windows
        if complete:
            if self.last_complete is not None:
                shutil.rmtree(self.last_complete["dir"], ignore_errors=True)
            self.last_complete = {
                "dir": str(directory),
                "first": self.epoch_first,
                "last": last,
            }
        else:
            shutil.rmtree(directory, ignore_errors=True)

    # -- the workload interface -------------------------------------------------

    def setup(self) -> None:
        # Warm-up: one untimed window through the same code, in its own
        # directory, so the timed phase starts with everything imported.
        self._open_epoch()
        self._window(self.client, 0, Phase(None))
        self.next_window = 1
        self.check_bills(self.client, 0, 0)
        for pid in self.shard_cpu_mark:
            self.shard_rss_kb = max(self.shard_rss_kb, _proc_hwm_kb(pid))
        self.client.hard_stop()
        self.client = None
        shutil.rmtree(self._epoch_dir(self.epoch), ignore_errors=True)

    def close_setup_only(self) -> None:
        pass

    def run(self, seconds: float) -> Phase:
        phase = self.new_phase()
        clock = time.perf_counter_ns
        deadline = clock() + int(seconds * 1e9)
        self._open_epoch()
        while True:
            self.cal.maybe_sample()
            self._window(self.client, self.next_window, phase)
            self.next_window += 1
            if self.next_window - self.epoch_first == self.epoch_windows:
                self._end_epoch(phase)
                if clock() >= deadline and self.last_complete is not None:
                    break
                self._open_epoch()
            elif clock() >= deadline and self.last_complete is not None:
                self._end_epoch(phase)
                break
        self.cal.maybe_sample()
        return phase

    def finish(self) -> dict:
        self.close_calibrator()
        # The measuring process plus its largest shard process (socket).
        self.peak_rss_kb = self.own_rss_kb() + self.shard_rss_kb
        return dict(self.last_complete)

    def info(self) -> dict:
        return {
            "wal_bytes_per_share": self.wal_bytes / self.wal_shares
            if self.wal_shares
            else 0.0
        }


class Close(Service):
    name = "close"
    devices = 400
    transport = "inproc"
    epoch_windows = 4
    probes = ("cpu", "fsync")
    call_probe = "fsync"


class Socket(Service):
    name = "socket"
    devices = 32
    transport = "socket"
    epoch_windows = 200
    probes = ("cpu", "ack")
    call_probe = "ack"


def service_restart(cls, seed: int, state: dict, report):
    """A fresh process reopening a hard-stopped epoch: replay + re-verify."""
    from repro.service import loadgen

    workload = cls(seed, pathlib.Path(state["dir"]).parent)
    client = workload._open(pathlib.Path(state["dir"]))
    report()
    try:
        records = client.window_records()
        windows = [r.window for r in records]
        workload.check(
            windows == list(range(state["first"], state["last"] + 1)),
            f"restart recovered windows {windows}",
        )
        for record in records:
            expected = loadgen.expected_window_total(
                workload.devices, record.window, workload.base_load_wh
            )
            workload.check(
                record.total == record.expected == expected,
                f"recovered window {record.window} total {record.total}",
            )
        workload.check_bills(client, state["first"], state["last"])
    finally:
        client.stop()
    return workload


WORKLOADS = {"figure1": Figure1, "close": Close, "socket": Socket}


def restart(name: str, seed: int, state: dict, report):
    if name == "figure1":
        return figure1_restart(seed, state, report)
    return service_restart(WORKLOADS[name], seed, state, report)


# -- the traced run ----------------------------------------------------------------


def install_layers(tracer: Tracer) -> None:
    """Wrap the public calls of every layer the benchmark reports on."""
    from repro import diskcache
    from repro.analysis import sharding
    from repro.core import payload, protocol
    from repro.crypto.prng import AesCtrDrbg
    from repro.ct.minicast import MiniCastRound
    from repro.field.polynomial import Polynomial
    from repro.scenarios.session import Session
    from repro.service import client, daemon, store, supervisor, transport, wal, windows, wire
    from repro.sss import scheme
    from repro.sss.aggregation import ShareAccumulator

    wrap = tracer.wrap

    def is_submission(args, kwargs, result):
        return int(isinstance(args[1], wire.ShareSubmission))

    def submit_frame_bytes(args, kwargs, result):
        return len(result) if isinstance(args[0], wire.ShareSubmission) else NO_TAG

    def shares_dealt(args, kwargs, result):
        return sum(len(batch) for batch in result) if result is not None else NO_TAG

    def cache_miss(args, kwargs, result):
        return int(result is None)

    # The paper's simulation.
    wrap(Session, "run", "scenarios.session.run")
    wrap(protocol.AggregationEngine, "run", "core.protocol.run")
    wrap(MiniCastRound, "run", "ct.minicast.run")
    for name in (
        "batch_encrypt_shares",
        "batch_decrypt_values",
        "stub_batch_encrypt",
        "stub_batch_decrypt",
    ):
        wrap(protocol, name, f"crypto.codec.{name}")
    wrap(payload.RealShareCodec, "encrypt_share", "crypto.codec.encrypt_share")
    wrap(payload.RealShareCodec, "decrypt_share", "crypto.codec.decrypt_share")
    for name in ("from_seed", "fork", "fork_many", "prefill", "prefill_many", "getrandbits"):
        wrap(AesCtrDrbg, name, f"crypto.prng.{name}")
    wrap(Polynomial, "random_with_secret", "sss.deal.random_with_secret")
    wrap(Polynomial, "evaluate_values", "sss.deal.evaluate_values")
    wrap(protocol, "reconstruct_aggregate", "sss.aggregation.reconstruct_aggregate")
    wrap(ShareAccumulator, "add", "sss.aggregation.accumulate")
    wrap(diskcache, "load", "diskcache.load", cache_miss)
    wrap(diskcache, "store", "diskcache.store")

    # The close compute: windows -> scheme -> kernels / prng -> sharding.
    wrap(daemon, "aggregate_shards", "service.windows.aggregate_shards")
    wrap(supervisor, "aggregate_shards", "service.windows.aggregate_shards")
    wrap(scheme.ShamirScheme, "split_many", "sss.scheme.split_many", shares_dealt)
    wrap(scheme, "horner_eval_many", "field.kernels.horner_eval_many")
    wrap(windows, "reconstruct_many_from_sums", "sss.aggregation.reconstruct_many_from_sums")
    wrap(sharding, "reconstruct_many_from_sums", "sss.aggregation.reconstruct_many_from_sums")
    wrap(windows, "cross_cell_aggregate", "analysis.sharding.cross_cell_aggregate")

    # The service I/O path.
    wrap(client.ServiceClient, "__init__", "service.client.open")
    wrap(client.ServiceClient, "submit", "service.client.submit")
    wrap(client.ServiceClient, "close_window", "service.client.close_window")
    wrap(daemon.ShardedServiceDaemon, "submit", "service.daemon.submit")
    wrap(daemon.ShardedServiceDaemon, "close_window", "service.daemon.close_window")
    wrap(wal.WindowJournal, "append_submission", "service.wal.append_submission")
    wrap(wal.WindowJournal, "append_close", "service.wal.append_close")
    wrap(wal.WindowJournal, "replay", "service.wal.replay")
    wrap(wal, "replay_journal", "service.wal.replay_journal")
    wrap(os, "fsync", "os.fsync")
    wrap(store.ResultStore, "__init__", "service.store.open")
    wrap(store.ResultStore, "ingest", "service.store.ingest")
    wrap(store.ResultStore, "publish", "service.store.publish")
    wrap(supervisor.ShardSupervisor, "submit", "service.supervisor.submit")
    wrap(supervisor.ShardSupervisor, "close_window", "service.supervisor.close_window")
    wrap(transport.ShardEndpoint, "request", "service.transport.request", is_submission)
    wrap(wire, "frame", "service.wire.frame", submit_frame_bytes)


def _per(value: float, count: int) -> float:
    return value / count if count else 0.0


def recovery_metrics(spans: list) -> dict[str, float]:
    """Replay, re-verify and store heal inside the reopening ``ServiceClient``."""
    idx = SpanIndex(spans)
    opened = [s for o in idx.roots("service.client.open") for s in idx.in_trace(o)]
    return {
        "service.wal.replay_ms": idx.busy_ns(opened, "service.wal") / 1e6,
        "service.windows.reverify_ms": idx.busy_ns(opened, "service.windows") / 1e6,
        "service.store.recover_ms": idx.busy_ns(opened, "service.store") / 1e6,
    }


def layer_metrics(timed: Phase, setup_spans: list, info: dict) -> dict[str, float]:
    """Every per-layer metric, from one workload's spans and counters.

    A layer the workload never calls reads 0: that is how the trace shows
    the split between workloads.
    """
    ms = 1e6
    idx = SpanIndex(timed.spans)
    out: dict[str, float] = {}

    # figure1: per simulated round.
    rounds = idx.named("core.protocol.run")
    n_rounds = len(rounds)
    out["core.protocol.round_ms"] = _per(sum(idx.self_ns(s) for s in rounds), n_rounds) / ms
    minicast_ns = idx.self_time_ns(idx.spans, "ct.minicast")
    out["ct.minicast.ms_per_round"] = _per(minicast_ns, n_rounds) / ms
    out["ct.minicast.runs_per_round"] = _per(len(idx.named("ct.minicast.run")), n_rounds)
    round_spans = [s for r in idx.roots("scenarios.session.run") for s in idx.in_trace(r)]
    out["crypto.ms_per_round"] = _per(idx.self_time_ns(round_spans, "crypto"), n_rounds) / ms
    out["sss.ms_per_round"] = _per(idx.self_time_ns(round_spans, "sss"), n_rounds) / ms
    setup = SpanIndex(setup_spans)
    out["diskcache.setup_misses"] = float(
        sum(s.tag == 1 for s in setup.named("diskcache.load"))
    )
    out["diskcache.setup_ms"] = setup.busy_ns(setup.spans, "diskcache") / ms

    # Per window close (close and socket).
    closes = idx.roots("service.client.close_window")
    n_closes = len(closes)
    close_spans = [s for c in closes for s in idx.in_trace(c)]

    def per_close_ms(layer: str) -> float:
        return _per(idx.busy_ns(close_spans, layer), n_closes) / ms

    out["service.windows.aggregate_ms"] = per_close_ms("service.windows")
    out["service.windows.timed_share_pct"] = (
        100.0 * idx.busy_ns(close_spans, "service.windows") / timed.raw_busy_ns()
        if timed.raw_busy_ns()
        else 0.0
    )
    out["sss.scheme.split_many_ms"] = per_close_ms("sss.scheme")
    out["sss.scheme.shares_dealt"] = _per(
        sum(s.tag for s in close_spans if s.name == "sss.scheme.split_many"), n_closes
    )
    out["field.kernels.horner_ms"] = per_close_ms("field.kernels")
    out["crypto.prng.getrandbits_calls"] = _per(
        sum(s.name == "crypto.prng.getrandbits" for s in close_spans), n_closes
    )
    out["crypto.prng.ms"] = per_close_ms("crypto.prng")
    out["sss.aggregation.reconstruct_ms"] = per_close_ms("sss.aggregation")
    out["analysis.sharding.cross_cell_ms"] = per_close_ms("analysis.sharding")
    out["service.store.publish_ms"] = per_close_ms("service.store")
    out["service.supervisor.close_control_ms"] = per_close_ms("service.transport")

    # Per share submitted.
    submits = idx.roots("service.client.submit")
    n_submits = len(submits)
    submit_spans = [s for r in submits for s in idx.in_trace(r)]
    out["service.daemon.submit_us"] = median(
        [idx.self_ns(s) / 1e3 for s in submit_spans if s.name == "service.daemon.submit"]
    )
    out["service.wal.append_us"] = median(
        [s.duration_ns / 1e3 for s in submit_spans if s.name == "service.wal.append_submission"]
    )
    out["service.wal.fsyncs_per_share"] = _per(
        sum(s.name == "os.fsync" for s in submit_spans), n_submits
    )
    out["service.wal.bytes_per_share"] = info.get("wal_bytes_per_share", 0.0)
    rtts = [
        s.duration_ns / 1e3
        for s in submit_spans
        if s.name == "service.transport.request" and s.tag == 1
    ]
    out["service.transport.submit_rtt_us_p50"] = median(rtts)
    out["service.transport.submit_rtt_us_p99"] = percentile(rtts, 99)
    out["service.supervisor.submit_self_us"] = median(
        [idx.self_ns(s) / 1e3 for s in submit_spans if s.name == "service.supervisor.submit"]
    )
    shard_cpu_us = _per(timed.shard_cpu_ns / 1e3, timed.work)
    out["service.supervisor.shard_cpu_us_per_share"] = shard_cpu_us
    out["service.transport.wait_us_per_share"] = (
        _per(sum(rtts), len(rtts)) - shard_cpu_us if rtts else 0.0
    )
    out["service.client.cpu_us_per_share"] = _per(timed.client_cpu_ns / 1e3, timed.work)
    out["service.transport.requests_per_share"] = _per(len(rtts), timed.work)
    frames = [
        s.tag for s in submit_spans if s.name == "service.wire.frame" and s.tag != NO_TAG
    ]
    out["service.wire.bytes_per_submit_frame"] = _per(sum(frames), len(frames))
    out["service.transport.retries"] = float(max(0, len(rtts) - n_submits))
    return out
