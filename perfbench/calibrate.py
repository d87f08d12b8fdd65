"""Reference probes: the host's current speed, timed next to every call.

On a shared cloud host the speed of everything drifts in phases of
seconds to minutes: a fixed pure-Python loop by up to 2x, an fsync of a
small append by 2x, a process-to-process round trip with it.  A timed
phase therefore runs fixed reference probes every ``EVERY_NS`` between
its timed calls, and each call is scaled to the reference speed by the
probe that matches its cost::

    scaled = raw * REF_NS[probe] / median(probe samples within WINDOW_NS)

* ``cpu``   -- a fixed pure-Python loop (simulation sweeps, window closes);
* ``fsync`` -- a 48-byte append + ``os.fsync`` in the run directory
  (in-process submits: journal before ack);
* ``ack``   -- a 48-byte round trip to a helper process that appends and
  fsyncs before it answers (submits across the process boundary).

The probes use no program code, so a change to the program moves a
scaled time exactly as much as the raw one.
"""

from __future__ import annotations

import multiprocessing
import os
import pathlib
import socket
import statistics
import time

#: What one probe takes on the reference host; scaled times read as if
#: the host ran every probe at exactly this speed.
REF_NS = {"cpu": 3_500_000, "fsync": 150_000, "ack": 200_000}
#: Iterations of the ``cpu`` loop.
CPU_LOOP = 40_000
#: Probe again once this much time passed since the last probe ...
EVERY_NS = 250_000_000
#: ... and scale a call by the probes within this distance of it.
WINDOW_NS = 1_000_000_000
#: Appends or round trips per ``fsync`` / ``ack`` sample (median taken).
REPEATS = 5
RECORD = b"x" * 48


def cpu_probe() -> int:
    """Nanoseconds for a fixed pure-Python loop."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(CPU_LOOP):
        acc += i * i % 7
    return time.perf_counter_ns() - start


def cpu_probe_median(samples: int = 3) -> int:
    return int(statistics.median(cpu_probe() for _ in range(samples)))


def _ack_helper(conn: socket.socket, path: str) -> None:
    """Helper process: append + fsync every record, then answer."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    try:
        while True:
            record = conn.recv(len(RECORD))
            if not record:
                return
            os.write(fd, record)
            os.fsync(fd)
            conn.sendall(b"k")
    finally:
        os.close(fd)


class Calibrator:
    """Takes probe samples on demand; scales durations to reference speed."""

    def __init__(self, probes: tuple[str, ...], directory: pathlib.Path):
        self.probes = probes
        self.samples: list[tuple[int, dict[str, int]]] = []
        self._fd = None
        self._conn = None
        self._helper = None
        if "fsync" in probes or "ack" in probes:
            directory.mkdir(parents=True, exist_ok=True)
        if "fsync" in probes:
            self._fd = os.open(
                directory / "probe-fsync.bin", os.O_WRONLY | os.O_CREAT | os.O_APPEND
            )
        if "ack" in probes:
            self._conn, peer = socket.socketpair()
            ctx = multiprocessing.get_context("spawn")
            self._helper = ctx.Process(
                target=_ack_helper,
                args=(peer, str(directory / "probe-ack.bin")),
                daemon=True,
            )
            self._helper.start()
            peer.close()

    def _fsync_probe(self) -> int:
        times = []
        for _ in range(REPEATS):
            os.write(self._fd, RECORD)
            start = time.perf_counter_ns()
            os.fsync(self._fd)
            times.append(time.perf_counter_ns() - start)
        return int(statistics.median(times))

    def _ack_probe(self) -> int:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter_ns()
            self._conn.sendall(RECORD)
            if self._conn.recv(1) != b"k":
                raise RuntimeError("calibration helper process died")
            times.append(time.perf_counter_ns() - start)
        return int(statistics.median(times))

    def maybe_sample(self) -> None:
        """Take one sample of every probe if the last one is old enough."""
        now = time.perf_counter_ns()
        if self.samples and now - self.samples[-1][0] < EVERY_NS:
            return
        sample = {"cpu": cpu_probe()}
        if self._fd is not None:
            sample["fsync"] = self._fsync_probe()
        if self._conn is not None:
            sample["ack"] = self._ack_probe()
        self.samples.append((now, sample))

    def scale(self, probe: str, at_ns: int) -> float:
        """Factor taking a duration measured at ``at_ns`` to reference speed."""
        near = [s[probe] for t, s in self.samples if abs(t - at_ns) <= WINDOW_NS]
        if len(near) < 2:
            nearest = sorted(self.samples, key=lambda ts: abs(ts[0] - at_ns))[:2]
            near = [s[probe] for _, s in nearest]
        return REF_NS[probe] / statistics.median(near)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
        if self._conn is not None:
            self._conn.close()
            self._conn = None
            self._helper.join(timeout=5)
            if self._helper.is_alive():
                self._helper.kill()
                self._helper.join()
