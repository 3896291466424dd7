"""The ``served`` workload: client -> router -> one node -> worker pool.

The router and the node each run in their own process (``python -m
repro router`` / ``python -m repro serve``), the node's pool is ``nproc``
workers wide, and the load comes from ``nproc`` closed-loop connections
in this process: each developer waits for an answer before asking the
next question.  The load generator is the benchmark's own, so changes
to ``repro.serve.loadgen`` do not change the load.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import socket
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from typing import Dict, Iterator, List, Optional, Sequence

from repro.lang import compile_source
from repro.pinplay import RegionSpec, record_region, replay
from repro.serve import DebugClient, PinballStore, RpcRemoteError, rpc
from repro.serve.sessions import replay_payload, slice_payload
from repro.slicing import SlicingSession
from repro.vm import RandomScheduler
from repro.workloads import get_parsec, get_specomp

from common import Tally, Tracer
from inproc import Plan, Region, random_scheduler

#: About eight stored PARSEC and SPECOMP recordings of a few thousand
#: steps each, ranked hot to cold for the Zipf draw.
CORPUS = (
    ("parsec", "blackscholes", {"units": 40, "nthreads": 3}),
    ("parsec", "swaptions", {"units": 24, "nthreads": 3}),
    ("specomp", "mgrid", {"units": 16}),
    ("parsec", "fluidanimate", {"units": 24, "nthreads": 3}),
    ("specomp", "ammp", {"units": 16}),
    ("parsec", "streamcluster", {"units": 12, "nthreads": 3}),
    ("specomp", "apsi", {"units": 16}),
    ("specomp", "wupwise", {"units": 16}),
)
CORPUS_SWITCH_PROB = 0.1
#: The stored corpus is the same on every run: segment ``n`` records it
#: with scheduler seeds drawn from ``"served-corpus/n"``, and ``--seed``
#: drives the load.  The node routes a request to a worker by its key,
#: a content hash of the recording, so a corpus drawn from ``--seed``
#: split the eight sessions differently over the workers on every run;
#: with 4 resident sessions per worker, the median served slice took
#: 13.2 ms at a 4/4 split and 15.7 to 21.2 ms at 6/2 and 2/6 splits
#: (six seeds, one segment each).
CORPUS_SEED = "served-corpus/%d"
#: ``repro.serve.loadgen.DEFAULT_ZIPF_S``.
ZIPF_S = 1.1
#: Request mix weights: ``repro.serve.loadgen.DEFAULT_MIX`` (slice 6,
#: last_reads 3, replay 1) plus the record row of 1 that
#: ``benchmarks/test_perf_loadgen.py`` adds for its record-bearing mix.
#: They are copied, so a change there does not change this load.  A
#: ``record`` starts an episode on its connection: the first slice of
#: the new recording (the node opens it cold) and its execution slice
#: (relog, then a replay of the stored slice pinball) follow before the
#: next draw.
MIX = (("slice", 6), ("last_reads", 3), ("replay", 1), ("record", 1))
#: The program recorded by ``record`` requests.
RECORD_KERNEL = ("blackscholes", {"units": 8, "nthreads": 2})
#: Strata of the key draw, and of each key's criterion positions on a
#: connection (see :func:`stratified`).
KEY_STRATA = 16
CRITERION_STRATA = 8
#: Requests per ``round_s`` block.
BLOCK = 50
REQUEST_TIMEOUT = 60.0


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def stratified(rng: random.Random, strata: int) -> Iterator[float]:
    """Endless draws from [0, 1): each run of ``strata`` draws takes one
    uniform point from every stratum ``[k/strata, (k+1)/strata)``, in a
    shuffled order.  Mapped through a CDF, a draw is still a random pick
    with the CDF's odds, but a run's mix, key popularity and criterion
    positions stay close to their targets, so the run-to-run spread is
    the program's rather than the draw's."""
    order = list(range(strata))
    while True:
        rng.shuffle(order)
        for stratum in order:
            yield (stratum + rng.random()) / strata


def cumulative(weights: Sequence[float]) -> List[float]:
    total = float(sum(weights))
    cdf, acc = [], 0.0
    for weight in weights:
        acc += weight / total
        cdf.append(acc)
    return cdf


def pick(cdf: List[float], draw: float) -> int:
    return min(bisect_right(cdf, draw), len(cdf) - 1)


def digest(payload: dict) -> str:
    """sha256 of ``payload`` encoded the way the wire encodes a result."""
    return hashlib.sha256(rpc.encode_message(payload)[:-1]).hexdigest()


def replayed_locally(pinball, program) -> dict:
    """``replay_payload`` of an in-process ``replay`` of ``pinball``, as
    the wire decodes it.  ``replay_payload`` reports the schedule's
    length as ``steps``; here it is the steps the replay ran, so a
    replay cut short never matches the served answer."""
    machine, result = replay(pinball, program)
    payload = replay_payload(machine, result, pinball)
    payload["steps"] = result.steps
    return json.loads(rpc.encode_message(payload))


class Connection:
    """One client connection of the load generator.

    Like :class:`~repro.serve.client.DebugClient`, but :meth:`call` also
    returns the sha256 of the result's bytes as they arrived, so every
    served slice is compared byte for byte without keeping it.
    """

    def __init__(self, port: int) -> None:
        self._sock = socket.create_connection(("127.0.0.1", port),
                                              timeout=REQUEST_TIMEOUT)
        self._file = self._sock.makefile("rwb")
        self._ids = itertools.count(1)

    def call(self, method: str, params: dict):
        self._file.write(rpc.encode_message(
            rpc.make_request(method, params, req_id=next(self._ids))))
        self._file.flush()
        line = self._file.readline()
        if not line:
            raise ConnectionResetError("connection closed mid-call")
        response = json.loads(line)
        error = response.get("error")
        if error is not None:
            raise RpcRemoteError(error.get("code", rpc.INTERNAL_ERROR),
                                 error.get("message", "unknown error"))
        # Envelope keys are sorted, so the result is the last member.
        raw = line[line.index(b'"result":') + len(b'"result":'):-2]
        return response["result"], hashlib.sha256(raw).hexdigest()

    def close(self) -> None:
        self._file.close()
        self._sock.close()


class Fleet:
    """A router and one serve node, each in its own process."""

    def __init__(self, root: str, store_root: str, workdir: str,
                 workers: int) -> None:
        self.root = root
        self.store_root = store_root
        self.workdir = workdir
        self.workers = workers
        self.procs: List[subprocess.Popen] = []
        self.node_port = self.router_port = None

    def _spawn(self, name: str, args: List[str]) -> int:
        port_file = os.path.join(self.workdir, "%s.port" % name)
        log = open(os.path.join(self.workdir, "%s.log" % name), "ab")
        try:
            proc = subprocess.Popen(
                [sys.executable, "-m", "repro"] + args
                + ["--port", "0", "--port-file", port_file],
                cwd=self.root, stdout=log, stderr=log,
                stdin=subprocess.DEVNULL)
        finally:
            log.close()
        self.procs.append(proc)
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError("%s exited with %s during start-up"
                                   % (name, proc.returncode))
            try:
                with open(port_file) as handle:
                    text = handle.read().strip()
                if text:
                    os.unlink(port_file)
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.01)
        raise RuntimeError("%s did not announce a port" % name)

    def start(self) -> "Fleet":
        self.node_port = self._spawn("node", [
            "serve", "--store", self.store_root,
            "--workers", str(self.workers)])
        self.router_port = self._spawn("router", [
            "router", "--nodes", "127.0.0.1:%d" % self.node_port])
        return self

    def client(self, direct: bool = False) -> DebugClient:
        port = self.node_port if direct else self.router_port
        return DebugClient(port=port, timeout=REQUEST_TIMEOUT)

    def stop(self) -> None:
        """Shut the router and node down and wait for both to exit."""
        if self.router_port is not None:
            try:
                with self.client() as client:
                    client.call("shutdown", {"nodes": True})
            except (OSError, RpcRemoteError):
                pass
        for proc in self.procs:
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []
        self.router_port = self.node_port = None


class Entry:
    """One stored corpus recording and what the benchmark knows of it."""

    def __init__(self, region: Region, pinball, key: str) -> None:
        self.region = region
        self.name = region.name
        self.program = region.program
        self.pinball = pinball
        self.key = key
        counts = pinball.meta["thread_instr_counts"]
        self.tids = sorted(int(tid) for tid, count in counts.items()
                           if count)

    def instance(self, position: float) -> list:
        """The criterion at ``position`` in [0, 1): a thread, each with
        the same odds, then one of its instructions, each with the same
        odds."""
        spot = position * len(self.tids)
        tid = self.tids[int(spot)]
        count = self.pinball.thread_instructions(tid)
        return [tid, min(int((spot - int(spot)) * count), count - 1)]


class ServedWorkload:
    name = "served"

    def __init__(self, seed: int, workdir: str, root: str,
                 segment: int) -> None:
        self.seed = seed
        self.segment = segment
        self.workdir = workdir
        self.root = root
        self.workers = nproc()
        self.fleet: Optional[Fleet] = None
        self.loads = 0
        self.entries: List[Entry] = []
        kernel, params = RECORD_KERNEL
        self.record_source = get_parsec(kernel).source(**params)
        self.rng = None

    def setup(self, tracer: Tracer) -> None:
        """Build the store corpus, start the fleet and warm every session."""
        self.rng = random.Random("served/%d/%d" % (self.seed, self.segment))
        corpus_rng = random.Random(CORPUS_SEED % self.segment)
        store_root = os.path.join(self.workdir, "store")
        store = PinballStore(store_root)
        entries = []
        for suite, kernel, params in CORPUS:
            workload = (get_parsec(kernel) if suite == "parsec"
                        else get_specomp(kernel))
            region = Region(kernel, workload.source(**params), kernel,
                            os.path.join(self.workdir, kernel + ".pinball"),
                            random_scheduler(corpus_rng.randrange(1 << 30),
                                             CORPUS_SWITCH_PROB))
            region.compile(tracer)
            pinball = region.record(tracer)
            with tracer.span("serve.store_put"):
                source_sha = store.put_source(region.source, kernel)
                key = store.put_pinball(
                    pinball, meta={"source_sha": source_sha,
                                   "program_name": kernel})
            entries.append(Entry(region, pinball, key))
        self.entries = entries
        self.store_root = store_root
        fleet = Fleet(self.root, store_root, self.workdir, self.workers)
        self.fleet = fleet
        fleet.start()
        with fleet.client() as client:
            for entry in entries:
                client.call("build", {"key": entry.key})
            # One record warms each worker's compile cache for the
            # record source, as a fleet that has served before would be.
            for _ in range(self.workers):
                client.record(self.record_source, program_name="recorded",
                              seed=self.rng.randrange(1 << 30))

    # -- load --------------------------------------------------------------

    def run_load(self, seconds: float, tracer: Tracer, tally: Tally) -> dict:
        """The closed loop for ``seconds``; returns latency samples and
        per-request records for the checks."""
        key_cdf = cumulative([1.0 / (rank + 1) ** ZIPF_S
                              for rank in range(len(self.entries))])
        verb_cdf = cumulative([weight for _verb, weight in MIX])
        verb_strata = sum(weight for _verb, weight in MIX)
        load = "%d.%d" % (self.segment, self.loads)
        self.loads += 1
        log = {"slices": [], "episodes": [], "replays": []}
        lock = threading.Lock()
        completions: List[float] = []
        latencies: Dict[str, list] = {}
        start = time.perf_counter()
        deadline = start + seconds

        def note(metric, value):
            with lock:
                latencies.setdefault(metric, []).append(value)

        def timed_call(client, method, params, request_id):
            with tracer.span("serve.request", tag=request_id):
                started = time.perf_counter()
                result, sha = client.call(method, params)
                elapsed = time.perf_counter() - started
            with lock:
                completions.append(time.perf_counter())
            note("req_ms", elapsed * 1000.0)
            return result, sha, elapsed

        def connection(number: int) -> None:
            rng = random.Random("served/%d/%s/%d" % (self.seed, load, number))
            verb_draws = stratified(rng, verb_strata)
            key_draws = stratified(rng, KEY_STRATA)
            positions: Dict[str, Iterator[float]] = {}

            def position(entry: Entry) -> float:
                draws = positions.get(entry.key)
                if draws is None:
                    draws = positions[entry.key] = stratified(
                        random.Random(rng.random()), CRITERION_STRATA)
                return next(draws)

            client = Connection(self.fleet.router_port)
            sent = 0
            with tracer.span("round", tag="conn-%s.%d" % (load, number)):
                try:
                    while time.perf_counter() < deadline:
                        verb = MIX[pick(verb_cdf, next(verb_draws))][0]
                        entry = self.entries[pick(key_cdf, next(key_draws))]
                        request_id = "c%s.%d-%d" % (load, number, sent)
                        sent += 1
                        try:
                            tally.ok(self.one_request(
                                client, rng, position, verb, entry,
                                request_id, timed_call, note, log, lock))
                        except RpcRemoteError as exc:
                            tally.fail("%s error %s: %s"
                                       % (verb, exc.code, exc))
                        except Exception as exc:
                            # A connection error, a timeout, or a
                            # response that does not parse or lacks a
                            # field: the stream may be out of step, so
                            # reconnect.
                            tally.fail("%s %s: %s"
                                       % (verb, type(exc).__name__, exc))
                            client.close()
                            client = Connection(self.fleet.router_port)
                finally:
                    client.close()

        errors: List[Exception] = []

        def guarded(number: int) -> None:
            try:
                connection(number)
            except Exception as exc:   # e.g. the reconnect failed
                errors.append(exc)

        threads = [threading.Thread(target=guarded, args=(n,))
                   for n in range(self.workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        elapsed = time.perf_counter() - start
        ordered = sorted(completions)
        blocks = [ordered[i + BLOCK] - ordered[i]
                  for i in range(0, len(ordered) - BLOCK, BLOCK)]
        log["latencies"] = latencies
        log["blocks"] = blocks
        log["elapsed"] = elapsed
        log["completed"] = len(ordered)
        return log

    def one_request(self, client, rng, position, verb, entry, request_id,
                    timed_call, note, log, lock) -> int:
        """Send one draw of the mix; returns the requests it made."""
        if verb == "slice":
            instance = entry.instance(position(entry))
            _result, sha, elapsed = timed_call(
                client, "slice",
                {"key": entry.key, "instance": instance}, request_id)
            note("slice_ms", elapsed * 1000.0)
            with lock:
                log["slices"].append((entry, tuple(instance), sha))
            return 1
        if verb == "last_reads":
            timed_call(client, "last_reads",
                       {"key": entry.key, "count": 5}, request_id)
            return 1
        if verb == "replay":
            result, _sha, elapsed = timed_call(client, "replay",
                                               {"key": entry.key},
                                               request_id)
            note("replay_s", elapsed)
            with lock:
                log["replays"].append((entry, result))
            return 1
        # "record": an episode on a new recording.
        seed = rng.randrange(1 << 30)
        recorded, _sha, elapsed = timed_call(
            client, "record",
            {"program": self.record_source, "program_name": "recorded",
             "seed": seed}, request_id)
        note("record_s", elapsed)
        key = recorded["key"]
        _first, first_sha, elapsed = timed_call(
            client, "slice", {"key": key, "last_read": True},
            request_id + "-first")
        note("first_slice_s", elapsed)
        sliced, _sha, sliced_s = timed_call(
            client, "slice",
            {"key": key, "last_read": True, "slice_pinball": True},
            request_id + "-relog")
        slice_key = sliced["slice_pinball_key"]
        replayed, _sha, replay_s = timed_call(
            client, "replay", {"key": slice_key}, request_id + "-exec")
        note("exec_slice_s", sliced_s + replay_s)
        with lock:
            log["episodes"].append((key, seed, first_sha, slice_key,
                                    replayed))
        return 4

    def subject(self):
        """(region, pinball, plan, criteria) of the hottest recording for
        the traced run's layer probes: seeded instance criteria."""
        entry = self.entries[0]
        rng = random.Random("served/%d/probes" % self.seed)
        instances = []
        while len(instances) < 40:
            instance = tuple(entry.instance(rng.random()))
            if instance not in instances:
                instances.append(instance)
        plan = Plan(instances[0], instances[1:], instances[0], set())
        return entry.region, entry.pinball, plan, instances[:10]

    # -- checks ------------------------------------------------------------

    def check(self, logs: List[dict], tally: Tally) -> None:
        """Every served answer of the load phases' ``logs`` against an
        in-process computation: slices
        byte for byte against ``slice_payload``, replays field for field
        against ``replay_payload`` of an in-process replay, recordings
        against an in-process recording with the same seed, and slice
        pinballs against an in-process relog of the same slice."""
        slices = [item for log in logs for item in log["slices"]]
        replays = [item for log in logs for item in log["replays"]]
        episodes = [item for log in logs for item in log["episodes"]]
        sessions = {}
        expected: Dict[tuple, str] = {}
        for entry, instance, got in slices:
            session = sessions.get(entry.key)
            if session is None:
                session = sessions[entry.key] = SlicingSession(
                    entry.pinball, entry.program)
            want = expected.get((entry.key, instance))
            if want is None:
                want = expected[(entry.key, instance)] = digest(
                    slice_payload(session, session.slice_for(instance)))
            if got != want:
                tally.wrong("served slice %s %r differs from in-process"
                            % (entry.name, instance))
        replayed: Dict[str, dict] = {}
        for entry, result in replays:
            want = replayed.get(entry.key)
            if want is None:
                want = replayed[entry.key] = replayed_locally(
                    entry.pinball, entry.program)
            if result != want:
                tally.wrong("served replay of %s: %r, in process %r"
                            % (entry.name, result, want))
        store = PinballStore(self.store_root)
        program = compile_source(self.record_source, name="recorded")
        for key, seed, got, slice_key, slice_replay in episodes:
            stored = store.get_pinball(key)
            local = record_region(program, RandomScheduler(
                seed=seed, switch_prob=0.2), RegionSpec())
            if (stored.meta.get("final_state_hash")
                    != local.meta.get("final_state_hash")):
                tally.wrong("served recording %s differs from an "
                            "in-process one with seed %d" % (key[:12], seed))
            session = SlicingSession(stored, program)
            dslice = session.slice_for(session.last_reads(1)[0])
            if digest(slice_payload(session, dslice)) != got:
                tally.wrong("first slice of recorded %s differs" % key[:12])
            relogged = session.make_slice_pinball(dslice)
            if (store.get_pinball(slice_key).to_bytes(compress=False)
                    != relogged.to_bytes(compress=False)):
                tally.wrong("slice pinball of %s differs from an "
                            "in-process relog" % key[:12])
            want = replayed_locally(relogged, program)
            if slice_replay != want:
                tally.wrong("served replay of the slice pinball of %s: "
                            "%r, in process %r"
                            % (key[:12], slice_replay, want))

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.stop()
            self.fleet = None
