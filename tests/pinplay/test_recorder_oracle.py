"""The pinball recorder's access-order edges against an event-fed reference.

:class:`~repro.pinplay.logger.FastRecorder` is the one pinball recorder,
and the machine feeds it on three paths: the batched loop (predecoded
engine, no instruction tool), the per-step loop (an instruction-event
tool attached) and the legacy engine.  :class:`ReferenceLogger` writes
the edge rule the way an online tool runs it: three dicts per address
(the sole thread to touch it so far, the last write, and each thread's
last read since that write), fed by each
:class:`~repro.vm.hooks.InstrEvent`'s access lists.  Attached beside
the recorder it must log the same edges in the same order, on every
path, in v1 and in v2 with checkpoints; and every path must record the
same pinball bytes.
"""

import pytest

from repro.pinplay import RegionSpec, record_region
from repro.vm import RandomScheduler
from repro.vm.hooks import Tool
from repro.workloads import get_parsec, get_pointer, get_specomp

from tests.support.progen import build_program, inputs_for, scheduler_for

SHARED = -2          # an address more than one thread has touched
INTERVAL = 64        # v2 checkpoint interval: batches end at checkpoints
FORMATS = (("v1", None), ("v2", INTERVAL))


class ReferenceLogger(Tool):
    """The access-order rule over instruction events."""

    wants_instr_events = True
    retains_instr_events = False

    def __init__(self) -> None:
        #: (from_tid, from_tindex, to_tid, to_tindex, addr, kind)
        self.mem_order = []
        self._last_writer = {}           # addr -> (tid, tindex)
        self._readers_since_write = {}   # addr -> {tid: tindex}
        self._seen_by = {}               # addr -> sole tid, or SHARED

    def _mark(self, addr, tid) -> bool:
        """Note that ``tid`` touched ``addr``; True once it is shared."""
        owner = self._seen_by.get(addr)
        if owner is None:
            self._seen_by[addr] = tid
            return False
        if owner == tid:
            return False
        self._seen_by[addr] = SHARED
        return True

    def on_instr(self, event) -> None:
        tid = event.tid
        tindex = event.tindex
        for addr, _value in event.mem_reads:
            shared = self._mark(addr, tid)
            readers = self._readers_since_write.setdefault(addr, {})
            if shared and tid not in readers:
                writer = self._last_writer.get(addr)
                if writer is not None and writer[0] != tid:
                    self.mem_order.append(
                        (writer[0], writer[1], tid, tindex, addr, "raw"))
            readers[tid] = tindex
        for addr, _value in event.mem_writes:
            if self._mark(addr, tid):
                writer = self._last_writer.get(addr)
                if writer is not None and writer[0] != tid:
                    self.mem_order.append(
                        (writer[0], writer[1], tid, tindex, addr, "waw"))
                for reader, reader_tindex in self._readers_since_write.get(
                        addr, {}).items():
                    if reader != tid:
                        self.mem_order.append(
                            (reader, reader_tindex, tid, tindex, addr,
                             "war"))
            self._last_writer[addr] = (tid, tindex)
            self._readers_since_write[addr] = {}


KERNELS = {
    "blackscholes": (get_parsec, {"units": 6, "nthreads": 3}),
    "fluidanimate": (get_parsec, {"units": 6, "nthreads": 3}),
    "canneal": (get_parsec, {"units": 6, "nthreads": 3}),
    "dedup": (get_parsec, {"units": 6, "nthreads": 3}),
    "ammp": (get_specomp, {"units": 6}),
    "mgrid": (get_specomp, {"units": 6}),
    "list_chase": (get_pointer, {"units": 6, "nthreads": 2}),
    "tree_sum": (get_pointer, {"units": 6, "nthreads": 2}),
    "hashchain": (get_pointer, {"units": 6, "nthreads": 2}),
}
CORPUS = ["progen-%d" % seed for seed in range(12)] + list(KERNELS)


def record_case(name, engine=None, tools=(), fmt=None, interval=None):
    """Record ``name`` of the corpus under its fixed schedule."""
    if name in KERNELS:
        get, kwargs = KERNELS[name]
        program = get(name).build(**kwargs)
        scheduler = RandomScheduler(seed=1, switch_prob=0.3)
        inputs, rand_seed = (), 0
    else:
        rand_seed = int(name.split("-")[1])
        program = build_program(rand_seed)
        scheduler = scheduler_for(rand_seed)
        inputs = inputs_for(rand_seed)
    return record_region(program, scheduler, RegionSpec(), inputs=inputs,
                         rand_seed=rand_seed, engine=engine,
                         extra_tools=tools, pinball_format=fmt,
                         checkpoint_interval=interval)


@pytest.mark.parametrize("fmt,interval", FORMATS)
@pytest.mark.parametrize("name", CORPUS)
def test_recorder_edges_match_reference_on_every_path(name, fmt, interval):
    def record(engine, tools=()):
        return record_case(name, engine, tools, fmt, interval)

    per_step = ReferenceLogger()
    legacy = ReferenceLogger()
    pinballs = {
        "batched": record("predecoded"),
        "per_step": record("predecoded", [per_step]),
        "legacy": record("legacy", [legacy]),
        "legacy_bare": record("legacy"),
    }
    assert legacy.mem_order == per_step.mem_order
    for path, pinball in pinballs.items():
        assert pinball.mem_order == per_step.mem_order, path
    want = pinballs["batched"].to_bytes(format=fmt)
    for path, pinball in pinballs.items():
        assert pinball.to_bytes(format=fmt) == want, path
    if interval:
        assert pinballs["batched"].checkpoints


def test_corpus_has_edges_of_every_kind():
    """The rule is exercised: the corpus logs raw, waw and war edges."""
    kinds = set()
    for name in CORPUS:
        reference = ReferenceLogger()
        record_case(name, tools=[reference])
        kinds.update(edge[5] for edge in reference.mem_order)
    assert kinds == {"raw", "waw", "war"}
