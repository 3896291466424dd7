"""Column-backed slices against explicit ones.

The ``ddg``, cache-loaded and ``reexec`` indexes answer with a
column-backed :class:`~repro.slicing.slice.DynamicSlice`: a sorted gpos
array over the index's flat columns, with nodes and edges built only
when read.  Over the randomized corpora (:mod:`tests.support.progen`,
flat seeds 0-11 and struct/pointer seeds 0-5) every accessor must answer
exactly as the explicit slices of the backward-scan oracles do, in the
explicit form's order (gpos order, then CSR row order, then
location-query edges last), and serialize to the same bytes.  The
served rendering (``slice_payload_bytes``) of every slice equals the
scan oracle's encoded ``slice_payload``.

Also here: the accessors that need no nodes build none, and a slice
kept past its session does not keep the session's trace store or
machine alive.
"""

import gc
import json
import weakref

import pytest

import repro.slicing.slice as slice_module
from repro.serve.sessions import slice_payload, slice_payload_bytes
from repro.slicing import SliceOptions, SlicingSession
from repro.slicing.ddg import EDGE_CONTROL
from repro.slicing.ddg_serde import (deserialize_index, options_fingerprint,
                                     serialize_index)
from repro.slicing.slice import DynamicSlice, SliceNode

from tests.support.progen import (build_program, build_struct_program,
                                  record_pinball)

CORPUS = ([("flat", seed) for seed in range(12)]
          + [("struct", seed) for seed in range(6)])


def _record(kind, seed):
    build = build_program if kind == "flat" else build_struct_program
    program = build(seed)
    return program, record_pinball(program, seed)


def _sessions(program, pinball):
    """(ddg, cache-loaded, reexec, columnar-scan oracle, ddg over the
    row store) sessions."""
    ddg = SlicingSession(pinball, program, SliceOptions(index="ddg"),
                         engine="predecoded")
    options = SliceOptions(index="ddg")
    blob = serialize_index(ddg.slicer.ddg, options_fingerprint(options))
    frozen = SlicingSession.from_frozen_index(
        pinball, program, deserialize_index(blob, options=options), options)
    reexec = SlicingSession(pinball, program, SliceOptions(index="reexec"),
                            engine="predecoded")
    assert reexec._reexec is not None, "reexec session fell back"
    scan = SlicingSession(pinball, program, SliceOptions(index="columnar"),
                          engine="predecoded")
    rows = SlicingSession(pinball, program,
                          SliceOptions(index="ddg", columnar=False),
                          engine="predecoded")
    return ddg, frozen, reexec, scan, rows


def _queries(session):
    queries = [(criterion, None) for criterion in session.last_reads(4)]
    for name in ("g0", "g1", "total"):
        try:
            criterion = session.last_write_to_global(name)
        except ValueError:
            continue
        queries.append((criterion, [session.global_location(name)]))
    return queries


def _explicit_reference(ddg_session, criterion, locations, members):
    """The explicit slice in the column-backed form's order, built
    straight from the trace store and the CSR columns."""
    index = ddg_session.slicer.ddg
    store = ddg_session.collector.store
    tids, tindexes = index._tids, index._tindexes
    nodes = {}
    edges = []
    for g in members:
        record = store.get((tids[g], tindexes[g]))
        nodes[record.instance] = SliceNode(record.tid, record.tindex,
                                           record.addr, record.line,
                                           record.func, record.values)
        for e in range(index._indptr[g], index._indptr[g + 1]):
            p = index._preds[e]
            if index._kinds[e] == EDGE_CONTROL:
                edges.append((record.instance, (tids[p], tindexes[p]),
                              "control", None))
            else:
                edges.append((record.instance, (tids[p], tindexes[p]),
                              "data", index._locs[index._elocs[e]]))
    crit_gpos = ddg_session.gtrace.gpos_of(criterion)
    for loc in locations or ():
        producer = index._resolve(tuple(loc), crit_gpos + 1)
        if producer >= 0:
            edges.append((criterion, (tids[producer], tindexes[producer]),
                          "data", tuple(loc)))
    return nodes, edges


def _node_fields(nodes, values=True):
    """Nodes as an ordered list; the reexec index records no written
    values (its nodes carry None)."""
    return [(inst, (n.tid, n.tindex, n.addr, n.line, n.func,
                    n.values if values else None))
            for inst, n in nodes.items()]


def _saved(dslice, tmp_path, name):
    path = tmp_path / name
    dslice.save(str(path))
    return path.read_bytes()


def _stats_core(dslice):
    return {key: dslice.stats[key]
            for key in ("nodes", "edges", "unresolved_locations")}


@pytest.mark.parametrize("kind,seed", CORPUS,
                         ids=["%s-%d" % case for case in CORPUS])
def test_column_slices_match_explicit(kind, seed, tmp_path):
    program, pinball = _record(kind, seed)
    ddg, frozen, reexec, scan, rows = _sessions(program, pinball)
    queries = _queries(ddg)
    assert queries
    for criterion, locations in queries:
        oracle = scan.slice_for(criterion, locations)
        column = ddg.slice_for(criterion, locations)
        members = list(column._members)
        gpos_of = ddg.gtrace.gpos_of
        assert members == sorted(gpos_of(inst) for inst in oracle.nodes)
        nodes, edges = _explicit_reference(ddg, criterion, locations,
                                           members)
        reference = DynamicSlice(column.criterion, nodes, edges,
                                 column.stats)
        payload = json.dumps(slice_payload(scan, oracle), sort_keys=True)
        encoded = json.dumps(slice_payload(scan, oracle), sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        # An explicit slice falls back to encoding its payload.
        assert slice_payload_bytes(oracle) == encoded

        answers = {"ddg": column,
                   "frozen": frozen.slice_for(criterion, locations),
                   "reexec": reexec.slice_for(criterion, locations),
                   "ddg-rows": rows.slice_for(criterion, locations)}
        for name, dslice in answers.items():
            context = "%s-%d %s %r" % (kind, seed, name, criterion)
            # Cheap accessors first, while nothing is materialized.
            assert len(dslice) == len(oracle), context
            assert len(dslice.nodes) == len(oracle.nodes), context
            assert dslice.to_keep() == oracle.to_keep(), context
            assert dslice.threads() == oracle.threads(), context
            assert dslice.lines() == oracle.lines(), context
            assert (dslice.source_statements()
                    == oracle.source_statements()), context
            assert dslice.pcs() == oracle.pcs(), context
            assert _stats_core(dslice) == _stats_core(oracle), context
            assert json.dumps(slice_payload(ddg, dslice),
                              sort_keys=True) == payload, context
            assert slice_payload_bytes(dslice) == encoded, context
            for inst in oracle.nodes:
                assert inst in dslice and inst in dslice.nodes, context
            for outside in [(criterion[0], -1), (criterion[0], 10 ** 9),
                            (10 ** 6, 0), (criterion[0],)]:
                assert outside not in dslice, context
            assert dslice._nodes is None and dslice._edges is None

            # Materialized: the explicit form, in its order.
            values = name != "reexec"
            assert _node_fields(dslice.nodes) == _node_fields(
                reference.nodes, values), context
            assert dslice.edges == reference.edges, context
            assert sorted(dslice.edges) == sorted(oracle.edges), context
            for inst in reference.nodes:
                assert dslice.deps_of(inst) == reference.deps_of(inst)
                assert dslice.node(inst).addr == reference.node(inst).addr
            assert dslice.instances() == reference.instances()

            wanted = reference.to_dict()
            got = dslice.to_dict()
            if name == "reexec":
                wanted.pop("stats")
                got.pop("stats")
            assert json.dumps(got) == json.dumps(wanted), context
            if name != "reexec":
                saved = _saved(dslice, tmp_path, "column.json")
                assert saved == _saved(reference, tmp_path, "explicit.json")
                loaded = DynamicSlice.load(str(tmp_path / "column.json"))
                assert _saved(loaded, tmp_path, "loaded.json") == saved
                assert slice_payload_bytes(loaded) == encoded, context
                assert loaded.to_keep() == dslice.to_keep()
                assert (loaded.source_statements()
                        == dslice.source_statements())


class _CountingNode(SliceNode):
    built = 0

    def __init__(self, *args, **kwargs):
        _CountingNode.built += 1
        super().__init__(*args, **kwargs)


@pytest.mark.parametrize("index", ["ddg", "frozen", "reexec"])
def test_cheap_accessors_build_no_nodes_or_edges(monkeypatch, index):
    program, pinball = _record("flat", 3)
    sessions = dict(zip(("ddg", "frozen", "reexec", "scan"),
                        _sessions(program, pinball)))
    session = sessions[index]
    monkeypatch.setattr(slice_module, "SliceNode", _CountingNode)
    _CountingNode.built = 0
    criterion = session.last_write_to_global("g0")
    dslice = session.slice_for(criterion, [session.global_location("g0")])
    cheap = [len(dslice), len(dslice.nodes), criterion in dslice,
             criterion in dslice.nodes, dslice.to_keep(), dslice.threads(),
             dslice.lines(), dslice.source_statements(), dslice.pcs(),
             dslice.instances(), dict(dslice.stats), dslice.node_rows(),
             dslice.edge_rows(), slice_payload(session, dslice),
             slice_payload_bytes(dslice)]
    assert all(item is not None for item in cheap)
    assert _CountingNode.built == 0
    assert dslice._nodes is None and dslice._edges is None
    assert len(list(dslice.nodes.values())) == len(dslice)
    assert _CountingNode.built == len(dslice)
    dslice.edges
    assert _CountingNode.built == len(dslice)


@pytest.mark.parametrize("index", ["ddg", "frozen", "reexec"])
def test_kept_slice_does_not_pin_its_session(index):
    program, pinball = _record("flat", 5)
    ddg, frozen, reexec, _scan, _rows = _sessions(program, pinball)
    session = {"ddg": ddg, "frozen": frozen, "reexec": reexec}[index]
    criterion = session.last_write_to_global("g0")
    dslice = session.slice_for(criterion, [session.global_location("g0")])
    rendered = json.dumps(dslice.to_dict())
    payload = json.dumps(slice_payload(session, dslice))
    watched = [weakref.ref(session), weakref.ref(session.slicer)]
    if index == "ddg":
        watched += [weakref.ref(session.collector.store),
                    weakref.ref(session.machine)]
    elif index == "reexec":
        watched += [weakref.ref(session.machine)]
    # Every session over this recording goes, the ddg one last: the
    # cache-loaded index was serialized from it.
    del session, ddg, frozen, reexec, _scan, _rows
    gc.collect()
    assert [ref() for ref in watched] == [None] * len(watched)
    assert json.dumps(dslice.to_dict()) == rendered
    assert json.dumps(slice_payload(None, dslice)) == payload
