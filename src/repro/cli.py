"""Command-line interface: the DrDebug toolchain as a terminal tool.

Subcommands mirror the workflow::

    python -m repro run prog.mc                      # plain execution
    python -m repro record prog.mc -o bug.pinball    # log (opt: expose)
    python -m repro convert bug.pinball -o bug.v2    # migrate v1 <-> v2
    python -m repro replay prog.mc bug.pinball       # deterministic replay
    python -m repro slice prog.mc bug.pinball --failure
    python -m repro races prog.mc bug.pinball        # HB race detection
    python -m repro debug prog.mc bug.pinball -x "break main" -x run
    python -m repro disasm prog.mc
    python -m repro serve --store ./pinballs        # resident debug service
    python -m repro client record prog.mc --expose 64
    python -m repro client slice <key> --var x

Programs are MiniC source files; pinballs are the files produced by
``record`` — zlib-compressed JSON (format v1, the default) or streamed
framed containers with embedded checkpoints (format v2, via ``--format
v2`` or ``REPRO_PINBALL_FORMAT=v2``; readers auto-detect either).  The
program name stored in a pinball is the source file's stem, so replaying
requires the matching source.  The
``serve`` / ``client`` pair runs the same workflow as a long-lived TCP
service over a content-addressed pinball store (see :mod:`repro.serve`).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Sequence

from repro import config
from repro.debugger import DrDebugCLI, DrDebugSession
from repro.detect import detect_races
from repro.isa import disassemble
from repro.lang import CompileError, compile_source
from repro.maple import expose_and_record
from repro.obs import OBS, format_report, layer_totals, run_demo_cycle
from repro.pinplay import (Pinball, RegionSpec, generate_checkpoints,
                           record_region, replay)
from repro.serve import DebugClient, DebugServer, RpcRemoteError, run_server
from repro.serve.server import DEFAULT_HOST, DEFAULT_PORT
from repro.slicing import SliceOptions, SlicingSession
from repro.slicing.options import SLICE_INDEXES
from repro.vm import Machine, RandomScheduler, RoundRobinScheduler


def _load_program(path: str):
    with open(path) as handle:
        source = handle.read()
    name = os.path.splitext(os.path.basename(path))[0]
    return compile_source(source, name=name), source


def _parse_inputs(text: Optional[str]) -> List[int]:
    if not text:
        return []
    return [int(token) for token in text.split(",") if token.strip()]


def _scheduler(args):
    if args.seed is None:
        return RoundRobinScheduler()
    return RandomScheduler(seed=args.seed, switch_prob=args.switch_prob)


def cmd_run(args) -> int:
    program, _source = _load_program(args.program)
    machine = Machine(program, scheduler=_scheduler(args),
                      inputs=_parse_inputs(args.inputs),
                      rand_seed=args.rand_seed)
    result = machine.run(max_steps=args.max_steps)
    for value in machine.output:
        print(value)
    if machine.failure is not None:
        print("ASSERTION FAILURE: code %s in thread %d"
              % (machine.failure["code"], machine.failure["tid"]),
              file=sys.stderr)
        return 1
    print("[%s: %d instructions retired]" % (result.reason, result.retired),
          file=sys.stderr)
    return machine.exit_code or 0


def _bad_checkpoint_interval(args) -> bool:
    """Reject a non-positive ``--checkpoint-interval`` before any work.

    Validated up front (before config resolution or loading anything):
    the knob's resolver would reject it too, but only after the program
    compile / pinball load, and with a traceback instead of a usage
    message.
    """
    interval = getattr(args, "checkpoint_interval", None)
    if interval is not None and interval <= 0:
        print("repro: --checkpoint-interval must be a positive step "
              "count (got %d)" % interval, file=sys.stderr)
        return True
    return False


def cmd_record(args) -> int:
    if _bad_checkpoint_interval(args):
        return 64
    program, _source = _load_program(args.program)
    region = RegionSpec(skip=args.skip, length=args.length)
    inputs = _parse_inputs(args.inputs)
    fmt = config.pinball_format(cli=args.format)

    if args.expose:
        if args.maple:
            result = expose_and_record(program, inputs=inputs,
                                       profile_seeds=range(4),
                                       max_active_runs=args.expose,
                                       region=region)
            if not result.exposed:
                print("no failure exposed (profiling + %d active runs)"
                      % result.active_runs, file=sys.stderr)
                return 1
            pinball = result.pinball
            print("exposed by %s%s" % (
                result.exposed_by,
                "" if result.iroot is None
                else " forcing %s" % result.iroot.describe(program)),
                file=sys.stderr)
        else:
            pinball = None
            for seed in range(args.expose):
                candidate = record_region(
                    program,
                    RandomScheduler(seed=seed,
                                    switch_prob=args.switch_prob),
                    region, inputs=inputs, rand_seed=args.rand_seed,
                    pinball_format=fmt,
                    checkpoint_interval=args.checkpoint_interval)
                if candidate.meta.get("failure"):
                    pinball = candidate
                    print("failure exposed with seed %d" % seed,
                          file=sys.stderr)
                    break
            if pinball is None:
                print("no failure in %d seeds" % args.expose,
                      file=sys.stderr)
                return 1
    else:
        # v2 streams frames straight to the output file (flat peak
        # memory); v1 records in memory and saves below.
        stream = fmt == "v2"
        pinball = record_region(
            program, _scheduler(args), region,
            inputs=inputs, rand_seed=args.rand_seed,
            stream_path=args.output if stream else None,
            pinball_format=fmt,
            checkpoint_interval=args.checkpoint_interval)
        if stream:
            size = os.path.getsize(args.output)
            print("wrote %s: %d instructions, %d bytes, failure=%r"
                  % (args.output, pinball.total_instructions, size,
                     (pinball.meta.get("failure") or {}).get("code")))
            return 0

    size = pinball.save(args.output, format=fmt)
    print("wrote %s: %d instructions, %d bytes, failure=%r"
          % (args.output, pinball.total_instructions, size,
             (pinball.meta.get("failure") or {}).get("code")))
    return 0


def cmd_replay(args) -> int:
    program, _source = _load_program(args.program)
    pinball = Pinball.load(args.pinball)
    machine, result = replay(pinball, program, verify=not args.no_verify)
    for value in machine.output:
        print(value)
    print("[replayed %d steps, reason=%s, failure=%r]"
          % (pinball.total_steps, result.reason,
             (result.failure or {}).get("code")), file=sys.stderr)
    return 0 if result.failure is None else 1


def cmd_convert(args) -> int:
    """``repro convert``: migrate a pinball between formats v1 and v2."""
    if _bad_checkpoint_interval(args):
        return 64
    pinball = Pinball.load(args.input)
    source_fmt = pinball.format
    target = args.format or ("v1" if source_fmt == "v2" else "v2")
    if (target == "v2" and args.program
            and not getattr(pinball, "checkpoints", None)
            and not pinball.exclusions):
        # One replay pass makes the v2 file seekable: without embedded
        # checkpoints it is still valid, just O(region) to rewind.
        program, _source = _load_program(args.program)
        interval = config.checkpoint_interval(
            explicit=args.checkpoint_interval)
        pinball.checkpoints = generate_checkpoints(pinball, program,
                                                   interval)
    size = pinball.save(args.output, format=target)
    checkpoints = len(getattr(pinball, "checkpoints", ()) or ())
    print("wrote %s: %s -> %s, %d bytes, %d embedded checkpoint(s)"
          % (args.output, source_fmt, target, size,
             checkpoints if target == "v2" else 0))
    return 0


def cmd_slice(args) -> int:
    program, _source = _load_program(args.program)
    pinball = Pinball.load(args.pinball)
    option_kwargs = dict(prune_save_restore=not args.no_prune,
                         refine_cfg=not args.no_refine)
    if args.index:
        option_kwargs["index"] = config.slice_index(cli=args.index)
    session = SlicingSession(pinball, program, SliceOptions(**option_kwargs))
    if args.var:
        dslice = session.slice_for_global(args.var)
    else:
        dslice = session.slice_for(session.failure_criterion())
    stats = session.stats()
    if args.json:
        # The canonical wire rendering — identical field names to the
        # serve `slice` verb (repro.serve.sessions.slice_payload).
        from repro.serve.sessions import slice_payload
        print(json.dumps(slice_payload(session, dslice), indent=2,
                         sort_keys=True))
    else:
        print("slice: %d instances, %d threads" % (
            len(dslice), len(dslice.threads())))
    print("[index=%s trace=%.3fs build=%.3fs query=%.3fs "
          "edges=%d memo=%d/%d]"
          % (stats["slice_index"], stats["trace_time_sec"],
             stats["ddg_build_time_sec"], session.last_slice_time,
             stats["edge_count"], stats["memo_hits"], stats["memo_misses"]),
          file=sys.stderr)
    if not args.json:
        for func, line in sorted(dslice.source_statements(),
                                 key=lambda fl: (fl[0] or "", fl[1] or 0)):
            if func is not None:
                print("  %s:%s" % (func, line))
    if args.output:
        dslice.save(args.output)
        print("slice saved to %s" % args.output)
    if args.slice_pinball:
        slice_pb = session.make_slice_pinball(dslice)
        size = slice_pb.save(args.slice_pinball)
        print("slice pinball: kept %d of %d instructions, %d bytes -> %s"
              % (slice_pb.meta["kept_instructions"],
                 slice_pb.meta["region_instructions"], size,
                 args.slice_pinball))
    return 0


def cmd_dual(args) -> int:
    program, _source = _load_program(args.program)
    failing = Pinball.load(args.failing)
    passing = Pinball.load(args.passing)
    from repro.slicing import dual_slice
    failing_session = SlicingSession(failing, program)
    passing_session = SlicingSession(passing, program)
    if args.var:
        failing_slice = failing_session.slice_for_global(args.var)
        passing_slice = passing_session.slice_for_global(args.var)
    else:
        failing_slice = failing_session.slice_for(
            failing_session.failure_criterion())
        criterion = failing_session.collector.store.get(
            failing_session.failure_criterion())
        passing_slice = passing_session.slice_for(
            passing_session.last_instance_at_line(criterion.line))
    print(dual_slice(failing_slice, passing_slice).describe())
    return 0


def cmd_races(args) -> int:
    program, _source = _load_program(args.program)
    pinball = Pinball.load(args.pinball)
    races = detect_races(pinball, program,
                         globals_only=not args.all_memory)
    if args.json:
        # The unified analysis-report envelope — identical field names
        # across library, CLI and the serve `races` verb.
        from repro.analysis.report import races_report_payload
        print(json.dumps(races_report_payload(races, program), indent=2,
                         sort_keys=True))
    else:
        for race in races:
            print(race.describe(program))
    print("[%d unique racy site pairs]" % len(races), file=sys.stderr)
    return 0 if not races else 2


def cmd_hunt(args) -> int:
    """``repro hunt``: the in-process bug firehose over one recording."""
    from repro.analysis.hunt import hunt
    program, _source = _load_program(args.program)
    pinball = Pinball.load(args.pinball)
    result = hunt(pinball, program,
                  budget=args.budget,
                  profile_seeds=args.profile_seeds,
                  minimize_budget=args.minimize_budget)
    payload = result.payload()
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        paths = {}
        for cid, minimized in sorted(result.minimized.items()):
            path = os.path.join(args.out_dir,
                                "minimized-%s.pinball" % cid)
            minimized.save(path)
            paths[cid] = path
        for row in payload["findings"]:
            if row["candidate"] in paths:
                row["minimized_path"] = paths[row["candidate"]]
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in result.findings:
            print(finding.description)
            if finding.slice_report is not None:
                print("  slice: %d instances over lines %s" % (
                    finding.slice_report.instance_count,
                    ",".join(str(l) for l in
                             sorted(finding.slice_report.lines)[:12])))
    print("[hunt: %d candidates, %d benign, %d overrun, %d confirmed "
          "finding(s), %d race(s)]"
          % (result.candidates_tried, result.benign, result.overrun,
             len(result.findings), len(result.races)),
          file=sys.stderr)
    return 2 if result.findings else 0


def cmd_debug(args) -> int:
    program, source = _load_program(args.program)
    pinball = Pinball.load(args.pinball)
    option_kwargs = {}
    if args.slice_index:
        option_kwargs["index"] = config.slice_index(cli=args.slice_index)
    slice_options = SliceOptions(**option_kwargs) if option_kwargs else None
    session = DrDebugSession(pinball, program, source=source,
                             slice_options=slice_options)
    if args.reverse:
        session.enable_reverse_debugging(args.checkpoint_interval)
    cli = DrDebugCLI(session)
    for command in args.execute or []:
        print("(drdebug) %s" % command)
        print(cli.execute(command))
        if cli.done:
            return 0
    if args.execute and not args.interactive:
        return 0
    # Interactive REPL.
    while not cli.done:
        try:
            line = input("(drdebug) ")
        except EOFError:
            break
        output = cli.execute(line)
        if output:
            print(output)
    return 0


def cmd_disasm(args) -> int:
    program, _source = _load_program(args.program)
    print(disassemble(program, args.function))
    return 0


def cmd_obs(args) -> int:
    """``repro obs report``: demo cycle + counter summary / JSON export."""
    if args.action != "report":
        print("unknown obs action %r (expected: report)" % args.action,
              file=sys.stderr)
        return 2
    if args.no_demo:
        snapshot = OBS.snapshot()
    else:
        # One full cyclic-debugging loop (Maple exposure -> record ->
        # replay -> slice -> slice pinball -> reverse debugging) so the
        # report shows live counters from every instrumented layer.
        snapshot = run_demo_cycle()
    print(format_report(snapshot), end="")
    totals = layer_totals(snapshot)
    print("layer totals: "
          + "  ".join("%s=%d" % (layer, total)
                      for layer, total in totals.items()),
          file=sys.stderr)
    if args.json:
        OBS.save(args.json)
        print("wrote %s" % args.json, file=sys.stderr)
    return 0


def cmd_serve(args) -> int:
    """``repro serve``: run the resident debug service until shutdown."""
    server = DebugServer(
        args.store, host=args.host, port=args.port, workers=args.workers,
        queue_limit=args.queue_limit, request_timeout=args.timeout,
        lru_entries=args.lru_entries, lru_bytes=args.lru_bytes,
        max_request_bytes=args.max_request_bytes)

    def announce(host: str, port: int) -> None:
        print("repro debug service on %s:%d (store: %s, workers: %d)"
              % (host, port, server.store.root, server.pool.workers),
              file=sys.stderr)

    run_server(server, port_file=args.port_file, announce=announce)
    print("server stopped", file=sys.stderr)
    return 0


def cmd_router(args) -> int:
    """``repro router``: key-affinity front end over N serve nodes."""
    from repro.serve.router import Router, parse_nodes, run_router
    spec = args.nodes if args.nodes else config.router_nodes()
    nodes = parse_nodes(spec)
    if not nodes:
        raise ValueError(
            "no serve nodes: pass --nodes host:port,... or set "
            "REPRO_ROUTER_NODES")
    router = Router(nodes, host=args.host, port=args.port,
                    health_interval=args.health_interval)

    def announce(host: str, port: int) -> None:
        print("repro router on %s:%d (%d nodes: %s)"
              % (host, port, len(nodes),
                 ",".join("%s:%d" % pair for pair in nodes)),
              file=sys.stderr)

    run_router(router, port_file=args.port_file, announce=announce)
    print("router stopped", file=sys.stderr)
    return 0


def _client_connect(args) -> DebugClient:
    return DebugClient(host=args.host, port=args.port, timeout=args.timeout)


def cmd_client(args) -> int:
    """``repro client``: one scripted RPC against a running service."""
    verb = args.verb
    if verb == "call" and args.params:
        # Validate local input before dialing out: bad JSON is a usage
        # error (65), not a network problem.
        try:
            json.loads(args.params)
        except ValueError as exc:
            raise ValueError("params is not valid JSON: %s" % exc)
    with _client_connect(args) as client:
        if verb == "ping":
            result = client.ping()
        elif verb == "stats":
            result = client.stats()
        elif verb == "list":
            result = client.list(kind=args.kind, tag=args.tag)
        elif verb == "gc":
            result = client.gc()
        elif verb == "shutdown":
            result = client.shutdown()
        elif verb == "put":
            with open(args.program) as handle:
                source = handle.read()
            with open(args.pinball, "rb") as handle:
                blob = handle.read()
            name = os.path.splitext(os.path.basename(args.program))[0]
            result = client.put_recording(source, blob, program_name=name,
                                          tags=args.tag or ())
        elif verb == "record":
            with open(args.program) as handle:
                source = handle.read()
            name = os.path.splitext(os.path.basename(args.program))[0]
            options = {"tags": args.tag or []}
            if args.expose:
                options["expose"] = args.expose
            if args.seed is not None:
                options["seed"] = args.seed
            options["switch_prob"] = args.switch_prob
            options["inputs"] = _parse_inputs(args.inputs)
            options["rand_seed"] = args.rand_seed
            if args.skip:
                options["skip"] = args.skip
            if args.length is not None:
                options["length"] = args.length
            result = client.record(source, name, **options)
        elif verb == "replay":
            result = client.replay(args.key)
        elif verb == "slice":
            options = {}
            if args.var:
                # Canonical wire vocabulary (legacy "var" still accepted
                # server-side by resolve_criterion).
                options["global_name"] = args.var
            if args.line is not None:
                options["line"] = args.line
            if args.tid is not None:
                options["tid"] = args.tid
            if args.slice_pinball:
                options["slice_pinball"] = True
            if args.index:
                options["index"] = config.slice_index(cli=args.index)
            result = client.slice(args.key, **options)
        elif verb == "last-reads":
            result = client.last_reads(args.key, count=args.count)
        elif verb == "races":
            result = client.races(args.key, all_memory=args.all_memory)
        elif verb == "hunt":
            options = {"minimize_budget": args.minimize_budget,
                       "profile_seeds": args.profile_seeds}
            if args.budget is not None:
                options["budget"] = args.budget
            if args.workers is not None:
                options["workers"] = args.workers
            result = client.hunt(args.key, **options)
        elif verb == "get":
            blob = client.get_blob(args.key)
            with open(args.output, "wb") as handle:
                handle.write(blob)
            result = {"sha": args.key, "bytes": len(blob),
                      "path": args.output}
        elif verb == "call":
            params = json.loads(args.params) if args.params else {}
            result = client.call(args.method, params)
        else:   # pragma: no cover - argparse enforces the choices
            print("unknown client verb %r" % verb, file=sys.stderr)
            return 2
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        _print_client_result(verb, result)
    if verb in ("races", "hunt"):
        # Same exit-code contract as the local `repro races`/`repro
        # hunt` commands: 2 when the analysis found something.
        return 2 if result["finding_count"] else 0
    return 0


def _print_client_result(verb: str, result) -> None:
    """Human-oriented rendering of one RPC result."""
    if verb == "list":
        for entry in result.get("entries", []):
            print("%s  %-8s %8dB  tags=%s  %s" % (
                entry["sha"][:16], entry["kind"], entry["size"],
                ",".join(entry["tags"]) or "-",
                entry.get("meta", {}).get("program_name", "")))
        print("[%d entries]" % len(result.get("entries", [])),
              file=sys.stderr)
        return
    if verb == "slice":
        print("slice: %d instances, %d threads"
              % (result["node_count"], result["thread_count"]))
        for func, line in result.get("source_statements", []):
            if func is not None:
                print("  %s:%s" % (func, line))
        if result.get("slice_pinball_key"):
            print("slice pinball stored as %s"
                  % result["slice_pinball_key"])
        return
    if verb == "races":
        for race in result["findings"]:
            print(race["description"])
        print("[%d unique racy site pairs]" % result["finding_count"],
              file=sys.stderr)
        return
    if verb == "hunt":
        for finding in result.get("findings", []):
            print(finding["description"])
            if finding.get("minimized_key"):
                print("  minimized pinball stored as %s"
                      % finding["minimized_key"])
        print("[hunt: %d candidates, %d benign, %d overrun, %d confirmed "
              "finding(s), %d race(s)]"
              % (result.get("candidates_tried", 0), result.get("benign", 0),
                 result.get("overrun", 0), result.get("finding_count", 0),
                 len(result.get("race_findings", []))),
              file=sys.stderr)
        return
    if verb == "replay":
        for value in result.get("output", []):
            print(value)
        print("[replayed %d steps, reason=%s, failure=%r]"
              % (result["steps"], result["reason"],
                 (result.get("failure") or {}).get("code")),
              file=sys.stderr)
        return
    print(json.dumps(result, indent=2, sort_keys=True))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DrDebug: deterministic replay based cyclic debugging "
                    "with dynamic slicing")
    parser.add_argument("--obs", action="store_true",
                        help="enable the observability registry "
                             "(counters/spans across all layers; also "
                             "enabled by REPRO_OBS=1)")
    parser.add_argument("--obs-json", metavar="PATH", default=None,
                        help="with --obs: export the registry snapshot "
                             "as JSON after the command")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_run_args(p):
        p.add_argument("program", help="MiniC source file")
        p.add_argument("--seed", type=int, default=None,
                       help="random-scheduler seed (default: round-robin)")
        p.add_argument("--switch-prob", type=float, default=0.2)
        p.add_argument("--inputs", help="comma-separated input() values")
        p.add_argument("--rand-seed", type=int, default=0)

    run = sub.add_parser("run", help="execute a program")
    common_run_args(run)
    run.add_argument("--max-steps", type=int, default=10_000_000)
    run.set_defaults(func=cmd_run)

    record = sub.add_parser("record", help="log an execution into a pinball")
    common_run_args(record)
    record.add_argument("-o", "--output", required=True)
    record.add_argument("--skip", type=int, default=0,
                        help="main-thread instructions to fast-forward")
    record.add_argument("--length", type=int, default=None,
                        help="main-thread region length")
    record.add_argument("--expose", type=int, default=0, metavar="N",
                        help="search up to N seeds for a failing schedule")
    record.add_argument("--maple", action="store_true",
                        help="with --expose: use Maple active scheduling")
    record.add_argument("--format", choices=("v1", "v2"), default=None,
                        help="pinball format (default: "
                             "$REPRO_PINBALL_FORMAT or v1); v2 streams "
                             "frames to disk and embeds checkpoints")
    record.add_argument("--checkpoint-interval", type=int, default=None,
                        metavar="N",
                        help="steps between embedded checkpoints "
                             "(default: $REPRO_CHECKPOINT_INTERVAL or "
                             "500); smaller N means bigger v2 files but "
                             "cheaper --index reexec queries (each "
                             "re-replay window is at most N steps)")
    record.set_defaults(func=cmd_record)

    convert = sub.add_parser(
        "convert", help="migrate a pinball between formats v1 and v2")
    convert.add_argument("input", help="pinball file (either format)")
    convert.add_argument("-o", "--output", required=True)
    convert.add_argument("--format", choices=("v1", "v2"), default=None,
                         help="target format (default: the other one)")
    convert.add_argument("--program", default=None,
                         help="MiniC source; with v2 output, replay once "
                              "to embed checkpoints (O(chunk) rewind)")
    convert.add_argument("--checkpoint-interval", type=int, default=None,
                         metavar="N",
                         help="steps between embedded checkpoints "
                              "(default: $REPRO_CHECKPOINT_INTERVAL or "
                              "500); smaller N means bigger v2 files but "
                              "cheaper --index reexec queries (each "
                              "re-replay window is at most N steps)")
    convert.set_defaults(func=cmd_convert)

    rep = sub.add_parser("replay", help="deterministically replay a pinball")
    rep.add_argument("program")
    rep.add_argument("pinball")
    rep.add_argument("--no-verify", action="store_true")
    rep.set_defaults(func=cmd_replay)

    sl = sub.add_parser("slice", help="compute a dynamic slice")
    sl.add_argument("program")
    sl.add_argument("pinball")
    sl.add_argument("--var", help="slice for a global variable "
                                  "(default: the recorded failure)")
    sl.add_argument("-o", "--output", help="save the slice as JSON")
    sl.add_argument("--slice-pinball", help="relog into a slice pinball")
    sl.add_argument("--no-prune", action="store_true",
                    help="disable save/restore pruning")
    sl.add_argument("--no-refine", action="store_true",
                    help="disable indirect-jump CFG refinement")
    sl.add_argument("--index", choices=SLICE_INDEXES, default=None,
                    help="slice-query engine (default: the build-once DDG "
                         "index, or $REPRO_SLICE_INDEX)")
    sl.add_argument("--json", action="store_true",
                    help="print the canonical slice payload (same field "
                         "names as the serve `slice` verb)")
    sl.set_defaults(func=cmd_slice)

    dual = sub.add_parser(
        "dual", help="diff a failing run's slice against a passing run's")
    dual.add_argument("program")
    dual.add_argument("failing", help="pinball of the failing run")
    dual.add_argument("passing", help="pinball of a passing run")
    dual.add_argument("--var", help="slice this global in both runs "
                                    "(default: the failing run's failure "
                                    "and the same line in the passing run)")
    dual.set_defaults(func=cmd_dual)

    races = sub.add_parser("races", help="happens-before race detection")
    races.add_argument("program")
    races.add_argument("pinball")
    races.add_argument("--all-memory", action="store_true",
                       help="watch heap and stacks too, not just globals")
    races.add_argument("--json", action="store_true",
                       help="print the canonical race payload (same field "
                            "names as the serve `races` verb)")
    races.set_defaults(func=cmd_races)

    hunt_p = sub.add_parser(
        "hunt", help="in-situ bug hunt: detect races online, permute "
                     "schedules, minimize confirmed failures")
    hunt_p.add_argument("program")
    hunt_p.add_argument("pinball")
    hunt_p.add_argument("--budget", type=int, default=None,
                        help="max candidate schedules "
                             "(default: REPRO_HUNT_BUDGET)")
    hunt_p.add_argument("--profile-seeds", type=int, default=4,
                        help="maple profiling runs feeding iRoot "
                             "candidates")
    hunt_p.add_argument("--minimize-budget", type=int, default=64,
                        help="max re-executions per finding during "
                             "schedule minimization")
    hunt_p.add_argument("--out-dir", default=None, metavar="DIR",
                        help="save each finding's minimized pinball here")
    hunt_p.add_argument("--json", action="store_true",
                        help="print the unified analysis-report payload")
    hunt_p.set_defaults(func=cmd_hunt)

    debug = sub.add_parser("debug", help="gdb-style replay debugger")
    debug.add_argument("program")
    debug.add_argument("pinball")
    debug.add_argument("-x", "--execute", action="append", metavar="CMD",
                       help="run a debugger command (repeatable)")
    debug.add_argument("-i", "--interactive", action="store_true",
                       help="drop into the REPL after -x commands")
    debug.add_argument("--reverse", action="store_true",
                       help="enable checkpoint-based reverse debugging")
    debug.add_argument("--checkpoint-interval", type=int, default=None,
                       help="steps between reverse-debug checkpoints "
                            "(default: $REPRO_CHECKPOINT_INTERVAL or 500)")
    debug.add_argument("--slice-index", choices=SLICE_INDEXES, default=None,
                       help="slice-query engine for slicing commands")
    debug.set_defaults(func=cmd_debug)

    dis = sub.add_parser("disasm", help="disassemble a compiled program")
    dis.add_argument("program")
    dis.add_argument("--function", default=None)
    dis.set_defaults(func=cmd_disasm)

    obs = sub.add_parser(
        "obs", help="observability: summarize pipeline counters")
    obs.add_argument("action", nargs="?", default="report",
                     help="report (default): run a demo cyclic-debugging "
                          "loop and print per-layer counters")
    obs.add_argument("--json", metavar="PATH", default=None,
                     help="also export the registry snapshot as JSON")
    obs.add_argument("--no-demo", action="store_true",
                     help="report whatever is already in the registry "
                          "instead of running the demo cycle")
    obs.set_defaults(func=cmd_obs)

    serve = sub.add_parser(
        "serve", help="run the resident debug service (JSON-RPC over TCP)")
    serve.add_argument("--store", default=".repro-store", metavar="DIR",
                       help="pinball repository root (default: "
                            ".repro-store)")
    serve.add_argument("--host", default=DEFAULT_HOST)
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help="TCP port (0 = pick a free port; see "
                            "--port-file)")
    serve.add_argument("--workers", type=int, default=None,
                       help="slice-worker processes (default: "
                            "$REPRO_SERVE_WORKERS or 2)")
    serve.add_argument("--queue-limit", type=int, default=64,
                       help="max in-flight requests before backpressure "
                            "rejection")
    serve.add_argument("--timeout", type=float, default=120.0,
                       help="per-request timeout in seconds")
    serve.add_argument("--lru-entries", type=int, default=4,
                       help="resident sessions per worker")
    serve.add_argument("--lru-bytes", type=int, default=512 * 1024 * 1024,
                       help="approximate session-cache bytes per worker")
    serve.add_argument("--max-request-bytes", type=int,
                       default=8 * 1024 * 1024,
                       help="per-connection request-line size cap")
    serve.add_argument("--port-file", default=None, metavar="PATH",
                       help="write the bound port here once listening "
                            "(for scripts using --port 0)")
    serve.set_defaults(func=cmd_serve)

    router = sub.add_parser(
        "router", help="key-affinity front end over N running serve nodes")
    router.add_argument("--nodes", default=None, metavar="HOST:PORT,...",
                        help="comma-separated serve nodes (default: "
                             "$REPRO_ROUTER_NODES)")
    router.add_argument("--host", default=DEFAULT_HOST)
    router.add_argument("--port", type=int, default=0,
                        help="TCP port (default 0 = pick a free port; "
                             "see --port-file)")
    router.add_argument("--port-file", default=None, metavar="PATH",
                        help="write the bound port here once listening")
    router.add_argument("--health-interval", type=float, default=2.0,
                        help="seconds between node health probes")
    router.set_defaults(func=cmd_router)

    client = sub.add_parser(
        "client", help="talk to a running debug service")
    client.add_argument("--host", default=DEFAULT_HOST)
    client.add_argument("--port", type=int, default=DEFAULT_PORT)
    client.add_argument("--timeout", type=float, default=120.0)
    client.add_argument("--json", action="store_true",
                        help="print the raw JSON result")
    cverbs = client.add_subparsers(dest="verb", required=True)
    cverbs.add_parser("ping", help="liveness check")
    cverbs.add_parser("stats", help="server/pool/store/obs statistics")
    cverbs.add_parser("gc", help="drop untagged store entries")
    cverbs.add_parser("shutdown", help="stop the server")
    clist = cverbs.add_parser("list", help="list stored blobs")
    clist.add_argument("--kind", default=None)
    clist.add_argument("--tag", default=None)
    cput = cverbs.add_parser(
        "put", help="upload a program + pinball as one recording")
    cput.add_argument("program", help="MiniC source file")
    cput.add_argument("pinball", help="pinball file from `repro record`")
    cput.add_argument("--tag", action="append", metavar="TAG")
    crec = cverbs.add_parser(
        "record", help="record server-side from source")
    crec.add_argument("program", help="MiniC source file")
    crec.add_argument("--seed", type=int, default=None)
    crec.add_argument("--switch-prob", type=float, default=0.2)
    crec.add_argument("--inputs", help="comma-separated input() values")
    crec.add_argument("--rand-seed", type=int, default=0)
    crec.add_argument("--skip", type=int, default=0)
    crec.add_argument("--length", type=int, default=None)
    crec.add_argument("--expose", type=int, default=0, metavar="N")
    crec.add_argument("--tag", action="append", metavar="TAG")
    crep = cverbs.add_parser("replay", help="replay a stored recording")
    crep.add_argument("key")
    csl = cverbs.add_parser("slice", help="slice a stored recording")
    csl.add_argument("key")
    csl.add_argument("--var", help="slice for a global variable (sent as "
                                   "the canonical 'global_name' field)")
    csl.add_argument("--line", type=int, default=None)
    csl.add_argument("--tid", type=int, default=None,
                     help="restrict --var/--line resolution to one thread")
    csl.add_argument("--slice-pinball", action="store_true",
                     help="store the relogged slice pinball too")
    csl.add_argument("--index", choices=SLICE_INDEXES, default=None)
    clr = cverbs.add_parser("last-reads",
                            help="latest memory-reading instances")
    clr.add_argument("key")
    clr.add_argument("--count", type=int, default=10)
    crc = cverbs.add_parser("races", help="race-detect a stored recording")
    crc.add_argument("key")
    crc.add_argument("--all-memory", action="store_true")
    chunt = cverbs.add_parser(
        "hunt", help="run the bug firehose on a stored recording "
                     "(sharded over the service's worker pool)")
    chunt.add_argument("key")
    chunt.add_argument("--budget", type=int, default=None)
    chunt.add_argument("--profile-seeds", type=int, default=4)
    chunt.add_argument("--minimize-budget", type=int, default=64)
    chunt.add_argument("--workers", type=int, default=None,
                       help="evaluation lanes (default: REPRO_HUNT_WORKERS)")
    cget = cverbs.add_parser("get", help="download a stored blob")
    cget.add_argument("key")
    cget.add_argument("-o", "--output", required=True)
    ccall = cverbs.add_parser("call", help="raw JSON-RPC method call")
    ccall.add_argument("method")
    ccall.add_argument("params", nargs="?", default=None,
                       help="params as a JSON object")
    client.set_defaults(func=cmd_client)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "obs", False):
        OBS.enable()
    try:
        status = args.func(args)
    except CompileError as exc:
        print("compile error: %s" % exc, file=sys.stderr)
        return 64
    except KeyboardInterrupt:
        # Ctrl-C in `repro serve` / an interactive client is a normal way
        # to stop: exit cleanly (128 + SIGINT), no traceback.
        print("\ninterrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Reader went away (e.g. `repro client list | head`).  Redirect
        # stdout at the fd level so the interpreter's exit-time flush
        # does not raise a secondary error, and exit 128 + SIGPIPE.
        try:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        except OSError:
            pass
        return 141
    except ConnectionRefusedError:
        print("error: connection refused — is `repro serve` running "
              "there?", file=sys.stderr)
        return 69
    except (ConnectionError, TimeoutError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 69
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 66
    except RpcRemoteError as exc:
        print("server error %d: %s" % (exc.code, exc.remote_message),
              file=sys.stderr)
        return 70
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 65
    if getattr(args, "obs", False):
        if args.obs_json:
            OBS.save(args.obs_json)
            print("observability snapshot written to %s" % args.obs_json,
                  file=sys.stderr)
        else:
            print(format_report(OBS.snapshot()), end="", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
