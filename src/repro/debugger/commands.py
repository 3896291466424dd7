"""gdb-style command interpreter over a :class:`DrDebugSession`.

Supported commands (a superset of what the paper's GDB extension adds)::

    break <func> | break <line> | break <func>:<line>
    delete <n> | disable <n> | enable <n> | info break
    run | continue | c | stepi [n] | si [n] | step | s
    record-on [n]                  arm reverse debugging, a checkpoint
                                    every n steps (default: the
                                    REPRO_CHECKPOINT_INTERVAL knob)
    reverse-stepi [n] | rsi [n] | reverse-step | rs
    reverse-continue | rc          back to the previous breakpoint hit
    print <var> | p <var>          (locals of the focused frame, globals,
                                    and <arr>[<const>])
    info threads | thread <tid> | backtrace | bt | where
    slice <var> [at <line>] [thread <tid>]    compute a dynamic slice
    slice-failure                             slice at the recorded symptom
    slice-info                                summary of the current slice
    slice-save <path> | slice-load <path>
    slice-pinball                             relog the current slice
    slice-replay                              switch to the slice pinball
    slice-step                                step to next slice statement
    slice-stats                               trace/index amortization stats
    restart | quit

Each ``execute`` call returns the command's textual output, so the CLI is
fully scriptable (and is scripted, heavily, by the test suite).
"""

from __future__ import annotations

import shlex
from typing import Callable, Dict, List, Optional

from repro.debugger.breakpoints import BreakpointError
from repro.debugger.navigator import SliceNavigator
from repro.debugger.session import DebuggerError, DrDebugSession
from repro.slicing.slice import DynamicSlice


class DrDebugCLI:
    """Parses and executes gdb-flavoured commands against a session."""

    def __init__(self, session: DrDebugSession) -> None:
        self.session = session
        self.done = False
        self._slice_sessions: List[DrDebugSession] = []

    # -- dispatch ----------------------------------------------------------

    def execute(self, command_line: str) -> str:
        tokens = shlex.split(command_line.strip())
        if not tokens:
            return ""
        command, args = tokens[0], tokens[1:]
        handler = self._handlers().get(command)
        if handler is None:
            return "undefined command: %r" % command
        try:
            return handler(args)
        except (DebuggerError, BreakpointError, ValueError) as exc:
            return "error: %s" % exc

    def _handlers(self) -> Dict[str, Callable[[List[str]], str]]:
        return {
            "break": self._cmd_break, "b": self._cmd_break,
            "delete": self._cmd_delete,
            "disable": lambda a: self._cmd_enable(a, False),
            "enable": lambda a: self._cmd_enable(a, True),
            "run": self._cmd_run, "r": self._cmd_run,
            "continue": self._cmd_continue, "c": self._cmd_continue,
            "stepi": self._cmd_stepi, "si": self._cmd_stepi,
            "step": self._cmd_step, "s": self._cmd_step,
            "record-on": self._cmd_record_on,
            "reverse-stepi": self._cmd_reverse_stepi,
            "rsi": self._cmd_reverse_stepi,
            "reverse-step": self._cmd_reverse_step,
            "rs": self._cmd_reverse_step,
            "reverse-continue": self._cmd_reverse_continue,
            "rc": self._cmd_reverse_continue,
            "print": self._cmd_print, "p": self._cmd_print,
            "info": self._cmd_info,
            "thread": self._cmd_thread,
            "backtrace": self._cmd_backtrace, "bt": self._cmd_backtrace,
            "where": lambda a: self.session.where(),
            "slice": self._cmd_slice,
            "slice-failure": self._cmd_slice_failure,
            "slice-info": self._cmd_slice_info,
            "slice-save": self._cmd_slice_save,
            "slice-load": self._cmd_slice_load,
            "slice-pinball": self._cmd_slice_pinball,
            "slice-replay": self._cmd_slice_replay,
            "slice-step": self._cmd_slice_step,
            "slice-stats": self._cmd_slice_stats,
            "restart": self._cmd_restart,
            "quit": self._cmd_quit, "q": self._cmd_quit,
        }

    # -- breakpoints ----------------------------------------------------------

    def _cmd_break(self, args: List[str]) -> str:
        if not args:
            return "error: break needs a location"
        spec = args[0]
        func: Optional[str] = None
        line: Optional[int] = None
        if ":" in spec:
            func, _, line_text = spec.partition(":")
            line = int(line_text)
        elif spec.isdigit():
            line = int(spec)
        else:
            func = spec
        bp = self.session.breakpoints.add(func=func, line=line)
        return bp.describe()

    def _cmd_delete(self, args: List[str]) -> str:
        self.session.breakpoints.remove(int(args[0]))
        return "deleted breakpoint %s" % args[0]

    def _cmd_enable(self, args: List[str], enabled: bool) -> str:
        self.session.breakpoints.enable(int(args[0]), enabled)
        return "%s breakpoint %s" % (
            "enabled" if enabled else "disabled", args[0])

    # -- execution ----------------------------------------------------------------

    def _cmd_run(self, args: List[str]) -> str:
        return self.session.run()

    def _cmd_continue(self, args: List[str]) -> str:
        return self.session.continue_()

    def _cmd_stepi(self, args: List[str]) -> str:
        count = int(args[0]) if args else 1
        return self.session.stepi(count)

    def _cmd_step(self, args: List[str]) -> str:
        return self.session.step()

    def _cmd_restart(self, args: List[str]) -> str:
        self.session.restart()
        return "replay restarted from region entry"

    # -- reverse execution -------------------------------------------------------

    def _cmd_record_on(self, args: List[str]) -> str:
        interval = self.session.enable_reverse_debugging(
            int(args[0]) if args else None)
        return ("reverse debugging enabled (checkpoints every %d steps); "
                "takes effect from the next run/restart" % interval)

    def _cmd_reverse_stepi(self, args: List[str]) -> str:
        count = int(args[0]) if args else 1
        return self.session.reverse_stepi(count)

    def _cmd_reverse_step(self, args: List[str]) -> str:
        return self.session.reverse_step()

    def _cmd_reverse_continue(self, args: List[str]) -> str:
        return self.session.reverse_continue()

    def _cmd_quit(self, args: List[str]) -> str:
        self.done = True
        return "quit"

    # -- inspection -------------------------------------------------------------------

    def _cmd_print(self, args: List[str]) -> str:
        if not args:
            return "error: print needs a variable"
        value = self.session.print_var(args[0])
        return "%s = %r" % (args[0], value)

    def _cmd_info(self, args: List[str]) -> str:
        topic = args[0] if args else ""
        if topic == "threads":
            return "\n".join(self.session.info_threads())
        if topic in ("break", "breakpoints"):
            table = self.session.breakpoints.all()
            if not table:
                return "no breakpoints"
            return "\n".join(bp.describe() for bp in table)
        return "error: info threads | info break"

    def _cmd_thread(self, args: List[str]) -> str:
        self.session.focus_tid = int(args[0])
        return "focused thread %d" % self.session.focus_tid

    def _cmd_backtrace(self, args: List[str]) -> str:
        return "\n".join(self.session.backtrace())

    # -- slicing ---------------------------------------------------------------------------

    def _cmd_slice(self, args: List[str]) -> str:
        if not args:
            return "error: slice <var> [at <line>] [thread <tid>]"
        name = args[0]
        line: Optional[int] = None
        tid: Optional[int] = None
        rest = args[1:]
        while rest:
            if rest[0] == "at" and len(rest) > 1:
                line = int(rest[1])
                rest = rest[2:]
            elif rest[0] == "thread" and len(rest) > 1:
                tid = int(rest[1])
                rest = rest[2:]
            else:
                return "error: bad slice arguments %r" % rest
        dslice = self.session.slice_for_variable(name, line=line, tid=tid)
        return self._summarize(dslice)

    def _cmd_slice_failure(self, args: List[str]) -> str:
        return self._summarize(self.session.slice_at_failure())

    def _cmd_slice_info(self, args: List[str]) -> str:
        if self.session.current_slice is None:
            return "no slice computed"
        navigator = SliceNavigator(
            self.session.current_slice, self.session.program,
            self.session.source)
        return navigator.render_summary()

    def _cmd_slice_save(self, args: List[str]) -> str:
        if self.session.current_slice is None:
            return "error: no slice computed"
        self.session.current_slice.save(args[0])
        return "slice saved to %s" % args[0]

    def _cmd_slice_load(self, args: List[str]) -> str:
        self.session.current_slice = DynamicSlice.load(args[0])
        return self._summarize(self.session.current_slice)

    def _cmd_slice_pinball(self, args: List[str]) -> str:
        pinball = self.session.make_slice_pinball()
        return ("slice pinball: %d of %d instructions kept (%d excluded runs)"
                % (pinball.meta["kept_instructions"],
                   pinball.meta["region_instructions"],
                   pinball.meta["excluded_runs"]))

    def _cmd_slice_replay(self, args: List[str]) -> str:
        child = self.session.replay_slice()
        self._slice_sessions.append(self.session)
        self.session = child
        return "now debugging the slice pinball; use slice-step"

    def _cmd_slice_step(self, args: List[str]) -> str:
        return self.session.slice_step()

    def _cmd_slice_stats(self, args: List[str]) -> str:
        stats = self.session.slicing_stats()
        return ("slicing: %d trace records, index=%s\n"
                "  trace %.3fs, preprocess %.3fs, ddg build %.3fs\n"
                "  %d dependence edges, memo hits/misses %d/%d"
                % (stats["trace_records"], stats["slice_index"],
                   stats["trace_time_sec"], stats["preprocess_time_sec"],
                   stats["ddg_build_time_sec"], stats["edge_count"],
                   stats["memo_hits"], stats["memo_misses"]))

    def _summarize(self, dslice: DynamicSlice) -> str:
        statements = sorted(
            "%s:%s" % (func, line)
            for func, line in dslice.source_statements() if func is not None)
        return ("slice: %d instruction instances, %d statements, threads %s\n%s"
                % (len(dslice), len(statements),
                   sorted(dslice.threads()), "\n".join(
                       "  " + stmt for stmt in statements)))
