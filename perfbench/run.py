"""The repo benchmark: one command, four workloads, every answer checked.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cycle --seed 1 --seconds 20 --trace 0

A run is split into segments, each a fresh process that sets up once and
measures for its share of ``--seconds``; the samples of all segments are
pooled, so one process's luck (address layout, interpreter warm-up) does
not decide a median, and ``setup_s`` is the median of the segments'
set-ups.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is a
separate run of the same rounds that prints the per-layer split, the
share of round time no layer span covers, and the tracing overhead, and
writes its spans to ``.perfbench/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``perfbench/README.md`` describes the workloads and what
each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("cycle", "reexec", "hunt", "served")
#: Segment processes per run.
SEGMENTS = 3
#: Wall-clock allowance, beyond ``--seconds``, for the start-up, set-up,
#: probes and checks of all segment processes of one run.
RUN_ALLOWANCE = 155


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run one segment and write its result to --result.
    parser.add_argument("--segment", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--probe", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def prepare_imports(root: str) -> None:
    """Import the program from the checkout's ``src`` with default knobs."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise SystemExit("perfbench: no src/repro under %s; run from the "
                         "repository root" % root)
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def run_segments(args, workdir: str) -> list:
    deadline = time.monotonic() + args.seconds + RUN_ALLOWANCE
    results = []
    for segment in range(SEGMENTS):
        path = os.path.join(workdir, "segment-%d.json" % segment)
        command = [
            sys.executable, os.path.abspath(__file__),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds / SEGMENTS),
            "--trace", str(args.trace), "--segment", str(segment),
            "--probe", str(int(segment == SEGMENTS - 1)),
            "--result", path]
        # Its own process group, so a timeout also stops the router and
        # node processes a served segment starts.
        proc = subprocess.Popen(command, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise SystemExit("perfbench: segment %d timed out" % segment)
        if code != 0:
            raise SystemExit("perfbench: segment %d exited with %d"
                             % (segment, code))
        with open(path) as handle:
            results.append(json.load(handle))
    return results


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    prepare_imports(root)
    from common import out_dir
    out = out_dir(root)
    workdir = tempfile.mkdtemp(prefix="work-", dir=out)
    try:
        if args.segment is not None:
            import bench
            result = bench.run_segment(args, root, workdir)
            with open(args.result, "w") as handle:
                json.dump(result, handle)
            return 0
        segments = run_segments(args, workdir)
        import bench
        return bench.emit(args, segments, out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
