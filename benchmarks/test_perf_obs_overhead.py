"""Overhead guard: observability *disabled* must be (nearly) free.

The obs registry's design promise is that the disabled path costs at most
one hoisted local-bool check per VM step (see
``src/repro/obs/registry.py``).  This benchmark pins that promise:

* **baseline** — a subprocess that installs a do-nothing stub in place of
  ``repro.obs`` *before* importing ``repro``, so the timed loop runs a
  build with no observability code at all (the pre-obs world);
* **candidate** — a subprocess importing the real module with
  ``REPRO_OBS`` unset (obs present but disabled — the default everyone
  runs).

Both time the untraced-replay fast path on the
``benchmarks/test_perf_engine.py`` blackscholes workload.  A stub and a
real subprocess stay resident side by side and replay in turn, the
parent alternating which goes first, so each stub/real pair of replays
runs within a few tens of milliseconds; the bar reads the median of the
per-pair candidate/baseline ratios over several such subprocess pairs.
The replay time of one process swings by a third within a second on a
shared box, so the earlier best-of-N per subprocess, best-of-M
subprocesses compared two different moments: with identical VM code on
both sides it read 0.93-1.34x.  In full mode the candidate must be
within 5% of the baseline; under ``REPRO_PERF_SMOKE=1`` (CI) the
machinery runs at reduced size but the noise-sensitive ratio bar is
skipped.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_perf_obs_overhead.py -q -s
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

from repro.config import perf_smoke

SMOKE = perf_smoke()

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__),
                                         os.pardir))

#: Workload size; stub/real subprocess pairs, and replays per pair.
if SMOKE:
    UNITS, SUBPROCESS_PAIRS, ROUNDS = 40, 1, 2
else:
    UNITS, SUBPROCESS_PAIRS, ROUNDS = 200, 3, 15

#: The allowed slowdown of "obs imported but disabled" over "no obs at
#: all" on the untraced replay fast path.
OVERHEAD_BAR = 1.05

#: Runs in a subprocess.  argv: mode ("stub"|"real"), units.  Prints one
#: JSON header line, then one replay time per "run" line on stdin.
_WORKER = r"""
import gc, json, sys, time

mode, units = sys.argv[1], int(sys.argv[2])

if mode == "stub":
    # Install a do-nothing observability module *before* repro imports
    # it: this process measures a build with no obs code at all.
    import types
    _perf_counter = time.perf_counter

    class _StubSpan:
        __slots__ = ("elapsed", "_started")
        def __init__(self):
            self.elapsed = 0.0
            self._started = 0.0
        def __enter__(self):
            self._started = _perf_counter()
            return self
        def __exit__(self, exc_type, exc, tb):
            self.elapsed = _perf_counter() - self._started

    class _StubRegistry:
        enabled = False
        def enable(self): pass
        def disable(self): pass
        def inc(self, name): pass
        def add(self, name, n): pass
        def observe(self, name, value): pass
        def counter(self, name): return self
        def histogram(self, name): return self
        def span(self, name): return _StubSpan()

    _pkg = types.ModuleType("repro.obs")
    _mod = types.ModuleType("repro.obs.registry")
    _mod.OBS = _pkg.OBS = _StubRegistry()
    _pkg.registry = _mod
    sys.modules["repro.obs"] = _pkg
    sys.modules["repro.obs.registry"] = _mod

from repro.obs.registry import OBS
from repro.pinplay import RegionSpec, record_region, replay_machine
from repro.vm import RandomScheduler
from repro.workloads import get_parsec

if mode == "real":
    # Sanity: the real registry is in play and starts disabled.
    assert type(OBS).__name__ == "ObsRegistry", type(OBS)
    assert not OBS.enabled, "REPRO_OBS leaked into the candidate run"
else:
    assert type(OBS).__name__ == "_StubRegistry", type(OBS)

program = get_parsec("blackscholes").build(units=units, nthreads=4)
pinball = record_region(program, RandomScheduler(seed=7), RegionSpec())


def replay_once():
    machine = replay_machine(pinball, program)
    started = time.perf_counter()
    machine.run(max_steps=pinball.total_steps)
    return time.perf_counter() - started


gc.collect()
gc.disable()
replay_once()                     # warm-up, untimed
print(json.dumps({"mode": mode, "steps": pinball.total_steps}), flush=True)
for line in sys.stdin:
    if line.strip() != "run":
        break
    print(repr(replay_once()), flush=True)
"""


class _Variant:
    """One resident worker subprocess."""

    def __init__(self, mode: str) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
        env.pop("REPRO_OBS", None)     # candidate must be *disabled*
        env.pop("REPRO_ENGINE", None)  # both variants on the default engine
        self.mode = mode
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _WORKER, mode, str(UNITS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=REPO_ROOT)
        self.steps = json.loads(self._line())["steps"]

    def _line(self) -> str:
        line = self.proc.stdout.readline()
        assert line, "%s variant exited (status %s)" % (
            self.mode, self.proc.poll())
        return line

    def replay(self) -> float:
        self.proc.stdin.write("run\n")
        self.proc.stdin.flush()
        return float(self._line())

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()


def test_disabled_obs_overhead_within_bar():
    stub_times, real_times = [], []
    for _ in range(SUBPROCESS_PAIRS):
        stub = real = None
        try:
            stub = _Variant("stub")
            real = _Variant("real")
            assert stub.steps == real.steps, (
                "variants executed different work")
            for index in range(ROUNDS):
                if index % 2 == 0:
                    stub_times.append(stub.replay())
                    real_times.append(real.replay())
                else:
                    real_times.append(real.replay())
                    stub_times.append(stub.replay())
        finally:
            for variant in (stub, real):
                if variant is not None:
                    variant.close()

    ratios = [r / b for r, b in zip(real_times, stub_times)]
    ratio = statistics.median(ratios)
    best_over_best = min(real_times) / min(stub_times)
    print("\nobs-disabled overhead: median of %d pair ratios %.3fx "
          "(bar %.2fx%s; best-over-best %.3fx: baseline %.4fs, "
          "candidate %.4fs)"
          % (len(ratios), ratio, OVERHEAD_BAR,
             ", skipped: smoke" if SMOKE else "", best_over_best,
             min(stub_times), min(real_times)))
    print("pair ratios: %s" % " ".join("%.3f" % r for r in ratios))

    if not SMOKE:
        assert ratio <= OVERHEAD_BAR, (
            "obs-disabled replay is %.3fx the no-obs baseline "
            "(bar %.2fx) — the disabled path is no longer near-free"
            % (ratio, OVERHEAD_BAR))
