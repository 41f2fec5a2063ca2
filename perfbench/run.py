"""The repo benchmark: wall time of the paper's studies, cold and warm.

Run from the root of a checkout::

    python3 perfbench/run.py --workload ge-search --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

``--trace 0`` measures the end-to-end metrics: closed loop, one client,
one serial study pass at a time.  Each cycle runs cold passes (an empty
run cache, so every point is simulated) and then replays the study from
the cache the last of them filled (warm), until ``--seconds`` are used.
``setup_s`` is the median, over separate child processes, of process
start to the end of set-up (imports, marked speeds, machine-parameter
fit).  All three times are scaled to a nominal host speed sampled during
the run (see ``hostspeed.py``): each batch of cold or warm passes by the
samples taken in its cycle's cold or warm part and at least the last
``SCALE_SAMPLES``, ``setup_s`` by all of them.  The raw times are printed too.

``--trace 1`` measures the per-layer metrics instead, whatever
``--seconds`` says: one untraced cold pass, then one traced cold pass and
one traced warm pass (see ``layers.py``).  It writes the spans and the
per-layer table to ``.perfbench/trace-<workload>-seed<seed>.json``.

Every pass is checked (see ``studies.py``); the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("ge-search", "mm-study")

#: Child processes timed per run for ``setup_s``.
SETUP_PROBES = 5
#: On a shared host, speed can flip between a fast and a slow mode every
#: few tenths of a second, and the median of a two-mode sample jumps
#: between the modes.  So each timing sample is the mean pass time of a
#: batch of consecutive passes: cold passes lasting COLD_BATCH_S in all
#: (one pass of ge-search), warm replays lasting WARM_BATCH_S.
COLD_BATCH_S = 1.0
WARM_BATCH_S = 0.1
#: Warm replay time per cycle, as a share of the cycle's cold time, so
#: that warm samples spread over the run; at least WARM_MIN_S and
#: MIN_WARM replays.
WARM_SHARE = 0.1
WARM_MIN_S = 1.0
MIN_WARM = 3
#: Each batch is scaled by the host-speed samples of its cycle's cold or
#: warm part, reaching back for at least this many (about 10 s): a few
#: dozen samples still jump between the host's modes.
SCALE_SAMPLES = 200

_clock = time.perf_counter


def _import_program() -> None:
    """Put the checkout's ``src`` on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program to measure under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up ---------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: set up as a run does, then report the clock."""
    _import_program()
    import studies

    study = studies.STUDIES[workload]
    study.setup(study.make_inputs(seed))
    print(f"ready {_clock()!r}", flush=True)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a child to the end of its set-up, per probe.

    ``perf_counter`` reads the system-wide monotonic clock, so the child's
    stamp and the parent's spawn time compare directly."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = _clock()
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise RuntimeError(f"set-up probe exited {done.returncode}")
        ready = float(done.stdout.split()[-1])
        samples.append(ready - start)
    return samples


# -- measured runs -----------------------------------------------------------------

def _timed_pass(study, inputs, cache_dir: Path,
                host=None) -> tuple[float, dict]:
    """One study pass on the run cache at ``cache_dir``; returns
    ``(seconds, output)``, less the time of ``host``'s samples in it."""
    spent = host.spent if host else 0.0
    start = _clock()
    output = study.run_pass(inputs, cache_dir)
    took = _clock() - start
    if host:
        took -= host.spent - spent
    return took, output


def _batches(run_once, budget: float, batch_s: float,
             min_runs: int = 1) -> list[float]:
    """Call ``run_once``, which returns the seconds it timed, until
    ``budget`` seconds and ``min_runs`` calls are spent.  Returns the mean
    of each batch of consecutive calls that together took ``batch_s``."""
    means: list[float] = []
    batch: list[float] = []
    start = _clock()
    runs = 0
    while runs < min_runs or _clock() - start < budget:
        batch.append(run_once())
        runs += 1
        if sum(batch) >= batch_s:
            means.append(statistics.fmean(batch))
            batch = []
    if batch:
        means.append(statistics.fmean(batch))
    return means


def measure(study, inputs, seed: int, seconds: float,
            setup: list[float]) -> dict[str, Any]:
    """The ``--trace 0`` run: end-to-end metrics.  ``setup`` holds the
    set-up samples, taken before this process set up."""
    import hostspeed
    import studies

    study.setup(inputs)
    checker = studies.Checker(study, seed, inputs)
    cold: list[float] = []
    warm: list[float] = []
    raw_cold: list[float] = []
    raw_warm: list[float] = []
    cycles: list[float] = []
    host = hostspeed.Sampler()
    work = WORK / f"run-{os.getpid()}"
    start = _clock()
    try:
        with studies.recording_probes() as probes, host.running():
            numbers = itertools.count()
            cache_dir = None

            def cold_once() -> float:
                nonlocal cache_dir
                previous = cache_dir
                cache_dir = work / f"cache-{next(numbers)}"
                probes.clear()
                took, output = _timed_pass(study, inputs, cache_dir, host)
                checker.check(output, "cold", probes)
                if previous is not None:
                    shutil.rmtree(previous, ignore_errors=True)
                return took

            def warm_once() -> float:
                took, output = _timed_pass(study, inputs, cache_dir, host)
                checker.check(output, "warm")
                return took

            def scaled(batches: list[float], mark: int) -> list[float]:
                factor = hostspeed.scale(host.since(mark, SCALE_SAMPLES))
                return [b * factor for b in batches]

            while True:
                cycle_start = _clock()
                mark = len(host.samples)
                batches = _batches(cold_once, COLD_BATCH_S, COLD_BATCH_S)
                raw_cold.extend(batches)
                cold.extend(scaled(batches, mark))
                cold_time = _clock() - cycle_start
                mark = len(host.samples)
                batches = _batches(
                    warm_once, max(WARM_MIN_S, WARM_SHARE * cold_time),
                    WARM_BATCH_S, MIN_WARM)
                raw_warm.extend(batches)
                warm.extend(scaled(batches, mark))
                cycles.append(_clock() - cycle_start)
                if _clock() - start + statistics.median(cycles) > seconds:
                    break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checker.certify()
    raw = {
        "cold_s": statistics.median(raw_cold),
        "warm_s": statistics.median(raw_warm),
        "setup_s": statistics.median(setup),
    }
    metrics = {
        "cold_s": (statistics.median(cold), "s"),
        "warm_s": (statistics.median(warm), "s"),
        "setup_s": (raw["setup_s"] * hostspeed.scale(host.samples), "s"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    print(f"{study.name} seed={seed}: {len(cold)} cold and {len(warm)} warm "
          f"batches, {len(setup)} set-ups, {len(host.samples)} host-speed "
          f"samples; failed_frac={checker.failed / checker.attempted:.3f}")
    print("  raw " + "  ".join(f"{k}={v:.6g} s" for k, v in raw.items())
          + f"  host sample median {1e3 * statistics.median(host.samples):.4g}"
          " ms")
    return _result(checker, metrics)


@contextmanager
def _traced(trace, workload: str):
    """Instrument the layers and open the pass and study spans."""
    import layers

    with layers.instrument(trace), trace.span("pass"):
        with trace.span("experiments.study", workload=workload):
            yield


def trace(study, inputs, seed: int, out_dir: Path = WORK) -> dict[str, Any]:
    """The ``--trace 1`` run: per-layer metrics and the span artifact."""
    import layers
    import studies

    workload = study.name
    setup = layers.Trace()
    with layers.instrument(setup), setup.span("setup"):
        study.setup(inputs)
    checker = studies.Checker(study, seed, inputs)
    cold, warm = layers.Trace(), layers.Trace()
    work = WORK / f"run-{os.getpid()}"
    try:
        with studies.recording_probes() as probes:
            untraced_s, output = _timed_pass(study, inputs, work / "untraced")
            checker.check(output, "cold", probes)
            cache_dir = work / "traced"
            with _traced(cold, workload):
                output = study.run_pass(inputs, cache_dir)
            checker.check(output, "traced cold")
            with _traced(warm, workload):
                output = study.run_pass(inputs, cache_dir)
            checker.check(output, "traced warm")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    checker.certify()
    metrics = layers.metrics(cold, warm, setup, untraced_s)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / f"trace-{workload}-seed{seed}.json"
    with open(artifact, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": workload,
            "seed": seed,
            "inputs": {"nodes": inputs.nodes, "target": inputs.target},
            "untraced_cold_s": untraced_s,
            "metrics": {k: v for k, (v, _unit) in metrics.items()},
            "passes": {name: layers.report(t)
                       for name, t in (("setup", setup), ("cold", cold),
                                       ("warm", warm))},
        }, fh, indent=1)
    print(f"{workload} seed={seed}: traced cold pass "
          f"{metrics['trace.pass_s'][0]:.3f} s, untraced {untraced_s:.3f} s, "
          f"coverage {metrics['trace.coverage'][0]:.3f}; spans in {artifact}")
    for row in layers.report(cold)["layers"]:
        print(f"  {row['layer']:<36} {row['self_s']:9.4f} s "
              f"{row['share']:7.1%}")
    return _result(checker, metrics)


# -- output -------------------------------------------------------------------

def _result(checker, metrics: dict[str, tuple]) -> dict[str, Any]:
    for problem in checker.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    return {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Every workload in its own process; one summary table."""
    rows = []
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        result = json.loads(done.stdout.splitlines()[-1])
        rows.append((workload, result))
    for workload, result in rows:
        metrics = "  ".join(
            f"{name}={m['value']:.6g} {m['unit']}"
            for name, m in result["metrics"].items()
        )
        frac = result["failed"] / result["attempted"]
        print(f"{workload:<10} {metrics}  failed_frac={frac:.3f} "
              f"({result['failed']}/{result['attempted']} passes)")
    return 0 if all(r["correct"] for _, r in rows) else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _import_program()
    if args.workload == "all":
        return run_all(args)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    import studies

    study = studies.STUDIES[args.workload]
    inputs = study.make_inputs(args.seed)
    if args.trace:
        result = trace(study, inputs, args.seed)
    else:
        result = measure(study, inputs, args.seed, args.seconds, setup)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
