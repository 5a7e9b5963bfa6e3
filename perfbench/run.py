"""Benchmark of the chainmix CLI pipelines, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload recover --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one fresh process on one workload (see ``workloads.py``). It sets
up in-process, runs one untimed warm-up pass (first touches of fresh memory are
slow on small VMs) and reads peak RSS, then runs timed passes until ``--seconds`` have gone by, at
least three of them. An untraced run times set-up (process start, ``import
chainmix.cli``, seeded input generation and conversion) in a fresh child process
ahead of each timed pass, at least five times, so that a burst of host load
meets few of the samples. Every command goes through ``chainmix.cli.main(argv)``
with stdout captured to a file in the work directory, and every output is
checked after its pass. The load is this one process, single-threaded and
pinned to one CPU, in a closed loop: each command starts when the previous one
has finished.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of ``tracing.py`` (medians
over traced passes) and the tracing overhead. The last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines above it are a readable report, and the full record (per-pass
samples, stdout digests, host-speed probe) goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

if __name__ == "__main__" and hasattr(os, "sched_setaffinity"):
    # One CPU for the run and its set-up children, chosen before NumPy starts
    # its BLAS threads: no migrations, no extra threads, and the load stays
    # one single-threaded process. The highest-numbered CPU is the one least
    # likely to take the machine's interrupts.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_REPEATS = 5
MIN_PASSES = 3          # timed passes of an untraced run
MIN_TRACED_PASSES = 2   # of each kind in a traced run
PROBE_ITERATIONS = 2_000_000       # at the start and the end of a run
PASS_PROBE_ITERATIONS = 200_000    # before each untraced timed pass
END_TO_END_UNITS = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*workloads.NAMES, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", type=Path, metavar="DIR",
                   help=argparse.SUPPRESS)   # child process that times set-up
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def load_program():
    """Import ``chainmix.cli`` from this checkout's ``src/``; exit 2 if absent."""
    src = ROOT / "src"
    if not (src / "chainmix" / "cli.py").is_file() or not (ROOT / "models").is_dir():
        print(f"error: no chainmix checkout around {HERE} (need src/chainmix and models/)",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import chainmix.cli

    if Path(chainmix.cli.__file__).resolve().parent != (src / "chainmix").resolve():
        print(f"error: imported chainmix from {chainmix.cli.__file__}, not {src}",
              file=sys.stderr)
        sys.exit(2)
    return chainmix.cli


def host_probe(iterations: int = PROBE_ITERATIONS) -> float:
    """Seconds for a fixed CPU-bound loop: a diagnostic of host speed only."""
    t0 = time.perf_counter()
    x = 0
    for i in range(iterations):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - t0


def time_setup(args, work: Path) -> float:
    """Wall time of a fresh process that only imports chainmix and writes the inputs."""
    target = work / "setup"
    t0 = time.perf_counter()
    # No timeout: with one, the wait polls at up to 50 ms intervals and
    # quantises the measured time.
    subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "1", "--setup-only", str(target)],
                   check=True, stdout=subprocess.DEVNULL)
    seconds = time.perf_counter() - t0
    shutil.rmtree(target)
    return seconds


class Run:
    """Passes of one workload's commands, and the checks of their outputs."""

    def __init__(self, cli, commands, work: Path):
        self.cli, self.commands, self.work = cli, commands, work
        self.attempted = 0
        self.problems: list[str] = []
        self.digests = {c.label: [] for c in commands}

    def run_command(self, cmd, tracer=None) -> tuple[int, float]:
        """``main(argv)`` with stdout and stderr captured; exit status and seconds."""
        out, err = self.work / f"{cmd.label}.out", self.work / f"{cmd.label}.err"
        span = tracer.span(f"command.{cmd.label}") if tracer else contextlib.nullcontext()
        with open(out, "w") as fo, open(err, "w") as fe, \
                contextlib.redirect_stdout(fo), contextlib.redirect_stderr(fe):
            t0 = time.perf_counter()
            with span:
                try:
                    rc = self.cli.main(list(cmd.argv))   # looked up here, so tracing sees it
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else 2
                except Exception:   # a crash fails this command; the run goes on
                    traceback.print_exc()
                    rc = -1
                fo.flush()
            seconds = time.perf_counter() - t0
        return rc, seconds

    def run_pass(self, tracer=None) -> tuple[float, dict]:
        """One pass; its wall time and each command's seconds."""
        results = {}
        t0 = time.perf_counter()
        for cmd in self.commands:
            results[cmd.label] = self.run_command(cmd, tracer)
        wall = time.perf_counter() - t0
        for cmd in self.commands:
            self.check(cmd, results[cmd.label][0])
        return wall, {label: s for label, (_, s) in results.items()}

    def check(self, cmd, rc: int) -> None:
        out = self.work / f"{cmd.label}.out"
        try:
            problems = cmd.check(rc, out)
        except Exception as exc:   # output the check cannot parse is a wrong output
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
        digest = digest.hexdigest()
        seen = self.digests[cmd.label]
        if cmd.identical and seen and digest != seen[0]:
            problems.append("stdout differs from the first pass")
        if digest not in seen:
            seen.append(digest)
        self.attempted += 1
        if problems:
            self.problems.append(f"{cmd.label} (exit {rc}): {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def measure(run: Run, seconds: float, tracer: tracing.Tracer | None, setup) -> dict:
    """Warm-up pass, then timed passes for ``seconds``; with a tracer, untraced
    and traced passes alternate. Ahead of each untraced pass, ``setup()`` (if
    given) is timed and a short host probe shows whether the host changed speed
    within the run."""
    warmup, _ = run.run_pass()
    # Peak RSS of set-up and one pass in a fresh process. Later passes raise it
    # by a further ~20 % in some runs of the same inputs and not in others
    # (lemmas: 67 or 81 MB), so a peak over the whole run does not repeat.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    plain, traced, probes, setups = [], [], [], []
    t_end = time.perf_counter() + seconds
    while True:
        if tracer and len(traced) < len(plain):
            tracer.pass_id = len(traced)
            with tracing.installed(tracer):
                traced.append(run.run_pass(tracer))
        else:
            if setup:
                setups.append(setup())
            probes.append(host_probe(PASS_PROBE_ITERATIONS))
            plain.append(run.run_pass())
        if tracer:
            done = len(traced) >= MIN_TRACED_PASSES and len(traced) == len(plain)
        else:
            done = len(plain) >= MIN_PASSES
        if done and time.perf_counter() >= t_end:
            break
    while setup and len(setups) < SETUP_REPEATS:
        setups.append(setup())
    return {"warmup": warmup, "plain": plain, "traced": traced, "probes": probes,
            "setups": setups, "peak_rss_mb": peak_rss_mb}


def medians(passes) -> dict:
    """Median and sample count of the pass wall time and of each command."""
    out = {"pipeline_s": [wall for wall, _ in passes]}
    for label in passes[0][1]:
        out[f"{label}_s"] = [commands[label] for _, commands in passes]
    return {name: {"median": statistics.median(v), "n": len(v)} for name, v in out.items()}


def report(args, run: Run, record: dict, metrics: dict, units: dict) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"timed passes {record['passes']} (+1 warm-up of {record['warmup_s']:.3f} s)")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<26} {m['median']:>14.6g} {units.get(name, 's'):<5} n={m['n']}")
    print(f"  {'ops_failed':<26} {run.failed / run.attempted:>14.6g} {'share':<5} "
          f"n={run.attempted} ({run.failed} failed)")
    for problem in run.problems:
        print(f"  FAILED {problem}")
    for label, d in record.get("trace_accounting", {}).items():
        print(f"  traced {label:<19} {d['traced_s']:>14.6g} s     untraced "
              f"{d['untraced_s']:.6g} s, difference {d['difference_s']:+.6g} s")
    for name, value in metrics.items():
        if name not in record["end_to_end"]:
            print(f"  {name:<52} {value:>14.6g} {units[name]}")
    start, end = record["host_probe_s"]
    print(f"  host probe {start:.4f} s at start, {end:.4f} s at end (diagnostic only)")


def run_workload(args) -> int:
    cli = load_program()
    if args.setup_only:
        workloads.prepare(args.workload, ROOT, args.setup_only, args.seed)
        return 0
    work = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        probe_start = host_probe()
        with tracing.installed(tracer) if tracer else contextlib.nullcontext():
            if tracer:
                tracer.pass_id = "setup"
            commands, facts = workloads.prepare(args.workload, ROOT, work, args.seed)
        run = Run(cli, commands, work)
        # A traced run reports no setup_s, so it does not time set-up.
        setup = None if tracer else functools.partial(time_setup, args, work)
        passes = measure(run, args.seconds, tracer, setup)
        probe_end = host_probe()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {}
    setup_times = passes["setups"]
    if setup_times:
        end_to_end["setup_s"] = {"median": statistics.median(setup_times), "n": len(setup_times)}
    end_to_end["peak_rss_mb"] = {"median": passes["peak_rss_mb"], "n": 1}
    end_to_end.update(medians(passes["plain"]))
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "passes": len(passes["plain"]) + len(passes["traced"]),
              "warmup_s": passes["warmup"], "end_to_end": end_to_end, "facts": facts,
              "setup_samples_s": setup_times,
              "pass_samples_s": [{"host_probe": p, "pipeline": w, **c}
                                 for p, (w, c) in zip(passes["probes"], passes["plain"])],
              "digests": run.digests, "problems": run.problems,
              "attempted": run.attempted, "failed": run.failed,
              "host_probe_s": [probe_start, probe_end]}
    units = dict(END_TO_END_UNITS)
    if tracer:
        metrics = tracing.layer_metrics(tracer, range(len(passes["traced"])))
        traced = medians(passes["traced"])
        untraced = end_to_end["pipeline_s"]["median"]
        metrics["trace.overhead_s"] = traced["pipeline_s"]["median"] - untraced
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / untraced
        units.update((name, unit) for name, (unit, _) in tracing.metric_units().items())
        record["trace_accounting"] = {
            name: {"traced_s": t["median"], "untraced_s": end_to_end[name]["median"],
                   "difference_s": t["median"] - end_to_end[name]["median"]}
            for name, t in traced.items()}
        record["layers"] = metrics
    else:
        metrics = {name: end_to_end[name]["median"] for name in END_TO_END_UNITS}

    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    report(args, run, record, metrics, units)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    status = 0
    for name in workloads.NAMES:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], timeout=600)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
