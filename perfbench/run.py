"""The collab-avg benchmark: drive the CLI as a user does and time it.

usage: python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1] [--results DIR]

Run from the root of a checkout; the program is imported from ``src/``.
NAME is one of mc_suite, mc_long, mc_many_trials, closed_form, or ``all``
to run the four in turn. A pass runs each command of the workload once,
each in a fresh child process (``perfbench/launch.py``, which runs
``collab_avg`` as ``python -m collab_avg`` does). Passes repeat, one after
another (a closed loop with one client), until ``--seconds`` have passed
and at least ``MIN_PASSES`` ran; extra set-up-only children bring the
set-up samples to ``MIN_SETUPS``.

End-to-end metrics (``--trace 0``, tracing off), each a median over its
samples:

* ``setup_s``: child start through ``import collab_avg`` and
  ``load_run_config``, per child process.
* ``run_s``: wall time of a pass after each command's set-up, through the
  child's exit.
* ``rows_per_s``: output rows (CSV and report lines) of a pass / run_s.
* ``peak_rss_mb``: the largest child ``ru_maxrss`` of a pass.

``--trace 1`` alternates untraced and traced passes and reports per-layer
metrics from the spans the traced children record at layer boundaries
(self time = span minus its child spans), plus ``trace.overhead_frac``,
traced over untraced run_s minus one.

Every command's output is checked; a failed check or a non-zero exit
counts in ``failed`` and is never retried. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A record of the run (machine, versions, seed, every sample)
goes to ``--results`` (default ``perfbench/out/results``) for
``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from launch import BOUNDARIES
from workloads import FAMILIES, CheckError, Command, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
LAUNCH = BENCH / "launch.py"

#: Workloads and metrics, with their units and bounds.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(workload["name"] for workload in SPEC["workloads"])
WHY = {workload["name"]: workload["why"] for workload in SPEC["workloads"]}
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
MIN_SETUPS = 10
#: No child may outlive this many seconds after the run starts.
HARD_LIMIT_S = 170.0

# Span names: the command functions, then every wrapped boundary. Their
# self times fall after set-up, in a pass's run_s.
RUN_LAYERS = ("cli", *dict.fromkeys(name for name, _, _, _ in BOUNDARIES))


@dataclass
class Child:
    """One child process: its timings, its record and whether it failed."""

    command: Command
    mode: str
    setup_s: float = 0.0
    run_s: float = 0.0
    exit_s: float = 0.0
    rss_mb: float = 0.0
    record: dict = field(default_factory=dict)
    rows: int = 0
    bytes_out: int = 0
    error: str = ""


@dataclass
class Pass:
    traced: bool
    children: list[Child]

    @property
    def failed(self) -> bool:
        return any(child.error for child in self.children)

    @property
    def run_s(self) -> float:
        return sum(child.run_s for child in self.children)

    @property
    def rows(self) -> int:
        return sum(child.rows for child in self.children)


class Runner:
    """Runs the children of one benchmark run and checks what they write."""

    def __init__(self, workload: Workload, work: Path, deadline: float):
        self.workload = workload
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.scenarios: dict[str, Path] = {}
        for command in workload.commands:
            if command.scenario is not None:
                path = work / f"{command.name}.yaml"
                path.write_text(command.scenario, encoding="utf-8")
                self.scenarios[command.name] = path
        self.children = 0
        self.digests: dict[str, str] = {}
        self.checked: set[str] = set()

    def launch(self, command: Command, mode: str, pass_id: int = -1) -> Child:
        index = self.children
        self.children += 1
        record_path = self.work / f"child{index}.json"
        out = self.work / f"child{index}.out"
        stdout_path = self.work / f"child{index}.stdout"
        stderr_path = self.work / f"child{index}.stderr"
        args = list(command.args)
        if command.name in self.scenarios:
            args += ["--scenario", str(self.scenarios[command.name])]
        args += ["--out", str(out)]
        argv = [sys.executable, str(LAUNCH), str(record_path), str(pass_id), mode, "--", *args]
        child = Child(command, mode)
        with open(stdout_path, "wb") as stdout, open(stderr_path, "wb") as stderr:
            started = time.monotonic()
            process = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=stdout, stderr=stderr)
            watchdog = threading.Timer(max(1.0, self.deadline - started), process.kill)
            watchdog.start()
            status = None
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                watchdog.cancel()
                if status is None:  # interrupted: stop the child before leaving
                    process.kill()
                    process.wait()
            ended = time.monotonic()
        process.returncode = os.waitstatus_to_exitcode(status)
        child.rss_mb = usage.ru_maxrss / 1024.0
        stderr_tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
        try:
            child.record = json.loads(record_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            child.error = f"exit {process.returncode}, no record: {stderr_tail}"
            return child
        record = child.record
        setup_end = record.get("t_setup_end", record["t_import_end"])
        child.setup_s = setup_end - started
        child.run_s = ended - setup_end
        child.exit_s = ended - record["t_main_end"]
        if Path(record["package"]).resolve().parent.parent != SRC.resolve():
            child.error = f"imported collab_avg from {record['package']}, not {SRC}"
        elif process.returncode != 0:
            last = out.read_text(encoding="utf-8").splitlines()[-1:] if out.exists() else []
            child.error = f"exit {process.returncode}: {last or stderr_tail}"
        elif mode != "setup":
            self._check(child, out, stdout_path.read_text(encoding="utf-8"))
        out.unlink(missing_ok=True)
        return child

    def _check(self, child: Child, out: Path, stdout: str) -> None:
        command = child.command
        if not out.is_file():
            child.error = f"{command.name} wrote no --out file"
            return
        data = out.read_bytes()
        child.bytes_out = len(data) + len(stdout.encode("utf-8"))
        child.rows = data.count(b"\n") + stdout.count("\n")
        digest = hashlib.sha256(data).hexdigest()
        if child.rows != command.rows:
            child.error = f"{command.name} wrote {child.rows} rows, expected {command.rows}"
        elif digest != self.digests.setdefault(command.name, digest):
            child.error = f"{command.name} output differs from the first pass of this seed"
        elif command.name not in self.checked:  # later passes wrote the same bytes
            try:
                command.check(out, stdout)
            except (CheckError, ValueError, IndexError) as exc:
                child.error = f"{command.name}: {exc}"
                return
            self.checked.add(command.name)

    def run_pass(self, pass_id: int, traced: bool) -> Pass:
        mode = "trace" if traced else "plain"
        return Pass(traced, [self.launch(command, mode, pass_id) for command in self.workload.commands])

    def setup_probe(self, index: int) -> Child:
        commands = self.workload.commands
        return self.launch(commands[index % len(commands)], "setup")


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _metric(samples: list[float], unit: str) -> dict:
    value = _median(samples)
    if unit in ("count", "B"):
        value = int(value)  # counts repeat exactly; a mismatch is reported separately
    return {"value": value, "unit": unit, "n": len(samples), "samples": samples}


def _self_times(children: list[Child]) -> dict[str, float]:
    """Self time per span name: duration minus the duration of its direct children."""
    self_s: dict[str, float] = defaultdict(float)
    for child in children:
        spans = child.record.get("spans", [])
        covered = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[3] >= 0:
                covered[span[3]] += span[2] - span[1]
        for index, span in enumerate(spans):
            if span is not None:
                self_s[span[0]] += span[2] - span[1] - covered[index]
    return self_s


def _layer_pass(traced: Pass) -> dict[str, float]:
    """Per-layer values of one traced pass: self times, counts and rates."""
    self_s = _self_times(traced.children)
    counts: dict[str, int] = defaultdict(int)
    calls: dict[str, int] = defaultdict(int)
    for child in traced.children:
        for name, value in child.record.get("counts", {}).items():
            counts[name] += value
        for name, value in child.record.get("calls", {}).items():
            calls[name] += value
    run_s = traced.run_s
    exit_s = sum(child.exit_s for child in traced.children)
    values: dict[str, float] = {f"{layer}.self_s": self_s.get(layer, 0.0) for layer in RUN_LAYERS}
    values["process.exit_s"] = exit_s

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    draws = counts.get("philox", 0)
    values["philox.calls"] = calls.get("philox", 0)
    values["philox.draws"] = draws
    values["philox.draws_per_s"] = rate(draws, self_s.get("philox", 0.0))
    useful = 0
    for family in FAMILIES:
        name = f"transform.{family}"
        values[f"{name}.draws"] = counts.get(name, 0)
        values[f"{name}.draws_per_s"] = rate(counts.get(name, 0), self_s.get(name, 0.0))
        if family != "pointmass":
            useful += counts.get(name, 0)
    values["transform.useful_frac"] = useful / draws if draws else 1.0
    trials = counts.get("montecarlo.trial_means", 0)
    values["montecarlo.trials"] = trials
    for stage in ("trial_means", "curve"):
        values[f"montecarlo.{stage}.trials_per_s"] = rate(trials, self_s.get(f"montecarlo.{stage}", 0.0))
    values["theory.calls"] = calls.get("theory", 0)
    values["cli.rows_out"] = traced.rows
    values["cli.bytes_out"] = sum(child.bytes_out for child in traced.children)
    attributed = sum(self_s.get(layer, 0.0) for layer in RUN_LAYERS) + exit_s
    values["trace.unattributed_frac"] = (run_s - attributed) / run_s
    return values


# Counts that should repeat exactly and equal the values derived from the inputs.
EXACT_COUNTS = ("philox.draws", *(f"transform.{f}.draws" for f in FAMILIES), "montecarlo.trials", "cli.rows_out")


def end_to_end(workload: Workload, passes: list[Pass], setups: list[Child]) -> dict[str, dict]:
    good = [p for p in passes if not p.failed]
    setup_samples = [c.setup_s for c in setups if not c.error]
    setup_samples += [c.setup_s for p in good for c in p.children]
    metrics = {
        "setup_s": _metric(setup_samples, "s"),
        "run_s": _metric([p.run_s for p in good], "s"),
        "rows_per_s": _metric([p.rows / p.run_s for p in good], "1/s"),
        "peak_rss_mb": _metric([max(c.rss_mb for c in p.children) for p in good], "MB"),
    }
    if workload.draws:
        metrics["draws_per_s"] = _metric([workload.draws / p.run_s for p in good], "1/s")
    return metrics


def per_layer(passes: list[Pass]) -> tuple[dict[str, dict], list[str]]:
    """(every per-layer value, problems found)."""
    plain = [p for p in passes if not p.traced and not p.failed]
    traced = [p for p in passes if p.traced and not p.failed]
    problems: list[str] = []
    per_pass = [_layer_pass(p) for p in traced]
    everything: dict[str, dict] = {}
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    for name in sorted({key for values in per_pass for key in values}):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        everything[name] = _metric([values[name] for values in per_pass], unit)
    children = [c for p in traced for c in p.children]
    everything["setup.import_s"] = _metric(
        [c.record["t_import_end"] - c.record["t_import_start"] for c in children], "s")
    everything["setup.parse_s"] = _metric(
        [c.record["t_setup_end"] - c.record["t_parse_start"] for c in children if "t_setup_end" in c.record], "s")
    plain_run = _median([p.run_s for p in plain])
    traced_run = _median([p.run_s for p in traced])
    overhead = traced_run / plain_run - 1.0 if plain_run and traced_run else 0.0
    everything["trace.overhead_frac"] = {"value": overhead, "unit": "frac", "n": min(len(plain), len(traced))}
    for name in EXACT_COUNTS:
        samples = everything.get(name, {}).get("samples", [])
        if len(set(samples)) > 1:
            problems.append(f"{name} differs between traced passes: {sorted(set(samples))}")
    absent = sorted({a for p in traced for c in p.children for a in c.record.get("absent", [])})
    uncounted = sorted({a for p in traced for c in p.children for a in c.record.get("uncounted", [])})
    problems += [f"boundary absent: {name}" for name in absent]
    problems += [f"count unavailable: {name}" for name in uncounted]
    return everything, problems


def run_record(args: argparse.Namespace) -> dict:
    """Where and with what the run was made."""

    def read(path: str) -> str:
        try:
            return Path(path).read_text(encoding="utf-8").strip()
        except OSError:
            return ""

    model = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = read(f"{base}/size")
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None

    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started_unix": time.time(),
    }


def _fmt(metric: dict) -> str:
    if metric["unit"] in ("count", "B"):
        return f"{metric['value']} {metric['unit']}  (n={metric['n']})"
    samples = metric.get("samples", [])
    q1, q3 = _quartiles(samples)
    spread = f"  q1 {q1:.6g}  q3 {q3:.6g}" if len(samples) > 1 else ""
    return f"{metric['value']:.6g} {metric['unit']}  (median, n={metric['n']}){spread}"


def run_workload(name: str, args: argparse.Namespace, record: dict) -> dict:
    workload = workloads.build(name, args.seed)
    started = time.monotonic()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, work, started + HARD_LIMIT_S)
    try:
        warmup = runner.setup_probe(0)  # fills the bytecode and page caches
        passes: list[Pass] = []
        setups: list[Child] = []
        deadline = started + args.seconds
        while not passes or not passes[-1].failed:  # a wrong answer is not measured again
            plain = sum(1 for p in passes if not p.traced)
            traced = len(passes) - plain
            enough = min(plain, traced) >= MIN_TRACED_PASSES if args.trace else plain >= MIN_PASSES
            if enough and time.monotonic() >= deadline:
                break
            # A traced run alternates untraced and traced passes.
            passes.append(runner.run_pass(len(passes), traced=bool(args.trace) and plain > traced))
        setup_samples = sum(len(p.children) for p in passes if not p.traced)
        while not args.trace and not passes[-1].failed and setup_samples + len(setups) < MIN_SETUPS:
            setups.append(runner.setup_probe(len(setups)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    children = [warmup, *setups, *(c for p in passes for c in p.children)]
    errors = [f"{c.command.name} ({c.mode}): {c.error}" for c in children if c.error]
    e2e = end_to_end(workload, [p for p in passes if not p.traced], setups)
    layers, problems = per_layer(passes) if args.trace else ({}, [])
    for count in EXACT_COUNTS:
        derived = workload.rows if count == "cli.rows_out" else workload.counts.get(count, 0)
        measured = layers.get(count, {}).get("value")
        if measured is not None and measured != derived:
            problems.append(f"{count} = {measured}, derived from the inputs: {derived}")
    attempted = len(children)
    failed = len(errors)

    print(f"workload {name}: {WHY[name]}")
    print(f"  seed {args.seed}, {len(passes)} passes ({sum(p.traced for p in passes)} traced), "
          f"{attempted} commands attempted, {failed} failed in {time.monotonic() - started:.1f} s")
    print(f"  {'failed_frac':<40} {failed / attempted:.6g}  ({failed}/{attempted})")
    for metric, value in e2e.items():
        print(f"  {metric:<40} {_fmt(value)}")
    for metric, value in layers.items():
        note = "  (computed from output sizes)" if metric == "cli.bytes_out" else ""
        print(f"  {metric:<40} {_fmt(value)}{note}")
    for line in errors:
        print(f"  ! {line}", file=sys.stderr)
    # Counts and boundaries describe the program, not its answers: a change
    # that draws fewer uniforms or renames a function is flagged, not failed.
    for line in problems:
        print(f"  ? {line}", file=sys.stderr)

    measured = layers if args.trace else e2e
    reported = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    for metric in reported:
        if metric["name"] not in measured:
            print(f"  ? {metric['name']} was not measured; reported as 0", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], {}).get("value", 0.0), "unit": m["unit"]}
            for m in reported
        },
    }
    results = Path(args.results)
    results.mkdir(parents=True, exist_ok=True)
    stem = results / f"{name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    stem.with_suffix(".json").write_text(json.dumps({
        "workload": name, "run": record, **result, "errors": errors, "problems": problems,
        "end_to_end": e2e, "per_layer": layers, "derived_counts": workload.counts,
    }, indent=1), encoding="utf-8")
    if args.trace:  # parents index the span list of the same child
        spans = [{"command": c.command.name, "spans": c.record.get("spans", [])}
                 for p in passes if p.traced for c in p.children]
        stem.with_suffix(".spans.json").write_text(json.dumps(spans), encoding="utf-8")
    return result


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    parser = argparse.ArgumentParser(description="collab-avg benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=str(OUT / "results"))
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (SRC / "collab_avg" / "__main__.py").is_file():
        print(f"error: no collab_avg sources under {SRC}", file=sys.stderr)
        return 2
    record = run_record(args)
    print("run: " + json.dumps(record))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args, record) for name in names]
    for name, result in zip(names, results):
        print(json.dumps(result) if len(names) == 1 else f"{name}: {json.dumps(result)}")
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
