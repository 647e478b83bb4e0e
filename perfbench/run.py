"""qstoch benchmark: CLI workloads end to end, and a traced in-process replay.

Run from the repository root:

    python3 perfbench/run.py --workload sweep-fig4 --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # every workload once, tiny sizes

--trace 0 measures end to end.  Set-up is a fresh interpreter importing
qstoch.cli, timed SETUP_REPS times after one untimed warm-up.  Then the
workload's commands run as users run them, one fresh interpreter per command
(``python -c "...main(sys.argv[1:])"``, the package taken from ./src), again
and again until the next repetition would overrun --seconds, and at least
MIN_REPS times.  Every repetition's CSVs go through the output checks and
must be byte-identical to the first.  Reported: median wall per repetition,
trace steps per second, the largest process's peak RSS, and set-up time.

Every reported time is calibrated by hostspeed.HostSpeed to a fixed
reference host speed, because a shared host's speed drifts by up to 1.5x
between and within runs; the uncalibrated medians are printed beside them
and kept in the results record.

--trace 1 runs the workload once end to end, then replays its commands in
one interpreter with QSTOCH_THREADS=1, untraced and traced (replay.py).  It
reports per-layer metrics from the spans, the tracing overhead (traced minus
untraced replay time) and the sweep's parallel efficiency, and requires the
single-worker replays to reproduce the pooled CSVs byte for byte.

The last stdout line is the JSON result; `failed` / `attempted` is the share
of command runs that exited non-zero, failed a check or changed bytes.  A
fuller record (environment, CSV sha256s, every repetition, check messages)
goes to .perfbench/results/.  --seed is passed to the CLI as its --seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from hostspeed import HostSpeed

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
HERE = Path(__file__).resolve().parent

CLI_BOOT = "import sys; from qstoch.cli import main; sys.exit(main(sys.argv[1:]))"
PROBE = ("import json, platform, sys, numpy, scipy, qstoch.cli; "
         "print(json.dumps({'qstoch': qstoch.cli.__file__, 'python': platform.python_version(), "
         "'numpy': numpy.__version__, 'scipy': scipy.__version__}))")
SETUP_REPS = 5
MIN_REPS = 2
RUN_BUDGET_S = 170.0         # hard stop for one benchmark run

END_TO_END = {"wall_s": "s", "setup_s": "s", "steps_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "circuit.self_s": "s", "circuit.share": "ratio", "circuit.run_trace.steps": "count",
    "circuit.run_trace.classical.ns_per_step": "ns",
    "circuit.run_trace.quantum.ns_per_step": "ns",
    "circuit.run_trace.bytes_per_step": "B", "circuit.calibrate_noise.s": "s",
    "tomo.self_s": "s", "tomo.share": "ratio", "tomo.simulate_counts.s": "s",
    "tomo.bootstrap.rounds": "count", "tomo.bootstrap.us_per_round": "us",
    "qmath.von_neumann_entropy.calls": "count", "qmath.self_s": "s",
    "stats.self_s": "s", "stats.block_law_check.calls": "count",
    "qmodel.self_s": "s", "process.self_s": "s", "cli.self_s": "s",
    "cli.sweep.parallel_efficiency": "ratio",
    "cli.theory_convention_mismatch.rows": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, broken import)."""


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

@dataclass
class Deadline:
    end: float

    def left(self) -> float:
        return self.end - time.perf_counter()


@dataclass
class Proc:
    code: int
    start: float
    end: float
    peak_rss_mb: float
    stderr: str

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:      # the group ended just before the deadline
        pass


def run_proc(argv: list[str], deadline: Deadline) -> Proc:
    """Run to completion; wall time and peak RSS of it and its reaped children.

    The child leads its own process group, so a run past the deadline is
    killed together with any pool workers it started.
    """
    with tempfile.TemporaryFile(dir=WORK) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(max(deadline.left(), 1.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")[-2000:]
    return Proc(proc.returncode, start, end, usage.ru_maxrss / 1024.0, stderr)


def probe_checkout(deadline: Deadline) -> dict:
    """Import qstoch.cli from ./src once (also warms the bytecode cache)."""
    if not (SRC / "qstoch" / "cli.py").is_file():
        raise BenchError(f"no qstoch sources under {SRC}")
    out = subprocess.run([sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
                         capture_output=True, text=True, timeout=max(deadline.left(), 1.0))
    if out.returncode != 0:
        raise BenchError(f"importing qstoch.cli failed:\n{out.stderr[-2000:]}")
    info = json.loads(out.stdout.strip().splitlines()[-1])
    if not Path(info["qstoch"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"qstoch imported from {info['qstoch']}, not from {SRC}")
    return info


def environment(versions: dict) -> dict:
    sha = "unknown"             # a checkout without .git has no sha to report
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {"git_sha": sha,
            "python": versions["python"], "numpy": versions["numpy"],
            "scipy": versions["scipy"], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
            "caches": caches, "QSTOCH_THREADS": os.environ.get("QSTOCH_THREADS")}


# ---------------------------------------------------------------------------
# one repetition of a workload
# ---------------------------------------------------------------------------

@dataclass
class Repetition:
    wall_s: float = 0.0
    calibrated_s: float = 0.0       # wall_s at the reference host speed
    peak_rss_mb: float = 0.0
    outputs: dict[str, bytes] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    theory_mismatches: list[str] = field(default_factory=list)

    def record(self) -> dict:
        return {"wall_s": self.wall_s, "calibrated_s": self.calibrated_s,
                "peak_rss_mb": self.peak_rss_mb,
                "sha256": {k: hashlib.sha256(v).hexdigest() for k, v in self.outputs.items()},
                "problems": self.problems}


def check_outputs(rep: Repetition, workload: workloads.Workload) -> None:
    for cmd in workload.commands:
        payload = rep.outputs.get(cmd.name)
        if payload is None:
            continue
        report = cmd.check(payload.decode(errors="replace"))
        rep.problems += [f"{cmd.name}: {p}" for p in report.problems]
        rep.theory_mismatches += [f"{cmd.name}: {m}" for m in report.theory_mismatches]


def run_repetition(workload: workloads.Workload, outdir: Path, deadline: Deadline,
                   speed: HostSpeed) -> Repetition:
    rep = Repetition()
    for cmd in workload.commands:
        out = outdir / f"{cmd.name}.csv"
        out.unlink(missing_ok=True)
        proc = run_proc([sys.executable, "-c", CLI_BOOT, *cmd.argv, "--out", str(out)], deadline)
        rep.wall_s += proc.wall_s
        rep.calibrated_s += proc.wall_s * speed.factor(proc.start, proc.end)
        rep.peak_rss_mb = max(rep.peak_rss_mb, proc.peak_rss_mb)
        if proc.code != 0:
            rep.problems.append(f"{cmd.name}: exit {proc.code}: {proc.stderr.strip()}")
            break
        rep.outputs[cmd.name] = out.read_bytes()
    check_outputs(rep, workload)
    return rep


def same_bytes(rep: Repetition, reference: Repetition, label: str) -> None:
    for name, payload in rep.outputs.items():
        if name in reference.outputs and payload != reference.outputs[name]:
            rep.problems.append(f"{name}: {label} CSV bytes differ")


# ---------------------------------------------------------------------------
# trace 0: end to end
# ---------------------------------------------------------------------------

def end_to_end(workload, seconds: float, outdir: Path, deadline: Deadline, speed: HostSpeed,
               setup_reps: int = SETUP_REPS) -> tuple[dict, list[Repetition], dict]:
    setup = [run_proc([sys.executable, "-c", "import qstoch.cli"], deadline)
             for _ in range(setup_reps)]
    # one factor for the whole phase: a single import is too short to hold
    # enough host-speed samples of its own
    setup_factor = speed.factor(setup[0].start, setup[-1].end)
    reps: list[Repetition] = []
    start = time.perf_counter()
    while True:
        rep = run_repetition(workload, outdir, deadline, speed)
        if reps:
            same_bytes(rep, reps[0], "repeat")
        reps.append(rep)
        slowest = max(r.wall_s for r in reps)
        elapsed = time.perf_counter() - start
        if len(reps) >= MIN_REPS and elapsed + slowest > seconds:
            break
        if deadline.left() < 2.0 * slowest:
            break
    wall = statistics.median(r.calibrated_s for r in reps)
    metrics = {"wall_s": wall,
               "setup_s": statistics.median(p.wall_s for p in setup) * setup_factor,
               "steps_per_s": workload.steps / wall,
               "peak_rss_mb": statistics.median(r.peak_rss_mb for r in reps)}
    extra = {"raw_wall_s": statistics.median(r.wall_s for r in reps),
             "raw_setup_s": statistics.median(p.wall_s for p in setup),
             "setup_walls": [p.wall_s for p in setup], "setup_factor": setup_factor,
             "host_unit_s": [dt for _, dt in speed.samples],
             "setup_failed": [p.stderr for p in setup if p.code != 0]}
    return metrics, reps, extra


# ---------------------------------------------------------------------------
# trace 1: per-layer metrics from the replay
# ---------------------------------------------------------------------------

def run_replay(workload, outdir: Path, trace: bool, deadline: Deadline,
               speed: HostSpeed) -> tuple[dict, Repetition]:
    tag = "traced" if trace else "untraced"
    outs = {cmd.name: outdir / f"{cmd.name}.{tag}.csv" for cmd in workload.commands}
    spec = {"src": str(SRC), "trace": trace,
            "commands": [[*cmd.argv, "--out", str(outs[cmd.name])] for cmd in workload.commands]}
    spec_path, result_path = outdir / f"replay.{tag}.json", outdir / f"result.{tag}.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    proc = run_proc([sys.executable, str(HERE / "replay.py"), str(spec_path), str(result_path)],
                    deadline)
    rep = Repetition(wall_s=proc.wall_s, peak_rss_mb=proc.peak_rss_mb)
    if proc.code != 0 or not result_path.is_file():
        rep.problems.append(f"{tag} replay: exit {proc.code}: {proc.stderr.strip()}")
        return {}, rep
    result = json.loads(result_path.read_text())
    result["host_factor"] = speed.factor(proc.start, proc.end)
    rep.calibrated_s = result["wall_s"] * result["host_factor"]
    for cmd, code in zip(workload.commands, result["codes"]):
        if code != 0:
            rep.problems.append(f"{tag} replay {cmd.name}: exit {code}")
        elif outs[cmd.name].is_file():
            rep.outputs[cmd.name] = outs[cmd.name].read_bytes()
    check_outputs(rep, workload)
    return result, rep


def worker_count(tasks: int) -> int:
    """The sweep's worker count as the cli picks it: QSTOCH_THREADS or nproc."""
    env = os.environ.get("QSTOCH_THREADS")
    workers = int(env) if env else (os.cpu_count() or 1)
    return max(1, min(workers, tasks))


def layer_metrics(traced: dict, untraced: dict, e2e: Repetition, workers: int) -> dict:
    """Per-layer metrics; every time is calibrated to the reference host speed."""
    summary = traced["trace"]
    scale = traced["host_factor"]
    traced_s = traced["wall_s"] * scale
    mods = summary["modules_self_s"]
    funcs = summary["functions"]
    root = summary["root_s"] or float("nan")
    modes = summary["run_trace"]
    steps = sum(m["steps"] for m in modes.values())
    rounds = summary["bootstrap_rounds"]

    def total(name: str) -> float:
        return scale * funcs.get(name, {}).get("total_s", 0.0)

    def self_s(module: str) -> float:
        return scale * mods.get(module, 0.0)

    def calls(name: str) -> int:
        return funcs.get(name, {}).get("calls", 0)

    def ns_per_step(mode: str) -> float:
        m = modes.get(mode)
        return 1e9 * scale * m["s"] / m["steps"] if m and m["steps"] else 0.0

    return {
        "circuit.self_s": self_s("circuit"),
        "circuit.share": mods.get("circuit", 0.0) / root,
        "circuit.run_trace.steps": steps,
        "circuit.run_trace.classical.ns_per_step": ns_per_step("classical"),
        "circuit.run_trace.quantum.ns_per_step": ns_per_step("quantum"),
        "circuit.run_trace.bytes_per_step": summary["run_trace_bytes"] / steps if steps else 0.0,
        "circuit.calibrate_noise.s": total("circuit.calibrate_noise"),
        "tomo.self_s": self_s("tomo"),
        "tomo.share": mods.get("tomo", 0.0) / root,
        "tomo.simulate_counts.s": total("tomo.simulate_counts"),
        "tomo.bootstrap.rounds": rounds,
        "tomo.bootstrap.us_per_round":
            1e6 * total("tomo.entropy_with_error") / rounds if rounds else 0.0,
        "qmath.von_neumann_entropy.calls": calls("qmath.von_neumann_entropy"),
        "qmath.self_s": self_s("qmath"),
        "stats.self_s": self_s("stats"),
        "stats.block_law_check.calls": calls("stats.block_law_check"),
        "qmodel.self_s": self_s("qmodel"),
        "process.self_s": self_s("process"),
        "cli.self_s": self_s("cli"),
        "cli.sweep.parallel_efficiency": traced_s / (workers * e2e.calibrated_s),
        "cli.theory_convention_mismatch.rows": len(e2e.theory_mismatches),
        "trace.overhead_s": traced_s - untraced["wall_s"] * untraced["host_factor"],
    }


def traced_layers(workload, outdir: Path, deadline: Deadline,
                  speed: HostSpeed) -> tuple[dict, list[Repetition], dict]:
    e2e = run_repetition(workload, outdir, deadline, speed)
    untraced, rep_u = run_replay(workload, outdir, False, deadline, speed)
    traced, rep_t = run_replay(workload, outdir, True, deadline, speed)
    same_bytes(rep_u, e2e, "untraced single-worker vs pooled")
    same_bytes(rep_t, e2e, "traced single-worker vs pooled")
    reps = [e2e, rep_u, rep_t]
    if "trace" not in traced or "wall_s" not in untraced:
        return {}, reps, {}
    workers = worker_count(workload.tasks)
    metrics = layer_metrics(traced, untraced, e2e, workers)
    extra = {"workers": workers, "replay_untraced": untraced, "replay_traced": traced}
    return metrics, reps, extra


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
            deadline: Deadline, env_record: dict) -> dict:
    workload = workloads.build(name, seed, smoke=smoke)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{name}-") as tmp:
        with HostSpeed() as speed:
            if trace:
                metrics, reps, extra = traced_layers(workload, Path(tmp), deadline, speed)
            else:
                metrics, reps, extra = end_to_end(workload, seconds, Path(tmp), deadline, speed,
                                                  setup_reps=1 if smoke else SETUP_REPS)
    units = PER_LAYER if trace else END_TO_END
    attempted = len(reps) + len(extra.get("setup_walls", []))
    failed = sum(1 for r in reps if r.problems) + len(extra.get("setup_failed", []))
    correct = failed == 0 and set(metrics) == set(units)
    mismatches = reps[0].theory_mismatches if reps else []
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "smoke": smoke, "environment": env_record,
              "commands": [list(c.argv) for c in workload.commands],
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics, "theory_convention_mismatches": mismatches,
              "repetitions": [r.record() for r in reps], **extra}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    suffix = "-smoke" if smoke else ""
    (results / f"{name}-seed{seed}-trace{int(trace)}{suffix}.json").write_text(
        json.dumps(record, indent=1, default=str))

    for r in reps:
        for problem in r.problems:
            print(f"[{name}] FAIL {problem}")
    for m in mismatches:
        print(f"[{name}] theory convention (not gated): {m}")
    if reps:
        for cmd, payload in reps[0].outputs.items():
            print(f"[{name}] sha256 {cmd}.csv {hashlib.sha256(payload).hexdigest()}")
    for key, value in metrics.items():
        print(f"[{name}] {key} = {value:.6g} {units[key]}")
    for key in ("raw_wall_s", "raw_setup_s"):
        if key in extra:
            print(f"[{name}] {key} = {extra[key]:.6g} s (uncalibrated)")
    print(f"[{name}] fail_frac = {failed / max(attempted, 1):.6g} ({failed}/{attempted} runs)")
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload runs every workload, "
                             "end to end and traced, once")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = Deadline(time.perf_counter() + RUN_BUDGET_S)
    try:
        env_record = environment(probe_checkout(deadline))
        WORK.mkdir(exist_ok=True)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("environment " + json.dumps(env_record))

    if args.workload is not None:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                         args.smoke, deadline, env_record)
    else:
        parts = {name: [run_one(name, args.seed, 0.0, trace, True, deadline, env_record)
                        for trace in (False, True)] for name in workloads.NAMES}
        flat = [p for runs in parts.values() for p in runs]
        result = {"correct": all(p["correct"] for p in flat),
                  "attempted": sum(p["attempted"] for p in flat),
                  "failed": sum(p["failed"] for p in flat),
                  "metrics": {f"{name}/{key}": value for name, runs in parts.items()
                              for p in runs for key, value in p["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
