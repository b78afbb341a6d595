"""Benchmark of the levicover CLI, run from the root of a checkout.

    python3 perfbench/run.py --workload cover-q3k4 --seed 0 --seconds 20 \
        --trace 0 [--smoke] [--out result.json]

With ``--trace 0`` each command runs as a user runs it, one subprocess at
a time (``PYTHONPATH=src python -m levicover.cli ...``), as a closed loop
with one client. Whole passes over the workload's commands repeat until
``--seconds`` of command time is measured; the end-to-end metrics are
medians over passes. With ``--trace 1`` the same commands run in-process
through ``levicover.cli.main(argv)``, once untraced and once under the
span recorder of ``tracer.py``, and the per-layer metrics come from the
traced pass. Every output is checked; a wrong exit code or output counts
in ``failed`` and never as a pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--out`` also writes the full
record: environment, exact command lines, per-pass latencies and, when
traced, every span. ``--smoke`` runs the same workloads at q = 2 for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 6
COMMAND_TIMEOUT_S = 170

# Why each workload exists, and which layer it loads, is in BENCHMARK.json.
WORKLOADS = ("cover-q3k4", "exact-q5k4", "structure-q37")


@dataclass(frozen=True)
class Scale:
    cover_q: int
    cover_k: int
    cover_delta: str
    cover_t: int
    greedy_sets: int
    exact_q: int
    exact_k: int
    exact: dict
    struct_q: int
    expansion_q: int
    expansion_samples: int


FULL = Scale(cover_q=3, cover_k=4, cover_delta="0.001", cover_t=348638,
             greedy_sets=146, exact_q=5, exact_k=4,
             exact={"measured_balanced_count": 88350,
                    "measured_max_capacity": 675,
                    "exact_cover_lower_bound": 131},
             struct_q=37, expansion_q=23, expansion_samples=1000)
SMOKE = Scale(cover_q=2, cover_k=2, cover_delta="0.1", cover_t=606,
              greedy_sets=9, exact_q=2, exact_k=2,
              exact={"measured_balanced_count": 28,
                     "measured_max_capacity": 4,
                     "exact_cover_lower_bound": 7},
              struct_q=2, expansion_q=2, expansion_samples=100)


@dataclass
class Outcome:
    rc: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class Command:
    metric: str
    argv: tuple
    # Returns a failure reason, or None; may record values in ``obs``.
    check: Callable[[Outcome, Path, dict], Optional[str]]


# ---------------------------------------------------------------- checks

def _header(q: int) -> str:
    side = q * q + q + 1
    return f"{2 * side} {side * (q + 1)} {side}"


def check_gen(path: str, q: int):
    want = _header(q)

    def check(out, work, obs):
        if out.rc != 0:
            return f"exit code {out.rc}"
        first = (work / path).read_text(encoding="utf-8").split("\n", 1)[0]
        if out.stdout.strip() != want or first != want:
            return f"header {first!r}, want {want!r}"
        return None
    return check


def check_report(names: tuple):
    def check(out, work, obs):
        if out.rc != 0:
            return f"exit code {out.rc}"
        doc = json.loads(out.stdout)
        got = tuple(c["name"] for c in doc["checks"])
        if got != names or doc["outcome"] != "pass" or not all(
                c["pass"] for c in doc["checks"]):
            return f"report {doc['outcome']} on {got}, want pass on {names}"
        return None
    return check


def _graph_adjacency(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").split("\n")
    n = int(lines[0].split()[0])
    adj = [0] * n
    for line in lines[1:]:
        if line:
            u, v = map(int, line.split())
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


def check_family(graph: str, family: str, obs_key: str,
                 t: Optional[int] = None, size: Optional[int] = None):
    """Family file has the expected t or size; sets are distinct and
    independent in the graph (checked here, not by the program)."""
    def check(out, work, obs):
        if out.rc != 0:
            return f"exit code {out.rc}"
        doc = json.loads((work / family).read_text(encoding="utf-8"))
        sets = doc["sets"]
        obs[obs_key] = len(sets)
        if t is not None and doc["t"] != t:
            return f"t = {doc['t']}, want {t}"
        if size is not None and len(sets) != size:
            return f"{len(sets)} sets, want {size}"
        adj = _graph_adjacency(work / graph)
        masks = set()
        for arr in sets:
            mask = 0
            for v in arr:
                mask |= 1 << v
            if arr != sorted(set(arr)) or any(adj[v] & mask for v in arr):
                return f"family member {arr} is not an independent set"
            masks.add(mask)
        if len(masks) != len(sets):
            return "family has repeated members"
        return None
    return check


def check_bounds(expected: dict):
    def check(out, work, obs):
        if out.rc != 0:
            return f"exit code {out.rc}"
        doc = json.loads(out.stdout)
        got = {key: doc[key] for key in expected}
        return None if got == expected else f"bounds {got}, want {expected}"
    return check


# ------------------------------------------------------------- workloads

def workload(name: str, seed: int, s: Scale) -> tuple[list, list]:
    """(set-up commands, measured commands); only cover build and the
    expansion check consume the seed."""
    if name == "cover-q3k4":
        k = str(s.cover_k)
        g = ("--in", "graph.txt", "--k", k)
        return ([Command("gen", ("gen", "--q", str(s.cover_q), "--out",
                                 "graph.txt"),
                         check_gen("graph.txt", s.cover_q))],
                [Command("cover_build_s",
                         ("cover", "build") + g + (
                             "--delta", s.cover_delta, "--seed", str(seed),
                             "--out", "family.json"),
                         check_family("graph.txt", "family.json",
                                      "family_sets", t=s.cover_t)),
                 Command("cover_verify_s",
                         ("cover", "verify") + g + ("--family",
                                                    "family.json"),
                         check_report(("coverage",))),
                 Command("cover_greedy_s",
                         ("cover", "greedy") + g + ("--out", "greedy.json"),
                         check_family("graph.txt", "greedy.json",
                                      "greedy_sets", size=s.greedy_sets)),
                 Command("cover_verify_greedy_s",
                         ("cover", "verify") + g + ("--family",
                                                    "greedy.json"),
                         check_report(("coverage",)))])
    if name == "exact-q5k4":
        return ([], [Command("bounds_exact_s",
                             ("bounds", "--q", str(s.exact_q), "--k",
                              str(s.exact_k), "--exact"),
                             check_bounds(s.exact))])
    if name == "structure-q37":
        return ([], [
            Command("gen_s", ("gen", "--q", str(s.struct_q), "--out",
                              "graph.txt"),
                    check_gen("graph.txt", s.struct_q)),
            Command("verify_structure_s",
                    ("verify", "--in", "graph.txt", "--checks",
                     "levi-props,c4free,degeneracy"),
                    check_report(("levi-props", "c4free", "degeneracy"))),
            Command("verify_expansion_s",
                    ("verify", "--q", str(s.expansion_q), "--checks",
                     "expansion", "--samples", str(s.expansion_samples),
                     "--seed", str(seed)),
                    check_report(("expansion",)))])
    raise ValueError(f"unknown workload {name!r}")


# Every measured command of every workload; each has a "cli.<name>"
# per-layer latency, zero on the workloads that do not run it.
CLI_COMMANDS = tuple(c.metric for name in WORKLOADS
                     for c in workload(name, 0, FULL)[1])


# ------------------------------------------------------------- execution

class Runner:
    """Runs commands and counts every attempt and every wrong output."""

    def __init__(self, work: Path):
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures = []
        self.peak_rss_kb = 0

    def judge(self, cmd: Command, out: Outcome, obs: dict):
        self.attempted += 1
        try:
            reason = cmd.check(out, self.work, obs)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {exc!r}"
        if reason is not None:
            self.failures.append({"command": " ".join(cmd.argv),
                                  "reason": reason,
                                  "stderr": out.stderr[-500:]})

    def spawn(self, argv: list) -> tuple[float, Outcome]:
        """Time one subprocess from launch to reap; ``os.wait4`` gives its
        peak RSS."""
        with open(self.work / "stdout.txt", "wb") as fo, \
                open(self.work / "stderr.txt", "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env,
                                    stdout=fo, stderr=fe)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return elapsed, Outcome(
            proc.returncode,
            (self.work / "stdout.txt").read_text(errors="replace"),
            (self.work / "stderr.txt").read_text(errors="replace"))

    def cli(self, cmd: Command, obs: dict) -> float:
        elapsed, out = self.spawn(
            [sys.executable, "-m", "levicover.cli", *cmd.argv])
        self.judge(cmd, out, obs)
        return elapsed

    def setup(self, setup_cmds: list) -> float:
        """One set-up: a fresh interpreter importing the CLI, then the
        workload's input generation."""
        t0 = time.perf_counter()
        self.spawn([sys.executable, "-c", "import levicover.cli"])
        for cmd in setup_cmds:
            self.cli(cmd, {})
        return time.perf_counter() - t0


def command_line(argv: tuple) -> str:
    return "PYTHONPATH=src python -m levicover.cli " + " ".join(argv)


def run_untraced(runner: Runner, setup_cmds, cmds, seconds):
    # Half the set-ups run before the passes and half after, so their
    # median spans the machine's state over the whole run, as wall_s does.
    setups = [runner.setup(setup_cmds) for _ in range(SETUP_REPEATS // 2)]
    passes = []
    measured = 0.0
    while not passes or measured < seconds:
        obs = {}
        lat = {c.metric: runner.cli(c, obs) for c in cmds}
        measured += sum(lat.values())
        passes.append({"latency_s": lat, **obs})
    setups += [runner.setup(setup_cmds) for _ in range(SETUP_REPEATS // 2)]
    metrics = {
        "wall_s": statistics.median(sum(p["latency_s"].values())
                                    for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": runner.peak_rss_kb / 1024,
    }
    return metrics, {"setup_s": setups, "passes": passes}


def run_inprocess(runner: Runner, main, cmds, tracer=None) -> dict:
    """One pass through ``levicover.cli.main(argv)`` in this process."""
    lat = {}
    cwd = os.getcwd()
    os.chdir(runner.work)
    try:
        for i, cmd in enumerate(cmds):
            out, err = io.StringIO(), io.StringIO()
            run = (tracer.run(i, "cli") if tracer
                   else contextlib.nullcontext())
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    with run:
                        rc = main(list(cmd.argv))
                except Exception as exc:  # counted as a failed command
                    rc = -1
                    err.write(repr(exc))
                lat[cmd.metric] = time.perf_counter() - t0
            runner.judge(cmd, Outcome(rc, out.getvalue(), err.getvalue()),
                         {})
    finally:
        os.chdir(cwd)
    return lat


def run_traced(runner: Runner, setup_cmds, cmds, seconds):
    from tracer import Tracer

    sys.path.insert(0, str(SRC))
    modules = {name: importlib.import_module(f"levicover.{name}")
               for name in ("graphs", "levi", "independence", "covering",
                            "cli")}
    runner.setup(setup_cmds)
    plain, traced, layer = [], [], []
    tracer = None
    while not traced or sum(plain) + sum(traced) < seconds:
        lat = run_inprocess(runner, modules["cli"].main, cmds)
        plain.append(sum(lat.values()))
        tracer = Tracer()
        with tracer.installed(modules):
            traced_lat = run_inprocess(runner, modules["cli"].main, cmds,
                                       tracer)
        traced.append(sum(traced_lat.values()))
        # Layer self times must add up to each command's traced time; the
        # only slack is the few statements between the clock and the span.
        totals = tracer.self_s_by_run()
        for i, cmd in enumerate(cmds):
            gap = totals.get(i, 0.0) - traced_lat[cmd.metric]
            if abs(gap) > 1e-3 * max(1.0, traced_lat[cmd.metric]):
                runner.failures.append({
                    "command": "trace " + " ".join(cmd.argv),
                    "reason": f"self times miss wall by {gap:.6f} s"})
        m = tracer.layer_metrics()
        for metric in CLI_COMMANDS:
            m[f"cli.{metric}"] = lat.get(metric, 0.0)
        layer.append(m)
    # median_low keeps the counters exact integers.
    metrics = {key: statistics.median_low(p[key] for p in layer)
               for key in layer[0]}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    return metrics, {"untraced_wall_s": plain, "traced_wall_s": traced,
                     "spans": tracer.spans()}


# ------------------------------------------------------------- reporting

def environment() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="same workloads at q = 2, for the benchmark's tests")
    ap.add_argument("--out", help="write the full result record here")
    args = ap.parse_args(argv)
    if not (SRC / "levicover" / "cli.py").is_file():
        print(f"error: no levicover sources under {SRC}", file=sys.stderr)
        return 2

    setup_cmds, cmds = workload(args.workload, args.seed,
                                SMOKE if args.smoke else FULL)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(work)
    try:
        if args.trace:
            metrics, detail = run_traced(runner, setup_cmds, cmds,
                                         args.seconds)
        else:
            metrics, detail = run_untraced(runner, setup_cmds, cmds,
                                           args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}
    result = {"correct": not runner.failures,
              "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    env = environment()
    print("env: " + json.dumps(env))
    for failure in runner.failures:
        print(f"FAILED {failure['command']}: {failure['reason']}")
    for p in detail.get("passes", []):
        print("pass: " + "  ".join(f"{k}={v:.4f}"
                                   for k, v in p["latency_s"].items())
              + "".join(f"  {k}={v}" for k, v in p.items()
                        if k != "latency_s"))
    for name, m in result["metrics"].items():
        value = m["value"]
        print(f"{name} = {value:.6g} {m['unit']}" if isinstance(value, float)
              else f"{name} = {value} {m['unit']}")
    if args.out:
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "smoke": args.smoke, "env": env,
                  "commands": [command_line(c.argv)
                               for c in setup_cmds + cmds],
                  "failures": runner.failures, **detail, **result}
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
