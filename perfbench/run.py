"""ggchain benchmark: end-to-end and per-layer measurements of the CLI.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout; the program is imported from ``src``.  A
workload (see ``workloads.py``) is a fixed list of ``python -m ggchain``
commands, run one after another as fresh processes: a closed loop with one
client.  ``GGCHAIN_THREADS=1`` is pinned for every process.

Set-up: one warm-up import, then ``SETUP_LAUNCHES`` timed launches of
``python -c "import ggchain.cli"``; ``setup_s`` is their median.  Then whole
passes over the commands run until ``--seconds`` of pass time and at least
``MIN_PASSES`` passes have been spent.  ``wall_s`` is the wall time of a
typical pass: the sum over commands of each command's median time across
passes.  ``peak_rss_mb`` is the median over passes of the highest child
``ru_maxrss``.  After the passes, outside the timed region, every output is
checked by ``check.py``.

With ``--trace 1`` the run also makes one traced pass, each command in a
fresh ``traced.py`` process that records spans around the package's layers,
and one allocation pass under ``tracemalloc``, and reports the per-layer
metrics instead of the end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of the run, with the
environment, every pass and the spans, is written to
``.perfbench_out/<workload>-seed<N>-trace<T>.json``.

This process imports no numpy: a child starts with its parent's RSS
high-water mark, so a large runner would inflate every child's ``ru_maxrss``.
"""

import argparse
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
from importlib import metadata

import spans
from workloads import WORKLOADS, ops

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath("src")
OUT = os.path.abspath(".perfbench_out")
WORK = os.path.join(OUT, "work")
SETUP_LAUNCHES = 7
MIN_PASSES = 3
IMPORTTIME_LAUNCHES = 3
OP_TIMEOUT_S = 60.0
LAYERS = ("import", "cli", "chains", "circulant", "oracle", "analysis")

# One BLAS thread everywhere.  The BLAS variables are dropped so that
# GGCHAIN_THREADS alone decides.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ.pop(_var, None)
os.environ["GGCHAIN_THREADS"] = "1"
ENV = dict(os.environ, PYTHONPATH=SRC)


@dataclass
class Tally:
    """Verdicts (as printed by ``check.py``) of the commands of one pass."""

    attempted: int = 0
    failed: int = 0
    violations: int = 0  # outputs that break a documented contract
    nonpositive: int = 0
    false_alarms: int = 0

    def add(self, verdict: dict) -> None:
        self.attempted += 1
        self.failed += verdict["failure"] is not None
        self.violations += verdict["nonpositive"] > 0 or verdict["false_alarm"]
        self.nonpositive += verdict["nonpositive"]
        self.false_alarms += verdict["false_alarm"]


def launch(argv: list[str], stdout_path: str, stderr_path: str) -> dict:
    """Run one child to completion; wall time, exit code and peak RSS."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "exit": proc.returncode, "rss_kb": usage.ru_maxrss,
            "timed_out": wall >= OP_TIMEOUT_S}


def run_pass(op_list, tag: str, mode: str | None = None) -> dict:
    """One pass over the commands; mode None is untraced, else a traced.py mode."""
    results = []
    start = time.perf_counter()
    for pos, op in enumerate(op_list):
        base = os.path.join(WORK, f"{tag}-{pos}")
        if mode is None:
            argv = [sys.executable, "-m", "ggchain", *op.argv]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), base + ".spans", mode, *op.argv]
        results.append(launch(argv, base + ".out", base + ".err") | {"base": base})
    wall = time.perf_counter() - start
    return {"wall_s": wall, "peak_rss_kb": max(r["rss_kb"] for r in results), "ops": results}


def check_passes(op_list, passes: list[dict], failures: list) -> list[Tally]:
    """Check every output in one ``check.py`` process; one tally per pass.

    Span records left by traced commands are moved into their results, and
    the output files are deleted.
    """
    manifest = [
        {"op": [op.command, op.params, op.fmt], "exit": res["exit"],
         "out": res["base"] + ".out", "err": res["base"] + ".err"}
        for p in passes for op, res in zip(op_list, p["ops"])
    ]
    manifest_path = os.path.join(WORK, "manifest.json")
    with open(manifest_path, "w") as f:
        json.dump(manifest, f)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "check.py"), manifest_path],
                          env=ENV, capture_output=True, text=True, timeout=OP_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"checker failed:\n{proc.stderr}")
    verdicts = iter(json.loads(proc.stdout))
    tallies = []
    for p in passes:
        tally = Tally()
        for op, res in zip(op_list, p["ops"]):
            verdict = next(verdicts)
            if res["timed_out"]:
                verdict["failure"] = f"timed out after {OP_TIMEOUT_S:g} s"
            tally.add(verdict)
            if verdict["failure"]:
                failures.append({"argv": op.argv, "failure": verdict["failure"]})
                print(f"FAILED ggchain {' '.join(op.argv)}: {verdict['failure']}", file=sys.stderr)
            base = res.pop("base")
            res["stdout_bytes"] = os.path.getsize(base + ".out")
            if os.path.exists(base + ".spans"):
                with open(base + ".spans") as f:
                    res["trace"] = json.load(f)
                res["trace"]["counters"]["cli.bytes_out"] = res["stdout_bytes"]
            for suffix in (".out", ".err", ".spans"):
                if os.path.exists(base + suffix):
                    os.remove(base + suffix)
        tallies.append(tally)
    return tallies


def setup_times() -> list[float]:
    """Warm-up import (fills bytecode caches), then timed fresh imports."""
    probe = [sys.executable, "-c", "import ggchain.cli"]
    sink = os.path.join(WORK, "setup")
    times = []
    for i in range(SETUP_LAUNCHES + 1):
        res = launch(probe, sink + ".out", sink + ".err")
        if res["exit"] != 0:
            with open(sink + ".err") as f:
                raise SystemExit(f"cannot import ggchain.cli:\n{f.read()}")
        if i:
            times.append(res["wall_s"])
    return times


def import_times() -> tuple[float, float]:
    """Median cumulative import time of ggchain and of scipy, from -X importtime."""
    ggchain_s, scipy_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ggchain.cli"],
                              env=ENV, capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        g, s = parse_importtime(proc.stderr)
        ggchain_s.append(g)
        scipy_s.append(s)
    return statistics.median(ggchain_s), statistics.median(scipy_s)


def parse_importtime(text: str) -> tuple[float, float]:
    """(ggchain, scipy) cumulative seconds from ``-X importtime`` output.

    Lines come children first, each indented two spaces per level below its
    parent.  ggchain is every top-level ``ggchain*`` entry; scipy is every
    ``scipy*`` entry whose parent is not itself a scipy module.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    ggchain_us = scipy_us = 0
    stack = []  # ancestors of the current entry, walking parents first
    for depth, cumulative, name in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else ""
        if depth == 0 and name.split(".")[0] == "ggchain":
            ggchain_us += cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
        stack.append((depth, name))
    return ggchain_us / 1e6, scipy_us / 1e6


def environment(workload: str, seed: int) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "unknown"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        # the ceiling keeps git from reporting an enclosing repository
        git_env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                env=git_env, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "workload": workload, "seed": seed, "why": WORKLOADS[workload].why,
        "python": platform.python_version(), "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": os.cpu_count(), "cpu": cpu, "GGCHAIN_THREADS": ENV["GGCHAIN_THREADS"], "commit": commit,
    }


def layer_metrics(traces, alloc_traces, untraced_wall, traced_wall, imports) -> dict:
    summary = spans.summarise(traces, LAYERS)
    layers, by_name, counters = summary["layers"], summary["by_name"], summary["counters"]

    def rate(num, den):
        return num / den if den > 0 else 0.0

    def peak_mb(name, key):
        peaks = [s[key] for t in alloc_traces for s in t["spans"] if s["name"] == name]
        return max(peaks, default=0) / 1e6

    m = {"import.ggchain_s": imports[0], "import.scipy_s": imports[1]}
    for layer in LAYERS:
        for key in ("self_s", "calls", "errors"):
            m[f"{layer}.{key}"] = layers[layer][key]
    m["cli.bytes_out"] = counters.get("cli.bytes_out", 0)
    m["cli.mb_per_s"] = rate(m["cli.bytes_out"] / 1e6, m["cli.self_s"])
    m["cli.peak_alloc_mb"] = peak_mb("cli.main", "self_peak_bytes")
    m["chains.matrix_s"] = sum(v for k, v in by_name.items() if k.startswith("chains.") and k.endswith("_matrix"))
    m["chains.matrix_entries"] = counters.get("chains.matrix_entries", 0)
    m["chains.entries_per_s"] = rate(m["chains.matrix_entries"], m["chains.matrix_s"])
    m["circulant.sequence_s"] = by_name.get("circulant.cycle_correlation_sequence", 0.0)
    m["circulant.riemann_s"] = by_name.get("circulant.riemann_sum", 0.0)
    m["oracle.inversion_s"] = by_name.get("oracle.model_correlation", 0.0)
    m["oracle.sample_s"] = by_name.get("oracle.sample", 0.0)
    m["oracle.philox_words"] = counters.get("oracle.philox_words", 0)
    m["oracle.words_per_s"] = rate(m["oracle.philox_words"], m["oracle.sample_s"])
    m["oracle.sample_peak_alloc_mb"] = peak_mb("oracle.sample", "peak_bytes")
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def unit_of(name: str) -> str:
    for suffix, unit in (("mb_per_s", "MB/s"), ("_per_s", "1/s"), ("_mb", "MB"), ("_s", "s"),
                         ("bytes_out", "B"), ("fail_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def typical_pass_s(passes: list[dict]) -> float:
    """Sum over commands of each command's median wall time across passes."""
    return sum(statistics.median(p["ops"][pos]["wall_s"] for p in passes)
               for pos in range(len(passes[0]["ops"])))


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup: list[float]) -> dict:
    op_list = ops(name, seed)
    passes = []
    while sum(p["wall_s"] for p in passes) < seconds or len(passes) < MIN_PASSES:
        passes.append(run_pass(op_list, f"{name}-{len(passes)}"))
    untraced_wall = typical_pass_s(passes)
    record = {"env": environment(name, seed), "setup_s": setup, "passes": passes, "failures": []}
    checked = list(passes)
    if trace:
        imports = import_times()
        traced = run_pass(op_list, f"{name}-traced", "time")
        alloc = run_pass(op_list, f"{name}-alloc", "alloc")
        checked += [traced, alloc]
        record.update(traced_pass=traced, alloc_pass=alloc)
    tallies = check_passes(op_list, checked, record["failures"])
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    # every pass runs the same commands, so contract counts are per pass
    contract = {
        "fail_ratio": failed / attempted,
        "contract_violations": statistics.median(t.violations for t in tallies),
        "circulant.nonpositive": statistics.median(t.nonpositive for t in tallies),
        "oracle.false_alarms": statistics.median(t.false_alarms for t in tallies),
    }
    if trace:
        traces = [res["trace"] for res in traced["ops"] if "trace" in res]
        alloc_traces = [res["trace"] for res in alloc["ops"] if "trace" in res]
        metrics = layer_metrics(traces, alloc_traces, untraced_wall, traced["wall_s"], imports) | contract
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": untraced_wall,
            "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) * 1024 / 1e6,
        }
    record.update(metrics=metrics, contract=contract, attempted=attempted, failed=failed)
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ggchain", "cli.py")):
        print("perfbench: run from the root of a ggchain checkout (src/ggchain not found)", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(WORK, exist_ok=True)
    setup = setup_times()
    records = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), setup)
        records[name] = record
        path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w") as f:
            json.dump(record, f, indent=1)
        print(f"workload {name}: seed {args.seed}, {len(record['passes'])} passes, "
              f"{record['attempted']} commands, {record['failed']} failed; record {path}")
        print("env " + json.dumps(record["env"]))
        shown = record["metrics"] | record["contract"]
        for key, value in shown.items():
            print(f"  {name}.{key} = {value:.6g} {unit_of(key)}")
    shutil.rmtree(WORK, ignore_errors=True)
    prefix = len(names) > 1
    result = {
        "correct": all(r["failed"] == 0 for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {
            (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit_of(key)}
            for name, r in records.items()
            for key, value in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
