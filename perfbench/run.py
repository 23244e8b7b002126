"""cyclodet benchmark: fixed workloads through the shipped CLI.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/` of that checkout, never from an installed copy.

Each body runs in a fresh child process (child.py), so per-process caches
start cold as they do for a user.  Every output is checked against the
reference answers in reference.json (gate.py).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed`, `metrics`.

--trace 0  end-to-end metrics: wall_s, setup_s (both in reference seconds,
           see speed.py) and peak_rss_mib.  Bodies are repeated, each in new
           children, while another body is expected to end within
           --seconds; the median is reported.
--trace 1  per-layer metrics from one traced body with every invocation at
           --threads 1, plus one untraced body for the trace overhead.

The seed is recorded but does not change the inputs: the prime lists are
fixed.  Results and stamps go to perfbench/out/, spans of the last traced
body of each workload to perfbench/out/<workload>.spans.jsonl.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

RUN_BUDGET_S = 170.0  # every run must end within 180 s
SETUP_PROBES = 12  # set-up-only children per untraced run, half before the bodies,
                  # each followed by an import probe (speed.py)
WARM_PASSES = 200  # warm-cache repeats after the cold pass (about a second)


def primes_in(lo: int, hi: int) -> tuple[int, ...]:
    return tuple(n for n in range(max(lo, 2), hi + 1)
                 if all(n % d for d in range(2, int(n**0.5) + 1)))


@dataclass(frozen=True)
class Verify:
    """One `verify` invocation; with `cache`, a fresh cache dir and warm repeats."""

    pmin: int
    pmax: int
    threads: int = 1
    cache: bool = False

    @property
    def primes(self) -> tuple[int, ...]:
        return primes_in(self.pmin, self.pmax)


@dataclass(frozen=True)
class Workload:
    """A body: the `verify` invocations in order, then `classno --p P` per prime."""

    name: str
    verify: tuple[Verify, ...] = ()
    classno: tuple[int, ...] = ()

    def spec(self, trace: bool = False) -> dict:
        """Child spec; a traced body runs every invocation at --threads 1."""
        return {
            "verify": [{"pmin": v.pmin, "pmax": v.pmax, "primes": list(v.primes),
                        "threads": 1 if trace else v.threads, "cache": v.cache}
                       for v in self.verify],
            "classno": list(self.classno),
            "warm_passes": WARM_PASSES,
        }


# Two workloads, so that each run can be long within a fixed time budget for
# all runs of all workloads (README.md, "Workloads").  verify_sweep: the cyclotomic Bareiss band at one thread, then
# the evaluation-interpolation band through the report cache at two threads,
# the only user of the cache and the pool.  classno_scan: the Pell search,
# with no verify code at all.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify_sweep", verify=(Verify(5, 47), Verify(61, 89, threads=2, cache=True))),
        Workload("classno_scan", classno=primes_in(229, 317)),
    )
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


class HarnessError(RuntimeError):
    """The benchmark cannot measure at all (no program, wrong program)."""


# -- children -------------------------------------------------------------


def run_child(spec: dict, workdir: Path, deadline: float) -> dict | None:
    """Run child.py on one spec and return its result (None for a child that
    failed or ran past the deadline)."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "CYCLODET_CACHE_DIR", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    workdir.mkdir(parents=True)
    spec = dict(spec, workdir=str(workdir), result=str(workdir / "result.json"),
                t_spawn=time.clock_gettime(time.CLOCK_MONOTONIC))
    with open(workdir / "stderr.txt", "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        pass
    finally:
        stop(proc)
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        err = (workdir / "stderr.txt").read_text(errors="replace")
        sys.stderr.write(f"child failed (exit {proc.returncode}): {err[-2000:]}\n")
        return None
    result = json.loads(result_path.read_text(encoding="utf-8"))
    if "module" in result and not Path(result["module"]).resolve().is_relative_to(SRC):
        raise HarnessError(f"imported cyclodet from {result['module']}, not {SRC}")
    return result


def stop(proc: subprocess.Popen) -> None:
    """Kill the child's session, which also holds any pool workers, and reap it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


class Run:
    """The children of one benchmark run and their temporary directories."""

    def __init__(self, workload: Workload, seconds: int) -> None:
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.scratch = OUT / f"run-{os.getpid()}"
        self.count = 0
        self.setup_samples: list[float] = []  # reference seconds
        self.raw_setup_samples: list[float] = []
        self.import_samples: list[float] = []  # raw seconds of the import probes
        self.bodies: list[dict] = []  # every body result, failed ones included
        self.versions: dict = {}
        self.raw: dict = {}  # raw-second medians of the end-to-end times

    def child(self, spec: dict) -> dict | None:
        self.count += 1
        result = run_child(spec, self.scratch / str(self.count), self.deadline)
        if result is not None and "versions" in result:  # not an import probe
            self.versions = result["versions"]
        return result

    def setup_probe(self) -> None:
        result = self.child({"setup_only": True})
        if result is None:
            raise HarnessError("cyclodet could not be imported")
        probe = self.child({"import_probe": True})
        if probe is None:
            raise HarnessError("numpy and mpmath could not be imported")
        self.raw_setup_samples.append(result["raw_setup_s"])
        self.import_samples.append(probe["raw_setup_s"])
        self.setup_samples.append(speed.setup_reference_s(result["raw_setup_s"],
                                                          probe["raw_setup_s"]))

    def body(self, trace: bool = False, probe: bool = False) -> dict:
        """One body in a new child; with `probe`, times are reference seconds
        (speed.py), else raw."""
        spec = self.workload.spec(trace)
        spec["trace"] = trace
        spec["speed_probe"] = probe
        spec["spans"] = str(OUT / f"{self.workload.name}.spans.jsonl")
        result = self.child(spec)
        if result is None:
            primes = [p for v in spec["verify"] for p in v["primes"]] + spec["classno"]
            result = {"wall_s": None, "raw_wall_s": None, "steps": [], "peak_rss_mib": None,
                      "outcomes": [(p, "failed") for p in primes]}
        result["trace"] = trace
        self.bodies.append(result)
        return result

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


# -- metrics ----------------------------------------------------------------


def measured(values) -> list[float]:
    return [v for v in values if v is not None]


def end_to_end(run: Run) -> dict:
    began = time.monotonic()
    for _ in range(SETUP_PROBES // 2):
        run.setup_probe()
    probes_took = time.monotonic() - began
    while True:
        body_began = time.monotonic()
        body = run.body(probe=True)
        took = time.monotonic() - body_began
        # another body only if it and the remaining set-up probes are expected
        # to end within --seconds of the run's start
        if (body["wall_s"] is None
                or time.monotonic() - began + took + probes_took > run.seconds):
            break
    for _ in range(SETUP_PROBES - SETUP_PROBES // 2):
        run.setup_probe()
    walls = measured(b["wall_s"] for b in run.bodies)
    rss = measured(b["peak_rss_mib"] for b in run.bodies)
    if not walls:
        raise HarnessError("no body completed")
    run.raw = {
        "raw_wall_s": statistics.median(measured(b["raw_wall_s"] for b in run.bodies)),
        "raw_setup_s": statistics.median(run.raw_setup_samples),
    }
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(run.setup_samples),
        "peak_rss_mib": max(rss),
    }


def per_layer(run: Run) -> dict:
    w = run.workload
    plain = run.body()
    traced = run.body(trace=True)
    if plain["wall_s"] is None or traced["wall_s"] is None:
        raise HarnessError("a body did not complete")
    # Steps are the verify invocations in order, then classno.  The overhead
    # is measured on the steps that are serial in both bodies.
    threaded = {i for i, v in enumerate(w.verify) if v.threads > 1}
    serial = [i for i in range(len(plain["steps"])) if i not in threaded]
    overhead = (sum(traced["steps"][i]["wall_s"] for i in serial)
                / sum(plain["steps"][i]["wall_s"] for i in serial))
    layers = dict(traced["layers"])
    # pool use: serial run_prime time of the threaded invocations' primes, with
    # the trace overhead taken out, over the CPU time their threads had
    pooled = {p for i in threaded for p in w.verify[i].primes}
    busy = sum(s for p, s in traced["run_prime_by_prime"].items() if int(p) in pooled)
    capacity = sum(w.verify[i].threads * plain["steps"][i]["wall_s"] for i in threaded)
    layers["verify.pool_busy_frac"] = busy / overhead / capacity if capacity else 0.0
    layers["cli.cache_hits"] = traced["cache_hits"]
    layers["cli.cache_misses"] = traced["cache_misses"]
    warm = [t for step in plain["steps"] for t in step["warm_s"]]
    layers["warm_s"] = statistics.median(warm) if warm else 0.0
    layers["trace_overhead_frac"] = overhead - 1
    return layers


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


# -- stamp ------------------------------------------------------------------


def commit() -> str:
    """HEAD of the checkout's git metadata, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cyclodet").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(seed: int) -> dict:
    with open("/proc/loadavg", encoding="ascii") as fh:
        loadavg = fh.read().split()[:3]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "source_sha256": source_digest(),
        "seed": seed,
        "loadavg_start": [float(x) for x in loadavg],
    }


# -- entry ------------------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload and return the full record; the last line is its summary."""
    info = stamp(seed)
    run = Run(workload, seconds)
    try:
        metrics = per_layer(run) if trace else end_to_end(run)
    finally:
        run.close()
    info.update(run.versions)
    outcomes = [o for b in run.bodies for _, o in b["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o != "ok" for o in outcomes)
    failures = sorted({(p, o) for b in run.bodies for p, o in b["outcomes"] if o != "ok"})
    summary = {
        "correct": "wrong" not in outcomes,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "trace": trace,
        "stamp": info,
        "fail_frac": failed / attempted,
        "failures": failures,
        "bodies": [{k: b.get(k) for k in ("trace", "wall_s", "raw_wall_s", "steps",
                                          "peak_rss_mib", "cache_hits", "cache_misses")}
                   for b in run.bodies],
        "raw": run.raw,
        "setup_samples": run.setup_samples,
        "raw_setup_samples": run.raw_setup_samples,
        "import_samples": run.import_samples,
        "summary": summary,
    }
    (OUT / f"{workload.name}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def print_record(record: dict) -> None:
    print(f"workload {record['workload']}  stamp {json.dumps(record['stamp'])}")
    summary = record["summary"]
    for name, m in summary["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in record["raw"].items():
        print(f"  {name:34s} {value:.6g} s (raw seconds, not rescaled)")
    for body in record["bodies"]:
        for step in body["steps"]:
            raw = "" if step["raw_wall_s"] == step["wall_s"] else f" (raw {step['raw_wall_s']:.6g} s)"
            print(f"  {'trace' if body['trace'] else 'plain'} body: {step['what']:40s} "
                  f"{step['wall_s']:.6g} s{raw}")
        warm = [t for step in body["steps"] for t in step["warm_s"]]
        if warm and not body["trace"] and "warm_s" not in summary["metrics"]:
            print(f"  {'warm_s':34s} {statistics.median(warm):.6g} s")
    print(f"  {'fail_frac':34s} {record['fail_frac']:.6g} ratio  "
          f"({summary['failed']} of {summary['attempted']} failed)")
    for p, outcome in record["failures"]:
        print(f"  p={p}: {outcome}")
    print(json.dumps(summary), flush=True)


def main(argv: list[str] | None = None) -> int:
    # on SIGTERM, unwind so that every started child is stopped and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cyclodet" / "__init__.py").is_file():
        print(f"error: no cyclodet sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        try:
            record = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        except HarnessError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
