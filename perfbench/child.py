"""One benchmark child process: import cyclodet, run one body, report.

Started by run.py with a JSON spec as its only argument.  The spec carries
`t_spawn`, the CLOCK_MONOTONIC time at which the parent started this
process, so set-up time covers interpreter start-up as well as the imports.
With `import_probe`, the child imports numpy and mpmath but not cyclodet,
reports its set-up time and exits: run.py scales set-up times by it.
The result is written as JSON to `spec["result"]`.

A body drives the shipped CLI, `cyclodet.cli.main`, in this process: each
`verify` invocation of the spec once (the cold pass) and, with a cache
directory, `warm_passes` more times served warm; then one `classno --p P`
call per prime.  Outputs are gated after each timed call, outside the timer.
"""
import json
import sys
import time

SPEC = json.loads(sys.argv[1])

if SPEC.get("import_probe"):
    # the machine's speed at set-up work: the same start-up without cyclodet
    import mpmath  # noqa: F401
    import numpy  # noqa: F401

    with open(SPEC["result"], "w", encoding="utf-8") as fh:
        json.dump({"raw_setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - SPEC["t_spawn"]}, fh)
    sys.exit(0)

import cyclodet  # noqa: E402  (set-up time is measured up to here)
import cyclodet.cli  # noqa: E402
import mpmath  # noqa: E402
import numpy  # noqa: E402

SETUP_S = time.clock_gettime(time.CLOCK_MONOTONIC) - SPEC["t_spawn"]

import contextlib  # noqa: E402
import io  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import gate  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402


def peak_rss_mib() -> float:
    """High-water RSS of this process or of its largest reaped worker."""
    own_kib = 0
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                own_kib = int(line.split()[1])
    workers_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_kib, workers_kib) / 1024


def cached_primes(cache_dir: Path, primes: list[int]) -> set[int]:
    return {p for p in primes if any(cache_dir.glob(f"p{p}-*.json"))}


class Body:
    """Times are reference seconds (see speed.py) when `probe` is given, else raw."""

    def __init__(self, spec: dict, tracer, probe) -> None:
        self.spec = spec
        self.tracer = tracer
        self.probe = probe
        self.reference = gate.load_reference()
        self.outcomes: list[tuple[int, str]] = []
        self.cache_hits = 0
        self.cache_misses = 0

    def call_cli(self, argv: list[str], request=None) -> tuple[int | None, float, float, str]:
        """(exit code or None if it raised, seconds, raw seconds, captured stdout)."""
        buf = io.StringIO()
        if self.tracer is not None:
            self.tracer.request = request

        def invoke():
            try:
                with contextlib.redirect_stdout(buf):
                    return cyclodet.cli.main(argv)
            except Exception as exc:  # an exception is a failed operation
                print(f"cyclodet raised {type(exc).__name__}: {exc}", file=sys.stderr)
                return None

        if self.probe is not None:
            code, raw, seconds = self.probe.measure(invoke)
        else:
            t0 = time.perf_counter()
            code = invoke()
            seconds = raw = time.perf_counter() - t0
        return code, seconds, raw, buf.getvalue()

    def verify_once(self, argv, primes, out: Path, cache: Path | None) -> tuple[float, float]:
        out.unlink(missing_ok=True)
        before = cached_primes(cache, primes) if cache else set()
        code, seconds, raw, _ = self.call_cli(argv)
        if cache:
            after = cached_primes(cache, primes)
            self.cache_hits += len(before)
            self.cache_misses += len(after - before)
        text = out.read_text(encoding="utf-8") if code is not None and out.exists() else None
        self.outcomes += sorted(gate.gate_verify(text, primes, self.reference).items())
        return seconds, raw

    def run(self) -> dict:
        spec = self.spec
        work = Path(spec["workdir"])
        steps = []
        for i, inv in enumerate(spec["verify"]):
            out = work / f"reports-{i}.json"
            cache = work / f"cache-{i}" if inv["cache"] else None
            argv = ["verify", "--pmin", str(inv["pmin"]), "--pmax", str(inv["pmax"]),
                    "--threads", str(inv["threads"]), "--out", str(out)]
            if cache:
                argv += ["--cache-dir", str(cache)]
            step = {"what": " ".join(argv[:7]), "warm_s": []}
            step["wall_s"], step["raw_wall_s"] = self.verify_once(argv, inv["primes"], out, cache)
            for _ in range(spec["warm_passes"] if cache else 0):
                step["warm_s"].append(self.verify_once(argv, inv["primes"], out, cache)[0])
            steps.append(step)
        if spec["classno"]:
            step = {"what": f"classno {spec['classno'][0]}..{spec['classno'][-1]}",
                    "wall_s": 0.0, "raw_wall_s": 0.0, "warm_s": []}
            for p in spec["classno"]:
                code, seconds, raw, text = self.call_cli(["classno", "--p", str(p)], request=p)
                step["wall_s"] += seconds
                step["raw_wall_s"] += raw
                self.outcomes.append((p, gate.gate_classno(p, code, text, self.reference)))
            steps.append(step)
        return {
            "steps": steps,
            "wall_s": sum(step["wall_s"] for step in steps),
            "raw_wall_s": sum(step["raw_wall_s"] for step in steps),
            "outcomes": self.outcomes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


def main() -> None:
    result = {
        "raw_setup_s": SETUP_S,
        "module": cyclodet.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
        },
    }
    if not SPEC.get("setup_only"):
        tracer = probe = None
        if SPEC["trace"]:
            tracer = tracing.Tracer()
            tracing.install(tracer)
        elif SPEC["speed_probe"]:
            probe = speed.SpeedProbe()
        result.update(Body(SPEC, tracer, probe).run())
        result["peak_rss_mib"] = peak_rss_mib()
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(tracer)
            result["run_prime_by_prime"] = tracer.by_request("verify.run_prime")
            tracer.write(SPEC["spans"])
    Path(SPEC["result"]).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
