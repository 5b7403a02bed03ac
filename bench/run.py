"""End-to-end benchmark of the stax-kit CLI on seeded corpora.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

With --trace 0 the CLI (`python -m staxkit.cli` with PYTHONPATH=src) runs
as a subprocess in a closed loop: one process at a time, the next started
only after the previous one has exited, from this single-threaded process.
Each timed run alternates with one no-data CLI call that measures set-up
time.  Every run's exit code and output are checked against the corpus's
expected result.  With --trace 1 the same corpus goes through the package's
layers in-process instead (see layers.py).  --workload all does both for
every workload and writes a summary.

Generated corpora, span files and summaries go to .bench_work/ under the
repository root.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; for --workload all, metrics holds
each workload's end-to-end and per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import corpus as corpora

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"

CLI = [sys.executable, "-m", "staxkit.cli"]
# Interpreter start, import, taxonomy load, infer_closure and planning: the
# cost every CLI call pays before it reads any data.
SETUP_ARGS = ["taxonomy", "path", "graphStream", "flatQuadStream", "--policy", "transitive"]
# Times are reported in reference seconds: each round's times are scaled as
# if its reference program took the time below, about what it takes on an
# idle 2-vCPU Xeon VM with CPython 3.11.  The workload call is scaled by
# reference.py, which computes like the CLI; the set-up call, which is mostly
# interpreter start and imports, by a bare interpreter start.
REFERENCE = [sys.executable, "-I", "-S", str(BENCH / "reference.py")]
REFERENCE_S = 0.15
STARTUP = [sys.executable, "-I", "-S", "-c", "pass"]
STARTUP_S = 0.014
MIN_SAMPLES = 5
CALL_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class CliRun:
    wall_s: float
    first_output_s: float
    peak_rss_mb: float
    returncode: int
    stdout: bytes


class Spawner:
    """Runs processes one at a time through spawner.py; see its docstring."""

    def __init__(self) -> None:
        env = {k: v for k, v in os.environ.items() if k != "STAX_TAXONOMY"}
        env["PYTHONPATH"] = str(ROOT / "src")
        self._proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(BENCH / "spawner.py")],
            cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CALL_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def run(self, argv: list[str], stderr_path: Path) -> CliRun:
        request = {
            "argv": argv,
            "stderr": str(stderr_path),
            "timeout_s": CALL_TIMEOUT_S,
        }
        self._proc.stdin.write(json.dumps(request).encode() + b"\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        stdout = self._proc.stdout.read(reply["stdout_bytes"])
        return CliRun(
            wall_s=reply["wall_s"],
            first_output_s=reply["first_output_s"],
            peak_rss_mb=reply["maxrss_kb"] * 1024 / 1e6,
            returncode=-9 if reply["timed_out"] else reply["returncode"],
            stdout=stdout,
        )


def check_setup(run: CliRun) -> str | None:
    """The built-in taxonomy plans graphStream -> flatQuadStream in two chained steps."""
    if run.returncode != 0:
        return f"exit code {run.returncode}"
    lines = run.stdout.decode("utf-8", "replace").splitlines()
    hops = [t for line in lines for t in line.partition(": ")[2].split(" -> ")]
    if len(lines) != 2 or hops != ["graphStream", hops[1], hops[1], "flatQuadStream"]:
        return f"unexpected plan {run.stdout!r}"
    return None


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    n = len(values)
    supported = [p for p in (50, 75, 90, 95, 99) if n * (100 - p) / 100 >= 10]
    if not supported:
        return None
    p = supported[-1]
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure_e2e(corpus: corpora.Corpus, seconds: float, work: Path) -> dict:
    """Closed-loop runs for `seconds`: the workload's CLI call, the set-up
    call, a bare interpreter start and the reference program, over and over.

    Each metric is the median over the run.  Times are scaled by the same
    round's reference times (see REFERENCE_S), which cancels the machine's
    speed changes; the raw medians are printed and returned too.
    """
    stderr_path = work / "stderr.txt"
    workload = CLI + corpus.cli_args()
    setup = CLI + SETUP_ARGS
    runs: list[CliRun] = []
    setups: list[CliRun] = []
    references: list[CliRun] = []
    startups: list[CliRun] = []
    errors: list[str] = []

    def record(batch: list[CliRun], run: CliRun, why: str | None, what: str) -> None:
        batch.append(run)
        if why is not None:
            err = stderr_path.read_text("utf-8", "replace").strip()
            errors.append(f"{what}: {why}" + (f" ({err[:300]})" if err else ""))

    with Spawner() as spawner:
        # Warm-up: compiles the package's bytecode and fills the page cache.
        expected_reference = spawner.run(REFERENCE, stderr_path).stdout
        spawner.run(setup, stderr_path)
        spawner.run(workload, stderr_path)
        deadline = time.perf_counter() + seconds
        # Past the deadline, a run with errors stops short of MIN_SAMPLES, so
        # that a CLI call that hangs until CALL_TIMEOUT_S cannot drag it on.
        while time.perf_counter() < deadline or (len(runs) < MIN_SAMPLES and not errors):
            run = spawner.run(workload, stderr_path)
            record(runs, run, corpus.check(run.returncode, run.stdout), corpus.cli_args()[0])
            run = spawner.run(setup, stderr_path)
            record(setups, run, check_setup(run), "setup")
            run = spawner.run(STARTUP, stderr_path)
            record(startups, run, None if run.returncode == 0 else "interpreter start failed", "startup")
            run = spawner.run(REFERENCE, stderr_path)
            ok = run.returncode == 0 and run.stdout == expected_reference
            record(references, run, None if ok else "reference output changed", "reference")

    scales = [REFERENCE_S / r.wall_s for r in references]
    setup_scales = [STARTUP_S / r.wall_s for r in startups]
    wall = [r.wall_s * k for r, k in zip(runs, scales)]
    samples = {
        "wall_s": ("s", wall),
        "stmts_per_s": ("1/s", [corpus.statements / w for w in wall]),
        "input_mb_per_s": ("MB/s", [corpus.input_bytes / 1e6 / w for w in wall]),
        "first_output_s": ("s", [r.first_output_s * k for r, k in zip(runs, scales)]),
        "peak_rss_mb": ("MB", [r.peak_rss_mb for r in runs]),
        "setup_s": ("s", [r.wall_s * k for r, k in zip(setups, setup_scales)]),
    }
    return {
        "samples": samples,
        "scale": statistics.median(scales),
        "setup_scale": statistics.median(setup_scales),
        "raw": {
            "wall_s": statistics.median(r.wall_s for r in runs),
            "first_output_s": statistics.median(r.first_output_s for r in runs),
            "setup_s": statistics.median(r.wall_s for r in setups),
            "reference_s": statistics.median(r.wall_s for r in references),
            "startup_s": statistics.median(r.wall_s for r in startups),
        },
        "attempted": len(runs) + len(setups) + len(startups) + len(references),
        "failed": len(errors),
        "errors": errors,
        "metrics": {
            name: {"value": statistics.median(values), "unit": unit}
            for name, (unit, values) in samples.items()
        },
    }


def print_e2e(workload: str, result: dict) -> None:
    print(f"== {workload}: end to end (closed loop, 1 client)")
    print(
        f"  times in reference seconds: raw times x {result['scale']:.6g}, "
        f"set-up x {result['setup_scale']:.6g} (medians over rounds)"
    )
    for name, (unit, values) in result["samples"].items():
        tail = tail_percentile(values)
        extra = f"p{tail[0]}={tail[1]:.6g}" if tail else "no percentile has 10 samples above it"
        print(f"  {name:<16} median={statistics.median(values):<12.6g} {unit:<5} {extra} (n={len(values)})")
    raw = ", ".join(f"{k}={v:.6g}" for k, v in result["raw"].items())
    print(f"  raw medians (s): {raw}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<16} {rate:.6g} ({result['failed']} of {result['attempted']} runs)")
    for err in result["errors"][:5]:
        print(f"  error: {err}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*corpora.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "staxkit" / "cli.py").is_file():
        print(f"bench: no stax-kit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = corpora.WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {}
    for workload in workloads:
        work = WORK / f"{workload}-seed{args.seed}"
        corpus = corpora.generate(workload, args.seed, work)
        entry = {}
        if args.workload == "all" or args.trace == 0:
            e2e = measure_e2e(corpus, args.seconds, work)
            print_e2e(workload, e2e)
            entry["end_to_end"] = {
                k: e2e[k]
                for k in ("attempted", "failed", "errors", "metrics", "scale", "setup_scale", "raw")
            }
        if args.workload == "all" or args.trace == 1:
            import layers  # imports staxkit in this process

            traced = layers.traced_run(corpus, args.seconds, work / "trace.json")
            layers.print_layers(workload, traced)
            entry["per_layer"] = {k: traced[k] for k in ("attempted", "failed", "errors", "metrics")}
        summary[workload] = entry

    parts = [part for entry in summary.values() for part in entry.values()]
    if args.workload == "all":
        path = WORK / f"summary-seed{args.seed}.json"
        path.write_text(json.dumps(summary, indent=2))
        print(f"summary written to {path.relative_to(ROOT)}")
        metrics = {w: {k: p["metrics"] for k, p in e.items()} for w, e in summary.items()}
    else:
        metrics = parts[0]["metrics"]
    failed = sum(p["failed"] for p in parts)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
