"""Benchmark of the spotrank CLI on seeded inputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  A workload is a batch of two spotrank commands (its parts, named
after the inputs ``workloads.py`` makes); one round runs each part once.
Each part generates its inputs from the seed under ``.bench_work/``.  The
benchmark runs ``python -m spotrank`` one child process at a time (closed
loop, one client): a warm-up of each part on a minimal input, then rounds for
``--seconds``, where each part runs a set-up probe on its minimal input and
then its measured command.  Every output is checked (``checker.py``) and
hashed.

``--trace 0`` reports the end-to-end metrics of one round: ``wall_s`` and
``setup_s`` are sums over the parts of each part's median child wall time,
``items_per_s`` is the round's units over ``wall_s``, and ``max_rss_mb`` is
the largest part's median peak RSS; failed runs over attempted runs are the
result's ``failed``/``attempted``.  ``--trace 1`` alternates untraced rounds
with traced ones (``tracer.py``) and reports the per-layer metrics of a
round plus the tracing overhead.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import checker
import tracer
from workloads import MAKERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
WORKLOADS = {
    # the read path: scoring tallies and grids, no state events
    "rank-sweep": ("rank-flat", "grid-sweep"),
    # the write path: event streams into question state, with and without retractions
    "replay-simulate": ("replay-churn", "simulate-drift"),
}
MIN_ROUNDS = 3


class Spawner:
    """Client of ``spawn.py``, which runs each child and reports its own rusage."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(BENCH / "spawn.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")

    def run(self, argv: list[str], cwd: Path, stdout: Path) -> dict:
        request = {"argv": argv, "cwd": str(cwd), "env": self.env,
                   "stdout": str(stdout), "stderr": str(stdout.with_suffix(".err"))}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        return json.loads(self._proc.stdout.readline())

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values or [math.nan]) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class PartRun:
    """One part of a workload: inputs, every child run, and the checks of their outputs."""

    def __init__(self, name: str, seed: int, spawner: Spawner):
        self.name = name
        self.spawner = spawner
        self.work = WORK / f"{name}-{os.getpid()}"  # concurrent runs do not collide
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = MAKERS[name](seed, self.work)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[bool, dict[str, str]] = {}  # minimal? -> verified digests

    def child(self, minimal: bool, traced: bool = False) -> dict:
        """Run the CLI once and check its outputs; ``ok`` in the record says if both passed."""
        argv = self.inputs.minimal_argv if minimal else self.inputs.argv
        truth = self.inputs.minimal_truth if minimal else self.inputs.truth
        stdout = self.work / ("stdout-min.txt" if minimal else "stdout.txt")
        outputs = checker.output_files(self.name, truth, stdout)
        for path in outputs:
            path.unlink(missing_ok=True)
        trace = self.work / "trace.json"
        trace.unlink(missing_ok=True)
        if traced:
            command = [sys.executable, str(BENCH / "tracer.py"), str(trace), "--", *argv]
        else:
            command = [sys.executable, "-m", "spotrank", *argv]
        self.attempted += 1
        record = self.spawner.run(command, self.work, stdout)
        problems = self._problems(record, minimal, truth, stdout, outputs)
        record["ok"] = not problems
        if problems:
            self.errors += problems
            self.failed += 1
            return record
        if traced:
            record["trace"] = json.loads(trace.read_text(encoding="utf-8"))
            trace.unlink()
        record["bytes_out"] = sum(p.stat().st_size for p in outputs)
        return record

    def _problems(self, record: dict, minimal: bool, truth: dict, stdout: Path,
                  outputs: list[Path]) -> list[str]:
        """Check the first run of each input fully, and later ones by their bytes."""
        if record["returncode"] != 0:
            err = stdout.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
            return [f"exit {record['returncode']}: {err.strip()[-500:]}"]
        got = checker.digests(outputs)
        if minimal in self.reference:
            if got == self.reference[minimal]:
                return []
            return checker.check(self.name, truth, stdout) or [
                "output bytes differ from the first verified run"]
        problems = checker.check(self.name, truth, stdout)
        if not problems:
            self.reference[minimal] = got
        return problems

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def _median(records: list[dict], key: str) -> float | None:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else None


def _passed(records: list[dict]) -> list[dict]:
    """The records whose runs passed their checks, or all of them if none did."""
    return [r for r in records if r["ok"]] or records


def _sum(values) -> float | None:
    values = list(values)
    return None if None in values else sum(values)


def measure(parts: list[PartRun], seconds: float, trace: bool
            ) -> tuple[list[dict[str, list[dict]]], list[dict[str, float]]]:
    """Warm-up, then rounds for about ``seconds``: the last round is the one
    that ends nearest to ``seconds``, as far as the mean round so far predicts.

    Returns, for each part, the records of its set-up probes (``setup``), its
    untraced runs (``plain``) and its traced runs (``traced``); and the
    per-layer metrics of each traced round whose runs all passed.
    """
    for part in parts:
        part.child(minimal=True)
    records = [{"setup": [], "plain": [], "traced": []} for _ in parts]
    layers = []
    rounds = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + elapsed / rounds / 2 >= seconds:
            break
        traced = trace and rounds % 2 == 1
        runs = []
        for part, record in zip(parts, records):
            record["setup"].append(part.child(minimal=True))
            runs.append(part.child(minimal=False, traced=traced))
            record["traced" if traced else "plain"].append(runs[-1])
        if traced and all("trace" in run for run in runs):
            layers.append(tracer.merge([run.pop("trace") for run in runs]))
        rounds += 1
    return [{kind: _passed(runs) for kind, runs in record.items()} for record in records], layers


def end_to_end(parts: list[PartRun], records: list[dict[str, list[dict]]]) -> dict[str, float | None]:
    wall = _sum(_median(r["plain"], "wall_s") for r in records)
    rss = [_median(r["plain"], "max_rss_kb") for r in records]
    rss_kb = None if None in rss else max(rss)
    return {
        "wall_s": wall,
        "items_per_s": sum(p.inputs.units for p in parts) / wall if wall else None,
        "setup_s": _sum(_median(r["setup"], "wall_s") for r in records),
        "max_rss_mb": rss_kb / 1024 if rss_kb else None,
    }


def per_layer(parts: list[PartRun], records: list[dict[str, list[dict]]],
              layers: list[dict[str, float]]) -> dict[str, float | None]:
    """Medians over the traced rounds, plus what is measured outside the traced process."""
    metrics = {name: statistics.median(m[name] for m in layers) for name in (layers[0] if layers else ())}
    traced_wall = _sum(_median(r["traced"], "wall_s") for r in records)
    plain_wall = _sum(_median(r["plain"], "wall_s") for r in records)
    bytes_out = _sum(_median(r["traced"], "bytes_out") for r in records)
    metrics.update({
        "cli.lines_in": sum(p.inputs.props["lines"] for p in parts),
        "cli.bytes_out": bytes_out - metrics.get("grids.bytes_out", 0) if bytes_out is not None else None,
        "cli.cpu_s": _sum(_median(r["plain"], "cpu_s") for r in records),
        "trace.overhead_s": traced_wall - plain_wall if traced_wall and plain_wall else None,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spawner: Spawner,
                 declared: list[dict]) -> dict:
    parts = []
    try:
        for part_name in WORKLOADS[name]:
            parts.append(PartRun(part_name, seed, spawner))
        records, layers = measure(parts, seconds, trace)
        values = per_layer(parts, records, layers) if trace else end_to_end(parts, records)
    finally:
        for part in parts:
            part.close()
    metrics = {m["name"]: (values.get(m["name"]), m["unit"]) for m in declared}
    print(f"== {name} seed {seed} trace {int(trace)}: {len(records[0]['plain'])} untraced + "
          f"{len(records[0]['traced'])} traced rounds")
    for part, record in zip(parts, records):
        walls = [r["wall_s"] for r in record["plain"]]
        q1, q2, q3 = _quartiles(walls)
        print(f"{part.name}: {part.inputs.units} {part.inputs.unit} per run; "
              + " ".join(f"{k}={v}" for k, v in part.inputs.props.items()))
        print(f"{part.name}: wall quartiles {q1:.4f} {q2:.4f} {q3:.4f} s over {len(walls)} runs; "
              f"set-up median {_median(record['setup'], 'wall_s'):.4f} s "
              f"over {len(record['setup'])} probes")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value if value is None else format(value, '.6g')} {unit}")
    attempted = sum(p.attempted for p in parts)
    failed = sum(p.failed for p in parts)
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for part in parts:
        for file_name, digest in part.reference.get(False, {}).items():
            print(f"sha256 {part.name} {file_name} {digest}")
    errors = [f"{part.name}: {error}" for part in parts for error in part.errors]
    for error in errors[:10]:
        print(f"ERROR {error}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spotrank" / "cli.py").is_file():
        print(f"error: no spotrank sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    with Spawner() as spawner:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                         spawner, declared)
    try:
        WORK.rmdir()
    except OSError:  # another run is still using it
        pass
    print(f"env: python {platform.python_version()} numpy {numpy.__version__} "
          f"nproc {os.cpu_count()}")
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, result in results.items() for metric, (value, unit) in result["metrics"].items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
