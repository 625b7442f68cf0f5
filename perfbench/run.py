"""fracwave benchmark: four fixed workloads through the public CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-heavy --seed 3 --seconds 30 --trace 0

Each sample is a fresh interpreter (sample.py) that imports the package from
the checkout's `src/`, parses the workload config and calls
`fracwave.cli.entrypoint` once, so module caches never make a repeat cheaper
than a user's CLI call.  Samples repeat until the next one would pass
`--seconds`; there is always at least one.

The benchmark pins itself and its samples to one CPU.  Samples run with one
BLAS thread, and a thread of this process (hostclock.py) times a fixed chunk
of work on the same CPU throughout.  Every reported time is scaled by the
host speed that the chunks show around it, so that it reads in seconds of a
reference host and the shared host's drift largely cancels; the readable
table also gives the unscaled medians.

--trace 0 prints the end-to-end metrics (medians over the samples).
--trace 1 spends half the time on untraced samples and half on traced ones
and prints the per-layer metrics; BENCHMARK.json lists both sets.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; lines before it record the
environment and a readable table.  The exit code is 0 whenever that line is
printed, and nonzero when the checkout cannot be benchmarked at all (no
`src/fracwave`, the package imported from elsewhere, or a trace wrap point
missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# This process only runs the host clock's chunks and the output checks: keep
# its BLAS on one thread, set before numpy is first imported.
for _key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_key] = "1"

import hostclock  # noqa: E402
import outputs  # noqa: E402
import sample  # noqa: E402

HERE = Path(__file__).resolve().parent

# workload name -> (CLI verb, config file under configs/ or None)
WORKLOADS = {
    "run-heavy": ("run", "run-heavy.cfg"),
    "sweep-ladder": ("sweep-epsilon", "sweep-ladder.cfg"),
    "run-derivative": ("run", "run-derivative.cfg"),
    "validate-suite": ("validate", None),
}
# Noise seeds with recorded reference summaries; --seed is folded onto them.
NOISE_SEEDS = 8
MIN_SETUP_PROBES = 5
# Samples share one CPU with the host clock; more BLAS threads than CPUs
# would measure the scheduler.
SAMPLE_BLAS_THREADS = 1
SAMPLE_TIMEOUT_S = 150.0


class BenchmarkError(RuntimeError):
    """The checkout cannot be benchmarked; no result is printed."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: Path):
    """HEAD of the checkout, read from .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, scratch: Path, clock: hostclock.HostClock):
        self.root = root
        self.clock = clock
        self.workload = workload
        self.verb, config = WORKLOADS[workload]
        self.config = str(HERE / "configs" / config) if config else None
        self.seed = seed
        self.noise_seed = seed % NOISE_SEEDS
        self.scratch = scratch
        self.src = root / "src"
        threads = str(SAMPLE_BLAS_THREADS)
        self.env = dict(os.environ)
        for key in ("PYTHONSTARTUP", "PYTHONHOME", "PYTHONOPTIMIZE"):
            self.env.pop(key, None)
        self.env.update(
            PYTHONPATH=str(self.src),
            PYTHONHASHSEED="0",
            OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]
        self.reference = reference.get(str(self.noise_seed)) if self.verb != "validate" else None
        self.checked: dict = {}
        self.count = 0

    def describe(self) -> dict:
        proc = subprocess.run(
            [sys.executable, str(HERE / "describe.py")],
            env=self.env, cwd=self.root, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchmarkError(f"cannot import fracwave from {self.src}:\n{proc.stderr.strip()}")
        info = json.loads(proc.stdout)
        if Path(info["fracwave_path"]).resolve().parent != self.src.resolve():
            raise BenchmarkError(f"fracwave imported from {info['fracwave_path']}, not from {self.src}")
        info.update(
            workload=self.workload, seed=self.seed, noise_seed=self.noise_seed,
            commit=git_commit(self.root), executable=sys.executable,
            reference_chunk_s=hostclock.REFERENCE_CHUNK_S,
            pinned_cpus=sorted(os.sched_getaffinity(0)), duty=hostclock.DUTY,
        )
        return info

    def spawn(self, extra: list, cli: list = ()):
        """Run sample.py once; returns (result dict or None, error text).

        Its times are already in reference-host seconds; `scale` is the
        factor applied and `raw` keeps the end-to-end times as measured.
        """
        self.count += 1
        result_path = self.scratch / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "sample.py"), "--result", str(result_path)]
        if self.config:
            cmd += ["--config", self.config]
        cmd += extra
        start = _now()
        try:
            proc = subprocess.run(
                cmd + ["--spawned-at", repr(start), "--", *cli],
                env=self.env, cwd=self.root, capture_output=True, text=True, timeout=SAMPLE_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, f"sample exceeded {SAMPLE_TIMEOUT_S:g} s"
        if proc.returncode == sample.MISSING_WRAP_POINT:
            raise BenchmarkError(proc.stderr.strip())
        if proc.returncode != 0:
            return None, f"sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        end = _now()
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        scale_times(result, self.clock.scale(start, end))
        return result, ""

    def setup_probe(self) -> float:
        result, error = self.spawn(["--setup-only"])
        if result is None:
            raise BenchmarkError(f"set-up probe failed: {error}")
        return result["setup_s"]

    def sample(self, trace: bool) -> dict:
        out = self.scratch / f"out-{self.count + 1}"
        out.mkdir()
        cli = [self.verb]
        if self.config:
            cli += ["--config", self.config]
        cli += ["--out", str(out), "--seed", str(self.noise_seed), "--quiet"]
        try:
            result, error = self.spawn(["--trace"] if trace else [], cli)
            if result is None:
                return {"problems": [error]}
            if result["exit_code"] != 0:
                result["problems"] = [f"verb exited {result['exit_code']}, README documents 0 for success"]
                return result
            digest = outputs.digest(self.verb, out)
            if digest not in self.checked:
                self.checked[digest] = outputs.check_outputs(self.verb, out, self.reference)
            result.update(digest=digest, problems=list(self.checked[digest]))
            result["artifact_bytes"] = outputs.artifact_bytes(out)
            if self.verb == "validate":
                payload = json.loads((out / "validation.json").read_text(encoding="utf-8"))
                result["criteria"] = {r["index"]: r["runtime"] * result["scale"] for r in payload["results"]}
            return result
        except (OSError, ValueError, KeyError) as err:
            return {"problems": [f"unreadable artifacts: {err!r}"]}
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def samples(self, seconds: float, trace: bool, setups: list) -> list:
        """Samples until the next would pass the deadline; at least one.

        A set-up probe precedes each sample, so that the set-up times, like
        the samples, spread over the whole run: the speed of a shared host
        changes within seconds.
        """
        deadline = _now() + seconds
        results, durations = [], []
        while True:
            start = _now()
            setups.append(self.setup_probe())
            results.append(self.sample(trace))
            durations.append(_now() - start)
            if _now() + statistics.median(durations) > deadline:
                return results


def scale_times(result: dict, scale: float) -> None:
    """Turn a sample's times (keys ending in `_s`) into reference-host seconds."""
    result["scale"] = scale
    result["raw"] = {k: v for k, v in result.items() if k.endswith("_s")}
    for values in (result, result.get("layers", {})):
        for key in values:
            if key.endswith("_s"):
                values[key] *= scale


def mark_digest_mismatches(results: list) -> None:
    digests = [r["digest"] for r in results if "digest" in r]
    for r in results:
        if "digest" in r and r["digest"] != digests[0]:
            r["problems"].append("artifact digest differs from the first sample of this seed")


def _units(kind: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json at the checkout root lists them."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _named(values: dict, kind: str) -> dict:
    units = _units(kind)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchmarkError(f"{kind} metrics not measured: {missing}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(results: list, setups: list) -> dict:
    timed = [r for r in results if "wall_s" in r]
    if not timed:
        raise BenchmarkError("no sample produced timings")
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "cpu_s": statistics.median(r["cpu_s"] for r in timed),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in timed]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
    }
    return _named(metrics, "end_to_end")


def per_layer(untraced: list, traced: list) -> dict:
    plain = [r for r in untraced if "wall_s" in r]
    layered = [r for r in traced if "layers" in r]
    if not plain or not layered:
        raise BenchmarkError("the traced run needs one untraced and one traced sample with timings")
    values = {key: statistics.median(r["layers"][key] for r in layered) for key in layered[0]["layers"]}
    values["cli.artifact_bytes"] = statistics.median(r.get("artifact_bytes", 0) for r in layered)
    values["cli.import_s"] = statistics.median(r["import_s"] for r in plain)
    values["config.parse_s"] = statistics.median(r["parse_s"] for r in plain)
    for i in range(1, 16):
        values[f"validation.c{i:02d}_s"] = statistics.median(r.get("criteria", {}).get(i, 0.0) for r in plain)
    values["trace.overhead_s"] = statistics.median(r["wall_s"] for r in layered) - statistics.median(
        r["wall_s"] for r in plain
    )
    return _named(values, "per_layer")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "fracwave" / "__init__.py").is_file():
        print(f"run.py: no src/fracwave under {root}; run from the root of a fracwave checkout", file=sys.stderr)
        return 2
    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    clock = hostclock.HostClock().start()
    try:
        bench = Bench(root, args.workload, args.seed, scratch, clock)
        env = bench.describe()
        setups: list = []
        if args.trace:
            untraced = bench.samples(args.seconds / 2.0, False, setups)
            traced = bench.samples(args.seconds / 2.0, True, setups)
            results = untraced + traced
        else:
            results = bench.samples(args.seconds, False, setups)
            while len(setups) < MIN_SETUP_PROBES:
                setups.append(bench.setup_probe())
        mark_digest_mismatches(results)
        metrics = per_layer(untraced, traced) if args.trace else end_to_end(results, setups)
    except BenchmarkError as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    finally:
        clock.stop()
        shutil.rmtree(scratch, ignore_errors=True)

    failed = [r for r in results if r["problems"]]
    for i, r in enumerate(results):
        for problem in r["problems"]:
            print(f"sample {i + 1}: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(
        f"workload {args.workload} seed {args.seed} (noise seed {bench.noise_seed}), trace {args.trace}: "
        f"{len(results)} samples, {len(failed)} failed, fail_ratio {len(failed) / len(results):.3g}"
    )
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    scaled = [r for r in results if "scale" in r]
    if scaled:
        raw = {
            k: round(statistics.median(r["raw"][k] for r in scaled), 6)
            for k in ("wall_s", "cpu_s", "setup_s")
            if k in scaled[0]["raw"]
        }
        print(
            f"  unscaled medians: {json.dumps(raw)}; "
            f"host scale median {statistics.median(r['scale'] for r in scaled):.4f} over {len(clock.chunks)} chunks"
        )
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
