"""Record reference.json: output summaries of every checked workload and seed.

Run from the root of a checkout whose numbers are trusted (the benchmark's
references were recorded at the commit that added it):

    python3 perfbench/record_reference.py

Each workload with a config runs once per noise seed through
`fracwave.cli.entrypoint`, in this process, and its artifacts are reduced
with the same summaries the benchmark checks.  `validate-suite` has no
summary: its samples are checked by every acceptance criterion passing.
"""

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    import fracwave.cli

    import outputs
    from run import NOISE_SEEDS, WORKLOADS

    work = root / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    reference = {}
    for name, (verb, config) in WORKLOADS.items():
        reference[name] = {}
        if config is None:
            continue
        for seed in range(NOISE_SEEDS):
            out = Path(tempfile.mkdtemp(dir=work))
            try:
                argv = [verb, "--config", str(HERE / "configs" / config), "--out", str(out)]
                rc = fracwave.cli.entrypoint(argv + ["--seed", str(seed), "--quiet"])
                if rc != 0:
                    print(f"{name} seed {seed}: exit code {rc}", file=sys.stderr)
                    return 1
                summary = outputs.summarize(verb, out)
                # against itself, only the convergence and rung-status checks can fail
                problems = outputs.check_outputs(verb, out, summary)
                if problems:
                    print(f"{name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                reference[name][str(seed)] = summary
            finally:
                shutil.rmtree(out, ignore_errors=True)
            print(f"{name} seed {seed}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "2")
    os.environ.setdefault("OMP_NUM_THREADS", "2")
    sys.exit(main())
