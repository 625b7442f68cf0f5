"""One benchmark sample: a fresh interpreter running one fracwave CLI call.

Started by run.py as

    python3 perfbench/sample.py --spawned-at T --result FILE
        [--config CFG] [--setup-only] [--trace] -- <cli arguments>

T is the parent's CLOCK_MONOTONIC reading just before the spawn, so set-up
time counts interpreter start, imports and config parsing, as a user's CLI
call pays them.  The verb runs through `fracwave.cli.entrypoint`, which wraps
`main` and maps errors to the exit codes README documents.  The result file
holds the timings, the exit code and, with --trace, the per-layer metrics.
"""

import argparse
import json
import resource
import sys
import time

# Exit code for a trace wrap point that no longer exists in the package.
MISSING_WRAP_POINT = 4


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--config")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    import fracwave.cli
    import fracwave.config

    imported = _now()
    if args.config:
        fracwave.config.parse_config_file(args.config)
    ready = _now()

    result = {
        "setup_s": ready - args.spawned_at,
        "import_s": imported - args.spawned_at,
        "parse_s": ready - imported,
    }
    if not args.setup_only:
        tracer = None
        if args.trace:
            import spans

            tracer = spans.Tracer()
            try:
                tracer.install()
            except spans.MissingWrapPoint as err:
                print(f"sample: {err}", file=sys.stderr)
                return MISSING_WRAP_POINT
        cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli
        cpu0, wall0 = _cpu(), time.perf_counter()
        rc = fracwave.cli.entrypoint(cli_args)
        wall1, cpu1 = time.perf_counter(), _cpu()
        result.update(
            exit_code=rc,
            wall_s=wall1 - wall0,
            cpu_s=cpu1 - cpu0,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
