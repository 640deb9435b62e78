"""Benchmark of the shaclass certificate pipeline, one workload per run.

    python3 shabench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it measures the program in the
checkout's `src`, reads the corpora in `tests/data`, and keeps every file
it writes under `.shabench/`.  Progress and diagnostics go to stderr.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the metrics are those BENCHMARK.json lists under
end_to_end (--trace 0) or per_layer (--trace 1).  See DESIGN.md.
"""

import argparse
import compileall
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REQUIRED = (
    "BENCHMARK.json",
    "src/shaclass/cli.py",
    "src/shaclass/fixtures",
    "tests/data/tate_corpus.json",
    "tests/data/image_corpus.json",
)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).exists()]
    if missing:
        print(f"error: not a shaclass checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, BenchError, Run

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(ROOT / "src"))
    # write bytecode before anything is timed, so no run pays for compiling
    compileall.compile_dir(ROOT / "src" / "shaclass", quiet=1)
    base = ROOT / ".shabench"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base))
    try:
        run = Run(ROOT, work, args.seed, args.seconds)
        attempted, failed, metrics = WORKLOADS[args.workload](run, bool(args.trace))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    absent = [m["name"] for m in wanted if m["name"] not in metrics]
    if absent:
        print(f"error: no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
