"""Study-level benchmark for anisostokes.

Runs one workload (or all four) in a closed loop with one caller, checks
every study's output and prints each metric by name with its unit.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --workload defect2d --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --trace 0        # every workload
    python3 bench/run.py --workload all --save FILE      # traced and untraced
    python3 bench/run.py --report [FILE]                 # table from a saved file

With ``--trace 0`` the metrics are the end-to-end ones (``wall_s``,
``setup_s``, ``peak_rss_mb``; ``harness.py`` explains how the times are
calibrated, and the raw times and ``failed_share`` are printed above the
JSON line); with ``--trace 1`` they are the per-layer ones from wrapped
layer boundaries (see ``layers.py``).

``reference/`` holds the CSVs the studies wrote on the default seed when
the benchmark was added; ``results/baseline.json`` is the file that
``--report`` reads, written by ``--workload all --save``.
"""

import os
import sys

# cap BLAS/OpenMP threads at the cores this process may use, before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(len(os.sched_getaffinity(0)))

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BASELINE = BENCH / "results" / "baseline.json"
WORK = ROOT / ".bench_work"
REQUIRED = (
    SRC / "anisostokes" / "__init__.py",
    ROOT / "configs" / "defect2d.cfg",
    ROOT / "configs" / "canonical3d.cfg",
    ROOT / "configs" / "sweep1d.cfg",
    ROOT / "tests" / "data" / "defect_study_golden.csv",
)


def _check_checkout():
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.exists()]
    if missing:
        sys.exit(f"bench: not an anisostokes checkout, missing {', '.join(missing)}")
    sys.path.insert(0, str(SRC))
    import anisostokes

    if Path(anisostokes.__file__).resolve().parent != SRC / "anisostokes":
        sys.exit(f"bench: imported anisostokes from {anisostokes.__file__}, not {SRC}")


def run_one(args):
    import harness

    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        record = harness.run(args.workload, args.seed, args.seconds, args.trace == 1, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    for line in harness.summary_lines(record):
        print(line)
    print("manifest " + json.dumps(record["manifest"], sort_keys=True))
    if args.save:
        Path(args.save).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record["result"]), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process, so that peak memory is its own."""
    import workloads

    traces = (0, 1) if args.save else (args.trace,)
    WORK.mkdir(exist_ok=True)
    records = {}
    ok = True
    attempted = failed = 0
    metrics = {}
    for name in workloads.NAMES:
        for trace in traces:
            with tempfile.NamedTemporaryFile(dir=WORK, suffix=".json") as tmp:
                cmd = [
                    sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace), "--save", tmp.name,
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
                if proc.returncode != 0:
                    sys.stderr.write(proc.stderr)
                    sys.exit(f"bench: workload {name} exited with {proc.returncode}")
                record = json.loads(Path(tmp.name).read_text())
            records.setdefault(name, {})[f"trace{trace}"] = record
            print("\n".join(proc.stdout.splitlines()[:-2]), flush=True)
            res = record["result"]
            ok = ok and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for metric, value in res["metrics"].items():
                metrics[f"{name}.{metric}"] = value
    WORK.rmdir()
    if args.save:
        Path(args.save).write_text(json.dumps(records, indent=1) + "\n")
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def report(path):
    """Print the baseline table from a file written by ``--workload all --save``."""
    import report as rep

    records = json.loads(Path(path).read_text())
    print("\n".join(rep.table(records)))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the full record as JSON to this file")
    parser.add_argument(
        "--report", nargs="?", const=str(BASELINE), metavar="FILE",
        help="print the baseline table from a saved file and exit",
    )
    args = parser.parse_args(argv)
    if args.report:
        return report(args.report)
    _check_checkout()
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)} or 'all'")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
