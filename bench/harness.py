"""Benchmark engine: set-up probes, timed rounds, checks and metrics.

A run of one workload

1. writes the workload's inputs (derived configs, seeded tensor files);
2. starts ``SETUP_PROBES`` fresh interpreters that each stop at the first
   ``march`` call, and takes the median as ``setup_s``;
3. repeats rounds in a closed loop with one caller until the next round
   would overrun ``seconds``, every round traced or none;
4. checks every invocation's output and counts failures.

The speed of a shared two-core virtual machine drifts by 10-20% over
tens of seconds, which moves raw times between runs by more than any
useful regression bound.  Each round, and the set-up probes as a block,
is therefore bracketed by a calibration: a fixed interpreter-bound kernel
timed for ``CALIBRATION_S`` while the program is idle.  ``wall_s`` and
``setup_s`` are the raw times scaled by ``CAL_REF_S`` over the mean of the
two calibrations around them, i.e. the seconds they would take on a
machine where the kernel takes ``CAL_REF_S``.  On a 2-core Xeon virtual
machine this cut the run-to-run spread of ``defect2d`` from about 20% to
9%.  The raw medians are printed beside them as ``wall_raw_s`` and
``setup_raw_s``.
"""

from __future__ import annotations

import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import workloads
from layers import Target, Tracer

ROOT = workloads.ROOT
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

CALIBRATION_S = 0.5
# kernel time on the 2-core Xeon virtual machine the baseline was measured on
CAL_REF_S = 1.25e-4

END_TO_END = (
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

# layers reported with self time and call count per round
CALLED = (
    "fields.mollify",
    "fields.grad_l2_norm",
    "fields.write_snapshot",
    "transport.continuity_step",
    "stokes.build",
    "viscosity.coercivity_estimate",
    "stokes.solve",
    "stokes.solve_rhs",
    "stokes.apply",
)
# layers reported with self time only
SELF_ONLY = (
    "marching.picard_solve",
    "marching.march",
    "marching.direct_march",
    "diagnostics.rows_for_trajectory",
    "diagnostics.defect_inequality_audit",
    "diagnostics.energy_violation",
    "config.parse_config",
    "config.make_initial",
    "fields.read_snapshot",
)
# fields helpers split by the module that calls them: marching's energy
# accounting against the Krylov operator in stokes
SITES = (
    ("fields.jacobian", "marching"),
    ("fields.sym_grad", "marching"),
    ("fields.div", "marching"),
    ("fields.sym_grad", "stokes"),
    ("fields.grad", "stokes"),
)
COUNTS = (
    "marching.picard_iters",
    "marching.slab_halvings",
    "marching.cfl_retries",
    "marching.substeps_accepted",
)


def per_layer_specs():
    """(name, unit) of every per-layer metric, in report order."""
    specs = []
    for layer in CALLED:
        specs += [(f"{layer}.self_s", "s"), (f"{layer}.calls", "count")]
    specs += [("fields.write_snapshot.bytes", "bytes"), ("stokes.apply.span_s", "s")]
    specs += [("stokes.matvecs_per_solve", "matvec/solve")]
    specs += [(f"{layer}.self_s", "s") for layer in SELF_ONLY]
    specs += [(f"{layer}.{site}.self_s", "s") for layer, site in SITES]
    specs += [(name, "count") for name in COUNTS]
    specs += [("marching.substep_yield", "ratio"), ("anisostokes.import_s", "s")]
    specs += [
        ("cli.other_s", "s"),
        ("trace.coverage", "ratio"),
        ("trace.overhead", "ratio"),
        ("trace.spans", "count"),
    ]
    return specs


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------

def _git_commit():
    """HEAD of the checkout read from ``.git`` directly, or None outside git."""
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
    return None


def manifest(name, seed, seconds, trace, cfg):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    field_bytes = cfg.grid.ncells * 8
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_caps": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": name,
        "grid": {"dim": cfg.grid.dim, "n": list(cfg.grid.n)},
        "field_bytes": field_bytes,
    }


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------

def probe_setup(workload, work_dir):
    """Seconds from spawning a fresh interpreter to the first march call."""
    sub, cfg = workload.round[0]
    out_dir = Path(work_dir) / "probe"
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), sub, cfg, "--out", str(out_dir)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    shutil.rmtree(out_dir, ignore_errors=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["at"] - t0, record["import_s"]


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------

class Runner:
    """Runs rounds of one workload and checks every invocation's output."""

    def __init__(self, workload, seed, work_dir):
        self.workload = workload
        self.seed = seed
        self.work_dir = Path(work_dir)
        self.digests = {}
        self.failures = []
        self.attempted = 0

    def _fail(self, kind, context, detail):
        self.failures.append({"class": kind, "context": context, "detail": detail})

    def round(self, index, tracer=None):
        """Run one round; return the seconds spent inside ``cli.main``."""
        from anisostokes import cli

        wall = 0.0
        for k, (sub, cfg) in enumerate(self.workload.round):
            out_dir = self.work_dir / f"round{index}-{k}"
            context = f"{self.workload.name} round {index} {sub}"
            argv = [sub, cfg, "--strict", "--out", str(out_dir)]
            buf = io.StringIO()
            self.attempted += 1
            ok = False
            if tracer is not None:
                tracer.install()
            t0 = time.perf_counter()
            try:
                with redirect_stdout(buf):
                    rc = cli.main(argv)
                ok = True
            except Exception as exc:  # one failed study must not stop the run
                detail = "".join(traceback.format_exception_only(type(exc), exc)).strip()
                self._fail(type(exc).__name__, context, detail)
            finally:
                wall += time.perf_counter() - t0
                if tracer is not None:
                    tracer.restore()
            if ok:
                self._check(k, rc, buf.getvalue(), out_dir, context)
            shutil.rmtree(out_dir, ignore_errors=True)
        return wall

    def _check(self, k, rc, stdout, out_dir, context):
        fails = [line for line in stdout.splitlines() if line.startswith("FAIL")]
        if fails or rc != 0:
            self._fail("AuditFail", context, "; ".join(fails) or f"exit code {rc}")
            return
        digest = workloads.tree_digest(out_dir)
        first = self.digests.setdefault(k, digest)
        if digest != first:
            self._fail("Mismatch", context, "outputs differ from the first round")
            return
        bad = workloads.check_outputs(self.workload, self.seed, out_dir)
        if bad:
            self._fail("Mismatch", context, bad)


def _kernel():
    t0 = time.perf_counter()
    acc = 0
    for i in range(2000):
        acc += i * i
    return time.perf_counter() - t0


def calibrate(seconds=CALIBRATION_S):
    """Median time of a fixed interpreter-bound kernel repeated for ``seconds``."""
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        times.append(_kernel())
    return statistics.median(times)


def _median(values):
    return statistics.median(values) if values else 0.0


def high_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 11
    return 100.0 * rank / (n - 1), sorted(values)[rank]


def run(name, seed, seconds, trace, work_dir):
    """Run one workload; return the full record of the run."""
    from anisostokes.config import parse_config

    workload = workloads.prepare(name, work_dir, seed)
    cfg = parse_config(workload.config)
    samples = {"setup_raw_s": [], "wall_raw_s": [], "wall_s": []}
    imports = []
    cal = calibrate()
    for _ in range(SETUP_PROBES):
        setup_s, import_s = probe_setup(workload, work_dir)
        samples["setup_raw_s"].append(setup_s)
        imports.append(import_s)
    cal_next = calibrate()
    samples["setup_s"] = [t * CAL_REF_S * 2.0 / (cal + cal_next) for t in samples["setup_raw_s"]]
    cal = cal_next

    runner = Runner(workload, seed, work_dir)
    tracer = Tracer() if trace else None
    costs = []
    start = time.perf_counter()
    index = 0
    while True:
        t_round = time.perf_counter()
        wall = runner.round(index, tracer)
        cal_next = calibrate()
        samples["wall_raw_s"].append(wall)
        samples["wall_s"].append(wall * CAL_REF_S * 2.0 / (cal + cal_next))
        cal = cal_next
        costs.append(time.perf_counter() - t_round)
        index += 1
        if time.perf_counter() - start + _median(costs) > seconds:
            break

    if trace:
        metrics = layer_metrics(tracer, samples["wall_raw_s"], _median(imports), span_cost())
    else:
        metrics = {
            "wall_s": {"value": _median(samples["wall_s"]), "unit": "s"},
            "setup_s": {"value": _median(samples["setup_s"]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }
    return {
        "manifest": manifest(name, seed, seconds, trace, cfg),
        "why": workloads.WHY[name],
        "samples": samples,
        "failures": runner.failures,
        "result": result,
    }


def span_cost(calls=20000):
    """Seconds one wrapped call adds over a bare call (a no-op, median of 5)."""

    def noop():
        return None

    wrapped = Tracer()._wrap(noop, Target(None, "noop", "trace.noop", "trace"))
    costs = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - t1 - (t1 - t0)) / calls)
    return max(statistics.median(costs), 0.0)


def layer_metrics(tr, traced, import_s, cost):
    """Per-layer metrics, per traced round, from the tracer's stats.

    ``traced`` holds the wall time of each traced round and ``cost`` the
    time one span adds; ``trace.overhead`` is the share of the traced wall
    the spans cost.  The drift between runs on a shared machine (10-20%)
    is far larger than that share, so a traced run against an untraced one
    would not resolve it.
    """
    n = len(traced)
    values = {}
    for layer in CALLED:
        stat = tr.layer(layer)
        values[f"{layer}.self_s"] = stat.self_s / n
        values[f"{layer}.calls"] = stat.calls / n
    values["fields.write_snapshot.bytes"] = tr.layer("fields.write_snapshot").nbytes / n
    values["stokes.apply.span_s"] = tr.layer("stokes.apply").span_s / n
    solves = tr.layer("stokes.solve_rhs").calls
    values["stokes.matvecs_per_solve"] = tr.layer("stokes.apply").calls / solves if solves else 0.0
    for layer in SELF_ONLY:
        values[f"{layer}.self_s"] = tr.layer(layer).self_s / n
    for layer, site in SITES:
        values[f"{layer}.{site}.self_s"] = tr.layer(layer, site).self_s / n
    for name in COUNTS:
        values[name] = tr.counts.get(name, 0) / n
    steps = tr.layer("transport.continuity_step").calls
    values["marching.substep_yield"] = (
        tr.counts.get("marching.substeps_accepted", 0) / steps if steps else 0.0
    )
    values["anisostokes.import_s"] = import_s
    wall = sum(traced)
    covered = tr.covered_s()
    values["cli.other_s"] = (wall - covered) / n
    values["trace.coverage"] = covered / wall
    values["trace.overhead"] = tr.span_count() * cost / wall
    values["trace.spans"] = tr.span_count() / n
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_specs()}


def summary_lines(record):
    """Human-readable lines: every metric with its unit and sample count."""
    res = record["result"]
    man = record["manifest"]
    lines = [f"workload {man['workload']} seed {man['seed']} trace {int(man['trace'])}: {record['why']}"]
    samples = record["samples"]
    metrics = dict(res["metrics"])
    for name in ("wall_raw_s", "setup_raw_s"):
        metrics[name] = {"value": _median(samples[name]), "unit": "s"}
    for name, m in metrics.items():
        extra = ""
        if name.startswith("wall_"):
            walls = samples[name]
            hi = high_percentile(walls)
            tail = "no percentile has ten samples beyond it" if hi is None else f"p{hi[0]:.0f} {hi[1]:.4f} s"
            extra = f" (median of {len(walls)} rounds; {tail})"
        elif name.startswith("setup_"):
            extra = f" (median of {len(samples[name])} fresh interpreters)"
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
    share = res["failed"] / res["attempted"]
    lines.append(f"  failed_share = {share:.6g} ({res['failed']} of {res['attempted']} invocations)")
    for f in record["failures"]:
        lines.append(f"  failure {f['class']} [{f['context']}]: {f['detail']}")
    return lines
