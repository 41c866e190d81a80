"""Command-line driver: single runs, parameter sweeps and tensor audits.

Every subcommand reads one config file, whose parse builds the run's
inputs (each snapshot the config names is read there, once), writes its
artifacts (snapshots, CSV tables) to the output directory and prints one
PASS/FAIL line per audit.  With ``--strict`` the exit code is 0 only when
every audit passed; without it the audits are informational and the exit
code is 0 unless an error is raised.  A config that cannot be parsed, a
snapshot it names that cannot be read, or initial data that overflows or
has zero mass, prints one ``FAIL config`` line, makes no output directory
and exits 2; a solver breakdown (any
:class:`~anisostokes.fields.SolverFailure`: a stress law that is not
coercive or has a singular symbol, a Krylov or drag Newton solve that
fails, a field that overflows to inf or nan, a slab that does not
contract or would need a runaway number of substeps; or a numpy
``FloatingPointError``) prints one ``FAIL solver`` line and exits 3.  That
line names the config line of the stress law when the law is not coercive
or has a singular symbol, and the slab (or step) when the failure is
raised inside a march.  Every study that writes makes its output
directory, with any missing parents, before it starts, and removes the
ones it made again if it fails before writing anything there.  An output
directory that cannot be made, or a file in it that cannot be written,
prints one ``FAIL output: <dir>: <reason>`` line and exits 2, before any
marching in the first case.

Every command that marches streams: its marches hand each stored state to
an observer that keeps only the scalars (or the final density) it reports,
so memory does not grow with the number of stored states.  ``run``'s
observer writes each state's snapshots as it arrives and keeps its
diagnostics row; the CSV and the audits follow the march.  A solver
failure in a ``run`` therefore leaves the snapshots of the states stored
before it, and no ``diagnostics.csv``.

Every study that marches more than once (``defect-study`` one march per
ratio, ``sweep-delta`` per mollifier radius and the direct march,
``sweep-eps`` per level) marches its first item in the calling process and
the others in forked workers, up to one per CPU; the workers start at the
first march's first stored state, so all the marches run together.  Each
worker's memory peaks at about that of a serial march.  The studies run
serially at one CPU, on Python 3.12 or later, and when a worker cannot be
forked.  Their output, audit lines and exit code are those of a serial
study; a failing study kills the workers still marching.  A worker that
dies prints one ``FAIL solver`` line naming its item and signal.  Nothing
is forked before the first march.

Every study runs with numpy's floating-point errors raised, so an overflow
or an invalid operation stops the study where it happens, as a
``FAIL solver`` line, instead of printing a warning and carrying inf or nan
on.  Forked workers inherit that.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import pickle
import signal
import sys
from dataclasses import astuple, replace
from functools import partial, wraps

import numpy as np

from anisostokes.config import KEYS, ParseError, default_of, parse_config
from anisostokes.diagnostics import (
    CSV_HEADER,
    defect_inequality,
    defect_proxies,
    energy_slacks,
    pressure_l2_audit,
    state_row,
    worst_violation,
    write_csv,
)
from anisostokes.fields import MollifierKernel, ScalarField, SolverFailure, write_snapshot
from anisostokes.marching import Trajectory, direct_march, march
from anisostokes.stokes import NotCoercive, SingularSymbol, audit_hypotheses
from anisostokes.transport import pressure_integral
from anisostokes.viscosity import DiagNu


def _audit(results, name, ok, detail):
    results.append((name, bool(ok)))
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return bool(ok)


class _OutputFailure(Exception):
    """An OSError raised by making the output directory or writing a file in it."""


@contextlib.contextmanager
def _writing(out_dir):
    """Report an OSError raised inside as an :class:`_OutputFailure` of ``out_dir``."""
    try:
        yield
    except OSError as exc:
        raise _OutputFailure(f"{out_dir}: {exc.strerror or exc}") from exc


def _writes_output(cmd):
    """The study ``cmd(cfg, out_dir)`` with ``out_dir`` made before it starts;
    if the study fails, the directories made here that are still empty,
    ``out_dir`` and any parents made with it, are removed again."""

    @wraps(cmd)
    def study(cfg, out_dir):
        missing = []  # deepest first
        path = os.path.abspath(out_dir)
        while not os.path.lexists(path):
            missing.append(path)
            path = os.path.dirname(path)
        try:
            with _writing(out_dir):
                os.makedirs(out_dir, exist_ok=True)
            return cmd(cfg, out_dir)
        except BaseException:
            for path in missing:
                try:
                    os.rmdir(path)
                except OSError:
                    break
            raise

    return study


def _write_table(out_dir, name, header, rows):
    """Write the CSV table ``name`` into ``out_dir``."""
    with _writing(out_dir):
        write_csv(os.path.join(out_dir, name), header, rows)


def _march_config(cfg, observe, params=None, tensor=None):
    tensor = cfg.tensor if tensor is None else tensor
    params = cfg.params if params is None else params
    return march(
        tensor, cfg.rho0, cfg.forcing, params, cfg.t_end, cfg.slab,
        store_every=cfg.store_every, observe=observe,
    )


class _Series:
    """An observer for ``march(..., observe=...)`` that keeps no fields but
    the first and the last stored density, and ``each(rho)`` of every stored
    state in time order; ``at_first()``, if given, is called at the first
    state, before anything else."""

    def __init__(self, each=None, at_first=None):
        self.each = each
        self.at_first = at_first
        self.values = []
        self.first = self.last = None

    def __call__(self, _t, rho, _velocity, _ledger):
        if self.first is None:
            if self.at_first is not None:
                self.at_first()
            self.first = rho
        self.last = rho
        if self.each is not None:
            self.values.append(self.each(rho))


def _mass_identity(results, traj, name="mass-identity"):
    """Audit the mass identity of every ledger; return the worst defect."""
    mass0 = traj.ledgers[0].mass_initial
    worst = max(ledger.identity_defect() for ledger in traj.ledgers)
    _audit(
        results,
        name,
        worst <= 1e-10 * mass0,
        f"max defect {worst:.3e} against 1e-10 * {mass0:.6g}",
    )
    return worst


def _energy_slack(results, e0, violation, name="energy-slack"):
    """Audit an energy violation against the initial pressure ``e0``; return it."""
    _audit(
        results,
        name,
        violation <= 1e-2 * max(e0, 1e-300),
        f"violation {violation:.3e} against 1e-2 * {e0:.6g}",
    )
    return violation


@_writes_output
def cmd_run(cfg, out_dir):
    results = []
    gamma, dp = cfg.params.gamma, cfg.defect_params
    rows = []
    kernel = None
    if cfg.commutator_delta > 0.0:
        kernel = MollifierKernel(cfg.grid, cfg.commutator_delta)

    def observe(t, rho, velocity, ledger):
        """Write the state's snapshots and keep its diagnostics row."""
        i = len(rows)
        u = velocity()
        with _writing(out_dir):
            write_snapshot(os.path.join(out_dir, f"rho_{i:06d}.asf"), rho, t)
            for a, comp in enumerate(u.components):
                write_snapshot(os.path.join(out_dir, f"u{a}_{i:06d}.asf"), comp, t)
        e0 = rows[0].pgamma_integral if rows else None
        rows.append(state_row(t, rho, u, ledger, e0, gamma, dp, kernel))

    traj = _march_config(cfg, observe=observe)
    _write_table(out_dir, "diagnostics.csv", CSV_HEADER, map(astuple, rows))

    _mass_identity(results, traj)
    _audit(
        results,
        "positivity",
        traj.min_rho_ever >= 0.0,
        f"min density {traj.min_rho_ever:.6g}",
    )
    if cfg.params.eta == 0.0:
        scale = max(1.0, max(row.rho_max for row in rows))
        _audit(
            results,
            "max-principle",
            traj.max_principle_margin >= -1e-12 * scale,
            f"worst margin {traj.max_principle_margin:.3e}",
        )
    _energy_slack(
        results, rows[0].pgamma_integral, worst_violation([row.energy_slack for row in rows])
    )
    series = [row.defect_proxy for row in rows]
    lhs, rhs, ok = defect_inequality(
        traj.times, series, rows[0].rho_max, traj.ledgers[-1], cfg.grid, gamma, dp
    )
    _audit(
        results,
        "defect-inequality",
        ok,
        f"lhs {lhs:.6g} against rhs {rhs:.6g} (window {dp.window})",
    )
    print(f"wrote {len(traj)} snapshots and diagnostics.csv to {out_dir}")
    return results


def _delta_final(cfg, delta, at_first=None):
    """The last stored density of the sweep's march at mollifier radius
    ``delta``, as an array; ``delta`` = 0 is the direct march.
    ``at_first()``, if given, is called at the first stored state."""
    final = _Series(at_first=at_first)
    params = replace(cfg.params, delta=delta)
    if delta > 0.0:
        _march_config(cfg, params=params, observe=final)
    else:
        direct_march(
            cfg.tensor, cfg.rho0, cfg.forcing, params, cfg.t_end,
            store_every=cfg.store_every, observe=final,
        )
    return final.last.data


@_writes_output
def cmd_sweep_delta(cfg, out_dir):
    """One march per radius, finest last, then the direct march (see :func:`_fan_out`)."""
    results = []
    deltas = tuple(sorted(cfg.sweep_deltas, reverse=True))
    *finals, direct = [
        ScalarField(cfg.grid, data)
        for data in _fan_out(partial(_delta_final, cfg), (*deltas, 0.0), "delta")
    ]

    gaps = [
        (finals[i + 1] - finals[i]).l2_norm() for i in range(len(finals) - 1)
    ]
    to_direct = [(rho - direct).l2_norm() for rho in finals]

    _write_table(
        out_dir,
        "sweep_delta.csv",
        "delta,gap_to_coarser,dist_to_direct",
        zip(deltas, [""] + gaps, to_direct),
    )

    # two zero gaps leave nothing to contract; a gap after a zero one does not contract
    ratios = [
        b / a if a > 0.0 else (0.0 if b == 0.0 else float("inf"))
        for a, b in zip(gaps, gaps[1:])
    ]
    _audit(
        results,
        "delta-contraction",
        all(r <= 0.7 for r in ratios),
        "successive gap ratios " + ", ".join(f"{r:.3f}" for r in ratios),
    )
    _audit(
        results,
        "delta-limit",
        to_direct[-1] <= 2.0 * gaps[-1],
        f"finest-to-direct {to_direct[-1]:.3e} against 2 * last gap {gaps[-1]:.3e}",
    )
    print(f"wrote sweep_delta.csv to {out_dir}")
    return results


def _eps_series(cfg, level, at_first=None):
    """March the eps sweep at eps = eta = ``level``.

    Returns what its audits read: the ledgers of the stored states and the
    pressure integral of each.  ``at_first()``, if given, is called at the
    first stored state.
    """
    gamma = cfg.params.gamma
    integrals = _Series(lambda rho: pressure_integral(rho, gamma), at_first)
    traj = _march_config(cfg, params=replace(cfg.params, eps=level, eta=level), observe=integrals)
    return traj.ledgers, integrals.values


@_writes_output
def cmd_sweep_eps(cfg, out_dir):
    """One march per level (see :func:`_fan_out`), each audited as it arrives,
    so a failing level prints after the audit lines of those before it."""
    results = []
    rows = []
    pressures = []
    gamma = cfg.params.gamma
    levels = cfg.sweep_eps_levels
    marches = _fan_out(partial(_eps_series, cfg), levels, "level")
    with contextlib.closing(marches):
        for level, (ledgers, integrals) in zip(levels, marches):
            traj = Trajectory(ledgers=ledgers)
            defect = _mass_identity(results, traj, f"mass-identity[{level:g}]")
            e0 = integrals[0]
            slacks = energy_slacks(e0, integrals, ledgers, gamma)
            violation = _energy_slack(
                results, e0, worst_violation(slacks), f"energy-slack[{level:g}]"
            )
            pl2 = pressure_l2_audit(traj)
            pressures.append(pl2)
            rows.append((level, defect, violation, pl2))

    _write_table(
        out_dir, "sweep_eps.csv", "level,mass_defect,energy_violation,pressure_l2", rows
    )

    spread = max(pressures) / max(min(pressures), 1e-300)
    _audit(
        results,
        "pressure-l2-uniform",
        spread <= 2.0,
        f"max/min pressure L2 {spread:.3f} against 2.0",
    )
    print(f"wrote sweep_eps.csv to {out_dir}")
    return results


def _defect_series(cfg, dps, ratio, at_first=None):
    """March the defect study at one anisotropy ``ratio``.

    Returns what its audits read: the stored times, each state's proxies
    (one per window of ``dps``), the initial density's maximum and the
    final ledger.  ``at_first()``, if given, is called at the first stored
    state.
    """
    base = cfg.tensor.nu
    nu = base[:-1] + (base[-1] * ratio,)
    gamma = cfg.params.gamma
    proxies = _Series(lambda rho: defect_proxies(rho, gamma, dps), at_first)
    traj = _march_config(cfg, tensor=DiagNu(nu), observe=proxies)
    return traj.times, proxies.values, proxies.first.max(), traj.ledgers[-1]


# Python 3.12 deprecates forking a process that runs threads, and numpy's
# BLAS starts threads at import, so every fork would warn there
_FORK_WARNS = sys.version_info >= (3, 12)


class WorkerFailure(SolverFailure):
    """A forked worker that died, or whose reply cannot be pickled."""


class _ForkedMap:
    """``fn(x) for x in items``, spread over forked workers, one per CPU.

    :meth:`start` forks the workers and returns at once, so the caller
    works alongside them; :meth:`results` yields the values in item order,
    computing them here if no worker was started.  Serial when fewer than
    two workers would run (always so where ``os.sched_getaffinity`` is
    missing), on Python 3.12 or later, and when a pipe or a fork fails
    (the workers already forked are then killed).  Worker k computes items
    k, k + workers, ... and pickles one ``(ok, value or exception)`` per
    item down its own pipe.  :meth:`results` raises the first exception in
    item order, or a :class:`WorkerFailure` naming the item (``name`` and
    value) of a worker that died.  Every worker has been reaped when the
    ``with`` block around the map is left, however it is left: those still
    running are killed.  Workers are forked, not spawned: a spawned worker
    imports numpy and the package again, and on ``defect2d`` that took as
    long as the march it saved.
    """

    def __init__(self, fn, items, name):
        self.fn = fn
        self.items = items
        self.name = name
        self.pids = []  # None once reaped
        self.pipes = []

    def __enter__(self):
        return self

    def __exit__(self, *_exc):
        self._stop()

    def _stop(self):
        """Kill and reap the workers still running and close every pipe."""
        for k, pid in enumerate(self.pids):
            self.pipes[k].close()
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                self._reap(k)
        self.pids, self.pipes = [], []

    def start(self):
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
        workers = min(len(self.items), cpus)
        if workers < 2 or _FORK_WARNS:
            return
        try:
            for k in range(workers):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(read)
                    os.close(write)
                    raise
                if pid == 0:
                    os.close(read)
                    self._work(self.items[k::workers], write)
                os.close(write)
                self.pids.append(pid)
                self.pipes.append(os.fdopen(read, "rb"))
        except OSError:  # out of processes or descriptors: march serially
            self._stop()

    def _work(self, items, write):
        """A worker's body: it ends in ``os._exit``, never returning into the caller's stack."""
        try:
            with os.fdopen(write, "wb") as out:
                for x in items:
                    try:
                        reply = (True, self.fn(x))
                    except Exception as exc:  # raised by results()
                        reply = (False, exc)
                    try:
                        data = pickle.dumps(reply)
                    except Exception:
                        reply = (False, WorkerFailure(
                            f"the worker for {self.name} {x} cannot pickle "
                            f"{type(reply[1]).__name__}: {reply[1]}"
                        ))
                        data = pickle.dumps(reply)
                    out.write(data)
                    if not reply[0]:
                        break
            os._exit(0)
        finally:
            os._exit(1)

    def _reap(self, k):
        """Wait for worker k; return how it ended."""
        status = os.waitpid(self.pids[k], 0)[1]
        self.pids[k] = None
        code = os.waitstatus_to_exitcode(status)
        return f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"

    def results(self):
        for i, x in enumerate(self.items):
            if not self.pipes:
                yield self.fn(x)
                continue
            k = i % len(self.pipes)
            try:
                ok, value = pickle.load(self.pipes[k])
            except (EOFError, pickle.UnpicklingError):
                ok, value = False, WorkerFailure(
                    f"the worker for {self.name} {x} {self._reap(k)} before handing it back"
                )
            if not ok:
                raise value
            yield value


def _fan_out(fn, items, name):
    """Yield ``fn(x)`` for each of ``items``, in order.

    ``items[0]`` is marched here, as ``fn(items[0], at_first=...)``, and
    the others by a :class:`_ForkedMap` whose workers it starts at that
    call; ``name`` names an item in a :class:`WorkerFailure`.  The workers
    are reaped once the generator is finished or closed.
    """
    with _ForkedMap(fn, items[1:], name) as rest:
        yield fn(items[0], at_first=rest.start)
        yield from rest.results()


@_writes_output
def cmd_defect_study(cfg, out_dir):
    """One march per anisotropy ratio (see :func:`_fan_out`)."""
    results = []
    if not isinstance(cfg.tensor, DiagNu):
        raise ParseError(
            cfg.tensor_line,
            "the defect study scales a per-axis viscosity; use viscosity.kind = diag",
        )
    gamma = cfg.params.gamma
    dps = [replace(cfg.defect_params, window=window) for window in cfg.defect_windows]
    ratios = cfg.defect_ratios
    marches = list(_fan_out(partial(_defect_series, cfg, dps), ratios, "ratio"))

    rows = []
    all_ok = True
    for ratio, (times, proxies, rho0_max, ledger) in zip(ratios, marches):
        for k, dp in enumerate(dps):
            series = [row[k] for row in proxies]
            lhs, rhs, ok = defect_inequality(times, series, rho0_max, ledger, cfg.grid, gamma, dp)
            all_ok = all_ok and ok
            rows.append((ratio, dp.window, lhs, rhs, "true" if ok else "false"))
    _write_table(out_dir, "defect_study.csv", "ratio,window,lhs,rhs,passed", rows)

    _audit(
        results,
        "defect-inequality-study",
        all_ok,
        f"ratios {tuple(cfg.defect_ratios)} x windows {tuple(cfg.defect_windows)}",
    )
    print(f"wrote defect_study.csv to {out_dir}")
    return results


def cmd_check_tensor(cfg, out_dir):
    results = []
    report = audit_hypotheses(cfg.tensor, cfg.grid)
    _audit(
        results,
        "symmetric-stress",
        report.h1_passed,
        f"max residual {report.h1_max_residual:.3e}",
    )
    _audit(
        results,
        "coercivity",
        report.coercivity.passed,
        f"c_est {report.coercivity.c_est:.6g}",
    )
    if report.h4_symbol_invertible is not None:
        norm = (
            "not sampled"
            if report.h4_sample_norm is None
            else f"{report.h4_sample_norm:.6g}"
        )
        _audit(
            results,
            "symbol-invertible",
            report.h4_symbol_invertible,
            f"sampled inverse-gradient norm {norm}",
        )
    print(f"note: {report.h2_note}")
    return results


_COMMANDS = {
    "run": cmd_run,
    "sweep-delta": cmd_sweep_delta,
    "sweep-eps": cmd_sweep_eps,
    "defect-study": cmd_defect_study,
    "check-tensor": cmd_check_tensor,
}


def _shown_default(key):
    """The default of ``key`` written as a config value, or its note."""
    if KEYS[key].note:
        return f"({KEYS[key].note})"
    value = default_of(key)
    return ",".join(map(str, value)) if isinstance(value, tuple) else str(value)


def _key_help():
    width = max(len(k) for k in KEYS)
    rows = [f"  {k.ljust(width)}  default: {_shown_default(k)}" for k in KEYS]
    return "config keys (key = value per line, # comments):\n" + "\n".join(rows)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="aniso-stokes",
        description="Periodic compressible Stokes solver with anisotropic viscosity.",
        epilog=_key_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"{name} study")
        p.add_argument("config", help="path to the run configuration file")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit nonzero unless every audit passes",
        )
        p.add_argument("--out", default=None, help="output directory (overrides run.out)")
    return parser


def _config_failure(path, exc):
    print(f"FAIL config: {path}: {exc}")
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(name)s: %(message)s")

    try:
        cfg = parse_config(args.config)
    except ParseError as exc:
        return _config_failure(args.config, exc)
    out_dir = args.out if args.out is not None else cfg.out
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            results = _COMMANDS[args.command](cfg, out_dir)
    except ParseError as exc:
        return _config_failure(args.config, exc)
    except (SolverFailure, FloatingPointError) as exc:
        where = ""
        if isinstance(exc, (NotCoercive, SingularSymbol)) and cfg.tensor_line:
            where = f" (stress law: line {cfg.tensor_line})"
        print(f"FAIL solver: {type(exc).__name__}: {exc}{where}")
        return 3
    except _OutputFailure as exc:
        print(f"FAIL output: {exc}")
        return 2

    failed = [name for name, ok in results if not ok]
    if failed:
        print(f"{len(failed)} of {len(results)} audits failed: {', '.join(failed)}")
    else:
        print(f"all {len(results)} audits passed")
    if args.strict and failed:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
