"""Run configuration: dotted-key text files, initial data and forcing.

The format is deliberately plain: one ``key = value`` per line, ``#``
comments, UTF-8.  Every key has a default, so an empty file is a valid
configuration; unknown keys are hard errors so typos cannot silently fall
back to defaults, and so is a key given twice, so that no value silently
overrides another.  Relative snapshot paths (``viscosity.files``,
``forcing.path``, ``forcing.breakpoints``) are resolved against the
directory of the config file, and a snapshot that cannot be read is a
:class:`ParseError` naming the line of the key that points at it.

:data:`KEYS` is the one description of every key: its reader, the field
of :class:`RunConfig` it fills (whose dataclass default is the key's
default) and its accepted range.  A value out of range is a
:class:`ParseError` on its key's line, and so are an oscillatory
``initial.wavelength`` below four cells and a file forcing with no snapshot.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from anisostokes.diagnostics import DefectParams
from anisostokes.fields import GridSpec, ScalarField, read_snapshot
from anisostokes.transport import InvalidParameter, SolverParams
from anisostokes.viscosity import ConstantFull, DiagNu, VaryingFull

logger = logging.getLogger("anisostokes")


class ParseError(Exception):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnknownKey(Exception):
    def __init__(self, line, key):
        super().__init__(f"line {line}: unknown key {key!r}")
        self.line = line
        self.key = key


class UnresolvedWavelength(Exception):
    """Oscillation wavelength below four grid cells."""


@dataclass(frozen=True)
class InitialSpec:
    kind: str = "constant"
    value: float = 1.0
    amplitude: float = 0.2
    wavelength: float = 2 * np.pi / 16
    width: float = np.pi / 2
    base: str = "constant"


@dataclass(frozen=True)
class ForcingSpec:
    """Forcing potential; ``line`` is the config line naming its snapshots."""

    kind: str = "zero"
    amplitude: float = 0.0
    path: str = ""
    breakpoints: tuple = ()
    line: int = 0


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: SolverParams
    tensor: object
    initial: InitialSpec
    forcing: ForcingSpec
    defect_params: DefectParams
    commutator_delta: float = 0.0
    t_end: float = 0.1
    slab: float = 0.05
    store_every: int = 1
    out: str = "out"
    seed: int = 0
    sweep_deltas: tuple = (0.4, 0.2, 0.1, 0.05)
    sweep_eps_levels: tuple = (0.1, 0.01, 0.001)
    defect_ratios: tuple = (1.0, 4.0, 16.0)
    defect_windows: tuple = (4, 8)


# the dataclass behind each prefix of a _Key.field ("" is RunConfig itself)
_HOLDERS = {
    "": RunConfig,
    "params": SolverParams,
    "initial": InitialSpec,
    "forcing": ForcingSpec,
    "defect_params": DefectParams,
}


class _Key(NamedTuple):
    """How one config key is read, where its value goes and what it accepts.

    ``field`` is the value's attribute path in :class:`RunConfig`; that
    field's default is the key's default.  Keys that build the grid or the
    tensor have no field and keep their ``default`` here (a function of the
    grid dimension where it depends on it, described by ``note``).
    ``check`` is ``(accepts(value, grid), range)``; SolverParams checks its
    own fields.
    """

    reader: str
    field: str = ""
    check: tuple = None
    default: object = None
    note: str = ""


def _divides(window, grid):
    return window >= 1 and all(n % window == 0 for n in grid.n)


def _kind(*names):
    return (lambda v, _grid: v in names), "one of " + ", ".join(names)


_WINDOW = "a cell count >= 1 dividing every grid extent"
_AT_LEAST_0 = (lambda v, _grid: v >= 0), ">= 0"
_POSITIVE = (lambda v, _grid: v > 0), "> 0"
_AT_LEAST_1 = (lambda v, _grid: v >= 1), ">= 1"
_DELTAS = (
    lambda v, _grid: len(set(v)) == len(v) >= 3 and min(v) > 0
), "at least three distinct levels, each > 0"
_EPS_LEVELS = (lambda v, _grid: bool(v) and min(v) >= 0), "at least one level, each >= 0"
_RATIOS = (lambda v, _grid: all(r > 0 for r in v)), "ratios > 0"
_WINDOWS = (lambda v, grid: all(_divides(w, grid) for w in v)), f"each {_WINDOW}"

KEYS = {
    "grid.dim": _Key("integer", default=1),
    "grid.n": _Key("integer", default=lambda dim: 32 if dim == 3 else 128,
                   note="128 for dim 1 or 2, 32 for dim 3"),
    "params.gamma": _Key("real", "params.gamma"),
    "params.eps": _Key("real", "params.eps"),
    "params.delta": _Key("real", "params.delta"),
    "params.eta": _Key("real", "params.eta"),
    "transport.cfl": _Key("real", "params.cfl"),
    "transport.order": _Key("integer", "params.order"),
    "stokes.rtol": _Key("real", "params.stokes_rtol"),
    "stokes.max_iter": _Key("integer", "params.stokes_max_iter"),
    "run.t_end": _Key("real", "t_end", _AT_LEAST_0),
    "run.slab": _Key("real", "slab", _POSITIVE),
    "run.fp_tol": _Key("real", "params.fp_tol"),
    "run.fp_max_iter": _Key("integer", "params.fp_max_iter"),
    "run.dt_max": _Key("real", "params.dt_max"),
    "run.store_every": _Key("integer", "store_every", _AT_LEAST_1),
    "run.out": _Key("text", "out"),
    "run.seed": _Key("integer", "seed"),
    "viscosity.kind": _Key("text", check=_kind("diag", "constant", "varying"), default="diag"),
    "viscosity.nu": _Key("reals", default=lambda dim: (1.0,) * dim, note="1.0 per axis"),
    "viscosity.a": _Key("reals", default=(),
                        note="constant-full entries, dim^4 comma-separated, row-major"),
    "viscosity.files": _Key("text", default="",
                            note="varying entries, semicolon-separated ijkl:path snapshots"),
    "initial.kind": _Key("text", "initial.kind",
                         _kind("constant", "bump", "cosine", "oscillatory")),
    "initial.value": _Key("real", "initial.value"),
    "initial.amplitude": _Key("real", "initial.amplitude"),
    "initial.wavelength": _Key("real", "initial.wavelength"),
    "initial.width": _Key("real", "initial.width"),
    "initial.base": _Key("text", "initial.base", _kind("constant", "cosine", "bump")),
    "forcing.kind": _Key("text", "forcing.kind", _kind("zero", "cosine", "file")),
    "forcing.amplitude": _Key("real", "forcing.amplitude"),
    "forcing.path": _Key("path", "forcing.path"),
    "forcing.breakpoints": _Key("breakpoints", "forcing.breakpoints",
                                note="time:path pairs, semicolon-separated"),
    "diagnostics.window": _Key("integer", "defect_params.window", (_divides, _WINDOW)),
    "diagnostics.h_reg": _Key("real", "defect_params.h_reg", _AT_LEAST_0),
    "diagnostics.commutator_delta": _Key("real", "commutator_delta"),
    "sweep.deltas": _Key("reals", "sweep_deltas", _DELTAS),
    "sweep.eps_levels": _Key("reals", "sweep_eps_levels", _EPS_LEVELS),
    "defect.ratios": _Key("reals", "defect_ratios", _RATIOS),
    "defect.windows": _Key("integers", "defect_windows", _WINDOWS),
}


def default_of(key, dim=1):
    """The value ``key`` takes when a config on a ``dim``-D grid omits it."""
    spec = KEYS[key]
    if spec.field:
        holder, _, name = spec.field.rpartition(".")
        return next(f.default for f in fields(_HOLDERS[holder]) if f.name == name)
    return spec.default(dim) if callable(spec.default) else spec.default


def _read_keyed_snapshot(path, key, line):
    """The field of a snapshot named by ``key``; read failures name its line."""
    try:
        field, _t = read_snapshot(path)
    except (OSError, ValueError) as exc:
        raise ParseError(line, f"{key}: cannot read snapshot {path}: {exc}") from exc
    return field


def _parse_breakpoints(text, base_dir):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        t_text, _, path = chunk.partition(":")
        pairs.append((float(t_text), os.path.join(base_dir, path.strip())))
    if pairs != sorted(pairs, key=lambda p: p[0]):
        raise ValueError("breakpoints must be sorted by time")
    return tuple(pairs)


def _listed(convert):
    return lambda v, _dir: tuple(convert(x) for x in v.split(",") if x.strip())


# each _Key.reader: its converter (text, config directory) -> value, and what it expects
_READERS = {
    "real": (lambda v, _dir: float(v), "a real number"),
    "integer": (lambda v, _dir: int(v), "an integer"),
    "text": (lambda v, _dir: v, "text"),
    "reals": (_listed(float), "comma-separated reals"),
    "integers": (_listed(int), "comma-separated integers"),
    "path": (lambda v, base_dir: os.path.join(base_dir, v) if v else "", "a path"),
    "breakpoints": (_parse_breakpoints, "time:path pairs in increasing time"),
}


def _parse_lines(path):
    """Each key given in the file: its text value and line number."""
    entries = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ParseError(lineno, f"expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.split("#", 1)[0].strip()
            if key not in KEYS:
                raise UnknownKey(lineno, key)
            if key in entries:
                raise ParseError(
                    lineno, f"duplicate key {key!r}, first given on line {entries[key][1]}"
                )
            entries[key] = (value, lineno)
    return entries


def _read(key, text, line, base_dir):
    convert, what = _READERS[KEYS[key].reader]
    try:
        return convert(text, base_dir)
    except (ValueError, TypeError) as exc:
        raise ParseError(line, f"{key}: expected {what}, got {text!r}") from exc


def _build_tensor(value, lines, grid, base_dir):
    dim = grid.dim
    kind = value["viscosity.kind"]
    if kind == "diag":
        nu = value["viscosity.nu"]
        if len(nu) != dim:
            raise ParseError(
                lines.get("viscosity.nu", 0),
                f"viscosity.nu: expected {dim} entries, got {len(nu)}",
            )
        return DiagNu(nu)
    if kind == "constant":
        flat = value["viscosity.a"]
        if len(flat) != dim**4:
            raise ParseError(
                lines.get("viscosity.a", 0),
                f"viscosity.a: expected {dim**4} entries, got {len(flat)}",
            )
        return ConstantFull(np.array(flat).reshape((dim,) * 4))
    text = value["viscosity.files"]
    lineno = lines.get("viscosity.files", 0)
    if not text:
        raise ParseError(lineno, "viscosity.files: need at least one ijkl:path entry")
    values = np.zeros((dim,) * 4 + grid.shape)
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        idx, _, path = chunk.partition(":")
        idx = idx.strip()
        path = path.strip()
        if len(idx) != 4 or not idx.isdigit() or any(int(c) >= dim for c in idx):
            raise ParseError(lineno, f"viscosity.files: bad index group {idx!r} for dim {dim}")
        path = os.path.join(base_dir, path)
        coeff = _read_keyed_snapshot(path, "viscosity.files", lineno)
        if coeff.grid != grid:
            raise ParseError(
                lineno, f"viscosity.files: {path} grid does not match the run grid"
            )
        i, j, k, l = (int(c) for c in idx)
        values[i, j, k, l] = coeff.data
    return VaryingFull(grid, values)


def parse_config(path):
    """Read a configuration file into a fully-typed RunConfig."""
    entries = _parse_lines(path)
    lines = {key: lineno for key, (_text, lineno) in entries.items()}
    base_dir = os.path.dirname(os.path.abspath(path))
    given = {key: _read(key, text, lines[key], base_dir) for key, (text, _ln) in entries.items()}
    dim = given.get("grid.dim", default_of("grid.dim"))
    value = {key: given[key] if key in given else default_of(key, dim) for key in KEYS}
    try:
        grid = GridSpec(dim, value["grid.n"])
    except ValueError as exc:
        raise ParseError(lines.get("grid.dim") or lines.get("grid.n", 0), str(exc)) from exc

    def line_of(key):
        # an omitted key fails only when its default does not fit the grid
        return lines.get(key) or lines.get("grid.n") or lines.get("grid.dim", 0)

    held = {holder: {} for holder in _HOLDERS}
    for key, spec in KEYS.items():
        if spec.check and not spec.check[0](value[key], grid):
            raise ParseError(line_of(key), f"{key}: must be {spec.check[1]}, got {value[key]!r}")
        if spec.field:
            holder, _, name = spec.field.rpartition(".")
            held[holder][name] = value[key]
    if value["initial.kind"] == "oscillatory" and value["initial.wavelength"] < 4.0 * grid.h:
        raise ParseError(
            line_of("initial.wavelength"),
            f"initial.wavelength: must be at least 4 cells ({4.0 * grid.h:.4g}) "
            f"for initial.kind = oscillatory, got {value['initial.wavelength']!r}",
        )
    if value["forcing.kind"] == "file" and not (
        value["forcing.path"] or value["forcing.breakpoints"]
    ):
        raise ParseError(
            lines["forcing.kind"],
            "forcing.kind: must be zero or cosine without forcing.path or "
            "forcing.breakpoints, got 'file'",
        )
    try:
        params = SolverParams(**held["params"])
    except InvalidParameter as exc:
        key = next(k for k, spec in KEYS.items() if spec.field == f"params.{exc.field}")
        raise ParseError(lines.get(key, 0), str(exc)) from exc

    forcing_key = "forcing.breakpoints" if value["forcing.breakpoints"] else "forcing.path"
    return RunConfig(
        grid=grid,
        params=params,
        tensor=_build_tensor(value, lines, grid, base_dir),
        initial=InitialSpec(**held["initial"]),
        forcing=ForcingSpec(**held["forcing"], line=lines.get(forcing_key, 0)),
        defect_params=DefectParams(**held["defect_params"]),
        **held[""],
    )


def _base_field(kind, spec, grid):
    xs = grid.meshgrid()
    if kind == "constant":
        return ScalarField.constant(grid, spec.value)
    if kind == "cosine":
        return ScalarField(grid, spec.value + spec.amplitude * np.cos(xs[0]))
    if kind == "bump":
        center = np.pi
        r2 = sum((x - center) ** 2 for x in xs)
        profile = np.exp(-(r2 / spec.width**2))
        return ScalarField(grid, spec.value + spec.amplitude * profile)
    raise ValueError(f"unknown field kind {kind!r}")


def make_initial(spec, grid):
    """Build the initial density; nonnegative by construction or clipping."""
    if spec.kind in ("constant", "cosine", "bump"):
        out = _base_field(spec.kind, spec, grid)
    elif spec.kind == "oscillatory":
        if spec.wavelength < 4.0 * grid.h:
            raise UnresolvedWavelength(
                f"wavelength {spec.wavelength:.4g} needs at least 4 cells, "
                f"grid spacing is {grid.h:.4g}"
            )
        base = _base_field(spec.base, spec, grid)
        xs = grid.meshgrid()
        factor = 1.0 + spec.amplitude * np.sin(2.0 * np.pi * xs[0] / spec.wavelength)
        data = base.data * factor
        clipped = int((data < 0.0).sum())
        if clipped:
            logger.info("initial data clipped %d negative cells to zero", clipped)
            data = np.maximum(data, 0.0)
        out = ScalarField(grid, data)
    else:
        raise ValueError(f"unknown initial kind {spec.kind!r}")
    if out.min() < 0.0:
        clipped = int((out.data < 0.0).sum())
        logger.info("initial data clipped %d negative cells to zero", clipped)
        out = ScalarField(grid, np.maximum(out.data, 0.0))
    return out


def make_forcing(spec, grid):
    """Build the forcing potential: None, a static field, or time-dependent."""
    if spec.kind == "zero":
        return None
    if spec.kind == "cosine":
        xs = grid.meshgrid()
        return ScalarField(grid, spec.amplitude * np.cos(xs[0]))
    if spec.kind == "file":
        if spec.breakpoints:
            pieces = []
            for t_start, path in spec.breakpoints:
                f = _read_keyed_snapshot(path, "forcing.breakpoints", spec.line)
                if f.grid != grid:
                    raise ValueError(f"{path}: snapshot grid does not match the run grid")
                pieces.append((t_start, f))

            def lookup(t):
                current = pieces[0][1]
                for t_start, f in pieces:
                    if t >= t_start - 1e-15:
                        current = f
                return current

            return lookup
        f = _read_keyed_snapshot(spec.path, "forcing.path", spec.line)
        if f.grid != grid:
            raise ValueError(f"{spec.path}: snapshot grid does not match the run grid")
        return f
    raise ValueError(f"unknown forcing kind {spec.kind!r}")
