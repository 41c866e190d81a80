"""Run configuration: dotted-key text files, built into every run input.

The format is deliberately plain: one ``key = value`` per line, ``#``
comments, UTF-8.  Every key has a default, so an empty file is a valid
configuration; unknown keys are hard errors so typos cannot silently fall
back to defaults, and so is a key given twice, so that no value silently
overrides another.  :func:`parse_config` builds each input of a run once:
the stress law, the initial density and the forcing (None or one field,
constant in time).  Relative snapshot paths (``viscosity.files`` and
``forcing.path``) are resolved against the directory of the config file,
and a snapshot that cannot be read is a :class:`ParseError` naming the
line of the key that points at it.

:data:`KEYS` is the one description of every key: its reader, its default
(held by the field it fills, or by the key when it builds an input) and
its accepted range.  A byte that is not UTF-8, a value out of range, or a
real that reads as inf or nan, is a :class:`ParseError` on its line, and
so is an oscillatory ``initial.wavelength`` below four cells; a tensor or
forcing kind given without the data it needs is one on the kind's line,
and so is initial data that overflows.  An initial density with zero mass
after clipping is one on the ``initial.value`` line (the kind's, if the
value is default).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from anisostokes.diagnostics import DefectParams
from anisostokes.fields import GridSpec, NonFiniteField, PicklableError, ScalarField, read_snapshot
from anisostokes.transport import InvalidParameter, SolverParams
from anisostokes.viscosity import ConstantFull, DiagNu, VaryingFull

logger = logging.getLogger("anisostokes")


class ParseError(PicklableError, Exception):
    def __init__(self, line, reason):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class UnknownKey(ParseError):
    def __init__(self, line, key):
        super().__init__(line, f"unknown key {key!r}")
        self.key = key


@dataclass(frozen=True)
class RunConfig:
    """A parsed configuration with its run inputs built: the stress law
    ``tensor``, the initial density ``rho0`` and the ``forcing``, None or a
    field constant in time.  ``tensor_line`` is the config line of the key
    that sets the stress law (0 when the file leaves it to the default)."""

    grid: GridSpec
    params: SolverParams
    tensor: object
    rho0: ScalarField
    forcing: ScalarField | None
    defect_params: DefectParams
    tensor_line: int = 0
    commutator_delta: float = 0.0
    t_end: float = 0.1
    slab: float = 0.05
    store_every: int = 1
    out: str = "out"
    sweep_deltas: tuple = (0.4, 0.2, 0.1, 0.05)
    sweep_eps_levels: tuple = (0.1, 0.01, 0.001)
    defect_ratios: tuple = (1.0, 4.0, 16.0)
    defect_windows: tuple = (4, 8)


# the dataclass behind each prefix of a _Key.field ("" is RunConfig itself)
_HOLDERS = {
    "": RunConfig,
    "params": SolverParams,
    "defect_params": DefectParams,
}


class _Key(NamedTuple):
    """How one config key is read, where its value goes and what it accepts.

    ``field`` is the value's attribute path in :class:`RunConfig`, whose
    default is the key's default.  Keys that build the grid or a run input
    have no field and keep their ``default`` here (a function of the grid
    dimension where it depends on it, described by ``note``).
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


# run.t_end / run.slab above this is a runaway slab count, not a march
_MAX_SLABS = 10_000
_WINDOW = "a cell count >= 1 dividing every grid extent"
_AT_LEAST_0 = (lambda v, _grid: v >= 0), ">= 0"
_POSITIVE = (lambda v, _grid: v > 0), "> 0"
_AT_LEAST_1 = (lambda v, _grid: v >= 1), ">= 1"
# the bump profile divides by width**2, which underflows to 0 below ~1e-154
_POSITIVE_SQUARE = (lambda v, _grid: v > 0 and v**2 > 0), "> 0 with width**2 > 0"
# a mollifier radius above pi, half the box, has a stencil wider than the grid
_RADIUS = (lambda v, _grid: 0 <= v <= np.pi), "between 0 and pi"
_DELTAS = (
    lambda v, _grid: len(set(v)) == len(v) >= 3 and 0 < min(v) and max(v) <= np.pi
), "at least three distinct levels, each > 0 and <= pi"
_EPS_LEVELS = (lambda v, _grid: bool(v) and min(v) >= 0), "at least one level, each >= 0"
_EACH_POSITIVE = (lambda v, _grid: bool(v) and min(v) > 0), "at least one, each > 0"
_WINDOWS = (
    lambda v, grid: bool(v) and all(_divides(w, grid) for w in v)
), f"at least one, each {_WINDOW}"

KEYS = {
    "grid.dim": _Key("integer", default=1),
    "grid.n": _Key("integer", default=lambda dim: 32 if dim == 3 else 128,
                   note="128 for dim 1 or 2, 32 for dim 3"),
    "params.gamma": _Key("real", "params.gamma"),
    "params.eps": _Key("real", "params.eps"),
    "params.delta": _Key("real", "params.delta"),
    "params.eta": _Key("real", "params.eta"),
    "run.t_end": _Key("real", "t_end", _AT_LEAST_0),
    "run.slab": _Key("real", "slab", _POSITIVE),
    "run.fp_tol": _Key("real", "params.fp_tol"),
    "run.fp_max_iter": _Key("integer", "params.fp_max_iter"),
    "run.dt_max": _Key("real", "params.dt_max"),
    "run.store_every": _Key("integer", "store_every", _AT_LEAST_1),
    "run.out": _Key("text", "out"),
    "viscosity.kind": _Key("text", check=_kind("diag", "constant", "varying"), default="diag"),
    "viscosity.nu": _Key("reals", check=_EACH_POSITIVE, default=lambda dim: (1.0,) * dim,
                         note="1.0 per axis"),
    "viscosity.a": _Key("reals", default=(),
                        note="constant-full entries, dim^4 comma-separated, row-major"),
    "viscosity.files": _Key("text", default="",
                            note="varying entries, semicolon-separated ijkl:path snapshots"),
    "initial.kind": _Key("text", check=_kind("constant", "bump", "cosine", "oscillatory"),
                         default="constant"),
    "initial.value": _Key("real", default=1.0),
    "initial.amplitude": _Key("real", default=0.2),
    "initial.wavelength": _Key("real", default=2 * np.pi / 16),
    "initial.width": _Key("real", check=_POSITIVE_SQUARE, default=np.pi / 2),
    "initial.base": _Key("text", check=_kind("constant", "cosine", "bump"), default="constant"),
    "forcing.kind": _Key("text", check=_kind("zero", "cosine", "file"), default="zero"),
    "forcing.amplitude": _Key("real", default=0.0),
    "forcing.path": _Key("path", default=""),
    "diagnostics.window": _Key("integer", "defect_params.window", (_divides, _WINDOW)),
    "diagnostics.h_reg": _Key("real", "defect_params.h_reg", _AT_LEAST_0),
    "diagnostics.commutator_delta": _Key("real", "commutator_delta", _RADIUS),
    "sweep.deltas": _Key("reals", "sweep_deltas", _DELTAS),
    "sweep.eps_levels": _Key("reals", "sweep_eps_levels", _EPS_LEVELS),
    "defect.ratios": _Key("reals", "defect_ratios", _EACH_POSITIVE),
    "defect.windows": _Key("integers", "defect_windows", _WINDOWS),
}


# the key holding the stress law of each viscosity.kind
_LAW_KEY = {"diag": "viscosity.nu", "constant": "viscosity.a", "varying": "viscosity.files"}

# kind key, kind, and the keys of which that kind needs one
_KIND_NEEDS = (
    ("viscosity.kind", "constant", ("viscosity.a",)),
    ("viscosity.kind", "varying", ("viscosity.files",)),
    ("forcing.kind", "file", ("forcing.path",)),
)


def default_of(key, dim=1):
    """The value ``key`` takes when a config on a ``dim``-D grid omits it."""
    spec = KEYS[key]
    if spec.field:
        holder, _, name = spec.field.rpartition(".")
        return next(f.default for f in fields(_HOLDERS[holder]) if f.name == name)
    return spec.default(dim) if callable(spec.default) else spec.default


def _read_keyed_snapshot(path, key, line, grid):
    """The field of a snapshot named by ``key`` on ``grid``; read failures
    and a snapshot on another grid name its line."""
    try:
        field, _t = read_snapshot(path)
    except OSError as exc:  # read_snapshot's own messages begin with the path
        raise ParseError(line, f"{key}: cannot read snapshot {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise ParseError(line, f"{key}: cannot read snapshot {exc}") from exc
    if field.grid != grid:
        raise ParseError(line, f"{key}: {path} grid does not match the run grid")
    return field


class _NotFinite(ValueError):
    """A real that reads as inf or nan."""


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise _NotFinite(text)
    return value


def _listed(convert):
    return lambda v, _dir: tuple(convert(x) for x in v.split(",") if x.strip())


# each _Key.reader: its converter (text, config directory) -> value, and what it expects
_READERS = {
    "real": (lambda v, _dir: _finite(v), "a real number"),
    "integer": (lambda v, _dir: int(v), "an integer"),
    "text": (lambda v, _dir: v, "text"),
    "reals": (_listed(_finite), "comma-separated reals"),
    "integers": (_listed(int), "comma-separated integers"),
    "path": (lambda v, base_dir: os.path.join(base_dir, v) if v else "", "a path"),
}


def _parse_lines(path):
    """Each key given in the file: its text value and line number."""
    entries = {}
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:  # a byte that is not UTF-8 reads as a lone surrogate, which cannot encode
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00  # the escape of byte 0x80-0xff
                raise ParseError(lineno, f"not UTF-8: byte {byte:#04x}") from exc
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
    except _NotFinite as exc:
        raise ParseError(line, f"{key}: must be finite, got {text!r}") from exc
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
                lines["viscosity.a"], f"viscosity.a: expected {dim**4} entries, got {len(flat)}"
            )
        return ConstantFull(np.array(flat).reshape((dim,) * 4))
    text = value["viscosity.files"]
    lineno = lines["viscosity.files"]
    values = np.zeros((dim,) * 4 + grid.shape)
    chunks = [chunk for chunk in map(str.strip, text.split(";")) if chunk]
    if not chunks:
        raise ParseError(
            lineno, f"viscosity.files: must be one or more ijkl:path groups, got {text!r}"
        )
    for chunk in chunks:
        idx, _, path = chunk.partition(":")
        idx = idx.strip()
        path = path.strip()
        if len(idx) != 4 or not idx.isdigit() or any(int(c) >= dim for c in idx):
            raise ParseError(lineno, f"viscosity.files: bad index group {idx!r} for dim {dim}")
        path = os.path.join(base_dir, path)
        coeff = _read_keyed_snapshot(path, "viscosity.files", lineno, grid)
        i, j, k, l = (int(c) for c in idx)
        values[i, j, k, l] = coeff.data
    return VaryingFull(grid, values)


def _profile(kind, value, xs):
    """The ``constant``, ``cosine`` or ``bump`` profile of the ``initial.*`` values."""
    level, amplitude = value["initial.value"], value["initial.amplitude"]
    if kind == "constant":
        return np.full(xs[0].shape, float(level))
    if kind == "cosine":
        return level + amplitude * np.cos(xs[0])
    r2 = sum((x - np.pi) ** 2 for x in xs)
    return level + amplitude * np.exp(-(r2 / value["initial.width"] ** 2))


def _build_initial(value, lines, line_of, grid):
    """The initial density, clipped at zero, sampled with numpy's errors
    raised (``parse_config`` runs outside a study's error state); each
    failure names its line."""
    kind, wavelength = value["initial.kind"], value["initial.wavelength"]
    if kind == "oscillatory" and wavelength < 4.0 * grid.h:
        raise ParseError(
            line_of("initial.wavelength"),
            f"initial.wavelength: must be at least 4 cells ({4.0 * grid.h:.4g}) "
            f"for initial.kind = oscillatory, got {wavelength!r}",
        )
    xs = grid.meshgrid()
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            if kind == "oscillatory":
                base = ScalarField(grid, _profile(value["initial.base"], value, xs))
                wave = np.sin(2.0 * np.pi * xs[0] / wavelength)
                rho0 = ScalarField(grid, base.data * (1.0 + value["initial.amplitude"] * wave))
            else:
                rho0 = ScalarField(grid, _profile(kind, value, xs))
    except (FloatingPointError, NonFiniteField) as exc:
        raise ParseError(
            lines.get("initial.kind", 0), f"initial.kind: {kind} initial data: {exc}"
        ) from exc
    if rho0.min() < 0.0:
        logger.info("initial data clipped %d negative cells to zero", int((rho0.data < 0.0).sum()))
        rho0 = ScalarField(grid, np.maximum(rho0.data, 0.0))
    if rho0.max() == 0.0:
        key = "initial.value" if "initial.value" in lines else "initial.kind"
        raise ParseError(lines.get(key, 0), f"{key}: must leave the initial density mass > 0")
    return rho0


def _build_forcing(value, lines, grid):
    kind = value["forcing.kind"]
    if kind == "zero":
        return None
    if kind == "cosine":
        return ScalarField(grid, value["forcing.amplitude"] * np.cos(grid.meshgrid()[0]))
    return _read_keyed_snapshot(value["forcing.path"], "forcing.path", lines["forcing.path"], grid)


def parse_config(path):
    """Read a configuration file into a RunConfig with its run inputs built."""
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
    if value["run.t_end"] > _MAX_SLABS * value["run.slab"]:
        raise ParseError(
            line_of("run.slab"),
            f"run.slab: must be at least run.t_end / {_MAX_SLABS} "
            f"({value['run.t_end'] / _MAX_SLABS:.4g}), got {value['run.slab']!r}",
        )
    for key, kind, needs in _KIND_NEEDS:
        if value[key] == kind and not any(value[k] for k in needs):
            raise ParseError(lines[key], f"{key}: must be {kind!r} only with {' or '.join(needs)}")
    try:
        params = SolverParams(**held["params"])
    except InvalidParameter as exc:
        key = next(k for k, spec in KEYS.items() if spec.field == f"params.{exc.field}")
        raise ParseError(lines.get(key, 0), str(exc)) from exc

    law_key = _LAW_KEY[value["viscosity.kind"]]
    return RunConfig(
        grid=grid,
        params=params,
        tensor=_build_tensor(value, lines, grid, base_dir),
        rho0=_build_initial(value, lines, line_of, grid),
        forcing=_build_forcing(value, lines, grid),
        defect_params=DefectParams(**held["defect_params"]),
        tensor_line=lines.get(law_key) or lines.get("viscosity.kind", 0),
        **held[""],
    )

