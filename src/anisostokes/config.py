"""Run configuration: dotted-key text files, initial data and forcing.

The format is deliberately plain: one ``key = value`` per line, ``#``
comments, UTF-8.  Every key has a default, so an empty file is a valid
configuration; unknown keys are hard errors so typos cannot silently fall
back to defaults, and so is a key given twice, so that no value silently
overrides another.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

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
    kind: str = "zero"
    amplitude: float = 0.0
    path: str = ""
    breakpoints: tuple = ()


@dataclass(frozen=True)
class DiagnosticsSpec:
    window: int = 8
    h_reg: float = 1e-8
    commutator_delta: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: SolverParams
    tensor: object
    initial: InitialSpec
    forcing: ForcingSpec
    diagnostics: DiagnosticsSpec
    t_end: float = 0.1
    slab: float = 0.05
    store_every: int = 1
    out: str = "out"
    seed: int = 0
    sweep_deltas: tuple = (0.4, 0.2, 0.1, 0.05)
    sweep_eps_levels: tuple = (0.1, 0.01, 0.001)
    defect_ratios: tuple = (1.0, 4.0, 16.0)
    defect_windows: tuple = (4, 8)


# every key the parser accepts, with its documented default
KNOWN_KEYS = {
    "grid.dim": "1",
    "grid.n": "(128 for dim 1 or 2, 32 for dim 3)",
    "params.gamma": "2.0",
    "params.eps": "0.0",
    "params.delta": "0.0",
    "params.eta": "0.0",
    "transport.cfl": "0.45",
    "transport.order": "1",
    "stokes.rtol": "1e-8",
    "stokes.max_iter": "400",
    "run.t_end": "0.1",
    "run.slab": "0.05",
    "run.fp_tol": "1e-7",
    "run.fp_max_iter": "40",
    "run.dt_max": "0.01",
    "run.store_every": "1",
    "run.out": "out",
    "run.seed": "0",
    "viscosity.kind": "diag",
    "viscosity.nu": "1 per axis",
    "viscosity.a": "(constant-full entries, dim^4 comma-separated, row-major)",
    "viscosity.files": "(varying entries, semicolon-separated ijkl:path snapshots)",
    "initial.kind": "constant",
    "initial.value": "1.0",
    "initial.amplitude": "0.2",
    "initial.wavelength": "2*pi/16",
    "initial.width": "pi/2",
    "initial.base": "constant",
    "forcing.kind": "zero",
    "forcing.amplitude": "0.0",
    "forcing.path": "",
    "forcing.breakpoints": "(time:path pairs, semicolon-separated)",
    "diagnostics.window": "8",
    "diagnostics.h_reg": "1e-8",
    "diagnostics.commutator_delta": "0.0",
    "sweep.deltas": "0.4,0.2,0.1,0.05",
    "sweep.eps_levels": "0.1,0.01,0.001",
    "defect.ratios": "1,4,16",
    "defect.windows": "4,8",
}

# each SolverParams field: the key that sets it, its reader and its default
_PARAM_KEYS = {
    "gamma": ("params.gamma", "real", 2.0),
    "eps": ("params.eps", "real", 0.0),
    "delta": ("params.delta", "real", 0.0),
    "eta": ("params.eta", "real", 0.0),
    "cfl": ("transport.cfl", "real", 0.45),
    "dt_max": ("run.dt_max", "real", 0.01),
    "fp_tol": ("run.fp_tol", "real", 1e-7),
    "fp_max_iter": ("run.fp_max_iter", "integer", 40),
    "stokes_rtol": ("stokes.rtol", "real", 1e-8),
    "stokes_max_iter": ("stokes.max_iter", "integer", 400),
    "order": ("transport.order", "integer", 1),
}

_VALID_INITIAL_KINDS = ("constant", "bump", "cosine", "oscillatory")
_VALID_FORCING_KINDS = ("zero", "cosine", "file")


def _parse_lines(path):
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
            if key not in KNOWN_KEYS:
                raise UnknownKey(lineno, key)
            if key in entries:
                raise ParseError(
                    lineno, f"duplicate key {key!r}, first given on line {entries[key][1]}"
                )
            entries[key] = (value, lineno)
    return entries


class _Reader:
    def __init__(self, entries):
        self.entries = entries
        self.lines = {k: ln for k, (_v, ln) in entries.items()}

    def line_of(self, key):
        return self.lines.get(key, 0)

    def _fetch(self, key, default, conv, what):
        if key not in self.entries:
            return default
        value, lineno = self.entries[key]
        try:
            return conv(value)
        except (ValueError, TypeError) as exc:
            raise ParseError(lineno, f"{key}: expected {what}, got {value!r}") from exc

    def real(self, key, default):
        return self._fetch(key, default, float, "a real number")

    def integer(self, key, default):
        return self._fetch(key, default, int, "an integer")

    def text(self, key, default):
        return self._fetch(key, default, str, "text")

    def reals(self, key, default):
        return self._fetch(
            key,
            default,
            lambda v: tuple(float(x) for x in v.split(",") if x.strip()),
            "comma-separated reals",
        )

    def integers(self, key, default):
        return self._fetch(
            key,
            default,
            lambda v: tuple(int(x) for x in v.split(",") if x.strip()),
            "comma-separated integers",
        )


def _build_tensor(reader, grid):
    dim = grid.dim
    kind = reader.text("viscosity.kind", "diag")
    if kind == "diag":
        nu = reader.reals("viscosity.nu", tuple([1.0] * dim))
        if len(nu) != dim:
            raise ParseError(
                reader.line_of("viscosity.nu"),
                f"viscosity.nu: expected {dim} entries, got {len(nu)}",
            )
        return DiagNu(nu)
    if kind == "constant":
        flat = reader.reals("viscosity.a", ())
        if len(flat) != dim**4:
            raise ParseError(
                reader.line_of("viscosity.a"),
                f"viscosity.a: expected {dim**4} entries, got {len(flat)}",
            )
        return ConstantFull(np.array(flat).reshape((dim,) * 4))
    if kind == "varying":
        text = reader.text("viscosity.files", "")
        lineno = reader.line_of("viscosity.files")
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
                raise ParseError(
                    lineno, f"viscosity.files: bad index group {idx!r} for dim {dim}"
                )
            coeff, _t = read_snapshot(path)
            if coeff.grid != grid:
                raise ParseError(
                    lineno, f"viscosity.files: {path} grid does not match the run grid"
                )
            i, j, k, l = (int(c) for c in idx)
            values[i, j, k, l] = coeff.data
        return VaryingFull(grid, values)
    raise ParseError(
        reader.line_of("viscosity.kind"), f"viscosity.kind: unknown kind {kind!r}"
    )


def _parse_breakpoints(text):
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        t_text, _, path = chunk.partition(":")
        pairs.append((float(t_text), path.strip()))
    if pairs != sorted(pairs, key=lambda p: p[0]):
        raise ValueError("breakpoints must be sorted by time")
    return tuple(pairs)


def parse_config(path):
    """Read a configuration file into a fully-typed RunConfig."""
    entries = _parse_lines(path)
    r = _Reader(entries)

    dim = r.integer("grid.dim", 1)
    default_n = 32 if dim == 3 else 128
    n = r.integer("grid.n", default_n)
    try:
        grid = GridSpec(dim, n)
    except ValueError as exc:
        raise ParseError(r.line_of("grid.dim") or r.line_of("grid.n"), str(exc)) from exc

    values = {
        name: getattr(r, reader)(key, default)
        for name, (key, reader, default) in _PARAM_KEYS.items()
    }
    try:
        params = SolverParams(**values)
    except InvalidParameter as exc:
        raise ParseError(r.line_of(_PARAM_KEYS[exc.field][0]), str(exc)) from exc

    tensor = _build_tensor(r, grid)

    initial = InitialSpec(
        kind=r.text("initial.kind", "constant"),
        value=r.real("initial.value", 1.0),
        amplitude=r.real("initial.amplitude", 0.2),
        wavelength=r.real("initial.wavelength", 2 * np.pi / 16),
        width=r.real("initial.width", np.pi / 2),
        base=r.text("initial.base", "constant"),
    )
    if initial.kind not in _VALID_INITIAL_KINDS:
        raise ParseError(
            r.line_of("initial.kind"), f"initial.kind: unknown kind {initial.kind!r}"
        )
    if initial.base not in ("constant", "cosine", "bump"):
        raise ParseError(
            r.line_of("initial.base"), f"initial.base: unknown kind {initial.base!r}"
        )

    breakpoints = ()
    if "forcing.breakpoints" in entries:
        value, lineno = entries["forcing.breakpoints"]
        try:
            breakpoints = _parse_breakpoints(value)
        except ValueError as exc:
            raise ParseError(lineno, f"forcing.breakpoints: {exc}") from exc
    forcing = ForcingSpec(
        kind=r.text("forcing.kind", "zero"),
        amplitude=r.real("forcing.amplitude", 0.0),
        path=r.text("forcing.path", ""),
        breakpoints=breakpoints,
    )
    if forcing.kind not in _VALID_FORCING_KINDS:
        raise ParseError(
            r.line_of("forcing.kind"), f"forcing.kind: unknown kind {forcing.kind!r}"
        )

    diagnostics = DiagnosticsSpec(
        window=r.integer("diagnostics.window", 8),
        h_reg=r.real("diagnostics.h_reg", 1e-8),
        commutator_delta=r.real("diagnostics.commutator_delta", 0.0),
    )

    return RunConfig(
        grid=grid,
        params=params,
        tensor=tensor,
        initial=initial,
        forcing=forcing,
        diagnostics=diagnostics,
        t_end=r.real("run.t_end", 0.1),
        slab=r.real("run.slab", 0.05),
        store_every=r.integer("run.store_every", 1),
        out=r.text("run.out", "out"),
        seed=r.integer("run.seed", 0),
        sweep_deltas=r.reals("sweep.deltas", (0.4, 0.2, 0.1, 0.05)),
        sweep_eps_levels=r.reals("sweep.eps_levels", (0.1, 0.01, 0.001)),
        defect_ratios=r.reals("defect.ratios", (1.0, 4.0, 16.0)),
        defect_windows=r.integers("defect.windows", (4, 8)),
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
                f, _t = read_snapshot(path)
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
        f, _t = read_snapshot(spec.path)
        if f.grid != grid:
            raise ValueError(f"{spec.path}: snapshot grid does not match the run grid")
        return f
    raise ValueError(f"unknown forcing kind {spec.kind!r}")
