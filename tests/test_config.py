"""Config parsing, and the initial density and forcing it builds."""

import dataclasses
import os
import re
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisostokes.cli import main
from anisostokes.config import (
    _MAX_SLABS,
    KEYS,
    ParseError,
    UnknownKey,
    default_of,
    parse_config,
)
from anisostokes.fields import GridSpec, ScalarField, write_snapshot
from anisostokes.viscosity import ConstantFull, DiagNu, VaryingFull


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# ------------------------------------------------------------- parse_config

def test_empty_file_gives_valid_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, ""))
    assert cfg.grid.dim == 1
    assert cfg.grid.n == (128,)
    assert cfg.params.gamma == 2.0
    assert cfg.params.eps == 0.0
    assert cfg.params.delta == 0.0
    assert cfg.params.eta == 0.0
    assert cfg.t_end == 0.1
    assert cfg.slab == 0.05
    assert cfg.out == "out"
    assert isinstance(cfg.tensor, DiagNu)
    assert cfg.tensor.nu == (1.0,)
    assert cfg.sweep_deltas == (0.4, 0.2, 0.1, 0.05)
    assert cfg.sweep_eps_levels == (0.1, 0.01, 0.001)
    assert cfg.defect_ratios == (1.0, 4.0, 16.0)
    assert cfg.defect_windows == (4, 8)


def test_comments_and_blank_lines_are_skipped(tmp_path):
    text = "\n".join([
        "# a comment",
        "",
        "grid.dim = 2",
        "grid.n = 32   # trailing comment",
        "params.gamma = 1.4",
    ])
    cfg = parse_config(write_cfg(tmp_path, text))
    assert cfg.grid.dim == 2
    assert cfg.grid.n == (32, 32)
    assert cfg.params.gamma == 1.4


def test_default_resolution_drops_for_3d(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "grid.dim = 3\nviscosity.nu = 1,1,4\n"))
    assert cfg.grid.n == (32, 32, 32)
    assert cfg.tensor.nu == (1.0, 1.0, 4.0)


def test_gamma_at_most_one_is_rejected_with_line(tmp_path):
    path = write_cfg(tmp_path, "# header\nparams.gamma = 0.9\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2
    assert "gamma" in err.value.reason


def test_parameter_error_reports_the_line_of_its_own_key(tmp_path):
    # "n" occurs in "nonnegative"; the line must still be the one of params.eps
    path = write_cfg(
        tmp_path, "grid.dim = 1\ngrid.n = 32\nparams.gamma = 2.0\nparams.eps = -1\n"
    )
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 4
    assert str(err.value) == "line 4: eps must be nonnegative"


@pytest.mark.parametrize(
    "key, value",
    [("params.delta", "-0.1"), ("run.dt_max", "0"), ("run.fp_tol", "-1e-9"),
     ("run.fp_max_iter", "0")],
)
def test_every_parameter_error_points_at_its_key(tmp_path, key, value):
    path = write_cfg(tmp_path, f"grid.n = 16\nparams.eta = 0.1\n{key} = {value}\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 3


@pytest.mark.parametrize(
    "text, key",
    [
        ("run.t_end = -0.1", "run.t_end"),
        ("run.slab = 0", "run.slab"),
        ("run.slab = 1e-300", "run.slab"),
        ("run.store_every = 0", "run.store_every"),
        ("diagnostics.window = 0", "diagnostics.window"),
        ("diagnostics.window = 3", "diagnostics.window"),
        ("diagnostics.h_reg = -1e-9", "diagnostics.h_reg"),
        ("diagnostics.commutator_delta = -0.1", "diagnostics.commutator_delta"),
        ("defect.windows = 4,0", "defect.windows"),
        ("defect.windows = 4,6", "defect.windows"),
        ("defect.ratios = 1,0", "defect.ratios"),
        ("defect.ratios =", "defect.ratios"),
        ("defect.windows =", "defect.windows"),
        ("sweep.eps_levels = 0.1,-0.01", "sweep.eps_levels"),
        ("sweep.eps_levels =", "sweep.eps_levels"),
        ("sweep.deltas = 0.4,0.2", "sweep.deltas"),
        ("sweep.deltas = 0.4,0.2,0.2,0.1", "sweep.deltas"),
        ("sweep.deltas = 0.4,0.2,0", "sweep.deltas"),
        ("initial.wavelength = 0.39\ninitial.kind = oscillatory", "initial.wavelength"),
        ("initial.width = 0\ninitial.kind = bump", "initial.width"),
        ("initial.width = 1e-200\ninitial.kind = bump", "initial.width"),
        ("forcing.kind = file", "forcing.kind"),
        ("viscosity.kind = constant", "viscosity.kind"),
        ("viscosity.kind = varying", "viscosity.kind"),
        ("viscosity.files = ;\nviscosity.kind = varying", "viscosity.files"),
        ("initial.value = nan", "initial.value"),
        ("initial.amplitude = inf\ninitial.kind = cosine", "initial.amplitude"),
        ("forcing.amplitude = nan\nforcing.kind = cosine", "forcing.amplitude"),
        ("params.delta = inf", "params.delta"),
        ("viscosity.nu = -1", "viscosity.nu"),
        ("viscosity.nu = 0", "viscosity.nu"),
        ("viscosity.nu = 1,-1\ngrid.dim = 2", "viscosity.nu"),
    ],
)
def test_out_of_range_run_and_study_keys_name_their_line(tmp_path, text, key):
    path = write_cfg(tmp_path, f"grid.n = 16\n# the bad value\n{text}\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 3
    assert err.value.reason.startswith(f"{key}: must be ")


def test_default_window_that_does_not_fit_the_grid_names_the_grid_line(tmp_path):
    path = write_cfg(tmp_path, "grid.dim = 2\ngrid.n = 12\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2
    assert err.value.reason.startswith("diagnostics.window: ")


def test_default_wavelength_that_the_grid_cannot_resolve_names_the_grid_line(tmp_path):
    # the default wavelength 2 pi / 16 is one cell of a 16-cell grid
    path = write_cfg(tmp_path, "initial.kind = oscillatory\ngrid.n = 16\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2
    assert err.value.reason.startswith("initial.wavelength: must be ")


def _floats(lo, hi, **kw):
    return st.floats(lo, hi, allow_nan=False, **kw)


def _levels(elements, min_size=0, unique=False):
    return st.lists(elements, min_size=min_size, max_size=5, unique=unique).map(tuple)


# every key whose value reads back from RunConfig or the inputs it builds,
# with in-range values; windows divide every grid extent drawn here (16 or
# 32 cells per axis)
_WINDOWS = st.sampled_from([1, 2, 4, 8, 16])
IN_RANGE = {
    "grid.dim": st.sampled_from([1, 2, 3]),
    "grid.n": st.sampled_from([16, 32]),
    "params.gamma": _floats(1.0, 5.0, exclude_min=True),
    "params.eps": _floats(0.0, 1.0),
    "params.delta": _floats(0.0, 1.0),
    "params.eta": _floats(0.0, 1.0),
    "run.t_end": _floats(0.0, 10.0),
    "run.slab": _floats(1e-6, 1.0),
    "run.fp_tol": _floats(0.0, 1.0),
    "run.fp_max_iter": st.integers(1, 1000),
    "run.dt_max": _floats(1e-6, 1.0),
    "run.store_every": st.integers(1, 100),
    "run.out": st.from_regex(r"[a-z0-9_./-]{1,12}", fullmatch=True),
    "initial.kind": st.sampled_from(["constant", "bump", "cosine", "oscillatory"]),
    "initial.value": _floats(-10.0, 10.0),
    "initial.amplitude": _floats(-10.0, 10.0),
    "initial.wavelength": _floats(1e-3, 10.0),
    "initial.width": _floats(1e-3, 10.0),
    "initial.base": st.sampled_from(["constant", "cosine", "bump"]),
    "forcing.kind": st.sampled_from(["zero", "cosine", "file"]),
    "forcing.amplitude": _floats(-10.0, 10.0),
    "forcing.path": st.from_regex(r"[a-z0-9_]{1,8}\.asf", fullmatch=True),
    "diagnostics.window": _WINDOWS,
    "diagnostics.h_reg": _floats(0.0, 1.0),
    "diagnostics.commutator_delta": _floats(0.0, 1.0),
    "sweep.deltas": _levels(_floats(1e-3, 1.0), min_size=3, unique=True),
    "sweep.eps_levels": _levels(_floats(0.0, 1.0), min_size=1),
    "defect.ratios": _levels(_floats(1e-3, 100.0), min_size=1),
    "defect.windows": _levels(_WINDOWS, min_size=1),
}


def _written(value):
    if isinstance(value, tuple):
        return ",".join(map(repr, value))
    return repr(value) if isinstance(value, float) else str(value)


def _read_back(cfg, key):
    if key == "grid.dim":
        return cfg.grid.dim
    if key == "grid.n":
        return cfg.grid.n[0]
    return attrgetter(KEYS[key].field)(cfg)


def _drawn_grid(values):
    dim = values.get("grid.dim", default_of("grid.dim"))
    return GridSpec(dim, values.get("grid.n", default_of("grid.n", dim)))


def _drawn_density(values, grid):
    """The initial density of the drawn ``initial.*`` keys, written out from
    its profiles and clipped at zero; None for an oscillation whose
    wavelength is below four cells."""
    def get(key):
        return values.get(key, default_of(key))

    xs = grid.meshgrid()
    value, amplitude = get("initial.value"), get("initial.amplitude")

    def profile(kind):
        if kind == "constant":
            return np.full(grid.shape, float(value))
        if kind == "cosine":
            return value + amplitude * np.cos(xs[0])
        r2 = sum((x - np.pi) ** 2 for x in xs)
        return value + amplitude * np.exp(-(r2 / get("initial.width") ** 2))

    kind, wavelength = get("initial.kind"), get("initial.wavelength")
    if kind != "oscillatory":
        data = profile(kind)
    elif wavelength < 4.0 * grid.h:
        return None
    else:
        wave = np.sin(2.0 * np.pi * xs[0] / wavelength)
        data = profile(get("initial.base")) * (1.0 + amplitude * wave)
    return np.maximum(data, 0.0) if data.min() < 0.0 else data


def _cosine(grid, value=0.0, amplitude=1.0):
    """A cosine snapshot field along the first axis."""
    return ScalarField(grid, value + amplitude * np.cos(grid.meshgrid()[0]))


def _rejected_across_keys(values):
    """An oscillatory wavelength below four cells, a file forcing without a
    path, more than ``_MAX_SLABS`` slabs to t_end, or an initial density
    with zero mass."""
    rho0 = _drawn_density(values, _drawn_grid(values))
    t_end = values.get("run.t_end", default_of("run.t_end"))
    slab = values.get("run.slab", default_of("run.slab"))
    return (
        rho0 is None
        or (values.get("forcing.kind") == "file" and "forcing.path" not in values)
        or t_end > _MAX_SLABS * slab
        or rho0.max() == 0.0
    )


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=IN_RANGE))
def test_config_round_trip(values):
    grid = _drawn_grid(values)
    snapshot = _cosine(grid)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        Path(path).write_text(
            "".join(f"{key} = {_written(v)}\n" for key, v in values.items()), encoding="utf-8"
        )
        if "forcing.path" in values:
            write_snapshot(os.path.join(tmp, values["forcing.path"]), snapshot, 0.0)
        if _rejected_across_keys(values):
            with pytest.raises(ParseError):
                parse_config(path)
            return
        cfg = parse_config(path)
    for key in IN_RANGE:
        if key.startswith(("initial.", "forcing.")):
            continue  # read back below, through the inputs they build
        expected = values[key] if key in values else default_of(key, cfg.grid.dim)
        assert _read_back(cfg, key) == expected, key
    assert cfg.rho0.data.tobytes() == _drawn_density(values, grid).tobytes()
    kind = values.get("forcing.kind", default_of("forcing.kind"))
    if kind == "zero":
        assert cfg.forcing is None
        return
    if kind == "cosine":
        amplitude = values.get("forcing.amplitude", default_of("forcing.amplitude"))
        expected = amplitude * np.cos(grid.meshgrid()[0])
    else:
        expected = snapshot.data
    assert cfg.forcing.data.tobytes() == expected.tobytes()


def test_readme_configuration_keys_are_known():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    assert [k for k in keys if k not in KEYS] == []
    assert [k for k in KEYS if k not in keys] == []
    assert len(keys) == len(KEYS)


def test_each_key_keeps_its_default_in_one_place():
    # the dataclass field a key fills holds its default; a key with no field holds its own
    both_or_neither = [key for key, spec in KEYS.items()
                       if bool(spec.field) == (spec.default is not None)]
    assert both_or_neither == []


def test_duplicate_key_names_both_lines(tmp_path):
    path = write_cfg(tmp_path, "grid.dim = 1\n# again\ngrid.dim = 2\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 3
    assert "grid.dim" in err.value.reason
    assert "line 1" in err.value.reason


# a misspelt key, and the settings that fixed constants replaced
@pytest.mark.parametrize(
    "line",
    ["params.gama = 2.0", "transport.order = 1", "transport.cfl = 0.45",
     "stokes.rtol = 1e-8", "stokes.max_iter = 400", "run.seed = 0",
     "forcing.breakpoints = 0.0:f0.asf"],
    ids=lambda line: line.partition(" = ")[0],
)
def test_unknown_key_is_an_error(tmp_path, capsys, line):
    key = line.partition(" = ")[0]
    path = write_cfg(tmp_path, f"grid.n = 16\n{line}\n")
    with pytest.raises(UnknownKey) as err:
        parse_config(path)
    assert err.value.line == 2
    assert err.value.key == key
    assert isinstance(err.value, ParseError)
    assert str(err.value) == f"line 2: unknown key {key!r}"
    assert main(["run", path, "--out", str(tmp_path / "art")]) == 2
    assert capsys.readouterr().out == f"FAIL config: {path}: line 2: unknown key {key!r}\n"
    assert not (tmp_path / "art").exists()


def test_malformed_line_reports_position(tmp_path):
    path = write_cfg(tmp_path, "grid.dim = 1\njust some words\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_names_its_line(tmp_path, newline):
    def cfg(comment):
        # line 2 holds valid multi-byte UTF-8, line 4 the given comment bytes
        lines = [b"grid.n = 16", "initial.kind = cosine  # r\u00e9sum\u00e9".encode(), b"",
                 b"# caf" + comment, b"grid.n = 32"]
        path = tmp_path / "run.cfg"
        path.write_bytes(newline.encode().join(lines) + newline.encode())
        with pytest.raises(ParseError) as err:
            parse_config(str(path))
        return err.value.line, err.value.reason

    assert cfg(b"\xe9") == (4, "not UTF-8: byte 0xe9")
    # the same file in UTF-8 parses up to the key given twice, on line 5
    assert cfg("\u00e9".encode()) == (5, "duplicate key 'grid.n', first given on line 1")


def _as_plain(cfg):
    """A config's fields with each field-valued input replaced by its bytes."""
    plain = {}
    for field in dataclasses.fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, ScalarField):
            value = value.data.tobytes()
        elif field.name == "tensor":
            value = (type(value), value.nu)
        plain[field.name] = value
    return plain


def test_a_leading_byte_order_mark_is_read_past(tmp_path):
    text = "grid.dim = 2\ngrid.n = 16\nviscosity.nu = 1,2\ninitial.kind = cosine\n" \
        "forcing.kind = cosine\nrun.t_end = 0.2\n"
    plain = parse_config(write_cfg(tmp_path, text))
    marked = tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert _as_plain(parse_config(str(marked))) == _as_plain(plain)


@pytest.mark.parametrize("text, line, reason", [
    ("grid.n = 16\n\ufeffrun.t_end = 0.2\n", 2, "unknown key '\\ufeffrun.t_end'"),
    ("\ufeffgrid.n = 16\n\ufeffrun.t_end = 0.2\n", 2, "unknown key '\\ufeffrun.t_end'"),
    ("\ufeff\ufeffgrid.n = 16\n", 1, "unknown key '\\ufeffgrid.n'"),
    ("run.t_end = 0.2\ngrid.n = 1\ufeff6\n", 2, "grid.n: expected an integer, got '1\\ufeff6'"),
], ids=["second-line", "mark-and-second-line", "second-mark", "in-a-value"])
def test_a_byte_order_mark_past_the_start_fails_on_its_line(tmp_path, text, line, reason):
    with pytest.raises(ParseError) as err:
        parse_config(write_cfg(tmp_path, text))
    assert (err.value.line, err.value.reason) == (line, reason)


def test_bad_number_reports_key_and_line(tmp_path):
    path = write_cfg(tmp_path, "run.t_end = soon\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 1
    assert "run.t_end" in err.value.reason


def test_constant_tensor_entries(tmp_path):
    flat = ", ".join("1" if i in (0, 3) else "0" for i in range(16))
    # identity-on-symmetric-matrices tensor in 2D: a_ijkl = delta_ik delta_jl
    path = write_cfg(tmp_path, f"grid.dim = 2\nviscosity.kind = constant\nviscosity.a = {flat}\n")
    cfg = parse_config(path)
    assert isinstance(cfg.tensor, ConstantFull)
    assert cfg.tensor.dim == 2


def test_constant_tensor_wrong_count(tmp_path):
    path = write_cfg(tmp_path, "viscosity.kind = constant\nviscosity.a = 1,2\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert "expected 1 entries" in err.value.reason


def test_diag_tensor_wrong_count(tmp_path):
    path = write_cfg(tmp_path, "grid.dim = 2\nviscosity.nu = 1,2,3\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2


def test_varying_tensor_from_snapshots(tmp_path):
    g = GridSpec(1, 16)
    coeff = _cosine(g, 2.0, 0.5)
    snap = tmp_path / "a0000.asf"
    write_snapshot(str(snap), coeff, 0.0)
    path = write_cfg(
        tmp_path,
        f"grid.n = 16\nviscosity.kind = varying\nviscosity.files = 0000:{snap}\n",
    )
    cfg = parse_config(path)
    assert isinstance(cfg.tensor, VaryingFull)
    np.testing.assert_allclose(cfg.tensor.tensor_at()[0, 0, 0, 0], coeff.data)


def test_varying_tensor_rejects_bad_index_group(tmp_path):
    g = GridSpec(1, 16)
    coeff = ScalarField.constant(g, 1.0)
    snap = tmp_path / "a.asf"
    write_snapshot(str(snap), coeff, 0.0)
    path = write_cfg(
        tmp_path,
        f"grid.n = 16\nviscosity.kind = varying\nviscosity.files = 0010:{snap}\n",
    )
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert "index group" in err.value.reason


# --------------------------------------------------------- snapshot paths

def snapshot_dir(tmp_path):
    """A config directory holding two 1D snapshots, and a different cwd."""
    g = GridSpec(1, 16)
    cfg_dir = tmp_path / "study"
    (cfg_dir / "data").mkdir(parents=True)
    coeff = _cosine(g, 2.0, 0.5)
    force = _cosine(g)
    write_snapshot(str(cfg_dir / "data" / "a.asf"), coeff, 0.0)
    write_snapshot(str(cfg_dir / "data" / "f.asf"), force, 0.0)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    return g, cfg_dir, elsewhere, coeff, force


def test_relative_snapshot_paths_resolve_against_the_config(tmp_path, monkeypatch):
    g, cfg_dir, elsewhere, coeff, force = snapshot_dir(tmp_path)
    monkeypatch.chdir(elsewhere)
    cfg = parse_config(write_cfg(
        cfg_dir,
        "grid.n = 16\nviscosity.kind = varying\nviscosity.files = 0000:data/a.asf\n"
        "forcing.kind = file\nforcing.path = data/f.asf\n",
    ))
    np.testing.assert_array_equal(cfg.tensor.tensor_at()[0, 0, 0, 0], coeff.data)
    np.testing.assert_array_equal(cfg.forcing.data, force.data)


@pytest.mark.parametrize("key,text,line", [
    ("viscosity.files", "viscosity.kind = varying\nviscosity.files = 0000:data/{name}\n", 3),
    ("forcing.path", "forcing.kind = file\nforcing.path = data/{name}\n", 3),
], ids=["viscosity.files", "forcing.path"])
@pytest.mark.parametrize("name", ["missing.asf", "garbage.asf", "coarse.asf"])
def test_unreadable_snapshot_names_its_line(tmp_path, monkeypatch, key, text, line, name):
    g, cfg_dir, elsewhere, _coeff, _force = snapshot_dir(tmp_path)
    (cfg_dir / "data" / "garbage.asf").write_bytes(b"not a snapshot")
    coarse = GridSpec(g.dim, g.n[0] // 2)
    write_snapshot(str(cfg_dir / "data" / "coarse.asf"), ScalarField.constant(coarse, 1.0), 0.0)
    # the same names relative to the cwd must not be picked up instead
    (elsewhere / "data").mkdir()
    (elsewhere / "data" / "missing.asf").write_bytes((cfg_dir / "data" / "f.asf").read_bytes())
    monkeypatch.chdir(elsewhere)
    path = write_cfg(cfg_dir, "grid.n = 16\n" + text.format(name=name))
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == line
    assert err.value.reason.startswith(f"{key}: ") and name in err.value.reason
    assert ("grid does not match" in err.value.reason) == (name == "coarse.asf")


@pytest.mark.parametrize("text, line, key", [
    ("initial.value = -1", 2, "initial.value"),
    ("initial.value = 0", 2, "initial.value"),
    # the default value 1, taken below zero everywhere by a wide negative bump
    ("initial.amplitude = -10\ninitial.width = 10\ninitial.kind = bump", 4, "initial.kind"),
])
def test_an_initial_density_with_zero_mass_names_its_line(tmp_path, text, line, key):
    path = write_cfg(tmp_path, f"grid.n = 16\n{text}\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert (err.value.line, err.value.reason) == (
        line, f"{key}: must leave the initial density mass > 0"
    )


@pytest.mark.parametrize("text, where", [
    ("initial.kind = cosine\ninitial.value = 1e308\ninitial.amplitude = 1e308", "add"),
    ("initial.kind = bump\ninitial.width = 1e-154", "divide"),  # r^2 / width^2
])
def test_initial_data_that_overflows_names_the_kind_line(tmp_path, text, where):
    path = write_cfg(tmp_path, f"grid.n = 16\n{text}\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    kind = text.splitlines()[0].partition(" = ")[2]
    assert (err.value.line, err.value.reason) == (
        2, f"initial.kind: {kind} initial data: overflow encountered in {where}"
    )


def test_unknown_kinds_are_rejected(tmp_path):
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "viscosity.kind = tensorial\n"))
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "initial.kind = vortex\n", name="b.cfg"))
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "forcing.kind = wind\n", name="c.cfg"))


# ---------------------------------------------------- built initial density

def parsed_initial(tmp_path, dim, n, **initial):
    """``rho0`` as parse_config builds it on a ``dim``-D grid of ``n`` cells
    per axis, with each keyword given as its ``initial.*`` key."""
    text = f"grid.dim = {dim}\ngrid.n = {n}\n" + "".join(
        f"initial.{key} = {_written(v)}\n" for key, v in initial.items()
    )
    return parse_config(write_cfg(tmp_path, text)).rho0


def test_constant_initial_is_uniform(tmp_path):
    rho = parsed_initial(tmp_path, 2, 16, kind="constant", value=1.0)
    assert rho.min() == 1.0
    assert rho.max() == 1.0


def test_oscillatory_with_zero_amplitude_equals_base(tmp_path):
    osc = parsed_initial(tmp_path, 1, 128, kind="oscillatory", value=1.0, amplitude=0.0,
                         wavelength=2 * np.pi / 16, base="cosine")
    # amplitude covers both the base cosine and the oscillation; rebuild with
    # the base amplitude pinned but the oscillation off
    osc2 = parsed_initial(tmp_path, 1, 128, kind="oscillatory", value=1.0, amplitude=0.3,
                          wavelength=2 * np.pi / 16, base="constant")
    assert (osc.data == 1.0).all()
    assert osc2.min() == pytest.approx(0.7, abs=1e-12)


def test_oscillatory_aligned_extremes(tmp_path):
    # base 1, a = 0.5, wavelength 2 pi / 16 on n = 128: sin hits +-1 exactly
    rho = parsed_initial(tmp_path, 1, 128, kind="oscillatory", value=1.0, amplitude=0.5,
                         wavelength=2 * np.pi / 16, base="constant")
    assert rho.min() == pytest.approx(0.5, abs=1e-12)
    assert rho.max() == pytest.approx(1.5, abs=1e-12)


def test_oscillatory_clips_at_zero_and_logs(tmp_path, caplog):
    with caplog.at_level("INFO", logger="anisostokes"):
        rho = parsed_initial(tmp_path, 1, 128, kind="oscillatory", value=1.0, amplitude=1.5,
                             wavelength=2 * np.pi / 8, base="constant")
    assert rho.min() == 0.0
    assert any("clipped" in rec.message for rec in caplog.records)


def test_unresolved_wavelength_raises(tmp_path):
    # h = 2 pi / 16; need wavelength >= 4 h = pi / 2
    wavelength = 2 * np.pi / 32
    path = write_cfg(
        tmp_path, f"grid.n = 16\ninitial.kind = oscillatory\ninitial.wavelength = {wavelength!r}\n"
    )
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 3
    assert err.value.reason == (
        f"initial.wavelength: must be at least 4 cells ({np.pi / 2:.4g}) "
        f"for initial.kind = oscillatory, got {wavelength!r}"
    )


def test_bump_initial_is_positive_and_localized(tmp_path):
    rho = parsed_initial(tmp_path, 2, 32, kind="bump", value=0.5, amplitude=1.0, width=0.8)
    assert rho.min() >= 0.5
    assert rho.max() > 1.2
    # far corner barely sees the bump
    assert rho.data[0, 0] < 0.51


# ------------------------------------------------------------ built forcing

def test_zero_forcing_is_none(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "grid.n = 16\nforcing.kind = zero\n"))
    assert cfg.forcing is None


def test_cosine_forcing_shape(tmp_path):
    g = GridSpec(2, 16)
    cfg = parse_config(write_cfg(
        tmp_path, "grid.dim = 2\ngrid.n = 16\nforcing.kind = cosine\nforcing.amplitude = 0.25\n"
    ))
    x, _ = g.meshgrid()
    np.testing.assert_allclose(cfg.forcing.data, 0.25 * np.cos(x))


def test_file_forcing_roundtrip(tmp_path):
    g = GridSpec(1, 32)
    field = _cosine(g)
    snap = tmp_path / "f.asf"
    write_snapshot(str(snap), field, 0.0)
    cfg = parse_config(write_cfg(
        tmp_path, f"grid.n = 32\nforcing.kind = file\nforcing.path = {snap}\n"
    ))
    np.testing.assert_allclose(cfg.forcing.data, field.data)


def test_file_forcing_grid_mismatch(tmp_path):
    g = GridSpec(1, 32)
    field = ScalarField.constant(g, 1.0)
    snap = tmp_path / "f.asf"
    write_snapshot(str(snap), field, 0.0)
    path = write_cfg(
        tmp_path, f"grid.n = 64\n# on 32 cells\n\n\nforcing.path = {snap}\nforcing.kind = file\n"
    )
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 5
    assert err.value.reason.startswith("forcing.path: ")
