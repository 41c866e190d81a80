"""Config parsing, initial-data and forcing construction."""

import os
import re
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anisostokes.config import (
    KEYS,
    InitialSpec,
    ParseError,
    UnknownKey,
    UnresolvedWavelength,
    default_of,
    make_forcing,
    make_initial,
    parse_config,
)
from anisostokes.fields import GridSpec, write_snapshot
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
    assert cfg.seed == 0
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
    [("params.delta", "-0.1"), ("transport.cfl", "1.5"), ("run.dt_max", "0"),
     ("transport.order", "3"), ("run.fp_tol", "-1e-9"), ("run.fp_max_iter", "0"),
     ("stokes.rtol", "0"), ("stokes.max_iter", "0")],
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
        ("run.store_every = 0", "run.store_every"),
        ("diagnostics.window = 0", "diagnostics.window"),
        ("diagnostics.window = 3", "diagnostics.window"),
        ("diagnostics.h_reg = -1e-9", "diagnostics.h_reg"),
        ("defect.windows = 4,0", "defect.windows"),
        ("defect.windows = 4,6", "defect.windows"),
        ("defect.ratios = 1,0", "defect.ratios"),
        ("sweep.eps_levels = 0.1,-0.01", "sweep.eps_levels"),
        ("sweep.eps_levels =", "sweep.eps_levels"),
        ("sweep.deltas = 0.4,0.2", "sweep.deltas"),
        ("sweep.deltas = 0.4,0.2,0.2,0.1", "sweep.deltas"),
        ("sweep.deltas = 0.4,0.2,0", "sweep.deltas"),
        ("initial.wavelength = 0.39\ninitial.kind = oscillatory", "initial.wavelength"),
        ("forcing.kind = file", "forcing.kind"),
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


# every key whose value reads back from RunConfig, with in-range values;
# windows divide every grid extent drawn here (16 or 32 cells per axis)
_WINDOWS = st.sampled_from([1, 2, 4, 8, 16])
IN_RANGE = {
    "grid.dim": st.sampled_from([1, 2, 3]),
    "grid.n": st.sampled_from([16, 32]),
    "params.gamma": _floats(1.0, 5.0, exclude_min=True),
    "params.eps": _floats(0.0, 1.0),
    "params.delta": _floats(0.0, 1.0),
    "params.eta": _floats(0.0, 1.0),
    "transport.cfl": _floats(0.0, 1.0, exclude_min=True),
    "transport.order": st.sampled_from([1, 2]),
    "stokes.rtol": _floats(1e-14, 1e-2),
    "stokes.max_iter": st.integers(1, 10_000),
    "run.t_end": _floats(0.0, 10.0),
    "run.slab": _floats(1e-6, 1.0),
    "run.fp_tol": _floats(0.0, 1.0),
    "run.fp_max_iter": st.integers(1, 1000),
    "run.dt_max": _floats(1e-6, 1.0),
    "run.store_every": st.integers(1, 100),
    "run.out": st.from_regex(r"[a-z0-9_./-]{1,12}", fullmatch=True),
    "run.seed": st.integers(0, 2**31),
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
    "defect.ratios": _levels(_floats(1e-3, 100.0)),
    "defect.windows": _levels(_WINDOWS),
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


def _rejected_across_keys(values):
    """An oscillatory wavelength below four cells, or a file forcing without a path."""
    dim = values.get("grid.dim", 1)
    grid = GridSpec(dim, values.get("grid.n", default_of("grid.n", dim)))
    wavelength = values.get("initial.wavelength", default_of("initial.wavelength"))
    return (values.get("initial.kind") == "oscillatory" and wavelength < 4.0 * grid.h) or (
        values.get("forcing.kind") == "file" and "forcing.path" not in values
    )


@settings(max_examples=60, deadline=None)
@given(st.fixed_dictionaries({}, optional=IN_RANGE))
def test_config_round_trip(values):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.cfg")
        Path(path).write_text(
            "".join(f"{key} = {_written(v)}\n" for key, v in values.items()), encoding="utf-8"
        )
        if _rejected_across_keys(values):
            with pytest.raises(ParseError):
                parse_config(path)
            return
        cfg = parse_config(path)
    for key in IN_RANGE:
        if key in values:
            expected = values[key]
            if key == "forcing.path":
                expected = os.path.join(tmp, expected)
        else:
            expected = default_of(key, cfg.grid.dim)
        assert _read_back(cfg, key) == expected, key


def test_readme_configuration_keys_are_known():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```text\n(.*?)```", section, re.S).group(1)
    keys = [line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line]
    assert keys
    assert [k for k in keys if k not in KEYS] == []


def test_duplicate_key_names_both_lines(tmp_path):
    path = write_cfg(tmp_path, "grid.dim = 1\n# again\ngrid.dim = 2\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 3
    assert "grid.dim" in err.value.reason
    assert "line 1" in err.value.reason


def test_unknown_key_is_an_error(tmp_path):
    path = write_cfg(tmp_path, "params.gama = 2.0\n")
    with pytest.raises(UnknownKey) as err:
        parse_config(path)
    assert err.value.line == 1
    assert err.value.key == "params.gama"


def test_malformed_line_reports_position(tmp_path):
    path = write_cfg(tmp_path, "grid.dim = 1\njust some words\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2


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
    coeff = make_initial(InitialSpec(kind="cosine", value=2.0, amplitude=0.5), g)
    snap = tmp_path / "a0000.asf"
    write_snapshot(str(snap), coeff, 0.0)
    path = write_cfg(
        tmp_path,
        f"grid.n = 16\nviscosity.kind = varying\nviscosity.files = 0000:{snap}\n",
    )
    cfg = parse_config(path)
    assert isinstance(cfg.tensor, VaryingFull)
    assert not cfg.tensor.time_dependent
    np.testing.assert_allclose(cfg.tensor.tensor_at(0.0)[0, 0, 0, 0], coeff.data)


def test_varying_tensor_rejects_bad_index_group(tmp_path):
    g = GridSpec(1, 16)
    coeff = make_initial(InitialSpec(), g)
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
    coeff = make_initial(InitialSpec(kind="cosine", value=2.0, amplitude=0.5), g)
    force = make_initial(InitialSpec(kind="cosine", value=0.0, amplitude=1.0), g)
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
    np.testing.assert_array_equal(cfg.tensor.tensor_at(0.0)[0, 0, 0, 0], coeff.data)
    np.testing.assert_array_equal(make_forcing(cfg.forcing, g).data, force.data)
    cfg = parse_config(write_cfg(
        cfg_dir,
        "grid.n = 16\nforcing.kind = file\nforcing.breakpoints = 0:data/a.asf;0.5:data/f.asf\n",
        name="b.cfg",
    ))
    lookup = make_forcing(cfg.forcing, g)
    np.testing.assert_array_equal(lookup(0.1).data, coeff.data)
    np.testing.assert_array_equal(lookup(0.7).data, force.data)


@pytest.mark.parametrize("key,text,line", [
    ("viscosity.files", "viscosity.kind = varying\nviscosity.files = 0000:data/{name}\n", 3),
    ("forcing.path", "forcing.kind = file\nforcing.path = data/{name}\n", 3),
    ("forcing.breakpoints",
     "forcing.kind = file\n# two pieces\nforcing.breakpoints = 0:data/f.asf;1:data/{name}\n", 4),
], ids=["viscosity.files", "forcing.path", "forcing.breakpoints"])
@pytest.mark.parametrize("name", ["missing.asf", "garbage.asf"])
def test_unreadable_snapshot_names_its_line(tmp_path, monkeypatch, key, text, line, name):
    g, cfg_dir, elsewhere, _coeff, _force = snapshot_dir(tmp_path)
    (cfg_dir / "data" / "garbage.asf").write_bytes(b"not a snapshot")
    # the same names relative to the cwd must not be picked up instead
    (elsewhere / "data").mkdir()
    (elsewhere / "data" / "missing.asf").write_bytes((cfg_dir / "data" / "f.asf").read_bytes())
    monkeypatch.chdir(elsewhere)
    path = write_cfg(cfg_dir, "grid.n = 16\n" + text.format(name=name))
    with pytest.raises(ParseError) as err:
        make_forcing(parse_config(path).forcing, g)
    assert err.value.line == line
    assert key in err.value.reason and name in err.value.reason


def test_unknown_kinds_are_rejected(tmp_path):
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "viscosity.kind = tensorial\n"))
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "initial.kind = vortex\n", name="b.cfg"))
    with pytest.raises(ParseError):
        parse_config(write_cfg(tmp_path, "forcing.kind = wind\n", name="c.cfg"))


# -------------------------------------------------------------- make_initial

def test_constant_initial_is_uniform():
    g = GridSpec(2, 16)
    rho = make_initial(InitialSpec(kind="constant", value=1.0), g)
    assert rho.min() == 1.0
    assert rho.max() == 1.0


def test_oscillatory_with_zero_amplitude_equals_base():
    g = GridSpec(1, 128)
    base = make_initial(InitialSpec(kind="cosine", value=1.0, amplitude=0.3), g)
    osc = make_initial(
        InitialSpec(kind="oscillatory", value=1.0, amplitude=0.0,
                    wavelength=2 * np.pi / 16, base="cosine"),
        g,
    )
    # amplitude covers both the base cosine and the oscillation; rebuild with
    # the base amplitude pinned but the oscillation off
    osc2 = make_initial(
        InitialSpec(kind="oscillatory", value=1.0, amplitude=0.3,
                    wavelength=2 * np.pi / 16, base="constant"),
        g,
    )
    assert (osc.data == 1.0).all()
    assert osc2.min() == pytest.approx(0.7, abs=1e-12)
    del base


def test_oscillatory_aligned_extremes():
    # base 1, a = 0.5, wavelength 2 pi / 16 on n = 128: sin hits +-1 exactly
    g = GridSpec(1, 128)
    rho = make_initial(
        InitialSpec(kind="oscillatory", value=1.0, amplitude=0.5,
                    wavelength=2 * np.pi / 16, base="constant"),
        g,
    )
    assert rho.min() == pytest.approx(0.5, abs=1e-12)
    assert rho.max() == pytest.approx(1.5, abs=1e-12)


def test_oscillatory_clips_at_zero_and_logs(caplog):
    g = GridSpec(1, 128)
    with caplog.at_level("INFO", logger="anisostokes"):
        rho = make_initial(
            InitialSpec(kind="oscillatory", value=1.0, amplitude=1.5,
                        wavelength=2 * np.pi / 8, base="constant"),
            g,
        )
    assert rho.min() == 0.0
    assert any("clipped" in rec.message for rec in caplog.records)


def test_unresolved_wavelength_raises():
    g = GridSpec(1, 16)  # h = 2 pi / 16; need wavelength >= 4 h = pi / 2
    with pytest.raises(UnresolvedWavelength):
        make_initial(
            InitialSpec(kind="oscillatory", wavelength=2 * np.pi / 32), g
        )


def test_bump_initial_is_positive_and_localized():
    g = GridSpec(2, 32)
    rho = make_initial(
        InitialSpec(kind="bump", value=0.5, amplitude=1.0, width=0.8), g
    )
    assert rho.min() >= 0.5
    assert rho.max() > 1.2
    # far corner barely sees the bump
    assert rho.data[0, 0] < 0.51


# -------------------------------------------------------------- make_forcing

def test_zero_forcing_is_none():
    from anisostokes.config import ForcingSpec

    assert make_forcing(ForcingSpec(kind="zero"), GridSpec(1, 16)) is None


def test_cosine_forcing_shape():
    from anisostokes.config import ForcingSpec

    g = GridSpec(2, 16)
    f = make_forcing(ForcingSpec(kind="cosine", amplitude=0.25), g)
    x, _ = g.meshgrid()
    np.testing.assert_allclose(f.data, 0.25 * np.cos(x))


def test_file_forcing_roundtrip(tmp_path):
    from anisostokes.config import ForcingSpec

    g = GridSpec(1, 32)
    field = make_initial(InitialSpec(kind="cosine", value=0.0, amplitude=1.0), g)
    snap = tmp_path / "f.asf"
    write_snapshot(str(snap), field, 0.0)
    f = make_forcing(ForcingSpec(kind="file", path=str(snap)), g)
    np.testing.assert_allclose(f.data, field.data)


def test_file_forcing_with_breakpoints(tmp_path):
    from anisostokes.config import ForcingSpec

    g = GridSpec(1, 32)
    f0 = make_initial(InitialSpec(kind="constant", value=1.0), g)
    f1 = make_initial(InitialSpec(kind="constant", value=3.0), g)
    p0, p1 = tmp_path / "f0.asf", tmp_path / "f1.asf"
    write_snapshot(str(p0), f0, 0.0)
    write_snapshot(str(p1), f1, 0.5)
    lookup = make_forcing(
        ForcingSpec(kind="file", breakpoints=((0.0, str(p0)), (0.5, str(p1)))), g
    )
    assert lookup(0.1).data[0] == 1.0
    assert lookup(0.7).data[0] == 3.0


def test_file_forcing_grid_mismatch(tmp_path):
    from anisostokes.config import ForcingSpec

    g = GridSpec(1, 32)
    field = make_initial(InitialSpec(), g)
    snap = tmp_path / "f.asf"
    write_snapshot(str(snap), field, 0.0)
    with pytest.raises(ValueError):
        make_forcing(ForcingSpec(kind="file", path=str(snap)), GridSpec(1, 64))


def test_unsorted_breakpoints_rejected(tmp_path):
    path = write_cfg(
        tmp_path, "forcing.kind = file\nforcing.breakpoints = 0.5:b.asf;0.0:a.asf\n"
    )
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 2
