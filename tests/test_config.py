"""Config parsing, initial-data and forcing construction."""

import numpy as np
import pytest

from anisostokes.config import (
    InitialSpec,
    ParseError,
    UnknownKey,
    UnresolvedWavelength,
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
     ("transport.order", "3")],
)
def test_every_parameter_error_points_at_its_key(tmp_path, key, value):
    path = write_cfg(tmp_path, f"grid.n = 16\nparams.eta = 0.1\n{key} = {value}\n")
    with pytest.raises(ParseError) as err:
        parse_config(path)
    assert err.value.line == 3


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
