"""End-to-end property test: every command on every drawn in-range config
ends in a verdict (exit code and at most one FAIL config/solver line), with
nothing but log lines on stderr, and a second run writes the same bytes."""

import contextlib
import hashlib
import io
import logging
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from test_config import IN_RANGE, _cosine, _drawn_density, _drawn_grid, _floats, _written

from anisostokes import cli, config, marching
from anisostokes.fields import write_snapshot

# small grids and short horizons keep each march to milliseconds
SMALL_GRIDS = st.sampled_from([(1, 16), (1, 32), (2, 16)])
MAX_SLABS, MAX_SUBSTEPS = 8, 16
DRAWN = {key: s for key, s in IN_RANGE.items() if key not in ("grid.dim", "grid.n", "run.t_end")}


def _tree(out_dir):
    """The bytes of every file under ``out_dir``, by relative path."""
    if not os.path.isdir(out_dir):
        return None
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).rglob("*")) if path.is_file()
    }


def _main(command, cfg, out_dir, strict):
    """``cli.main`` as a user runs it, with its own log handler on stderr,
    but with a defect study marching in this process and the runaway guards
    lowered: a config needing more than ``MAX_SLABS`` slabs fails the config
    and a slab needing more than ``MAX_SUBSTEPS`` substeps fails the solver,
    as they do at their shipped bounds, so every drawn march stays short."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(mock.patch.object(logging.root, "handlers", []))
        stack.enter_context(mock.patch.object(logging.root, "level", logging.root.level))
        stack.enter_context(mock.patch.object(cli, "_FORK_WARNS", True))
        stack.enter_context(mock.patch.object(config, "_MAX_SLABS", MAX_SLABS))
        stack.enter_context(mock.patch.object(marching, "_MAX_SUBSTEPS", MAX_SUBSTEPS))
        code = cli.main([command, cfg, "--out", out_dir] + ["--strict"] * strict)
    return code, out.getvalue().replace(out_dir, "<out>"), err.getvalue(), _tree(out_dir)


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(SMALL_GRIDS, _floats(0.0, 0.05), st.fixed_dictionaries({}, optional=DRAWN), st.booleans())
def test_every_command_ends_in_a_verdict(grid, t_end, drawn, strict):
    values = {"grid.dim": grid[0], "grid.n": grid[1], "run.t_end": t_end, **drawn}
    g = _drawn_grid(values)
    rho0 = _drawn_density(values, g)
    zero_mass = rho0 is not None and rho0.max() == 0.0
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "run.cfg")
        Path(cfg).write_text("".join(f"{k} = {_written(v)}\n" for k, v in values.items()))
        if "forcing.path" in values:
            write_snapshot(os.path.join(tmp, values["forcing.path"]), _cosine(g), 0.0)
        for command in cli._COMMANDS:
            first = _main(command, cfg, os.path.join(tmp, f"{command}-1"), strict)
            code, out, err, _ = first
            assert code in (0, 1, 2, 3), (command, out)
            verdicts = [line for line in out.splitlines() if line.startswith(
                ("FAIL config", "FAIL solver")
            )]
            if code in (2, 3):
                assert len(verdicts) == 1, (command, out)
                assert verdicts[0].startswith("FAIL config" if code == 2 else "FAIL solver")
            assert all(line.startswith("anisostokes: ") for line in err.splitlines()), err
            if zero_mass:
                assert code == 2, (command, out)
            assert _main(command, cfg, os.path.join(tmp, f"{command}-2"), strict) == first, command
