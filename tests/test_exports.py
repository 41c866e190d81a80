"""The package surface: every exported name resolves, every exported
exception crosses a process boundary whole."""

import copy
import pickle
import re
from pathlib import Path

import pytest

import anisostokes
from anisostokes import marching

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    assert [name for name in anisostokes.__all__ if not hasattr(anisostokes, name)] == []
    assert len(set(anisostokes.__all__)) == len(anisostokes.__all__)
    namespace = {}
    exec("from anisostokes import *", namespace)
    assert set(anisostokes.__all__) <= set(namespace)


# one instance of each exported exception, built as the package raises it
EXCEPTIONS = [
    anisostokes.CFLBreach(0.02, 0.01, 45.0),
    anisostokes.InvalidParameter("gamma", "gamma must exceed 1"),
    anisostokes.KrylovNoConvergence(40, 1e-3, 1e-9),
    anisostokes.NegativeInput("density has negative samples (min -1.000e-03)"),
    anisostokes.NewtonFail("drag solve stalled at residual 1.000e-03"),
    anisostokes.NoContraction("update ratios [1.2, 1.3, 1.4] on slab [0.0, 0.05]"),
    anisostokes.NonFiniteField("field data must be finite"),
    anisostokes.NotCoercive("coercivity estimate -1.000e+00 is not positive"),
    anisostokes.ParseError(3, "grid.n: expected an integer"),
    anisostokes.SingularSymbol("singular momentum symbol on 7 modes"),
    anisostokes.SlabCollapse("slab shrank 6 times without contraction"),
    anisostokes.SolverFailure("the solver broke down"),
    anisostokes.SubstepOverflow("slab [0.0, 0.05] needs 1e+299 substeps, more than 10000"),
    anisostokes.UnknownKey(2, "params.gama"),
]


def test_each_exported_exception_has_a_case():
    values = (getattr(anisostokes, name) for name in anisostokes.__all__)
    exported = {v for v in values if isinstance(v, type) and issubclass(v, BaseException)}
    assert {type(exc) for exc in EXCEPTIONS} == exported


def located(exc):
    """``exc`` as a march re-raises it, with its slab added to the message."""
    with pytest.raises(type(exc)) as info:
        with marching._located("on slab [0.0, 0.05]"):
            raise exc
    return info.value


@pytest.mark.parametrize("exc", EXCEPTIONS, ids=lambda exc: type(exc).__name__)
def test_every_exported_exception_survives_a_pickle_round_trip(exc):
    # a worker process hands its failure back pickled
    for original in (exc, located(copy.copy(exc))):
        back = pickle.loads(pickle.dumps(original))
        assert type(back) is type(original)
        assert str(back) == str(original) and back.args == original.args
        assert vars(back) == vars(original)


def test_the_readme_solver_failures_are_the_solver_failure_classes():
    # a study ends in ``FAIL solver`` on exactly these, and on FloatingPointError
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = re.search(r"any `SolverFailure` \(([^)]*)\)", text)[1]
    values = {name: getattr(anisostokes, name) for name in anisostokes.__all__}
    failures = {name for name, v in values.items()
                if isinstance(v, type) and issubclass(v, anisostokes.SolverFailure)}
    assert set(re.findall(r"`(\w+)`", listed)) == failures - {"SolverFailure"}
    assert len(failures) == 10
    for cls in (anisostokes.CFLBreach, anisostokes.ParseError, anisostokes.InvalidParameter):
        assert not issubclass(cls, anisostokes.SolverFailure), cls
