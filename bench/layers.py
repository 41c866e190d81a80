"""Layer tracing from outside the solver.

The tracer wraps the public functions of the anisostokes modules where
they are bound, times every call as a span and charges each span's
duration, minus the spans it encloses, to the span's layer as self time.
Nothing under ``src/`` is edited: wrappers are installed by attribute
assignment and the original objects are put back by :meth:`Tracer.restore`.

Binding rules that decide where wrappers go:

* ``marching``, ``cli``, ``stokes`` and the other modules import their
  helpers by name, so a function is wrapped at every module namespace that
  binds it, not only where it is defined.  The span records that namespace
  as its call site.
* ``fields`` is the leaf layer: its helpers are timed where another module
  calls them, never at ``fields``'s own namespace.  ``grad_l2_norm`` and
  ``sym_grad`` therefore keep the Jacobian they compute inside their own
  self time.
* ``StokesOperator.build`` and ``.apply`` are class attributes and are
  wrapped on the class.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import logging
import time
from dataclasses import dataclass

MODULES = (
    "config",
    "viscosity",
    "stokes",
    "fields",
    "transport",
    "marching",
    "diagnostics",
    "cli",
)


@dataclass
class LayerStat:
    calls: int = 0
    span_s: float = 0.0
    self_s: float = 0.0
    nbytes: int = 0


@dataclass(frozen=True)
class Target:
    """One attribute the tracer replaces: ``namespace.attr`` is ``layer``."""

    namespace: object
    attr: str
    layer: str
    site: str

    def current(self):
        return vars(self.namespace)[self.attr]


def targets():
    """Every attribute the tracer wraps, in a stable order."""
    mods = {m: importlib.import_module(f"anisostokes.{m}") for m in MODULES}
    public = {}
    for m, mod in mods.items():
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                public[obj] = f"{m}.{name}"
    out = []
    for m, mod in mods.items():
        for attr, obj in vars(mod).items():
            layer = public.get(obj) if inspect.isfunction(obj) else None
            if layer is None or (m == "fields" and layer.startswith("fields.")):
                continue
            out.append(Target(mod, attr, layer, m))
    op_class = mods["stokes"].StokesOperator
    out.append(Target(op_class, "build", "stokes.build", "stokes"))
    out.append(Target(op_class, "apply", "stokes.apply", "stokes"))
    return out


class _CFLCounter(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.count = 0

    def emit(self, record):
        if "CFL breach" in str(record.msg):
            self.count += 1


class Tracer:
    """Span timer over the wrapped layer boundaries.

    ``stats`` maps ``(layer, site)`` to a :class:`LayerStat`; ``counts``
    holds the solver counts read from public results (Picard iterations,
    slab halvings, accepted substeps) and from the ``anisostokes`` logger
    (CFL retries).
    """

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self._stack = []
        self._saved = []
        self._cfl = None

    # -- installation ---------------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in targets():
            original = target.current()
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, target))
            else:
                wrapped = self._wrap(original, target)
            self._saved.append((target, original))
            setattr(target.namespace, target.attr, wrapped)
        self._cfl = _CFLCounter()
        logging.getLogger("anisostokes").addHandler(self._cfl)

    def restore(self):
        for target, original in reversed(self._saved):
            setattr(target.namespace, target.attr, original)
        self._saved = []
        if self._cfl is not None:
            logging.getLogger("anisostokes").removeHandler(self._cfl)
            self._add("marching.cfl_retries", self._cfl.count)
            self._cfl = None

    # -- spans ----------------------------------------------------------

    def _add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def _observe(self, layer, args, result):
        if layer == "fields.write_snapshot":
            return args[1].data.nbytes
        if layer == "marching.march":
            self._add("marching.picard_iters", sum(r[2] for r in result.fixed_point_reports))
            self._add("marching.slab_halvings", result.slab_halvings)
        if layer in ("marching.march", "marching.direct_march"):
            # one stored state per accepted substep plus the initial state;
            # holds because every benchmark config keeps store_every = 1
            self._add("marching.substeps_accepted", len(result) - 1)
        return 0

    def _wrap(self, fn, target):
        key = (target.layer, target.site)
        stack = self._stack
        stats = self.stats
        observe = self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += span
                stat = stats.get(key)
                if stat is None:
                    stat = stats[key] = LayerStat()
                stat.calls += 1
                stat.span_s += span
                stat.self_s += span - frame[0]
            stat.nbytes += observe(target.layer, args, result)
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------

    def layer(self, layer, site=None):
        """Sum of the stats of ``layer`` over all sites, or at one site."""
        total = LayerStat()
        for (name, where), stat in self.stats.items():
            if name == layer and (site is None or where == site):
                total.calls += stat.calls
                total.span_s += stat.span_s
                total.self_s += stat.self_s
                total.nbytes += stat.nbytes
        return total

    def covered_s(self):
        """Self time of every span outside the ``cli`` layer."""
        return sum(s.self_s for (name, _), s in self.stats.items() if not name.startswith("cli."))

    def span_count(self):
        return sum(s.calls for s in self.stats.values())
