"""Per-layer call counts and self times, recorded from outside the program.

A layer is a module of ``src/hadpoly``.  ``Tracer.install`` replaces each
public function and method by a counting wrapper *where the calling code
finds it*: in every module namespace that binds it (``hadpoly.harness.hadamard``
as well as ``hadpoly.operators.hadamard``), in class dictionaries, in
module-level dictionaries such as ``harness.SUITES``, and in the closure
cells of suite functions built at import time.  The program's own files stay
untouched; the wrappers live only in the traced pass's process.

Every call is counted.  A call that crosses into another layer opens a span:
its duration is added to the callee layer and taken off the caller layer,
so each layer ends up with its exclusive (self) time.  Calls inside one
layer are only counted, which keeps the wrapper cheap on the hot kernel
paths.  ``Fraction`` is not wrapped: its arithmetic counts toward the layer
that does it, which for the polynomial kernel is ``poly``.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from collections import Counter, defaultdict

#: the modules of src/hadpoly that the workloads reach; ``cli`` is measured
#: only through setup_s
LAYERS = (
    "poly",
    "roots",
    "operators",
    "analysis",
    "decomp",
    "ehrhart",
    "generators",
    "harness",
    "rng",
)

#: the caller of the program's entry points
ROOT_LAYER = "bench"

#: dunder methods that do polynomial work and are wrapped like public methods
_WORK_DUNDERS = frozenset(
    {"__init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__", "__divmod__"}
)

#: name prefixes of the property checkers that generators call to accept a draw
_CHECKERS = ("is_", "has_", "decomposition_is_")


def _layer_of(fn) -> str | None:
    module = getattr(fn, "__module__", None) or ""
    head, _, layer = module.partition(".")
    if head == "hadpoly" and layer in LAYERS:
        return layer
    return None


class Tracer:
    """Counts calls per function and self time per layer for one pass.

    ``calls`` is keyed ``layer:qualname``, as in ``poly:Poly.__mul__``.
    """

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        #: gen_* calls made from outside generators
        self.draws = 0
        #: analysis/decomp checker calls made from inside generators
        self.attempts = 0
        self._stack = [ROOT_LAYER]
        self._wrappers: dict[int, object] = {}

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, layer: str):
        cached = self._wrappers.get(id(fn))
        if cached is not None:
            return cached
        key = f"{layer}:{fn.__qualname__}"
        is_draw = layer == "generators" and fn.__name__.startswith("gen_")
        is_check = layer in ("analysis", "decomp") and fn.__name__.startswith(_CHECKERS)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            parent = stack[-1]
            if parent == layer:
                return fn(*args, **kwargs)
            if is_draw:
                tracer.draws += 1
            elif is_check and parent == "generators":
                tracer.attempts += 1
            stack.append(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                self_s[layer] += spent
                self_s[parent] -= spent

        self._wrappers[id(fn)] = wrapper
        # marks the wrapper, so that a second binding of it is left alone
        wrapper.__traced_original__ = fn
        return wrapper

    def _wrapped_value(self, value):
        """The wrapper for a program function, or None for anything else."""
        if not isinstance(value, types.FunctionType):
            return None
        cached = self._wrappers.get(id(value))
        if cached is not None or hasattr(value, "__traced_original__"):
            return cached
        layer = _layer_of(value)
        if layer is None:
            return None
        wrapper = self._wrap(value, layer)
        self._patch_closure(value)
        return wrapper

    def _patch_closure(self, fn) -> None:
        for cell in fn.__closure__ or ():
            try:
                inner = cell.cell_contents
            except ValueError:  # an empty cell
                continue
            wrapped = self._wrapped_value(inner)
            if wrapped is not None:
                cell.cell_contents = wrapped

    def _patch_class(self, cls, layer: str) -> None:
        plain = dataclasses.is_dataclass(cls)
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_")
            if not (public or (name in _WORK_DUNDERS and not plain)):
                continue
            if isinstance(attr, staticmethod):
                setattr(cls, name, staticmethod(self._wrap(attr.__func__, layer)))
            elif isinstance(attr, types.FunctionType):
                setattr(cls, name, self._wrap(attr, layer))

    def install(self) -> None:
        """Wrap every public function and method of the traced layers."""
        modules = [sys.modules[f"hadpoly.{layer}"] for layer in LAYERS]
        for module in modules:
            for value in list(vars(module).values()):
                if isinstance(value, type) and value.__module__ == module.__name__:
                    self._patch_class(value, module.__name__.partition(".")[2])
        for module in modules:
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if name.startswith("_"):
                    # a private helper runs inside its own layer; only the
                    # functions its closure captured need wrapping
                    if isinstance(value, types.FunctionType):
                        self._patch_closure(value)
                    continue
                wrapped = self._wrapped_value(value)
                if wrapped is not None:
                    setattr(module, name, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapped = self._wrapped_value(item)
                        if wrapped is not None:
                            value[key] = wrapped

    # -- reading ------------------------------------------------------------

    def charge_item(self, seconds: float) -> None:
        """Book one item's wall time to the root; children were already
        taken off it, so the root keeps only the benchmark's own share."""
        self.self_s[ROOT_LAYER] += seconds

    def discount(self, seconds: float) -> None:
        """Take time the benchmark spent inside a span off that span's layer."""
        self.self_s[self._stack[-1]] -= seconds

    def snapshot(self) -> dict:
        return {
            "calls": dict(sorted(self.calls.items())),
            "self_s": {k: v for k, v in sorted(self.self_s.items())},
            "draws": self.draws,
            "attempts": self.attempts,
        }
