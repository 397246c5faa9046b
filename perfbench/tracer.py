"""Boundary tracer: wall self-time and counts at the public entry functions
of the ``repro`` layers, recorded from outside the program.

The benchmark never edits ``src/``. Instead :class:`Tracer` replaces each
boundary function with a timing wrapper for the duration of one traced
episode, then puts the originals back:

* A module-level function is rebound in *every* loaded ``repro`` module
  that holds the same object. ``parse_expression`` is imported by name
  into ``storageapi.read_api``, ``storageapi.superluminal`` and
  ``external.sparksim``; patching ``repro.sql.parser`` alone would miss
  those call sites.
* A method is replaced on its class, so every instance sees it.
* A call that returns a generator (``ReadApi.read_rows``,
  ``ObjectStore.list_objects``) is timed across its iteration: each
  ``next()`` re-enters the boundary's span.
* Self time is a span's duration minus the time its child boundary spans
  cover, kept on one stack, so recursive calls (``execute_plan``,
  ``Binder.bind``) are counted once per level and never double-counted.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

# extract(stat, args, kwargs, result) runs after a successful call;
# on_item(stat, item) runs for each item a returned generator yields.
Extract = Callable[["BoundaryStats", tuple, dict, Any], None]
OnItem = Callable[["BoundaryStats", Any], None]


@dataclass(frozen=True)
class Boundary:
    """One layer boundary: a metric prefix and the functions it wraps.

    ``targets`` are ``(module, qualname)`` pairs; a qualname with a dot
    names a method (``"ReadApi.read_rows"``). Several targets may share one
    boundary (``ObjectStore.get_object`` and ``get_range`` are both GETs).
    """

    name: str
    targets: tuple[tuple[str, str], ...]
    extract: Extract | None = None
    on_item: OnItem | None = None


@dataclass
class BoundaryStats:
    calls: int = 0
    self_ns: int = 0
    counters: Counter = field(default_factory=Counter)
    raised: Counter = field(default_factory=Counter)

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6


class _Span:
    """One open boundary span: the time its children covered so far."""

    __slots__ = ("child_ns",)

    def __init__(self) -> None:
        self.child_ns = 0


class Tracer:
    """Installs timing wrappers on a set of boundaries (see module doc)."""

    def __init__(self, boundaries: list[Boundary]) -> None:
        self.boundaries = boundaries
        self.stats: dict[str, BoundaryStats] = {b.name: BoundaryStats() for b in boundaries}
        self._stack: list[_Span] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for boundary in self.boundaries:
            stat = self.stats[boundary.name]
            for module_name, qualname in boundary.targets:
                owner, attr = _resolve(module_name, qualname)
                original = owner.__dict__[attr]
                if not isinstance(original, types.FunctionType):
                    raise TypeError(f"{module_name}.{qualname} is not a plain function")
                wrapper = self._wrap(original, stat, boundary)
                self._patch(owner, attr, original, wrapper)
                if isinstance(owner, types.ModuleType):
                    # Rebind every ``from module import name`` copy too.
                    for mod in list(sys.modules.values()):
                        if mod is owner or not getattr(mod, "__name__", "").startswith("repro"):
                            continue
                        for name, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, name, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} boundary spans left open")

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    # -- timing -------------------------------------------------------------

    def _enter(self) -> tuple[_Span, int]:
        span = _Span()
        self._stack.append(span)
        return span, time.perf_counter_ns()

    def _exit(self, stat: BoundaryStats, span: _Span, start: int) -> None:
        duration = time.perf_counter_ns() - start
        self._stack.pop()
        stat.self_ns += duration - span.child_ns
        if self._stack:
            self._stack[-1].child_ns += duration

    def _wrap(self, fn, stat: BoundaryStats, boundary: Boundary):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            span, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                stat.raised[type(exc).__name__] += 1
                raise
            finally:
                tracer._exit(stat, span, start)
            if boundary.extract is not None:
                boundary.extract(stat, args, kwargs, result)
            if isinstance(result, types.GeneratorType):
                return _TimedIterator(tracer, stat, result, boundary.on_item)
            return result

        return wrapper


class _TimedIterator:
    """A generator proxy whose every ``next()`` runs inside the boundary."""

    def __init__(self, tracer: Tracer, stat: BoundaryStats, gen, on_item: OnItem | None) -> None:
        self._tracer = tracer
        self._stat = stat
        self._gen = gen
        self._on_item = on_item

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        span, start = self._tracer._enter()
        try:
            item = next(self._gen)
        except StopIteration:
            raise
        except BaseException as exc:
            self._stat.raised[type(exc).__name__] += 1
            raise
        finally:
            self._tracer._exit(self._stat, span, start)
        if self._on_item is not None:
            self._on_item(self._stat, item)
        return item

    def close(self) -> None:
        self._gen.close()


def _resolve(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    owner: Any = module
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    if attr not in owner.__dict__:
        raise AttributeError(f"{module_name}.{qualname} not found")
    return owner, attr
