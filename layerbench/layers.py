"""Per-layer attribution for traced benchmark runs.

The program under test is not modified: :class:`LayerTrace` wraps the
public entry points of each layer (class methods and module-level names,
looked up in the namespace that calls them) for the duration of one traced
unit, and removes the wrappers afterwards.  Every wrapper keeps, per layer
name, the call count, the inclusive wall time, and the self time (inclusive
time minus the time of wrapped calls made inside it).  The benchmark opens
a root span around each unit, so the root's self time is the part of the
unit that no wrapper claimed, which is what the attribution-closure check
bounds.

Forked shard workers inherit whatever is patched when they fork and their
counts never reach the parent, so the sharded workload patches only
parent-side entry points (see ``Sharded.patches`` in ``workloads.py``).
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

__all__ = ["LayerTrace", "NullTrace", "Patch", "ROOT"]

#: name of the root span the benchmark opens around every traced unit
ROOT = "unit"

#: (owner object, attribute name, layer name, optional result hook); the
#: hook sees each result and returns what the caller receives
Patch = Tuple[Any, str, str, Optional[Callable[[Any], Any]]]


class NullTrace:
    """The untraced stand-in: spans cost one call and record nothing."""

    def span(self, name: str) -> contextlib.AbstractContextManager:
        return contextlib.nullcontext()


class LayerTrace:
    """Self-time accounting over wrapped entry points and explicit spans."""

    def __init__(self) -> None:
        #: layer name -> [calls, inclusive seconds, self seconds]
        self._records: Dict[str, List[float]] = {}
        #: event name -> count (result hooks, e.g. cache misses)
        self.counts: Dict[str, int] = {}
        #: child-time accumulators of the open spans; [0] is "outside"
        self._stack: List[float] = [0.0]
        self._undo: List[Tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def _record(self, name: str) -> List[float]:
        record = self._records.get(name)
        if record is None:
            record = self._records[name] = [0, 0.0, 0.0]
        return record

    def _close(self, record: List[float], started: float) -> None:
        """End the innermost open span, charging it to *record*."""
        elapsed = time.perf_counter() - started
        children = self._stack.pop()
        self._stack[-1] += elapsed
        record[0] += 1
        record[1] += elapsed
        record[2] += elapsed - children

    def _wrap(
        self, original: Callable, name: str, hook: Optional[Callable[[Any], Any]]
    ) -> Callable:
        record = self._record(name)
        stack = self._stack
        clock = time.perf_counter
        close = self._close

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                close(record, started)
            return result if hook is None else hook(result)

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block the benchmark itself runs (a direct program call)."""
        record = self._record(name)
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(record, started)

    def timed_iter(self, iterator: Iterable[Any], name: str) -> Iterator[Any]:
        """Charge the work done inside each ``next()`` of *iterator* to *name*.

        For lazy producers (generators), whose work happens while the
        caller iterates rather than when the producer is called.
        """
        record = self._record(name)
        source = iter(iterator)
        while True:
            self._stack.append(0.0)
            started = time.perf_counter()
            try:
                item = next(source)
            except StopIteration:
                self._close(record, started)
                return
            except BaseException:
                self._close(record, started)
                raise
            self._close(record, started)
            yield item

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installing and removing wrappers ------------------------------------

    def install(self, patches: List[Patch]) -> None:
        """Wrap every ``owner.attr``; :meth:`remove` restores them.

        Only attributes the owner defines itself are patched, so a
        subclass never wraps its base class's wrapper by inheritance.
        """
        for owner, attr, name, hook in patches:
            original = vars(owner).get(attr)
            if original is None or not callable(original):
                raise RuntimeError(f"{owner!r} defines no callable {attr!r}")
            if hasattr(original, "__wrapped__"):
                raise RuntimeError(f"{owner!r}.{attr} is already wrapped")
            setattr(owner, attr, self._wrap(original, name, hook))
            self._undo.append((owner, attr, original))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def take(self) -> Dict[str, Dict[str, float]]:
        """Per-layer ``{calls, total_s, self_s}`` since the last take; reset."""
        out = {
            name: {"calls": int(r[0]), "total_s": r[1], "self_s": r[2]}
            for name, r in self._records.items()
        }
        for record in self._records.values():
            record[0], record[1], record[2] = 0, 0.0, 0.0
        counts, self.counts = self.counts, {}
        for name, n in counts.items():
            out[name] = {"calls": n, "total_s": 0.0, "self_s": 0.0}
        return out
