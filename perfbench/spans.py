"""In-memory span recorder and attribute patching for the traced run.

The benchmark measures layers from the outside: it replaces each public
call it wants to see with a wrapper that opens a span, runs the original
and closes the span.  Spans nest per thread, so a layer's *self time* is
its span's duration minus the time covered by its direct child spans.
Nothing here imports the program under test.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Tracer:
    """Record nested spans per thread and aggregate them by name.

    Args:
        clock: Monotonic clock returning seconds (injectable for tests).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counters: Dict[str, float] = defaultdict(float)
        #: Closed spans as ``(name, start, end, depth)``; depth 0 is a root.
        self.spans: List[Tuple[str, float, float, int]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> Optional[str]:
        """Name of the innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def enter(self, name: str) -> None:
        # Frame: [name, start, seconds covered by direct children].
        self._stack().append([name, self.clock(), 0.0])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack()
        name, start, children = stack.pop()
        duration = end - start
        if stack:
            stack[-1][2] += duration
        with self._lock:
            self.self_s[name] += duration - children
            self.calls[name] += 1
            self.spans.append((name, start, end, len(stack)))

    def count(self, name: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the counter ``name``."""
        with self._lock:
            self.counters[name] += amount

    def wrap(
        self,
        fn: Callable,
        name,
        after: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper that runs ``fn`` inside a span.

        Args:
            fn: The callable to wrap.
            name: Span name, or a callable ``(args, kwargs) -> name``.
            after: Optional ``(tracer, result, args, kwargs, parent)`` hook
                run after the call, on the same thread, outside the span;
                ``parent`` is the span that was open around the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self.parent()
            self.enter(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if after is not None:
                after(self, result, args, kwargs, parent)
            return result

        return traced

    def covered_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` covered by at least one span."""
        intervals = sorted(
            (max(s, start), min(e, end))
            for _name, s, e, depth in self.spans
            if depth == 0 and e > start and s < end
        )
        covered = 0.0
        cursor = start
        for s, e in intervals:
            if e <= cursor:
                continue
            covered += e - max(s, cursor)
            cursor = e
        return covered


class Patcher:
    """Replace attributes and put the originals back on exit.

    Use as a context manager; :meth:`restore` runs on exit even when the
    body raises, so a failed run never leaves the program patched.
    """

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr = value``, remembering the original."""
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_function(self, fn: Callable, wrapper: Callable, prefix: str) -> int:
        """Swap ``fn`` for ``wrapper`` in every loaded module under ``prefix``.

        Module-level functions are called through the importing module's
        global, so the wrapper has to go where each caller looks the name
        up, not only into the defining module.

        Returns:
            How many module globals were replaced.
        """
        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)
                    replaced += 1
        return replaced

    def restore(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()
