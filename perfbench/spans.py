"""In-memory span recording around calls into the repro layers.

Every span is ``(span_id, name, start_s, end_s, parent_id, request_id)``:
times are ``perf_counter`` seconds from the recorder's origin, ``parent_id``
is the span that was open on the same thread when the call began (``None``
at top level), and ``request_id`` is the request (or list of requests) the
wrapped call carried, when it carried any.  Wrappers are installed on the
layers' public names from outside the package and removed again on exit,
so an untraced run executes the unmodified code.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path


FIELDS = ["id", "name", "start_s", "end_s", "parent", "request"]


class SpanRecorder:
    """Collects spans in memory; :meth:`save` writes them once at the end."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        #: per-wrapped-name extra samples (e.g. worker compute seconds)
        self.samples: dict[str, list[float]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, function, name: str, request_of=None, on_result=None):
        """A wrapper of ``function`` that records one span per call.

        ``request_of(args, result)`` names the request id(s) the call
        carried; ``on_result(result)`` may add a sample under ``name``.
        """
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = function(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                request_id = request_of(args, result) if request_of else None
                self.spans.append((span_id, name, start - self.origin,
                                   end - self.origin, parent, request_id))
                if on_result is not None and result is not None:
                    self.samples.setdefault(name, []).append(on_result(result))

        return wrapper

    @contextmanager
    def installed(self, targets):
        """Patch ``(owner, attribute, name, request_of, on_result)`` targets."""
        originals = []
        try:
            for owner, attr, name, request_of, on_result in targets:
                original = getattr(owner, attr)
                originals.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, request_of, on_result))
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> list[float]:
        """Seconds of every span recorded under ``name``."""
        return [end - start for _, span_name, start, end, _, _ in self.spans
                if span_name == name]

    def by_name(self, name: str) -> list[tuple]:
        return [span for span in self.spans if span[1] == name]

    def save(self, path: Path) -> Path:
        """Write the spans as rows of :data:`FIELDS`, ordered by start."""
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[span_id, name, round(start, 7), round(end, 7), parent, request]
                for span_id, name, start, end, parent, request
                in sorted(self.spans, key=lambda span: span[2])]
        path.write_text(json.dumps({"fields": FIELDS, "spans": rows}, separators=(",", ":")))
        return path
