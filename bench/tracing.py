"""In-memory span tracer that instruments the program from the outside.

Spans are recorded only by wrappers this benchmark installs on module
attributes (and on object attributes such as a denoiser's ``predict``);
nothing inside ``src/`` is changed.  Each span carries a name, start and
end (``time.perf_counter`` seconds), the id of the span that was open when
it started, and the run id.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    name: str
    start: float
    end: float
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Single-threaded span recorder.

    ``wrap`` replaces an attribute with a timing wrapper and remembers the
    original; ``restore`` puts every original back, last patch first.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._ids = itertools.count()
        self._patches: list[tuple[Any, str, Any]] = []

    # ---- recording --------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        span_id = next(self._ids)
        parent = self._open[-1] if self._open else None
        self._open.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans.append(Span(span_id, parent, name, start, end, self.run_id))

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` with ``make(original)`` until ``restore``."""
        original = getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._patches.append((owner, attr, original))

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        self.patch(owner, attr, lambda original: self.traced(name, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ---- analysis -----------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Spans are recorded from one thread, so children of one parent never
        overlap each other and lie inside the parent's interval.
        """
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return {s.span_id: s.duration - child_time.get(s.span_id, 0.0) for s in self.spans}

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(s)) + "\n")
