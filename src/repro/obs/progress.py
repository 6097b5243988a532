"""Live stderr progress renderer for :class:`repro.exec.Session`.

Opt-in via ``--progress`` on ``exec run`` / ``experiment`` /
``serve bench``: one carriage-return-updated stderr line with jobs
done/total, the stage (member spec) of the latest event and the running
cache-hit count.  Renders nothing when stderr is not a TTY (CI logs stay
clean) and writes to stderr only, so piped stdout output is unaffected.
"""

from __future__ import annotations

import sys
from typing import Optional, TextIO


class ProgressRenderer:
    """One-line ``\\r`` progress display, TTY-gated."""

    def __init__(
        self, stream: Optional[TextIO] = None, enabled: Optional[bool] = None
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            isatty = getattr(self.stream, "isatty", None)
            enabled = bool(isatty()) if callable(isatty) else False
        self.enabled = enabled
        self._last_len = 0
        self._rendered = False

    def update(
        self, done: int, total: int, current: str = "", cache_hits: int = 0
    ) -> None:
        if not self.enabled:
            return
        pct = int(100 * done / total) if total else 100
        line = f"[{done}/{total}] {pct:3d}%  cache hits: {cache_hits}"
        if current:
            line += f"  {current}"
        pad = max(0, self._last_len - len(line))
        try:
            self.stream.write("\r" + line + " " * pad)
            self.stream.flush()
        except (OSError, ValueError):  # pragma: no cover - broken stream
            self.enabled = False
            return
        self._last_len = len(line)
        self._rendered = True

    def close(self) -> None:
        """End the progress line (newline) if anything was rendered."""
        if self._rendered:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):  # pragma: no cover
                pass
            self._rendered = False
            self._last_len = 0

    # -- session wiring ------------------------------------------------
    def attach(self, session) -> "ProgressRenderer":
        """Install as the session's ``on_event`` hook.

        ``SessionStats`` accumulate across plans, which is exactly what a
        multi-plan run (e.g. serve bench phase 2) should display.
        """

        def hook(event, stats) -> None:
            done = stats.executed + stats.cache_hits + stats.resumed
            current = event.member
            self.update(
                done,
                stats.total,
                current=f"{event.instance} · {current}",
                cache_hits=stats.cache_hits,
            )

        session.on_event = hook
        return self

    def __enter__(self) -> "ProgressRenderer":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
