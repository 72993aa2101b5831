"""CPU time, resident memory and child processes, read from ``/proc``.

The serving tiers run in the benchmark process, in a forked socket host
or in forked pool workers.  These helpers account for all of them the
same way, without asking the program under test for anything.
"""

from __future__ import annotations

import os
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")

#: Resident memory is sampled at most this often during a replay.
RSS_EVERY_S = 0.1


def _stat_fields(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name (which may
    itself hold spaces), or ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            raw = handle.read().decode()
    except (FileNotFoundError, ProcessLookupError):
        return None
    return raw[raw.rindex(")") + 2 :].split()


def descendants(pid: int) -> list[int]:
    """Live descendants of ``pid`` (children, grandchildren, ...)."""
    parent_of = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None:
                parent_of[int(entry)] = int(fields[1])
    found: list[int] = []
    frontier = [pid]
    while frontier:
        current = frontier.pop()
        children = [child for child, parent in parent_of.items() if parent == current]
        found.extend(children)
        frontier.extend(children)
    return sorted(found)


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of a live process (0 once gone).

    The kernel counts in clock ticks (10 ms here), so read it over
    phases of seconds, not single calls.
    """
    if pid == os.getpid():
        return time.process_time()
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def rss_bytes(pid: int) -> int:
    """Current resident set size of a live process (0 once gone)."""
    try:
        with open(f"/proc/{pid}/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE
    except (FileNotFoundError, ProcessLookupError):
        return 0


class RssProbe:
    """Peak of the summed resident memory of a set of processes.

    ``maybe_sample`` is cheap enough to call on every round of a replay;
    it reads ``/proc`` at most once per :data:`RSS_EVERY_S` seconds.
    """

    def __init__(self, pids: list[int]):
        self.pids = list(pids)
        self.peak_bytes = 0
        self._next = 0.0

    def sample(self) -> None:
        self.peak_bytes = max(self.peak_bytes, sum(rss_bytes(pid) for pid in self.pids))
        self._next = time.perf_counter() + RSS_EVERY_S

    def maybe_sample(self) -> None:
        if time.perf_counter() >= self._next:
            self.sample()
