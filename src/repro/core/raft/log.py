"""Raft replicated log over a compacted prefix (Raft §5.3, §7)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List

__all__ = ["LogEntry", "RaftLog"]


@dataclass(frozen=True)
class LogEntry:
    """One committed-or-pending log entry."""

    term: int
    command: Any


class RaftLog:
    """1-indexed log with conflict truncation and a compacted prefix.

    Entries up to ``base_index`` have been folded into a state-machine
    snapshot; of them only ``(base_index, base_term)`` survives, which is
    what the consistency check and the election comparison need at the
    boundary.  Any question about an index below the base raises: those
    entries are committed history nobody may ask for again.
    """

    def __init__(self, base_index: int = 0, base_term: int = 0):
        self.base_index = base_index
        self.base_term = base_term
        self._entries: List[LogEntry] = []

    def __len__(self) -> int:
        """Entries retained (not the log's length: that is ``last_index``)."""
        return len(self._entries)

    @property
    def first_index(self) -> int:
        return self.base_index + 1

    @property
    def last_index(self) -> int:
        return self.base_index + len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else self.base_term

    def _offset(self, index: int) -> int:
        if index <= self.base_index:
            raise IndexError(f"log index {index} is not above the compacted "
                             f"base {self.base_index}")
        return index - self.base_index - 1

    def term_at(self, index: int) -> int:
        """Term of entry ``index``; the base answers with the base term
        (index 0 of an uncompacted log is the sentinel with term 0)."""
        if index == self.base_index:
            return self.base_term
        return self._entries[self._offset(index)].term

    def entry(self, index: int) -> LogEntry:
        return self._entries[self._offset(index)]

    def append(self, entry: LogEntry) -> int:
        self._entries.append(entry)
        return self.last_index

    def entries_from(self, index: int) -> List[LogEntry]:
        """Entries at positions >= ``index``."""
        return self._entries[self._offset(index):]

    def matches(self, index: int, term: int) -> bool:
        """AppendEntries consistency check for (prev_index, prev_term)."""
        if index > self.last_index:
            return False
        return self.term_at(index) == term

    def merge(self, prev_index: int, entries: List[LogEntry]) -> None:
        """Append ``entries`` after ``prev_index``, truncating conflicts."""
        for offset, entry in enumerate(entries):
            index = prev_index + 1 + offset
            if index <= self.last_index:
                if self.term_at(index) != entry.term:
                    del self._entries[self._offset(index):]
                    self._entries.append(entry)
                # else: already have it (idempotent)
            else:
                self._entries.append(entry)

    def up_to_date(self, other_last_index: int, other_last_term: int) -> bool:
        """Is (other_last_term, other_last_index) at least as current as us?"""
        if other_last_term != self.last_term:
            return other_last_term > self.last_term
        return other_last_index >= self.last_index

    def compact(self, index: int) -> None:
        """Drop the entries up to ``index``, which a snapshot now covers."""
        term = self.term_at(index)
        del self._entries[:self._offset(index) + 1]
        self.base_index, self.base_term = index, term

    def install(self, index: int, term: int) -> None:
        """Restart at a received snapshot's ``(index, term)``; the suffix
        survives only if our entry at ``index`` agrees with it (§7)."""
        if index <= self.last_index and self.term_at(index) == term:
            self.compact(index)
        else:
            self._entries = []
            self.base_index, self.base_term = index, term
