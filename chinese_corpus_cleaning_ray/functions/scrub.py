"""Sensitive-word scrubbing — a char-trie (DFA) filter with the exact match
semantics of the reference (ref:text_quality_filter/utils/sensitive_filter.py).

Semantics that the byte-exact scrub gate depends on (ref:sensitive_filter.py:72-104):

- the WHOLE message is lowercased first; non-matching characters are emitted
  from the lowercased message, so the output is entirely lowercase
  (ref:sensitive_filter.py:82).
- scanning is left-to-right from each start position; the SHORTEST complete
  word wins (the walk stops the first time it steps into a terminal node —
  ref:sensitive_filter.py:91-96).
- a match of length L is replaced by ``repl * L`` and scanning resumes
  immediately after the matched span (ref:sensitive_filter.py:94-96,102).
- a walk that runs out of trie (or out of message) without completing a word
  emits ONE character and advances one position — so a word that is a strict
  prefix of an entry does not get scrubbed (the ``add("1989年")`` /
  ``filter("1989")`` regression, ref:filter.py:162-165).

The implementation is our own: a nested-dict trie plus a regex "candidate
jump" — positions where no word can start (the char starts no word, or it
starts only longer words and the next char is second in none) are copied
wholesale via one C-level regex search instead of a per-char Python loop.
This changes nothing semantically (those positions emit their own lowercased
char either way) and makes clean text nearly free.

The walk exists once, in ``scan``: it takes ALREADY-lowercased text and
returns the scrubbed text and the match list together, so a caller that
needs both (the feature check, the scrub and its count) pays one lowercase
and one walk. ``filter`` and ``detect`` are one-line views of it.
"""

from __future__ import annotations

import re
import sys
from collections.abc import Iterable

_TERM = "\x00"  # terminal marker key (same sentinel idea as ref:sensitive_filter.py:17)
# the one node every word end with nothing below it shares; never mutated
_LEAF = {_TERM: True}


def _is_leaf(node: dict) -> bool:
    # by content, not identity: a pickled trie shares its own leaf copy
    return len(node) == 1 and _TERM in node


class DFAScrubber:
    """Trie-based scrub/detect/count with reference-identical semantics."""

    def __init__(self, words: Iterable[str] = ()):
        self.root: dict = {}
        for w in words:
            self.add(w)
        self._candidate_re: re.Pattern | None = None

    def add(self, word: str) -> None:
        # lowercase then strip — ref:sensitive_filter.py:25-27
        chars = word.lower().strip()
        if not chars:
            return
        # interned key chars and one shared leaf halve a large trie's memory
        # (43k words: 34 → 18 MB); a shared leaf is replaced, never extended
        node = self.root
        for ch in chars[:-1]:
            ch = sys.intern(ch)
            nxt = node.get(ch)
            if nxt is None:
                nxt = node[ch] = {}
            elif _is_leaf(nxt):
                nxt = node[ch] = {_TERM: True}
            node = nxt
        last = sys.intern(chars[-1])
        nxt = node.get(last)
        if nxt is None:
            node[last] = _LEAF
        elif _TERM not in nxt:
            nxt[_TERM] = True
        self._candidate_re = None

    def parse_list(self, words: Iterable[str]) -> None:  # ref:sensitive_filter.py:63-70
        for w in words:
            self.add(w)

    def parse_file(self, path: str) -> None:  # ref:sensitive_filter.py:46-61
        with open(path, encoding="utf-8") as f:
            for line in f:
                self.add(line.strip())

    # -- internal ---------------------------------------------------------

    def _candidates(self) -> re.Pattern | None:
        """Regex of the positions where a match can start, for the jump scan:
        a char that is a whole word, or a word's first char followed by a
        char that is second in SOME word. The second-char class is a
        superset test (the trie walk decides), but it skips most first-char
        hits: on the packaged list ≈ 2 candidates per turn instead of ≈ 11."""
        if self._candidate_re is None and self.root:
            def cls(chars) -> str:
                return "[" + "".join(re.escape(c) for c in sorted(chars)) + "]"

            whole = [c for c, node in self.root.items() if _TERM in node]
            first = [c for c, node in self.root.items() if _TERM not in node]
            second = {c for node in self.root.values() for c in node if c != _TERM}
            alts = [cls(whole)] if whole else []
            if first:
                alts.append(f"{cls(first)}(?={cls(second)})")
            self._candidate_re = re.compile("|".join(alts))
        return self._candidate_re

    # -- public API -------------------------------------------------------

    def scan(self, lowered: str, repl: str = "*") -> tuple[str, list[str]]:
        """The one trie walk: ``(scrubbed, matches)`` of an ALREADY-lowercased
        message. ``scrubbed`` is ``lowered`` with every shortest match
        replaced by ``repl * len(match)`` (``lowered`` itself when nothing
        matches); ``matches`` are the matched slices in order.

        From each candidate position the walk follows the trie and stops at
        the first terminal node (shortest word wins); a walk that leaves the
        trie or the message matches nothing there and resumes one position
        later — ref:sensitive_filter.py:72-134."""
        cand = self._candidates()
        if cand is None:
            return lowered, []
        root = self.root
        search = cand.search
        n = len(lowered)
        found: list[str] = []
        out: list[str] = []
        last = 0  # end of the last match: lowered[last:] is not yet in out
        m = search(lowered)
        while m is not None:
            pos = m.start()
            node = root[lowered[pos]]
            end = pos + 1
            while _TERM not in node and end < n:
                node = node.get(lowered[end])
                if node is None:
                    break
                end += 1
            if node is not None and _TERM in node:
                found.append(lowered[pos:end])
                out.append(lowered[last:pos])
                out.append(repl * (end - pos))
                last = end
                m = search(lowered, end)
            else:
                m = search(lowered, pos + 1)
        if not found:
            return lowered, found
        out.append(lowered[last:])
        return "".join(out), found

    def filter(self, message: str, repl: str = "*") -> str:
        """Scrub: lowercased text with every shortest match starred — byte-exact
        vs ref:sensitive_filter.py:72-104."""
        return self.scan(message.lower(), repl)[0]

    def detect(self, message: str) -> list[str]:
        """All (non-overlapping, shortest-first) matches, as lowercased slices —
        ref:sensitive_filter.py:106-134."""
        return self.scan(message.lower())[1]

    def count_sensitive_words(self, message: str) -> tuple[int, list[str]]:
        """(count, words) — ref:sensitive_filter.py:136-146."""
        words = self.detect(message)
        return len(words), words
