"""Word ids of a byte span of a document file: the kernel that
corpus.DocumentFile runs on each span, in the command or in a reader forked
from it. It turns text into lines, tokens and ids in plain Python and
imports nothing outside the standard library; corpus makes the arrays.
"""

from __future__ import annotations

import io
import os
from collections.abc import Iterable, Iterator
from itertools import chain, repeat


class FirstSeen(dict):
    """token -> id, each new token taking the next id; ``tokens`` lists
    them by id."""

    def __init__(self):
        super().__init__()
        self.tokens: list[str] = []

    def __missing__(self, token: str) -> int:
        self[token] = wid = len(self.tokens)
        self.tokens.append(token)
        return wid


class _Span(io.FileIO):
    """Bytes start to end of an open file descriptor, each read at its
    offset, so that processes sharing the descriptor share no position.
    Every read goes through readinto, and the descriptor's offset is
    neither read nor moved: the span seeks as a stream that cannot."""

    read, readall = io.RawIOBase.read, io.RawIOBase.readall
    seekable, seek, tell = io.RawIOBase.seekable, io.RawIOBase.seek, io.RawIOBase.tell

    def __init__(self, fd: int, start: int, end: int):
        super().__init__(fd, closefd=False)
        self.pos, self.end = start, end

    def readinto(self, buffer) -> int:
        size = min(len(buffer), self.end - self.pos)
        got = os.preadv(self.fileno(), [memoryview(buffer)[:size]], self.pos) if size > 0 else 0
        self.pos += got
        return got


def open_span(fd: int, start: int, end: int | None) -> io.TextIOWrapper:
    """Bytes start to end of fd as the text stream that open(path,
    encoding="utf-8") gives: strict UTF-8, universal newlines. With end
    None, the bytes from fd's position on, read in order (from a pipe too)."""
    raw = io.FileIO(fd, closefd=False) if end is None else _Span(fd, start, end)
    return io.TextIOWrapper(io.BufferedReader(raw), encoding="utf-8")


def next_lines(text: io.TextIOWrapper, read_chars: int) -> list[str] | None:
    """The next block of about read_chars characters of whole lines of text,
    lowercased and cut at every line end of ``str.splitlines``; None at the
    end of the text."""
    # each block ends at a line end, so its lines are the file's lines
    block = text.readlines(read_chars)
    return "".join(block).lower().splitlines() if block else None


def token_ids(table: dict, tokens: Iterable[str]) -> Iterator[int]:
    """The id of each token: the one place a token becomes an id. A
    FirstSeen table gives a new token the next id; any other table is a
    vocabulary's index, which gives -1 to a token outside it and stays as
    it is."""
    return (map(table.__getitem__, tokens) if isinstance(table, FirstSeen)
            else map(table.get, tokens, repeat(-1)))


def tokenize_lines(lines: list[str], table: dict) -> tuple[list[list[str]], Iterator[int]]:
    """The whitespace-separated tokens of each line, and the id in table of
    each token in order, as it is taken from the iterator."""
    words = [line.split() for line in lines]
    return words, token_ids(table, chain.from_iterable(words))


def undecodable(exc: UnicodeDecodeError) -> str:
    """What a decode error says of the file, after its name."""
    return f"is not UTF-8 text: {exc.reason} (byte 0x{exc.object[exc.start]:02x})"
