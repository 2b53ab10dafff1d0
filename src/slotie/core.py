"""Core domain types for slot-based triplet extraction.

A sentence is tokenized into whole-word tokens (optionally followed by the
three placeholder tokens ``[is]``, ``[from]``, ``[to]``).  A triplet is
represented as a per-token mask over four classes (Background, Subject,
Relation, Object); a sentence carries up to N such masks, one per slot.
This module holds those types plus the conversions between token masks and
plain (arg1, rel, arg2) string extractions.  Everything here is a pure
function over immutable values.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from enum import IntEnum
from types import NoneType
from typing import Sequence, get_args, get_origin

import numpy as np


class SlotieError(Exception):
    """Base class for every error raised by this package."""


class EmptyInput(SlotieError):
    """Raised when a sentence is empty or whitespace-only."""


class NoTriplet(SlotieError):
    """Raised when an all-Background mask is asked to produce a triplet."""


class BadAnnotation(SlotieError):
    """Raised for malformed gold annotations (bad indices, tags, or tokens)."""


def typed_value(key: str, hint, value, error: type[SlotieError]):
    """``value`` as the type ``hint`` of setting ``key``, else ``error``.

    The one typing rule for settings, whether from flags, a config file or
    checkpoint metadata: a bool comes only from a bool, an int only from an
    int (not a bool), a str only from a str, and a float from an int, a
    float or a string that ``float()`` reads (YAML 1.1 reads ``5e-4`` as a
    string).  ``X | None`` also takes None; ``tuple[float, ...]`` takes a
    list of such floats.
    """
    wanted = hint
    if NoneType in get_args(hint):
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not NoneType)
    if get_origin(hint) is tuple:
        if isinstance(value, (list, tuple)):
            return tuple(typed_value(key, get_args(hint)[0], v, error) for v in value)
    elif isinstance(value, bool):
        if hint is bool:
            return value
    elif hint is float and isinstance(value, (int, float, str)):
        try:
            return float(value)
        except (ValueError, OverflowError):
            pass
    elif isinstance(value, hint):
        return value
    name = wanted.__name__ if isinstance(wanted, type) else wanted
    raise error(f"config key {key!r}: expected {name}, got {value!r}")


class TokenClass(IntEnum):
    """The four per-token classes; BACKGROUND is the designated empty class."""

    BACKGROUND = 0
    SUBJECT = 1
    RELATION = 2
    OBJECT = 3


N_CLASSES = len(TokenClass)


# Reductions over a trailing class axis of width N_CLASSES.  numpy reduces a
# short trailing axis with one tiny inner loop per row, which is far slower
# than a few elementwise passes over the class planes ``x[..., c]``; these
# give the same bits as ``x.max(-1)``, ``x.sum(-1)`` and ``x.argmax(-1)``.


def class_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1)`` over the class planes, signed zeros included."""
    top = x[..., 0].copy()
    for c in range(1, N_CLASSES):
        np.maximum(top, x[..., c], out=top)
    return top


def class_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1)`` over the class planes: numpy adds an axis this
    narrow in order onto 0.0, so the fold rounds the same."""
    total = 0.0 + x[..., 0]
    for c in range(1, N_CLASSES):
        total += x[..., c]
    return total


def class_argmax(x: np.ndarray, top: np.ndarray | None = None) -> np.ndarray:
    """``x.argmax(axis=-1)`` of a NaN-free ``x`` over the class planes: the
    count of leading classes below the maximum, so a tie goes to the first.
    ``top`` is ``class_max(x)``, when the caller has it already."""
    if top is None:
        top = class_max(x)
    below = x[..., 0] != top
    label = below.astype(np.intp)
    for c in range(1, N_CLASSES - 1):
        below &= x[..., c] != top
        label += below
    return label

#: Trailing placeholder tokens that stand in for tuple words absent from the
#: sentence body ("is", "from", "to" used implicitly).
PLACEHOLDER_TOKENS = ("[is]", "[from]", "[to]")

_PUNCT = re.escape(string.punctuation)

#: One token: a lone ASCII punctuation character, or a word running from the
#: first to the last non-punctuation character of its whitespace-delimited
#: chunk, so interior punctuation stays attached ("28,750",
#: "signal-to-noise") while leading and trailing punctuation splits off.
TOKEN_PATTERN = re.compile(rf"[{_PUNCT}]|[^\s{_PUNCT}](?:\S*[^\s{_PUNCT}])?")


@dataclass(frozen=True, slots=True)
class TokenSequence:
    """A tokenized sentence.

    With ``has_placeholders`` the last three tokens are the appended
    ``[is]``, ``[from]``, ``[to]``, in that order.
    """

    tokens: tuple[str, ...]
    has_placeholders: bool

    def __post_init__(self) -> None:
        if self.has_placeholders and self.tokens[-3:] != PLACEHOLDER_TOKENS:
            raise BadAnnotation("placeholders must be the trailing [is], [from], [to] tokens")

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def body_tokens(self) -> tuple[str, ...]:
        """Tokens without the appended placeholders."""
        return self.tokens[:-3] if self.has_placeholders else self.tokens


@dataclass(frozen=True, eq=False, slots=True)
class LabelGrid:
    """The gold triplet masks of one sentence as one read-only (M, T) int64
    array of TokenClass ids, one row per mask; T is kept even when M = 0."""

    labels: np.ndarray

    def __post_init__(self) -> None:
        labels = np.array(self.labels, dtype=np.int64)
        if labels.ndim != 2:
            raise BadAnnotation(f"expected an (M, T) label array, got shape {labels.shape}")
        if labels.size and not (0 <= labels.min() and labels.max() < N_CLASSES):
            raise BadAnnotation(f"labels must be class ids in [0, {N_CLASSES})")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelGrid):
            return NotImplemented
        return np.array_equal(self.labels, other.labels)

    @property
    def n_gold(self) -> int:
        return self.labels.shape[0]


@dataclass(frozen=True, slots=True)
class Extraction:
    """An (arg1, rel, arg2) string triple with an optional confidence."""

    arg1: str
    rel: str
    arg2: str
    confidence: float | None = None

    def __post_init__(self) -> None:
        if self.confidence is not None and not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence {self.confidence} outside [0, 1]")

    def as_tuple(self) -> tuple[str, str, str]:
        return (self.arg1, self.rel, self.arg2)


@dataclass(frozen=True, slots=True)
class PredictionTensor:
    """A (T, N, C) probability tensor; rows over the class axis sum to one."""

    probs: np.ndarray

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", probs)
        if probs.ndim != 3 or probs.shape[2] != N_CLASSES:
            raise ValueError(f"expected shape (T, N, {N_CLASSES}), got {probs.shape}")
        if probs.min() < -1e-9 or probs.max() > 1.0 + 1e-9:
            raise ValueError("probabilities must lie in [0, 1]")
        # The tolerance of np.allclose(row_sums, 1.0, atol=1e-6) in one
        # pass; a NaN sum fails the comparison.
        if not np.abs(class_sum(probs) - 1.0).max() <= 1e-6 + 1e-5:
            raise ValueError("class probabilities must sum to 1 per (token, slot)")

    @property
    def n_tokens(self) -> int:
        return self.probs.shape[0]

    @property
    def n_slots(self) -> int:
        return self.probs.shape[1]


def _sequence(tokens: list[str], append_placeholders: bool) -> TokenSequence:
    if append_placeholders:
        tokens.extend(PLACEHOLDER_TOKENS)
    return TokenSequence(tuple(tokens), append_placeholders)


def tokenize(sentence: str, append_placeholders: bool = False) -> TokenSequence:
    """Whitespace-and-punctuation tokenization.

    Raises EmptyInput for empty or whitespace-only sentences.  When
    ``append_placeholders`` is set, the three placeholder tokens are added
    at the end.
    """
    tokens = TOKEN_PATTERN.findall(sentence)
    if not tokens:
        raise EmptyInput("cannot tokenize an empty sentence")
    return _sequence(tokens, append_placeholders)


def sequence_from_tokens(tokens: Sequence[str], append_placeholders: bool = False) -> TokenSequence:
    """Build a TokenSequence from pre-tokenized text, for corpora that
    arrive already tokenized; a token must be one whitespace-free word."""
    if not tokens:
        raise EmptyInput("cannot build a sequence from zero tokens")
    for token in tokens:
        if not token or token.split() != [token]:
            raise BadAnnotation(f"invalid token {token!r}")
    return _sequence(list(tokens), append_placeholders)


_TRIPLET_CLASSES = (TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT)


def mask_parts(seq: TokenSequence, row: list[int]) -> tuple[str, str, str]:
    """The Subject, Relation and Object strings of one mask row (a list of
    TokenClass ids, one per token): each class's tokens joined by spaces
    in token order.  Placeholder tokens keep their bracketed form."""
    # parts[c]: the tokens labeled with class id c, in token order.
    parts: list[list[str]] = [[] for _ in range(N_CLASSES)]
    for token, label in zip(seq.tokens, row):
        parts[label].append(token)
    subject, relation, obj = (" ".join(parts[c]) for c in _TRIPLET_CLASSES)
    return subject, relation, obj


def mask_to_extraction(seq: TokenSequence, labels: Sequence[int] | np.ndarray) -> Extraction:
    """Concatenate, in token order, the Subject/Relation/Object tokens of one
    mask row (a length-T sequence of TokenClass ids) into an (arg1, rel,
    arg2) extraction (see :func:`mask_parts`).

    Raises NoTriplet for an all-Background mask.
    """
    row = np.asarray(labels).tolist()
    if len(row) != len(seq):
        raise BadAnnotation(f"mask covers {len(row)} tokens but the sentence has {len(seq)}")
    if not any(row):
        raise NoTriplet("mask labels every token Background")
    return Extraction(*mask_parts(seq, row))


def grid_from_tuples(
    seq: TokenSequence,
    gold: Sequence[tuple[Sequence[int], Sequence[int], Sequence[int]]],
) -> LabelGrid:
    """Build a LabelGrid from (subject, relation, object) token-index triples.

    One mask row per triple, in the given order.  Raises BadAnnotation for
    out-of-range or conflicting indices, empty parts, or duplicate triples.
    """
    n_tokens = len(seq)
    labels = np.zeros((len(gold), n_tokens), dtype=np.int64)
    seen: set[tuple[tuple[int, ...], ...]] = set()
    for row, parts in zip(labels, gold):
        if len(parts) != 3:
            raise BadAnnotation(f"expected 3 index groups per triplet, got {len(parts)}")
        key = tuple(tuple(sorted(set(p))) for p in parts)
        if key in seen:
            raise BadAnnotation(f"duplicate gold triplet {key}")
        seen.add(key)
        for token_class, indices in zip(_TRIPLET_CLASSES, parts):
            if not indices:
                raise BadAnnotation(f"gold triplet has no {token_class.name} tokens")
            for index in indices:
                if not 0 <= index < n_tokens:
                    raise BadAnnotation(f"token index {index} out of range (T={n_tokens})")
                if row[index] != TokenClass.BACKGROUND:
                    raise BadAnnotation(f"token {index} labeled twice within one triplet")
                row[index] = token_class
    return LabelGrid(labels)
