"""Dataset ingestion and generation.

Two converters turn a corpus record into one ``AlignedRecord`` of masks
and skips: ``lcs_align`` aligns string tuples onto their sentence by
iterated longest-common-substring matching (generation-style corpora), and
``lsoie_convert`` collapses n-ary CoNLL role layers into subject/relation/
object masks.  ``synth_generate`` makes sentences from a pool of
lexicalized knowledge-base triplets.  The module also owns the plain-text
file formats: tuples TSV, JSON-lines grids, IMoJIE, CoNLL and the pool.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from difflib import SequenceMatcher
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import (
    BadAnnotation,
    EmptyInput,
    Extraction,
    LabelGrid,
    PLACEHOLDER_TOKENS,
    SlotieError,
    TOKEN_PATTERN,
    TokenClass,
    TokenSequence,
    sequence_from_tokens,
    tokenize,
)


class FormatError(SlotieError):
    """Raised for malformed input files; the message carries the line number."""


class ConfigError(SlotieError):
    """Raised for unusable configuration (e.g. a too-small triplet pool)."""


@dataclass(frozen=True, slots=True)
class GenerativeRecord:
    """A sentence with its set of string tuples."""

    sentence: str
    tuples: tuple[Extraction, ...]


@dataclass(frozen=True, slots=True)
class ConllRecord:
    """A tokenized sentence with one role-tag layer per tuple annotation."""

    tokens: tuple[str, ...]
    role_labels: tuple[tuple[str, ...], ...]


#: Sentence templates, ``kind -> (probability, fewest, most, separator)``:
#: a sentence of that kind joins fewest to most triplet phrases with the
#: separator and closes with a period.  A ``None`` separator is a
#: conjunction drawn from ``CONJUNCTIONS`` after the triplets.
TEMPLATES = {
    "single": (0.10, 1, 1, " . "),
    "pair": (0.20, 2, 2, None),
    "commas": (0.35, 3, 5, " , "),
    "periods": (0.35, 2, 9, " . "),
}

CONJUNCTIONS = ("while", "and")

#: The largest template can draw this many triplets from the pool.
MIN_POOL_SIZE = max(most for _, _, most, _ in TEMPLATES.values())


@dataclass(frozen=True)
class TripletPool:
    """Lexicalized (subject, relation, object) triples, none with an empty
    part and none repeated, lest one sentence hold the same gold tuple twice."""

    triples: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        seen: dict[tuple[str, str, str], None] = {}
        for triple in self.triples:
            if fault := _admit_triple(triple, seen):
                raise ConfigError(fault)

    def __len__(self) -> int:
        return len(self.triples)

    @classmethod
    def from_tsv(cls, path) -> "TripletPool":
        triples: dict[tuple[str, str, str], None] = {}
        for lineno, line in enumerate(read_lines(path), start=1):
            if not line.strip():
                continue
            cols = line.split("\t")
            if len(cols) != 3:
                raise FormatError(f"{path}:{lineno}: expected 3 columns, got {len(cols)}")
            if fault := _admit_triple((cols[0], cols[1], cols[2]), triples):
                raise FormatError(f"{path}:{lineno}: {fault}")
        return cls(tuple(triples))


def _admit_triple(triple: tuple[str, str, str], seen: dict[tuple[str, str, str], None]) -> str:
    """Add ``triple`` to the pool triples ``seen`` holds in order, or, if it
    has an empty part or repeats one of them, return why not (else "")."""
    if not all(part.strip() for part in triple):
        return f"pool triple has an empty part: {triple}"
    if triple in seen:
        return f"pool repeats the triple {triple}"
    seen[triple] = None
    return ""


@dataclass(frozen=True, slots=True)
class SkippedTuple:
    """A tuple that a converter left out, and why; a CoNLL role layer has
    no ``extraction``.  ``unmatched``: tuple tokens no sentence token took."""

    extraction: Extraction | None
    reason: str
    unmatched: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class AlignedRecord:
    """Converter output, from ``lcs_align`` and ``lsoie_convert`` alike:
    the sentence, its placeholder-extended sequence, one mask row per kept
    tuple, and a skip entry per tuple that was left out."""

    sentence: str
    sequence: TokenSequence
    grid: LabelGrid
    skipped: tuple[SkippedTuple, ...]


#: A whole-chunk placeholder as one token, else a sentence token.
_PART_TOKEN = re.compile(
    rf"(?<!\S)(?:{'|'.join(map(re.escape, PLACEHOLDER_TOKENS))})(?!\S)|{TOKEN_PATTERN.pattern}"
)


def tuple_part_tokens(text: str) -> list[str]:
    """Tokenize one tuple part, keeping a whole-chunk [is]/[from]/[to] atomic."""
    return _PART_TOKEN.findall(text)


_PLACEHOLDER_KEYS = {ph: ph[1:-1] for ph in PLACEHOLDER_TOKENS}


def _match_key(token: str) -> str:
    return _PLACEHOLDER_KEYS.get(token, token)


def _longest_common_run(
    sent_keys: Sequence[str],
    sent_avail: Sequence[bool],
    part_keys: Sequence[str],
    part_avail: Sequence[bool],
) -> tuple[list[int], list[int]] | None:
    """Longest common contiguous run between the two *remaining* token
    subsequences; ties break toward the earliest sentence position, then
    the earliest part position (``find_longest_match``'s documented rule).
    Returns original-index lists or None."""
    a = [i for i, ok in enumerate(sent_avail) if ok]
    b = [j for j, ok in enumerate(part_avail) if ok]
    matcher = SequenceMatcher(
        None, [sent_keys[i] for i in a], [part_keys[j] for j in b], autojunk=False
    )
    start_a, start_b, size = matcher.find_longest_match(0, len(a), 0, len(b))
    if size == 0:
        return None
    return a[start_a : start_a + size], b[start_b : start_b + size]


#: Plain-int class ids: building the label array from ints is cheaper than
#: from IntEnum members.
_PART_CLASSES = tuple(int(c) for c in (TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT))
_PART_NAMES = ("arg1", "rel", "arg2")


def _align_tuple(sent_keys: list[str], ext: Extraction) -> list[int] | SkippedTuple:
    labels = [int(TokenClass.BACKGROUND)] * len(sent_keys)
    available = [True] * len(sent_keys)
    for token_class, name, part in zip(_PART_CLASSES, _PART_NAMES, ext.as_tuple()):
        part_tokens = tuple_part_tokens(part)
        if not part_tokens:
            return SkippedTuple(ext, f"empty {name}")
        part_keys = [_match_key(t) for t in part_tokens]
        part_avail = [True] * len(part_keys)
        while any(part_avail):
            run = _longest_common_run(sent_keys, available, part_keys, part_avail)
            if run is None:
                unmatched = tuple(t for t, ok in zip(part_tokens, part_avail) if ok)
                return SkippedTuple(ext, f"{name} tokens not found in sentence", unmatched)
            for si in run[0]:
                labels[si] = token_class
                available[si] = False
            for pj in run[1]:
                part_avail[pj] = False
    return labels


def _grid(rows: list[list[int]], n_tokens: int) -> LabelGrid:
    return LabelGrid(np.array(rows, dtype=np.int64).reshape(len(rows), n_tokens))


def _aligned(
    sentence: str, sequence: TokenSequence, outcomes: Iterable[list[int] | SkippedTuple]
) -> AlignedRecord:
    """Split per-tuple outcomes into grid rows and skips."""
    rows: list[list[int]] = []
    skipped: list[SkippedTuple] = []
    for outcome in outcomes:
        (skipped if isinstance(outcome, SkippedTuple) else rows).append(outcome)
    return AlignedRecord(sentence, sequence, _grid(rows, len(sequence)), tuple(skipped))


def lcs_align(record: GenerativeRecord) -> AlignedRecord:
    """Project string tuples onto token masks by iterated longest-common-run
    matching with exclusion.

    The sentence is tokenized with the three placeholders appended; a
    placeholder satisfies a tuple token ("is", or the bracketed "[is]")
    that does not occur in the sentence body.  Matched tokens are excluded
    from later matching, so the three spans of one mask are disjoint.  A
    tuple is skipped (and reported) if any of its tokens stays unmatched.
    """
    seq = tokenize(record.sentence, append_placeholders=True)
    sent_keys = [*seq.body_tokens, *_PLACEHOLDER_KEYS.values()]
    return _aligned(record.sentence, seq, (_align_tuple(sent_keys, ext) for ext in record.tuples))


# -- n-ary CoNLL conversion ---------------------------------------------------

_TAG_RE = re.compile(r"^(P|A(\d+))-(B|I)$")


def read_conll(path) -> list[ConllRecord]:
    """Read whitespace-separated CoNLL records: token column followed by one
    tag column per tuple annotation; blank lines separate sentences.  A tag
    other than ``O`` and the ``P``/``A<n>`` ``-B``/``-I`` forms is a
    FormatError naming its line."""
    records: list[ConllRecord] = []
    tokens: list[str] = []
    rows: list[list[str]] = []

    def flush(lineno: int) -> None:
        if not tokens:
            return
        widths = {len(r) for r in rows}
        if len(widths) != 1:
            raise FormatError(f"{path}:{lineno}: ragged tag columns within one record")
        if widths == {0}:
            raise FormatError(f"{path}:{lineno}: record has no tag columns")
        layers = tuple(tuple(layer) for layer in zip(*rows))
        records.append(ConllRecord(tuple(tokens), layers))
        tokens.clear()
        rows.clear()

    lineno = 0
    for lineno, line in enumerate(read_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            flush(lineno)
            continue
        cols = stripped.split()
        for tag in cols[1:]:
            if tag != "O" and not _TAG_RE.match(tag):
                raise FormatError(f"{path}:{lineno}: unknown role tag {tag!r}")
        tokens.append(cols[0])
        rows.append(cols[1:])
    flush(lineno)
    return records


def _layer_row(index: int, tags: Sequence[str], n_tokens: int) -> list[int] | SkippedTuple:
    """One role-tag layer as a mask row, its B/I continuity checked, or a
    skip when the layer lacks a predicate, an A0 or any higher argument."""
    if len(tags) != n_tokens:
        raise BadAnnotation(f"layer {index} has {len(tags)} tags for {n_tokens} tokens")
    classes: list[int] = []
    prev_role: str | None = None
    for position, tag in enumerate(tags):
        if tag == "O":
            classes.append(TokenClass.BACKGROUND)
            prev_role = None
            continue
        match = _TAG_RE.match(tag)
        if not match:
            raise BadAnnotation(f"unknown role tag {tag!r} at token {position}")
        role, arg_num, boundary = match.group(1), match.group(2), match.group(3)
        if boundary == "I" and prev_role != role:
            raise BadAnnotation(f"{tag} at token {position} continues no {role}-B span")
        prev_role = role
        if role == "P":
            classes.append(TokenClass.RELATION)
        elif arg_num == "0":
            classes.append(TokenClass.SUBJECT)
        else:
            classes.append(TokenClass.OBJECT)
    present = set(classes)
    if TokenClass.RELATION not in present:
        return SkippedTuple(None, f"layer {index}: no predicate")
    if TokenClass.SUBJECT not in present or TokenClass.OBJECT not in present:
        return SkippedTuple(None, f"layer {index}: fewer than two arguments")
    return classes + [TokenClass.BACKGROUND] * len(PLACEHOLDER_TOKENS)


def lsoie_convert(record: ConllRecord) -> AlignedRecord:
    """Collapse n-ary role annotations into triplet masks.

    Per layer: the predicate span becomes the Relation, A0 becomes the
    Subject, and every higher-numbered argument merges into the Object.  A
    layer that lacks a predicate, an A0, or any higher argument becomes a
    skip with no extraction.  The appended placeholders carry Background
    labels, and the record's sentence is its tokens joined by spaces.
    """
    n_tokens = len(record.tokens)
    # A list, built first: a malformed layer is reported before a bad token.
    outcomes = [_layer_row(i, tags, n_tokens) for i, tags in enumerate(record.role_labels)]
    sequence = sequence_from_tokens(record.tokens, append_placeholders=True)
    return _aligned(" ".join(record.tokens), sequence, outcomes)


# -- synthetic sentence generation --------------------------------------------

@dataclass(frozen=True, slots=True)
class SynthSample:
    record: GenerativeRecord
    template: str


def synth_generate(pool: TripletPool, n_sentences: int, seed: int) -> list[SynthSample]:
    """Generate sentences by lexicalizing pool triplets into templates.

    Each triplet is flattened by joining its parts with spaces; a template
    then chains 1-9 such phrases.  Triplets are drawn without replacement
    within a sentence, and the sampled triplets are the gold extractions.
    Deterministic for a fixed seed.
    """
    if n_sentences < 1:
        raise ConfigError(f"cannot generate {n_sentences} sentences; need at least 1")
    if len(pool) < MIN_POOL_SIZE:
        raise ConfigError(f"pool has {len(pool)} triples; need at least {MIN_POOL_SIZE}")
    kinds = list(TEMPLATES)
    probs = np.array([probability for probability, *_ in TEMPLATES.values()])
    rng = np.random.default_rng(seed)
    samples: list[SynthSample] = []
    for _ in range(n_sentences):
        kind = kinds[int(rng.choice(len(kinds), p=probs))]
        _, fewest, most, separator = TEMPLATES[kind]
        count = fewest if fewest == most else int(rng.integers(fewest, most + 1))
        chosen = [pool.triples[i] for i in rng.choice(len(pool), size=count, replace=False)]
        if separator is None:
            separator = f" {CONJUNCTIONS[int(rng.integers(len(CONJUNCTIONS)))]} "
        sentence = separator.join(" ".join(triple) for triple in chosen) + " ."
        extractions = tuple(Extraction(s, r, o) for s, r, o in chosen)
        samples.append(SynthSample(GenerativeRecord(sentence, extractions), kind))
    return samples


def template_frequencies(samples: Iterable[SynthSample]) -> dict[str, float]:
    counts = Counter(s.template for s in samples)
    total = sum(counts.values())
    return {kind: counts[kind] / total for kind in sorted(set(TEMPLATES) | set(counts))}


# -- file formats --------------------------------------------------------------

def read_text(path) -> str:
    """A UTF-8 text file's text, with "\r\n" and "\r" read as "\n"; a byte
    that is not UTF-8 is a FormatError naming the file and line."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # ``read_text`` decodes the whole file at once: ``exc.object`` is its bytes.
        head = exc.object[: exc.start]
        lineno = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise FormatError(f"{path}:{lineno}: {exc}") from exc


def read_lines(path) -> Iterator[str]:
    """The lines of a UTF-8 text file (as ``read_text`` reads it), yielded
    as the file is read; an empty file has none.  Lines break at "\n"
    only: ``str.splitlines`` would also break a record at U+0085, U+2028
    and other characters that ``json.dumps(ensure_ascii=False)`` and the
    TSV writer leave raw inside a field.
    """
    try:
        with open(path, encoding="utf-8") as file:
            for line in file:
                yield line.removesuffix("\n")
    except UnicodeDecodeError:
        read_text(path)  # raises the FormatError that names the line
        raise


def read_tuples_tsv(path, gold: bool = False) -> list[GenerativeRecord]:
    """Read `sentence TAB confidence TAB arg1 TAB rel TAB arg2` lines,
    grouping consecutive-or-not lines of the same sentence together.  A
    blank (whitespace-only) sentence is a FormatError: it has no tokens.
    With ``gold``, so is a tuple with an empty or whitespace-only part: no
    scheme could ever match it.  Predictions may hold such parts."""
    grouped: dict[str, list[Extraction]] = {}
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise FormatError(f"{path}:{lineno}: expected 5 columns, got {len(cols)}")
        sentence, conf_text, arg1, rel, arg2 = cols
        if not sentence.strip():
            raise FormatError(f"{path}:{lineno}: blank sentence")
        try:
            confidence = float(conf_text)
        except ValueError as exc:
            raise FormatError(f"{path}:{lineno}: bad confidence {conf_text!r}") from exc
        try:
            extraction = Extraction(arg1, rel, arg2, confidence)
        except ValueError as exc:  # the confidence's range
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if gold and not (arg1.strip() and rel.strip() and arg2.strip()):
            raise FormatError(f"{path}:{lineno}: gold tuple {(arg1, rel, arg2)} has an empty part")
        grouped.setdefault(sentence, []).append(extraction)
    return [GenerativeRecord(s, tuple(exts)) for s, exts in grouped.items()]


def write_tuples_tsv(path, records: Iterable[GenerativeRecord]) -> None:
    """Inverse of :func:`read_tuples_tsv`; a missing confidence is written
    as "1.0" by convention.  Fields with tabs or newlines and blank
    sentences, which the reader could not return, are a FormatError."""
    lines: list[str] = []
    for record in records:
        if not record.sentence.strip():
            raise FormatError(f"blank sentence {record.sentence!r}")
        for ext in record.tuples:
            conf = "1.0" if ext.confidence is None else str(float(ext.confidence))
            line = "\t".join((record.sentence, conf, ext.arg1, ext.rel, ext.arg2))
            # Four tabs are the separators; a fifth or a line break is a field's.
            if line.count("\t") != 4 or "\n" in line or "\r" in line:
                fields = (record.sentence, *ext.as_tuple())
                raise FormatError(f"tabs/newlines not allowed in fields: {fields!r}")
            lines.append(line)
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_imojie_jsonl(path) -> list[GenerativeRecord]:
    """Read generation-style JSON lines: one object per line with a
    "sentence" string and a "tuples" list of part-string lists.  Parts
    beyond the third are appended to arg2.  A blank (whitespace-only)
    sentence is a FormatError."""
    records: list[GenerativeRecord] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not (isinstance(obj, dict) and isinstance(obj.get("sentence"), str)
                and isinstance(obj.get("tuples"), list)):
            raise FormatError(f"{path}:{lineno}: need a sentence string and a tuples list")
        if not obj["sentence"].strip():
            raise FormatError(f"{path}:{lineno}: blank sentence")
        extractions: list[Extraction] = []
        for parts in obj["tuples"]:
            if not isinstance(parts, list) or len(parts) < 3:
                raise FormatError(f"{path}:{lineno}: tuples need at least 3 parts")
            if not all(isinstance(p, str) for p in parts):
                raise FormatError(f"{path}:{lineno}: tuple parts must be strings, got {parts!r}")
            extractions.append(Extraction(parts[0], parts[1], " ".join(parts[2:])))
        records.append(GenerativeRecord(obj["sentence"], tuple(extractions)))
    return records


#: The grid-format letter of each TokenClass id, indexed by the id.
_CLASS_LETTERS = "BSRO"
_LETTER_CLASSES = {letter: i for i, letter in enumerate(_CLASS_LETTERS)}


def write_grid_jsonl(path, records: Iterable[AlignedRecord]) -> None:
    """Write the mask-level training format: tokens plus per-mask class
    letters (B=Background, S=Subject, R=Relation, O=Object)."""
    lines = []
    for record in records:
        obj = {
            "sentence": record.sentence,
            "tokens": list(record.sequence.tokens),
            "placeholders": len(PLACEHOLDER_TOKENS) if record.sequence.has_placeholders else 0,
            "masks": [[_CLASS_LETTERS[c] for c in row] for row in record.grid.labels.tolist()],
        }
        lines.append(json.dumps(obj, ensure_ascii=False))
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


def read_grid_jsonl(path) -> list[tuple[TokenSequence, LabelGrid]]:
    """Read the training format back into sequences and label grids."""
    dataset: list[tuple[TokenSequence, LabelGrid]] = []
    for lineno, line in enumerate(read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            tokens, n_placeholders, mask_rows = obj["tokens"], obj["placeholders"], obj["masks"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise FormatError(f"{path}:{lineno}: malformed record: {exc}") from exc
        if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise FormatError(f"{path}:{lineno}: tokens must be a list of strings")
        # type() rather than isinstance: JSON true and 3.0 are no counts.
        if type(n_placeholders) is not int or n_placeholders not in (0, len(PLACEHOLDER_TOKENS)):
            raise FormatError(f"{path}:{lineno}: bad placeholder count {n_placeholders!r}")
        if n_placeholders and tuple(tokens[-n_placeholders:]) != PLACEHOLDER_TOKENS:
            raise FormatError(f"{path}:{lineno}: trailing tokens are not the placeholders")
        try:
            sequence = sequence_from_tokens(
                tokens[: len(tokens) - n_placeholders], append_placeholders=n_placeholders > 0
            )
        except (BadAnnotation, EmptyInput) as exc:
            raise FormatError(f"{path}:{lineno}: {exc}") from exc
        if not isinstance(mask_rows, list):
            raise FormatError(f"{path}:{lineno}: masks must be a list of rows")
        rows = []
        for row in mask_rows:
            if not isinstance(row, list) or len(row) != len(tokens):
                raise FormatError(f"{path}:{lineno}: a mask row must hold one class letter per token")
            try:
                rows.append([_LETTER_CLASSES[c] for c in row])
            except (KeyError, TypeError) as exc:
                raise FormatError(f"{path}:{lineno}: unknown class letter {exc}") from exc
        dataset.append((sequence, _grid(rows, len(tokens))))
    return dataset
