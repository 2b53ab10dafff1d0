"""Benchmark scorers and the token-level training metric.

Four corpus scoring schemes are provided, differing in pair similarity and
matching strategy:

* ``wire57_score`` — token-overlap precision/recall per pair, greedy
  highest-F1 matching, micro-averaged over token counts.
* ``carb_score`` — stopword-filtered token overlap; recall averages each
  gold's best match, precision comes from a greedy one-to-one matching.
* ``carb_1to1_score`` — same pair similarity, but a single optimal
  one-to-one matching drives both precision and recall.
* ``oie2016_score`` — tuples match when the per-element heads agree; the
  head is a fixed heuristic (the last non-stopword token) and is
  intentionally parser-free.

One driver, ``_score``, runs the sentence loop and assembles the report;
each scheme supplies only its per-sentence fields and how its totals give
precision and recall.

All scorers take ``{sentence: [Extraction, ...]}`` maps for gold and
predictions, keyed by the exact sentence string.  Sentences present only
on the prediction side must be filtered out by the caller.  Empty
prediction sets score precision 0, not 1.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import Extraction, LabelGrid, N_CLASSES
from .data import tuple_part_tokens
from .matching import Assignment, hungarian_max, slot_targets

STOPWORDS_VERSION = "en-1"
_STOPWORDS_PATH = Path(__file__).with_name("stopwords_en.txt")


def _load_stopwords() -> frozenset[str]:
    words = []
    for line in _STOPWORDS_PATH.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.append(line)
    return frozenset(words)


STOPWORDS = _load_stopwords()


def stopwords_checksum() -> str:
    """SHA-256 of the shipped stopword file; pin this to reproduce scores."""
    return hashlib.sha256(_STOPWORDS_PATH.read_bytes()).hexdigest()


def scoring_tokens(text: str, drop_stopwords: bool = False) -> list[str]:
    """Lowercased tokens of one tuple part.

    With ``drop_stopwords``, stopwords are removed unless that would empty
    a non-empty part, in which case the unfiltered tokens are kept (so a
    bare "is" relation stays scoreable).
    """
    tokens = [t.lower() for t in tuple_part_tokens(text)]
    if drop_stopwords:
        kept = [t for t in tokens if t not in STOPWORDS]
        return kept if kept else tokens
    return tokens


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _harmonic(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class ScoredPair:
    """Token-overlap scores for one (prediction, gold) pair."""

    pred_index: int
    gold_index: int
    precision: float
    recall: float
    f1: float
    overlap: int = 0
    pred_size: int = 0
    gold_size: int = 0


@dataclass
class BenchmarkReport:
    scheme: str
    precision: float
    recall: float
    f1: float
    auc: float | None = None
    matched: int = 0
    gold_count: int = 0
    pred_count: int = 0
    per_sentence: list[dict] = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        # Shallow: dataclasses.asdict would deep-copy every per-sentence row.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def auc_single_point(precision: float, recall: float) -> float:
    """Area under the two-segment curve through (0, 1), (recall, precision)
    and (1, 0) — the documented single-point approximation, equal to
    (precision + recall) / 2.  A coarse convention, flagged approximate."""
    if not (0.0 <= precision <= 1.0 and 0.0 <= recall <= 1.0):
        raise ValueError("precision and recall must lie in [0, 1]")
    first = recall * (1.0 + precision) / 2.0
    second = (1.0 - recall) * precision / 2.0
    return first + second


# -- token-level training metric ------------------------------------------------

class MacroF1Accumulator:
    """Corpus-level token-wise macro F1 over the four classes.

    Decoded (T, N) slot labels are compared against the loss's own targets:
    a matched slot against its assigned gold mask, an unmatched slot against
    all-Background.  A class absent from both sides counts as perfect
    (F1 = 1), which keeps identical grids at exactly 1.0.
    """

    def __init__(self) -> None:
        self.true_positive = np.zeros(N_CLASSES, dtype=np.int64)
        self.pred_total = np.zeros(N_CLASSES, dtype=np.int64)
        self.gold_total = np.zeros(N_CLASSES, dtype=np.int64)

    def add(self, pred_labels: np.ndarray, gold: LabelGrid, assignment: Assignment) -> None:
        targets = slot_targets(pred_labels.shape, gold, assignment)
        # confusion[g, p]: cells whose target class is g and predicted class p.
        confusion = np.bincount(
            (targets * N_CLASSES + pred_labels).ravel(), minlength=N_CLASSES * N_CLASSES
        ).reshape(N_CLASSES, N_CLASSES)
        self.true_positive += np.diag(confusion)
        self.pred_total += confusion.sum(axis=0)
        self.gold_total += confusion.sum(axis=1)

    def value(self) -> float:
        scores = []
        for klass in range(N_CLASSES):
            tp = self.true_positive[klass]
            pred_n = self.pred_total[klass]
            gold_n = self.gold_total[klass]
            if pred_n == 0 and gold_n == 0:
                scores.append(1.0)
                continue
            precision = tp / pred_n if pred_n else 0.0
            recall = tp / gold_n if gold_n else 0.0
            scores.append(_harmonic(precision, recall))
        return float(np.mean(scores))


def token_macro_f1(pred_labels: np.ndarray, gold: LabelGrid, assignment: Assignment) -> float:
    """Token-wise macro F1 between decoded (T, N) slot labels and the gold
    grid under a given slot-to-gold assignment."""
    acc = MacroF1Accumulator()
    acc.add(pred_labels, gold, assignment)
    return acc.value()


# -- pair similarity and matching -----------------------------------------------------

_Parts = tuple[Counter, Counter, Counter]


def _tokenized(exts: Sequence[Extraction], drop_stopwords: bool = False) -> list[_Parts]:
    """Per extraction, the token multiset of each of arg1, rel and arg2."""
    return [
        tuple(Counter(scoring_tokens(x, drop_stopwords)) for x in e.as_tuple())
        for e in exts
    ]


def _size(parts: _Parts) -> int:
    return sum(sum(p.values()) for p in parts)


# Pair gates over the (arg1, rel, arg2) overlaps: wire57 needs every part
# to overlap, CaRB only the relation.
_Gate = Callable[[list[int]], bool]
_every_part: _Gate = all


def _relation(overlaps: list[int]) -> bool:
    return overlaps[1] > 0


def _scored_pair(
    t_parts: _Parts, g_parts: _Parts, pred_index: int, gold_index: int, gate: _Gate
) -> ScoredPair | None:
    """Summed per-part multiset overlap over the prediction's token count
    (precision) and the gold's (recall); None unless ``gate`` accepts the
    per-part overlaps."""
    overlaps = [sum((tp & gp).values()) for tp, gp in zip(t_parts, g_parts)]
    if not gate(overlaps):
        return None
    overlap = sum(overlaps)
    t_size = _size(t_parts)
    g_size = _size(g_parts)
    precision = _ratio(overlap, t_size)
    recall = _ratio(overlap, g_size)
    return ScoredPair(
        pred_index, gold_index, precision, recall, _harmonic(precision, recall),
        overlap=overlap, pred_size=t_size, gold_size=g_size,
    )


def _pairs(t_parts: list[_Parts], g_parts: list[_Parts], gate: _Gate) -> list[ScoredPair]:
    """Every (prediction, gold) pair of one sentence that ``gate`` accepts."""
    pairs = [
        _scored_pair(tp, gp, i, j, gate)
        for i, tp in enumerate(t_parts) for j, gp in enumerate(g_parts)
    ]
    return [p for p in pairs if p is not None]


def wire57_pair(
    t: Extraction, g: Extraction, pred_index: int = 0, gold_index: int = 0
) -> ScoredPair | None:
    """Token-overlap scores for a possibly-matching pair.

    The pair qualifies only if every part (arg1, rel, arg2) shares at
    least one token; otherwise None.  Precision divides the summed
    per-part multiset overlaps by the prediction's token count, recall by
    the gold's token count.
    """
    (t_parts,), (g_parts,) = _tokenized([t]), _tokenized([g])
    return _scored_pair(t_parts, g_parts, pred_index, gold_index, _every_part)


def carb_pair(
    t: Extraction, g: Extraction, pred_index: int = 0, gold_index: int = 0
) -> ScoredPair | None:
    """Stopword-filtered token-overlap scores; the pair qualifies only when
    the relation fields share at least one (filtered) token."""
    (t_parts,), (g_parts,) = _tokenized([t], True), _tokenized([g], True)
    return _scored_pair(t_parts, g_parts, pred_index, gold_index, _relation)


def _greedy(pairs: list[ScoredPair], key: str) -> list[ScoredPair]:
    """Repeatedly take the pair with the highest ``key`` score (ties: lowest
    pred index, then lowest gold index), removing both sides."""
    chosen: list[ScoredPair] = []
    used_pred: set[int] = set()
    used_gold: set[int] = set()
    for pair in sorted(pairs, key=lambda p: (-getattr(p, key), p.pred_index, p.gold_index)):
        if pair.pred_index in used_pred or pair.gold_index in used_gold:
            continue
        chosen.append(pair)
        used_pred.add(pair.pred_index)
        used_gold.add(pair.gold_index)
    return chosen


def _optimal(pairs: list[ScoredPair], n_pred: int, n_gold: int) -> list[ScoredPair]:
    """The one-to-one matching with maximum total pair F1, in the order the
    assignment lists it (by the index of the longer side)."""
    if not pairs:
        return []
    by_index = {(p.pred_index, p.gold_index): p for p in pairs}
    similarity = np.zeros((n_pred, n_gold))
    for (i, j), pair in by_index.items():
        similarity[i, j] = pair.f1
    if n_pred >= n_gold:
        chosen = hungarian_max(similarity).pairs
    else:
        chosen = tuple((i, j) for j, i in hungarian_max(similarity.T).pairs)
    return [by_index[ij] for ij in chosen if ij in by_index]


# -- the corpus driver ----------------------------------------------------------------

_Corpus = Mapping[str, Sequence[Extraction]]


def _score(
    scheme: str,
    gold: _Corpus,
    pred: _Corpus,
    sentence_fn: Callable[[list[Extraction], Sequence[Extraction]], tuple[int, dict]],
    sums: dict,
    finish: Callable[[dict], tuple[float, float, dict]],
) -> BenchmarkReport:
    """Run ``sentence_fn`` over every gold sentence and assemble the report.

    ``sentence_fn(pred_exts, gold_exts)`` returns the sentence's matched
    count and its scheme fields, which join the per-sentence row.  ``sums``
    gives the starting total of each scheme field; the driver adds the
    rows into them, next to the "matched", "gold" and "pred" counts, and
    ``finish(sums)`` turns the totals into (precision, recall, totals).
    """
    sums = {"matched": 0, "gold": 0, "pred": 0, **sums}
    per_sentence: list[dict] = []
    for sentence, gold_exts in gold.items():
        pred_exts = list(pred.get(sentence, ()))
        matched, fields = sentence_fn(pred_exts, gold_exts)
        row = {
            "sentence": sentence,
            "matched": matched,
            "gold": len(gold_exts),
            "pred": len(pred_exts),
            **fields,
        }
        for key in sums:
            sums[key] += row[key]
        per_sentence.append(row)
    precision, recall, totals = finish(sums)
    return BenchmarkReport(
        scheme, precision, recall, _harmonic(precision, recall),
        matched=sums["matched"], gold_count=sums["gold"], pred_count=sums["pred"],
        per_sentence=per_sentence, totals=totals,
    )


def _precision_recall_sums(sums: dict) -> tuple[float, float, dict]:
    return (
        _ratio(sums["precision_sum"], sums["pred"]),
        _ratio(sums["recall_sum"], sums["gold"]),
        {"precision_sum": sums["precision_sum"], "recall_sum": sums["recall_sum"]},
    )


# -- WiRe57-style scoring --------------------------------------------------------

def _wire57_sentence(pred_exts, gold_exts):
    t_parts, g_parts = _tokenized(pred_exts), _tokenized(gold_exts)
    chosen = _greedy(_pairs(t_parts, g_parts, _every_part), "f1")
    return len(chosen), {
        "overlap": sum(p.overlap for p in chosen),
        "pred_tokens": sum(_size(p) for p in t_parts),
        "gold_tokens": sum(_size(p) for p in g_parts),
    }


def _wire57_totals(sums: dict) -> tuple[float, float, dict]:
    return (
        _ratio(sums["overlap"], sums["pred_tokens"]),
        _ratio(sums["overlap"], sums["gold_tokens"]),
        {
            "matched_overlap": sums["overlap"],
            "pred_tokens": sums["pred_tokens"],
            "gold_tokens": sums["gold_tokens"],
        },
    )


def wire57_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """Corpus score: greedy per-sentence matching, micro-averaged token
    overlap over all predicted and gold tokens."""
    return _score(
        "wire57", gold, pred, _wire57_sentence,
        {"overlap": 0, "pred_tokens": 0, "gold_tokens": 0}, _wire57_totals,
    )


# -- CaRB-style scoring ------------------------------------------------------------

def _carb_sentence(pred_exts, gold_exts):
    pairs = _pairs(_tokenized(pred_exts, True), _tokenized(gold_exts, True), _relation)
    recall_sum = 0.0
    for j in range(len(gold_exts)):
        row = [p.recall for p in pairs if p.gold_index == j]
        recall_sum += max(row) if row else 0.0
    chosen = _greedy(pairs, "precision")
    precision_sum = 0.0
    for pair in chosen:
        precision_sum += pair.precision
    return len(chosen), {"recall_sum": recall_sum, "precision_sum": precision_sum}


def carb_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """CaRB-style corpus score.

    Recall is the mean, over gold tuples, of the best matched recall in
    the tuple's row.  Precision matches predictions to gold tuples
    one-to-one (greedy by pair precision, each gold used once) and is the
    mean over predictions of their matched precision.
    """
    return _score(
        "carb", gold, pred, _carb_sentence,
        {"precision_sum": 0.0, "recall_sum": 0.0}, _precision_recall_sums,
    )


def _carb11_sentence(pred_exts, gold_exts):
    pairs = _pairs(_tokenized(pred_exts, True), _tokenized(gold_exts, True), _relation)
    chosen = _optimal(pairs, len(pred_exts), len(gold_exts))
    precision_sum = 0.0
    recall_sum = 0.0
    for pair in chosen:
        precision_sum += pair.precision
        recall_sum += pair.recall
    return len(chosen), {"precision_sum": precision_sum, "recall_sum": recall_sum}


def carb_1to1_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """CaRB similarity with a single optimal one-to-one matching (maximum
    total pair F1) driving both precision and recall."""
    return _score(
        "carb11", gold, pred, _carb11_sentence,
        {"precision_sum": 0.0, "recall_sum": 0.0}, _precision_recall_sums,
    )


# -- head-agreement scoring ---------------------------------------------------------

def default_head(text: str) -> str:
    """Heuristic head: the last non-stopword token (last token if all are
    stopwords).  Parser-free and intentionally approximate."""
    tokens = [t.lower() for t in tuple_part_tokens(text)]
    kept = [t for t in tokens if t not in STOPWORDS]
    pick = kept if kept else tokens
    return pick[-1] if pick else ""


def _oie2016_sentence(pred_exts, gold_exts):
    gold_heads = [tuple(default_head(x) for x in g.as_tuple()) for g in gold_exts]
    used_gold: set[int] = set()
    for t in pred_exts:
        t_heads = tuple(default_head(x) for x in t.as_tuple())
        for j, g_heads in enumerate(gold_heads):
            if j not in used_gold and t_heads == g_heads:
                used_gold.add(j)
                break
    return len(used_gold), {}


def _oie2016_totals(sums: dict) -> tuple[float, float, dict]:
    matched = sums["matched"]
    return _ratio(matched, sums["pred"]), _ratio(matched, sums["gold"]), {"matched": matched}


def oie2016_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """Tuples match when the :func:`default_head` of arg1, rel and arg2 all
    agree; one-to-one greedy matching by index order; precision/recall
    over matched counts."""
    return _score("oie2016", gold, pred, _oie2016_sentence, {}, _oie2016_totals)


SCHEMES: dict[str, Callable[..., BenchmarkReport]] = {
    "wire57": wire57_score,
    "carb": carb_score,
    "carb11": carb_1to1_score,
    "oie2016": oie2016_score,
}
