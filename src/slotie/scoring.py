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
each scheme supplies one whole-input step (the pair table or the heads),
its per-sentence fields, and how its totals give precision and recall.

All scorers take ``{sentence: [Extraction, ...]}`` maps for gold and
predictions, keyed by the exact sentence string.  Sentences present only
on the prediction side must be filtered out by the caller.  Empty
prediction sets score precision 0, not 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import accumulate, chain, pairwise
from pathlib import Path
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .core import Extraction, LabelGrid, N_CLASSES
from .data import tuple_part_tokens
from .matching import Assignment, hungarian_max, slot_targets

STOPWORDS_VERSION = "en-1"
_STOPWORDS_PATH = Path(__file__).with_name("stopwords_en.txt")


def _load_stopwords() -> frozenset[str]:
    lines = (line.strip() for line in _STOPWORDS_PATH.read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


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
    kept = [t for t in tokens if t not in STOPWORDS] if drop_stopwords else tokens
    return kept or tokens


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _harmonic(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _ratios(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``_ratio`` elementwise; ``_harmonic`` is ``_ratios(2.0 * p * r, p + r)``."""
    out = np.zeros(len(numerator))
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out


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
    return recall * (1.0 + precision) / 2.0 + (1.0 - recall) * precision / 2.0


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
        precision = _ratios(self.true_positive, self.pred_total)
        recall = _ratios(self.true_positive, self.gold_total)
        f1 = _ratios(2.0 * precision * recall, precision + recall)
        absent = (self.pred_total == 0) & (self.gold_total == 0)
        return float(np.mean(np.where(absent, 1.0, f1)))


def token_macro_f1(pred_labels: np.ndarray, gold: LabelGrid, assignment: Assignment) -> float:
    """Token-wise macro F1 between decoded (T, N) slot labels and the gold
    grid under a given slot-to-gold assignment."""
    acc = MacroF1Accumulator()
    acc.add(pred_labels, gold, assignment)
    return acc.value()


# -- the pair table -------------------------------------------------------------------

_Sentences = Sequence[tuple[Sequence[Extraction], Sequence[Extraction]]]
# Parts (arg1, rel, arg2) that must overlap for a pair to qualify, by scheme.
_EVERY_PART = (0, 1, 2)
_RELATION = (1,)


class _SentencePairs(NamedTuple):
    pairs: list[ScoredPair]  # the qualifying pairs, by prediction then gold index
    pred_tokens: int
    gold_tokens: int


def _count_table(sentences: _Sentences, drop_stopwords: bool) -> tuple[np.ndarray, np.ndarray]:
    """(extractions, 3, ids) token counts of each sentence's predictions, then
    gold tuples, over per-sentence token ids, and each extraction's token
    count.  Each distinct part text is tokenized once."""
    texts = [x for p, g in sentences for e in (*p, *g) for x in e.as_tuple()]
    tokens_of = {x: scoring_tokens(x, drop_stopwords) for x in dict.fromkeys(texts)}
    parts = list(map(tokens_of.__getitem__, texts))
    columns: list[int] = []
    bounds = accumulate((3 * (len(p) + len(g)) for p, g in sentences), initial=0)
    for start, end in pairwise(bounds):  # each sentence's parts
        ids: dict[str, int] = {}
        columns += [ids.setdefault(t, len(ids)) for t in chain.from_iterable(parts[start:end])]
    part_sizes = np.fromiter(map(len, parts), np.int64, len(parts))
    width = max(columns, default=-1) + 1
    # A count never exceeds its part's size, so this dtype cannot overflow.
    table = np.zeros(len(parts) * width, np.min_scalar_type(part_sizes.max(initial=0)))
    cells = np.repeat(np.arange(len(parts)) * width, part_sizes) + np.array(columns, np.int64)
    np.add.at(table, cells, 1)
    return table.reshape(len(parts) // 3, 3, width), part_sizes.reshape(-1, 3).sum(axis=1)


def _pair_table(
    sentences: _Sentences, drop_stopwords: bool, gated_parts: tuple[int, ...]
) -> list[_SentencePairs]:
    """Score every (prediction, gold) pair of every sentence at once: the
    multiset overlaps are ``np.minimum`` over count-table rows, precision
    and recall follow the scalar order of ``_ratio`` and ``_harmonic``, and
    only pairs whose ``gated_parts`` all overlap become ScoredPairs."""
    table, sizes = _count_table(sentences, drop_stopwords)
    n_pred, n_gold = np.array([(len(p), len(g)) for p, g in sentences], np.int64).reshape(-1, 2).T
    first = np.cumsum(n_pred + n_gold) - (n_pred + n_gold)  # each sentence's first extraction
    n_pairs = n_pred * n_gold
    sentence = np.repeat(np.arange(len(sentences)), n_pairs)
    local = np.arange(n_pairs.sum()) - np.repeat(np.cumsum(n_pairs) - n_pairs, n_pairs)
    pred_index, gold_index = np.divmod(local, n_gold[sentence])
    pred_ext = first[sentence] + pred_index
    gold_ext = first[sentence] + n_pred[sentence] + gold_index
    overlaps = np.stack([np.minimum(table[pred_ext, q], table[gold_ext, q]).sum(axis=1)
                         for q in range(3)], axis=1, dtype=np.int64)

    keep = (overlaps[:, gated_parts] > 0).all(axis=1)
    overlap = overlaps[keep].sum(axis=1)
    pred_size, gold_size = sizes[pred_ext[keep]], sizes[gold_ext[keep]]
    precision = _ratios(overlap, pred_size)
    recall = _ratios(overlap, gold_size)
    f1 = _ratios(2.0 * precision * recall, precision + recall)
    pairs = list(map(
        ScoredPair, pred_index[keep].tolist(), gold_index[keep].tolist(), precision.tolist(),
        recall.tolist(), f1.tolist(), overlap.tolist(), pred_size.tolist(), gold_size.tolist(),
    ))
    ends = np.cumsum(np.bincount(sentence[keep], minlength=len(sentences))).tolist()
    # Token totals per (sentence, side): extractions carry 2 * sentence + (1 if gold).
    owner = np.repeat(np.arange(2 * len(sentences)), np.column_stack((n_pred, n_gold)).ravel())
    token_counts = np.bincount(owner, sizes, 2 * len(sentences)).astype(np.int64).reshape(-1, 2)
    return [
        _SentencePairs(pairs[start:end], n_pred_tokens, n_gold_tokens)
        for start, end, (n_pred_tokens, n_gold_tokens)
        in zip([0, *ends], ends, token_counts.tolist())
    ]


def _lone_pair(t, g, pred_index, gold_index, drop_stopwords, gated_parts) -> ScoredPair | None:
    (pairs, _, _), = _pair_table([([t], [g])], drop_stopwords, gated_parts)
    return replace(pairs[0], pred_index=pred_index, gold_index=gold_index) if pairs else None


def wire57_pair(
    t: Extraction, g: Extraction, pred_index: int = 0, gold_index: int = 0
) -> ScoredPair | None:
    """Token-overlap scores for a possibly-matching pair.

    The pair qualifies only if every part (arg1, rel, arg2) shares at
    least one token; otherwise None.  Precision divides the summed
    per-part multiset overlaps by the prediction's token count, recall by
    the gold's token count.
    """
    return _lone_pair(t, g, pred_index, gold_index, False, _EVERY_PART)


def carb_pair(
    t: Extraction, g: Extraction, pred_index: int = 0, gold_index: int = 0
) -> ScoredPair | None:
    """Stopword-filtered token-overlap scores; the pair qualifies only when
    the relation fields share at least one (filtered) token."""
    return _lone_pair(t, g, pred_index, gold_index, True, _RELATION)


# -- matching -------------------------------------------------------------------------

def _greedy(pairs: list[ScoredPair], key: str) -> list[ScoredPair]:
    """Repeatedly take the pair with the highest ``key`` score (ties: lowest
    pred index, then lowest gold index), removing both sides."""
    chosen: list[ScoredPair] = []
    used_pred, used_gold = set(), set()
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
    prepare: Callable[[_Sentences], list],
    sentence_fn: Callable[[list[Extraction], Sequence[Extraction], object], tuple[int, dict]],
    sums: dict,
    finish: Callable[[dict], tuple[float, float, dict]],
) -> BenchmarkReport:
    """Run ``sentence_fn`` over every gold sentence and assemble the report.

    ``prepare`` maps all (pred_exts, gold_exts) at once to one value per
    sentence (its pair-table row, or its heads); ``sentence_fn(pred_exts,
    gold_exts, value)`` returns the matched count and the scheme fields of
    the per-sentence row.  The driver adds the rows into ``sums`` (each
    scheme field's start) and the "matched", "gold" and "pred" counts, and
    ``finish(sums)`` turns the totals into (precision, recall, totals).
    """
    sentences = [(list(pred.get(s, ())), gold_exts) for s, gold_exts in gold.items()]
    sums = {"matched": 0, "gold": 0, "pred": 0, **sums}
    per_sentence: list[dict] = []
    for sentence, (pred_exts, gold_exts), value in zip(gold, sentences, prepare(sentences)):
        matched, fields = sentence_fn(pred_exts, gold_exts, value)
        row = {"sentence": sentence, "matched": matched, "gold": len(gold_exts),
               "pred": len(pred_exts), **fields}
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

def _wire57_sentence(pred_exts, gold_exts, table: _SentencePairs):
    chosen = _greedy(table.pairs, "f1")
    return len(chosen), {
        "overlap": sum(p.overlap for p in chosen),
        "pred_tokens": table.pred_tokens,
        "gold_tokens": table.gold_tokens,
    }


def _wire57_totals(sums: dict) -> tuple[float, float, dict]:
    return (
        _ratio(sums["overlap"], sums["pred_tokens"]),
        _ratio(sums["overlap"], sums["gold_tokens"]),
        {"matched_overlap": sums["overlap"], "pred_tokens": sums["pred_tokens"],
         "gold_tokens": sums["gold_tokens"]},
    )


def wire57_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """Corpus score: greedy per-sentence matching, micro-averaged token
    overlap over all predicted and gold tokens."""
    return _score(
        "wire57", gold, pred, partial(_pair_table, drop_stopwords=False, gated_parts=_EVERY_PART),
        _wire57_sentence, {"overlap": 0, "pred_tokens": 0, "gold_tokens": 0}, _wire57_totals,
    )


# -- CaRB-style scoring ------------------------------------------------------------

_carb_table = partial(_pair_table, drop_stopwords=True, gated_parts=_RELATION)


def _carb_sentence(pred_exts, gold_exts, table: _SentencePairs):
    recall_sum = 0.0
    for j in range(len(gold_exts)):
        recall_sum += max((p.recall for p in table.pairs if p.gold_index == j), default=0.0)
    chosen = _greedy(table.pairs, "precision")
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
        "carb", gold, pred, _carb_table, _carb_sentence,
        {"precision_sum": 0.0, "recall_sum": 0.0}, _precision_recall_sums,
    )


def _carb11_sentence(pred_exts, gold_exts, table: _SentencePairs):
    chosen = _optimal(table.pairs, len(pred_exts), len(gold_exts))
    precision_sum = recall_sum = 0.0
    for pair in chosen:
        precision_sum += pair.precision
        recall_sum += pair.recall
    return len(chosen), {"precision_sum": precision_sum, "recall_sum": recall_sum}


def carb_1to1_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """CaRB similarity with a single optimal one-to-one matching (maximum
    total pair F1) driving both precision and recall."""
    return _score(
        "carb11", gold, pred, _carb_table, _carb11_sentence,
        {"precision_sum": 0.0, "recall_sum": 0.0}, _precision_recall_sums,
    )


# -- head-agreement scoring ---------------------------------------------------------

def default_head(text: str) -> str:
    """Heuristic head: the last non-stopword token (last token if all are
    stopwords).  Parser-free and intentionally approximate."""
    tokens = scoring_tokens(text, drop_stopwords=True)
    return tokens[-1] if tokens else ""


def _heads(sentences: _Sentences) -> list[tuple[list[tuple], list[tuple]]]:
    """Per sentence, the (arg1, rel, arg2) head triples of its predictions
    and of its gold tuples; each distinct part text is tokenized once."""
    texts = [x for p, g in sentences for e in (*p, *g) for x in e.as_tuple()]
    head_of = {x: default_head(x) for x in dict.fromkeys(texts)}
    triples = zip(*[map(head_of.__getitem__, texts)] * 3)  # one iterator, three at a time
    return [([next(triples) for _ in p], [next(triples) for _ in g]) for p, g in sentences]


def _oie2016_sentence(pred_exts, gold_exts, heads):
    pred_heads, gold_heads = heads
    used_gold: set[int] = set()
    for t_heads in pred_heads:
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
    return _score("oie2016", gold, pred, _heads, _oie2016_sentence, {}, _oie2016_totals)


SCHEMES: dict[str, Callable[..., BenchmarkReport]] = {
    "wire57": wire57_score,
    "carb": carb_score,
    "carb11": carb_1to1_score,
    "oie2016": oie2016_score,
}
