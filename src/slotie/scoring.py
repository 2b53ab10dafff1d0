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

Each scorer is one function: it walks the gold sentences in order, reading
their pairs from the pair table (built lazily, one block of at most
``SCORE_BLOCK`` sentences at a time) or their heads (found once for the
whole input), sums its own totals, and hands its per-sentence rows,
precision, recall and totals to ``_report``, which assembles the
``BenchmarkReport``.

All scorers take ``{sentence: [Extraction, ...]}`` maps for gold and
predictions, keyed by the exact sentence string.  Sentences present only
on the prediction side must be filtered out by the caller.  Empty
prediction sets score precision 0, not 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from itertools import accumulate, chain, pairwise
from pathlib import Path
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .core import Extraction, LabelGrid, N_CLASSES
from .data import tuple_part_tokens
from .matching import Assignment, hungarian_max, slot_targets

_STOPWORDS_PATH = Path(__file__).with_name("stopwords_en.txt")


def _load_stopwords() -> frozenset[str]:
    lines = (line.strip() for line in _STOPWORDS_PATH.read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


STOPWORDS = _load_stopwords()


def stopwords_checksum() -> str:
    """SHA-256 of the shipped stopword file; pin this to reproduce scores."""
    import hashlib  # here: nothing else in slotie needs its ~3.6 MB of imports

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


def _ratios(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """``_ratio`` elementwise; F1 is ``_ratios(2.0 * p * r, p + r)``."""
    out = np.zeros(len(numerator))
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out


class ScoredPair(NamedTuple):
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


# -- the pair table -------------------------------------------------------------------

_Sentences = Sequence[tuple[Sequence[Extraction], Sequence[Extraction]]]
#: The most gold sentences one array pass of the pair table covers: the
#: table is only as wide as its block's widest sentence, and it lives for
#: one block.  A module constant, not a setting.
SCORE_BLOCK = 256
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
    # Counting the distinct cells makes no int64 copy of the whole table.
    present, counts = np.unique(cells, return_counts=True)
    table[present] = counts
    return table.reshape(len(parts) // 3, 3, width), part_sizes.reshape(-1, 3).sum(axis=1)


def _pair_table(
    sentences: _Sentences, drop_stopwords: bool, gated_parts: tuple[int, ...]
) -> Iterator[_SentencePairs]:
    """Each sentence's qualifying pairs, in order, scored by ``_block_pairs``
    over at most ``SCORE_BLOCK`` sentences at a time, so that the count
    table and its temporaries are as large as one block, not the input."""
    for start in range(0, len(sentences), SCORE_BLOCK):
        yield from _block_pairs(sentences[start:start + SCORE_BLOCK], drop_stopwords, gated_parts)


def _block_pairs(
    sentences: _Sentences, drop_stopwords: bool, gated_parts: tuple[int, ...]
) -> list[_SentencePairs]:
    """Score every (prediction, gold) pair of every sentence at once: the
    multiset overlaps are ``np.minimum`` over count-table rows, precision,
    recall and F1 follow the scalar order of ``_ratio`` and ``_report``,
    and only pairs whose ``gated_parts`` all overlap become ScoredPairs."""
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


def wire57_pair(
    t: Extraction, g: Extraction, pred_index: int = 0, gold_index: int = 0
) -> ScoredPair | None:
    """Token-overlap scores for a possibly-matching pair.

    The pair qualifies only if every part (arg1, rel, arg2) shares at
    least one token; otherwise None.  Precision divides the summed
    per-part multiset overlaps by the prediction's token count, recall by
    the gold's token count.
    """
    (pairs, _, _), = _pair_table([([t], [g])], False, _EVERY_PART)
    return pairs[0]._replace(pred_index=pred_index, gold_index=gold_index) if pairs else None


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


# -- the corpus report ----------------------------------------------------------------

_Corpus = Mapping[str, Sequence[Extraction]]


def _sentences(gold: _Corpus, pred: _Corpus) -> _Sentences:
    """(pred_exts, gold_exts) of every gold sentence, in the order of ``gold``."""
    return [(pred.get(s, ()), gold_exts) for s, gold_exts in gold.items()]


def _counts(sentences) -> tuple[int, int]:
    """The number of predictions and of gold tuples."""
    return sum(len(p) for p, _ in sentences), sum(len(g) for _, g in sentences)


def _report(scheme, gold, sentences, rows, precision, recall, totals) -> BenchmarkReport:
    """The report of one scheme.  ``rows`` holds each sentence's matched count
    and scheme fields, in the order of ``gold`` and ``sentences``."""
    per_sentence = [
        {"sentence": sentence, "matched": matched, "gold": len(gold_exts),
         "pred": len(pred_exts), **fields}
        for sentence, (pred_exts, gold_exts), (matched, fields) in zip(gold, sentences, rows)
    ]
    n_pred, n_gold = _counts(sentences)
    return BenchmarkReport(
        scheme, precision, recall, _ratio(2.0 * precision * recall, precision + recall),
        matched=sum(matched for matched, _ in rows), gold_count=n_gold, pred_count=n_pred,
        per_sentence=per_sentence, totals=totals,
    )


# -- WiRe57-style scoring --------------------------------------------------------

def wire57_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """Corpus score: greedy per-sentence matching, micro-averaged token
    overlap over all predicted and gold tokens."""
    sentences = _sentences(gold, pred)
    rows = []
    overlap = pred_tokens = gold_tokens = 0
    for table in _pair_table(sentences, False, _EVERY_PART):
        chosen = _greedy(table.pairs, "f1")
        sentence_overlap = sum(p.overlap for p in chosen)
        rows.append((len(chosen), {"overlap": sentence_overlap, "pred_tokens": table.pred_tokens,
                                   "gold_tokens": table.gold_tokens}))
        overlap += sentence_overlap
        pred_tokens += table.pred_tokens
        gold_tokens += table.gold_tokens
    return _report(
        "wire57", gold, sentences, rows, _ratio(overlap, pred_tokens), _ratio(overlap, gold_tokens),
        {"matched_overlap": overlap, "pred_tokens": pred_tokens, "gold_tokens": gold_tokens},
    )


# -- CaRB-style scoring ------------------------------------------------------------

def _carb_report(scheme, gold, sentences, rows) -> BenchmarkReport:
    """Precision is the total ``precision_sum`` over the prediction count,
    recall the total ``recall_sum`` over the gold count."""
    precision_sum = recall_sum = 0.0
    for _, fields in rows:
        precision_sum += fields["precision_sum"]
        recall_sum += fields["recall_sum"]
    n_pred, n_gold = _counts(sentences)
    return _report(
        scheme, gold, sentences, rows, _ratio(precision_sum, n_pred), _ratio(recall_sum, n_gold),
        {"precision_sum": precision_sum, "recall_sum": recall_sum},
    )


def carb_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """CaRB-style corpus score.

    Recall is the mean, over gold tuples, of the best matched recall in
    the tuple's row.  Precision matches predictions to gold tuples
    one-to-one (greedy by pair precision, each gold used once) and is the
    mean over predictions of their matched precision.
    """
    sentences = _sentences(gold, pred)
    rows = []
    for (_, gold_exts), table in zip(sentences, _pair_table(sentences, True, _RELATION)):
        recall_sum = 0.0
        for j in range(len(gold_exts)):
            recall_sum += max((p.recall for p in table.pairs if p.gold_index == j), default=0.0)
        chosen = _greedy(table.pairs, "precision")
        precision_sum = 0.0
        for pair in chosen:
            precision_sum += pair.precision
        rows.append((len(chosen), {"recall_sum": recall_sum, "precision_sum": precision_sum}))
    return _carb_report("carb", gold, sentences, rows)


def carb_1to1_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """CaRB similarity with a single optimal one-to-one matching (maximum
    total pair F1) driving both precision and recall."""
    sentences = _sentences(gold, pred)
    rows = []
    for (pred_exts, gold_exts), table in zip(sentences, _pair_table(sentences, True, _RELATION)):
        chosen = _optimal(table.pairs, len(pred_exts), len(gold_exts))
        precision_sum = recall_sum = 0.0
        for pair in chosen:
            precision_sum += pair.precision
            recall_sum += pair.recall
        rows.append((len(chosen), {"precision_sum": precision_sum, "recall_sum": recall_sum}))
    return _carb_report("carb11", gold, sentences, rows)


# -- head-agreement scoring ---------------------------------------------------------

def default_head(text: str) -> str:
    """Heuristic head: the last non-stopword token (last token if all are
    stopwords).  Parser-free and intentionally approximate."""
    tokens = scoring_tokens(text, drop_stopwords=True)
    return tokens[-1] if tokens else ""


def oie2016_score(gold: _Corpus, pred: _Corpus) -> BenchmarkReport:
    """Tuples match when the :func:`default_head` of arg1, rel and arg2 all
    agree; one-to-one greedy matching by index order; precision/recall
    over matched counts."""
    sentences = _sentences(gold, pred)
    # Each distinct part text is tokenized once; triples yields the
    # (arg1, rel, arg2) heads of each sentence's predictions, then gold.
    texts = [x for p, g in sentences for e in (*p, *g) for x in e.as_tuple()]
    head_of = {x: default_head(x) for x in dict.fromkeys(texts)}
    triples = zip(*[map(head_of.__getitem__, texts)] * 3)  # one iterator, three at a time
    rows = []
    for pred_exts, gold_exts in sentences:
        pred_heads = [next(triples) for _ in pred_exts]
        gold_heads = [next(triples) for _ in gold_exts]
        used_gold: set[int] = set()
        for t_heads in pred_heads:
            for j, g_heads in enumerate(gold_heads):
                if j not in used_gold and t_heads == g_heads:
                    used_gold.add(j)
                    break
        rows.append((len(used_gold), {}))
    matched = sum(m for m, _ in rows)
    n_pred, n_gold = _counts(sentences)
    return _report(
        "oie2016", gold, sentences, rows, _ratio(matched, n_pred), _ratio(matched, n_gold),
        {"matched": matched},
    )


SCHEMES: dict[str, Callable[..., BenchmarkReport]] = {
    "wire57": wire57_score,
    "carb": carb_score,
    "carb11": carb_1to1_score,
    "oie2016": oie2016_score,
}
