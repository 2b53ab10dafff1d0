from collections import Counter
from functools import reduce
from itertools import product
from operator import add
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from slotie import (
    Assignment,
    Extraction,
    LabelGrid,
    TokenClass,
    auc_single_point,
    carb_1to1_score,
    carb_score,
    oie2016_score,
    read_tuples_tsv,
    wire57_pair,
    wire57_score,
)
from slotie import scoring
from slotie.scoring import (
    MacroF1Accumulator,
    SCHEMES,
    STOPWORDS,
    ScoredPair,
    _pair_table,
    default_head,
    scoring_tokens,
    stopwords_checksum,
)

B, S, R, O = TokenClass.BACKGROUND, TokenClass.SUBJECT, TokenClass.RELATION, TokenClass.OBJECT


def ext(a, r, o, c=None):
    return Extraction(a, r, o, c)


class TestScoringTokens:
    def test_lowercases(self):
        assert scoring_tokens("The Cat") == ["the", "cat"]

    def test_stopword_filtering_with_fallback(self):
        assert scoring_tokens("sat on the mat", drop_stopwords=True) == ["sat", "mat"]
        # a pure-stopword part falls back to its unfiltered tokens
        assert scoring_tokens("is", drop_stopwords=True) == ["is"]

    def test_checksum_is_stable_string(self):
        digest = stopwords_checksum()
        assert len(digest) == 64
        assert "the" in STOPWORDS


class TestWire57Pair:
    def test_identical_tuple(self):
        t = ext("The old mill", "powers", "the workshop")
        pair = wire57_pair(t, t)
        assert (pair.precision, pair.recall, pair.f1) == (1.0, 1.0, 1.0)

    def test_partial_overlap_hand_worked(self):
        # overlaps 2 + 1 + 2 = 5; |t| = 5, |g| = 8.
        t = ext("A spectrum", "has", "a ratio")
        g = ext("A spectrum from FID", "has", "a low ratio")
        pair = wire57_pair(t, g)
        assert pair.precision == pytest.approx(1.0, abs=1e-9)
        assert pair.recall == pytest.approx(0.625, abs=1e-9)
        assert pair.f1 == pytest.approx(10.0 / 13.0, abs=1e-9)

    def test_disjoint_relation_not_matching(self):
        t = ext("A spectrum", "shows", "a ratio")
        g = ext("A spectrum", "has", "a ratio")
        assert wire57_pair(t, g) is None

    def test_multiset_overlap(self):
        pair = wire57_pair(ext("a a b", "r", "c"), ext("a b b", "r", "c"))
        assert pair.precision == pytest.approx(0.8, abs=1e-9)
        assert pair.recall == pytest.approx(0.8, abs=1e-9)
        assert pair.f1 == pytest.approx(0.8, abs=1e-9)

    def test_prediction_subset_of_gold(self):
        pair = wire57_pair(
            ext("Obama", "visited", "Paris"),
            ext("Barack Obama", "visited", "Paris in 2009"),
        )
        assert pair.precision == pytest.approx(1.0, abs=1e-9)
        assert pair.recall == pytest.approx(0.5, abs=1e-9)
        assert pair.f1 == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_exchange_symmetry(self):
        rng = np.random.default_rng(0)
        words = ["w1", "w2", "w3", "w4"]
        for _ in range(50):
            def part():
                return " ".join(rng.choice(words, size=rng.integers(1, 4)))
            t = ext(part(), part(), part())
            g = ext(part(), part(), part())
            ab = wire57_pair(t, g)
            ba = wire57_pair(g, t)
            assert (ab is None) == (ba is None)
            if ab is not None:
                assert ab.precision == pytest.approx(ba.recall, abs=1e-12)
                assert ab.recall == pytest.approx(ba.precision, abs=1e-12)


def counter_pair(t, g, i, j, carb):
    """Oracle: per-part token multisets as Counters, scored one pair at a
    time.  CaRB's similarity drops stopwords and needs the relations to
    overlap; WiRe57's keeps every token and needs every part to overlap."""
    t_parts = [Counter(scoring_tokens(x, drop_stopwords=carb)) for x in t.as_tuple()]
    g_parts = [Counter(scoring_tokens(x, drop_stopwords=carb)) for x in g.as_tuple()]
    overlaps = [sum((tp & gp).values()) for tp, gp in zip(t_parts, g_parts)]
    if not all(overlaps[k] > 0 for k in ((1,) if carb else (0, 1, 2))):
        return None
    overlap = sum(overlaps)
    t_size = sum(sum(c.values()) for c in t_parts)
    g_size = sum(sum(c.values()) for c in g_parts)
    precision = overlap / t_size if t_size else 0.0
    recall = overlap / g_size if g_size else 0.0
    f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
    return ScoredPair(i, j, precision, recall, f1, overlap)


# Repeats, stopwords (alone they fall back to themselves), case, punctuation
# and placeholders; a prediction part may be empty.
_PAIR_WORDS = ("cat", "Cat", "CAT", "mat", "mat.", "sat", "the", "of", "is", "[is]", "[IS]",
               "[from]", "a")
_gold_part = st.lists(st.sampled_from(_PAIR_WORDS), min_size=1, max_size=4).map(" ".join)
_pred_part = st.lists(st.sampled_from(_PAIR_WORDS), max_size=4).map(" ".join)
_sentence_sets = st.lists(
    st.tuples(st.lists(st.builds(Extraction, _pred_part, _pred_part, _pred_part), max_size=4),
              st.lists(st.builds(Extraction, _gold_part, _gold_part, _gold_part), max_size=4)),
    max_size=4,
)


@settings(max_examples=200, deadline=None)
@given(sentences=_sentence_sets)
@example(sentences=[([], [ext("the cat", "is", "the mat")]),
                    ([ext("", "is", "mat mat"), ext("Cat", "IS [is]", "")],
                     [ext("cat cat", "is", "mat"), ext("of the", "[is]", "a")])])
@example(sentences=[([ext("cat " * 300, "sat", "mat")], [ext("cat " * 280, "sat", "mat")])])
def test_pair_table_equals_counter_oracle(sentences):
    # Blocks of one and of two sentences split the input; the default holds it whole.
    for block, carb in product((scoring.SCORE_BLOCK, 1, 2), (False, True)):
        with patch.object(scoring, "SCORE_BLOCK", block):
            table = list(_pair_table(sentences, carb))
        assert len(table) == len(sentences)
        for (pred_exts, gold_exts), row in zip(sentences, table):
            expected = [
                counter_pair(t, g, i, j, carb)
                for i, t in enumerate(pred_exts) for j, g in enumerate(gold_exts)
            ]
            assert row.pairs == [pair for pair in expected if pair is not None]
            for pair in row.pairs:  # plain Python numbers, as the JSON report needs
                assert type(pair) is ScoredPair
                assert list(map(type, pair)) == [int, int, float, float, float, int]
            sizes = [sum(len(scoring_tokens(x, drop_stopwords=carb)) for x in e.as_tuple())
                     for e in (*pred_exts, *gold_exts)]
            assert (row.pred_tokens, row.gold_tokens) == (
                sum(sizes[: len(pred_exts)]), sum(sizes[len(pred_exts):]))


# Per scheme: its per-sentence fields, the row field that each total sums,
# and the (numerator, denominator) of precision and of recall.
_CARB_SUMS = ({"precision_sum": "precision_sum", "recall_sum": "recall_sum"},
              ("precision_sum", "pred"), ("recall_sum", "gold"))
_REPORT_SUMS = {
    "wire57": (["overlap", "pred_tokens", "gold_tokens"],
               {"matched_overlap": "overlap", "pred_tokens": "pred_tokens",
                "gold_tokens": "gold_tokens"},
               ("matched_overlap", "pred_tokens"), ("matched_overlap", "gold_tokens")),
    "carb": (["recall_sum", "precision_sum"], *_CARB_SUMS),
    "carb11": (["precision_sum", "recall_sum"], *_CARB_SUMS),
    "oie2016": ([], {"matched": "matched"}, ("matched", "pred"), ("matched", "gold")),
}


@settings(max_examples=100, deadline=None)
@given(sentences=_sentence_sets, unpredicted=st.sets(st.integers(0, 3)))
# CaRB sums whose float total depends on the order of addition.
@example(sentences=[([ext("cat sat", "sat", "mat sat")], [ext("cat", "sat", "dog")]),
                    ([ext("mat ran", "sat", "sat dog")], [ext("dog big sat", "sat", "dog sat dog")]),
                    ([ext("mat big", "sat", "sat big")], [ext("cat cat", "sat", "mat")])],
         unpredicted=set())
def test_report_totals_are_the_row_sums(sentences, unpredicted):
    gold = {f"s{k}": gold_exts for k, (_, gold_exts) in enumerate(sentences)}
    pred = {f"s{k}": pred_exts for k, (pred_exts, _) in enumerate(sentences)
            if k not in unpredicted}
    assert SCHEMES.keys() == _REPORT_SUMS.keys()
    for scheme, (row_fields, summed, precision_of, recall_of) in _REPORT_SUMS.items():
        report = SCHEMES[scheme](gold, pred)
        rows = report.per_sentence
        assert [list(row) for row in rows] == [["sentence", "matched", "gold", "pred", *row_fields]
                                               for _ in gold]
        assert [(row["sentence"], row["gold"], row["pred"]) for row in rows] == [
            (s, len(gold[s]), len(pred.get(s, ()))) for s in gold]
        assert (report.matched, report.gold_count, report.pred_count) == tuple(
            sum(row[key] for row in rows) for key in ("matched", "gold", "pred"))
        # Left to right, as the scorers add floats (no compensated sum()).
        assert report.totals == {
            total: reduce(add, (row[key] for row in rows), 0) for total, key in summed.items()}
        sums = {**report.totals, "pred": report.pred_count, "gold": report.gold_count}
        precision, recall = (sums[n] / sums[d] if sums[d] else 0.0
                             for n, d in (precision_of, recall_of))
        assert (report.precision, report.recall) == (precision, recall), scheme
        assert report.f1 == (2.0 * precision * recall / (precision + recall)
                             if precision + recall else 0.0)


def greedy_simulation(gold_exts, pred_exts):
    """Independent greedy matcher: rescan all remaining pairs each round."""
    remaining = [
        (i, j, wire57_pair(t, g, i, j))
        for i, t in enumerate(pred_exts)
        for j, g in enumerate(gold_exts)
    ]
    remaining = [(i, j, p) for i, j, p in remaining if p is not None]
    chosen = []
    while remaining:
        best = max(remaining, key=lambda x: (x[2].f1, -x[0], -x[1]))
        chosen.append(best[2])
        remaining = [
            (i, j, p) for i, j, p in remaining if i != best[0] and j != best[1]
        ]
    return chosen


class TestWire57Score:
    def test_perfect_system(self):
        gold = {"s1": [ext("a b", "r", "c")], "s2": [ext("d", "e", "f g")]}
        report = wire57_score(gold, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_empty_predictions(self):
        gold = {"s1": [ext("a", "r", "c")]}
        report = wire57_score(gold, {})
        assert report.precision == 0.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_greedy_matches_simulation_oracle(self):
        rng = np.random.default_rng(1)
        words = ["tok%d" % k for k in range(6)]
        for _ in range(60):
            def part():
                return " ".join(rng.choice(words, size=rng.integers(1, 4)))
            gold_exts = [ext(part(), part(), part()) for _ in range(rng.integers(1, 4))]
            pred_exts = [ext(part(), part(), part()) for _ in range(rng.integers(0, 4))]
            report = wire57_score({"s": gold_exts}, {"s": pred_exts})
            chosen = greedy_simulation(gold_exts, pred_exts)
            overlap = sum(p.overlap for p in chosen)
            pred_tokens = sum(p and sum(len(scoring_tokens(x)) for x in t.as_tuple()) or 0
                              for p, t in zip([1] * len(pred_exts), pred_exts))
            gold_tokens = sum(sum(len(scoring_tokens(x)) for x in g.as_tuple())
                              for g in gold_exts)
            expected_p = overlap / pred_tokens if pred_tokens else 0.0
            expected_r = overlap / gold_tokens if gold_tokens else 0.0
            assert report.precision == pytest.approx(expected_p, abs=1e-9)
            assert report.recall == pytest.approx(expected_r, abs=1e-9)
            assert report.matched == len(chosen)

    def test_totals_consistent_with_per_sentence(self):
        gold = {
            "s1": [ext("a b", "r", "c"), ext("d", "r2", "e")],
            "s2": [ext("f", "g", "h")],
        }
        pred = {"s1": [ext("a", "r", "c")], "s2": [ext("f", "g", "h i")]}
        report = wire57_score(gold, pred)
        assert sum(s["overlap"] for s in report.per_sentence) == report.totals["matched_overlap"]
        assert sum(s["pred_tokens"] for s in report.per_sentence) == report.totals["pred_tokens"]
        assert sum(s["gold_tokens"] for s in report.per_sentence) == report.totals["gold_tokens"]


class TestCarbScore:
    def test_identical_sets(self):
        gold = {"s": [ext("the cat", "sat on", "the mat"), ext("a dog", "ate", "a bone")]}
        report = carb_score(gold, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_relation_gate_excludes_pair(self):
        gold = {"s": [ext("the cat", "sat on", "the mat")]}
        pred = {"s": [ext("the cat", "rested on", "the mat")]}
        report = carb_score(gold, pred)
        assert report.precision == 0.0
        assert report.recall == 0.0

    def test_hand_worked_two_by_two(self):
        # Only (t0, g0) passes the relation gate; its overlap is perfect
        # after stopword filtering, so P = R = F1 = 0.5.
        gold = {"s": [ext("the cat", "sat on", "the mat"), ext("a dog", "ate", "a bone")]}
        pred = {"s": [ext("cat", "sat on", "mat"), ext("dog", "chewed", "a bone")]}
        report = carb_score(gold, pred)
        assert report.precision == pytest.approx(0.5, abs=1e-9)
        assert report.recall == pytest.approx(0.5, abs=1e-9)
        assert report.f1 == pytest.approx(0.5, abs=1e-9)

    def test_stopword_only_relation_still_gates(self):
        gold = {"s": [ext("oak", "is", "tree")]}
        pred = {"s": [ext("oak", "is", "tree")]}
        report = carb_score(gold, pred)
        assert report.f1 == 1.0

    def test_recall_uses_row_maximum(self):
        gold = {"s": [ext("a b c", "r", "d e f")]}
        pred = {"s": [ext("a", "r", "d"), ext("a b c", "r", "d e f")]}
        report = carb_score(gold, pred)
        assert report.recall == pytest.approx(1.0, abs=1e-9)


class TestCarb1to1Score:
    def test_identical_sets(self):
        gold = {"s": [ext("x y", "links", "z"), ext("p", "q", "r s")]}
        report = carb_1to1_score(gold, gold)
        assert (report.precision, report.recall, report.f1) == (1.0, 1.0, 1.0)

    def test_duplicate_predictions_halve_precision(self):
        gold = {"s": [ext("x y", "links", "z")]}
        pred = {"s": [ext("x y", "links", "z"), ext("x y", "links", "z")]}
        report = carb_1to1_score(gold, pred)
        assert report.precision == pytest.approx(0.5, abs=1e-9)
        assert report.recall == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_correct_prediction_never_helps(self):
        gold = {"s": [ext("x y", "links", "z"), ext("p", "q", "r")]}
        pred = {"s": [ext("x y", "links", "z")]}
        base = carb_1to1_score(gold, pred)
        doubled = carb_1to1_score(gold, {"s": pred["s"] + [pred["s"][0]]})
        assert doubled.precision <= base.precision + 1e-12
        assert doubled.recall >= base.recall - 1e-12

    def test_more_gold_than_predictions(self):
        gold = {"s": [ext("a", "r", "b"), ext("c", "q", "d"), ext("e", "w", "f")]}
        pred = {"s": [ext("a", "r", "b")]}
        report = carb_1to1_score(gold, pred)
        assert report.precision == pytest.approx(1.0)
        assert report.recall == pytest.approx(1.0 / 3.0)


class TestOie2016Score:
    def test_identical_sets(self):
        gold = {"s": [ext("the cat", "sat on", "the mat")]}
        assert oie2016_score(gold, gold).f1 == 1.0

    def test_leading_article_still_matches(self):
        gold = {"s": [ext("cat", "sat on", "mat")]}
        pred = {"s": [ext("the cat", "sat on", "the mat")]}
        report = oie2016_score(gold, pred)
        assert report.f1 == 1.0

    def test_predicate_head_mismatch(self):
        gold = {"s": [ext("the cat", "sat on", "the mat")]}
        pred = {"s": [ext("the cat", "slept on", "the mat")]}
        assert oie2016_score(gold, pred).f1 == 0.0

    def test_default_head(self):
        assert default_head("the old mill") == "mill"
        assert default_head("of the") == "the"
        assert default_head("") == ""


def slot_labels(*masks):
    """Stack per-slot label tuples into the decoded (T, N) array."""
    return np.array(masks, dtype=np.int64).T


class TestTokenMacroF1:
    def test_identical_grids(self):
        acc = MacroF1Accumulator()
        acc.add(slot_labels((S, R, O, B)), LabelGrid([[S, R, O, B]]), Assignment(((0, 0),), 1.0))
        assert acc.value() == 1.0

    def test_all_background_hand_case(self):
        # 4 tokens: Background F1 = 0.4, the rest 0 -> macro 0.1.
        gold = LabelGrid([[S, R, O, B]])
        acc = MacroF1Accumulator()
        acc.add(slot_labels((B, B, B, B)), gold, Assignment(((0, 0),), 0.0))
        assert acc.value() == pytest.approx(0.1, abs=1e-12)

    def test_gold_swap_with_rematching_invariant(self):
        pred = slot_labels((S, R, O, B), (B, S, R, O))
        gold_a = LabelGrid([[S, R, O, B], [B, S, R, O]])
        gold_b = LabelGrid(gold_a.labels[::-1])
        a, b = MacroF1Accumulator(), MacroF1Accumulator()
        a.add(pred, gold_a, Assignment(((0, 0), (1, 1)), 2.0))
        b.add(pred, gold_b, Assignment(((0, 1), (1, 0)), 2.0))
        assert a.value() == b.value() == 1.0

    def test_unmatched_slots_scored_against_background(self):
        acc = MacroF1Accumulator()
        acc.add(slot_labels((B, B), (S, R)), LabelGrid(np.zeros((0, 2))), Assignment((), 0.0))
        value = acc.value()
        assert value < 1.0  # slot 1 wrongly predicts non-background


def reference_counts(pred_labels, gold, assignment):
    """Per-class counts from the per-slot, per-class loop that the
    confusion-matrix accumulator replaced."""
    tp, pred_total, gold_total = (np.zeros(4, dtype=np.int64) for _ in range(3))
    gold_of_slot = dict(assignment.pairs)
    gold_labels = gold.labels
    for slot in range(pred_labels.shape[1]):
        predicted = pred_labels[:, slot]
        if slot in gold_of_slot:
            target = gold_labels[gold_of_slot[slot]]
        else:
            target = np.full_like(predicted, int(B))
        for klass in range(4):
            p = predicted == klass
            g = target == klass
            tp[klass] += int((p & g).sum())
            pred_total[klass] += int(p.sum())
            gold_total[klass] += int(g.sum())
    return tp, pred_total, gold_total


def reference_macro_f1(tp, pred_total, gold_total):
    """Per-class scalar loop: an absent class scores 1, else its F1."""
    scores = []
    for klass in range(4):
        if pred_total[klass] == 0 and gold_total[klass] == 0:
            scores.append(1.0)
            continue
        precision = tp[klass] / pred_total[klass] if pred_total[klass] else 0.0
        recall = tp[klass] / gold_total[klass] if gold_total[klass] else 0.0
        total = precision + recall
        scores.append(0.0 if total == 0.0 else 2.0 * precision * recall / total)
    return float(np.mean(scores))


@st.composite
def scored_sentences(draw):
    """Decoded labels, a gold grid and a partial slot-to-gold assignment."""
    n_tokens = draw(st.integers(1, 5))
    n_slots = draw(st.integers(1, 6))
    n_gold = draw(st.integers(0, min(n_slots, 3)))
    column = st.lists(st.integers(0, 3), min_size=n_tokens, max_size=n_tokens)
    pred = np.array(draw(st.lists(column, min_size=n_slots, max_size=n_slots))).T
    gold_rows = [draw(column) for _ in range(n_gold)]
    gold = LabelGrid(np.array(gold_rows, dtype=np.int64).reshape(n_gold, n_tokens))
    slots = draw(st.permutations(range(n_slots)))
    n_matched = draw(st.integers(0, n_gold))
    pairs = tuple(sorted(zip(slots[:n_matched], range(n_matched))))
    return pred, gold, Assignment(pairs, 0.0)


@settings(max_examples=150, deadline=None)
@given(sentences=st.lists(scored_sentences(), min_size=1, max_size=3))
def test_accumulator_counts_equal_per_slot_loop(sentences):
    acc = MacroF1Accumulator()
    expected = [np.zeros(4, dtype=np.int64) for _ in range(3)]
    for pred, gold, assignment in sentences:
        acc.add(pred, gold, assignment)
        for total, counts in zip(expected, reference_counts(pred, gold, assignment)):
            total += counts
    assert acc.true_positive.tolist() == expected[0].tolist()
    assert acc.pred_total.tolist() == expected[1].tolist()
    assert acc.gold_total.tolist() == expected[2].tolist()
    assert acc.value() == reference_macro_f1(*expected)


class TestSelfScoring:
    def test_all_schemes_perfect_on_fixture(self, sample_gold_path):
        records = read_tuples_tsv(sample_gold_path)
        gold = {r.sentence: list(r.tuples) for r in records}
        for name, scheme in SCHEMES.items():
            report = scheme(gold, gold)
            assert report.precision == pytest.approx(1.0), name
            assert report.recall == pytest.approx(1.0), name
            assert report.f1 == pytest.approx(1.0), name

    def test_outputs_stay_in_unit_interval(self, sample_gold_path, sample_pred_path):
        gold_records = read_tuples_tsv(sample_gold_path)
        pred_records = read_tuples_tsv(sample_pred_path)
        gold = {r.sentence: list(r.tuples) for r in gold_records}
        pred = {r.sentence: list(r.tuples) for r in pred_records}
        for name, scheme in SCHEMES.items():
            report = scheme(gold, pred)
            for value in (report.precision, report.recall, report.f1):
                assert 0.0 <= value <= 1.0, name

    def test_duplicate_prediction_never_lowers_recall(self, sample_gold_path, sample_pred_path):
        gold = {r.sentence: list(r.tuples) for r in read_tuples_tsv(sample_gold_path)}
        pred = {r.sentence: list(r.tuples) for r in read_tuples_tsv(sample_pred_path)}
        doubled = {s: exts + exts[:1] for s, exts in pred.items()}
        for name, scheme in SCHEMES.items():
            assert scheme(gold, doubled).recall >= scheme(gold, pred).recall - 1e-12, name


class TestPredictionOrderInvariance:
    def test_order_free_schemes_ignore_prediction_order(self):
        rng = np.random.default_rng(5)
        words = [f"w{k}" for k in range(12)]

        def part():
            return " ".join(rng.choice(words, size=rng.integers(1, 5)))

        for _ in range(30):
            gold = {"s": [ext(part(), part(), part()) for _ in range(rng.integers(1, 4))]}
            preds = [ext(part(), part(), part()) for _ in range(rng.integers(1, 4))]
            for scheme in (wire57_score, carb_1to1_score):
                forward = scheme(gold, {"s": preds})
                backward = scheme(gold, {"s": preds[::-1]})
                assert forward.precision == pytest.approx(backward.precision, abs=1e-12)
                assert forward.recall == pytest.approx(backward.recall, abs=1e-12)


class TestAucSinglePoint:
    def test_perfect_point(self):
        assert auc_single_point(1.0, 1.0) == pytest.approx(1.0)

    def test_zero_precision_boundary(self):
        assert auc_single_point(0.0, 0.6) == pytest.approx(0.3)

    def test_monotone_in_precision(self):
        values = [auc_single_point(p, 0.5) for p in np.linspace(0, 1, 11)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            auc_single_point(1.2, 0.0)
