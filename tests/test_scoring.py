import numpy as np
import pytest

from slotie import (
    Assignment,
    Extraction,
    LabelGrid,
    TokenClass,
    TripletMask,
    auc_single_point,
    carb_1to1_score,
    carb_score,
    oie2016_score,
    read_tuples_tsv,
    token_macro_f1,
    wire57_pair,
    wire57_score,
)
from slotie.scoring import (
    MacroF1Accumulator,
    SCHEMES,
    STOPWORDS,
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


class TestTokenMacroF1:
    def test_identical_grids(self):
        grid = LabelGrid((TripletMask((S, R, O, B)),))
        assert token_macro_f1(grid, grid, Assignment(((0, 0),), 1.0)) == 1.0

    def test_all_background_hand_case(self):
        # 4 tokens: Background F1 = 0.4, the rest 0 -> macro 0.1.
        pred = LabelGrid((TripletMask((B, B, B, B)),))
        gold = LabelGrid((TripletMask((S, R, O, B)),))
        value = token_macro_f1(pred, gold, Assignment(((0, 0),), 0.0))
        assert value == pytest.approx(0.1, abs=1e-12)

    def test_gold_swap_with_rematching_invariant(self):
        pred = LabelGrid((TripletMask((S, R, O, B)), TripletMask((B, S, R, O))))
        gold_a = LabelGrid((TripletMask((S, R, O, B)), TripletMask((B, S, R, O))))
        gold_b = LabelGrid((gold_a.masks[1], gold_a.masks[0]))
        a = token_macro_f1(pred, gold_a, Assignment(((0, 0), (1, 1)), 2.0))
        b = token_macro_f1(pred, gold_b, Assignment(((0, 1), (1, 0)), 2.0))
        assert a == b == 1.0

    def test_unmatched_slots_scored_against_background(self):
        pred = LabelGrid((TripletMask((B, B)), TripletMask((S, R))))
        gold = LabelGrid(())
        acc = MacroF1Accumulator()
        acc.add(pred, gold, Assignment((), 0.0))
        value = acc.value()
        assert value < 1.0  # slot 1 wrongly predicts non-background


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
