import json
from pathlib import Path

import pytest

import slotie as sl
from slotie.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def synth_tsv(tmp_path):
    out = tmp_path / "synth.tsv"
    code = run("synth", "--pool", "data/pool_en.tsv", "--n", 12, "--seed", 3, "--out", out)
    assert code == 0
    return out


@pytest.fixture()
def grids_jsonl(tmp_path, synth_tsv):
    out = tmp_path / "grids.jsonl"
    report = tmp_path / "convert_report.json"
    code = run("convert", "--format", "tuples", "--in", synth_tsv, "--out", out,
               "--report", report)
    assert code == 0
    return out


@pytest.fixture()
def checkpoint(tmp_path, grids_jsonl):
    out = tmp_path / "model.npz"
    code = run(
        "train", "--data", grids_jsonl, "--out", out,
        "--epochs", 2, "--batch-size", 4, "--seed", 0,
        "--n-slots", 10, "--hidden", 16, "--blocks", 1,
        "--validation-fraction", 0.25,
    )
    assert code == 0
    return out


class TestSynthCommand:
    def test_writes_tsv_and_meta(self, tmp_path, synth_tsv):
        records = sl.read_tuples_tsv(synth_tsv)
        assert len(records) == 12
        meta = json.loads(Path(str(synth_tsv) + ".meta.json").read_text())
        assert meta["command"] == "synth"
        assert meta["config"]["seed"] == 3
        assert abs(sum(meta["template_frequencies"].values()) - 1.0) < 1e-9

    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 20, "--seed", 5, "--out", a) == 0
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 20, "--seed", 5, "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_single_sentence(self, tmp_path):
        out = tmp_path / "one.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 1, "--seed", 0, "--out", out) == 0
        records = sl.read_tuples_tsv(out)
        assert len(records) == 1
        assert len(records[0].tuples) >= 1

    def test_small_pool_is_data_error(self, tmp_path):
        pool = tmp_path / "pool.tsv"
        pool.write_text("a\tb\tc\n")
        out = tmp_path / "x.tsv"
        assert run("synth", "--pool", pool, "--n", 1, "--seed", 0, "--out", out) == 2


class TestConvertCommand:
    def test_imojie_conversion_with_report(self, tmp_path, imojie_fixture_path):
        out = tmp_path / "grids.jsonl"
        report_path = tmp_path / "report.json"
        assert run("convert", "--format", "imojie", "--in", imojie_fixture_path,
                   "--out", out, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        assert report["records_in"] == 100
        assert report["tuples_in"] == 250
        assert report["tuples_out"] == 240
        assert len([s for s in report["skipped"] if "tuple" in s]) == 10
        dataset = sl.read_grid_jsonl(out)
        assert len(dataset) == report["records_out"]

    def test_lsoie_conversion_reports_filtered(self, tmp_path, lsoie_fixture_path):
        out = tmp_path / "grids.jsonl"
        report_path = tmp_path / "report.json"
        assert run("convert", "--format", "lsoie", "--in", lsoie_fixture_path,
                   "--out", out, "--report", report_path) == 0
        report = json.loads(report_path.read_text())
        reasons = " ".join(s["reason"] for s in report["skipped"])
        assert "fewer than two arguments" in reasons

    def test_roundtrip_reload(self, grids_jsonl, tmp_path):
        dataset = sl.read_grid_jsonl(grids_jsonl)
        again = tmp_path / "again.jsonl"
        records = [
            sl.AlignedRecord(" ".join(seq.body_tokens), seq, grid, ())
            for seq, grid in dataset
        ]
        sl.write_grid_jsonl(again, records)
        assert sl.read_grid_jsonl(again) == dataset

    def test_parse_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n")
        assert run("convert", "--format", "imojie", "--in", bad,
                   "--out", tmp_path / "o", "--report", tmp_path / "r") == 2

    def test_missing_input_exit_code(self, tmp_path):
        assert run("convert", "--format", "imojie", "--in", tmp_path / "nope",
                   "--out", tmp_path / "o", "--report", tmp_path / "r") == 2


class TestTrainCommand:
    def test_writes_checkpoint_and_metrics(self, checkpoint):
        model = sl.SlotTagger.load(checkpoint)
        assert model.config.n_slots == 10
        metrics = json.loads(Path(str(checkpoint) + ".metrics.json").read_text())
        assert len(metrics["history"]) == 2
        assert metrics["best_epoch"] >= 1
        marks = [h["is_best"] for h in metrics["history"]]
        assert marks[0] is True

    def test_checkpoint_reload_reproduces_validation_f1(self, checkpoint, grids_jsonl):
        metrics = json.loads(Path(str(checkpoint) + ".metrics.json").read_text())
        model = sl.SlotTagger.load(checkpoint)
        dataset = sl.read_grid_jsonl(grids_jsonl)
        import numpy as np

        rng = np.random.default_rng(0)
        order = rng.permutation(len(dataset))
        n_val = int(round(0.25 * len(dataset)))
        val = [dataset[i] for i in order[:n_val]]
        f1 = sl.evaluate_macro_f1(model, val)
        assert f1 == pytest.approx(metrics["best_val_macro_f1"], abs=1e-12)

    def test_config_file_layering(self, tmp_path, grids_jsonl):
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "common:\n  seed: 4\ntrain:\n  max_epochs: 1\n  batch_size: 4\n"
            "  n_slots: 10\n  hidden: 16\n  blocks: 1\n  validation_fraction: 0.25\n"
        )
        out = tmp_path / "m.npz"
        assert run("train", "--data", grids_jsonl, "--out", out, "--config", config) == 0
        metrics = json.loads(Path(str(out) + ".metrics.json").read_text())
        assert metrics["config"]["seed"] == 4
        assert len(metrics["history"]) == 1
        # explicit flag overrides the file
        out2 = tmp_path / "m2.npz"
        assert run("train", "--data", grids_jsonl, "--out", out2, "--config", config,
                   "--seed", 9) == 0
        metrics2 = json.loads(Path(str(out2) + ".metrics.json").read_text())
        assert metrics2["config"]["seed"] == 9

    def test_more_gold_than_slots_is_data_error(self, tmp_path, capsys):
        tsv = tmp_path / "synth60.tsv"
        grids = tmp_path / "grids60.jsonl"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 60, "--seed", 0,
                   "--out", tsv) == 0
        assert run("convert", "--format", "tuples", "--in", tsv, "--out", grids,
                   "--report", tmp_path / "report.json") == 0
        capsys.readouterr()
        code = run("train", "--data", grids, "--out", tmp_path / "m.npz", "--n-slots", 2,
                   "--hidden", 16, "--blocks", 1, "--epochs", 1)
        assert code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if line.startswith("data error:")] == [
            err.strip()
        ]
        assert "Traceback" not in err


class TestExtractCommand:
    def test_empty_input_writes_empty_tsv(self, tmp_path, checkpoint):
        infile = tmp_path / "empty.txt"
        infile.write_text("")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 0
        assert out.read_text() == ""

    def test_extraction_lines_bounded_by_slots(self, tmp_path, checkpoint, synth_tsv):
        sentences = [r.sentence for r in sl.read_tuples_tsv(synth_tsv)]
        infile = tmp_path / "sents.txt"
        infile.write_text("\n".join(sentences) + "\n")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out,
                   "--no-require-all-parts") == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) <= 10 * len(sentences)

    def test_over_length_sentence_skipped(self, tmp_path, checkpoint):
        infile = tmp_path / "sents.txt"
        infile.write_text("short sentence here\n" + " ".join(["word"] * 300) + "\n")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["skipped_over_length"] == 1


class TestScoreCommand:
    def test_gold_vs_gold_all_schemes(self, tmp_path, sample_gold_path):
        for scheme in ("oie2016", "wire57", "carb", "carb11"):
            out = tmp_path / f"{scheme}.json"
            assert run("score", "--scheme", scheme, "--gold", sample_gold_path,
                       "--pred", sample_gold_path, "--out", out) == 0
            report = json.loads(out.read_text())
            assert report["f1"] == pytest.approx(1.0), scheme
            assert report["auc"] == pytest.approx(1.0), scheme

    def test_pred_only_sentence_excluded_and_counted(self, tmp_path, sample_gold_path):
        pred = tmp_path / "pred.tsv"
        pred.write_text("an unknown sentence\t1.0\ta\tb\tc\n")
        out = tmp_path / "r.json"
        assert run("score", "--scheme", "wire57", "--gold", sample_gold_path,
                   "--pred", pred, "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["excluded_pred_sentences"] == 1
        assert report["f1"] == 0.0

    def test_wire57_micro_scores_hand_computed(self, tmp_path):
        # s1: overlap 5, |t|=5, |g|=8.  s2: relation tokens disjoint, so the
        # prediction only adds 3 tokens to the precision denominator.
        # P = 5/8, R = 5/12, F1 = 1/2 exactly.
        gold = tmp_path / "gold.tsv"
        gold.write_text(
            "s1\t1.0\tA spectrum from FID\thas\ta low ratio\n"
            "s2\t1.0\tOak barrels\tgive\tcider\n"
        )
        pred = tmp_path / "pred.tsv"
        pred.write_text(
            "s1\t0.9\tA spectrum\thas\ta ratio\n"
            "s2\t0.8\tOak\tgives\tcider\n"
        )
        out = tmp_path / "r.json"
        assert run("score", "--scheme", "wire57", "--gold", gold, "--pred", pred,
                   "--out", out) == 0
        report = json.loads(out.read_text())
        assert report["precision"] == pytest.approx(5 / 8, abs=1e-9)
        assert report["recall"] == pytest.approx(5 / 12, abs=1e-9)
        assert report["f1"] == pytest.approx(0.5, abs=1e-9)

    def test_gold_with_empty_part_is_data_error(self, tmp_path):
        gold = tmp_path / "gold.tsv"
        gold.write_text("s1\t1.0\tOak barrels\t\tcider\n")
        out = tmp_path / "r.json"
        assert run("score", "--scheme", "oie2016", "--gold", gold, "--pred", gold,
                   "--out", out) == 2
        assert not out.exists()
        # Predictions may have empty parts (extract --no-require-all-parts).
        good = tmp_path / "good.tsv"
        good.write_text("s1\t1.0\tOak barrels\tgive\tcider\n")
        assert run("score", "--scheme", "wire57", "--gold", good, "--pred", gold,
                   "--out", out) == 0
        assert json.loads(out.read_text())["pred_count"] == 1

    def test_unknown_scheme_is_usage_error(self, tmp_path, sample_gold_path):
        with pytest.raises(SystemExit) as err:
            run("score", "--scheme", "bogus", "--gold", sample_gold_path,
                "--pred", sample_gold_path, "--out", tmp_path / "r.json")
        assert err.value.code == 1

    def test_zero_score_still_exits_zero(self, tmp_path, sample_gold_path):
        pred = tmp_path / "pred.tsv"
        gold_records = sl.read_tuples_tsv(sample_gold_path)
        sl.write_tuples_tsv(
            pred,
            [sl.GenerativeRecord(gold_records[0].sentence,
                                 (sl.Extraction("zz", "qq", "yy"),))],
        )
        out = tmp_path / "r.json"
        assert run("score", "--scheme", "carb", "--gold", sample_gold_path,
                   "--pred", pred, "--out", out) == 0
        assert json.loads(out.read_text())["f1"] == 0.0


class TestUsageErrors:
    def test_no_command(self):
        with pytest.raises(SystemExit) as err:
            run()
        assert err.value.code == 1

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as err:
            run("synth", "--bogus", "1")
        assert err.value.code == 1

    def test_missing_required_choice(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run("convert", "--in", "x", "--out", "y", "--report", "z")
        assert err.value.code == 1
