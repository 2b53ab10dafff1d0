import argparse
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import slotie as sl
from slotie import cli
from slotie.cli import main


ROOT = Path(__file__).resolve().parents[1]
#: ``scoring.stopwords_checksum()`` of the shipped stopword file.
STOPWORDS_SHA256 = "bb1864d04bb62abee3d8737128ec645c801bacf8b1282ebcc2a184f3b52783f1"


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

    def test_repeated_pool_triple_is_data_error(self, tmp_path, capsys):
        pool = tmp_path / "pool.tsv"
        lines = [f"s{i}\tr\to{i}\n" for i in range(12)]
        pool.write_text("".join(lines + [lines[3]]))
        out = tmp_path / "x.tsv"
        assert run("synth", "--pool", pool, "--n", 1, "--seed", 0, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {pool}:13: pool repeats the triple ('s3', 'r', 'o3')\n"
        assert not out.exists()

    def test_empty_pool_part_names_its_line(self, tmp_path, capsys):
        pool = tmp_path / "pool.tsv"
        lines = [f"s{i}\tr\to{i}\n" for i in range(12)]
        lines[5] = "s5\t \to5\n"
        pool.write_text("".join(lines))
        out = tmp_path / "x.tsv"
        assert run("synth", "--pool", pool, "--n", 1, "--seed", 0, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {pool}:6: pool triple has an empty part: ('s5', ' ', 'o5')\n"
        assert not out.exists()

    @pytest.mark.parametrize("n", [0, -3])
    def test_no_sentences_is_data_error(self, tmp_path, capsys, n):
        out = tmp_path / "x.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", n, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert not out.exists()


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

    def test_non_list_tuples_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"sentence": "Ada wrote notes .", "tuples": 5}\n')
        out = tmp_path / "o"
        assert run("convert", "--format", "imojie", "--in", bad,
                   "--out", out, "--report", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert "tuples" in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt, text", [
        ("imojie", '{"sentence": "Ada wrote notes .", "tuples": []}\n{"sentence": " ", "tuples": []}\n'),
        ("tuples", "Ada wrote notes .\t1.0\tAda\twrote\tnotes\n \t1.0\tAda\twrote\tnotes\n"),
    ])
    def test_blank_sentence_names_its_line(self, tmp_path, capsys, fmt, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        assert run("convert", "--format", fmt, "--in", bad,
                   "--out", tmp_path / "o", "--report", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err == f"data error: {bad}:2: blank sentence\n"

    def test_unknown_role_tag_names_its_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.conll"
        bad.write_text("Maria\tA0-B\nsold\tP-B\ncars\tZZ\n")
        assert run("convert", "--format", "lsoie", "--in", bad,
                   "--out", tmp_path / "o", "--report", tmp_path / "r") == 2
        err = capsys.readouterr().err
        assert err == f"data error: {bad}:3: unknown role tag 'ZZ'\n"

    #: sha256 of the grids file and of the report that ``convert`` writes
    #: for each shipped input, so any change to a mask, a skip entry or a
    #: count shows up as a digest mismatch.
    PINNED_OUTPUTS = {
        "imojie": ("tests/fixtures/imojie_100.jsonl",
                   "e6062a2fc31fed46f5c9fdb0a9cd0302ff8bced6a7765680039c048edd5e415e",
                   "ff61ad7ef7453582b5d548139e64c5affc4c98632b147e491e301f1a544dab43"),
        "lsoie": ("tests/fixtures/lsoie_sample.conll",
                  "03ec9778a8abd6a5cd582e8f56c57bd0246ffaa5fcc9aa027e233499b05e0b06",
                  "9d38097218b7c25456a52fb8d0b30ea5720310edfab9b7f75c4cbd2fff209708"),
        "tuples": ("data/sample_gold.tsv",
                   "73fce17cd3be762e5dee9cc1040cf656d522c983884d2f194048b686368b82d8",
                   "a522bacfb99deeb600dd4d5062a1b7231522671d487b2da822de3b600f6ebf69"),
    }

    @pytest.mark.parametrize("fmt", sorted(PINNED_OUTPUTS))
    def test_outputs_are_pinned(self, tmp_path, monkeypatch, fmt):
        infile, grids_digest, report_digest = self.PINNED_OUTPUTS[fmt]
        # The report records ``input`` as given, so the path stays relative.
        monkeypatch.chdir(ROOT)
        out, report = tmp_path / "grids.jsonl", tmp_path / "report.json"
        assert run("convert", "--format", fmt, "--in", infile, "--out", out, "--report", report) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == grids_digest
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_digest


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
            "  learning_rate: 5e-4\n"
        )
        out = tmp_path / "m.npz"
        assert run("train", "--data", grids_jsonl, "--out", out, "--config", config) == 0
        metrics = json.loads(Path(str(out) + ".metrics.json").read_text())
        assert metrics["config"]["seed"] == 4
        # YAML 1.1 reads 5e-4 as a string; the artifact records the float.
        assert metrics["config"]["learning_rate"] == 0.0005
        assert len(metrics["history"]) == 1
        # explicit flag overrides the file
        out2 = tmp_path / "m2.npz"
        assert run("train", "--data", grids_jsonl, "--out", out2, "--config", config,
                   "--seed", 9) == 0
        metrics2 = json.loads(Path(str(out2) + ".metrics.json").read_text())
        assert metrics2["config"]["seed"] == 9

    def test_out_path_is_written_exactly(self, tmp_path, grids_jsonl):
        out = tmp_path / "model.ckpt"
        assert run("train", "--data", grids_jsonl, "--out", out, "--epochs", 1,
                   "--n-slots", 10, "--hidden", 16, "--blocks", 1) == 0
        assert out.is_file() and not out.with_name("model.ckpt.npz").exists()
        infile = tmp_path / "in.txt"
        infile.write_text("Ada wrote notes.\n")
        assert run("extract", "--checkpoint", out, "--in", infile,
                   "--out", tmp_path / "out.tsv") == 0

    def test_divergence_exits_3_with_the_epoch_1_checkpoint(
        self, tmp_path, capsys, grids_jsonl, nan_loss_from
    ):
        flags = ("--data", grids_jsonl, "--n-slots", 10, "--hidden", 8, "--blocks", 1,
                 "--validation-fraction", 0, "--batch-size", 4)
        epoch_1 = tmp_path / "epoch1.npz"
        assert run("train", *flags, "--out", epoch_1, "--epochs", 1) == 0
        # Validating on the training set makes an epoch one loss call per
        # grid.  NaN from epoch 2's second batch on: its first has stepped Adam.
        nan_loss_from(len(sl.read_grid_jsonl(grids_jsonl)) + 4)
        out = tmp_path / "model.npz"
        capsys.readouterr()
        assert run("train", *flags, "--out", out, "--epochs", 3) == 3
        metrics = json.loads(Path(str(out) + ".metrics.json").read_text())
        assert metrics["diverged"] is True and metrics["best_epoch"] == 1
        diagnostics = metrics["diagnostics"]
        assert diagnostics.startswith("non-finite loss") and "(epoch 2)" in diagnostics
        assert len(metrics["history"]) == 1
        assert f"training diverged: {diagnostics}" in capsys.readouterr().err.splitlines()
        np.testing.assert_array_equal(sl.SlotTagger.load(out).values,
                                      sl.SlotTagger.load(epoch_1).values)

    def test_non_list_mask_row_is_data_error(self, tmp_path, capsys):
        grids = tmp_path / "grids.jsonl"
        grids.write_text(
            '{"sentence": "s", "tokens": ["a"], "placeholders": 0, "masks": [5]}\n'
        )
        out = tmp_path / "m.npz"
        assert run("train", "--data", grids, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--learning-rate", "inf"),
                                             ("--weight-decay", "nan")])
    def test_non_finite_rate_is_data_error(self, tmp_path, capsys, grids_jsonl, flag, value):
        out = tmp_path / "m.npz"
        capsys.readouterr()
        assert run("train", "--data", grids_jsonl, "--out", out, flag, value) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert flag[2:].replace("-", "_") in err
        assert not out.exists()

    def test_decay_step_of_one_is_data_error(self, tmp_path, capsys, grids_jsonl):
        # At the default weight decay 1e-6, a learning rate of 1e6 would set
        # every parameter to zero in the first step.
        out = tmp_path / "m.npz"
        capsys.readouterr()
        assert run("train", "--data", grids_jsonl, "--out", out, "--learning-rate", "1e6") == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert "learning_rate * weight_decay" in err
        assert not out.exists()

    @pytest.mark.parametrize("batch_size", [4, 64])
    def test_overflowing_probabilities_exit_3(self, tmp_path, capsys, grids_jsonl, batch_size):
        out = tmp_path / "model.npz"
        with np.errstate(all="ignore"):
            code = run("train", "--data", grids_jsonl, "--out", out, "--n-slots", 10,
                       "--hidden", 8, "--blocks", 1, "--weight-decay", 0,
                       "--learning-rate", "1e150", "--batch-size", batch_size)
        assert code == 3
        metrics = json.loads(Path(str(out) + ".metrics.json").read_text())
        assert metrics["diverged"] is True and metrics["best_epoch"] == 0
        assert metrics["diagnostics"] == "the tagger's probabilities are not finite"
        assert np.isfinite(sl.SlotTagger.load(out).values).all()

    @pytest.mark.parametrize("flags, named", [
        (("--n-slots", 2), "gold masks cannot be matched onto 2 slots"),
        (("--max-len", 5), "tokens exceed the 5-token cap"),
    ])
    def test_record_the_config_cannot_take_is_named(self, tmp_path, capsys, grids_jsonl,
                                                    flags, named):
        capsys.readouterr()
        assert run("train", "--data", grids_jsonl, "--out", tmp_path / "m.npz", *flags) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and named in err
        position = int(err.removeprefix("data error: record ").split(" ", 1)[0])
        seq, _ = sl.read_grid_jsonl(grids_jsonl)[position - 1]
        assert f"record {position} ({' '.join(seq.body_tokens[:6])}" in err

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


def _without_meta_key(key):
    """An edit of a checkpoint's arrays that drops ``key`` from its meta."""
    def edit(data):
        meta = json.loads(str(data["__meta__"]))
        del meta[key]
        data["__meta__"] = np.array(json.dumps(meta))
    return edit


class TestExtractCommand:
    def test_empty_input_writes_empty_tsv(self, tmp_path, checkpoint):
        infile = tmp_path / "empty.txt"
        infile.write_text("")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 0
        assert out.read_text() == ""

    def test_sentences_end_at_newlines_only(self, tmp_path, checkpoint):
        infile = tmp_path / "in.txt"
        infile.write_text("Ada wrote\u2028notes .\nBo ran\x85home .\n", encoding="utf-8")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["sentences"] == 2

    def test_extraction_lines_bounded_by_slots(self, tmp_path, checkpoint, synth_tsv):
        sentences = [r.sentence for r in sl.read_tuples_tsv(synth_tsv)]
        infile = tmp_path / "sents.txt"
        infile.write_text("\n".join(sentences) + "\n")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out,
                   "--no-require-all-parts") == 0
        lines = [l for l in out.read_text().splitlines() if l.strip()]
        assert len(lines) <= 10 * len(sentences)

    def test_huge_max_len_extracts_like_the_trained_cap(self, tmp_path, checkpoint, synth_tsv):
        # Position rows are built only as far as the longest sentence seen.
        data = dict(np.load(checkpoint, allow_pickle=False))
        meta = json.loads(str(data["__meta__"]))
        assert meta["config"]["max_len"] == 256
        meta["config"]["max_len"] = 10**13
        data["__meta__"] = np.array(json.dumps(meta))
        huge = tmp_path / "huge.npz"
        np.savez(huge, **data)
        infile = tmp_path / "in.txt"
        infile.write_text("\n".join(r.sentence for r in sl.read_tuples_tsv(synth_tsv)) + "\n")
        outs = [tmp_path / "capped.tsv", tmp_path / "huge.tsv"]
        for model, out in zip((checkpoint, huge), outs):
            assert run("extract", "--checkpoint", model, "--in", infile, "--out", out) == 0
        assert outs[0].read_bytes() and outs[1].read_bytes() == outs[0].read_bytes()

    def test_overflowing_probabilities_exit_3(self, tmp_path, capsys, checkpoint):
        model = sl.SlotTagger.load(checkpoint)
        model.values *= 1e150
        blown = tmp_path / "blown.npz"
        model.save(blown)
        infile = tmp_path / "in.txt"
        infile.write_text("Ada wrote notes .\n")
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        with np.errstate(all="ignore"):
            assert run("extract", "--checkpoint", blown, "--in", infile, "--out", out) == 3
        assert capsys.readouterr().err == (
            "numeric failure: the tagger's probabilities are not finite\n")
        assert not out.exists()

    def _extract_fails(self, tmp_path, capsys, checkpoint) -> str:
        """Run extract on ``checkpoint``; assert exit 2 with one data-error
        line and no output file, and return that line."""
        infile = tmp_path / "in.txt"
        infile.write_text("Ada wrote notes .\n")
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize("key, value", [
        ("dropout", 0.1), ("n_slots", "10"),
        # Settings removed from the model; older checkpoints carry them.
        ("frozen_encoder", False), ("ff_multiplier", 4),
        # "meta", "config" and "vocab" replace the meta or its top-level entry.
        pytest.param("meta", [1], id="meta-list"), ("config", 5), ("vocab", 5),
        # The version is an int: neither a bool nor a float stands for it,
        # whether the float names the current version or the retired one.
        ("format_version", True), ("format_version", 1.0), ("format_version", 2.0),
    ])
    def test_bad_checkpoint_config_is_data_error(self, tmp_path, capsys, checkpoint, key, value):
        data = dict(np.load(checkpoint, allow_pickle=False))
        meta = json.loads(str(data["__meta__"]))
        if key == "meta":
            meta = value
        elif key in meta:
            meta[key] = value
        else:
            meta["config"][key] = value
        data["__meta__"] = np.array(json.dumps(meta))
        np.savez(checkpoint, **data)
        assert key in self._extract_fails(tmp_path, capsys, checkpoint)

    @pytest.mark.parametrize("edit, named", [
        *(pytest.param(_without_meta_key(key), key, id=f"meta-without-{key}")
          for key in ("seed", "vocab", "config")),
        pytest.param(lambda data: data.update(__meta__=np.array("{not json")), "JSONDecodeError",
                     id="meta-not-json"),
        pytest.param(lambda data: data.pop("__meta__"), "__meta__", id="no-meta-member"),
        pytest.param(lambda data: data.pop("values"), "values", id="no-values-member"),
    ])
    def test_unreadable_checkpoint_is_data_error(self, tmp_path, capsys, checkpoint, edit, named):
        data = dict(np.load(checkpoint, allow_pickle=False))
        edit(data)
        np.savez(checkpoint, **data)
        with pytest.raises(sl.CheckpointError, match=named):
            sl.SlotTagger.load(checkpoint)
        err = self._extract_fails(tmp_path, capsys, checkpoint)
        assert f"cannot read checkpoint {checkpoint}" in err and named in err

    def test_npy_file_is_data_error(self, tmp_path, capsys, checkpoint):
        array = tmp_path / "values.npy"
        np.save(array, sl.SlotTagger.load(checkpoint).values)
        # numpy reads a text file as pickled data and offers to unpickle it.
        text = tmp_path / "bogus.npz"
        text.write_text("not a checkpoint\n")
        for path in (array, text):
            expected = f"cannot read checkpoint {path}: not an .npz archive"
            with pytest.raises(sl.CheckpointError) as caught:
                sl.SlotTagger.load(path)
            assert str(caught.value) == expected
            assert self._extract_fails(tmp_path, capsys, path) == f"data error: {expected}\n"

    @pytest.mark.parametrize("damage", [
        pytest.param(lambda raw: raw[: len(raw) // 2], id="truncated"),
        pytest.param(lambda raw: raw[:-300] + bytes([raw[-300] ^ 0xFF]) + raw[-299:],
                     id="byte-flipped"),
    ])
    def test_damaged_archive_is_data_error(self, tmp_path, capsys, checkpoint, damage):
        checkpoint.write_bytes(damage(checkpoint.read_bytes()))
        with pytest.raises(sl.CheckpointError, match="BadZipFile"):
            sl.SlotTagger.load(checkpoint)
        err = self._extract_fails(tmp_path, capsys, checkpoint)
        assert err.startswith(f"data error: cannot read checkpoint {checkpoint}: BadZipFile: ")

    def test_non_finite_parameter_is_data_error(self, tmp_path, capsys, checkpoint):
        # The NaN sits in the head.weight span of the one values block.
        model = sl.SlotTagger.load(checkpoint)
        model.head.weight.data[0, 0] = np.nan
        assert np.isnan(model.values).sum() == 1
        model.save(checkpoint)
        assert "head.weight" in self._extract_fails(tmp_path, capsys, checkpoint)

    @pytest.mark.parametrize("resize", [
        pytest.param(lambda v: v[:-1], id="one-short"),
        pytest.param(lambda v: np.append(v, 0.0), id="one-extra"),
        pytest.param(lambda v: v.reshape(1, -1), id="two-d"),
        pytest.param(lambda v: v.astype(np.float32), id="float32"),
    ])
    def test_values_of_wrong_size_are_data_error(self, tmp_path, capsys, checkpoint, resize):
        data = dict(np.load(checkpoint, allow_pickle=False))
        data["values"] = resize(data["values"])
        np.savez(checkpoint, **data)
        assert "values" in self._extract_fails(tmp_path, capsys, checkpoint)

    def test_version_1_archive_is_data_error(self, tmp_path, capsys):
        # Version 1 stored each parameter as its own array.
        vocab = sl.build_vocab([sl.tokenize("Ada wrote notes .")])
        model = sl.SlotTagger(vocab, sl.ModelConfig(n_slots=2, hidden=4, blocks=2), seed=0)
        arrays = {name: t.data for name, t in model.named_parameters().items()}
        assert len(arrays) == 35
        meta = {"format_version": 1, "config": dataclasses.asdict(model.config),
                "vocab": list(vocab), "seed": 0}
        checkpoint = tmp_path / "v1.npz"
        np.savez(checkpoint, __meta__=np.array(json.dumps(meta)), **arrays)
        assert "version 1 " in self._extract_fails(tmp_path, capsys, checkpoint)

    @pytest.mark.parametrize("trained", [True, False], ids=["trained", "untrained"])
    def test_tab_in_sentence_is_data_error(self, tmp_path, capsys, checkpoint, trained):
        # Whether the sentence yields an extraction depends on the model;
        # the tab is rejected before any prediction.
        if not trained:
            vocab = sl.build_vocab([sl.tokenize("Ada wrote notes .")])
            checkpoint = tmp_path / "untrained.npz"
            sl.SlotTagger(vocab, sl.ModelConfig(n_slots=4, hidden=8, blocks=1)).save(checkpoint)
        infile = tmp_path / "in.txt"
        infile.write_text("Ada wrote notes .\n \t \nAda wrote\tnotes .\n")
        out = tmp_path / "out.tsv"
        capsys.readouterr()
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 2
        assert capsys.readouterr().err == (
            f"data error: {infile}:3: a sentence may not hold a tab\n")
        assert not out.exists()

    def test_over_length_sentence_skipped(self, tmp_path, checkpoint):
        infile = tmp_path / "sents.txt"
        infile.write_text("short sentence here\n" + " ".join(["word"] * 300) + "\n")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["skipped_over_length"] == 1

    def test_packed_extract_equals_per_sentence_decode(self, tmp_path, checkpoint):
        corpus = tmp_path / "corpus.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 30, "--seed", 5,
                   "--out", corpus) == 0
        sentences = [r.sentence for r in sl.read_tuples_tsv(corpus)]
        sentences.insert(11, " ".join(["word"] * 300))
        sentences.insert(17, "Ada")  # one word: four tokens with the placeholders
        infile = tmp_path / "in.txt"
        infile.write_text("\n".join(sentences) + "\n")

        model = sl.SlotTagger.load(checkpoint)
        seqs = [sl.tokenize(s, append_placeholders=True) for s in sentences]
        kept = [(s, seq) for s, seq in zip(sentences, seqs) if len(seq) <= model.config.max_len]
        assert len(kept) == len(sentences) - 1 and sum(len(seq) for _, seq in kept) > 256
        assert len(seqs[17]) == 4
        for flags, require_all_parts in (([], True), (["--no-require-all-parts"], False)):
            out = tmp_path / f"out-{require_all_parts}.tsv"
            assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out,
                       *flags) == 0
            expected = []
            for sentence, seq in kept:
                extractions = sl.decode(model.predict(seq), seq, require_all_parts=require_all_parts)
                if extractions:
                    expected.append(sl.GenerativeRecord(sentence, tuple(extractions)))
            want = tmp_path / f"want-{require_all_parts}.tsv"
            sl.write_tuples_tsv(want, expected)
            assert len(expected) > 20
            assert out.read_text().splitlines() == want.read_text().splitlines()


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

    def test_gold_with_empty_part_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("s1\t1.0\tOak barrels\t\tcider\n")
        out = tmp_path / "r.json"
        assert run("score", "--scheme", "oie2016", "--gold", gold, "--pred", gold,
                   "--out", out) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"data error: {gold}:1: gold tuple ('Oak barrels', '', 'cider') has an empty part\n")
        # Predictions may have empty parts (extract --no-require-all-parts).
        good = tmp_path / "good.tsv"
        good.write_text("s1\t1.0\tOak barrels\tgive\tcider\n")
        assert run("score", "--scheme", "wire57", "--gold", good, "--pred", gold,
                   "--out", out) == 0
        assert json.loads(out.read_text())["pred_count"] == 1

    def test_extract_and_score_leave_hashlib_unimported(self, tmp_path, checkpoint, synth_tsv,
                                                        fresh_python):
        # A fresh interpreter: pytest and this module import hashlib.
        sentences = tmp_path / "sentences.txt"
        records = sl.read_tuples_tsv(synth_tsv)
        sentences.write_text("".join(r.sentence + "\n" for r in records), encoding="utf-8")
        script = f"""
import sys
from slotie import cli, scoring
d = {str(tmp_path)!r}
for argv in (
    ["extract", "--checkpoint", {str(checkpoint)!r}, "--in", d + "/sentences.txt",
     "--out", d + "/x.tsv"],
    ["score", "--scheme", "carb11", "--gold", {str(synth_tsv)!r}, "--pred", d + "/x.tsv",
     "--out", d + "/c.json"],
):
    assert cli.main(argv) == 0, argv
print("hashlib" in sys.modules, scoring.stopwords_checksum())
"""
        assert fresh_python(script).split()[-2:] == ["False", STOPWORDS_SHA256]

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


def all_subclasses(cls):
    subclasses = cls.__subclasses__()
    return subclasses + [sub for s in subclasses for sub in all_subclasses(s)]


class TestParser:
    def test_parser_is_built_once_and_serves_every_command(self, tmp_path, sample_gold_path):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        tsv = tmp_path / "s.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 3, "--out", tsv) == 0
        report = tmp_path / "r.json"
        assert run("score", "--scheme", "carb", "--gold", sample_gold_path,
                   "--pred", sample_gold_path, "--out", report) == 0
        assert json.loads(report.read_text())["f1"] == 1.0
        assert len(sl.read_tuples_tsv(tsv)) == 3
        assert cli.build_parser() is parser


class TestExitCodes:
    @pytest.mark.parametrize("error", all_subclasses(sl.SlotieError), ids=lambda e: e.__name__)
    def test_every_slotie_error_is_one_line(self, tmp_path, monkeypatch, capsys, error):
        def fail(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_synth", fail)
        code = run("synth", "--pool", "data/pool_en.tsv", "--out", tmp_path / "s.tsv")
        assert code == (3 if error is sl.NumericalError else 2)
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("read", ["pool", "config", "gold", "pred"])
    def test_undecodable_input_names_its_file_and_line(self, tmp_path, capsys,
                                                       sample_gold_path, read):
        bad = tmp_path / "bad.txt"
        # A file this short is decoded in one chunk before a line is parsed.
        # "\r\n" and a lone "\r" each end one line, as the readers see them.
        bad.write_bytes(b"a\r\nb\rc\nd\xff\n")
        out = tmp_path / "out"
        args = {
            "pool": ("synth", "--pool", bad),
            "config": ("synth", "--pool", "data/pool_en.tsv", "--config", bad),
            "gold": ("score", "--scheme", "carb", "--gold", bad, "--pred", sample_gold_path),
            "pred": ("score", "--scheme", "carb", "--gold", sample_gold_path, "--pred", bad),
        }[read]
        assert run(*args, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {bad}:4: 'utf-8' codec can't decode byte 0xff")
        assert len(err.splitlines()) == 1 and not out.exists()


class TestConfigKeys:
    @pytest.mark.parametrize("text, named", [
        ("synth:\n  batch_size: 8\n", "batch_size"),
        ("synth: 5\n", "synth"),
        ("common: [1]\n", "common"),
        # Malformed YAML: PyYAML's multi-line messages become one line.
        ("synth: [", "cfg.yaml line 1"),
        ("synth:\n\tn: 3\n", "cfg.yaml line 2"),
        ("synth:\n  n: *x\n", "cfg.yaml line 2"),
        ("synth: !!python/object/apply:os.system ['true']\n", "cfg.yaml line 1"),
        # A key written twice in one mapping is rejected, not last-one-wins.
        ("synth:\n  n: 3\n  n: 5\n", "cfg.yaml line 3"),
        ("common:\n  seed: 1\ncommon:\n  seed: 2\n", "cfg.yaml line 3"),
    ])
    def test_bad_config_file_is_data_error(self, tmp_path, capsys, text, named):
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        out = tmp_path / "s.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--n", 3, "--out", out,
                   "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert named in err
        assert not out.exists()

    WRONGLY_TYPED = [
        ("train", "train:\n  class_weights: 5\n", "class_weights"),
        ("train", "train:\n  max_epochs: [1]\n", "max_epochs"),
        ("train", "train:\n  max_epochs: 1.9\n", "max_epochs"),
        ("train", "train:\n  seed: '3'\n  target_f1: true\n", "seed"),
        ("train", "train:\n  target_f1: true\n", "target_f1"),
        ("extract", "extract:\n  require_all_parts: 'false'\n", "require_all_parts"),
        ("synth", "synth:\n  n: 2.7\n", "'n'"),
    ]

    # The config text already names the command, so the ids leave it out.
    @pytest.mark.parametrize("command, text, named", WRONGLY_TYPED,
                             ids=[f"{text}-{named}" for _, text, named in WRONGLY_TYPED])
    def test_wrongly_typed_value_is_data_error(self, tmp_path, capsys, request, command, text,
                                               named):
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        out = tmp_path / "out"
        if command == "synth":
            inputs = ("--pool", "data/pool_en.tsv")
        elif command == "train":
            inputs = ("--data", request.getfixturevalue("grids_jsonl"))
        else:
            sentences = tmp_path / "in.txt"
            sentences.write_text("Ada wrote notes .\n")
            inputs = ("--checkpoint", request.getfixturevalue("checkpoint"), "--in", sentences)
        capsys.readouterr()
        assert run(command, *inputs, "--out", out, "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and len(err.splitlines()) == 1
        assert named in err
        assert not out.exists()

    def test_unknown_scheme_in_config_is_data_error(self, tmp_path, capsys, sample_gold_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("score:\n  scheme: foo\n")
        out = tmp_path / "r.json"
        assert run("score", "--gold", sample_gold_path, "--pred", sample_gold_path,
                   "--out", out, "--config", config) == 2
        err = capsys.readouterr().err
        assert err == "data error: unknown scheme 'foo'\n"
        assert not out.exists()

    def test_merge_key_is_not_a_duplicate(self, tmp_path):
        config = tmp_path / "cfg.yaml"
        config.write_text("base: &base\n  n: 3\n  seed: 2\nsynth:\n  <<: *base\n  n: 4\n")
        out = tmp_path / "s.tsv"
        assert run("synth", "--pool", "data/pool_en.tsv", "--out", out, "--config", config) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["config"] == {"n": 4, "seed": 2}

    @pytest.mark.parametrize("command, text, message", [
        ("convert", "convert:\n  format: foo\n", "unknown format 'foo'"),
        ("score", "common:\n  seed: 1\n", "'scheme' is required (flag or config file)"),
    ])
    def test_bad_choice_in_config_is_data_error(self, tmp_path, capsys, sample_gold_path,
                                                command, text, message):
        config = tmp_path / "cfg.yaml"
        config.write_text(text)
        out = tmp_path / "out"
        paths = {"convert": ("--in", sample_gold_path, "--out", out, "--report", tmp_path / "r"),
                 "score": ("--gold", sample_gold_path, "--pred", sample_gold_path, "--out", out)}
        assert run(command, *paths[command], "--config", config) == 2
        assert capsys.readouterr().err == f"data error: {message}\n"
        assert not out.exists()

    def test_unused_common_keys_are_left_out(self, tmp_path, checkpoint):
        config = tmp_path / "cfg.yaml"
        config.write_text("common:\n  seed: 4\n")
        infile = tmp_path / "in.txt"
        infile.write_text("Ada wrote notes.\n")
        out = tmp_path / "out.tsv"
        assert run("extract", "--checkpoint", checkpoint, "--in", infile, "--out", out,
                   "--config", config) == 0
        meta = json.loads(Path(str(out) + ".meta.json").read_text())
        assert meta["config"] == {"require_all_parts": True}


class TestSettingsTable:
    def test_train_settings_are_the_config_dataclass_fields(self):
        table = cli.SETTINGS["train"]
        for cls in (sl.TrainConfig, sl.ModelConfig, sl.LossConfig):
            for field in dataclasses.fields(cls):
                assert table[field.name].default == field.default, field.name

    def test_train_flags_are_the_table_flags(self):
        parser = cli.build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        actions = subparsers.choices["train"]._actions
        flags = {flag for action in actions for flag in action.option_strings}
        assert flags == {
            "-h", "--help", "--data", "--out", "--config",
            "--learning-rate", "--weight-decay", "--batch-size", "--epochs", "--seed",
            "--validation-fraction", "--target-f1", "--n-slots", "--hidden", "--blocks",
            "--max-len",
        }
        table_dests = {a.dest for a in actions if a.dest in cli.SETTINGS["train"]}
        assert table_dests == set(cli.SETTINGS["train"]) - {"class_weights"}


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
