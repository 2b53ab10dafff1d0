"""Command-line pipelines: convert, synth, train, extract, score.

Every command resolves its settings as defaults < config file < explicit
flags, and embeds the resolved configuration in its output artifacts (JSON
reports directly, TSV outputs via a ``<out>.meta.json`` sidecar) so runs
are reproducible from the artifacts alone.  All randomness flows from the
command-level seed.  Exit codes: 0 success, 1 usage, 3 numeric failure,
and 2 for every other slotie error and for unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

import yaml

from . import __version__
from .core import SlotieError, tokenize
from .data import (
    AlignedRecord,
    ConfigError,
    FormatError,
    GenerativeRecord,
    TripletPool,
    lcs_align,
    lsoie_convert,
    read_conll,
    read_grid_jsonl,
    read_imojie_jsonl,
    read_lines,
    read_tuples_tsv,
    synth_generate,
    template_frequencies,
    write_grid_jsonl,
    write_tuples_tsv,
)
from .matching import LossConfig
from .model import ModelConfig, SlotTagger, decode
from .scoring import SCHEMES, auc_single_point
from .train import NumericalError, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_config_file(path: str | None, command: str, defaults: dict) -> dict:
    """Read the layered YAML config: top-level ``common`` settings overridden
    by the per-command section, both limited to the keys of ``defaults``.

    ``common`` keys the command does not use are left out; an unknown key
    in the command's own section is a ConfigError.
    """
    if path is None:
        return {}
    raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    common = raw.get("common") or {}
    section = raw.get(command) or {}
    if not (isinstance(common, dict) and isinstance(section, dict)):
        raise ConfigError(f"config file {path}: 'common' and '{command}' must hold mappings")
    unknown = sorted(set(section) - set(defaults))
    if unknown:
        raise ConfigError(f"config file {path}: unknown {command} keys {unknown}")
    merged = {k: v for k, v in common.items() if k in defaults}
    merged.update(section)
    return merged


def _resolve(args: argparse.Namespace, command: str, defaults: dict) -> dict:
    """defaults < config file < explicitly-given flags."""
    resolved = dict(defaults)
    resolved.update(_load_config_file(getattr(args, "config", None), command, defaults))
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _value(config: dict, key: str, convert):
    """``convert(config[key])``; a value of the wrong type is a ConfigError
    that names the key."""
    try:
        return convert(config[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config key {key!r}: unusable value {config[key]!r} ({exc})") from exc


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _write_meta(out_path, command: str, config: dict, extra: dict | None = None) -> None:
    payload = {"command": command, "version": __version__, "config": config}
    if extra:
        payload.update(extra)
    _write_json(str(out_path) + ".meta.json", payload)


# -- convert -------------------------------------------------------------------

def _cmd_convert(args: argparse.Namespace) -> int:
    config = _resolve(args, "convert", {"format": None})
    fmt = config["format"]
    skipped: list[dict] = []
    converted: list[AlignedRecord] = []
    tuples_in = 0
    records_in = 0
    if fmt in ("imojie", "tuples"):
        if fmt == "imojie":
            records = read_imojie_jsonl(args.infile)
        else:
            records = read_tuples_tsv(args.infile)
        records_in = len(records)
        for record in records:
            tuples_in += len(record.tuples)
            aligned = lcs_align(record)
            for skip in aligned.skipped:
                skipped.append(
                    {
                        "sentence": record.sentence,
                        "tuple": list(skip.extraction.as_tuple()),
                        "reason": skip.reason,
                        "unmatched": list(skip.unmatched),
                    }
                )
            if aligned.grid.n_gold > 0:
                converted.append(aligned)
            else:
                skipped.append(
                    {"sentence": record.sentence, "reason": "no alignable tuples"}
                )
    elif fmt == "lsoie":
        records = read_conll(args.infile)
        records_in = len(records)
        for record in records:
            tuples_in += len(record.role_labels)
            result = lsoie_convert(record)
            sentence = " ".join(record.tokens)
            for reason in result.rejected:
                skipped.append({"sentence": sentence, "reason": reason})
            if result.accepted:
                converted.append(
                    AlignedRecord(sentence, result.sequence, result.grid, ())
                )
            else:
                skipped.append({"sentence": sentence, "reason": "no usable annotation layers"})
    else:
        raise ConfigError(f"unknown input format {fmt!r}")
    write_grid_jsonl(args.out, converted)
    tuples_out = sum(r.grid.n_gold for r in converted)
    report = {
        "command": "convert",
        "config": config,
        "input": str(args.infile),
        "records_in": records_in,
        "records_out": len(converted),
        "tuples_in": tuples_in,
        "tuples_out": tuples_out,
        "skipped": skipped,
    }
    _write_json(args.report, report)
    print(
        f"converted {len(converted)}/{records_in} records "
        f"({tuples_out}/{tuples_in} tuples) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- synth ---------------------------------------------------------------------

def _cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve(args, "synth", {"n": 1000, "seed": 0})
    pool = TripletPool.from_tsv(args.pool)
    samples = synth_generate(pool, _value(config, "n", int), _value(config, "seed", int))
    write_tuples_tsv(args.out, [s.record for s in samples])
    _write_meta(
        args.out,
        "synth",
        config,
        {
            "pool": str(args.pool),
            "pool_size": len(pool),
            "template_frequencies": template_frequencies(samples),
            "tuples": sum(len(s.record.tuples) for s in samples),
        },
    )
    print(f"wrote {len(samples)} sentences -> {args.out}", file=sys.stderr)
    return EXIT_OK


# -- train ---------------------------------------------------------------------

_TRAIN_DEFAULTS = {
    "learning_rate": 5e-4,
    "weight_decay": 1e-6,
    "batch_size": 32,
    "max_epochs": 50,
    "seed": 0,
    "validation_fraction": 0.1,
    "target_f1": None,
    "n_slots": 20,
    "hidden": 64,
    "blocks": 2,
    "max_len": 256,
    "frozen_encoder": False,
    "class_weights": [1.0, 2.0, 2.0, 2.0],
}


def _cmd_train(args: argparse.Namespace) -> int:
    config = _resolve(args, "train", _TRAIN_DEFAULTS)
    dataset = read_grid_jsonl(args.data)
    train_cfg = TrainConfig(
        learning_rate=_value(config, "learning_rate", float),
        weight_decay=_value(config, "weight_decay", float),
        batch_size=_value(config, "batch_size", int),
        max_epochs=_value(config, "max_epochs", int),
        seed=_value(config, "seed", int),
        validation_fraction=_value(config, "validation_fraction", float),
        target_f1=_value(config, "target_f1", lambda v: None if v is None else float(v)),
    )
    model_cfg = ModelConfig(
        n_slots=_value(config, "n_slots", int),
        hidden=_value(config, "hidden", int),
        blocks=_value(config, "blocks", int),
        max_len=_value(config, "max_len", int),
        frozen_encoder=bool(config["frozen_encoder"]),
    )
    loss_cfg = LossConfig(
        class_weights=_value(config, "class_weights", lambda ws: tuple(float(w) for w in ws))
    )
    result = train(
        dataset,
        train_cfg,
        model_cfg,
        loss_cfg,
        log=lambda s: print(
            f"epoch {s.epoch}: loss {s.train_loss:.4f} val-F1 {s.val_macro_f1:.4f}"
            + (" *" if s.is_best else ""),
            file=sys.stderr,
        ),
    )
    result.model.save(args.out)
    metrics = {
        "command": "train",
        "config": config,
        "model": asdict(result.model.config),
        "best_epoch": result.best_epoch,
        "best_val_macro_f1": result.best_val_f1,
        "diverged": result.diverged,
        "diagnostics": result.diagnostics,
        "history": [asdict(s) for s in result.history],
    }
    _write_json(str(args.out) + ".metrics.json", metrics)
    if result.diverged:
        print(f"training diverged: {result.diagnostics}", file=sys.stderr)
        print(f"best checkpoint (epoch {result.best_epoch}) retained at {args.out}", file=sys.stderr)
        return EXIT_NUMERIC
    print(
        f"best epoch {result.best_epoch} val-F1 {result.best_val_f1:.4f} -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- extract ---------------------------------------------------------------------

def _cmd_extract(args: argparse.Namespace) -> int:
    config = _resolve(args, "extract", {"require_all_parts": True})
    model = SlotTagger.load(args.checkpoint)
    sentences = [line for line in read_lines(args.infile) if line.strip()]
    records: list[GenerativeRecord] = []
    skipped_long = 0
    elapsed = 0.0
    for sentence in sentences:
        seq = tokenize(sentence, append_placeholders=True)
        if len(seq) > model.config.max_len:
            skipped_long += 1
            print(
                f"warning: skipping over-length sentence ({len(seq)} tokens): "
                f"{sentence[:60]}...",
                file=sys.stderr,
            )
            continue
        tick = time.perf_counter()
        probs = model.predict(seq)
        extractions = decode(
            probs, seq, require_all_parts=bool(config["require_all_parts"])
        )
        elapsed += time.perf_counter() - tick
        if extractions:
            records.append(GenerativeRecord(sentence, tuple(extractions)))
    write_tuples_tsv(args.out, records)
    _write_meta(
        args.out,
        "extract",
        config,
        {
            "checkpoint": str(args.checkpoint),
            "sentences": len(sentences),
            "skipped_over_length": skipped_long,
            "extractions": sum(len(r.tuples) for r in records),
        },
    )
    processed = len(sentences) - skipped_long
    if processed and elapsed > 0:
        print(f"throughput: {processed / elapsed:.1f} sentences/sec", file=sys.stderr)
    if skipped_long:
        print(f"skipped {skipped_long} over-length sentences", file=sys.stderr)
    return EXIT_OK


# -- score ---------------------------------------------------------------------

def _cmd_score(args: argparse.Namespace) -> int:
    config = _resolve(args, "score", {"scheme": None})
    scheme = config["scheme"]
    score_fn = SCHEMES.get(scheme) if isinstance(scheme, str) else None
    if score_fn is None:
        raise ConfigError(f"unknown scheme {scheme!r}")
    gold_records = read_tuples_tsv(args.gold)
    for record in gold_records:
        for ext in record.tuples:
            # Predictions may carry empty parts (extract --no-require-all-parts);
            # gold may not: no scheme could ever match it.
            if not all(part.strip() for part in ext.as_tuple()):
                raise FormatError(
                    f"{args.gold}: gold tuple {ext.as_tuple()} has an empty part "
                    f"(sentence: {record.sentence[:60]})"
                )
    pred_records = read_tuples_tsv(args.pred)
    gold = {r.sentence: list(r.tuples) for r in gold_records}
    pred = {}
    excluded = 0
    for record in pred_records:
        if record.sentence in gold:
            pred[record.sentence] = list(record.tuples)
        else:
            excluded += 1
            print(
                f"warning: prediction sentence absent from gold, excluded: "
                f"{record.sentence[:60]}",
                file=sys.stderr,
            )
    report = score_fn(gold, pred)
    report.auc = auc_single_point(report.precision, report.recall)
    payload = report.to_dict()
    payload["config"] = config
    payload["excluded_pred_sentences"] = excluded
    _write_json(args.out, payload)
    print(f"{'scheme':<10} {'prec':>7} {'rec':>7} {'f1':>7} {'auc':>7}")
    print(
        f"{report.scheme:<10} {report.precision:>7.3f} {report.recall:>7.3f} "
        f"{report.f1:>7.3f} {report.auc:>7.3f}"
    )
    return EXIT_OK


# -- entry point -----------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="slotie", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slotie {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert a corpus into training grids")
    p.add_argument("--format", choices=("imojie", "lsoie", "tuples"), default=None)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("synth", help="generate synthetic sentences from a triplet pool")
    p.add_argument("--pool", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("train", help="train a tagger on converted grids")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=None)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=None)
    p.add_argument("--epochs", dest="max_epochs", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--validation-fraction", dest="validation_fraction", type=float, default=None)
    p.add_argument("--target-f1", dest="target_f1", type=float, default=None)
    p.add_argument("--n-slots", dest="n_slots", type=int, default=None)
    p.add_argument("--hidden", type=int, default=None)
    p.add_argument("--blocks", type=int, default=None)
    p.add_argument("--max-len", dest="max_len", type=int, default=None)
    p.add_argument(
        "--frozen-encoder",
        dest="frozen_encoder",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("extract", help="run a checkpoint over raw sentences")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--require-all-parts",
        dest="require_all_parts",
        action=argparse.BooleanOptionalAction,
        default=None,
    )
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("score", help="score predictions against gold tuples")
    p.add_argument("--scheme", choices=tuple(SCHEMES), default=None)
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(handler=_cmd_score)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) in ("convert", "score"):
        resolved_key = "format" if args.command == "convert" else "scheme"
        # Required choice may come from the config file; validate after resolution.
        value = getattr(args, resolved_key)
        if value is None and args.config is None:
            parser.error(f"--{resolved_key} is required (flag or config file)")
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except KeyError as exc:
        print(f"data error: missing key {exc}", file=sys.stderr)
        return EXIT_DATA
    except SlotieError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
