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
import functools
import itertools
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import get_args, get_type_hints

from . import __version__
from .core import NumericalError, SlotieError, tokenize, typed_value
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
    read_text,
    read_tuples_tsv,
    synth_generate,
    template_frequencies,
    write_grid_jsonl,
    write_tuples_tsv,
)
from .matching import LossConfig
# ``decode`` is the one-sentence path whose output ``extract`` must equal.
from .model import ModelConfig, SlotTagger, decode, decode_pack  # noqa: F401
from .scoring import SCHEMES, auc_single_point
from .train import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


#: Flags other than ``--`` plus the name with ``-`` for ``_``; None marks a
#: config-only setting.
_FLAG_NAMES = {"max_epochs": "--epochs", "class_weights": None}


@dataclass(frozen=True)
class _Setting:
    """One command setting: its type hint, default and allowed flag values.
    A setting with ``choices`` has no default and is required."""

    hint: object
    default: object = None
    choices: tuple[str, ...] | None = None


def _dataclass_settings(*classes) -> dict[str, _Setting]:
    return {
        f.name: _Setting(get_type_hints(cls)[f.name], f.default)
        for cls in classes
        for f in fields(cls)
    }


def _pick(cls, config: dict):
    return cls(**{f.name: config[f.name] for f in fields(cls) if f.name in config})


#: ``convert``'s input formats: ``format -> (reader, converter, reason for
#: a record that keeps no tuple)``.
_FORMATS = {
    "imojie": (read_imojie_jsonl, lcs_align, "no alignable tuples"),
    "lsoie": (read_conll, lsoie_convert, "no usable annotation layers"),
    "tuples": (read_tuples_tsv, lcs_align, "no alignable tuples"),
}

#: Every command's settings: the defaults, flags, value types and artifact
#: ``config`` all come from this table.
SETTINGS = {
    "convert": {"format": _Setting(str, choices=tuple(_FORMATS))},
    "synth": {"n": _Setting(int, 1000), "seed": _Setting(int, 0)},
    "train": _dataclass_settings(TrainConfig, ModelConfig, LossConfig),
    "extract": {"require_all_parts": _Setting(bool, True)},
    "score": {"scheme": _Setting(str, choices=tuple(SCHEMES))},
}


@functools.cache
def _unique_key_loader():
    """``yaml.SafeLoader`` that rejects a key written twice in one mapping;
    a ``<<`` merge key is not a key of its own.  Built on first use, so a
    command run without ``--config`` never imports PyYAML."""
    import yaml

    class UniqueKeyLoader(yaml.SafeLoader):
        def construct_mapping(self, node, deep=False):
            seen = set()
            for key_node, _ in node.value:
                if (isinstance(key_node, yaml.ScalarNode)
                        and key_node.tag != "tag:yaml.org,2002:merge"):
                    key = self.construct_object(key_node)
                    if key in seen:
                        raise yaml.constructor.ConstructorError(
                            None, None, f"found duplicate key {key!r}", key_node.start_mark)
                    seen.add(key)
            return super().construct_mapping(node, deep)

    return UniqueKeyLoader


def _load_config_file(path: str | None, command: str) -> dict:
    """Read the layered YAML config: top-level ``common`` settings overridden
    by the per-command section, both limited to the command's settings.

    ``common`` keys the command does not use are left out; an unknown key
    in the command's own section is a ConfigError, and so are malformed YAML
    and a key written twice in one mapping.
    """
    if path is None:
        return {}
    import yaml

    try:
        raw = yaml.load(read_text(path), _unique_key_loader()) or {}
    except yaml.YAMLError as exc:
        # PyYAML's own message spans several lines; keep its first problem.
        mark = getattr(exc, "problem_mark", None)
        where = f" line {mark.line + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ConfigError(f"config file {path}{where}: {problem}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a mapping")
    common = raw.get("common") or {}
    section = raw.get(command) or {}
    if not (isinstance(common, dict) and isinstance(section, dict)):
        raise ConfigError(f"config file {path}: 'common' and '{command}' must hold mappings")
    table = SETTINGS[command]
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ConfigError(f"config file {path}: unknown {command} keys {unknown}")
    merged = {k: v for k, v in common.items() if k in table}
    merged.update(section)
    return merged


def _resolve(args: argparse.Namespace, command: str) -> dict:
    """defaults < config file < explicitly-given flags, each value checked
    against its setting's choices and type."""
    table = SETTINGS[command]
    resolved = {name: setting.default for name, setting in table.items()}
    resolved.update(_load_config_file(args.config, command))
    for name in table:
        value = getattr(args, name, None)
        if value is not None:
            resolved[name] = value
    for name, setting in table.items():
        if setting.choices and resolved[name] is None:
            raise ConfigError(f"{name!r} is required (flag or config file)")
        if setting.choices and resolved[name] not in setting.choices:
            raise ConfigError(f"unknown {name} {resolved[name]!r}")
    return {
        name: typed_value(name, table[name].hint, value, ConfigError)
        for name, value in resolved.items()
    }


def _add_setting_flags(parser: argparse.ArgumentParser, command: str) -> None:
    for name, setting in SETTINGS[command].items():
        flag = _FLAG_NAMES.get(name, "--" + name.replace("_", "-"))
        if flag is None:
            continue
        if setting.hint is bool:
            parser.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction)
        else:
            # The flag of a ``float | None`` setting takes a float.
            flag_type, *_ = get_args(setting.hint) or (setting.hint,)
            parser.add_argument(flag, dest=name, type=flag_type, choices=setting.choices)


def _write_json(path, payload: dict) -> None:
    # One line: an ``indent`` would send every report through json's
    # pure-Python encoder, about three times as slow as the C one.
    text = json.dumps(payload, ensure_ascii=False, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _write_meta(out_path, command: str, config: dict, extra: dict) -> None:
    payload = {"command": command, "version": __version__, "config": config, **extra}
    _write_json(str(out_path) + ".meta.json", payload)


# -- convert -------------------------------------------------------------------

def _cmd_convert(args: argparse.Namespace) -> int:
    config = _resolve(args, "convert")
    reader, convert, empty_reason = _FORMATS[config["format"]]
    records = reader(args.infile)
    skipped: list[dict] = []
    converted: list[AlignedRecord] = []
    tuples_in = 0
    for aligned in map(convert, records):
        tuples_in += aligned.grid.n_gold + len(aligned.skipped)
        for skip in aligned.skipped:
            entry = {"sentence": aligned.sentence, "reason": skip.reason}
            if skip.extraction is not None:
                entry.update(tuple=list(skip.extraction.as_tuple()), unmatched=list(skip.unmatched))
            skipped.append(entry)
        if aligned.grid.n_gold > 0:
            converted.append(aligned)
        else:
            skipped.append({"sentence": aligned.sentence, "reason": empty_reason})
    write_grid_jsonl(args.out, converted)
    tuples_out = sum(r.grid.n_gold for r in converted)
    report = {
        "command": "convert",
        "config": config,
        "input": str(args.infile),
        "records_in": len(records),
        "records_out": len(converted),
        "tuples_in": tuples_in,
        "tuples_out": tuples_out,
        "skipped": skipped,
    }
    _write_json(args.report, report)
    print(
        f"converted {len(converted)}/{len(records)} records "
        f"({tuples_out}/{tuples_in} tuples) -> {args.out}",
        file=sys.stderr,
    )
    return EXIT_OK


# -- synth ---------------------------------------------------------------------

def _cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve(args, "synth")
    pool = TripletPool.from_tsv(args.pool)
    samples = synth_generate(pool, config["n"], config["seed"])
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

def _cmd_train(args: argparse.Namespace) -> int:
    config = _resolve(args, "train")
    dataset = read_grid_jsonl(args.data)
    train_cfg, model_cfg, loss_cfg = (
        _pick(cls, config) for cls in (TrainConfig, ModelConfig, LossConfig)
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

def _tokenized(sentences: list[str], max_len: int):
    """(sentence, sequence) pairs, tokenized lazily so that only about one
    pack's tokens are alive at a time; over-length sentences are skipped
    with a warning."""
    for sentence in sentences:
        seq = tokenize(sentence, append_placeholders=True)
        if len(seq) > max_len:
            print(
                f"warning: skipping over-length sentence ({len(seq)} tokens): "
                f"{sentence[:60]}...",
                file=sys.stderr,
            )
            continue
        yield sentence, seq


def _cmd_extract(args: argparse.Namespace) -> int:
    config = _resolve(args, "extract")
    model = SlotTagger.load(args.checkpoint)
    sentences: list[str] = []
    for lineno, line in enumerate(read_lines(args.infile), start=1):
        # A tuples-TSV field holds no tab, so no extraction of it could be written.
        if "\t" in line and line.strip():
            raise FormatError(f"{args.infile}:{lineno}: a sentence may not hold a tab")
        if line.strip():
            sentences.append(line)
    records: list[GenerativeRecord] = []
    processed = 0
    tick = time.perf_counter()
    jobs, seqs = itertools.tee(_tokenized(sentences, model.config.max_len))
    for pack, probs in model.predict_packs(seq for _, seq in seqs):
        processed += len(pack)
        # The pack's list comes first, so zip reads no job past the pack.
        decoded = decode_pack(probs, pack, require_all_parts=config["require_all_parts"])
        for extractions, (sentence, _) in zip(decoded, jobs):
            if extractions:
                records.append(GenerativeRecord(sentence, tuple(extractions)))
    elapsed = time.perf_counter() - tick
    skipped_long = len(sentences) - processed
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
    if processed and elapsed > 0:
        print(f"throughput: {processed / elapsed:.1f} sentences/sec", file=sys.stderr)
    if skipped_long:
        print(f"skipped {skipped_long} over-length sentences", file=sys.stderr)
    return EXIT_OK


# -- score ---------------------------------------------------------------------

def _cmd_score(args: argparse.Namespace) -> int:
    config = _resolve(args, "score")
    # Each map holds its records' own tuples: no copy, and no record outlives the read.
    gold = {r.sentence: r.tuples for r in read_tuples_tsv(args.gold, gold=True)}
    pred = {}
    excluded = 0
    for record in read_tuples_tsv(args.pred):
        if record.sentence in gold:
            pred[record.sentence] = record.tuples
        else:
            excluded += 1
            print(
                f"warning: prediction sentence absent from gold, excluded: "
                f"{record.sentence[:60]}",
                file=sys.stderr,
            )
    report = SCHEMES[config["scheme"]](gold, pred)
    del gold, pred  # the report holds what it needs; free the inputs before encoding it
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

@functools.cache
def build_parser() -> _Parser:
    """The one parser of the process.  It holds no handlers: ``main`` looks
    up the command's ``_cmd_*`` function when it runs."""
    parser = _Parser(prog="slotie", description=__doc__)
    parser.add_argument("--version", action="version", version=f"slotie {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "convert": ("convert a corpus into training grids",
                    {"--in": "infile", "--out": "out", "--report": "report"}),
        "synth": ("generate synthetic sentences from a triplet pool",
                  {"--pool": "pool", "--out": "out"}),
        "train": ("train a tagger on converted grids",
                  {"--data": "data", "--out": "out"}),
        "extract": ("run a checkpoint over raw sentences",
                    {"--checkpoint": "checkpoint", "--in": "infile", "--out": "out"}),
        "score": ("score predictions against gold tuples",
                  {"--gold": "gold", "--pred": "pred", "--out": "out"}),
    }
    for command, (help_text, paths) in commands.items():
        p = sub.add_parser(command, help=help_text)
        for flag, dest in paths.items():
            p.add_argument(flag, dest=dest, required=True)
        p.add_argument("--config")
        _add_setting_flags(p, command)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name, setting in SETTINGS[args.command].items():
        # A required choice may come from the config file; validate after resolution.
        if setting.choices and getattr(args, name) is None and args.config is None:
            parser.error(f"--{name} is required (flag or config file)")
    # Looked up on every call, so the parser, built once, holds no handler.
    handler = {"convert": _cmd_convert, "synth": _cmd_synth, "train": _cmd_train,
               "extract": _cmd_extract, "score": _cmd_score}[args.command]
    try:
        return handler(args)
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SlotieError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
