"""Command-line entry point: preprocess | train | eval | predict | stats | ablate.

Configuration is a flat "key = value" text file; --set key=value flags
override file values, and --seed overrides the seed key. Every command
writes its resolved configuration next to its outputs so any reported
number is reproducible from the artifacts alone.

Exit codes: 0 success, 2 missing/unreadable file, 3 corpus parse error or a
corpus with no labeled record, 4 checkpoint error, 5 configuration error or
a training run that diverged (non-finite loss or parameters), 1 anything else.
"""

import argparse
import functools
import itertools
import sys
from dataclasses import fields
from pathlib import Path

from . import tensor as T
from .corpus import (CleaningConfig, ConllParseError, LABELS, TokenIds, Vocabulary,
                     clean_corpus, corpus_stats, encode_records, format_stats,
                     format_stats_kv, iter_conll_file, serialize_conll)
from .layers import ConfigError, HCMSModel, ModelConfig
from .metrics import format_report, format_report_kv, score
from .train import (CheckpointError, DataError, DivergenceError, OptimizerConfig,
                    TrainConfig, cpus, format_epoch, load_checkpoint, predict,
                    prepare, save_checkpoint, train)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_MISSING_FILE = 2
EXIT_PARSE = 3
EXIT_CHECKPOINT = 4
EXIT_CONFIG = 5


# ModelConfig fields that are not run-config keys: vocab_size comes from the
# corpus, lang_features from the cleaning flag (_model_config)
DERIVED_MODEL_KEYS = ("vocab_size", "lang_features")


def _default_config():
    return {f.name: f.default
            for dc in (CleaningConfig, TrainConfig, OptimizerConfig, ModelConfig)
            for f in fields(dc) if f.name not in DERIVED_MODEL_KEYS}


def _coerce(key, raw, template):
    if key not in template:
        raise ConfigError(f"unknown configuration key: {key}")
    current = template[key]
    raw = raw.strip()
    try:
        if isinstance(current, bool):
            if raw.lower() in ("true", "1", "yes", "on"):
                return True
            if raw.lower() in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        if isinstance(current, int):
            return int(raw)
        if isinstance(current, float):
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    return raw


def load_run_config(config_path=None, overrides=(), seed=None):
    cfg = _default_config()
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            cfg[key] = _coerce(key, value, cfg)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = _coerce(key.strip(), value, cfg)
    if seed is not None:
        cfg["seed"] = seed
    _validate(cfg)
    return cfg


def _validate(cfg):
    """Raise ConfigError unless cfg describes a model and a run that can train."""
    # vocab_size comes from the corpus later; the smallest vocabulary stands in
    _model_config(cfg, len(Vocabulary(()))).validate()
    _, tcfg, ocfg = _split_configs(cfg)
    tcfg.validate()
    ocfg.validate()
    if not cfg["lr"] > 0:  # a run that cannot move its parameters
        raise ConfigError(f"lr must be positive, got {cfg['lr']}")


def _write_config(cfg, out_dir):
    text = "\n".join(f"{k} = {cfg[k]}" for k in sorted(cfg)) + "\n"
    (Path(out_dir) / "config.txt").write_text(text, encoding="utf-8")


def _split_configs(cfg):
    """(CleaningConfig, TrainConfig, OptimizerConfig) from a run config."""
    return tuple(dc(**{f.name: cfg[f.name] for f in fields(dc)})
                 for dc in (CleaningConfig, TrainConfig, OptimizerConfig))


def _model_config(cfg, vocab_size):
    return ModelConfig.from_dict(dict(cfg, vocab_size=vocab_size,
                                      lang_features=cfg["append_lang_onehot"]))


def _records(path, skipped=None, strict=False):
    """iter_conll_file's records of a corpus file, read as they are taken."""
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"corpus file not found: {p}")
    return iter_conll_file(p, [] if skipped is None else skipped, strict)


def _labeled(path, token_ids, lang_features, records=None):
    """encode_records' (id, example) pairs of a corpus file's records (read
    from path as they are taken, unless given) that are labeled and clean to
    a token; DataError, once all are taken, if none is."""
    found = False
    for pair in encode_records(_records(path) if records is None else records, token_ids,
                               lang_features):
        if pair[1][2] is not None:
            found = True
            yield pair
    if not found:
        raise DataError(f"no labeled record in {path}")


# ---------------------------------------------------------------------------
# commands

def _command(body):
    """cmd(args) that loads and validates the run configuration, makes the
    output directory, runs body(args, cfg, out) and then writes config.txt."""
    @functools.wraps(body)
    def cmd(args):
        cfg = load_run_config(args.config, args.set, args.seed)
        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        body(args, cfg, out)
        _write_config(cfg, out)
        return EXIT_OK
    return cmd


@_command
def cmd_preprocess(args, cfg, out):
    cleaning = CleaningConfig.from_dict(cfg)
    skipped = []
    records = list(_records(args.input, skipped, args.strict))
    cleaned = [r for r in clean_corpus(records, cleaning) if r is not None]
    (out / "cleaned.conll").write_text(serialize_conll(cleaned), encoding="utf-8")
    report = [f"parsed_records = {len(records)}",
              f"skipped_blocks = {len(skipped)}",
              f"dropped_empty_after_cleaning = {len(records) - len(cleaned)}"]
    report += [f"skipped_line_{s['line']} = {s['reason']}" for s in skipped]
    (out / "skip_report.txt").write_text("\n".join(report) + "\n", encoding="utf-8")


def _train_once(cfg, train_path, val_path, out_dir=None):
    cleaning, tcfg, ocfg = _split_configs(cfg)
    # the vocabulary counts the labeled records alone
    train_recs = [r for r in _records(train_path) if r.label is not None]
    token_ids = TokenIds.fit(train_recs, cleaning)
    vocab = token_ids.vocab
    mcfg = _model_config(cfg, len(vocab))
    train_data = [ex for _, ex in _labeled(train_path, token_ids, mcfg.lang_features,
                                           train_recs)]
    val_data = [ex for _, ex in _labeled(val_path, TokenIds(cleaning, vocab),
                                         mcfg.lang_features)] if val_path else []
    mcfg.validate()  # the store's size, now that the vocabulary is known
    model = HCMSModel(mcfg, seed=cfg["seed"])
    log = train(model, train_data, val_data, tcfg, ocfg)
    if out_dir:
        (out_dir / "epochs.log").write_text(
            "\n".join(format_epoch(e) for e in log) + "\n", encoding="utf-8")
        save_checkpoint(model, vocab.index_to_token, out_dir / "model.ckpt",
                        extra_config={"cleaning": cleaning.to_dict(),
                                      "labels": list(LABELS)})
    return model, vocab, cleaning, log


@_command
def cmd_train(args, cfg, out):
    _train_once(cfg, args.train, args.val, out_dir=out)


def _load_for_inference(checkpoint):
    model, vocab_tokens, extra = load_checkpoint(checkpoint)  # a missing file exits 2
    vocab = Vocabulary.from_tokens(vocab_tokens)
    cleaning = CleaningConfig.from_dict(extra.get("cleaning", {}))
    return model, vocab, cleaning


# Records a predict window holds: the command keeps one window's lists, Corpus
# and tap table, whatever the input's size. A conv row met in several windows
# has its taps built in each, so a narrower window holds a smaller table but
# builds more rows again: on the predict-default input (1509 distinct rows)
# windows of 512 build 6621, of 1024 4247. 512 peaked about 1 MB below 1024 in
# the benchmark but ran about 3% slower; 2048 peaked above both (CHANGES.md).
PREDICT_WINDOW = 1024


def _windows(model, encoded, batch_size):
    """Yield (record ids, true labels, predicted labels) of encoded (id,
    example) pairs, PREDICT_WINDOW pairs at a time, each window prepared and
    predicted in one thread pool for all."""
    with T.threads(cpus()):
        while window := list(itertools.islice(encoded, PREDICT_WINDOW)):
            names, data = zip(*window)
            corpus = prepare(model, data)
            yield names, corpus.labels, predict(model, corpus, batch_size)
            del window, data, corpus  # freed before the next window is read


def _score_file(inference, path, cfg):
    """metrics.score of (model, vocab, cleaning)'s labels for a corpus file's
    labeled records that clean to a token (_labeled), a window at a time."""
    model, vocab, cleaning = inference
    true, pred = bytearray(), bytearray()  # a byte a label
    labeled = _labeled(path, TokenIds(cleaning, vocab), model.config.lang_features)
    for _, t, p in _windows(model, labeled, cfg["batch_size"]):
        true.extend(t)
        pred.extend(p)
    return score(true, pred, model.config.n_classes)


@_command
def cmd_eval(args, cfg, out):
    report = _score_file(_load_for_inference(args.checkpoint), args.input, cfg)
    (out / "report.txt").write_text(format_report(report) + "\n", encoding="utf-8")
    (out / "report.kv").write_text(format_report_kv(report) + "\n", encoding="utf-8")


@_command
def cmd_predict(args, cfg, out):
    """Label each record of --input, in order, into predictions.tsv. The file
    is parsed, cleaned and encoded (one memo for the whole file), prepared and
    predicted a window at a time (_windows), each window's lines written to a
    temporary file that becomes predictions.tsv at the end; a run that fails
    leaves neither. A record that cleans to nothing keeps its line, labelled
    from [UNK]."""
    model, vocab, cleaning = _load_for_inference(args.checkpoint)
    encoded = encode_records(_records(args.input), TokenIds(cleaning, vocab),
                             model.config.lang_features)
    part = out / "predictions.tsv.part"
    try:
        with open(part, "w", encoding="utf-8") as fh:
            for names, _, preds in _windows(model, encoded, cfg["batch_size"]):
                fh.write("".join(f"{name}\t{LABELS[p]}\n" for name, p in zip(names, preds)))
        part.replace(out / "predictions.tsv")
    finally:
        part.unlink(missing_ok=True)  # left only by a run that failed


@_command
def cmd_stats(args, cfg, out):
    stats = corpus_stats(list(_records(args.input)))
    (out / "stats.txt").write_text(format_stats(stats) + "\n", encoding="utf-8")
    (out / "stats.kv").write_text(format_stats_kv(stats) + "\n", encoding="utf-8")


def train_and_test_f1(cfg, train_path, val_path, test_path):
    """Train one configuration and return its test weighted F1."""
    inference = _train_once(cfg, train_path, val_path)[:3]
    return _score_file(inference, test_path, cfg).weighted_f1


def run_ablation(cfg, train_path, val_path, test_path):
    """Preprocessing grid (emoji x contractions) plus attention on/off.

    Returns a list of (row_name, test_f1) in a fixed order.
    """
    rows = []

    def test_f1(variant_cfg):
        return train_and_test_f1(variant_cfg, train_path, val_path, test_path)

    for emoji in (True, False):
        for contr in (True, False):
            variant = dict(cfg, replace_emoji=emoji, expand_contractions=contr)
            name = (f"preprocess_emoji_{'on' if emoji else 'off'}"
                    f"_contractions_{'on' if contr else 'off'}")
            rows.append((name, test_f1(variant)))
    for attn in (True, False):
        variant = dict(cfg, attention_enabled=attn)
        rows.append((f"attention_{'on' if attn else 'off'}", test_f1(variant)))
    return rows


@_command
def cmd_ablate(args, cfg, out):
    rows = run_ablation(cfg, args.train, args.val, args.test)
    text = "\n".join(f"{name}\t{f1:.6f}" for name, f1 in rows) + "\n"
    (out / "ablation.tsv").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="hcms",
        description="Conv1D + additive self-attention sentiment classifier "
                    "for code-mixed tweets")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value configuration file")
        p.add_argument("--seed", type=int, help="override the seed key")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a single configuration key")
        p.add_argument("--out-dir", required=True)

    p = sub.add_parser("preprocess", help="clean a CONLL corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--strict", action="store_true",
                   help="abort on the first malformed block")
    common(p)
    p.set_defaults(fn=cmd_preprocess)

    p = sub.add_parser("train", help="train a model")
    p.add_argument("--train", required=True)
    p.add_argument("--val")
    common(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on labeled data")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="label an unlabeled corpus")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("stats", help="corpus distribution report")
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("ablate", help="preprocessing and attention ablation grid")
    p.add_argument("--train", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--test", required=True)
    common(p)
    p.set_defaults(fn=cmd_ablate)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except (ConllParseError, DataError) as exc:
        print(f"corpus error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"training diverged: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OTHER


if __name__ == "__main__":
    sys.exit(main())
