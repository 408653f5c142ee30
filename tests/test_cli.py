import json
import math
import struct

import pytest

from hcms.cli import main
from hcms.corpus import (LABELS, UNK, CleaningConfig, Vocabulary, build_vocab, clean,
                         clean_corpus, encode, parse_conll, serialize_conll)
from hcms.layers import HCMSModel, ModelConfig
from hcms.metrics import format_report_kv, score
from synthetic import load_mini_corpus
from hcms.train import load_checkpoint, save_checkpoint

FAST = ["--set", "embed_dim=12", "--set", "filters=6", "--set", "kernel=3",
        "--set", "attn_hidden=6", "--set", "max_len=16", "--set", "epochs=4",
        "--set", "batch_size=8"]


def _unlabeled(records):
    return [type(r)(id=r.id, tokens=r.tokens, lang_tags=r.lang_tags, label=None)
            for r in records]


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    records = load_mini_corpus()
    (root / "train.conll").write_text(serialize_conll(records[:40]), encoding="utf-8")
    (root / "val.conll").write_text(serialize_conll(records[40:50]), encoding="utf-8")
    (root / "test.conll").write_text(serialize_conll(records[50:]), encoding="utf-8")
    (root / "unlabeled.conll").write_text(serialize_conll(_unlabeled(records[50:])),
                                          encoding="utf-8")
    return root


def _train(corpus_files, out, *settings):
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--val", str(corpus_files / "val.conll"),
                 "--out-dir", str(out), "--seed", "1", *FAST, *settings])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def trained(corpus_files, tmp_path_factory):
    return _train(corpus_files, tmp_path_factory.mktemp("train_out"))


@pytest.fixture(scope="module")
def trained_lang(corpus_files, tmp_path_factory):
    # the one CLI-trained model whose tokens carry language rows
    return _train(corpus_files, tmp_path_factory.mktemp("train_lang"),
                  "--set", "append_lang_onehot=true")


@pytest.fixture(scope="module")
def trained_global_self(corpus_files, tmp_path_factory):
    # global pooling leaves one position, which attention may use only with
    # include_self; the head's width does not depend on either flag
    return _train(corpus_files, tmp_path_factory.mktemp("train_global_self"),
                  "--set", "global_pool=true", "--set", "include_self=true")


def test_preprocess(corpus_files, tmp_path):
    code = main(["preprocess", "--input", str(corpus_files / "train.conll"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cleaned.conll").exists()
    assert (tmp_path / "skip_report.txt").exists()
    assert (tmp_path / "config.txt").exists()
    records, skipped = parse_conll((tmp_path / "cleaned.conll").read_text(encoding="utf-8"))
    assert not skipped and records


def test_train_outputs(trained):
    assert (trained / "model.ckpt").exists()
    assert (trained / "epochs.log").exists()
    assert (trained / "config.txt").exists()
    log = (trained / "epochs.log").read_text(encoding="utf-8")
    assert log.count("epoch=") == 4
    assert "val_f1=" in log


def test_train_determinism(corpus_files, trained, tmp_path):
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--val", str(corpus_files / "val.conll"),
                 "--out-dir", str(tmp_path), "--seed", "1", *FAST])
    assert code == 0
    assert (tmp_path / "epochs.log").read_bytes() == (trained / "epochs.log").read_bytes()
    assert (tmp_path / "model.ckpt").read_bytes() == (trained / "model.ckpt").read_bytes()


def test_eval(corpus_files, trained, tmp_path):
    code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                 "--input", str(corpus_files / "test.conll"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    kv = (tmp_path / "report.kv").read_text(encoding="utf-8")
    assert "weighted_f1 = " in kv
    assert (tmp_path / "report.txt").exists()


def test_predict_line_count(corpus_files, trained, tmp_path):
    code = main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                 "--input", str(corpus_files / "unlabeled.conll"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 10
    for line in lines:
        tweet_id, label = line.split("\t")
        assert label in ("positive", "negative", "neutral")


def test_predict_independent_of_batch_size(corpus_files, trained, tmp_path):
    outs = []
    for name, extra in (("default", []), ("one", ["--set", "batch_size=1"])):
        out = tmp_path / name
        code = main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                     "--input", str(corpus_files / "unlabeled.conll"),
                     "--out-dir", str(out), *extra])
        assert code == 0
        outs.append((out / "predictions.tsv").read_bytes())
    assert outs[0] == outs[1]


def test_predict_chunks_keep_input_order(corpus_files, trained, tmp_path):
    # 11 records in chunks of 4; record 5, mid-chunk, cleans to nothing
    records = parse_conll((corpus_files / "unlabeled.conll").read_text(encoding="utf-8"))[0]
    records = [type(r)(id=f"r{i}", tokens=r.tokens, lang_tags=r.lang_tags)
               for i, r in enumerate(records + records[:1])]
    records[5] = type(records[5])(id="r5", tokens=["@user", "http://t.co/x", "#"],
                                  lang_tags=["O", "O", "O"])
    path = tmp_path / "in.conll"
    path.write_text(serialize_conll(records), encoding="utf-8")
    code = main(["predict", "--checkpoint", str(trained / "model.ckpt"),
                 "--input", str(path), "--out-dir", str(tmp_path / "out"),
                 "--set", "batch_size=4"])
    assert code == 0
    model, tokens, extra = load_checkpoint(trained / "model.ckpt")
    vocab, cfg = Vocabulary.from_tokens(tokens), CleaningConfig.from_dict(extra["cleaning"])
    assert clean(records[5], cfg) is None
    expected = []
    for r in records:
        cleaned = clean(r, cfg)
        ids, lang = encode(cleaned, vocab, model.config.lang_features) if cleaned else ([UNK], None)
        expected.append(f"{r.id}\t{LABELS[model.predict(ids, lang)]}")
    lines = (tmp_path / "out" / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    assert lines == expected


def oracle_labels(checkpoint, records):
    """model.predict's class for each record, cleaned by the checkpoint's flags
    and encoded with the language rows its model's lang_features asks for."""
    model, tokens, extra = load_checkpoint(checkpoint)
    vocab, cfg = Vocabulary.from_tokens(tokens), CleaningConfig.from_dict(extra.get("cleaning", {}))
    labels = []
    for r in records:
        cleaned = clean(r, cfg)
        ids, lang = encode(cleaned, vocab, model.config.lang_features) if cleaned else ([UNK], None)
        labels.append(int(model.predict(ids, lang)))
    return labels


def predict_lines(checkpoint, path, out):
    code = main(["predict", "--checkpoint", str(checkpoint), "--input", str(path),
                 "--out-dir", str(out), "--set", "batch_size=4"])
    assert code == 0
    return (out / "predictions.tsv").read_text(encoding="utf-8").splitlines()


def test_predict_lang_rows_match_oracle(corpus_files, trained_lang, tmp_path):
    ckpt, path = trained_lang / "model.ckpt", corpus_files / "unlabeled.conll"
    assert load_checkpoint(ckpt)[0].config.lang_features
    records = parse_conll(path.read_text(encoding="utf-8"))[0]
    assert predict_lines(ckpt, path, tmp_path) == [
        f"{r.id}\t{LABELS[p]}" for r, p in zip(records, oracle_labels(ckpt, records))]


def test_library_checkpoint_lang_rows(corpus_files, tmp_path):
    # saved with no extra, so no cleaning flag is recorded: eval and predict
    # encode language rows because the model's config has lang_features
    cleaning = CleaningConfig()
    vocab = build_vocab(clean_corpus(load_mini_corpus()[:40], cleaning)[0])
    model = HCMSModel(ModelConfig(vocab_size=len(vocab), embed_dim=12, filters=6, kernel=3,
                                  attn_hidden=6, max_len=16, lang_features=True), seed=0)
    ckpt = tmp_path / "lib.ckpt"
    save_checkpoint(model, vocab.index_to_token, ckpt)
    unlabeled = corpus_files / "unlabeled.conll"
    records = parse_conll(unlabeled.read_text(encoding="utf-8"))[0]
    preds = oracle_labels(ckpt, records)
    # the rows decide some labels, so all-zero rows would not pass
    assert preds != [int(model.predict(encode(clean(r, cleaning), vocab, False)[0]))
                     for r in records]
    assert predict_lines(ckpt, unlabeled, tmp_path / "predict") == [
        f"{r.id}\t{LABELS[p]}" for r, p in zip(records, preds)]
    labeled = clean_corpus(parse_conll((corpus_files / "test.conll").read_text(
        encoding="utf-8"))[0], cleaning)[0]
    report = score([LABELS.index(r.label) for r in labeled], oracle_labels(ckpt, labeled), 3)
    code = main(["eval", "--checkpoint", str(ckpt), "--input", str(corpus_files / "test.conll"),
                 "--out-dir", str(tmp_path / "eval")])
    assert code == 0
    assert (tmp_path / "eval" / "report.kv").read_text(encoding="utf-8") == \
        format_report_kv(report) + "\n"


@pytest.mark.parametrize("checkpoint", ["trained", "trained_global_self"])
def test_predict_no_records_writes_empty_file(checkpoint, request, tmp_path):
    (tmp_path / "empty.conll").write_text("", encoding="utf-8")
    code = main(["predict", "--checkpoint",
                 str(request.getfixturevalue(checkpoint) / "model.ckpt"),
                 "--input", str(tmp_path / "empty.conll"), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "predictions.tsv").read_bytes() == b""


def test_stats(corpus_files, tmp_path):
    code = main(["stats", "--input", str(corpus_files / "train.conll"),
                 "--out-dir", str(tmp_path)])
    assert code == 0
    kv = (tmp_path / "stats.kv").read_text(encoding="utf-8")
    assert "sentiment_positive_count = " in kv
    assert "language_HIN_percent = " in kv


def test_ablate_row_cardinality(corpus_files, tmp_path):
    fast = [a.replace("epochs=4", "epochs=2") for a in FAST]
    code = main(["ablate", "--train", str(corpus_files / "train.conll"),
                 "--val", str(corpus_files / "val.conll"),
                 "--test", str(corpus_files / "test.conll"),
                 "--out-dir", str(tmp_path), "--seed", "1", *fast])
    assert code == 0
    lines = (tmp_path / "ablation.tsv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 6
    names = [ln.split("\t")[0] for ln in lines]
    assert sum(n.startswith("preprocess_") for n in names) == 4
    assert names[-2:] == ["attention_on", "attention_off"]


def test_missing_file_exit_code(tmp_path):
    code = main(["stats", "--input", str(tmp_path / "nope.conll"),
                 "--out-dir", str(tmp_path)])
    assert code == 2


def test_bad_checkpoint_exit_code(corpus_files, tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"JUNKJUNKJUNKJUNK")
    code = main(["eval", "--checkpoint", str(bad),
                 "--input", str(corpus_files / "test.conll"),
                 "--out-dir", str(tmp_path)])
    assert code == 4


def swap_conv_entries(header):
    """conv.filters and conv.bias trade places in the manifest, with offsets
    that still follow one another."""
    params = header["params"]
    start = params[1]["offset"]
    params[1], params[2] = params[2], params[1]
    params[1]["offset"] = start
    params[2]["offset"] = start + math.prod(params[1]["shape"])


CORRUPT_HEADERS = {
    "no_vocab": lambda h: h.pop("vocab"),
    "offset_out_of_range": lambda h: h["params"][-1].update(offset=10 ** 9),
    "shared_offset": lambda h: h["params"][0].update(offset=h["params"][-1]["offset"]),
    "vocab_size_string": lambda h: h["config"].update(vocab_size=str(h["config"]["vocab_size"])),
    "negative_kernel": lambda h: h["config"].update(kernel=-1),
    "short_vocab": lambda h: h.update(vocab=h["vocab"][:-1]),
    "extra_list": lambda h: h.update(extra=[]),
    "cleaning_string": lambda h: h["extra"].update(cleaning="x"),
    "swapped_manifest": swap_conv_entries,
    # the flag would read as true: only a JSON bool is a bool
    "attention_string_false": lambda h: h["config"].update(attention_enabled="false"),
    "cleaning_flag_string": lambda h: h["extra"]["cleaning"].update(lowercase="false"),
    # rejected before a model with a terabyte-sized embedding table is built
    "vocab_size_huge": lambda h: h["config"].update(vocab_size=10 ** 12),
}


def predict_with_header(corpus_files, checkpoint, tmp_path, edit):
    """Exit code of predict on a copy of checkpoint whose header edit(header)
    changed. The header is rewritten with its new length; the data stay."""
    raw = checkpoint.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    tmp_path.mkdir(exist_ok=True)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + hlen:])
    return main(["predict", "--checkpoint", str(bad),
                 "--input", str(corpus_files / "unlabeled.conll"),
                 "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("corrupt", CORRUPT_HEADERS.values(), ids=CORRUPT_HEADERS)
def test_corrupt_header_exit_code(corpus_files, trained, tmp_path, corrupt):
    assert predict_with_header(corpus_files, trained / "model.ckpt", tmp_path,
                               corrupt) == 4


def test_include_self_false_exit_code(corpus_files, trained_global_self, tmp_path):
    # include_self=false keeps the manifest but leaves attention one position;
    # as a run config, the same settings exit 5
    ckpt = trained_global_self / "model.ckpt"
    assert predict_with_header(corpus_files, ckpt, tmp_path / "same", lambda h: None) == 0
    assert predict_with_header(corpus_files, ckpt, tmp_path / "edit",
                               lambda h: h["config"].update(include_self=False)) == 4


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow
def test_diverging_run_exit_code(corpus_files, tmp_path):
    # an lr this large overflows the parameters within the first epoch
    out = tmp_path / "out"
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--val", str(corpus_files / "val.conll"),
                 "--out-dir", str(out), *FAST, "--set", "lr=1e300"])
    assert code == 5
    assert not (out / "model.ckpt").exists()
    assert not (out / "epochs.log").exists()


def test_unlabeled_val_record_ignored(corpus_files, trained, tmp_path):
    # an unlabeled record among the labeled ones is dropped, not scored
    records, _ = parse_conll((corpus_files / "val.conll").read_text(encoding="utf-8"))
    records.insert(3, _unlabeled(records[:1])[0])
    val = tmp_path / "val.conll"
    val.write_text(serialize_conll(records), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--val", str(val), "--out-dir", str(out), "--seed", "1", *FAST])
    assert code == 0
    for name in ("epochs.log", "model.ckpt"):
        assert (out / name).read_bytes() == (trained / name).read_bytes()


def test_no_labeled_record_exit_code(corpus_files, trained, tmp_path):
    unlabeled = str(corpus_files / "unlabeled.conll")
    out = tmp_path / "train"
    code = main(["train", "--train", unlabeled, "--out-dir", str(out), *FAST])
    assert code == 3
    assert not (out / "model.ckpt").exists()
    code = main(["eval", "--checkpoint", str(trained / "model.ckpt"),
                 "--input", unlabeled, "--out-dir", str(tmp_path / "eval")])
    assert code == 3


def test_bad_config_key_exit_code(corpus_files, tmp_path):
    code = main(["stats", "--input", str(corpus_files / "train.conll"),
                 "--out-dir", str(tmp_path), "--set", "nonsense=1"])
    assert code == 5


def test_lang_features_key_rejected(corpus_files, tmp_path):
    # append_lang_onehot is the one switch; lang_features is not a key
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--out-dir", str(tmp_path), "--set", "lang_features=true", *FAST])
    assert code == 5


@pytest.mark.parametrize("setting", [
    "kernel=0", "stride=0", "pool=0", "pool_stride=0", "embed_dim=0", "filters=0",
    "attn_hidden=0", "batch_size=0", "epochs=0", "max_len=2", "n_classes=2",
    "global_pool=true", "lr=nan", "lr=-0.01", "lr=inf", "beta1=1", "beta2=-0.1",
    "epsilon=0", "epsilon=nan", "seed=-1"])
def test_invalid_config_exit_code(corpus_files, tmp_path, setting):
    # rejected at config time: no output directory is made
    out = tmp_path / "out"
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--out-dir", str(out), *FAST, "--set", setting])
    assert code == 5
    assert not out.exists()


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.conll"
    bad.write_text("not a block\n\n", encoding="utf-8")
    code = main(["preprocess", "--input", str(bad), "--strict",
                 "--out-dir", str(tmp_path)])
    assert code == 3


def test_config_file_and_override(corpus_files, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epochs = 2\nlr = 0.005\n", encoding="utf-8")
    out = tmp_path / "out"
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--out-dir", str(out), "--config", str(cfg),
                 "--set", "epochs=1", *FAST[:-4]])
    assert code == 0
    text = (out / "config.txt").read_text(encoding="utf-8")
    assert "epochs = 1" in text      # --set beats the file
    assert "lr = 0.005" in text
