import gc
import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import hcms
import hcms.tensor
import hcms.train
from hcms import cli as cli_module

from hcms.cli import _model_config, load_run_config, main
from hcms.corpus import (LABELS, UNK, CleaningConfig, Vocabulary, clean, clean_corpus,
                         parse_conll, serialize_conll)
from hcms.layers import HCMSModel, ModelConfig
from hcms.metrics import format_report_kv, score
from extra_ops import build_vocab, encode, encode_corpus, predict
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


def test_preprocess(tmp_path):
    # the last record has only a mention, which cleans to nothing
    records = load_mini_corpus()[:40]
    empty = type(records[0])(id="empty", tokens=["@user"], lang_tags=["ENG"],
                             label="neutral")
    path = tmp_path / "train.conll"
    path.write_text(serialize_conll([*records, empty]), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["preprocess", "--input", str(path), "--out-dir", str(out)]) == 0
    assert (out / "config.txt").exists()
    report = (out / "skip_report.txt").read_text(encoding="utf-8").splitlines()
    assert "parsed_records = 41" in report
    assert "dropped_empty_after_cleaning = 1" in report
    cleaned, skipped = parse_conll((out / "cleaned.conll").read_text(encoding="utf-8"))
    assert not skipped and [r.id for r in cleaned] == [r.id for r in records]


def test_each_distinct_token_cleaned_once_per_file(corpus_files, trained, tmp_path,
                                                   monkeypatch):
    calls, clean_token = [], hcms.corpus._clean_token
    monkeypatch.setattr(hcms.corpus, "_clean_token",
                        lambda tok, cfg: calls.append(tok) or clean_token(tok, cfg))
    files = {name: corpus_files / f"{name}.conll"
             for name in ("train", "val", "test", "unlabeled")}
    ckpt = trained / "model.ckpt"
    runs = [(["preprocess", "--input", files["train"]], ["train"]),
            (["eval", "--checkpoint", ckpt, "--input", files["test"]], ["test"]),
            (["predict", "--checkpoint", ckpt, "--input", files["unlabeled"]], ["unlabeled"]),
            (["train", "--train", files["train"], "--val", files["val"], *FAST],
             ["train", "val"])]
    for i, (argv, read) in enumerate(runs):
        tokens = [[t for r in parse_conll(files[name].read_text(encoding="utf-8"))[0]
                   for t in r.tokens] for name in read]
        assert all(len(set(toks)) < len(toks) for toks in tokens)  # tokens repeat
        calls.clear()
        assert main([*map(str, argv), "--out-dir", str(tmp_path / str(i))]) == 0
        assert sorted(calls) == sorted(t for toks in tokens for t in set(toks))


@pytest.mark.parametrize("lang_features", [False, True])
def test_train_front_end_matches_reference(corpus_files, tmp_path, monkeypatch,
                                           lang_features):
    # _train_once's vocabulary and examples against the unmemoized path:
    # clean_corpus of the labeled records, build_vocab, encode_corpus. An
    # unlabeled record's tokens, found nowhere else, are not in the
    # vocabulary, and a labeled record that cleans to nothing is dropped
    records = parse_conll((corpus_files / "train.conll").read_text(encoding="utf-8"))[0]
    records.insert(5, type(records[0])(id="u", tokens=["zzqunique", "Yyq"],
                                       lang_tags=["ENG", "HIN"]))
    records.insert(9, type(records[0])(id="e", tokens=["@user", "http://t.co/x"],
                                       lang_tags=["O", "O"], label="neutral"))
    path = tmp_path / "train.conll"
    path.write_text(serialize_conll(records), encoding="utf-8")
    val = corpus_files / "val.conll"
    seen = []
    monkeypatch.setattr(cli_module, "train", lambda model, *data: seen.append(data) or [])
    cfg = load_run_config(None, [*FAST[1::2], f"append_lang_onehot={lang_features}"])
    _, vocab, cleaning, _ = cli_module._train_once(cfg, path, val)
    ((train_data, val_data, *_),) = seen
    cleaned = [r for r in clean_corpus([r for r in records if r.label is not None], cleaning)
               if r is not None]
    ref = build_vocab(cleaned)
    assert vocab.index_to_token == ref.index_to_token
    assert "zzqunique" not in vocab.token_to_index and len(train_data) == len(records) - 2
    assert train_data == encode_corpus(cleaned, ref, lang_features)
    val_cleaned = [r for r in clean_corpus(parse_conll(val.read_text(encoding="utf-8"))[0],
                                           cleaning) if r is not None]
    assert val_data == encode_corpus(val_cleaned, ref, lang_features)
    assert all((tags is not None) == lang_features for _, tags, _ in train_data + val_data)


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


def test_predict_independent_of_cpu_count(corpus_files, trained, tmp_path):
    # a child that pins itself to one CPU (the affinity mask, as taskset sets
    # it) writes the bytes of an unpinned one, which splits its batch of 10
    # records across every CPU (the work gate lowered so a tiny model splits)
    env = {**os.environ, "PYTHONPATH": str(Path(hcms.__file__).parents[1])}
    cpu = min(os.sched_getaffinity(0))
    child = ("import os, runpy, hcms.tensor; hcms.tensor._MIN_WORK = 0; {}"
             "runpy.run_module('hcms.cli', run_name='__main__', alter_sys=True)")
    pin, outs = f"os.sched_setaffinity(0, {{{cpu}}}); ", []
    for name, launch in (("all", ["-c", child.format("")]), ("one", ["-c", child.format(pin)])):
        out = tmp_path / name
        subprocess.run([sys.executable, *launch, "predict",
                        "--checkpoint", str(trained / "model.ckpt"),
                        "--input", str(corpus_files / "unlabeled.conll"),
                        "--out-dir", str(out)], env=env, check=True)
        outs.append((out / "predictions.tsv").read_bytes())
    assert outs[0] == outs[1] and outs[0].count(b"\n") == 10


def _with_empty(records, at):
    """records renamed r0, r1, ..., the ones at positions at cleaning to nothing."""
    records = [type(r)(id=f"r{i}", tokens=r.tokens, lang_tags=r.lang_tags)
               for i, r in enumerate(records)]
    for i in at:
        records[i] = type(records[i])(id=f"r{i}", tokens=["@user", "http://t.co/x", "#"],
                                      lang_tags=["O", "O", "O"])
    return records


def test_predict_chunks_keep_input_order(corpus_files, trained, tmp_path):
    # 11 records in chunks of 4; record 5, mid-chunk, cleans to nothing
    records = parse_conll((corpus_files / "unlabeled.conll").read_text(encoding="utf-8"))[0]
    records = _with_empty(records + records[:1], (5,))
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
        expected.append(f"{r.id}\t{LABELS[predict(model, ids, lang)]}")
    lines = (tmp_path / "out" / "predictions.tsv").read_text(encoding="utf-8").splitlines()
    assert lines == expected


def test_predict_windows_match_one_window(corpus_files, trained, tmp_path, monkeypatch):
    # 11 records in windows of 3 and batches of 4, so windows and batches do
    # not align; records 5 and 6, each side of a window edge, clean to nothing
    records = parse_conll((corpus_files / "unlabeled.conll").read_text(encoding="utf-8"))[0]
    records = _with_empty(records + records[:1], (5, 6))
    path = tmp_path / "in.conll"
    path.write_text(serialize_conll(records), encoding="utf-8")
    ckpt = trained / "model.ckpt"
    whole = predict_lines(ckpt, path, tmp_path / "whole")  # one window
    assert whole == [f"{r.id}\t{LABELS[p]}"
                     for r, p in zip(records, oracle_labels(ckpt, records))]
    monkeypatch.setattr(cli_module, "PREDICT_WINDOW", 3)
    probs, labels = [], HCMSModel._labels
    monkeypatch.setattr(HCMSModel, "_labels",
                        lambda m, p: probs.append(p.tobytes()) or labels(m, p))
    monkeypatch.setattr(hcms.tensor, "_MIN_WORK", 0)  # a tiny model's ops split too
    digests = []
    for workers in (1, 2, 3):
        # the command's pool and each window's predict take the same count
        monkeypatch.setattr(cli_module, "cpus", lambda: workers)
        monkeypatch.setattr(hcms.train, "cpus", lambda: workers)
        probs.clear()
        assert predict_lines(ckpt, path, tmp_path / str(workers)) == whole
        assert len(probs) == 4  # one batch a window
        digests.append(hashlib.sha256(b"".join(probs)).hexdigest())
    assert digests == digests[:1] * 3


def command_peak(argv):
    """tracemalloc's peak over one CLI command, which must exit 0. Its
    arguments are parsed before the trace starts: an ArgumentParser holds
    reference cycles, so the one main builds stays allocated until a
    collection at no fixed point of the command: it put about 26 KB into
    the 4N peak of one run of the predict test below and not into its N
    peak."""
    args = cli_module.build_parser().parse_args(list(map(str, argv)))
    gc.collect()
    tracemalloc.start()
    try:
        assert args.fn(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def window_peaks(command, checkpoint, tmp_path, monkeypatch):
    """command_peak of command over N and 4N labeled records, windows of 64
    records and predict stubbed out: the command's parse, clean, encode and
    prepare. predict's records are renamed and unlabeled (_with_empty)."""
    monkeypatch.setattr(cli_module, "PREDICT_WINDOW", 64)
    monkeypatch.setattr(cli_module, "predict", lambda model, corpus, batch_size:
                        [0] * len(corpus.lengths))
    records, argvs = load_mini_corpus(), []
    for n in (512, 2048):
        kept = (records * n)[:n]
        path = tmp_path / f"{command}{n}.conll"
        path.write_text(serialize_conll(_with_empty(kept, ()) if command == "predict"
                                        else kept), encoding="utf-8")
        argvs.append([command, "--checkpoint", checkpoint, "--input", path,
                      "--out-dir", tmp_path / f"{command}{n}"])
    return [command_peak(argv) for argv in argvs]


def test_predict_front_end_is_bounded_by_a_window(trained, tmp_path, monkeypatch):
    # the 4N peak is within 10% of the N peak: each window is freed before
    # the next is read (at one window a file, the 4N peak is about 4 times
    # the N peak)
    peaks = window_peaks("predict", trained / "model.ckpt", tmp_path, monkeypatch)
    assert peaks[1] < 1.1 * peaks[0]


def test_eval_front_end_is_bounded_by_a_window(trained, tmp_path, monkeypatch):
    # as predict's, with the true and predicted labels kept a byte each
    peaks = window_peaks("eval", trained / "model.ckpt", tmp_path, monkeypatch)
    assert peaks[1] < 1.1 * peaks[0]


def test_eval_windows_match_one_window(corpus_files, trained, tmp_path, monkeypatch):
    # 14 records, 12 of them scored, in windows of 3 and batches of 4: an
    # unlabeled record and a labeled one that cleans to nothing are not
    # scored, and the report is the oracle's, byte for byte, in one window
    # and in four
    records = parse_conll((corpus_files / "test.conll").read_text(encoding="utf-8"))[0]
    empty = type(records[0])(id="empty", tokens=["@user", "#"], lang_tags=["O", "O"],
                             label="neutral")
    records = [*records[:4], empty, *_unlabeled(records[4:5]), *records[4:], *records[:2]]
    path = tmp_path / "in.conll"
    path.write_text(serialize_conll(records), encoding="utf-8")
    ckpt = trained / "model.ckpt"
    labeled = [r for r in records if r.label is not None and r is not empty]
    want = format_report_kv(score([LABELS.index(r.label) for r in labeled],
                                  oracle_labels(ckpt, labeled), 3)) + "\n"
    windows, predict_window = [], cli_module.predict
    monkeypatch.setattr(cli_module, "predict", lambda *a: windows.append(1) or predict_window(*a))
    for window in (cli_module.PREDICT_WINDOW, 3):
        monkeypatch.setattr(cli_module, "PREDICT_WINDOW", window)
        windows.clear()
        out = tmp_path / str(window)
        assert main(["eval", "--checkpoint", str(ckpt), "--input", str(path),
                     "--out-dir", str(out), "--set", "batch_size=4"]) == 0
        assert (out / "report.kv").read_text(encoding="utf-8") == want
        assert len(windows) == -(-len(labeled) // window)


def oracle_labels(checkpoint, records):
    """extra_ops.predict's class for each record, cleaned by the checkpoint's flags
    and encoded with the language tags its model's lang_features asks for."""
    model, tokens, extra = load_checkpoint(checkpoint)
    vocab, cfg = Vocabulary.from_tokens(tokens), CleaningConfig.from_dict(extra.get("cleaning", {}))
    labels = []
    for r in records:
        cleaned = clean(r, cfg)
        ids, lang = encode(cleaned, vocab, model.config.lang_features) if cleaned else ([UNK], None)
        labels.append(int(predict(model, ids, lang)))
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
    # encode language tags because the model's config has lang_features
    cleaning = CleaningConfig()
    vocab = build_vocab([r for r in clean_corpus(load_mini_corpus()[:40], cleaning)
                         if r is not None])
    model = HCMSModel(ModelConfig(vocab_size=len(vocab), embed_dim=12, filters=6, kernel=3,
                                  attn_hidden=6, max_len=16, lang_features=True), seed=0)
    ckpt = tmp_path / "lib.ckpt"
    save_checkpoint(model, vocab.index_to_token, ckpt)
    unlabeled = corpus_files / "unlabeled.conll"
    records = parse_conll(unlabeled.read_text(encoding="utf-8"))[0]
    preds = oracle_labels(ckpt, records)
    # the rows decide some labels, so all-zero rows would not pass
    assert preds != [int(predict(model, encode(clean(r, cleaning), vocab, False)[0]))
                     for r in records]
    assert predict_lines(ckpt, unlabeled, tmp_path / "predict") == [
        f"{r.id}\t{LABELS[p]}" for r, p in zip(records, preds)]
    labeled = [r for r in clean_corpus(parse_conll((corpus_files / "test.conll").read_text(
        encoding="utf-8"))[0], cleaning) if r is not None]
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
    # the head's classes are in LABELS order; other names would be misread
    "labels_swapped": lambda h: h["extra"].update(labels=["negative", "positive", "neutral"]),
    "labels_not_a_list": lambda h: h["extra"].update(labels="garbage"),
}


def run_with_header(corpus_files, checkpoint, tmp_path, edit, command="predict"):
    """Exit code of predict (or eval) on a copy of checkpoint whose header
    edit(header) changed. The header is rewritten with its new length; the
    data stay."""
    raw = checkpoint.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + hlen])
    edit(header)
    text = json.dumps(header).encode("utf-8")
    tmp_path.mkdir(exist_ok=True)
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:8] + struct.pack("<Q", len(text)) + text + raw[16 + hlen:])
    inputs = {"predict": "unlabeled.conll", "eval": "test.conll"}
    return main([command, "--checkpoint", str(bad),
                 "--input", str(corpus_files / inputs[command]),
                 "--out-dir", str(tmp_path / "out")])


@pytest.mark.parametrize("corrupt", CORRUPT_HEADERS.values(), ids=CORRUPT_HEADERS)
def test_corrupt_header_exit_code(corpus_files, trained, tmp_path, corrupt):
    assert run_with_header(corpus_files, trained / "model.ckpt", tmp_path, corrupt) == 4


@pytest.mark.parametrize("edit", ["labels_swapped", "labels_not_a_list"])
def test_label_order_mismatch_fails_eval(corpus_files, trained, tmp_path, edit):
    assert run_with_header(corpus_files, trained / "model.ckpt", tmp_path,
                           CORRUPT_HEADERS[edit], "eval") == 4


def test_include_self_false_exit_code(corpus_files, trained_global_self, tmp_path):
    # include_self=false keeps the manifest but leaves attention one position;
    # as a run config, the same settings exit 5
    ckpt = trained_global_self / "model.ckpt"
    assert run_with_header(corpus_files, ckpt, tmp_path / "same", lambda h: None) == 0
    assert run_with_header(corpus_files, ckpt, tmp_path / "edit",
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


@pytest.mark.parametrize("setting", ["embed_dim=2000000000", "max_len=100000000000"])
def test_oversized_model_exit_code(corpus_files, tmp_path, capsys, setting):
    # the store, its gradient and Adam's moments would need about 100 TB and
    # 1 PB, more than any machine's memory: a ConfigError before any of them
    # is allocated, not numpy's MemoryError
    out = tmp_path / "out"
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--out-dir", str(out), *FAST, "--set", setting])
    assert code == 5
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


def test_store_checked_again_once_the_vocab_is_known(corpus_files, tmp_path, monkeypatch):
    # physical memory that holds the config-time model (the smallest vocab)
    # but not the one the corpus's vocabulary gives: exit 5, no output
    cfg = load_run_config(None, FAST[1::2])
    shapes = _model_config(cfg, 2).param_shapes()
    # value and two Adam moments per scalar, and a gradient per scalar after
    # the embedding table
    need = 8 * (4 * sum(map(math.prod, shapes.values()))
                - math.prod(shapes["embedding.table"]))
    sysconf = os.sysconf
    monkeypatch.setattr(os, "sysconf", lambda name: {"SC_PAGE_SIZE": 1,
                                                     "SC_PHYS_PAGES": need}.get(name)
                        or sysconf(name))
    out = tmp_path / "out"
    code = main(["train", "--train", str(corpus_files / "train.conll"),
                 "--out-dir", str(out), *FAST])
    assert code == 5
    assert list(out.iterdir()) == []


def test_non_utf8_corpus_exit_code(corpus_files, trained, tmp_path, capsys, monkeypatch):
    # byte 0xff at the start of a token line: a corpus error that names its
    # offset, with no output file, on every command that parses the corpus
    raw = (corpus_files / "unlabeled.conll").read_bytes()
    at = raw.index(b"\n", raw.index(b"meta", 1)) + 1
    bad = tmp_path / "bad.conll"
    bad.write_bytes(raw[:at] + b"\xff" + raw[at:])
    ckpt = str(trained / "model.ckpt")
    commands = {"train": ["--train", str(bad), *FAST],
                "predict": ["--checkpoint", ckpt, "--input", str(bad)],
                "preprocess": ["--input", str(bad)]}
    for command, args in commands.items():
        out = tmp_path / command
        assert main([command, *args, "--out-dir", str(out)]) == 3
        assert f"not UTF-8 at byte {at}" in capsys.readouterr().err
        assert list(out.iterdir()) == []
    # past predict's first windows of 3 records and the text reader's first
    # chunks, so some windows' lines are written before the error: the run
    # still leaves no output, not even its partial file
    raw = serialize_conll(_with_empty(parse_conll(raw.decode("utf-8"))[0] * 20, ())).encode()
    late = raw.index(b"\n", raw.index(b"meta\tr150\n")) + 1
    bad.write_bytes(raw[:late] + b"\xff" + raw[late:])
    monkeypatch.setattr(cli_module, "PREDICT_WINDOW", 3)
    windows, predict_window = [], cli_module.predict
    monkeypatch.setattr(cli_module, "predict", lambda *a: windows.append(1) or predict_window(*a))
    out = tmp_path / "late"
    assert main(["predict", "--checkpoint", ckpt, "--input", str(bad), "--out-dir", str(out)]) == 3
    assert f"not UTF-8 at byte {late}" in capsys.readouterr().err
    assert windows and list(out.iterdir()) == []
    # a missing input exits 2 before anything is written
    out = tmp_path / "missing"
    assert main(["predict", "--checkpoint", ckpt, "--input", str(tmp_path / "nope.conll"),
                 "--out-dir", str(out)]) == 2
    assert list(out.iterdir()) == []


def test_non_finite_checkpoint_exit_code(corpus_files, trained, tmp_path):
    # a NaN as the last value of the data section: the model would label every
    # tweet alike, so the load fails and neither command writes its output
    raw = (trained / "model.ckpt").read_bytes()
    bad = tmp_path / "nan.ckpt"
    bad.write_bytes(raw[:-8] + struct.pack("<d", math.nan))
    inputs = {"predict": "unlabeled.conll", "eval": "test.conll"}
    for command, name in inputs.items():
        out = tmp_path / command
        assert main([command, "--checkpoint", str(bad), "--input",
                     str(corpus_files / name), "--out-dir", str(out)]) == 4
        assert list(out.iterdir()) == []


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
