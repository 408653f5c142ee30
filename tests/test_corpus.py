import numpy as np
import pytest

from hcms.corpus import (LANG_TAGS, UNK, CleaningConfig, ConllParseError, RecordError,
                         TweetRecord, Vocabulary, build_vocab, clean, clean_corpus,
                         corpus_stats, encode, encode_corpus, encode_records,
                         parse_conll, read_conll_file, serialize_conll)
from synthetic import load_mini_corpus


def rec(tokens, tags=None, label="positive", id="1"):
    return TweetRecord(id=id, tokens=list(tokens),
                       lang_tags=list(tags) if tags else ["ENG"] * len(tokens),
                       label=label)


# ---------------------------------------------------------------------------
# parsing

SAMPLE = "meta\t1\tpositive\nhello\tEng\nyaar\tHin\n\n"


def test_parse_basic_block():
    records, skipped = parse_conll(SAMPLE)
    assert not skipped
    (r,) = records
    assert (r.id, r.tokens, r.lang_tags, r.label) == \
        ("1", ["hello", "yaar"], ["ENG", "HIN"], "positive")


def test_parse_empty_stream():
    records, skipped = parse_conll("")
    assert records == [] and skipped == []


def test_parse_unlabeled_block():
    records, _ = parse_conll("meta\t9\nfoo\tO\n\n")
    assert records[0].label is None


def test_parse_missing_meta_lenient():
    text = "hello\tEng\n\n" + SAMPLE
    records, skipped = parse_conll(text)
    assert len(records) == 1
    assert len(skipped) == 1
    assert skipped[0]["line"] == 1


def test_parse_strict_raises_with_line_number():
    with pytest.raises(ConllParseError, match="line 1"):
        parse_conll("hello\tEng\n\n", strict=True)


def test_parse_lenient_swapped_meta_fields():
    records, _ = parse_conll("meta\tnegative\t7\nfoo\tO\n\n")
    assert records[0].id == "7" and records[0].label == "negative"


def test_parse_tag_case_normalization():
    records, _ = parse_conll("meta\t1\tneutral\na\thin\nb\tENG\nc\tEmt\n\n")
    assert records[0].lang_tags == ["HIN", "ENG", "EMT"]


def test_parse_serialize_roundtrip():
    records = load_mini_corpus()
    text = serialize_conll(records)
    records2, skipped = parse_conll(text, strict=True)
    assert not skipped
    assert records2 == records


def test_parse_file_matches_text(tmp_path):
    # CRLF endings, runs of blank lines, two lenient skips, no final newline
    lines = ["meta\t1\tpositive", "hello\tEng", "", "", "",
             "bad line", "",
             "meta\t2", "yaar\tHin", "", "",
             "meta\t3\tnope", "x\tO", "",
             "meta\t4\tneutral", "ok\tO"]
    text = "\r\n".join(lines)
    path = tmp_path / "crlf.conll"
    path.write_bytes(text.encode("utf-8"))
    records, skipped = parse_conll(text)
    assert [r.id for r in records] == ["1", "2", "4"]
    assert [s["line"] for s in skipped] == [6, 12]
    assert read_conll_file(path) == (records, skipped)


def test_parse_stores_each_string_once(tmp_path):
    text = ("meta\t1\tpositive\nyaar\tHin\nlove\tEng\nyaar\tHIN\n\n"
            "meta\t2\tnegative\nlove\t eng\nyaar\thin\n:)\tEMT\nhttp://x\tO\n\n")
    path = tmp_path / "c.conll"
    path.write_text(text, encoding="utf-8")
    for records, _ in (parse_conll(text), read_conll_file(path)):
        tokens = [t for r in records for t in r.tokens]
        for token in set(tokens):
            assert len({id(t) for t in tokens if t == token}) == 1
        tags = [t for r in records for t in r.lang_tags]
        assert tags == ["HIN", "ENG", "HIN", "ENG", "HIN", "EMT", "O"]
        assert {id(t) for t in tags} <= {id(t) for t in LANG_TAGS}


# ---------------------------------------------------------------------------
# cleaning

def test_contraction_expansion():
    out = clean(rec(["can't"]), CleaningConfig())
    assert out.tokens == ["cannot"]
    out = clean(rec(["won't"]), CleaningConfig())
    assert out.tokens == ["will", "not"]
    assert out.lang_tags == ["ENG", "ENG"]


def test_repeat_collapse():
    out = clean(rec(["sooooo"]), CleaningConfig())
    assert out.tokens == ["soo"]
    out = clean(rec(["bahutttt"]), CleaningConfig())
    assert out.tokens == ["bahutt"]


def test_strips():
    out = clean(rec(["@user", "http://x.co", "#tag", "hello"]), CleaningConfig())
    assert out.tokens == ["tag", "hello"]
    cfg = CleaningConfig(hashtag_keep_word=False)
    out = clean(rec(["@user", "http://x.co", "#tag", "hello"]), cfg)
    assert out.tokens == ["hello"]


def test_emoji_replacement():
    out = clean(rec(["😂"], tags=["EMT"]), CleaningConfig())
    assert out.tokens == ["face", "with", "tears", "of", "joy"]
    assert out.lang_tags == ["EMT"] * 5
    # disabled: the emoji passes through untouched
    out = clean(rec(["😂"], tags=["EMT"]), CleaningConfig(replace_emoji=False))
    assert out.tokens == ["😂"]


def test_lowercase_toggle():
    out = clean(rec(["HeLLo"]), CleaningConfig(lowercase=False))
    assert out.tokens == ["HeLLo"]
    out = clean(rec(["HeLLo"]), CleaningConfig())
    assert out.tokens == ["hello"]


def test_record_dropped_when_empty():
    assert clean(rec(["@user"]), CleaningConfig()) is None
    cleaned = list(clean_corpus([rec(["@user"]), rec(["ok"])], CleaningConfig()))
    assert cleaned[0] is None and cleaned[1].tokens == ["ok"]


@pytest.mark.parametrize("emoji", [True, False])
@pytest.mark.parametrize("contractions", [True, False])
def test_memoized_clean_corpus_matches_per_token(emoji, contractions):
    # the flags `hcms ablate` toggles; clean() without a memo cleans every
    # token afresh
    cfg = CleaningConfig(replace_emoji=emoji, expand_contractions=contractions)
    records = load_mini_corpus()
    assert list(clean_corpus(records, cfg)) == [clean(r, cfg) for r in records]


def _random_records(n, seed):
    rng = np.random.default_rng(seed)
    alphabet = list("abcdef#@:)('") + ["😂", "❤️", "'"]
    records = []
    for i in range(n):
        toks = []
        for _ in range(int(rng.integers(1, 8))):
            length = int(rng.integers(1, 9))
            toks.append("".join(alphabet[j] for j in rng.integers(0, len(alphabet), length)))
        extras = ["can't", "won't", "sooooo", "#tagggg", "@useeer", ":)))", "xddd", ":(((",
                  "http://a.bc", "www.x.yz", "😂", ":))", "xdd"]
        toks.append(extras[int(rng.integers(len(extras)))])
        tags = [["HIN", "ENG", "O", "EMT"][int(rng.integers(4))] for _ in toks]
        records.append(TweetRecord(id=str(i), tokens=toks, lang_tags=tags,
                                   label="neutral"))
    return records


@pytest.mark.parametrize("flags", [
    CleaningConfig(),
    CleaningConfig(lowercase=False),
    CleaningConfig(replace_emoji=False),
    CleaningConfig(expand_contractions=False),
    CleaningConfig(collapse_repeats=False),
    CleaningConfig(hashtag_keep_word=False),
    CleaningConfig(strip_hashtags=False, strip_usernames=False, strip_links=False),
])
def test_cleaning_idempotent_fuzz(flags):
    for record in _random_records(1500, seed=hash(tuple(vars(flags).values())) % 2**32):
        once = clean(record, flags)
        if once is None:
            continue
        twice = clean(once, flags)
        assert twice == once, f"not idempotent on {record.tokens}"


# ---------------------------------------------------------------------------
# vocabulary / encoding

def test_vocab_empty_corpus():
    v = build_vocab([])
    assert len(v) == 2
    assert v.index_to_token == ["<pad>", "<unk>"]


def test_vocab_frequency_order():
    v = build_vocab([rec(["a", "a", "b"])], min_count=1)
    assert v.lookup("a") == 2 and v.lookup("b") == 3


def test_vocab_min_count():
    v = build_vocab([rec(["a", "b"])], min_count=2)
    assert v.lookup("a") == 1 and v.lookup("b") == 1  # both UNK


def test_vocab_tie_break_lexicographic():
    v = build_vocab([rec(["z", "a"])])
    assert v.lookup("a") == 2 and v.lookup("z") == 3


def test_encode_known_and_unknown():
    # a CleaningConfig passed where the bool goes is truthy and would give rows
    v = build_vocab([rec(["a", "a", "b"])])
    ids, tags = encode(rec(["a", "b"]), v, False)
    assert ids == [2, 3] and tags is None
    ids, _ = encode(rec(["mystery"]), v, False)
    assert ids == [1]


def test_encode_never_pad_never_overflow():
    v = build_vocab([rec(["a", "b", "c"])])
    for tokens in (["a"], ["zzz"], ["a", "q", "c"]):
        ids, _ = encode(rec(tokens), v, False)
        assert all(0 < i < len(v) for i in ids)


def test_encode_lang_onehot():
    v = build_vocab([rec(["a"])])
    ids, tags = encode(rec(["a", "b"], tags=["HIN", "EMT"]), v, True)
    assert tags == [LANG_TAGS.index("HIN"), LANG_TAGS.index("EMT")] == [0, 3]


def test_encode_reads_tags_and_labels_as_parse_does():
    v = build_vocab([rec(["a"])])
    _, tags = encode(rec(["a", "b"], tags=["Hin", " emt "]), v, True)
    assert tags == [0, 3]
    ((_, _, label),) = encode_corpus([rec(["a"], label="Positive")], v, False)
    assert label == 0
    with pytest.raises(RecordError, match="XYZ"):
        encode(rec(["a"], tags=["XYZ"]), v, True)
    with pytest.raises(RecordError, match="XYZ"):
        encode_corpus([rec(["a"], label="XYZ")], v, False)


@pytest.mark.parametrize("lang_features", [False, True])
@pytest.mark.parametrize("flags", [CleaningConfig(), CleaningConfig(replace_emoji=False),
                                   CleaningConfig(expand_contractions=False,
                                                  hashtag_keep_word=False)],
                         ids=["default", "no_emoji", "no_contractions_no_hashtag_word"])
def test_encode_records_matches_clean_then_encode(lang_features, flags):
    # the memo's (ids, lang, label) of each raw record against the unmemoized
    # clean and encode: emoji and contractions (several pieces, each under its
    # token's tag), repeats, hashtags, tokens that strip to nothing, a record
    # that cleans to nothing ([UNK], None, None, under its own id), an
    # unlabeled one, and tokens that recur across records
    hand = [rec(["😂", "can't", "sooooo", "#tagggg", "#", "@user", "won't"],
                tags=["EMT", "ENG", "HIN", "O", "O", "O", "ENG"], id="a"),
            rec(["@user", "http://x.co", "#"], tags=["O"] * 3, id="empty"),
            rec(["won't", "😂", "yaar", "Sooooo"], tags=["ENG", "EMT", "HIN", "ENG"],
                label=None, id="b"),
            rec(["Hello", "#Hello", "can't"], tags=["Eng", "o", "ENG"], label="Negative",
                id="c")]
    records = hand + _random_records(300, seed=7)
    cleaned = [clean(r, flags) for r in records]
    # a vocabulary of part of the cleaned tokens, so that some pieces are UNK
    vocab = build_vocab([r for r in cleaned[::2] if r is not None])
    got = list(encode_records(records, flags, vocab, lang_features))
    want = [(r.id, ex) for r, ex in zip(records, encode_corpus(cleaned, vocab, lang_features))]
    assert got == want
    assert got[1] == ("empty", ([UNK], None, None))
    if lang_features and flags.expand_contractions:  # "won't": will, not
        assert got[0][1][1][-2:] == [LANG_TAGS.index("ENG")] * 2


def test_vocab_roundtrip_through_token_list():
    v = build_vocab([rec(["x", "y", "x"])])
    v2 = Vocabulary.from_tokens(v.index_to_token)
    assert v2.lookup("x") == v.lookup("x")
    assert v2.lookup("nope") == 1


# ---------------------------------------------------------------------------
# stats

def test_stats_single_class():
    stats = corpus_stats([rec(["a", "b"], tags=["HIN", "HIN"])])
    assert stats["sentiment"]["positive"]["percent"] == 100.0
    assert stats["language"]["HIN"]["percent"] == 100.0


def test_stats_empty_corpus():
    stats = corpus_stats([])
    assert stats["n_records"] == 0
    assert all(d["percent"] == 0 for d in stats["sentiment"].values())


def test_stats_hand_tally():
    records = [rec(["a", "b"], tags=["HIN", "ENG"], label="positive"),
               rec(["c"], tags=["O"], label="negative"),
               rec(["d"], tags=["HIN"], label="negative")]
    stats = corpus_stats(records)
    assert stats["sentiment"]["negative"]["count"] == 2
    assert stats["sentiment"]["negative"]["percent"] == pytest.approx(200 / 3)
    assert stats["language"]["HIN"]["percent"] == pytest.approx(50.0)
    sent_total = sum(d["percent"] for d in stats["sentiment"].values())
    lang_total = sum(d["percent"] for d in stats["language"].values())
    assert sent_total == pytest.approx(100, abs=0.01)
    assert lang_total == pytest.approx(100, abs=0.01)
