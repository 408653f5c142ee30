import numpy as np
import pytest

from hcms.corpus import (CleaningConfig, ConllParseError, TweetRecord,
                         Vocabulary, build_vocab, clean, clean_corpus,
                         corpus_stats, encode, parse_conll, serialize_conll)
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
    cleaned, dropped = clean_corpus([rec(["@user"]), rec(["ok"])], CleaningConfig())
    assert dropped == 1 and len(cleaned) == 1


@pytest.mark.parametrize("emoji", [True, False])
@pytest.mark.parametrize("contractions", [True, False])
def test_memoized_clean_corpus_matches_per_token(emoji, contractions):
    # the flags `hcms ablate` toggles; clean() without a memo cleans every
    # token afresh
    cfg = CleaningConfig(replace_emoji=emoji, expand_contractions=contractions)
    records = load_mini_corpus()
    fresh = [clean(r, cfg) for r in records]
    cleaned, dropped = clean_corpus(records, cfg)
    assert cleaned == [r for r in fresh if r is not None]
    assert dropped == fresh.count(None)


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
    v = build_vocab([rec(["a", "a", "b"])])
    ids, onehot = encode(rec(["a", "b"]), v, CleaningConfig())
    assert ids == [2, 3] and onehot is None
    ids, _ = encode(rec(["mystery"]), v, CleaningConfig())
    assert ids == [1]


def test_encode_never_pad_never_overflow():
    v = build_vocab([rec(["a", "b", "c"])])
    for tokens in (["a"], ["zzz"], ["a", "q", "c"]):
        ids, _ = encode(rec(tokens), v, CleaningConfig())
        assert all(0 < i < len(v) for i in ids)


def test_encode_lang_onehot():
    v = build_vocab([rec(["a"])])
    cfg = CleaningConfig(append_lang_onehot=True)
    ids, onehot = encode(rec(["a", "b"], tags=["HIN", "EMT"]), v, cfg)
    assert onehot == [[1, 0, 0, 0], [0, 0, 0, 1]]


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
