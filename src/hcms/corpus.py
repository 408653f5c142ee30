"""CONLL ingestion, tweet cleaning, vocabulary, encoding, corpus stats.

The CONLL dialect: records separated by blank lines; the first line of a
block is "meta<TAB><id>[<TAB><label>]"; every following line is
"<token><TAB><lang_tag>" with lang_tag in {Hin, Eng, O, EMT} (any case).
"""

import io
import json
import re
from collections import Counter
from dataclasses import dataclass, asdict, fields
from itertools import chain
from importlib import resources

LANG_TAGS = ("HIN", "ENG", "O", "EMT")
_LANG_POSITION = {tag: i for i, tag in enumerate(LANG_TAGS)}
LABELS = ("positive", "negative", "neutral")
_LABEL_POSITION = {label: i for i, label in enumerate(LABELS)}
PAD, UNK = 0, 1

_REPEAT_RE = re.compile(r"(.)\1{2,}")


class ConllParseError(ValueError):
    """Malformed block in strict mode, its message carrying the line number,
    or a file that is not UTF-8, its message carrying the byte offset."""


class RecordError(ValueError):
    """A record's language tag or sentiment label names no LANG_TAGS or LABELS
    entry, or an encoded example's tag indices do not fit its tokens."""


def _load_table(name):
    with resources.files("hcms.data").joinpath(name).open("r", encoding="utf-8") as fh:
        return json.load(fh)


EMOJI_MAP = _load_table("emoji_map.json")
CONTRACTIONS = _load_table("contractions.json")


@dataclass
class TweetRecord:
    id: str
    tokens: list
    lang_tags: list
    label: str = None


@dataclass
class CleaningConfig:
    lowercase: bool = True
    expand_contractions: bool = True
    replace_emoji: bool = True
    collapse_repeats: bool = True
    strip_hashtags: bool = True
    strip_usernames: bool = True
    strip_links: bool = True
    hashtag_keep_word: bool = True
    # the run-config key; only cli._model_config reads it, as ModelConfig.lang_features
    append_lang_onehot: bool = False

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})


# ---------------------------------------------------------------------------
# parsing / serialization

def _lang_position(raw):
    """raw's index in LANG_TAGS, read as a tag (surrounding space stripped,
    any case), or None."""
    return _LANG_POSITION.get(raw.strip().upper())


def _label_position(raw):
    """raw's index in LABELS, read as a label (surrounding space stripped,
    any case), or None."""
    return _LABEL_POSITION.get(raw.strip().lower())


def _parse_block(block_lines, start_line, tokens_seen, tag_of):
    """One record from a block's lines. tokens_seen maps each token met in
    this parse to itself and tag_of each raw tag to its LANG_TAGS entry, so
    every record holds one shared object per distinct string."""
    first = block_lines[0].split("\t")
    if len(first) < 2 or len(first) > 3 or first[0].strip().lower() != "meta":
        raise ConllParseError(f"line {start_line}: expected meta line, got {block_lines[0]!r}")
    tweet_id, label = first[1].strip(), None
    if len(first) == 3:
        position = _label_position(first[2])
        if position is None:
            # swapped id/label fields are tolerated
            if (position := _label_position(tweet_id)) is None:
                raise ConllParseError(
                    f"line {start_line}: unknown sentiment label {first[2]!r}")
            tweet_id = first[2].strip().lower()
        label = LABELS[position]
    tokens, tags = [], []
    for off, line in enumerate(block_lines[1:], start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConllParseError(
                f"line {start_line + off}: expected token<TAB>tag, got {line!r}")
        token, raw_tag = parts
        tag = tag_of.get(raw_tag)
        if tag is None:
            if (position := _lang_position(raw_tag)) is None:
                raise ConllParseError(
                    f"line {start_line + off}: unknown language tag {raw_tag!r}")
            tag = tag_of[raw_tag] = LANG_TAGS[position]
        tokens.append(tokens_seen.setdefault(token, token))
        tags.append(tag)
    if not tokens:
        raise ConllParseError(f"line {start_line}: block has no token lines")
    return TweetRecord(id=tweet_id, tokens=tokens, lang_tags=tags, label=label)


def iter_conll(lines, skipped, strict=False):
    """Yield the records of CONLL lines (an iterable of strings, such as an
    open text file), each as its block ends, so a caller holds only the
    records it keeps.

    Each malformed block is appended to skipped, a caller's list, as a
    {"line": int, "reason": str} entry; in strict mode the first one raises
    ConllParseError instead. Each distinct token and tag string is stored
    once per call, and every record holds that one object.
    """
    tokens_seen, tag_of = {}, {}
    block, block_start = [], None
    # a blank line past the end ends the last block
    for lineno, raw in enumerate(chain(lines, ("",)), start=1):
        line = raw.rstrip("\r\n")
        if line.strip():
            if not block:
                block_start = lineno
            block.append(line)
        elif block:
            try:
                record = _parse_block(block, block_start, tokens_seen, tag_of)
            except ConllParseError as exc:
                if strict:
                    raise
                skipped.append({"line": block_start, "reason": str(exc)})
            else:
                yield record
            block = []


def parse_conll(text, strict=False):
    """(records, skipped) of CONLL text (a string, or an open text file read
    line by line): iter_conll's records as one list, and its skipped blocks."""
    skipped = []
    lines = io.StringIO(text) if isinstance(text, str) else text
    return list(iter_conll(lines, skipped, strict)), skipped


def serialize_conll(records):
    out = []
    for rec in records:
        meta = f"meta\t{rec.id}"
        if rec.label is not None:
            meta += f"\t{rec.label}"
        out.append(meta)
        out.extend(f"{tok}\t{tag}" for tok, tag in zip(rec.tokens, rec.lang_tags))
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def iter_conll_file(path, skipped, strict=False):
    """iter_conll of a UTF-8 file, read as the records are taken; a byte that
    is not UTF-8, wherever it lies, raises ConllParseError naming its offset
    when the read reaches it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from iter_conll(fh, skipped, strict)
        except UnicodeDecodeError as exc:
            raise ConllParseError(f"{path}: not UTF-8 at byte {_bad_byte(fh.buffer)}: "
                                  f"{exc.reason}") from exc


def read_conll_file(path, strict=False):
    """(records, skipped) of a UTF-8 file: iter_conll_file's records as one list."""
    skipped = []
    return list(iter_conll_file(path, skipped, strict)), skipped


def _bad_byte(fh):
    """Offset of the first byte of binary file fh that is not UTF-8. Lines are
    decoded one at a time: no UTF-8 sequence holds the byte of a newline."""
    fh.seek(0)
    offset = 0
    for line in fh:
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as exc:
            return offset + exc.start
        offset += len(line)


# ---------------------------------------------------------------------------
# cleaning

def _strip_token(token, cfg):
    """Apply link/username/hashtag strips until the token is stable.

    Iterating to a fixpoint keeps cleaning idempotent for pathological
    tokens like "#@user".
    """
    while True:
        if cfg.strip_links and token.startswith(("http://", "https://", "www.")):
            return None
        if cfg.strip_usernames and token.startswith("@"):
            return None
        if cfg.strip_hashtags and token.startswith("#"):
            if not cfg.hashtag_keep_word:
                return None
            stripped = token.lstrip("#")
            if stripped == token:
                return token
            token = stripped
            if not token:
                return None
            continue
        return token


def _lookup(table, token):
    if token in table:
        return table[token]
    return table.get(token.lower())


def _clean_token(tok, cfg):
    """The pieces one raw token cleans to; () when it is stripped.

    Order: lowercase, link strip, username strip, hashtag strip, emoji
    replace, contraction expand, repeat collapse.
    """
    if cfg.lowercase:
        tok = tok.lower()
    tok = _strip_token(tok, cfg)
    if tok is None:
        return ()
    pieces = [tok]
    if cfg.replace_emoji:
        repl = _lookup(EMOJI_MAP, tok)
        if repl is not None:
            pieces = list(repl)
    if cfg.expand_contractions:
        expanded = []
        for piece in pieces:
            repl = _lookup(CONTRACTIONS, piece)
            expanded.extend(repl if repl is not None else [piece])
        pieces = expanded
    if cfg.collapse_repeats:
        pieces = [_REPEAT_RE.sub(r"\1\1", p) for p in pieces]
    return tuple(pieces)


def clean(record, cfg: CleaningConfig, memo=None):
    """Apply the enabled cleaning steps to every token of a record.

    Returns a new record, or None when no tokens survive. A token cleans
    the same way wherever it occurs, so a caller cleaning many records
    with one cfg can pass one memo dict (raw token -> pieces) to every
    call and clean each distinct token once; a memo must never be shared
    between different cfgs.
    """
    tokens, tags = [], []
    for tok, tag in zip(record.tokens, record.lang_tags):
        if memo is None:
            pieces = _clean_token(tok, cfg)
        else:
            pieces = memo.get(tok)
            if pieces is None:
                pieces = memo[tok] = _clean_token(tok, cfg)
        tokens.extend(pieces)
        tags.extend([tag] * len(pieces))
    if not tokens:
        return None
    return TweetRecord(id=record.id, tokens=tokens, lang_tags=tags, label=record.label)


def clean_corpus(records, cfg: CleaningConfig):
    """Yield clean(rec, cfg) for every record, in order: None where no token
    survives. One memo per call cleans each distinct raw token once."""
    memo = {}
    for rec in records:
        yield clean(rec, cfg, memo)


# ---------------------------------------------------------------------------
# vocabulary / encoding

class Vocabulary:
    """token <-> index map; index 0 is PAD, 1 is UNK."""

    def __init__(self, tokens):
        self.index_to_token = ["<pad>", "<unk>"] + list(tokens)
        self.token_to_index = {t: i for i, t in enumerate(self.index_to_token)}

    def __len__(self):
        return len(self.index_to_token)

    def lookup(self, token):
        return self.token_to_index.get(token, UNK)

    @classmethod
    def from_tokens(cls, tokens):
        """Rebuild from a serialized index->token list (reserved rows included)."""
        vocab = cls.__new__(cls)
        vocab.index_to_token = list(tokens)
        vocab.token_to_index = {t: i for i, t in enumerate(tokens)}
        return vocab


def build_vocab(records, min_count=1):
    counts = Counter(tok for rec in records for tok in rec.tokens)
    kept = [t for t, c in counts.items() if c >= min_count]
    # descending frequency, lexicographic tie-break
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(kept)


def _known(position, raw, what):
    """position, unless it is None: then raw names no LANG_TAGS or LABELS entry."""
    if position is None:
        raise RecordError(f"unknown {what} {raw!r}")
    return position


def encode(record, vocab, lang_features):
    """(ids, lang) for an already-cleaned record; lang is the list of the
    tags' indices in LANG_TAGS when lang_features is true, else None. Tags
    are read as parse_conll reads them; RecordError for one that names no tag."""
    lang = None
    if lang_features:
        try:
            lang = [_LANG_POSITION[t] for t in record.lang_tags]
        except KeyError:  # not in parse_conll's form: normalise each tag
            lang = [_known(_lang_position(t), t, "language tag") for t in record.lang_tags]
    return [vocab.lookup(t) for t in record.tokens], lang


def encode_corpus(records, vocab, lang_features):
    """Encode records into (ids, lang, label_index) triples. A None (a record
    that cleaned to nothing) encodes as ([UNK], None, None). Labels are read
    as parse_conll reads them; RecordError for one that names no label."""
    return [([UNK], None, None) if rec is None
            else (*encode(rec, vocab, lang_features),
                  None if rec.label is None
                  else _known(_label_position(rec.label), rec.label, "sentiment label"))
            for rec in records]


class _TokenIds(dict):
    """raw token -> the vocabulary ids of its cleaned pieces, a tuple: each
    distinct token is cleaned (_clean_token, looked up at the call) and its
    pieces looked up once, when it is first read."""

    def __init__(self, cfg, vocab):
        super().__init__()
        self.cfg, self.vocab = cfg, vocab

    def __missing__(self, tok):
        ids = self[tok] = tuple(map(self.vocab.lookup, _clean_token(tok, self.cfg)))
        return ids


def encode_records(records, cfg: CleaningConfig, vocab, lang_features):
    """Yield (record.id, example) for every raw record, in order: example is
    encode_corpus's (ids, lang, label) of clean(record, cfg), ([UNK], None,
    None) where no token survives. One memo per call maps each distinct raw
    token to its ids, so a token costs one dict lookup; the unmemoized clean
    and encode are its reference."""
    token_ids = _TokenIds(cfg, vocab)
    for rec in records:
        pieces = list(map(token_ids.__getitem__, rec.tokens))
        ids = list(chain.from_iterable(pieces))
        if not ids:
            yield rec.id, ([UNK], None, None)
            continue
        lang = None
        if lang_features:
            lang = []
            for tag, got in zip(rec.lang_tags, pieces):
                if got:  # the tag once per piece, as clean repeats it
                    lang += [_known(_lang_position(tag), tag, "language tag")] * len(got)
        yield rec.id, (ids, lang, None if rec.label is None
                       else _known(_label_position(rec.label), rec.label, "sentiment label"))


# ---------------------------------------------------------------------------
# corpus statistics

def corpus_stats(records):
    sentiment = Counter(rec.label for rec in records if rec.label is not None)
    language = Counter(tag for rec in records for tag in rec.lang_tags)
    n_labeled = sum(sentiment.values())
    n_tokens = sum(language.values())
    return {
        "n_records": len(records),
        "n_tokens": n_tokens,
        "sentiment": {
            lbl: {"count": sentiment.get(lbl, 0),
                  "percent": 100.0 * sentiment.get(lbl, 0) / n_labeled if n_labeled else 0.0}
            for lbl in LABELS},
        "language": {
            tag: {"count": language.get(tag, 0),
                  "percent": 100.0 * language.get(tag, 0) / n_tokens if n_tokens else 0.0}
            for tag in LANG_TAGS},
    }


def format_stats(stats):
    lines = [f"records: {stats['n_records']}", f"tokens: {stats['n_tokens']}",
             "", "sentiment distribution:"]
    for lbl, d in stats["sentiment"].items():
        lines.append(f"  {lbl:<10} {d['count']:>7} ({d['percent']:6.2f}%)")
    lines.append("")
    lines.append("language distribution:")
    for tag, d in stats["language"].items():
        lines.append(f"  {tag:<10} {d['count']:>7} ({d['percent']:6.2f}%)")
    return "\n".join(lines)


def format_stats_kv(stats):
    pairs = [("n_records", stats["n_records"]), ("n_tokens", stats["n_tokens"])]
    for lbl, d in stats["sentiment"].items():
        pairs.append((f"sentiment_{lbl}_count", d["count"]))
        pairs.append((f"sentiment_{lbl}_percent", d["percent"]))
    for tag, d in stats["language"].items():
        pairs.append((f"language_{tag}_count", d["count"]))
        pairs.append((f"language_{tag}_percent", d["percent"]))
    return "\n".join(f"{k} = {v}" for k, v in pairs)
