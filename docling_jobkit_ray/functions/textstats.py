"""Text-analysis operators over the `documents` table (training-data ops).

Language-ID, quality scoring, token counting, fingerprinting — the text
pipeline primitives a 100 TB training-data run needs.  All are per-row pure
functions applied vectorized (or in tight per-row loops where the kernel is
genuinely scalar, e.g. rolling hash) inside ``map_batches``; stateful setup
(compiled regexes, stopword/profile tables) happens once per actor in
``__init__``.
"""

from __future__ import annotations

import hashlib
import re
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..exchange import bucket_exchange
from ..sources.pages import read_table

# ---------------------------------------------------------------------------
# token counting — definition shared with the DuckDB oracle:
#   n_tokens = number of \S+ runs  (len(regexp_extract_all(text,'\S+')))
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")


def token_counts(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        # fully vectorized: count non-overlapping \S+ runs per row
        n = pc.cast(
            pc.count_substring_regex(batch["text"], pattern=r"\S+"), pa.int64()
        )
        return pa.table({"doc_id": batch["doc_id"], "n_tokens": n})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).sort("doc_id")


TOKEN_COUNTS_SQL = """
SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens
FROM documents ORDER BY doc_id
"""


# BPE-ish pre-tokenizer: GPT-2-style word/number/punctuation split, without
# the lookahead (RE2 — the engine's pyarrow kernel and DuckDB run the SAME
# pattern).  Counts pre-tokenizer pieces, the budget unit BPE merges shrink.
_BPE_ISH_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+"


def token_counts_bpe(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        n = pc.cast(
            pc.count_substring_regex(batch["text"], pattern=_BPE_ISH_PATTERN),
            pa.int64(),
        )
        return pa.table({"doc_id": batch["doc_id"], "n_bpe_tokens": n})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).sort("doc_id")


# ONE source of truth for the pattern: interpolated into the SQL (DuckDB
# single-quoted literals pass backslashes through to RE2 untouched)
TOKEN_COUNTS_BPE_SQL = f"""
SELECT doc_id,
       CAST(len(regexp_extract_all(text, '{_BPE_ISH_PATTERN}'))
            AS BIGINT) AS n_bpe_tokens
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# quality scoring — stateful stage (compiled regexes once per actor)
# ---------------------------------------------------------------------------

class QualityScorer:
    """Actor-pool UDF: length / punctuation / stopword / alpha ratios and a
    composite quality score.  Compiled patterns + stopword set built once per
    actor (never per batch)."""

    STOPWORDS = frozenset(
        "the a an and or of to in is are was were be been for on with as at by "
        "it this that from not have has had but they you we he she".split()
    )

    def __init__(self) -> None:
        self.word_re = re.compile(r"[A-Za-z']+")
        self.punct_re = re.compile(r"[.,;:!?]")

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n = len(texts)
        n_chars = np.empty(n, dtype=np.int64)
        n_words = np.empty(n, dtype=np.int64)
        stop_ratio = np.empty(n, dtype=np.float64)
        punct_ratio = np.empty(n, dtype=np.float64)
        mean_word_len = np.empty(n, dtype=np.float64)
        for i, t in enumerate(texts):
            words = self.word_re.findall(t.lower())
            n_chars[i] = len(t)
            n_words[i] = len(words)
            stop_ratio[i] = (
                sum(1 for w in words if w in self.STOPWORDS) / len(words) if words else 0.0
            )
            punct_ratio[i] = len(self.punct_re.findall(t)) / len(t) if t else 0.0
            mean_word_len[i] = (
                sum(len(w) for w in words) / len(words) if words else 0.0
            )
        # Composite score in [0,1]: rewards stopword presence (natural prose),
        # moderate word length, some punctuation; penalizes empty docs.
        score = (
            np.clip(stop_ratio / 0.4, 0, 1) * 0.4
            + np.clip(1 - np.abs(mean_word_len - 5.0) / 5.0, 0, 1) * 0.3
            + np.clip(punct_ratio / 0.03, 0, 1) * 0.2
            + (n_words > 10).astype(np.float64) * 0.1
        )
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_chars": pa.array(n_chars),
                "n_words": pa.array(n_words),
                "stop_ratio": pa.array(stop_ratio),
                "punct_ratio": pa.array(punct_ratio),
                "quality_score": pa.array(score),
            }
        )


def quality_scores(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        QualityScorer(), batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# language ID — n-gram profile heuristic, stateful actor
# ---------------------------------------------------------------------------

# Tiny per-language trigram/stopword profiles (public-knowledge function
# words). Deterministic scoring: language with the max hit count wins; ties
# break lexicographically.
_LANG_MARKERS: dict[str, frozenset[str]] = {
    "en": frozenset("the and of to in is that it for with as was on are".split()),
    "de": frozenset("der die das und ist nicht ein eine mit von für auf den".split()),
    "fr": frozenset("le la les et des est une dans pour que qui sur pas".split()),
    "es": frozenset("el la los las y de que en un una por con para".split()),
    "it": frozenset("il lo la gli le e di che un una per con non".split()),
    "pt": frozenset("o os as um uma de que em não para com por mais".split()),
    "nl": frozenset("de het een en van dat is in op te met voor niet".split()),
}


class LangId:
    """Actor-pool UDF: weighted function-word voting per language."""

    def __init__(self) -> None:
        self.word_re = re.compile(r"[^\W\d_]+", re.UNICODE)
        self.markers = _LANG_MARKERS

    def detect(self, text: str) -> str:
        words = self.word_re.findall(text.lower())
        if not words:
            return "und"
        best_lang, best_score = "und", 0
        for lang in sorted(self.markers):
            score = sum(1 for w in words if w in self.markers[lang])
            if score > best_score:
                best_lang, best_score = lang, score
        return best_lang

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        langs = pa.array([self.detect(t) for t in texts], pa.string())
        return pa.table({"doc_id": batch["doc_id"], "lang_pred": langs})


def lang_id(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        LangId(), batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


# ---------------------------------------------------------------------------
# document fingerprinting — sha256 content hash + 64-bit rolling hash
# ---------------------------------------------------------------------------

_FP_BASE = np.uint64(1099511628211)  # FNV-ish odd multiplier, arithmetic mod 2^64


def _rolling_fingerprint(text: str, window: int = 16) -> int:
    """Deterministic 64-bit fingerprint: min over polynomial hashes of all
    `window`-byte windows (winnowing-lite document sketch), fully vectorized
    (sliding windows x power vector, wrap-around mod 2^64)."""
    data = np.frombuffer(text.encode("utf-8"), dtype=np.uint8)
    if len(data) <= window:
        return zlib.crc32(data.tobytes()) & 0xFFFFFFFFFFFFFFFF
    powers = np.empty(window, dtype=np.uint64)
    powers[window - 1] = np.uint64(1)
    for j in range(window - 2, -1, -1):
        powers[j] = powers[j + 1] * _FP_BASE
    windows = np.lib.stride_tricks.sliding_window_view(data, window).astype(np.uint64)
    hashes = (windows * powers).sum(axis=1, dtype=np.uint64)
    return int(hashes.min()) & 0x7FFFFFFFFFFFFFFF  # fits int64 storage


def fingerprints(sf_dir: str) -> ray.data.Dataset:
    """sha256 hex digest (matches DuckDB's sha256) + rolling fingerprint."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        sha = pa.array(
            [hashlib.sha256(t.encode("utf-8")).hexdigest() for t in texts], pa.string()
        )
        roll = pa.array([_rolling_fingerprint(t) for t in texts], pa.int64())
        return pa.table({"doc_id": batch["doc_id"], "sha256": sha, "fingerprint": roll})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).sort("doc_id")


FINGERPRINT_SHA_SQL = """
SELECT doc_id, sha256(text) AS sha256 FROM documents ORDER BY doc_id
"""


def doc_stats_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Grouped doc stats per (lang, source): partial pre-agg then final."""
    ds = read_table(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["lang", "source"])
            .aggregate([("n_chars", "sum"), ("n_chars", "count"), ("n_chars", "max")])
            .rename_columns(["lang", "source", "sum_chars", "n_docs", "max_chars"])
        )

    from ray.data.aggregate import Max, Sum

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return (
        partials.groupby(["lang", "source"])
        .aggregate(
            Sum("sum_chars", alias_name="sum_chars"),
            Sum("n_docs", alias_name="n_docs"),
            Max("max_chars", alias_name="max_chars"),
        )
        .sort(["lang", "source"])
    )


DOC_STATS_BY_LANG_SQL = """
SELECT lang, source, CAST(sum(n_chars) AS BIGINT) AS sum_chars, count(*) AS n_docs,
       max(n_chars) AS max_chars
FROM documents GROUP BY lang, source ORDER BY lang, source
"""


# ---------------------------------------------------------------------------
# text normalization — fully vectorized Arrow kernels
# ---------------------------------------------------------------------------

def normalize_documents(sf_dir: str) -> ray.data.Dataset:
    """Lowercase + collapse whitespace runs + trim: the canonical text
    normalization pre-pass before dedup/tokenization.  Pure pyarrow.compute
    kernels (no Python per row)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(batch["text"])
        t = pc.replace_substring_regex(t, pattern=r"\s+", replacement=" ")
        t = pc.utf8_trim_whitespace(t)
        return pa.table({"doc_id": batch["doc_id"], "norm_text": t})

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).sort("doc_id")


NORMALIZE_DOCUMENTS_SQL = """
SELECT doc_id,
       trim(regexp_replace(lower(text), '\\s+', ' ', 'g')) AS norm_text
FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# global term frequency top-k (the canonical word-count with partial agg)
# ---------------------------------------------------------------------------

def top_terms(sf_dir: str, *, k: int = 100) -> ray.data.Dataset:
    """Top-k terms by global frequency over the documents corpus.

    Per-batch word explosion + LOCAL counting (the combiner — the shuffle
    carries one (word, count) row per distinct word per batch, not one row
    per token), then a global groupby-sum and top-k sort.  Deterministic
    tiebreak: alphabetical."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch.column("text").to_pylist():
            counts.update(re.findall(r"[a-z]+", t.lower()))
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "n": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return (
        partials.groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "word"], descending=[True, False])
        .limit(k)
    )


TOP_TERMS_SQL = """
SELECT word, count(*) AS n FROM (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word FROM documents
) GROUP BY word ORDER BY n DESC, word LIMIT 100
"""


def doc_frequency(sf_dir: str, *, k: int = 100) -> ray.data.Dataset:
    """Top-k terms by DOCUMENT frequency (how many docs contain the word —
    the DF of TF-IDF).  Combiner: each batch emits one (word, n_docs) row
    per distinct word from its OWN distinct (word, doc) pairs, so the
    shuffle carries per-batch vocabulary rows, never per-token or per-pair
    rows.  Deterministic tiebreak: alphabetical."""
    ds = read_table(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        from collections import Counter

        counts: Counter = Counter()
        for t in batch.column("text").to_pylist():
            counts.update(set(re.findall(r"[a-z]+", t.lower())))
        return pa.table(
            {
                "word": pa.array(list(counts.keys()), pa.string()),
                "n_docs": pa.array(list(counts.values()), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    return (
        partials.groupby("word")
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .sort(["n_docs", "word"], descending=[True, False])
        .limit(k)
    )


DOC_FREQUENCY_SQL = """
SELECT word, count(*) AS n_docs FROM (
  SELECT DISTINCT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
  FROM documents
) GROUP BY word ORDER BY n_docs DESC, word LIMIT 100
"""


def doc_length_percentiles(sf_dir: str) -> pa.Table:
    """EXACT distributed percentiles of document length (p50/p90/p99 of
    n_chars) without a global sort: lengths are a bounded integer domain,
    so a groupby-count builds the exact histogram (the shuffle carries one
    row per DISTINCT length per batch) and the driver walks the tiny
    cumulative histogram.  percentile_disc semantics (smallest value with
    cumulative count >= ceil(q*n)).  Returns a one-row pyarrow.Table (a
    driver-side scalar result, like q6_forecast_revenue — the driver
    contract accepts Dataset | DataFrame | Table)."""
    ds = read_table(sf_dir, "documents", columns=["n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by("n_chars")
            .aggregate([([], "count_all")])
            .rename_columns(["n_chars", "n"])
        )

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("n_chars")
        .aggregate(Sum("n", alias_name="n"))
        .sort("n_chars")
        .to_pandas()  # tiny: one row per distinct length
    )
    import math

    total = int(hist["n"].sum())
    cum = hist["n"].cumsum()
    out = {}
    for q in (0.5, 0.9, 0.99):
        rank = math.ceil(q * total)
        out[f"p{int(q*100)}"] = int(hist["n_chars"][(cum >= rank).idxmax()])
    return pa.table({k: pa.array([v], pa.int64()) for k, v in out.items()})


DOC_LENGTH_PERCENTILES_SQL = """
SELECT CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90,
       CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
FROM documents
"""


def doc_length_percentiles_by_lang(sf_dir: str) -> pa.Table:
    """EXACT grouped percentiles: p50/p90/p99 of document length PER
    LANGUAGE — the grouped variant of :func:`doc_length_percentiles`.

    Same histogram design, one more key: the shuffle carries one row per
    distinct (lang, n_chars) per batch, the driver walks each language's
    tiny cumulative histogram.  Languages are low-cardinality by nature;
    the histogram width is bounded by the value domain, not the corpus."""
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return (
            batch.group_by(["lang", "n_chars"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "n_chars", "n"])
        )

    from ray.data.aggregate import Sum

    hist = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "n_chars"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["lang", "n_chars"])
        .to_pandas()  # tiny: one row per distinct (lang, length)
    )
    import math

    rows = []
    for lang, g in hist.groupby("lang", sort=True):
        total = int(g["n"].sum())
        cum = g["n"].cumsum()
        row = {"lang": lang}
        for q in (0.5, 0.9, 0.99):
            rank = math.ceil(q * total)
            row[f"p{int(q*100)}"] = int(g["n_chars"][(cum >= rank).idxmax()])
        rows.append(row)
    return pa.table(
        {
            "lang": pa.array([r["lang"] for r in rows], pa.string()),
            **{
                k: pa.array([r[k] for r in rows], pa.int64())
                for k in ("p50", "p90", "p99")
            },
        }
    )


DOC_LENGTH_PERCENTILES_BY_LANG_SQL = """
SELECT lang,
       CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS p50,
       CAST(quantile_disc(n_chars, 0.9) AS BIGINT) AS p90,
       CAST(quantile_disc(n_chars, 0.99) AS BIGINT) AS p99
FROM documents
GROUP BY lang
ORDER BY lang
"""


def compression_ratio_scores(sf_dir: str) -> "ray.data.Dataset":
    """Per-document zlib compression ratio (ppm) — the model-free
    redundancy signal several curation stacks use alongside Gopher rules
    (template/boilerplate text compresses far better than natural prose;
    near-random text barely compresses).

    ``ratio_ppm = compressed_bytes * 1e6 // raw_bytes`` (integer floor —
    engine-exact), 0 for empty docs.  zlib level pinned (6) so the score is
    reproducible across runs and machines.  The per-doc zlib call is a C
    kernel over the document bytes — batch-bounded, embarrassingly
    parallel, no shuffle at any scale; rows-only (no SQL zlib) with
    invariants pinned in tests/test_compression_scores.py."""
    import zlib

    import numpy as np

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [
                    ("doc_id", pa.int64()),
                    ("raw_bytes", pa.int64()),
                    ("compressed_bytes", pa.int64()),
                    ("ratio_ppm", pa.int64()),
                ]
            ).empty_table()
        texts = batch["text"].to_pylist()
        raw = np.array([len(t.encode("utf-8")) for t in texts], np.int64)
        comp = np.array(
            [len(zlib.compress(t.encode("utf-8"), 6)) for t in texts], np.int64
        )
        ratio = np.where(raw > 0, comp * np.int64(1_000_000) // np.maximum(raw, 1), 0)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "raw_bytes": pa.array(raw),
                "compressed_bytes": pa.array(comp),
                "ratio_ppm": pa.array(ratio.astype(np.int64)),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).sort(
        "doc_id"
    )


def _marker_hits(
    texts: pa.ChunkedArray | pa.Array, langs: list[str], value_sets: dict
) -> np.ndarray:
    """(docs, len(langs)) int64 matrix: per document, how many of its
    ``[a-z]+`` tokens (lower-cased text) are marker words of each language."""
    lower = pc.utf8_lower(texts)
    words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
    flat = pc.list_flatten(words)
    lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
    doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
    nonempty = pc.not_equal(flat, "").to_numpy(zero_copy_only=False)
    hits = np.zeros((len(lens), len(langs)), np.int64)
    for j, lang in enumerate(langs):
        m = pc.is_in(flat, value_set=value_sets[lang]).to_numpy(
            zero_copy_only=False
        ) & nonempty
        hits[:, j] = np.bincount(doc_idx, weights=m, minlength=len(lens)).astype(
            np.int64
        )
    return hits


def lang_stopword_profile(sf_dir: str) -> ray.data.Dataset:
    """SQL-portable language-evidence profile: per-document function-word
    hit counts for every language in ``_LANG_MARKERS``, the argmax
    prediction (lexicographic tie-break, 'und' when no evidence) and the
    evidence margin (best - second) — the hash-checkable upgrade of the
    rows-only ``lang_id`` heuristic.

    Tokenization is the oracle contract ``[a-z]+`` over lowercased text
    (ASCII-only, so DuckDB counts the identical token stream; non-ASCII
    markers like 'für' simply never match on either engine).  One
    vectorized ``pc.is_in`` pass per language over the flat token child —
    no shuffle at any scale."""
    langs = sorted(_LANG_MARKERS)
    value_sets = {
        lang: pa.array(sorted(_LANG_MARKERS[lang]), pa.string()) for lang in langs
    }
    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    out_fields = [("doc_id", pa.int64())]
    out_fields += [(f"h_{lang}", pa.int64()) for lang in langs]
    out_fields += [("pred_lang", pa.string()), ("margin", pa.int64())]
    out_schema = pa.schema(out_fields)

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        hits = _marker_hits(batch["text"], langs, value_sets)
        order = np.argsort(-hits, axis=1, kind="stable")  # lexicographic tie
        best = np.take_along_axis(hits, order[:, :1], axis=1)[:, 0]
        second = (
            np.take_along_axis(hits, order[:, 1:2], axis=1)[:, 0]
            if len(langs) > 1
            else np.zeros(len(hits), np.int64)
        )
        lang_arr = np.asarray(langs, dtype=object)
        pred = np.where(best > 0, lang_arr[order[:, 0]], "und")
        cols = {"doc_id": pc.cast(batch["doc_id"], pa.int64())}
        for j, lang in enumerate(langs):
            cols[f"h_{lang}"] = pa.array(hits[:, j])
        cols["pred_lang"] = pa.array(pred.astype(str), pa.string())
        cols["margin"] = pa.array((best - second).astype(np.int64))
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True).sort(
        "doc_id"
    )


def lang_stopword_profile_sql() -> str:
    langs = sorted(_LANG_MARKERS)
    hit_exprs = []
    for lang in langs:
        lst = sorted(_LANG_MARKERS[lang])
        hit_exprs.append(
            f"len(list_filter(toks, x -> list_contains({lst!r}, x))) AS h_{lang}"
        )
    hits_list = ", ".join(f"h_{lang}" for lang in langs)
    pred_cases = " ".join(
        f"WHEN h_{lang} = best THEN '{lang}'" for lang in langs
    )
    return f"""
WITH t AS (
  SELECT doc_id, regexp_extract_all(lower(text), '[a-z]+') AS toks FROM documents
), h AS (
  SELECT doc_id, {", ".join(hit_exprs)} FROM t
), v AS (
  SELECT *, greatest({hits_list}) AS best,
         list_sort([{hits_list}], 'DESC')[2] AS second
  FROM h
)
SELECT doc_id, {", ".join(f"CAST(h_{lang} AS BIGINT) AS h_{lang}" for lang in langs)},
       CASE WHEN best = 0 THEN 'und' {pred_cases} END AS pred_lang,
       CAST(best - second AS BIGINT) AS margin
FROM v ORDER BY doc_id
"""


def lang_confusion_matrix(sf_dir: str) -> ray.data.Dataset:
    """Confusion matrix of the declared ``lang`` column vs the stopword-
    evidence prediction — the eval table you'd print for ANY classifier
    stage (precision/recall derive from the margins).  Batch-local partial
    counts fold through a <= |langs|^2-row groupby."""
    from ray.data.aggregate import Sum

    langs = sorted(_LANG_MARKERS)
    value_sets = {
        lang: pa.array(sorted(_LANG_MARKERS[lang]), pa.string()) for lang in langs
    }
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    out_schema = pa.schema(
        [("lang", pa.string()), ("pred_lang", pa.string()), ("n_docs", pa.int64())]
    )

    def fn(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        hits = _marker_hits(batch["text"], langs, value_sets)
        order = np.argsort(-hits, axis=1, kind="stable")
        best = np.take_along_axis(hits, order[:, :1], axis=1)[:, 0]
        lang_arr = np.asarray(langs, dtype=object)
        pred = np.where(best > 0, lang_arr[order[:, 0]], "und")
        return (
            pa.table(
                {
                    "lang": batch["lang"],
                    "pred_lang": pa.array(pred.astype(str), pa.string()),
                    "n_docs": pa.array(np.ones(len(hits), np.int64)),
                }
            )
            .group_by(["lang", "pred_lang"])
            .aggregate([("n_docs", "sum")])
            .rename_columns(["lang", "pred_lang", "n_docs"])
        )

    return (
        ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "pred_lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
        .sort(["lang", "pred_lang"])
    )


def lang_confusion_matrix_sql() -> str:
    langs = sorted(_LANG_MARKERS)
    hit_exprs = []
    for lang in langs:
        lst = sorted(_LANG_MARKERS[lang])
        hit_exprs.append(
            f"len(list_filter(toks, x -> list_contains({lst!r}, x))) AS h_{lang}"
        )
    hits_list = ", ".join(f"h_{lang}" for lang in langs)
    pred_cases = " ".join(f"WHEN h_{lang} = best THEN '{lang}'" for lang in langs)
    return f"""
WITH t AS (
  SELECT doc_id, lang, regexp_extract_all(lower(text), '[a-z]+') AS toks
  FROM documents
), h AS (
  SELECT doc_id, lang, {", ".join(hit_exprs)} FROM t
), v AS (
  SELECT lang, greatest({hits_list}) AS best, {hits_list} FROM h
), p AS (
  SELECT lang, CASE WHEN best = 0 THEN 'und' {pred_cases} END AS pred_lang FROM v
)
SELECT lang, pred_lang, count(*) AS n_docs
FROM p GROUP BY lang, pred_lang ORDER BY lang, pred_lang
"""


def lang_agreement_kappa(sf_dir: str) -> "pa.Table":
    """Cohen's kappa between the declared ``lang`` column and the stopword
    prediction — chance-corrected agreement, the one-number summary of the
    confusion matrix.  Computed on the driver from the <= |langs|^2 exact
    matrix (observed and expected agreement as exact integer sums over
    N^2-scaled rationals), quantized once to the 1e-6 grid."""
    m = lang_confusion_matrix(sf_dir).to_pandas()  # bounded: <= |langs|^2 rows
    n = int(m["n_docs"].sum())
    po_num = int(m.loc[m["lang"] == m["pred_lang"], "n_docs"].sum())  # / n
    row = m.groupby("lang")["n_docs"].sum()
    col = m.groupby("pred_lang")["n_docs"].sum()
    keys = sorted(set(row.index) | set(col.index))
    pe_num = sum(int(row.get(k, 0)) * int(col.get(k, 0)) for k in keys)  # / n^2
    # kappa = (po - pe) / (1 - pe) = (po_num*n - pe_num) / (n*n - pe_num)
    denom = n * n - pe_num
    kappa = (po_num * n - pe_num) / denom if denom else 0.0
    return pa.table(
        {
            "n_docs": pa.array([n], pa.int64()),
            "n_agree": pa.array([po_num], pa.int64()),
            "kappa_e6": pa.array([int(round(kappa * 1e6))], pa.int64()),
        }
    )


def lang_agreement_kappa_sql() -> str:
    inner = lang_confusion_matrix_sql().strip().removesuffix(
        "ORDER BY lang, pred_lang"
    )
    return f"""
WITH m AS ({inner}),
tot AS (SELECT CAST(sum(n_docs) AS BIGINT) AS n FROM m),
agree AS (SELECT CAST(coalesce(sum(n_docs) FILTER (WHERE lang = pred_lang), 0) AS BIGINT) AS a FROM m),
rows_ AS (SELECT lang AS k, sum(n_docs) AS r FROM m GROUP BY lang),
cols_ AS (SELECT pred_lang AS k, sum(n_docs) AS c FROM m GROUP BY pred_lang),
pe AS (SELECT CAST(coalesce(sum(rows_.r * cols_.c), 0) AS BIGINT) AS p
       FROM rows_ JOIN cols_ USING (k))
SELECT tot.n AS n_docs, agree.a AS n_agree,
       CAST(round((agree.a * tot.n - pe.p) * 1.0 / (tot.n * tot.n - pe.p)
                  * 1000000) AS BIGINT) AS kappa_e6
FROM tot, agree, pe
"""


# ---------------------------------------------------------------------------
# weighted median (length-biased) document length per lang
# ---------------------------------------------------------------------------

def weighted_median_doclen_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Length-WEIGHTED median document length per lang: the length of the
    document containing the median CHARACTER of the corpus — under a
    skewed length distribution this sits far above the per-doc median and
    is the number that matters for token-budget planning ("half the
    training tokens come from docs longer than X").

    Rule (exact, cross-engine): sort docs by (n_chars, doc_id); the
    weighted median is the n_chars of the first row whose doubled
    cumulative weight reaches the total (``2*cw >= tw``) with weight =
    n_chars.  The engine never sorts rows: lengths are a bounded integer
    domain, so per-batch (lang, n_chars) -> (count, weight) partials fold
    into a per-lang HISTOGRAM (the length_percentile_rank /
    doc_length_percentiles pattern) and the cumulative walk happens on
    distinct lengths — crossing the threshold mid-length-class picks that
    class's length, exactly what the row-level rule picks.
    """
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])

    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n_chars", pa.int64()),
            ("n", pa.int64()),
            ("w", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        t = (
            pa.table({"lang": batch["lang"], "n_chars": batch["n_chars"]})
            .group_by(["lang", "n_chars"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "n_chars", "n"])
        )
        return t.append_column("w", pc.multiply(t["n_chars"], t["n"]))

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n_docs", pa.int64()),
            ("total_chars", pa.int64()),
            ("wmedian_chars", pa.int64()),
        ]
    )

    def per_lang(group: pa.Table) -> pa.Table:
        import pandas as pd

        df = (
            group.to_pandas()
            .groupby("n_chars", sort=True)
            .agg(n=("n", "sum"), w=("w", "sum"))
            .reset_index()
        )
        cw = df["w"].cumsum()
        tw = int(cw.iloc[-1])
        pick = df["n_chars"][(2 * cw) >= tw].iloc[0]
        return pa.table(
            {
                "lang": [group["lang"][0].as_py()],
                "n_docs": pa.array([int(df["n"].sum())], pa.int64()),
                "total_chars": pa.array([tw], pa.int64()),
                "wmedian_chars": pa.array([int(pick)], pa.int64()),
            }
        )

    return bucket_exchange(
        ds,
        per_lang,
        key="lang",
        schema=part_schema,
        out_schema=out_schema,
        emit=partial,
    ).sort("lang")


WEIGHTED_MEDIAN_DOCLEN_SQL = """
WITH w AS (
  SELECT lang, n_chars, doc_id,
         sum(n_chars) OVER (PARTITION BY lang ORDER BY n_chars, doc_id
                            ROWS UNBOUNDED PRECEDING) AS cw,
         sum(n_chars) OVER (PARTITION BY lang) AS tw
  FROM documents)
SELECT lang,
       count(*) AS n_docs,
       CAST(max(tw) AS BIGINT) AS total_chars,
       CAST(min(CASE WHEN 2 * cw >= tw THEN n_chars END) AS BIGINT)
         AS wmedian_chars
FROM w GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# vocabulary growth curve (Heaps' law) and Zipf coverage ladder
# ---------------------------------------------------------------------------

_VG_BUCKET_DOCS = 100


def _word_parents(texts: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, pa.Array]:
    """Non-empty ``[a-z]+`` words of the lower-cased ``texts`` and the row
    index each word came from (``list_parent_indices``)."""
    lower = pc.utf8_lower(texts)
    words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
    words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
    flat = words.flatten()
    parent = pc.list_parent_indices(words)
    keep = pc.greater(pc.utf8_length(flat), 0)
    return pc.filter(flat, keep), pc.filter(parent, keep)


def _word_explode(batch: pa.Table) -> tuple[pa.Array, pa.Array]:
    """Vectorized ``[a-z]+`` token explosion: returns (word, parent doc_id)
    flat arrays with empty-string splits dropped — the corpus-wide ASCII
    token contract shared with top_terms/doc_frequency so DuckDB's
    regexp_extract_all counts the identical tokens."""
    flat, parent = _word_parents(batch["text"])
    return flat, pc.take(batch["doc_id"].combine_chunks(), parent)


def vocab_growth_curve(sf_dir: str) -> pa.Table:
    """Heaps'-law vocabulary growth: cumulative distinct ``[a-z]+`` word
    count after every block of 100 documents in doc_id order — the
    diminishing-returns curve that says whether the next crawl slice still
    buys new vocabulary.

    Distributed as first-appearance folding (the cumulative_unique_users
    rule lifted to words): per-batch (word, min doc_id) partials -> one
    word-keyed exchange keeps the global min -> each word counts once, in
    the bucket of its FIRST document; the cumulative sum over the K =
    n_docs/100 bucket rows is the driver finish.  The shuffle carries one
    row per distinct word per batch, never per token.
    """
    from ray.data.aggregate import Min, Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("word", pa.string()), ("fd", pa.int64())]
            ).empty_table()
        word, ids = _word_explode(batch)
        return (
            pa.table({"word": word, "fd": ids})
            .group_by("word")
            .aggregate([("fd", "min")])
            .rename_columns(["word", "fd"])
        )

    first = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Min("fd", alias_name="fd"))
    )

    def bucket_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("bucket", pa.int64()), ("new_words", pa.int64())]
            ).empty_table()
        b = pc.divide(batch["fd"], pa.scalar(_VG_BUCKET_DOCS, pa.int64()))
        return (
            pa.table({"bucket": b})
            .group_by("bucket")
            .aggregate([([], "count_all")])
            .rename_columns(["bucket", "new_words"])
        )

    # bounded: one row per _VG_BUCKET_DOCS-doc step of the curve (n_docs / 100)
    rows = (
        first.map_batches(bucket_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bucket")
        .aggregate(Sum(on="new_words", alias_name="new_words"))
        .take_all()
    )
    rows.sort(key=lambda r: r["bucket"])
    b = np.array([r["bucket"] for r in rows], np.int64)
    nw = np.array([r["new_words"] for r in rows], np.int64)
    return pa.table(
        {
            "bucket": pa.array(b, pa.int64()),
            "new_words": pa.array(nw, pa.int64()),
            "cum_vocab": pa.array(np.cumsum(nw), pa.int64()),
        }
    )


VOCAB_GROWTH_CURVE_SQL = f"""
WITH fw AS (
  SELECT word, min(doc_id) AS fd FROM (
    SELECT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents)
  GROUP BY word),
b AS (SELECT fd // {_VG_BUCKET_DOCS} AS bucket, count(*) AS new_words
      FROM fw GROUP BY bucket)
SELECT bucket, new_words,
       CAST(sum(new_words) OVER (ORDER BY bucket
                                 RANGE UNBOUNDED PRECEDING) AS BIGINT)
         AS cum_vocab
FROM b ORDER BY bucket
"""

_VC_LADDER = (100, 1_000, 10_000, 100_000)


def vocab_coverage_curve(sf_dir: str) -> pa.Table:
    """Zipf coverage ladder: what fraction of all corpus tokens (ppm) the
    top-k most frequent words cover, for k in {100, 1k, 10k, 100k} — the
    vocabulary-size planning number for tokenizer fitting (bpe.py).

    No global sort of the vocabulary happens anywhere: word counts fold
    through the standard combiner exchange, then collapse to the
    COUNT-OF-COUNTS histogram (frequency f -> how many words, how many
    tokens), which is tiny (distinct frequencies ~ sqrt(corpus tokens));
    the ladder walk runs on that histogram with Python-int arithmetic.
    Words sharing a frequency are interchangeable, so "top-k" is exact
    without naming which words: a partially-consumed frequency class
    contributes ``(k - words_above) * f`` tokens — the same arithmetic the
    oracle does with two window cumsums.
    """
    from ray.data.aggregate import Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("word", pa.string()), ("n", pa.int64())]
            ).empty_table()
        word, _ids = _word_explode(batch)
        return (
            pa.table({"word": word})
            .group_by("word")
            .aggregate([([], "count_all")])
            .rename_columns(["word", "n"])
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum(on="n", alias_name="f"))
    )

    def cc_partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                [("f", pa.int64()), ("w", pa.int64())]
            ).empty_table()
        return (
            pa.table({"f": batch["f"]})
            .group_by("f")
            .aggregate([([], "count_all")])
            .rename_columns(["f", "w"])
        )

    # bounded: one row per distinct corpus word frequency (< sqrt(2 * tokens))
    hist = (
        counts.map_batches(cc_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("f")
        .aggregate(Sum(on="w", alias_name="w"))
        .take_all()
    )
    hist.sort(key=lambda r: -r["f"])
    ks, cov = [], []
    total_t = sum(int(r["f"]) * int(r["w"]) for r in hist)
    total_v = sum(int(r["w"]) for r in hist)
    for k in _VC_LADDER:
        if k >= total_v:
            ks.append(k)
            cov.append(1_000_000 if total_t else 0)
            continue
        cw = ct = 0
        for r in hist:
            f, w = int(r["f"]), int(r["w"])
            if cw + w >= k:
                ks.append(k)
                cov.append((ct + (k - cw) * f) * 1_000_000 // total_t)
                break
            cw += w
            ct += f * w
    return pa.table(
        {
            "k": pa.array(ks, pa.int64()),
            "coverage_ppm": pa.array(cov, pa.int64()),
        }
    )


VOCAB_COVERAGE_CURVE_SQL = f"""
WITH wc AS (
  SELECT word, count(*) AS f FROM (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents)
  GROUP BY word),
cc AS (SELECT f, count(*) AS w, f * count(*) AS t FROM wc GROUP BY f),
o AS (SELECT f, w, t,
             sum(w) OVER (ORDER BY f DESC ROWS UNBOUNDED PRECEDING) AS cw,
             sum(t) OVER (ORDER BY f DESC ROWS UNBOUNDED PRECEDING) AS ct
      FROM cc),
tot AS (SELECT sum(t) AS T, sum(w) AS V FROM cc),
ks(k) AS (VALUES (100), (1000), (10000), (100000))
SELECT ks.k,
       CAST(CASE WHEN ks.k >= tot.V THEN 1000000
            ELSE (o.ct - o.t + (ks.k - (o.cw - o.w)) * o.f) * 1000000 // tot.T
            END AS BIGINT) AS coverage_ppm
FROM ks CROSS JOIN tot
LEFT JOIN o ON o.cw - o.w < ks.k AND ks.k <= o.cw
ORDER BY ks.k
"""


# ---------------------------------------------------------------------------
# lexical diversity (type-token ratio) per lang — fully batch-local
# ---------------------------------------------------------------------------


def lexical_diversity_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-lang mean type-token ratio (distinct words / total words, ppm,
    per-doc then averaged) — the lexical-diversity curation signal that
    separates template/boilerplate pages (low TTR) from natural prose.

    Every per-doc statistic is BATCH-LOCAL (a document never spans
    batches): one vectorized ``[a-z]+`` explode, one in-memory Arrow
    group_by for (doc, word) tfs, one for per-doc totals — then only the
    tiny (lang, n_docs, sum_ttr) partials ride the lang groupby.  Integer
    contract: ttr_ppm = distinct*1e6 // total per doc (floor division,
    positive), avg = sum // n — exact cross-engine.  Zero-token docs
    produce no explode rows in either engine and drop out identically.
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    part_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n_docs", pa.int64()),
            ("n_tokens", pa.int64()),
            ("sum_ttr", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return part_schema.empty_table()
        tf = (
            pa.table({"i": parent, "word": flat})
            .group_by(["i", "word"])
            .aggregate([([], "count_all")])
            .rename_columns(["i", "word", "tf"])
        )
        per_doc = (
            pa.table({"i": tf["i"], "tf": tf["tf"]})
            .group_by("i")
            .aggregate([([], "count_all"), ("tf", "sum")])
            .rename_columns(["i", "distinct_w", "total_w"])
        )
        lang = pc.take(batch["lang"].combine_chunks(), per_doc["i"])
        ttr = pc.divide(
            pc.multiply(
                pc.cast(per_doc["distinct_w"], pa.int64()),
                pa.scalar(1_000_000, pa.int64()),
            ),
            pc.cast(per_doc["total_w"], pa.int64()),
        )
        agg = (
            pa.table(
                {
                    "lang": lang,
                    "n_tokens": pc.cast(per_doc["total_w"], pa.int64()),
                    "sum_ttr": ttr,
                }
            )
            .group_by("lang")
            .aggregate([([], "count_all"), ("n_tokens", "sum"), ("sum_ttr", "sum")])
            .rename_columns(["lang", "n_docs", "n_tokens", "sum_ttr"])
        )
        return agg.select(part_schema.names).cast(part_schema)

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n_docs", pa.int64()),
            ("n_tokens", pa.int64()),
            ("avg_ttr_ppm", pa.int64()),
        ]
    )

    def finish(group: pa.Table) -> pa.Table:
        n = int(pc.sum(group["n_docs"]).as_py())
        return pa.table(
            {
                "lang": [group["lang"][0].as_py()],
                "n_docs": pa.array([n], pa.int64()),
                "n_tokens": pa.array(
                    [int(pc.sum(group["n_tokens"]).as_py())], pa.int64()
                ),
                "avg_ttr_ppm": pa.array(
                    [int(pc.sum(group["sum_ttr"]).as_py()) // n], pa.int64()
                ),
            }
        )

    return bucket_exchange(
        ds, finish, key="lang", schema=part_schema, out_schema=out_schema, emit=partial
    ).sort("lang")


LEXICAL_DIVERSITY_SQL = """
WITH tok AS (
  SELECT doc_id, lang,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
  FROM documents),
d AS (
  SELECT doc_id, lang,
         count(DISTINCT word) * 1000000 // count(*) AS ttr_ppm,
         count(*) AS total_w
  FROM tok GROUP BY doc_id, lang)
SELECT lang, count(*) AS n_docs,
       CAST(sum(total_w) AS BIGINT) AS n_tokens,
       CAST(sum(ttr_ppm) // count(*) AS BIGINT) AS avg_ttr_ppm
FROM d GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# hapax legomena rate per lang — one word-bucketed exchange
# ---------------------------------------------------------------------------


def hapax_rate_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-lang hapax-legomena profile: how much of each language's
    vocabulary occurs exactly once in the corpus (typo/OCR-noise and
    tokenizer-pressure signal — a high hapax share means BPE merges are
    being spent on junk).

    Exact global (lang, word) counts without a string-keyed Ray groupby
    (CLAUDE.md: string keys sort through the shuffle; two-key is
    pathological): per-batch Arrow partials -> hash(word) int BUCKET
    exchange (bucket count derived from input size) -> in-bucket Arrow
    group_by folds the global counts -> tiny (lang, vocab, hapax, tokens)
    partials per bucket -> one final lang fold.  hapax_ppm =
    hapax*1e6 // vocab, exact int.
    """
    import pandas as pd

    from ..scale import bucket_count, estimate_rows

    n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 60, min_buckets=64)

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    pair_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("lang", pa.string()),
            ("word", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return pair_schema.empty_table()
        lang = pc.take(batch["lang"].combine_chunks(), parent)
        t = (
            pa.table({"lang": lang, "word": flat})
            .group_by(["lang", "word"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "word", "n"])
        )
        h = pd.util.hash_array(t["word"].to_numpy(zero_copy_only=False))
        b = pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64())
        return pa.table(
            {"bucket": b, "lang": t["lang"], "word": t["word"], "n": t["n"]}
        ).cast(pair_schema)

    fold_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("vocab", pa.int64()),
            ("hapax", pa.int64()),
            ("n_tokens", pa.int64()),
        ]
    )

    def fold_bucket(group: pa.Table) -> pa.Table:
        tot = (
            pa.table({"lang": group["lang"], "word": group["word"], "n": group["n"]})
            .group_by(["lang", "word"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "word", "n"])
        )
        ones = pc.cast(pc.equal(tot["n"], pa.scalar(1, pa.int64())), pa.int64())
        out = (
            pa.table({"lang": tot["lang"], "one": ones, "n": tot["n"]})
            .group_by("lang")
            .aggregate([([], "count_all"), ("one", "sum"), ("n", "sum")])
            .rename_columns(["lang", "vocab", "hapax", "n_tokens"])
        )
        return out.select(fold_schema.names).cast(fold_schema)

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("vocab", pa.int64()),
            ("hapax", pa.int64()),
            ("n_tokens", pa.int64()),
            ("hapax_ppm", pa.int64()),
        ]
    )

    def finish(group: pa.Table) -> pa.Table:
        vocab = int(pc.sum(group["vocab"]).as_py())
        hapax = int(pc.sum(group["hapax"]).as_py())
        return pa.table(
            {
                "lang": [group["lang"][0].as_py()],
                "vocab": pa.array([vocab], pa.int64()),
                "hapax": pa.array([hapax], pa.int64()),
                "n_tokens": pa.array(
                    [int(pc.sum(group["n_tokens"]).as_py())], pa.int64()
                ),
                "hapax_ppm": pa.array([hapax * 1_000_000 // vocab], pa.int64()),
            }
        )

    folded = bucket_exchange(
        ds, fold_bucket, schema=pair_schema, out_schema=fold_schema, emit=partial
    )
    return bucket_exchange(
        folded, finish, key="lang", schema=fold_schema, out_schema=out_schema
    ).sort("lang")


HAPAX_RATE_SQL = """
WITH wc AS (
  SELECT lang, word, count(*) AS n FROM (
    SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents)
  GROUP BY lang, word)
SELECT lang,
       count(*) AS vocab,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) AS BIGINT) AS hapax,
       CAST(sum(n) AS BIGINT) AS n_tokens,
       CAST(sum(CASE WHEN n = 1 THEN 1 ELSE 0 END) * 1000000 // count(*)
            AS BIGINT) AS hapax_ppm
FROM wc GROUP BY lang ORDER BY lang
"""


def prefix_autocomplete_top(sf_dir: str, *, prefix_len: int = 3, k: int = 3) -> ray.data.Dataset:
    """Autocomplete artifact: for every ``prefix_len``-char word prefix,
    the top-``k`` corpus words by global frequency (count-desc, word-asc
    tiebreak) — the completion table a search box serves.

    One prefix-hash-bucketed exchange: per-batch (prefix, word, n) Arrow
    partials, bucket = hash(prefix) so EVERY occurrence of a prefix's
    words co-locates; the in-bucket fold sums global counts, ranks within
    each prefix with one vectorized lexsort + segment cumcount, and only
    the top-k survive the bucket — the completion table is vocabulary-
    bounded, never token-bounded.  Tokenization is the corpus [a-z]+
    lowercase contract (same as top_terms); words shorter than
    ``prefix_len`` are not completable and are excluded."""
    import pandas as pd

    from ..scale import bucket_count, estimate_rows

    n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 60, min_buckets=64)
    ds = read_table(sf_dir, "documents", columns=["text"])

    pair_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("prefix", pa.string()),
            ("word", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
        words = words.combine_chunks() if isinstance(words, pa.ChunkedArray) else words
        flat = words.flatten()
        flat = pc.filter(flat, pc.greater_equal(pc.utf8_length(flat), prefix_len))
        if len(flat) == 0:
            return pair_schema.empty_table()
        t = (
            pa.table({"word": flat})
            .group_by("word")
            .aggregate([([], "count_all")])
            .rename_columns(["word", "n"])
        )
        prefix = pc.utf8_slice_codeunits(t["word"], 0, prefix_len)
        h = pd.util.hash_array(prefix.to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "bucket": pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64()),
                "prefix": prefix,
                "word": t["word"],
                "n": t["n"],
            }
        )

    out_schema = pa.schema(
        [
            ("prefix", pa.string()),
            ("rank", pa.int64()),
            ("word", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def fold_bucket(group: pa.Table) -> pa.Table:
        tot = (
            pa.table({"prefix": group["prefix"], "word": group["word"], "n": group["n"]})
            .group_by(["prefix", "word"])
            .aggregate([("n", "sum")])
            .rename_columns(["prefix", "word", "n"])
        )
        df = tot.to_pandas().sort_values(
            ["prefix", "n", "word"], ascending=[True, False, True], kind="stable"
        )
        df["rank"] = df.groupby("prefix", sort=False).cumcount() + 1
        df = df[df["rank"] <= k]
        return pa.table(
            {
                "prefix": pa.array(df["prefix"], pa.string()),
                "rank": pa.array(df["rank"].to_numpy(np.int64), pa.int64()),
                "word": pa.array(df["word"], pa.string()),
                "n": pa.array(df["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    return bucket_exchange(
        ds, fold_bucket, schema=pair_schema, out_schema=out_schema, emit=partial
    ).sort(["prefix", "rank"])


PREFIX_AUTOCOMPLETE_SQL = """
WITH w AS (
  SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word FROM documents
),
c AS (
  SELECT word, CAST(count(*) AS BIGINT) AS n FROM w
  WHERE length(word) >= 3 GROUP BY word
),
r AS (
  SELECT substr(word, 1, 3) AS prefix, word, n,
         row_number() OVER (PARTITION BY substr(word, 1, 3)
                            ORDER BY n DESC, word) AS rank
  FROM c
)
SELECT prefix, CAST(rank AS BIGINT) AS rank, word, n
FROM r WHERE rank <= 3 ORDER BY prefix, rank
"""


def corpus_card(sf_dir: str) -> pa.Table:
    """One-call "dataset card": the headline corpus facts LLM teams publish
    — document/token/char totals, language and source breadth, and the
    exact-duplicate profile — as (metric, value) long-form rows, all exact
    int64.

    Plan: ONE scan folds the scalar partials (counts, token counts via the
    corpus \\S+ contract, char totals) and the distinct-text profile rides
    the standard (hash(text) -> count) exchange — dup_docs = n - |distinct
    texts|, dup_ppm floor-divided.  Lang/source breadth are tiny distinct
    folds.  Nothing data-proportional reaches the driver."""
    import pandas as pd

    from ray.data.aggregate import Sum

    from ..scale import bucket_count, estimate_rows

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text", "lang", "source"])

    scal_schema = pa.schema(
        [("n_docs", pa.int64()), ("n_tokens", pa.int64()), ("n_chars", pa.int64())]
    )

    def scalars(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return scal_schema.empty_table()
        toks = pc.sum(pc.count_substring_regex(batch["text"], pattern=r"\S+")).as_py()
        chars = pc.sum(pc.utf8_length(batch["text"])).as_py()
        return pa.table(
            {
                "n_docs": pa.array([batch.num_rows], pa.int64()),
                "n_tokens": pa.array([int(toks or 0)], pa.int64()),
                "n_chars": pa.array([int(chars or 0)], pa.int64()),
            }
        )

    sc = (
        ds.map_batches(scalars, batch_format="pyarrow", zero_copy_batch=True)
        .sum(["n_docs", "n_tokens", "n_chars"])
    )
    n_docs = int(sc["sum(n_docs)"])
    n_tokens = int(sc["sum(n_tokens)"])
    n_chars = int(sc["sum(n_chars)"])

    # distinct texts through the standard hash exchange (pd.util.hash_array
    # is deterministic cross-process; a 64-bit collision would undercount —
    # the same trade dedup_exact documents)
    n_b = bucket_count(estimate_rows(sf_dir, "documents"), min_buckets=32)
    hash_schema = pa.schema([("h", pa.int64()), ("bucket", pa.int64())])

    def text_hashes(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_array(batch["text"].to_pandas().to_numpy()).astype(np.int64)
        h = np.unique(h)
        return pa.table(
            {"h": pa.array(h, pa.int64()), "bucket": pa.array(h % n_b, pa.int64())}
        )

    def distinct_in_bucket(group: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [int(group["h"].nunique())]})

    n_distinct = int(
        bucket_exchange(
            ds,
            distinct_in_bucket,
            schema=hash_schema,
            out_schema=pa.schema([("n", pa.int64())]),
            emit=text_hashes,
            batch_format="pandas",
        ).sum("n")
    )

    def _distinct_count(col: str) -> int:
        return int(
            ds.map_batches(
                lambda b, c=col: pa.table({c: b[c]}).group_by(c).aggregate([]),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .groupby(col)
            .count()
            .count()
        )

    n_langs = _distinct_count("lang")
    n_sources = _distinct_count("source")
    dup_docs = n_docs - n_distinct
    metrics = [
        ("dup_docs", dup_docs),
        ("dup_ppm", dup_docs * 1_000_000 // n_docs if n_docs else 0),
        ("n_chars", n_chars),
        ("n_distinct_texts", n_distinct),
        ("n_docs", n_docs),
        ("n_langs", n_langs),
        ("n_sources", n_sources),
        ("n_tokens", n_tokens),
    ]
    return pa.table(
        {
            "metric": pa.array([m for m, _ in metrics], pa.string()),
            "value": pa.array([int(v) for _, v in metrics], pa.int64()),
        }
    )


CORPUS_CARD_SQL = """
WITH s AS (
  SELECT CAST(count(*) AS BIGINT) AS n_docs,
         CAST(sum(len(regexp_extract_all(text, '\\S+'))) AS BIGINT) AS n_tokens,
         CAST(sum(length(text)) AS BIGINT) AS n_chars,
         CAST(count(DISTINCT text) AS BIGINT) AS n_distinct_texts,
         CAST(count(DISTINCT lang) AS BIGINT) AS n_langs,
         CAST(count(DISTINCT source) AS BIGINT) AS n_sources
  FROM documents
)
SELECT metric, value FROM (
  SELECT 'dup_docs' AS metric, n_docs - n_distinct_texts AS value FROM s
  UNION ALL SELECT 'dup_ppm', (n_docs - n_distinct_texts) * 1000000 // n_docs FROM s
  UNION ALL SELECT 'n_chars', n_chars FROM s
  UNION ALL SELECT 'n_distinct_texts', n_distinct_texts FROM s
  UNION ALL SELECT 'n_docs', n_docs FROM s
  UNION ALL SELECT 'n_langs', n_langs FROM s
  UNION ALL SELECT 'n_sources', n_sources FROM s
  UNION ALL SELECT 'n_tokens', n_tokens FROM s
) ORDER BY metric
"""


# ---------------------------------------------------------------------------
# LIX readability — pure map, zero shuffle
# ---------------------------------------------------------------------------


def lix_readability(sf_dir: str) -> ray.data.Dataset:
    """Per-document LIX readability index (Björnsson 1968) — the
    curation signal that separates dense legalese / OCR runs from plain
    prose:  LIX = words/sentences + 100 * long_words/words, with
    long = 7+ letters and sentences = maximal ``[.!?]+`` runs.

    Integer contract (cross-engine exact): counts come from the same RE2
    patterns in both engines (``pc.count_substring_regex`` ==
    ``len(regexp_extract_all(...))`` — non-overlapping leftmost matches),
    and the two ratio terms floor-divide in ppm:
    ``lix_ppm = words*1e6 // max(sentences,1) + long*1e8 // words``
    (0 for word-less docs).  Worst case ``long*1e8`` is ~1e13 per doc —
    comfortably int64.  Pure per-row map over a column-pruned read; the
    only ordering step is the final doc_id sort.
    """
    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("lang", pa.string()),
            ("n_words", pa.int64()),
            ("n_long_words", pa.int64()),
            ("n_sentences", pa.int64()),
            ("lix_ppm", pa.int64()),
        ]
    )

    def score(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        text = batch["text"]
        words = pc.cast(
            pc.count_substring_regex(text, pattern="[A-Za-z]+"), pa.int64()
        )
        longw = pc.cast(
            pc.count_substring_regex(text, pattern="[A-Za-z]{7,}"), pa.int64()
        )
        sents = pc.cast(
            pc.count_substring_regex(text, pattern="[.!?]+"), pa.int64()
        )
        sents1 = pc.max_element_wise(sents, pa.scalar(1, pa.int64()))
        # guard the words==0 divide with a 1 denominator, then mask to 0
        wsafe = pc.max_element_wise(words, pa.scalar(1, pa.int64()))
        lix = pc.add(
            pc.divide(pc.multiply(words, pa.scalar(1_000_000, pa.int64())), sents1),
            pc.divide(pc.multiply(longw, pa.scalar(100_000_000, pa.int64())), wsafe),
        )
        lix = pc.if_else(pc.equal(words, 0), pa.scalar(0, pa.int64()), lix)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "lang": batch["lang"],
                "n_words": words,
                "n_long_words": longw,
                "n_sentences": sents,
                "lix_ppm": lix,
            }
        )

    return (
        ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
    )


LIX_READABILITY_SQL = """
WITH c AS (
  SELECT doc_id, lang,
         len(regexp_extract_all(text, '[A-Za-z]+')) AS n_words,
         len(regexp_extract_all(text, '[A-Za-z]{7,}')) AS n_long_words,
         len(regexp_extract_all(text, '[.!?]+')) AS n_sentences
  FROM documents)
SELECT doc_id, lang,
       CAST(n_words AS BIGINT) AS n_words,
       CAST(n_long_words AS BIGINT) AS n_long_words,
       CAST(n_sentences AS BIGINT) AS n_sentences,
       CAST(CASE WHEN n_words = 0 THEN 0
            ELSE n_words * 1000000 // greatest(n_sentences, 1)
               + n_long_words * 100000000 // n_words END AS BIGINT) AS lix_ppm
FROM c ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Zipf law fit: log-log OLS slope over the top-k rank-frequency curve
# ---------------------------------------------------------------------------

_ZIPF_TOP_K = 200


def zipf_slope_fit(sf_dir: str, *, k: int = _ZIPF_TOP_K) -> pa.Table:
    """Zipf's-law fit over the corpus rank-frequency curve: the OLS slope
    and intercept of ln(frequency) against ln(rank) for the top-k terms —
    natural language sits near slope -1; a corpus drifting toward -0.5
    (flat: shuffled/templated text) or -2 (spiky: boilerplate domination)
    fails the sanity check corpus curators run after big filtering
    changes.

    Exactness: ranks come from the deterministic (count DESC, word ASC)
    order; each coordinate quantizes ONCE to the 1e-6 grid
    (x = round(ln(rank)*1e6), y = round(ln(count)*1e6) — quantized-log
    discipline), then the closed-form OLS runs on exact integer sums.
    ``n*Sxy`` reaches ~4e18 at k=200: PYTHON INTS / HUGEINT.

    Plan shape: the ``top_terms`` fold (per-batch vocab partials, one
    word groupby, global top-k sort) followed by a k-row driver finish.
    """
    top = top_terms(sf_dir, k=k).take_all()  # bounded: k rows
    n = len(top)
    x = [round(np.log(r) * 1e6) for r in range(1, n + 1)]
    y = [round(np.log(int(t["n"])) * 1e6) for t in top]
    sx, sy = sum(x), sum(y)
    sxx = sum(v * v for v in x)
    sxy = sum(a * b for a, b in zip(x, y))
    den = n * sxx - sx * sx
    num_s = n * sxy - sx * sy
    num_i = sy * sxx - sx * sxy
    from .stats_tests import _trunc_div

    return pa.table(
        {
            "n_terms": pa.array([n], pa.int64()),
            "slope_e6": pa.array([_trunc_div(num_s * 1_000_000, den)], pa.int64()),
            "intercept_e6": pa.array([_trunc_div(num_i, den)], pa.int64()),
        }
    )


def zipf_slope_fit_sql(k: int = _ZIPF_TOP_K) -> str:
    return f"""
WITH tf AS (
  SELECT word, count(*) AS n FROM (
    SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents) GROUP BY word
  ORDER BY n DESC, word LIMIT {k}),
rk AS (
  SELECT row_number() OVER (ORDER BY n DESC, word) AS r, n FROM tf),
pt AS (
  SELECT CAST(round(ln(r) * 1000000) AS BIGINT) AS x,
         CAST(round(ln(n) * 1000000) AS BIGINT) AS y
  FROM rk),
s AS (
  SELECT count(*) AS n, sum(x) AS sx, sum(y) AS sy,
         sum(CAST(x AS HUGEINT) * x) AS sxx,
         sum(CAST(x AS HUGEINT) * y) AS sxy
  FROM pt)
SELECT CAST(n AS BIGINT) AS n_terms,
       CAST((CAST(n AS HUGEINT) * sxy - CAST(sx AS HUGEINT) * sy) * 1000000
            // (CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx)
            AS BIGINT) AS slope_e6,
       CAST((CAST(sy AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sxy)
            // (CAST(n AS HUGEINT) * sxx - CAST(sx AS HUGEINT) * sx)
            AS BIGINT) AS intercept_e6
FROM s
"""


# ---------------------------------------------------------------------------
# vocabulary drift between corpus halves (temporal vocabulary shift)
# ---------------------------------------------------------------------------

_DRIFT_TOP_K = 100


def term_drift_halves(sf_dir: str, *, k: int = _DRIFT_TOP_K) -> ray.data.Dataset:
    """Vocabulary drift report: for the top-k corpus terms, their counts
    in the LOW-doc_id half vs the HIGH half (doc ids are ingestion order
    in this corpus) and the late-half share — terms drifting toward
    0 or 1e6 ppm entered or left the crawl mid-corpus, the vocabulary
    shift check run before mixing corpus generations.

    Exactness: the split threshold derives from the data
    ((min+max)//2 over doc_id — identical integer expression in both
    engines); counts are exact int64 and share_ppm floor-divides once per
    term.

    Plan shape: a tiny min/max fold pins the threshold; ONE (word, half)
    count fold (per-batch combiner) and a bounded top-k finish.
    """
    from ray.data.aggregate import Max, Min, Sum

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    agg = ds.aggregate(Min("doc_id"), Max("doc_id"))
    threshold = (int(agg["min(doc_id)"]) + int(agg["max(doc_id)"])) // 2

    part_schema = pa.schema(
        [("word", pa.string()), ("c_lo", pa.int64()), ("c_hi", pa.int64())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        lower = pc.utf8_lower(batch["text"])
        words = pc.split_pattern_regex(lower, pattern="[^a-z]+")
        flat = pc.list_flatten(words)
        lens = pc.list_value_length(words).to_numpy(zero_copy_only=False)
        doc_idx = np.repeat(np.arange(len(lens), dtype=np.int64), lens)
        hi = (
            pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
            > threshold
        )[doc_idx]
        t = pa.table(
            {
                "word": flat,
                "c_lo": pa.array((~hi).astype(np.int64), pa.int64()),
                "c_hi": pa.array(hi.astype(np.int64), pa.int64()),
            }
        ).filter(pc.not_equal(flat, ""))
        return (
            t.group_by("word")
            .aggregate([("c_lo", "sum"), ("c_hi", "sum")])
            .rename_columns(part_schema.names)
        )

    out_schema = pa.schema(
        [
            ("word", pa.string()),
            ("c_lo", pa.int64()),
            ("c_hi", pa.int64()),
            ("hi_share_ppm", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        lo = pc.cast(batch["c_lo"], pa.int64()).to_numpy(zero_copy_only=False)
        hi = pc.cast(batch["c_hi"], pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "word": batch["word"],
                "c_lo": pa.array(lo, pa.int64()),
                "c_hi": pa.array(hi, pa.int64()),
                "hi_share_ppm": pa.array(hi * 1_000_000 // (lo + hi), pa.int64()),
            }
        )

    def add_total(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return pa.schema(
                list(zip(part_schema.names, [f.type for f in part_schema]))
                + [("total", pa.int64())]
            ).empty_table()
        return batch.append_column(
            "total",
            pc.add(pc.cast(batch["c_lo"], pa.int64()), pc.cast(batch["c_hi"], pa.int64())),
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word")
        .aggregate(Sum("c_lo", alias_name="c_lo"), Sum("c_hi", alias_name="c_hi"))
        .map_batches(add_total, batch_format="pyarrow")
        .sort(["total", "word"], descending=[True, False])
        .limit(k)
        .map_batches(finish, batch_format="pyarrow")
        .select_columns(["word", "c_lo", "c_hi", "hi_share_ppm"])
    )


def term_drift_halves_sql(k: int = _DRIFT_TOP_K) -> str:
    return f"""
WITH thr AS (
  SELECT (min(doc_id) + max(doc_id)) // 2 AS t FROM documents),
tok AS (
  SELECT CAST(doc_id > thr.t AS BIGINT) AS hi,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
  FROM documents, thr),
c AS (
  SELECT word, sum(1 - hi) AS c_lo, sum(hi) AS c_hi FROM tok GROUP BY word
  ORDER BY c_lo + c_hi DESC, word LIMIT {k})
SELECT word, CAST(c_lo AS BIGINT) AS c_lo, CAST(c_hi AS BIGINT) AS c_hi,
       CAST(c_hi * 1000000 // (c_lo + c_hi) AS BIGINT) AS hi_share_ppm
FROM c ORDER BY c_lo + c_hi DESC, word
"""


# ---------------------------------------------------------------------------
# light stemmer (S-stemmer + gerund strip) vocabulary-reduction profile —
# the normalization step retrieval/tokenizer pipelines run before counting
# ---------------------------------------------------------------------------


def _light_stem(words: pa.Array) -> pa.Array:
    """Vectorized light stemmer over ascii [a-z]+ tokens: FIRST matching
    rule wins (a single-pass S-stemmer extended with gerund/past strips,
    Harman 1991 shape) —

        1. -sses -> -ss          4. -s -> ''    (len > 3, not -ss)
        2. -ies  -> -i           5. -ing -> ''  (len > 5)
        3. -ss   -> keep         6. -ed  -> ''  (len > 4)

    Per-element variable-length slicing doesn't exist in pyarrow compute,
    so every variant is computed by an anchored regex replace (unchanged
    where the suffix doesn't match) and an if_else chain on masks over
    the ORIGINAL word picks the first applicable rule.  The oracle
    mirrors the identical CASE/substr chain."""
    if isinstance(words, pa.ChunkedArray):
        words = words.combine_chunks()
    ln = pc.utf8_length(words)
    v_sses = pc.replace_substring_regex(words, pattern="sses$", replacement="ss")
    v_ies = pc.replace_substring_regex(words, pattern="ies$", replacement="i")
    v_s = pc.replace_substring_regex(words, pattern="s$", replacement="")
    v_ing = pc.replace_substring_regex(words, pattern="ing$", replacement="")
    v_ed = pc.replace_substring_regex(words, pattern="ed$", replacement="")
    return pc.if_else(
        pc.ends_with(words, pattern="sses"),
        v_sses,
        pc.if_else(
            pc.ends_with(words, pattern="ies"),
            v_ies,
            pc.if_else(
                pc.ends_with(words, pattern="ss"),
                words,
                pc.if_else(
                    pc.and_(
                        pc.ends_with(words, pattern="s"),
                        pc.greater(ln, pa.scalar(3, pa.int32())),
                    ),
                    v_s,
                    pc.if_else(
                        pc.and_(
                            pc.ends_with(words, pattern="ing"),
                            pc.greater(ln, pa.scalar(5, pa.int32())),
                        ),
                        v_ing,
                        pc.if_else(
                            pc.and_(
                                pc.ends_with(words, pattern="ed"),
                                pc.greater(ln, pa.scalar(4, pa.int32())),
                            ),
                            v_ed,
                            words,
                        ),
                    ),
                ),
            ),
        ),
    )


def light_stem_vocab_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-lang vocabulary-reduction profile of the light stemmer: token
    count, raw vocabulary, stemmed vocabulary, and the collapse rate
    reduction_ppm = (vocab_raw - vocab_stem) * 1e6 // vocab_raw — the
    normalization-gain report run before sizing a tokenizer or an
    inverted index.

    Exact global distincts without a string-keyed Ray groupby: per-batch
    distinct (lang, word, stem, n) partials -> hash(STEM) int-bucket
    exchange — all words sharing a stem co-locate, so BOTH the raw-word
    and the stem distincts are exact in-bucket -> tiny per-bucket
    (lang, vocab, stems, tokens) partials -> one final lang fold.
    """
    import pandas as pd

    from ..scale import bucket_count, estimate_rows

    n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 60, min_buckets=64)
    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    pair_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("lang", pa.string()),
            ("word", pa.string()),
            ("stem", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return pair_schema.empty_table()
        lang = pc.take(batch["lang"].combine_chunks(), parent)
        t = (
            pa.table({"lang": lang, "word": flat})
            .group_by(["lang", "word"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "word", "n"])
        )
        stem = _light_stem(t["word"])
        h = pd.util.hash_array(
            stem.to_numpy(zero_copy_only=False)
            if isinstance(stem, pa.Array)
            else np.asarray(stem)
        )
        b = pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64())
        return pa.table(
            {"bucket": b, "lang": t["lang"], "word": t["word"], "stem": stem, "n": t["n"]}
        ).cast(pair_schema)

    fold_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("vocab_raw", pa.int64()),
            ("vocab_stem", pa.int64()),
            ("n_tokens", pa.int64()),
        ]
    )

    def fold_bucket(group: pa.Table) -> pa.Table:
        # global per-(lang, word) rows (same (lang, word) partials from
        # different batches meet here because bucket = hash(stem))
        words = (
            pa.table(
                {"lang": group["lang"], "word": group["word"], "stem": group["stem"], "n": group["n"]}
            )
            .group_by(["lang", "word", "stem"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "word", "stem", "n"])
        )
        stems = (
            pa.table({"lang": words["lang"], "stem": words["stem"]})
            .group_by(["lang", "stem"])
            .aggregate([([], "count_all")])
        )
        per_lang_words = (
            pa.table({"lang": words["lang"], "n": words["n"]})
            .group_by("lang")
            .aggregate([([], "count_all"), ("n", "sum")])
            .rename_columns(["lang", "vocab_raw", "n_tokens"])
        )
        per_lang_stems = (
            pa.table({"lang": stems["lang"]})
            .group_by("lang")
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "vocab_stem"])
        )
        joined = per_lang_words.join(per_lang_stems, keys="lang", join_type="inner")
        return joined.select(fold_schema.names).cast(fold_schema)

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("n_tokens", pa.int64()),
            ("vocab_raw", pa.int64()),
            ("vocab_stem", pa.int64()),
            ("reduction_ppm", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        t = (
            batch.group_by("lang")
            .aggregate([("vocab_raw", "sum"), ("vocab_stem", "sum"), ("n_tokens", "sum")])
            .rename_columns(["lang", "vocab_raw", "vocab_stem", "n_tokens"])
        )
        red = pc.divide(
            pc.multiply(
                pc.subtract(t["vocab_raw"], t["vocab_stem"]),
                pa.scalar(1_000_000, pa.int64()),
            ),
            t["vocab_raw"],
        )
        return pa.table(
            {
                "lang": t["lang"],
                "n_tokens": pc.cast(t["n_tokens"], pa.int64()),
                "vocab_raw": pc.cast(t["vocab_raw"], pa.int64()),
                "vocab_stem": pc.cast(t["vocab_stem"], pa.int64()),
                "reduction_ppm": pc.cast(red, pa.int64()),
            }
        ).cast(out_schema)

    from ray.data.aggregate import Sum

    return (
        bucket_exchange(
            ds, fold_bucket, schema=pair_schema, out_schema=fold_schema, emit=partial
        )
        .groupby("lang")
        .aggregate(
            Sum("vocab_raw", alias_name="vocab_raw"),
            Sum("vocab_stem", alias_name="vocab_stem"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
        .map_batches(finish, batch_format="pyarrow", zero_copy_batch=True)
        .sort("lang")
    )


_STEM_CASE = """CASE
  WHEN word LIKE '%sses' THEN substr(word, 1, length(word) - 2)
  WHEN word LIKE '%ies' THEN substr(word, 1, length(word) - 2)
  WHEN word LIKE '%ss' THEN word
  WHEN word LIKE '%s' AND length(word) > 3 THEN substr(word, 1, length(word) - 1)
  WHEN word LIKE '%ing' AND length(word) > 5 THEN substr(word, 1, length(word) - 3)
  WHEN word LIKE '%ed' AND length(word) > 4 THEN substr(word, 1, length(word) - 2)
  ELSE word END"""

LIGHT_STEM_VOCAB_SQL = f"""
WITH toks AS (
  SELECT lang, unnest(regexp_split_to_array(lower(text), '[^a-z]+')) AS word
  FROM documents
),
w AS (SELECT lang, word, count(*) AS n FROM toks WHERE word != '' GROUP BY 1, 2),
s AS (SELECT lang, word, n, {_STEM_CASE} AS stem FROM w)
SELECT lang,
       CAST(sum(n) AS BIGINT) AS n_tokens,
       CAST(count(*) AS BIGINT) AS vocab_raw,
       CAST(count(DISTINCT stem) AS BIGINT) AS vocab_stem,
       CAST((count(*) - count(DISTINCT stem)) * 1000000 // count(*) AS BIGINT)
         AS reduction_ppm
FROM s GROUP BY lang ORDER BY lang
"""


# ---------------------------------------------------------------------------
# per-document corpus-novelty score: what fraction of a doc's vocabulary
# is FIRST seen in that doc — the curriculum/data-ordering signal
# (vocab_growth_curve aggregates the same first-appearance exchange into
# the Heaps curve; this is its per-document attribution)
# ---------------------------------------------------------------------------


def doc_novelty_scores(sf_dir: str) -> ray.data.Dataset:
    """Per-document novelty: of the doc's DISTINCT ``[a-z]+`` words, how
    many have their global first appearance (min doc_id) in this doc, and
    novelty_ppm = new_words * 1e6 // n_distinct (0 for empty docs).  Early
    docs score high by construction; a late doc that still scores high is
    the slice a curriculum keeps.

    Plan: per-batch (word, min doc_id) partials -> hash(word) int-BUCKET
    exchange (never a string-keyed Ray groupby) -> in-bucket global min
    per word, counted per first-doc -> one int-keyed doc_id sum; distinct
    totals are per-row batch-local (each doc lives in one row); the two
    doc-keyed sides meet in a bucketed left-outer join."""
    import pandas as pd

    from ..pipelines.joins import bucketed_join
    from ..scale import bucket_count, estimate_rows
    from ray.data.aggregate import Sum

    n_docs = estimate_rows(sf_dir, "documents")
    n_buckets = bucket_count(n_docs * 60, min_buckets=64)

    pair_schema = pa.schema(
        [("bucket", pa.int64()), ("word", pa.string()), ("fd", pa.int64())]
    )

    def pair_partial(batch: pa.Table) -> pa.Table:
        word, ids = _word_explode(batch)
        if len(word) == 0:
            return pair_schema.empty_table()
        t = (
            pa.table({"word": word, "fd": ids})
            .group_by("word")
            .aggregate([("fd", "min")])
            .rename_columns(["word", "fd"])
        )
        h = pd.util.hash_array(t["word"].to_numpy(zero_copy_only=False))
        b = pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64())
        return pa.table({"bucket": b, "word": t["word"], "fd": t["fd"]}).cast(
            pair_schema
        )

    novel_schema = pa.schema([("nv_id", pa.int64()), ("nw", pa.int64())])

    def fold_bucket(group: pa.Table) -> pa.Table:
        fw = (
            pa.table({"word": group["word"], "fd": group["fd"]})
            .group_by("word")
            .aggregate([("fd", "min")])
        )
        out = (
            pa.table({"nv_id": fw["fd_min"]})
            .group_by("nv_id")
            .aggregate([([], "count_all")])
            .rename_columns(["nv_id", "nw"])
        )
        return out.cast(novel_schema)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    novel = (
        bucket_exchange(
            ds,
            fold_bucket,
            schema=pair_schema,
            out_schema=novel_schema,
            emit=pair_partial,
        )
        .groupby("nv_id")
        .aggregate(Sum("nw", alias_name="nw"))
    )

    tot_schema = pa.schema([("doc_id", pa.int64()), ("n_distinct", pa.int64())])

    def totals(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return tot_schema.empty_table()
        flat, parent = _word_parents(batch["text"])
        n = np.zeros(batch.num_rows, np.int64)
        if len(flat):
            uniq = (
                pa.table({"p": parent, "w": flat})
                .group_by(["p", "w"])
                .aggregate([])
            )
            cnt = uniq.group_by("p").aggregate([([], "count_all")])
            n[cnt["p"].to_numpy(zero_copy_only=False)] = cnt[
                "count_all"
            ].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_distinct": pa.array(n, pa.int64()),
            }
        )

    tot = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        totals, batch_format="pyarrow", zero_copy_batch=True
    )

    joined = bucketed_join(
        tot,
        novel,
        on="doc_id",
        right_on="nv_id",
        left_schema=tot_schema,
        right_schema=novel_schema,
        join_type="left outer",
        est_rows=n_docs,
    )

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("n_distinct", pa.int64()),
            ("new_words", pa.int64()),
            ("novelty_ppm", pa.int64()),
        ]
    )

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return out_schema.empty_table()
        nd = batch["n_distinct"].to_numpy(zero_copy_only=False).astype(np.int64)
        nw = np.nan_to_num(
            batch["nw"].to_numpy(zero_copy_only=False).astype(np.float64)
        ).astype(np.int64)
        ppm = np.where(nd > 0, nw * 1_000_000 // np.maximum(nd, 1), 0)
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_distinct": pa.array(nd, pa.int64()),
                "new_words": pa.array(nw, pa.int64()),
                "novelty_ppm": pa.array(ppm, pa.int64()),
            }
        ).cast(out_schema)

    return joined.map_batches(
        finish, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


DOC_NOVELTY_SCORES_SQL = """
WITH pairs AS (
  SELECT DISTINCT doc_id, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
  FROM documents),
fw AS (SELECT word, min(doc_id) AS fd FROM pairs GROUP BY word),
nv AS (SELECT fd AS doc_id, count(*) AS new_words FROM fw GROUP BY fd),
tot AS (
  SELECT doc_id,
         CAST(len(list_distinct(regexp_extract_all(lower(text), '[a-z]+')))
              AS BIGINT) AS n_distinct
  FROM documents)
SELECT t.doc_id, t.n_distinct,
       CAST(coalesce(nv.new_words, 0) AS BIGINT) AS new_words,
       CAST(CASE WHEN t.n_distinct > 0
                 THEN coalesce(nv.new_words, 0) * 1000000 // t.n_distinct
                 ELSE 0 END AS BIGINT) AS novelty_ppm
FROM tot t LEFT JOIN nv ON nv.doc_id = t.doc_id
ORDER BY t.doc_id
"""


# ---------------------------------------------------------------------------
# multinomial Naive Bayes language scorer — the GENERATIVE counterpart of
# webtext's linear quality classifier: train per-lang word likelihoods on
# the corpus's own labels, score every doc, report the argmax.  The whole
# train-and-score plan is two bucketed exchanges; every model cell
# quantizes ONCE so scores are exact integer sums.
# ---------------------------------------------------------------------------


def naive_bayes_lang_scores(sf_dir: str) -> ray.data.Dataset:
    """Multinomial Naive Bayes with Laplace smoothing over the corpus-wide
    ``[a-z]+`` token contract: P(w|l) = (c_lw + 1) / (c_l + V), prior
    P(l) = n_l / N; per doc, score(l) = lp_l + ntok * dflt_l +
    sum_w tf * (lw - dflt_l) over words the lang HAS seen, where every
    log quantizes ONCE to the 1e-6 grid (lw = round(ln((c+1)/(c_l+V)) *
    1e6); exact .5 after an irrational ln is measure-zero — the DSIR/PMI
    convention) and the per-doc accumulation is exact int64.  Prediction
    ties break to the lexicographically smallest lang (np first-argmax ==
    SQL ORDER BY score DESC, cand).

    Plan shape: a tiny prior fold; ONE word-hash-bucket exchange folding
    (lang token totals c_l, global vocab V) — the model DENOMINATORS must
    exist before any cell quantizes; then ONE word-bucket scoring
    exchange carrying within-doc-distinct (doc, lang, word, tf) triples
    where the in-bucket kernel derives the (lang, word) counts (a word
    lives in exactly one bucket, so in-bucket sums are global), expands
    each triple to its nonzero-count candidate langs by segment
    arithmetic, and emits (doc, cand) integer partials; a doc-bucket fold
    merges partials with per-doc metadata rows (docs with zero tokens
    still score: argmax of the priors).  No vocabulary is ever broadcast
    or collected."""
    import pandas as pd

    from ..scale import bucket_count, estimate_rows

    # --- priors -----------------------------------------------------------
    # bounded: one row per language
    lang_rows = (
        read_table(sf_dir, "documents", columns=["lang"])
        .groupby("lang")
        .count()
        .take_all()
    )
    langs = sorted(r["lang"] for r in lang_rows)
    lcode = {l: i for i, l in enumerate(langs)}
    L = len(langs)
    nl = np.array([next(r["count()"] for r in lang_rows if r["lang"] == l)
                   for l in langs], np.int64)
    N = int(nl.sum())

    n_docs = estimate_rows(sf_dir, "documents")
    wb = bucket_count(n_docs * 60, min_buckets=64)
    db = bucket_count(n_docs, min_buckets=32)

    lang_set = pa.array(langs, pa.string())

    def _lang_codes(col) -> np.ndarray:
        # vectorized dictionary-encode (never a per-row Python loop)
        idx = pc.index_in(col, value_set=lang_set)
        return idx.to_numpy(zero_copy_only=False).astype(np.int64)

    # --- pass 1: model denominators (c_l, V) ------------------------------
    stat_schema = pa.schema(
        [("bucket", pa.int64()), ("li", pa.int64()), ("w", pa.string()),
         ("tf", pa.int64())]
    )

    def stat_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return stat_schema.empty_table()
        li = _lang_codes(batch["lang"].combine_chunks())[
            parent.to_numpy(zero_copy_only=False)
        ]
        t = (
            pa.table({"li": pa.array(li, pa.int64()), "w": flat})
            .group_by(["li", "w"])
            .aggregate([([], "count_all")])
            .rename_columns(["li", "w", "tf"])
        )
        h = pd.util.hash_array(t["w"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "bucket": pa.array((h & np.uint64(wb - 1)).astype(np.int64)),
                "li": t["li"],
                "w": t["w"],
                "tf": pc.cast(t["tf"], pa.int64()),
            }
        ).cast(stat_schema)

    den_schema = pa.schema([("li", pa.int64()), ("toks", pa.int64()),
                            ("vocab", pa.int64())])

    def stat_fold(group: pa.Table) -> pa.Table:
        per_lang = (
            pa.table({"li": group["li"], "tf": group["tf"]})
            .group_by("li")
            .aggregate([("tf", "sum")])
        )
        n_words = len(pc.unique(group["w"]))
        return pa.table(
            {
                "li": pa.concat_arrays(
                    [per_lang["li"].combine_chunks(), pa.array([-1], pa.int64())]
                ),
                "toks": pa.concat_arrays(
                    [
                        pc.cast(per_lang["tf_sum"], pa.int64()).combine_chunks(),
                        pa.array([0], pa.int64()),
                    ]
                ),
                "vocab": pa.array([0] * len(per_lang) + [n_words], pa.int64()),
            }
        ).cast(den_schema)

    stat_rows = bucket_exchange(
        read_table(sf_dir, "documents", columns=["lang", "text"]),
        stat_fold,
        schema=stat_schema,
        out_schema=den_schema,
        emit=stat_partial,
    ).take_all()  # bounded: (L + 1) rows per word bucket
    cl = np.zeros(L, np.int64)
    V = 0
    for r in stat_rows:
        if int(r["li"]) >= 0:
            cl[int(r["li"])] += int(r["toks"])
        V += int(r["vocab"])
    denom = (cl + V).astype(np.float64)  # c_l + V per lang
    dflt = np.round(np.log(1.0 / denom) * 1e6).astype(np.int64)
    lp = np.round(
        np.log(nl.astype(np.float64) / np.float64(N)) * 1e6
    ).astype(np.int64)

    # --- pass 2: scoring exchange -----------------------------------------
    trip_schema = pa.schema(
        [("bucket", pa.int64()), ("doc", pa.int64()), ("li", pa.int64()),
         ("w", pa.string()), ("tf", pa.int64())]
    )

    def score_partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return trip_schema.empty_table()
        pn = parent.to_numpy(zero_copy_only=False)
        ids = pc.take(batch["doc_id"].combine_chunks(), parent)
        li = _lang_codes(batch["lang"].combine_chunks())[pn]
        t = (
            pa.table(
                {"doc": pc.cast(ids, pa.int64()), "li": pa.array(li, pa.int64()),
                 "w": flat}
            )
            .group_by(["doc", "li", "w"])
            .aggregate([([], "count_all")])
            .rename_columns(["doc", "li", "w", "tf"])
        )
        h = pd.util.hash_array(t["w"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "bucket": pa.array((h & np.uint64(wb - 1)).astype(np.int64)),
                "doc": t["doc"],
                "li": t["li"],
                "w": t["w"],
                "tf": pc.cast(t["tf"], pa.int64()),
            }
        ).cast(trip_schema)

    part_schema = pa.schema(
        [("dbucket", pa.int64()), ("doc", pa.int64()), ("cand", pa.int64()),
         ("val", pa.int64())]
    )

    def score_bucket(group: pa.Table) -> pa.Table:
        uw = pc.unique(group["w"])
        wc = pc.index_in(group["w"], value_set=uw).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        li = np.asarray(group["li"], np.int64)
        tf = np.asarray(group["tf"], np.int64)
        doc = np.asarray(group["doc"], np.int64)
        nw = len(uw)
        # global (word, lang) counts: a word lives in exactly this bucket
        cell = np.zeros(nw * L, np.int64)
        np.add.at(cell, wc * L + li, tf)  # int64-exact accumulation
        nz = np.nonzero(cell)[0]
        c = cell[nz]
        lang_of = (nz % L).astype(np.int64)
        wc_of = nz // L
        lw = np.round(
            np.log((c.astype(np.float64) + 1.0) / denom[lang_of]) * 1e6
        ).astype(np.int64)
        adjw = lw - dflt[lang_of]
        # expand each triple to its word's nonzero-count candidate langs
        k_w = np.bincount(wc_of, minlength=nw)
        cum = np.concatenate([[0], np.cumsum(k_w)])
        k_i = k_w[wc]
        total = int(k_i.sum())
        rep_doc = np.repeat(doc, k_i)
        rep_tf = np.repeat(tf, k_i)
        starts = np.repeat(cum[wc], k_i)
        within = np.arange(total, dtype=np.int64) - np.repeat(
            np.concatenate([[0], np.cumsum(k_i)[:-1]]), k_i
        )
        idxs = starts + within
        cand = lang_of[idxs]
        contrib = rep_tf * adjw[idxs]
        adj = (
            pa.table(
                {
                    "key": pa.array(rep_doc * L + cand, pa.int64()),
                    "val": pa.array(contrib, pa.int64()),
                }
            )
            .group_by("key")
            .aggregate([("val", "sum")])
        )
        akey = np.asarray(adj["key"], np.int64)
        # ntok partials per doc ride as cand = -1 rows
        nt = (
            pa.table({"doc": pa.array(doc), "tf": pa.array(tf)})
            .group_by("doc")
            .aggregate([("tf", "sum")])
        )
        ndoc = np.asarray(nt["doc"], np.int64)
        out_doc = np.concatenate([akey // L, ndoc])
        out_cand = np.concatenate(
            [akey % L, np.full(len(ndoc), -1, np.int64)]
        )
        out_val = np.concatenate(
            [
                np.asarray(adj["val_sum"], np.int64),
                np.asarray(nt["tf_sum"], np.int64),
            ]
        )
        return pa.table(
            {
                "dbucket": pa.array(out_doc & (db - 1), pa.int64()),
                "doc": pa.array(out_doc, pa.int64()),
                "cand": pa.array(out_cand, pa.int64()),
                "val": pa.array(out_val, pa.int64()),
            }
        ).cast(part_schema)

    def meta_rows(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or batch.num_columns == 0:
            return part_schema.empty_table()
        doc = pc.cast(batch["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False
        ).astype(np.int64)
        li = _lang_codes(batch["lang"].combine_chunks())
        return pa.table(
            {
                "dbucket": pa.array(doc & (db - 1), pa.int64()),
                "doc": pa.array(doc, pa.int64()),
                "cand": pa.array(np.full(len(doc), -2, np.int64)),
                "val": pa.array(li, pa.int64()),
            }
        ).cast(part_schema)

    out_schema = pa.schema(
        [
            ("doc_id", pa.int64()),
            ("lang", pa.string()),
            ("nb_pred", pa.string()),
            ("nb_score_e6", pa.int64()),
        ]
    )

    def finish(group: pa.Table) -> pa.Table:
        doc = np.asarray(group["doc"], np.int64)
        cand = np.asarray(group["cand"], np.int64)
        val = np.asarray(group["val"], np.int64)
        meta = cand == -2
        udoc = np.sort(np.unique(doc[meta]))
        row = np.searchsorted(udoc, doc)
        true_li = np.zeros(len(udoc), np.int64)
        true_li[row[meta]] = val[meta]
        M = np.zeros((len(udoc), L), np.int64)
        am = cand >= 0
        np.add.at(M, (row[am], cand[am]), val[am])
        ntok = np.zeros(len(udoc), np.int64)
        ntv = cand == -1
        np.add.at(ntok, row[ntv], val[ntv])
        scores = lp[None, :] + ntok[:, None] * dflt[None, :] + M
        best = np.argmax(scores, axis=1)  # first max = smallest lang code
        lang_arr = np.array(langs)
        return pa.table(
            {
                "doc_id": pa.array(udoc, pa.int64()),
                "lang": pa.array(lang_arr[true_li]),
                "nb_pred": pa.array(lang_arr[best]),
                "nb_score_e6": pa.array(
                    scores[np.arange(len(best)), best], pa.int64()
                ),
            }
        ).cast(out_schema)

    docs = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    partials = bucket_exchange(
        docs,
        score_bucket,
        schema=trip_schema,
        out_schema=part_schema,
        emit=score_partial,
    )
    meta = read_table(sf_dir, "documents", columns=["doc_id", "lang"]).map_batches(
        meta_rows, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucket_exchange(
        partials.union(meta),
        finish,
        key="dbucket",
        schema=part_schema,
        out_schema=out_schema,
    ).sort("doc_id")


NAIVE_BAYES_LANG_SQL = """
WITH toks AS (
  SELECT doc_id, lang, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
  FROM documents),
tf AS (SELECT doc_id, w, count(*) AS tf FROM toks GROUP BY doc_id, w),
cnt AS (SELECT lang, w, count(*) AS c FROM toks GROUP BY lang, w),
cl AS (SELECT lang, count(*) AS cl FROM toks GROUP BY lang),
vv AS (SELECT count(DISTINCT w) AS v FROM toks),
pr AS (SELECT lang, count(*) AS nl FROM documents GROUP BY lang),
nn AS (SELECT count(*) AS n FROM documents),
const AS (
  SELECT pr.lang,
         CAST(round(ln(CAST(pr.nl AS DOUBLE) / nn.n) * 1000000) AS BIGINT) AS lp,
         CAST(round(ln(1.0 / (coalesce(cl.cl, 0) + vv.v)) * 1000000)
              AS BIGINT) AS dflt,
         coalesce(cl.cl, 0) + vv.v AS denom
  FROM pr LEFT JOIN cl ON cl.lang = pr.lang, vv, nn),
cellw AS (
  SELECT c.lang, c.w,
         CAST(round(ln((c.c + 1.0) / k.denom) * 1000000) AS BIGINT) AS lw,
         k.dflt
  FROM cnt c JOIN const k ON k.lang = c.lang),
adj AS (
  SELECT t.doc_id, cw.lang, sum(t.tf * (cw.lw - cw.dflt)) AS adj
  FROM tf t JOIN cellw cw ON cw.w = t.w GROUP BY t.doc_id, cw.lang),
ntok AS (SELECT doc_id, sum(tf) AS nt FROM tf GROUP BY doc_id),
scores AS (
  SELECT d.doc_id, d.lang, k.lang AS cand,
         k.lp + coalesce(nt.nt, 0) * k.dflt + coalesce(a.adj, 0) AS sc
  FROM documents d
  CROSS JOIN const k
  LEFT JOIN ntok nt ON nt.doc_id = d.doc_id
  LEFT JOIN adj a ON a.doc_id = d.doc_id AND a.lang = k.lang)
SELECT doc_id, lang, cand AS nb_pred, CAST(sc AS BIGINT) AS nb_score_e6
FROM (
  SELECT doc_id, lang, cand, sc,
         row_number() OVER (PARTITION BY doc_id ORDER BY sc DESC, cand) AS rn
  FROM scores) WHERE rn = 1
ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# Simpson lexical concentration per language — the LOG-FREE diversity
# number next to entropy (char_entropy_docs) and TTR
# (lexical_diversity_by_lang): probability two random tokens are the same
# word, an exact rational of integer counts
# ---------------------------------------------------------------------------


def simpson_diversity_by_lang(sf_dir: str) -> ray.data.Dataset:
    """Per-lang Simpson concentration on the corpus ``[a-z]+`` token
    contract: simpson_ppm = sum_w c_w*(c_w-1) * 1e6 // (T*(T-1)) — the
    probability an unordered random token pair repeats a word.  High =
    boilerplate-heavy vocabulary; 1/simpson is the "effective vocabulary
    size" a tokenizer effectively sees.  Pure integers end to end — the
    one diversity index with NO quantized log anywhere.

    Plan: the hapax_rate_by_lang exchange — per-batch (lang, word) count
    partials -> hash(word) int-bucket exchange -> in-bucket global counts
    fold to per-(bucket, lang) sum of c*(c-1) partials -> one final lang
    fold.  Overflow: in-bucket c^2 partial sums stay int64 below ~3e9
    occurrences of a single word; the driver-side total is Python-int /
    HUGEINT."""
    import pandas as pd

    from ..scale import bucket_count, estimate_rows

    n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 60, min_buckets=64)

    ds = read_table(sf_dir, "documents", columns=["lang", "text"])

    pair_schema = pa.schema(
        [
            ("bucket", pa.int64()),
            ("lang", pa.string()),
            ("word", pa.string()),
            ("n", pa.int64()),
        ]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return pair_schema.empty_table()
        lang = pc.take(batch["lang"].combine_chunks(), parent)
        t = (
            pa.table({"lang": lang, "word": flat})
            .group_by(["lang", "word"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "word", "n"])
        )
        h = pd.util.hash_array(t["word"].to_numpy(zero_copy_only=False))
        b = pa.array((h % np.uint64(n_buckets)).astype(np.int64), pa.int64())
        return pa.table(
            {"bucket": b, "lang": t["lang"], "word": t["word"], "n": t["n"]}
        ).cast(pair_schema)

    fold_schema = pa.schema(
        [("lang", pa.string()), ("vocab", pa.int64()), ("n_tokens", pa.int64()),
         ("rep2", pa.int64())]
    )

    def fold_bucket(group: pa.Table) -> pa.Table:
        tot = (
            pa.table({"lang": group["lang"], "word": group["word"], "n": group["n"]})
            .group_by(["lang", "word"])
            .aggregate([("n", "sum")])
            .rename_columns(["lang", "word", "n"])
        )
        c = tot["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        out = (
            pa.table(
                {
                    "lang": tot["lang"],
                    "one": pa.array(np.ones(len(c), np.int64)),
                    "n": tot["n"],
                    "r2": pa.array(c * (c - 1)),
                }
            )
            .group_by("lang")
            .aggregate([("one", "sum"), ("n", "sum"), ("r2", "sum")])
            .rename_columns(["lang", "vocab", "n_tokens", "rep2"])
        )
        return out.select(fold_schema.names).cast(fold_schema)

    out_schema = pa.schema(
        [
            ("lang", pa.string()),
            ("vocab", pa.int64()),
            ("n_tokens", pa.int64()),
            ("simpson_ppm", pa.int64()),
        ]
    )

    def finish(group: pa.Table) -> pa.Table:
        vocab = int(pc.sum(group["vocab"]).as_py())
        toks = int(pc.sum(group["n_tokens"]).as_py())
        rep2 = int(pc.sum(group["rep2"]).as_py())
        ppm = rep2 * 1_000_000 // (toks * (toks - 1)) if toks > 1 else 0
        return pa.table(
            {
                "lang": [group["lang"][0].as_py()],
                "vocab": pa.array([vocab], pa.int64()),
                "n_tokens": pa.array([toks], pa.int64()),
                "simpson_ppm": pa.array([ppm], pa.int64()),
            }
        )

    folded = bucket_exchange(
        ds, fold_bucket, schema=pair_schema, out_schema=fold_schema, emit=partial
    )
    return bucket_exchange(
        folded, finish, key="lang", schema=fold_schema, out_schema=out_schema
    ).sort("lang")


SIMPSON_DIVERSITY_SQL = """
WITH wc AS (
  SELECT lang, word, count(*) AS n FROM (
    SELECT lang, unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
    FROM documents)
  GROUP BY lang, word),
g AS (
  SELECT lang, count(*) AS vocab, sum(n) AS toks,
         sum(CAST(n AS HUGEINT) * (n - 1)) AS rep2
  FROM wc GROUP BY lang)
SELECT lang, CAST(vocab AS BIGINT) AS vocab, CAST(toks AS BIGINT) AS n_tokens,
       CAST(CASE WHEN toks > 1
                 THEN rep2 * 1000000 // (CAST(toks AS HUGEINT) * (toks - 1))
                 ELSE 0 END AS BIGINT) AS simpson_ppm
FROM g ORDER BY lang
"""


# ---------------------------------------------------------------------------
# per-source vocabulary ablation — the leave-one-out data-valuation number
# for corpus planning: how many words would the vocabulary LOSE if a
# source were dropped?  (the vocabulary-side complement of
# source_token_apportionment's budget split)
# ---------------------------------------------------------------------------


def source_vocab_ablation(sf_dir: str) -> ray.data.Dataset:
    """Per source: the corpus vocabulary words EXCLUSIVE to it (words
    appearing in no other source — exactly the loss of ablating the
    source), its total distinct vocabulary, and exclusive_ppm =
    exclusive * 1e6 // vocab.  A source whose vocabulary is entirely
    shared is redundant for coverage; a high-exclusive source is
    irreplaceable (or noise — cross-check hapax_rate_by_lang).

    Plan: ONE hash(word) int-bucket exchange of per-batch distinct
    (source, word) pairs; in-bucket, a word's full source set is present,
    so exclusive/vocab partials per source are exact; a tiny source fold
    finishes.  The shuffle carries one row per distinct (source, word)
    per batch — never a token."""
    import pandas as pd

    from ..scale import bucket_count, estimate_rows

    n_buckets = bucket_count(estimate_rows(sf_dir, "documents") * 60, min_buckets=64)
    ds = read_table(sf_dir, "documents", columns=["source", "text"])

    pair_schema = pa.schema(
        [("bucket", pa.int64()), ("source", pa.string()), ("word", pa.string())]
    )

    def partial(batch: pa.Table) -> pa.Table:
        flat, parent = _word_parents(batch["text"])
        if len(flat) == 0:
            return pair_schema.empty_table()
        src = pc.take(batch["source"].combine_chunks(), parent)
        t = (
            pa.table({"source": src, "word": flat})
            .group_by(["source", "word"])
            .aggregate([])
        )
        h = pd.util.hash_array(t["word"].to_numpy(zero_copy_only=False))
        return pa.table(
            {
                "bucket": pa.array((h % np.uint64(n_buckets)).astype(np.int64)),
                "source": t["source"],
                "word": t["word"],
            }
        ).cast(pair_schema)

    fold_schema = pa.schema(
        [("source", pa.string()), ("vocab", pa.int64()), ("exclusive", pa.int64())]
    )

    def fold_bucket(group: pa.Table) -> pa.Table:
        pairs = (
            pa.table({"source": group["source"], "word": group["word"]})
            .group_by(["source", "word"])
            .aggregate([])
        )
        # sources per word (the word's source set is COMPLETE in-bucket)
        nsrc = pairs.group_by("word").aggregate([([], "count_all")])
        idx = pc.index_in(pairs["word"], value_set=nsrc["word"].combine_chunks())
        k = pc.take(nsrc["count_all"].combine_chunks(), idx)
        excl = pc.cast(pc.equal(k, pa.scalar(1, pa.int64())), pa.int64())
        out = (
            pa.table({"source": pairs["source"], "one": excl})
            .group_by("source")
            .aggregate([([], "count_all"), ("one", "sum")])
            .rename_columns(["source", "vocab", "exclusive"])
        )
        return out.select(fold_schema.names).cast(fold_schema)

    out_schema = pa.schema(
        [
            ("source", pa.string()),
            ("vocab", pa.int64()),
            ("exclusive", pa.int64()),
            ("exclusive_ppm", pa.int64()),
        ]
    )

    def finish(group: pa.Table) -> pa.Table:
        vocab = int(pc.sum(group["vocab"]).as_py())
        excl = int(pc.sum(group["exclusive"]).as_py())
        return pa.table(
            {
                "source": [group["source"][0].as_py()],
                "vocab": pa.array([vocab], pa.int64()),
                "exclusive": pa.array([excl], pa.int64()),
                "exclusive_ppm": pa.array(
                    [excl * 1_000_000 // vocab if vocab else 0], pa.int64()
                ),
            }
        )

    folded = bucket_exchange(
        ds, fold_bucket, schema=pair_schema, out_schema=fold_schema, emit=partial
    )
    return bucket_exchange(
        folded, finish, key="source", schema=fold_schema, out_schema=out_schema
    ).sort("source")


SOURCE_VOCAB_ABLATION_SQL = """
WITH pairs AS (
  SELECT DISTINCT source,
         unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
  FROM documents),
ns AS (SELECT word, count(*) AS k FROM pairs GROUP BY word),
g AS (
  SELECT p.source, count(*) AS vocab,
         sum(CASE WHEN ns.k = 1 THEN 1 ELSE 0 END) AS exclusive
  FROM pairs p JOIN ns ON ns.word = p.word
  GROUP BY p.source)
SELECT source, CAST(vocab AS BIGINT) AS vocab,
       CAST(exclusive AS BIGINT) AS exclusive,
       CAST(CASE WHEN vocab > 0 THEN exclusive * 1000000 // vocab
                 ELSE 0 END AS BIGINT) AS exclusive_ppm
FROM g ORDER BY source
"""
