"""Export projections: extracted rows -> md / txt / doctags columns + stats.

Parity with the reference's in-body export projections
(``/root/reference/docling_jobkit/convert/results.py:210-251``
``_export_document_as_content`` — md/html/txt/doctags renderings of one
DoclingDocument) and its per-document stats row
(``convert/results.py:254-288`` — num_pages, num_characters, num_tables)
and feature-count vector (``convert/results_processor.py:289-370``).

All stateless vectorizable-ish map_batches stages: rendering walks the spans
of each row (cheap string ops), so a plain task pool is enough — no actor
state needed (unlike the parse stage)."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..extract.html import (
    KIND_HEADING,
    KIND_LIST_ITEM,
    KIND_PAGE,
    KIND_PARAGRAPH,
    KIND_TABLE,
)

# feature vector layout (analogue of FEATURE_LABELS, results_processor.py:30-47)
FEATURE_KINDS = [KIND_PARAGRAPH, KIND_HEADING, KIND_LIST_ITEM, KIND_TABLE, KIND_PAGE]


def render_markdown(text: str, spans: list[dict]) -> str:
    """Deterministic markdown rendering from text + spans."""
    parts: list[str] = []
    for s in spans or []:
        seg = text[s["start"] : s["end"]]
        kind = s["kind"]
        if kind == KIND_HEADING:
            parts.append(f"## {seg}")
        elif kind == KIND_LIST_ITEM:
            parts.append(f"- {seg}")
        elif kind == KIND_TABLE:
            parts.append(f"| {seg} |")
        else:
            parts.append(seg)
    return "\n\n".join(parts)


def render_html(text: str, spans: list[dict]) -> str:
    """Deterministic HTML rendering from text + spans — the analogue of the
    reference's ``save_as_html`` projection (``convert/export.py:91-106``
    routes one DoclingDocument through docling's HTML serializer; here the
    span kinds map onto semantic tags).  Segments are entity-escaped;
    consecutive list items coalesce into one ``<ul>``; page spans render as
    ``<hr/>`` separators."""
    import html as _html

    body: list[str] = []
    in_list = False
    for s in spans or []:
        seg = _html.escape(text[s["start"] : s["end"]], quote=False)
        kind = s["kind"]
        if kind == KIND_LIST_ITEM:
            if not in_list:
                body.append("<ul>")
                in_list = True
            body.append(f"<li>{seg}</li>")
            continue
        if in_list:
            body.append("</ul>")
            in_list = False
        if kind == KIND_HEADING:
            body.append(f"<h2>{seg}</h2>")
        elif kind == KIND_TABLE:
            body.append(f"<table><tr><td>{seg}</td></tr></table>")
        elif kind == KIND_PAGE:
            body.append("<hr/>")
        else:
            body.append(f"<p>{seg}</p>")
    if in_list:
        body.append("</ul>")
    return "<!DOCTYPE html>\n<html><body>\n" + "\n".join(body) + "\n</body></html>"


def render_doctags(text: str, spans: list[dict]) -> str:
    """Doctags-style flat markup: <kind>segment</kind> per span (stands in
    for the reference's doctags serialization)."""
    out = []
    for s in spans or []:
        seg = text[s["start"] : s["end"]]
        out.append(f"<{s['kind']}>{seg}</{s['kind']}>")
    return "".join(out)


def export_projections(batch: pa.Table) -> pa.Table:
    """Add md + html + doctags columns to extracted rows."""
    texts = batch.column("text").to_pylist()
    spans = batch.column("spans").to_pylist()
    md = pa.array(
        [render_markdown(t, sp or []) for t, sp in zip(texts, spans)], pa.string()
    )
    html = pa.array(
        [render_html(t, sp or []) for t, sp in zip(texts, spans)], pa.string()
    )
    doctags = pa.array(
        [render_doctags(t, sp or []) for t, sp in zip(texts, spans)], pa.string()
    )
    return (
        batch.append_column("md", md)
        .append_column("html", html)
        .append_column("doctags", doctags)
    )


def doc_stats(batch: pa.Table) -> pa.Table:
    """Per-doc stats projection (_build_document_completed_item analogue):
    num_characters, num_spans, num_tables, num_headings, num_pages, and the
    feature-count vector."""
    texts = batch.column("text").to_pylist()
    spans = batch.column("spans").to_pylist()
    n_spans, n_tables, n_headings, n_pages, features = [], [], [], [], []
    for sp in spans:
        sp = sp or []
        kinds = [s["kind"] for s in sp]
        n_spans.append(len(sp))
        n_tables.append(kinds.count(KIND_TABLE))
        n_headings.append(kinds.count(KIND_HEADING))
        n_pages.append(kinds.count(KIND_PAGE))
        features.append([kinds.count(k) for k in FEATURE_KINDS])
    return pa.table(
        {
            "url": batch["url"],
            "status": batch["status"],
            "num_characters": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            "num_spans": pa.array(n_spans, pa.int32()),
            "num_tables": pa.array(n_tables, pa.int32()),
            "num_headings": pa.array(n_headings, pa.int32()),
            "num_pages": pa.array(n_pages, pa.int32()),
            "features": pa.array(features, pa.list_(pa.int32())),
        }
    )


def explode_elements(batch: pa.Table) -> pa.Table:
    """Fan each extracted document out to ONE ROW PER ELEMENT — the
    structured-elements dataset a document-AI user queries ("give me every
    table in the corpus", "all headings under 40 chars"): url, element
    index, kind, char offsets, and the element's text slice.

    The slice comes from the SAME (text, spans) pair the exports render
    from, so ``element_text == text[start:end]`` holds by construction
    (pinned in tests).  Reference parity: the reference exports whole
    documents per target (``targets/*``); element granularity is the
    fan-out Ray Data adds for free via this flat map."""
    urls = batch.column("url").to_pylist()
    texts = batch.column("text").to_pylist()
    spans = batch.column("spans").to_pylist()
    out_url: list[str] = []
    out_idx: list[int] = []
    out_kind: list[str] = []
    out_start: list[int] = []
    out_end: list[int] = []
    out_text: list[str] = []
    for u, t, sp in zip(urls, texts, spans):
        for i, s in enumerate(sp or []):
            out_url.append(u)
            out_idx.append(i)
            out_kind.append(s["kind"])
            out_start.append(s["start"])
            out_end.append(s["end"])
            out_text.append((t or "")[s["start"] : s["end"]])
    return pa.table(
        {
            "url": pa.array(out_url, pa.string()),
            "element_index": pa.array(out_idx, pa.int64()),
            "kind": pa.array(out_kind, pa.string()),
            "start": pa.array(out_start, pa.int64()),
            "end": pa.array(out_end, pa.int64()),
            "element_text": pa.array(out_text, pa.string()),
        }
    )


def elements_pipeline(extracted: ray.data.Dataset, *, kinds: list[str] | None = None) -> ray.data.Dataset:
    """Corpus-wide element dataset (optionally filtered to some kinds —
    the filter runs AFTER the explode inside the same fused task, so only
    requested elements ever become blocks)."""
    out = extracted.map_batches(
        explode_elements, batch_format="pyarrow", zero_copy_batch=True
    )
    if kinds:
        wanted = pa.array(kinds, pa.string())
        out = out.map_batches(
            lambda b: b.filter(pc.is_in(b["kind"], value_set=wanted)),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    return out


def export_pipeline(extracted: ray.data.Dataset) -> ray.data.Dataset:
    return extracted.map_batches(
        export_projections, batch_format="pyarrow", zero_copy_batch=True
    )


def doc_stats_pipeline(extracted: ray.data.Dataset) -> ray.data.Dataset:
    return extracted.map_batches(doc_stats, batch_format="pyarrow", zero_copy_batch=True)


def _commit_shards(out_dir: str, ext: str, write) -> dict:
    """Staged shard export: ``write(staging) -> rows`` fills the staging
    dir with ``*.<ext>`` files; ``_SUCCESS`` records {rows, files}, and a
    committed ``out_dir`` replays as a no-op returning that record."""
    import glob as _glob
    import json as _json
    import os

    from ..state.commit import read_marker, staged_dir

    meta = read_marker(out_dir, "_SUCCESS")
    if meta is not None:
        return {**_json.loads(meta), "committed": False}
    with staged_dir(out_dir, marker="_SUCCESS") as st:
        rows = write(st.path)
        files = _glob.glob(os.path.join(st.path, f"*.{ext}"))
        st.marker_text = _json.dumps({"rows": rows, "files": len(files)})
    return {"rows": rows, "files": len(files), "committed": True}


def export_jsonl_shards(ds: ray.data.Dataset, out_dir: str) -> dict:
    """Materialize a Dataset as sharded JSONL — the interchange format LLM
    training stacks consume (one JSON object per line, one file per block,
    so a 256-node reader streams shards independently).

    Staged-write protocol shared with the checkpoint/training sinks:
    write into ``<out_dir>.staging``, stamp ``_SUCCESS`` with the row
    count, atomically rename — a crashed export leaves only a staging dir
    a replay discards, and a committed export replays as a no-op.
    Returns {rows, files, committed}."""
    import glob as _glob
    import os

    def write(staging: str) -> int:
        ds.write_json(staging)
        rows = 0
        for f in _glob.glob(os.path.join(staging, "*.json")):
            with open(f) as fh:
                rows += sum(1 for _ in fh)
        return rows

    return _commit_shards(out_dir, "json", write)


def export_ipc_shards(ds: ray.data.Dataset, out_dir: str) -> dict:
    """Materialize a Dataset as sharded Arrow IPC (Feather v2) files — the
    zero-copy interchange format for Arrow-native consumers (a reader
    memory-maps each shard; no parse step at all, unlike JSONL).

    Same staged-write commit protocol as :func:`export_jsonl_shards`:
    staging dir, per-shard files, ``_SUCCESS`` with counts, atomic rename.
    Each input BLOCK becomes one ``.arrow`` file via ``map_batches`` with
    ``batch_size=None`` — the write is embarrassingly parallel and a
    256-node reader streams shards independently."""
    import os
    import uuid

    import pyarrow.feather as _feather

    def write(staging: str) -> int:
        def write_block(batch: pa.Table) -> pa.Table:
            if batch.num_rows:
                path = os.path.join(staging, f"shard-{uuid.uuid4().hex}.arrow")
                _feather.write_feather(batch, path)
            return pa.table({"rows": pa.array([batch.num_rows], pa.int64())})

        blocks = ds.map_batches(write_block, batch_format="pyarrow", batch_size=None)
        return sum(r["rows"] for r in blocks.take_all())

    return _commit_shards(out_dir, "arrow", write)
