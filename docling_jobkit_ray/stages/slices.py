"""Page-slice fan-out + group-by-url reassembly for oversized binary docs.

Ray-Data-native re-expression of the reference's single-PDF slice fan-out
(``/root/reference/docling_jobkit/orchestrators/ray/serve_deployment.py:437-464``
slice plan, ``:510-549`` reassembly, ``:467-482`` timing merge):

- plan: one oversized binary row -> N slice rows of <= slice_pages pages.
  Unlike the reference (which shares whole-PDF bytes via ``ray.put`` and has
  every slice child deref the full payload, ``serve_deployment.py:1253-1258``),
  the container's page directory lets each slice row carry ONLY its own byte
  range — zero payload duplication through the shuffle.
- extract: slices are just rows through the same actor-pool stage.
- reassemble: one ``exchange.bucket_exchange`` on a url-hash bucket
  (``url_bucket_adder``; ``exchange.py`` is the only module that calls
  ``map_groups``, tests/test_exchange.py guards it) with an in-group sort on
  (url, ``slice_index``); page numbering is absolute so concatenation needs no
  renumbering.  Status merge: SUCCESS iff all slices SUCCESS, any failure
  degrades to PARTIAL_SUCCESS, all-failed -> FAILURE; errors concatenated —
  exactly the reference's merge semantics (``serve_deployment.py:510-549``).
"""

from __future__ import annotations

import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..extract import binarydoc
from ..extract.errors import (
    CATEGORY_TIMEOUT,
    STATUS_FAILURE,
    STATUS_PARTIAL_SUCCESS,
    STATUS_SUCCESS,
    DocumentTimeoutError,
)
from ..extract.record import (
    ExtractOptions,
    assemble_pages,
    document_deadline,
    page_span,
    pages_doc_json,
)
from .extract import EXTRACTED_SCHEMA, partition_id_for_path, rows_to_extracted_table

SLICE_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("slice_index", pa.int32()),
        ("n_slices", pa.int32()),
        ("page_start", pa.int32()),
        ("page_lens", pa.list_(pa.int32())),
        ("payload", pa.binary()),
        ("path", pa.string()),
    ]
)


def is_big_binary(
    payload: bytes,
    slice_pages: int,
    *,
    max_pages: int | None = None,
    max_bytes: int | None = None,
    page_range: tuple[int, int] | None = None,
) -> bool:
    """True iff the row should take the slice fan-out path.

    Docs that would FAIL admission preflight (over ``max_pages`` /
    ``max_bytes``) return False so they route through the rest branch and
    ``extract_record`` emits the proper FAILURE row — sliced mode must not
    silently succeed on documents the other modes reject.  With a
    ``page_range``, the SELECTED page count decides (a 200-page doc whose
    range selects 5 pages is not worth fanning out — and an empty selection
    must route inline so its empty-success row is still emitted)."""
    if payload is None or not binarydoc.is_binary_doc(payload):
        return False
    if max_bytes is not None and len(payload) > max_bytes:
        return False
    try:
        directory = binarydoc.parse_directory(payload)
    except Exception:
        return False
    if max_pages is not None and len(directory) > max_pages:
        return False
    lo, hi = page_span(len(directory), page_range)
    return (hi - lo) > slice_pages


_PREFIX_LEN = len(binarydoc.MAGIC) + 2  # magic + u16 page_count
_MAGIC_ARR = np.frombuffer(binarydoc.MAGIC, dtype=np.uint8)


def big_binary_mask(
    batch: pa.Table,
    slice_pages: int,
    *,
    max_pages: int | None = None,
    max_bytes: int | None = None,
    page_range: tuple[int, int] | None = None,
) -> np.ndarray:
    """Vectorized slice-fan-out decision, ZERO full-payload copies for the
    common (small/HTML) rows: lengths via ``pc.binary_length``, the container
    magic + page_count via a 10-byte ``pc.binary_slice`` prefix (the only
    bytes that leave Arrow for non-candidates), and the full structural
    ``parse_directory`` check only on the few rows whose header claims more
    than ``slice_pages`` pages."""
    col = batch.column("html")
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = batch.num_rows
    mask = np.zeros(n, dtype=bool)
    if n == 0:
        return mask
    lengths = pc.binary_length(col).to_numpy(zero_copy_only=False)
    cand = lengths >= _PREFIX_LEN
    if max_bytes is not None:
        cand &= lengths <= max_bytes  # oversize -> rest branch -> preflight FAILURE
    idx = np.flatnonzero(cand)
    if idx.size == 0:
        return mask
    prefixes = pc.binary_slice(col.take(pa.array(idx)), 0, _PREFIX_LEN).to_pylist()
    arr = np.frombuffer(b"".join(prefixes), dtype=np.uint8).reshape(-1, _PREFIX_LEN)
    magic_ok = (arr[:, : len(binarydoc.MAGIC)] == _MAGIC_ARR).all(axis=1)
    page_count = arr[:, -2].astype(np.int32) | (arr[:, -1].astype(np.int32) << 8)
    if page_range is None:
        selected = page_count
    else:
        # vectorized page_span: selected pages after per-doc clamping
        selected = np.minimum(page_count, page_range[1]) - np.minimum(
            page_count, page_range[0] - 1
        )
    claim = magic_ok & (selected > slice_pages)
    if max_pages is not None:
        claim &= page_count <= max_pages
    cidx = idx[claim]
    if cidx.size:
        # full structural validation on the claimed-big minority only
        payloads = col.take(pa.array(cidx)).to_pylist()
        for j, p in zip(cidx, payloads):
            mask[j] = is_big_binary(
                p, slice_pages, max_pages=max_pages, max_bytes=max_bytes,
                page_range=page_range,
            )
    return mask


def keep_big_binary(
    slice_pages: int,
    *,
    max_pages: int | None = None,
    max_bytes: int | None = None,
    page_range: tuple[int, int] | None = None,
):
    """Filter stage: keep only rows needing slice fan-out (vectorized)."""

    def _fn(batch: pa.Table) -> pa.Table:
        m = big_binary_mask(
            batch, slice_pages, max_pages=max_pages, max_bytes=max_bytes,
            page_range=page_range,
        )
        return batch.filter(pa.array(m))

    return _fn


def drop_big_binary(
    slice_pages: int,
    *,
    max_pages: int | None = None,
    max_bytes: int | None = None,
    page_range: tuple[int, int] | None = None,
):
    def _fn(batch: pa.Table) -> pa.Table:
        m = big_binary_mask(
            batch, slice_pages, max_pages=max_pages, max_bytes=max_bytes,
            page_range=page_range,
        )
        return batch.filter(pa.array(~m))

    return _fn


def plan_slices(slice_pages: int, *, page_range: tuple[int, int] | None = None):
    """map_batches UDF: big-binary page rows -> slice rows (the slice plan,
    ``_build_slice_plan`` serve_deployment.py:437-464).  Each slice row
    carries only its pages' bytes, cut using the page directory.  With a
    ``page_range`` only the selected sub-range is planned (the same
    ``page_span`` clamp the inline parse path uses, manager.py:1739
    analogue), so sliced output stays byte-identical to inline."""

    def _fn(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        payloads = batch.column("html").to_pylist()
        paths = (
            batch.column("path").to_pylist()
            if "path" in batch.column_names
            else [None] * len(urls)
        )
        out = {name: [] for name in SLICE_SCHEMA.names}
        for url, payload, path in zip(urls, payloads, paths):
            directory = binarydoc.parse_directory(payload)
            lo, hi = page_span(len(directory), page_range)
            n_sel = hi - lo
            n_slices = (n_sel + slice_pages - 1) // slice_pages
            for s in range(n_slices):
                start = lo + s * slice_pages
                stop = min(start + slice_pages, hi)
                first_off = directory[start][0]
                last_off, last_len = directory[stop - 1]
                out["url"].append(url)
                out["slice_index"].append(s)
                out["n_slices"].append(n_slices)
                out["page_start"].append(start)
                out["page_lens"].append([directory[i][1] for i in range(start, stop)])
                out["payload"].append(payload[first_off : last_off + last_len])
                out["path"].append(path)
        return pa.Table.from_arrays(
            [pa.array(out[f.name], type=f.type) for f in SLICE_SCHEMA],
            schema=SLICE_SCHEMA,
        )

    return _fn


SLICE_EXTRACT_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("slice_index", pa.int32()),
        ("n_slices", pa.int32()),
        ("n_pages", pa.int32()),
        ("status", pa.string()),
        # per-page texts (NOT pre-joined: pages may contain arbitrary text,
        # including PAGE_SEP, so joining is deferred to reassembly)
        ("page_texts", pa.list_(pa.string())),
        ("error", pa.string()),
        ("category", pa.string()),
        ("partition_id", pa.int32()),
    ]
)


class ExtractSlices:
    """Actor-pool UDF: slice rows -> per-slice extracted partials.
    Equivalent of the slice-convert children (serve_deployment.py:855-882)."""

    def __init__(self, options: ExtractOptions | dict | None = None):
        if options is None:
            options = ExtractOptions()
        elif isinstance(options, dict):
            options = ExtractOptions(**options)
        self.options = options

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = {name: [] for name in SLICE_EXTRACT_SCHEMA.names}
        urls = batch.column("url").to_pylist()
        slice_idx = batch.column("slice_index").to_pylist()
        n_slices = batch.column("n_slices").to_pylist()
        page_lens = batch.column("page_lens").to_pylist()
        payloads = batch.column("payload").to_pylist()
        paths = batch.column("path").to_pylist()
        for url, si, ns, lens, payload, path in zip(
            urls, slice_idx, n_slices, page_lens, payloads, paths
        ):
            texts: list[str] = []
            errors: list[str] = []
            category = None
            # the per-document wall-clock budget applies PER SLICE here —
            # slices are this mode's unit of parse work, mirroring the
            # reference's per-child-conversion timeout
            try:
                with document_deadline(self.options.document_timeout):
                    off = 0
                    for j, ln in enumerate(lens):
                        text, err = binarydoc.parse_page(payload, off, ln)
                        if err is not None:
                            errors.append(f"slice {si} page {j}: {err}")
                            texts.append("")
                        else:
                            texts.append(text)
                        off += ln
            except DocumentTimeoutError as exc:
                texts = [""] * len(lens)
                errors = [f"slice {si}: {type(exc).__name__}: {exc}"]
                category = CATEGORY_TIMEOUT
            if category == CATEGORY_TIMEOUT or (errors and len(errors) == len(lens)):
                status = STATUS_FAILURE
            elif errors:
                status = STATUS_PARTIAL_SUCCESS
            else:
                status = STATUS_SUCCESS
            out["url"].append(url)
            out["slice_index"].append(si)
            out["n_slices"].append(ns)
            out["n_pages"].append(len(lens))
            out["status"].append(status)
            out["page_texts"].append(texts)
            out["error"].append("; ".join(errors) if errors else None)
            out["category"].append(category)
            out["partition_id"].append(partition_id_for_path(path, url))
        return pa.Table.from_arrays(
            [pa.array(out[f.name], type=f.type) for f in SLICE_EXTRACT_SCHEMA],
            schema=SLICE_EXTRACT_SCHEMA,
        )


def _merge_one(
    url: str,
    statuses: list[str],
    errors_in: list[str | None],
    n_pages_list: list[int],
    page_text_lists: list[list[str]],
    partition_id: int,
    categories: list[str | None] | None = None,
) -> dict:
    """Merge one url's slice partials (already in slice_index order) into a
    document row.  Text concat with PAGE_SEP via the SAME ``assemble_pages``
    helper the inline path uses — byte-identity by construction; status
    merge per ``_assemble_slice_results`` (serve_deployment.py:510-549)."""
    errors = [e for e in errors_in if e]
    n_pages_total = int(sum(n_pages_list))
    page_texts: list[str] = []
    for pts in page_text_lists:
        page_texts.extend(pts)
    text, spans = assemble_pages(page_texts)
    doc_json = pages_doc_json(text, spans, n_pages_total)

    if all(s == STATUS_SUCCESS for s in statuses):
        status = STATUS_SUCCESS
    elif all(s == STATUS_FAILURE for s in statuses):
        status = STATUS_FAILURE
    else:
        status = STATUS_PARTIAL_SUCCESS

    if status == STATUS_FAILURE:
        # propagate the most specific slice category (a timed-out slice is
        # a TIMEOUT document, same as the inline path would report)
        category = next((c for c in (categories or []) if c), "internal")
        return {
            "url": url,
            "status": status,
            "text": "",
            "spans": [],
            "doc_json": "",
            "n_chars": 0,
            "error": "; ".join(errors),
            "category": category,
            "retryable": category == CATEGORY_TIMEOUT,
            "partition_id": int(partition_id),
        }
    return {
        "url": url,
        "status": status,
        "text": text,
        "spans": spans,
        "doc_json": doc_json,
        "n_chars": len(text),
        "error": "; ".join(errors) if errors else None,
        "category": None,
        "retryable": None,
        "partition_id": int(partition_id),
    }


def reassemble_group(group: pd.DataFrame) -> pd.DataFrame:
    """Per-url fold: merge ONE url's slices back into one
    document row (kept as the single-url reference path; the pipeline uses
    the bucketized :func:`reassemble_bucket`)."""
    group = group.sort_values("slice_index")
    return pd.DataFrame(
        [
            _merge_one(
                group["url"].iloc[0],
                list(group["status"]),
                list(group["error"]),
                list(group["n_pages"]),
                list(group["page_texts"]),
                group["partition_id"].iloc[0],
                categories=list(group["category"]) if "category" in group else None,
            )
        ]
    )


N_REASSEMBLY_BUCKETS = 64


def url_bucket_adder(n_buckets: int = N_REASSEMBLY_BUCKETS):
    """Shuffle key for reassembly: a COARSE url-hash bucket, not the raw url
    — grouping on url fires one Python call (and one block build) per
    document (CLAUDE.md bucketize rule); slice rows are only the oversized
    minority, so the per-row crc is cheap.  ``n_buckets`` must scale with
    the slice-row volume (the pipeline derives it from the corpus footer
    row count via ``scale.bucket_count``) so one bucket group stays bounded."""
    mask = n_buckets - 1

    def fn(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        b = pa.array(
            [zlib.crc32(u.encode("utf-8")) & mask for u in urls],
            pa.int32(),
        )
        return batch.append_column("bucket", b)

    return fn


# default-width adder kept for direct composition in tests/small jobs
add_url_bucket = url_bucket_adder()


def reassemble_bucket(group: pd.DataFrame) -> pd.DataFrame:
    """Per-bucket fold (pandas): merge EVERY url in the bucket in one
    vectorized pass (sort by (url, slice_index), url segment boundaries via
    numpy, one ``_merge_one`` per document)."""
    g = group.sort_values(["url", "slice_index"], kind="mergesort").reset_index(drop=True)
    urls = g["url"].to_numpy()
    starts = np.flatnonzero(np.r_[True, urls[1:] != urls[:-1]])
    bounds = np.append(starts, len(urls))
    statuses = g["status"].to_numpy()
    errors = g["error"].to_numpy()
    n_pages = g["n_pages"].to_numpy()
    ptexts = g["page_texts"].to_numpy()
    cats = g["category"].to_numpy() if "category" in g else None
    pids = g["partition_id"].to_numpy()
    rows = [
        _merge_one(
            urls[s],
            list(statuses[s:e]),
            list(errors[s:e]),
            list(n_pages[s:e]),
            list(ptexts[s:e]),
            pids[s],
            categories=list(cats[s:e]) if cats is not None else None,
        )
        for s, e in zip(bounds[:-1], bounds[1:])
    ]
    return pd.DataFrame(rows)


def reassembled_to_arrow(df: pd.DataFrame) -> pa.Table:
    return rows_to_extracted_table(df.to_dict("records"))


EXTRACTED_SCHEMA_REF = EXTRACTED_SCHEMA  # re-export for pipeline assembly
