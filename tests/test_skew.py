"""Skew / oversized-document handling: slice fan-out over a giant binary doc
and a giant HTML row in one shard task."""

from __future__ import annotations

import pyarrow as pa
import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def skewed_corpus(tmp_path_factory):
    from docling_jobkit_ray.extract.binarydoc import build_binary_doc
    from docling_jobkit_ray.fixtures.corpus import generate_rows, rows_to_table

    d = tmp_path_factory.mktemp("skew")
    cols = generate_rows(50, seed=7, poison_frac=0.0, binary_frac=0.0)
    # one giant binary doc: 200 pages (20 slices at slice_pages=10)
    pages = [f"Giant page {i} content with several words of payload text." for i in range(200)]
    cols["url"].append("https://giant.example/binary")
    cols["warc_ts"].append(cols["warc_ts"][0])
    cols["html"].append(build_binary_doc(pages))
    cols["text"].append("")
    cols["lang"].append("en")
    # one giant html doc (~2.5 MB)
    big_html = (
        "<html><body><main>"
        + "".join(f"<p>Large paragraph {i} " + "word " * 60 + "</p>" for i in range(6000))
        + "</main></body></html>"
    )
    cols["url"].append("https://giant.example/html")
    cols["warc_ts"].append(cols["warc_ts"][0])
    cols["html"].append(big_html.encode())
    cols["text"].append("")
    cols["lang"].append("en")
    pq.write_table(rows_to_table(cols), str(d / "pages-00000.parquet"))
    return str(d)


def _oracle(skewed_corpus):
    from docling_jobkit_ray.extract.record import ExtractOptions, extract_record

    t = pq.read_table(f"{skewed_corpus}/pages-00000.parquet", columns=["url", "html"])
    opts = ExtractOptions()
    return {
        u: extract_record(u, h, opts)
        for u, h in zip(t.column("url").to_pylist(), t.column("html").to_pylist())
    }


@pytest.mark.parametrize("mode", ["sliced", "fused"])
def test_giant_docs_byte_identical(ray_session, skewed_corpus, mode):
    from docling_jobkit_ray.pipelines.extract import extract_pipeline

    oracle = _oracle(skewed_corpus)
    got = {
        r["url"]: r
        for r in extract_pipeline(skewed_corpus, mode=mode, concurrency=(1, 2)).take_all()
    }
    assert set(got) == set(oracle)
    for url in ("https://giant.example/binary", "https://giant.example/html"):
        assert got[url]["status"] == "SUCCESS"
        assert got[url]["text"] == oracle[url]["text"]
        assert got[url]["doc_json"] == oracle[url]["doc_json"]


def test_slice_plan_shape(skewed_corpus):
    """The giant binary doc must be planned into 20 byte-range slices that
    reconstruct the payload exactly (zero duplication)."""
    from docling_jobkit_ray.extract import binarydoc
    from docling_jobkit_ray.stages.slices import plan_slices

    t = pq.read_table(f"{skewed_corpus}/pages-00000.parquet", columns=["url", "html"])
    mask = pa.compute.equal(t["url"], "https://giant.example/binary")
    big = t.filter(mask).append_column("path", pa.array(["x"], pa.string()))
    slices = plan_slices(10)(big)
    assert slices.num_rows == 20
    payload = big.column("html")[0].as_py()
    directory = binarydoc.parse_directory(payload)
    total_payload_bytes = sum(ln for _off, ln in directory)
    shipped = sum(len(p) for p in slices.column("payload").to_pylist())
    assert shipped == total_payload_bytes  # each slice ships ONLY its pages
    assert slices.column("slice_index").to_pylist() == list(range(20))


def test_bucketed_join_hot_key(ray_session):
    """90% of the left side on ONE key: the bucketed join must stay correct
    (a hot key is bounded by its bucket, never a per-key Python group)."""
    import pyarrow as pa
    import ray.data

    from docling_jobkit_ray.pipelines.joins import bucketed_join

    hot = [7] * 9000 + list(range(1000))
    left = ray.data.from_arrow(
        pa.table({"k": pa.array(hot, pa.int64()), "lv": pa.array(range(10000), pa.int64())})
    )
    right = ray.data.from_arrow(
        pa.table({"rk": pa.array([7, 3], pa.int64()), "rv": pa.array([70, 30], pa.int64())})
    )
    out = bucketed_join(
        left, right, on="k", right_on="rk",
        left_schema=pa.schema([("k", pa.int64()), ("lv", pa.int64())]),
        right_schema=pa.schema([("rk", pa.int64()), ("rv", pa.int64())]),
    ).to_pandas()
    assert len(out) == 9002  # 9001 matches on key 7 (hot + one in range) + key 3
    assert (out[out["k"] == 7]["rv"] == 70).all()


def test_sessionize_hot_user(ray_session, tmp_path):
    """One user owning 95% of events must still sessionize correctly (the
    bucket holds the whole user; ordering happens inside the vectorized
    pandas pass)."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from docling_jobkit_ray.pipelines.relational import events_sessionize

    t0 = dt.datetime(2024, 1, 1)
    rows = {"user_id": [], "ts": [], "value": []}
    for i in range(1900):  # hot user: event every 10 min -> one session
        rows["user_id"].append(1)
        rows["ts"].append(t0 + dt.timedelta(minutes=10 * i))
        rows["value"].append(1.0)
    for u in range(2, 102):  # 100 cold users, 1 event each
        rows["user_id"].append(u)
        rows["ts"].append(t0)
        rows["value"].append(2.0)
    d = tmp_path / "skew_events"
    d.mkdir()
    pq.write_table(
        pa.table(
            {
                "user_id": pa.array(rows["user_id"], pa.int64()),
                "ts": pa.array(rows["ts"], pa.timestamp("us")),
                "value": pa.array(rows["value"], pa.float64()),
            }
        ),
        str(d / "events.parquet"),
    )
    out = events_sessionize(str(d)).to_pandas()
    hot = out[out["user_id"] == 1]
    assert len(hot) == 1 and hot["n_events"].iloc[0] == 1900  # one long session
    assert len(out) == 101
