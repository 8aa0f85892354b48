"""Preset registry + allowlist gate, and the VLM pipeline family."""

from __future__ import annotations

import pytest

from docling_jobkit_ray.extract.presets import (
    PresetNotAllowedError,
    get_preset,
    list_presets,
    register_preset,
    set_allowed_presets,
)
from docling_jobkit_ray.extract.record import ExtractOptions
from docling_jobkit_ray.pipelines.extract import extract_pipeline


def test_preset_registry_and_allowlist():
    assert {"default", "strict", "permissive", "aggressive_strip"} <= set(list_presets())
    assert get_preset("strict").max_bytes == 4 * 1024 * 1024
    with pytest.raises(KeyError):
        get_preset("nope")
    with pytest.raises(ValueError):
        register_preset("default", ExtractOptions())  # no silent override
    with pytest.raises(TypeError):
        register_preset("bad", {"max_bytes": 1})
    try:
        set_allowed_presets(["default", "strict"])
        get_preset("strict")  # allowed
        with pytest.raises(PresetNotAllowedError):
            get_preset("permissive")
        with pytest.raises(KeyError):
            set_allowed_presets(["typo_preset"])
    finally:
        set_allowed_presets(None)
    get_preset("permissive")  # gate lifted


def test_extract_pipeline_resolves_preset(ray_session, corpus_dir):
    # strict preset (max_pages=100) behaves like the explicit options object
    via_preset = extract_pipeline(corpus_dir, preset="strict", concurrency=(1, 2))
    via_opts = extract_pipeline(
        corpus_dir,
        options=ExtractOptions(max_bytes=4 * 1024 * 1024, max_pages=100, slice_pages=10),
        concurrency=(1, 2),
    )
    a = sorted((r["url"], r["status"]) for r in via_preset.select_columns(["url", "status"]).take_all())
    b = sorted((r["url"], r["status"]) for r in via_opts.select_columns(["url", "status"]).take_all())
    assert a == b
    with pytest.raises(ValueError):
        extract_pipeline(corpus_dir, preset="strict", options=ExtractOptions())


def test_vlm_pipeline_family(ray_session, corpus_dir):
    with pytest.raises(ValueError):
        extract_pipeline(corpus_dir, pipeline="quantum")
    std = extract_pipeline(corpus_dir, mode="fused")
    vlm = extract_pipeline(corpus_dir, mode="fused", pipeline="vlm", concurrency=(1, 2))
    assert "vlm_json" not in std.schema().names
    rows = {r["url"]: r for r in vlm.take_all()}
    assert "vlm_json" in next(iter(rows.values()))
    import json

    n_described = 0
    for r in rows.values():
        if r["status"] == "FAILURE":
            assert r["vlm_json"] == ""
            continue
        payload = json.loads(r["vlm_json"])
        assert payload["model"] == "fake-page-describer/1"
        assert len(payload["pages"]) >= 1
        n_described += 1
    assert n_described > 0
    # extraction columns are untouched by the enrichment stage
    std_rows = {r["url"]: r for r in std.take_all()}
    for url, r in rows.items():
        assert r["text"] == std_rows[url]["text"]

    # determinism: the fake model is a pure function of page text
    vlm2 = {
        r["url"]: r["vlm_json"]
        for r in extract_pipeline(
            corpus_dir, mode="fused", pipeline="vlm", concurrency=(1, 2)
        ).take_all()
    }
    assert vlm2 == {u: r["vlm_json"] for u, r in rows.items()}


def test_cli_checkpointed_vlm(ray_session, corpus_dir, tmp_path):
    """--pipeline vlm must reach the checkpointed (default) CLI path: the
    written partitions carry vlm_json."""
    import glob

    import pyarrow.parquet as pq

    from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

    out = str(tmp_path / "vlm_out")
    totals = run_extract_checkpointed(corpus_dir, out, mode="fused", pipeline="vlm")
    assert totals["docs"] == 600
    parts = sorted(glob.glob(out + "/part-*/*.parquet"))
    assert parts
    schema = pq.read_schema(parts[0])
    assert "vlm_json" in schema.names
    t = pq.read_table(parts[0], columns=["status", "vlm_json"])
    assert any(v for v in t.column("vlm_json").to_pylist())
    with pytest.raises(ValueError):
        run_extract_checkpointed(corpus_dir, out, mode="fused", pipeline="quantum")


def test_registry_chunk_tokenizer_and_map_kwargs(ray_session, corpus_dir):
    """The registry 'chunk' stage must forward the tokenizer option and
    honor map_kwargs overrides (the documented extension contract)."""
    from docling_jobkit_ray.pipelines.extract import extract_pipeline
    from docling_jobkit_ray.stages.registry import apply_stage, get_stage

    extracted = extract_pipeline(corpus_dir, concurrency=(1, 2))
    chunks = apply_stage(
        extracted, "chunk", {"max_tokens": 64, "tokenizer": len}
    ).take(20)
    assert chunks and all(c["num_tokens"] == len(c["text"]) for c in chunks)
    _, kwargs = get_stage("chunk", {"map_kwargs": {"batch_size": 16}})
    assert kwargs["batch_size"] == 16
    _, vkwargs = get_stage("vlm_describe", {"map_kwargs": {"batch_size": 8}})
    assert vkwargs["batch_size"] == 8


# ---------------------------------------------------------------------------
# per-stage model-kind registries (reference convert/manager.py:484-751)
# ---------------------------------------------------------------------------


def test_model_kind_registry_rules():
    import pytest

    from docling_jobkit_ray.extract.presets import (
        ModelKindRegistry,
        PresetNotAllowedError,
        model_kind,
    )

    reg = ModelKindRegistry(
        "ocr",
        {"auto": {"engine": "auto"}, "tesseract": {"engine": "tesseract"}},
        default="auto",
    )
    # 'default' always resolves to the configured builtin
    assert reg.resolve()["engine"] == "auto"
    assert reg.resolve("tesseract")["engine"] == "tesseract"

    # allowlist gates BUILTINS only
    reg.set_allowed(["auto"])
    with pytest.raises(PresetNotAllowedError):
        reg.resolve("tesseract")
    assert reg.resolve("default")["engine"] == "auto"  # default survives

    # customs bypass the allowlist (reference: custom presets always allowed)
    reg.register_custom("mine", {"engine": "custom-thing"})
    assert reg.resolve("mine")["engine"] == "custom-thing"
    assert "mine" in reg.list_names() and "tesseract" not in reg.list_names()

    reg.set_allowed(None)
    assert "tesseract" in reg.list_names()
    with pytest.raises(KeyError):
        reg.set_allowed(["nope"])
    with pytest.raises(ValueError):
        reg.register_custom("default", {})
    with pytest.raises(ValueError):
        reg.register_custom("mine", {})  # no silent override
    with pytest.raises(KeyError):
        reg.resolve("missing")
    # every shipped kind exists with a working default
    for kind in (
        "vlm", "ocr", "layout", "table_structure", "picture_description", "code_formula"
    ):
        assert isinstance(model_kind(kind).resolve(), dict)


def test_vlm_preset_resolves_describer_and_runs(ray_session, corpus_dir):
    import pytest

    from docling_jobkit_ray.extract.presets import model_kind
    from docling_jobkit_ray.pipelines.extract import extract_pipeline
    from docling_jobkit_ray.stages.vlm import FakePageDescriber, describer_for_preset

    assert describer_for_preset() is FakePageDescriber
    with pytest.raises(KeyError):
        describer_for_preset("missing")

    # a custom preset can carry a describer class directly
    class MyDescriber(FakePageDescriber):
        pass

    reg = model_kind("vlm")
    try:
        reg.register_custom("custom_model", {"describer": MyDescriber})
        assert describer_for_preset("custom_model") is MyDescriber
    finally:
        reg._customs.pop("custom_model", None)

    out = extract_pipeline(
        corpus_dir, pipeline="vlm", vlm_preset="default", concurrency=(1, 2)
    ).limit(5).to_pandas()
    assert "vlm_json" in out.columns
