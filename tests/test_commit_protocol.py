"""Crash-injection matrix for the one staged-commit protocol
(``docling_jobkit_ray/state/commit.py``).

Every staged writer runs under three crash points:

- ``torn``: leftovers of an earlier crashed run — a staging dir holding
  junk (or, for the CLI, whatever a run that crashed mid-write left);
- ``before_marker``: the helper's ``write_synced`` raises on its first call
  (for a writer with a marker, the marker; for checkpoint, whose commit
  point is the manifest, the first manifest);
- ``before_publish``: the helper's ``publish`` raises on the writer's
  commit — the first directory publish, or for checkpoint the first
  manifest publish.

After a raise, readers must see the old state or the complete new one; a
re-run must give the crash-free output with no duplicate rows.  The raise
cells patch the helper in the test process, so they reach every commit
made there.  Steps that run inside Ray tasks (the fused checkpoint's
partition publish, the bitmap compaction's part-file publish) cannot be
patched from it; their crash leaves exactly a staging dir or temp
file beside an untouched final, which the ``torn`` cell builds.

The AST guard at the bottom keeps the protocol single: no other module may
rename files itself.
"""

from __future__ import annotations

import ast
import glob
import json
import os
import pathlib

import pyarrow as pa
import pyarrow.feather as feather
import pyarrow.parquet as pq
import pytest

from tests.test_bitmap import SF  # the shared sf0.001 testdata tables

CASES = ["torn", "before_marker", "before_publish"]


class InjectedCrash(RuntimeError):
    pass


def _junk_dir(path: str, *names: str) -> None:
    """A torn staging dir: files no reader may ever see."""
    os.makedirs(path, exist_ok=True)
    for name in names:
        with open(os.path.join(path, name), "w") as f:
            f.write('{"junk": 1}\n')


def _rows(table: pa.Table, cols: list[str]) -> list[tuple]:
    return sorted(zip(*(table.column(c).to_pylist() for c in cols)))


# ---------------------------------------------------------------- writers
#
# Each writer: setup(tmp, inputs) -> ctx (inputs plus any OLD committed
# state), run(ctx) (the commit under test), read(ctx) -> {unit: rows} (what
# a reader sees; a missing unit is "nothing committed"), torn(ctx) (leave a
# crashed earlier run's leftovers), commit_point ("dir" or "file").


class ExportJsonl:
    commit_point = "dir"

    def setup(self, tmp, inputs):
        return {"out": str(tmp / "jsonl")}

    def run(self, ctx):
        import ray.data

        from docling_jobkit_ray.stages.export import export_jsonl_shards

        ds = ray.data.from_items([{"id": i, "t": f"x{i}"} for i in range(120)], override_num_blocks=3)
        export_jsonl_shards(ds, ctx["out"])

    def read(self, ctx):
        if not os.path.isdir(ctx["out"]):
            return {}
        assert os.path.exists(os.path.join(ctx["out"], "_SUCCESS"))
        rows = []
        for f in glob.glob(os.path.join(ctx["out"], "*.json")):
            with open(f) as fh:
                rows += [tuple(sorted(json.loads(line).items())) for line in fh]
        return {"out": sorted(rows)}

    def torn(self, ctx):
        _junk_dir(ctx["out"] + ".staging", "junk.json")


class ExportIpc(ExportJsonl):
    def setup(self, tmp, inputs):
        return {"out": str(tmp / "ipc")}

    def run(self, ctx):
        import ray.data

        from docling_jobkit_ray.stages.export import export_ipc_shards

        ds = ray.data.from_items([{"id": i, "t": f"x{i}"} for i in range(120)], override_num_blocks=3)
        export_ipc_shards(ds, ctx["out"])

    def read(self, ctx):
        if not os.path.isdir(ctx["out"]):
            return {}
        assert os.path.exists(os.path.join(ctx["out"], "_SUCCESS"))
        tables = [feather.read_table(f) for f in glob.glob(os.path.join(ctx["out"], "*.arrow"))]
        return {"out": _rows(pa.concat_tables(tables), ["id", "t"])}

    def torn(self, ctx):
        os.makedirs(ctx["out"] + ".staging")
        feather.write_feather(
            pa.table({"id": [-1], "t": ["junk"]}), ctx["out"] + ".staging/junk.arrow"
        )


class ZonemapYear:
    commit_point = "dir"
    part_col = "o_year"

    def setup(self, tmp, inputs):
        return {"out": str(tmp / "layout")}

    def run(self, ctx):
        from docling_jobkit_ray.functions.zonemap import write_orders_year_layout

        write_orders_year_layout(SF, ctx["out"])

    def read(self, ctx):
        if not os.path.isdir(ctx["out"]):
            return {}
        with open(os.path.join(ctx["out"], "_zonemaps.json")) as f:
            zones = tuple(z[self.part_col] for z in json.load(f))
        t = pq.read_table(ctx["out"], columns=["o_orderkey"])
        return {"zones": [zones], "out": _rows(t, ["o_orderkey"])}

    def torn(self, ctx):
        _junk_dir(os.path.join(ctx["out"] + ".staging", f"{self.part_col}=0"), "junk.parquet")


class ZonemapZorder(ZonemapYear):
    part_col = "ztile"

    def run(self, ctx):
        from docling_jobkit_ray.functions.zonemap import write_orders_zorder_layout

        write_orders_zorder_layout(SF, ctx["out"])


def _events_half(parity: int, columns: list[str]):
    import pyarrow.compute as pc

    from docling_jobkit_ray.sources.pages import read_table

    read_cols = sorted(set(columns) | {"event_id"})
    return read_table(SF, "events", columns=read_cols).map_batches(
        lambda b: b.filter(
            pc.equal(pc.bit_wise_and(b["event_id"], pa.scalar(1, pa.int64())), parity)
        ).select(columns),
        batch_format="pyarrow",
    )


class Matview:
    commit_point = "dir"
    cols = ["ts", "event_type", "value"]

    def setup(self, tmp, inputs):
        from docling_jobkit_ray.functions.matview import init_view

        ctx = {"dir": str(tmp / "view")}
        init_view(_events_half(0, self.cols), ctx["dir"])
        return ctx

    def run(self, ctx):
        from docling_jobkit_ray.functions.matview import refresh_view

        refresh_view(ctx["dir"], _events_half(1, self.cols))

    def read(self, ctx):
        from docling_jobkit_ray.functions.matview import current_view

        t = pa.Table.from_pylist(current_view(ctx["dir"]).take_all())
        return {"view": _rows(t, ["hour", "event_type", "n", "value_cents"])}

    def torn(self, ctx):
        _junk_dir(os.path.join(ctx["dir"], "v2.staging"), "junk.parquet")


class StatsCatalog(Matview):
    cols = ["event_id", "ts", "user_id", "value"]  # functions.profile._EVENT_SPECS

    def setup(self, tmp, inputs):
        from docling_jobkit_ray.functions.stats_catalog import init_stats

        ctx = {"dir": str(tmp / "stats")}
        init_stats(_events_half(0, self.cols), ctx["dir"])
        return ctx

    def run(self, ctx):
        from docling_jobkit_ray.functions.stats_catalog import refresh_stats

        refresh_stats(ctx["dir"], _events_half(1, self.cols))

    def read(self, ctx):
        from docling_jobkit_ray.functions.stats_catalog import current_stats

        # t-digest bytes depend on merge order; n and the HLL are exact
        return {"stats": _rows(current_stats(ctx["dir"]), ["col", "n", "hll"])}


class Training:
    commit_point = "dir"

    def setup(self, tmp, inputs):
        return {"out": str(tmp / "shards")}

    def run(self, ctx):
        from docling_jobkit_ray.pipelines.training import make_training_shards

        make_training_shards(SF, ctx["out"], n_shards=4)

    def read(self, ctx):
        if not os.path.isdir(ctx["out"]):
            return {}
        t = pq.read_table(ctx["out"])
        return {"out": _rows(t, ["doc_id", "n_tokens", "pack_tokens"])}

    def torn(self, ctx):
        _junk_dir(os.path.join(ctx["out"] + ".staging", "shard=0"), "junk.parquet")


class Checkpoint:
    """Per-shard units: the manifest is the commit point, so a reader lists
    ``_manifest/`` and reads only those partitions."""

    commit_point = "file"
    mode = "sliced"

    def setup(self, tmp, inputs):
        return {"in": inputs["corpus"], "out": str(tmp / "ckpt")}

    def run(self, ctx):
        from docling_jobkit_ray.state.checkpoint import run_extract_checkpointed

        run_extract_checkpointed(ctx["in"], ctx["out"], mode=self.mode)

    def read(self, ctx):
        from docling_jobkit_ray.state.checkpoint import completed_shards

        out = {}
        for key, rec in completed_shards(ctx["out"]).items():
            t = pq.read_table(os.path.join(ctx["out"], rec["output_dir"]))
            out[key] = _rows(t, ["url", "status", "text"])
        return out

    def torn(self, ctx):
        for p in sorted(glob.glob(os.path.join(ctx["in"], "*.parquet"))):
            key = os.path.splitext(os.path.basename(p))[0]
            _junk_dir(os.path.join(ctx["out"], f".tmp-{key}"), "junk.parquet")


class CheckpointFused(Checkpoint):
    mode = "fused"


def _ingest(ctx, lo: int, hi: int, increment_id: str) -> None:
    import ray.data

    from docling_jobkit_ray.pipelines.ingest import ingest_increment

    ingest_increment(
        ray.data.from_items([{"doc_id": i, "text": f"doc {i}"} for i in range(lo, hi)]),
        corpus_dir=ctx["corpus"],
        index_dir=ctx["index"],
        increment_id=increment_id,
        n_shards=4,
    )


class Ingest:
    commit_point = "dir"

    def setup(self, tmp, inputs):
        ctx = {"corpus": str(tmp / "corpus"), "index": str(tmp / "index")}
        _ingest(ctx, 0, 60, "d1")
        return ctx

    def run(self, ctx):
        _ingest(ctx, 30, 90, "d2")  # 30..59 are already in the corpus

    def read(self, ctx):
        from docling_jobkit_ray.pipelines.ingest import read_corpus

        t = pa.Table.from_pylist(read_corpus(ctx["corpus"]).take_all())
        return {"corpus": _rows(t, ["doc_id", "text"])}

    def torn(self, ctx):
        _junk_dir(os.path.join(ctx["corpus"], ".staging-d2"), "junk.parquet")


class IngestCompaction(Ingest):
    def setup(self, tmp, inputs):
        ctx = super().setup(tmp, inputs)
        super().run(ctx)
        return ctx

    def run(self, ctx):
        from docling_jobkit_ray.pipelines.ingest import compact_increments

        compact_increments(ctx["corpus"], compaction_id="c1")

    def read(self, ctx):
        view = super().read(ctx)
        # old and new hold the same rows; the layout says which one is live
        view["dirs"] = sorted(d for d in os.listdir(ctx["corpus"]) if d.startswith("increment="))
        return view

    def torn(self, ctx):
        _junk_dir(os.path.join(ctx["corpus"], ".staging-c1"), "junk.parquet", "_ABSORBS")


class BitmapCompaction:
    """Worker-side commit (one Ray task per bucket): only the torn cell."""

    commit_point = None

    def setup(self, tmp, inputs):
        from docling_jobkit_ray.functions.bitmap import append_bitmap_index, build_bitmap_index
        from docling_jobkit_ray.sources.pages import read_table

        ctx = {"dir": str(tmp / "bitmap")}
        docs = read_table(SF, "documents", columns=["doc_id", "lang", "source"])
        build_bitmap_index(docs.filter(lambda r: r["doc_id"] % 2 == 0), ctx["dir"], n_buckets=4)
        append_bitmap_index(docs.filter(lambda r: r["doc_id"] % 2 == 1), ctx["dir"])
        return ctx

    def run(self, ctx):
        from docling_jobkit_ray.functions.bitmap import compact_bitmap_index

        compact_bitmap_index(ctx["dir"])

    def read(self, ctx):
        from docling_jobkit_ray.functions.bitmap import bitmap_query_keys

        keys = bitmap_query_keys(ctx["dir"], require=[["lang=de", "lang=fr"]]).to_pandas()
        return {"keys": sorted(keys["key"].tolist())}

    def torn(self, ctx):
        # a crashed compaction leaves a hidden temp file per bucket
        for d in glob.glob(os.path.join(ctx["dir"], "bucket=*")):
            with open(os.path.join(d, ".part.parquet.0badc0de.tmp"), "w") as f:
                f.write("torn")


class CliSnapshots:
    commit_point = "dir"

    def setup(self, tmp, inputs):
        return {"in": inputs["dup_corpus"], "out": str(tmp / "cli")}

    def run(self, ctx):
        from docling_jobkit_ray.cli import main

        argv = ["--input", ctx["in"], "--output", ctx["out"], "--dedup-snapshots", "--no-checkpoint"]
        assert main(argv) == 0

    def read(self, ctx):
        files = glob.glob(os.path.join(ctx["out"], "*.parquet"))
        if not files:
            return {}
        return {"out": _rows(pa.concat_tables([pq.read_table(f) for f in files]), ["url", "status", "text"])}

    def torn(self, ctx):
        """A real crash: the snapshot write lands, then the run dies before
        its marker."""
        import ray.data

        real = ray.data.Dataset.write_parquet

        def write_then_crash(ds, path, *args, **kwargs):
            real(ds, path, *args, **kwargs)
            raise InjectedCrash("after the snapshot write")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(ray.data.Dataset, "write_parquet", write_then_crash)
            with pytest.raises(InjectedCrash):
                self.run(ctx)


WRITERS = {
    "export_jsonl": ExportJsonl(),
    "export_ipc": ExportIpc(),
    "zonemap_year": ZonemapYear(),
    "zonemap_zorder": ZonemapZorder(),
    "matview": Matview(),
    "stats_catalog": StatsCatalog(),
    "training": Training(),
    "checkpoint": Checkpoint(),
    "checkpoint_fused": CheckpointFused(),
    "ingest": Ingest(),
    "ingest_compaction": IngestCompaction(),
    "bitmap_compaction": BitmapCompaction(),
    "cli_snapshots": CliSnapshots(),
}
CELLS = [
    (w, c)
    for w, writer in WRITERS.items()
    for c in CASES
    if c == "torn" or writer.commit_point is not None
]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    import pandas as pd

    from docling_jobkit_ray.fixtures.corpus import write_corpus

    corpus = str(tmp_path_factory.mktemp("commit_corpus"))
    write_corpus(corpus, n_rows=40, seed=5, n_shards=2)
    # re-crawl input for the CLI: 10 urls get a newer snapshot
    t = pa.concat_tables([pq.read_table(f) for f in sorted(glob.glob(f"{corpus}/*.parquet"))])
    df = t.to_pandas()
    newer = df.iloc[:10].copy()
    newer["warc_ts"] = newer["warc_ts"] + pd.Timedelta(days=3)
    dup = str(tmp_path_factory.mktemp("commit_dup"))
    pq.write_table(
        pa.Table.from_pandas(
            pd.concat([df, newer], ignore_index=True), schema=t.schema, preserve_index=False
        ),
        f"{dup}/pages.parquet",
    )
    return {"corpus": corpus, "dup_corpus": dup}


@pytest.fixture(scope="module")
def reference(tmp_path_factory, inputs):
    """Crash-free output of each writer, built once in a fresh dir."""
    cache = {}

    def get(name):
        if name not in cache:
            w = WRITERS[name]
            ctx = w.setup(tmp_path_factory.mktemp(f"ref_{name}"), inputs)
            w.run(ctx)
            cache[name] = w.read(ctx)
        return cache[name]

    return get


def _inject(m, step: str, commit_point: str) -> list:
    """Make the helper's ``step`` raise once, at the crash point."""
    from docling_jobkit_ray.state import commit

    real = getattr(commit, step)
    fired = []

    def crash(*args, **kwargs):
        at = step == "write_synced" or os.path.isdir(args[0]) == (commit_point == "dir")
        if at and not fired:
            fired.append(args)
            raise InjectedCrash(step)
        return real(*args, **kwargs)

    m.setattr(commit, step, crash)
    return fired


@pytest.mark.parametrize("name,case", CELLS, ids=[f"{w}-{c}" for w, c in CELLS])
def test_crash_then_rerun_converges(ray_session, tmp_path, inputs, reference, name, case):
    w = WRITERS[name]
    new = reference(name)
    ctx = w.setup(tmp_path, inputs)
    old = w.read(ctx)
    if case == "torn":
        w.torn(ctx)
    else:
        step = "write_synced" if case == "before_marker" else "publish"
        with pytest.MonkeyPatch.context() as m:
            fired = _inject(m, step, w.commit_point)
            with pytest.raises(InjectedCrash):
                w.run(ctx)
        assert fired, f"{name} never reached {step}"
        seen = w.read(ctx)
        for unit in set(seen) | set(new):
            assert seen.get(unit) in (old.get(unit), new[unit]), f"{name}: torn {unit!r} visible"
    w.run(ctx)
    got = w.read(ctx)
    assert got == new
    assert not list(tmp_path.rglob("junk*")), "torn staging survived the re-run"
    for unit, rows in got.items():
        assert len(rows) == len(set(rows)), f"{name}: duplicate rows in {unit!r}"


# ------------------------------------------------------------- AST guard

_BANNED = {("os", "rename"), ("os", "renames"), ("os", "replace"), ("shutil", "move")}


def _rename_calls(source: str) -> list[int]:
    """Line numbers of os.rename/os.renames/os.replace/shutil.move calls,
    through ``import os as x`` and ``from os import replace`` aliases."""
    tree = ast.parse(source)
    modules, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.name in ("os", "shutil"):
                    modules[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "shutil"):
            names |= {a.asname or a.name for a in node.names if (node.module, a.name) in _BANNED}
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            if (modules.get(f.value.id), f.attr) in _BANNED:
                hits.append(node.lineno)
        elif isinstance(f, ast.Name) and f.id in names:
            hits.append(node.lineno)
    return hits


def test_guard_detects_renames():
    src = (
        "import os as _o\nimport shutil\nfrom os import replace as r\n"
        "_o.rename(a, b)\nshutil.move(a, b)\nr(a, b)\n'x'.replace('a', 'b')\n"
    )
    assert _rename_calls(src) == [4, 5, 6]


def test_only_commit_module_renames():
    pkg = pathlib.Path(__file__).resolve().parent.parent / "docling_jobkit_ray"
    offenders = {
        str(p.relative_to(pkg)): hits
        for p in sorted(pkg.rglob("*.py"))
        if p.relative_to(pkg).as_posix() != "state/commit.py"
        and (hits := _rename_calls(p.read_text()))
    }
    assert offenders == {}, f"rename outside state/commit.py: {offenders}"
    assert _rename_calls((pkg / "state" / "commit.py").read_text())
