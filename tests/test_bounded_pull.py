"""Bounded-pull lint: every ``.take_all()`` in the package must say why the
rows it pulls to the driver are bounded at any input scale.

A call passes if a ``# bounded`` note sits on one of its statement's lines
(for a compound statement such as ``for``/``if``/``with``, the header lines
up to the end of the call) or in the comment block directly above the
statement, or if its enclosing function is on ``ALLOWLIST`` with a reason.
Pulling a fact table to the driver is the scale killer this guards
against, so no allowlisted function may name one.
"""

from __future__ import annotations

import ast
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "docling_jobkit_ray"

FACT_TABLES = {"lineitem", "orders", "events", "documents", "embeddings"}

# (module, enclosing function) -> why its pull is bounded.  These modules
# are kept free of edits that do not change behaviour, so the reason lives
# here instead of in a note.
ALLOWLIST = {
    ("state/checkpoint.py", "run_extract_checkpointed_fused"): (
        "one manifest row per shard: the driver is the only manifest writer"
    ),
    ("stages/export.py", "export_ipc_shards.write"): (
        "one row-count row per written block"
    ),
}


def pulls(source: str) -> list[tuple[int, str, bool]]:
    """``(line, enclosing function, noted)`` for each ``.take_all()`` call."""
    lines = source.splitlines()
    out: list[tuple[int, str, bool]] = []

    def visit(node: ast.AST, stack: list[str], stmt: ast.stmt | None) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack = [*stack, node.name]
        if isinstance(node, ast.stmt):
            stmt = node
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "take_all"
        ):
            # a compound statement's span is its header, up to the call
            end = node.end_lineno if "body" in stmt._fields else stmt.end_lineno
            start = stmt.lineno - 1
            while start > 0 and lines[start - 1].lstrip().startswith("#"):
                start -= 1
            span = lines[start:end]
            noted = any("# bounded" in s for s in span)
            out.append((node.lineno, ".".join(stack), noted))
        for child in ast.iter_child_nodes(node):
            visit(child, stack, stmt)

    visit(ast.parse(source), [], None)
    return out


def _names_fact_table(source: str, func: str) -> bool:
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.FunctionDef) and node.name == func:
            return any(
                isinstance(c, ast.Constant) and c.value in FACT_TABLES
                for c in ast.walk(node)
            )
    raise AssertionError(f"no function {func!r}")


def test_lint_self_test():
    src = (
        "def f(ds):\n"
        "    a = ds.take_all()\n"
        "    b = ds.take_all()  # bounded: <= 4 rows\n"
        "    c = (\n"
        "        ds.count()\n"
        "        .take_all()\n"
        "    )  # bounded: one row\n"
        "    for r in ds.take_all():\n"
        "        pass  # bounded: a note in the loop body does not count\n"
        "    # bounded: a comment block above the statement counts\n"
        "    d = ds.take_all()\n"
        "    return a.take_all\n"
        "class K:\n"
        "    def g(self, ds):\n"
        "        return read_table(sf, 'orders').take_all()\n"
    )
    assert [(ln, fn) for ln, fn, ok in pulls(src) if not ok] == [
        (2, "f"),
        (8, "f"),
        (15, "K.g"),
    ]
    assert _names_fact_table(src, "g")
    assert not _names_fact_table(src, "f")


def test_every_pull_is_noted_or_allowlisted():
    unexplained, used = [], set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        for line, func, noted in pulls(path.read_text()):
            if noted:
                continue
            if (rel, func) in ALLOWLIST:
                used.add((rel, func))
            else:
                unexplained.append(f"{rel}:{line} ({func})")
    assert unexplained == [], (
        "take_all() without a '# bounded' note saying why the pull is bounded: "
        + ", ".join(unexplained)
    )
    assert used == set(ALLOWLIST), f"stale allowlist entries: {set(ALLOWLIST) - used}"


def test_allowlist_reads_no_fact_table():
    for (rel, func), reason in ALLOWLIST.items():
        assert reason.strip()
        assert not _names_fact_table((PKG / rel).read_text(), func.split(".")[-1]), (
            f"{rel}::{func} reads a fact table; a fact-table pull cannot be allowlisted"
        )
