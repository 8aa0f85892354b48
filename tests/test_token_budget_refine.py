"""Brute-force fuzz of token_budget_select's histogram refine.

The refine must land on the cut ratio r* with the exact token mass above it,
so the (ratio DESC, doc_id ASC) prefix it selects never exceeds the budget
and matches the oracle's ``cum <= budget`` prefix.  No Ray: the histogram
callback is computed with numpy over the same bin formula.
"""

from __future__ import annotations

import random

import numpy as np

from docling_jobkit_ray.functions.webtext import _budget_cut

NBINS = 1024


def _np_hist(ratio: np.ndarray, tokens: np.ndarray):
    def hist(cur_lo: int, span: int) -> np.ndarray:
        sel = (ratio >= cur_lo) & (ratio <= cur_lo + span - 1)
        sums = np.zeros(NBINS, np.int64)
        np.add.at(sums, (ratio[sel] - cur_lo) * NBINS // span, tokens[sel])
        return sums

    return hist


def _refine_select(doc_ids, ratio, tokens, budget) -> list[int] | None:
    """The selection token_budget_select builds from the refine result, or
    None when the refine's mass above r* is not the exact mass."""
    r, t = np.array(ratio, np.int64), np.array(tokens, np.int64)
    rstar, above = _budget_cut(int(r.min()), int(r.max()), budget, _np_hist(r, t), NBINS)
    if above != int(t[r > rstar].sum()):
        return None
    keep = [d for d, x in zip(doc_ids, ratio) if x > rstar]
    acc = 0
    for d, x, n in sorted(zip(doc_ids, ratio, tokens)):
        if x == rstar:
            if above + acc + n > budget:
                break
            acc += n
            keep.append(d)
    return sorted(keep)


def _brute_select(doc_ids, ratio, tokens, budget) -> list[int]:
    keep, cum = [], 0
    for x, d, n in sorted(zip(ratio, doc_ids, tokens), key=lambda e: (-e[0], e[1])):
        if cum + n > budget:
            break
        cum += n
        keep.append(d)
    return sorted(keep)


def _case(rng: random.Random):
    n = rng.randint(1, 60)
    width = rng.choice([1, 3, 50, 1023, 1025, 4000, 10**5, 10**9])
    base = rng.randint(-(10**6), 10**6)
    ratio = [base + rng.randrange(width) for _ in range(n)]
    tokens = [rng.randint(1, 100) for _ in range(n)]
    budget = sum(tokens) * rng.randint(0, 1_000_000) // 1_000_000
    return list(range(n)), ratio, tokens, budget


def test_refine_matches_brute_force_prefix():
    rng = random.Random(5802)
    failures = []
    for i in range(3000):
        doc_ids, ratio, tokens, budget = _case(rng)
        got = _refine_select(doc_ids, ratio, tokens, budget)
        if got != _brute_select(doc_ids, ratio, tokens, budget):
            failures.append(i)
    assert failures == [], f"{len(failures)}/3000 cases diverge"


def test_refine_everything_fits_and_nothing_fits():
    doc_ids, ratio, tokens = [0, 1, 2], [5, 9, 9], [3, 4, 5]
    assert _refine_select(doc_ids, ratio, tokens, 12) == [0, 1, 2]
    assert _refine_select(doc_ids, ratio, tokens, 0) == []
    assert _refine_select(doc_ids, ratio, tokens, 4) == [1]
