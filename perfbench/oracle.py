"""Reference winner trajectories for the benchmark's correctness check.

The trajectory is what the greedy cover must pick, computed independently
of the solver: every ``h``-combination of the full ``C(G, h)`` grid is
enumerated in plain Python, scored with the library's dense oracle
``score_combos_reference``, the best F wins with ties going to the
lexicographically smallest gene tuple, the winner's tumour columns are
removed, and the loop repeats until no tumour sample is left or the
winner covers none.

Only one full-width pass is made.  A combination whose TP has reached 0
keeps TP = 0 for the rest of the run (columns are only ever removed), so
its F is a constant and it drops out of the rescoring set; the rest are
rescored every iteration on the still-uncovered columns.  The arg-max
stays exact over the whole grid.  Columns are packed here, not with the
library's packer, so a packing or splicing defect cannot hide in both.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from repro.bitmatrix.matrix import BitMatrix
from repro.core.fscore import FScoreParams, fscore
from repro.core.kernels import score_combos_reference

_CHUNK = 1 << 18


def _pack(dense: np.ndarray) -> BitMatrix:
    g, s = dense.shape
    n_words = (s + 63) // 64
    padded = np.zeros((g, n_words * 64), dtype=np.uint8)
    padded[:, :s] = dense
    words = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    return BitMatrix(words.reshape(g, n_words), s)


@functools.lru_cache(maxsize=2)
def _grid(g: int, h: int) -> np.ndarray:
    flat = itertools.chain.from_iterable(itertools.combinations(range(g), h))
    grid = np.fromiter(flat, dtype=np.int32, count=math.comb(g, h) * h).reshape(-1, h)
    grid.flags.writeable = False  # shared by every caller of the cache
    return grid


def _score(tumor, normal, grid, params):
    parts = [
        score_combos_reference(tumor, normal, grid[i : i + _CHUNK], params)
        for i in range(0, len(grid), _CHUNK)
    ]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _best(f: np.ndarray, grid: np.ndarray):
    """Index of the max F, ties to the lexicographically smallest row."""
    tied = np.flatnonzero(f == f.max())
    rows = grid[tied]
    return int(tied[np.lexsort(rows.T[::-1])[0]])


def reference_trajectory(
    tumor: np.ndarray, normal: np.ndarray, hits: int, alpha: float = 0.1,
    max_picks: "int | None" = None,
) -> list[tuple[tuple[int, ...], float, int, int]]:
    """The greedy winners ``(genes, F, TP, TN)`` for a dense cohort.

    ``max_picks`` stops after that many winners (the prefix is exact).
    """
    tumor = np.asarray(tumor, dtype=bool)
    normal = np.asarray(normal, dtype=bool)
    g = tumor.shape[0]
    params = FScoreParams(tumor.shape[1], normal.shape[1], alpha)
    grid = _grid(g, hits)
    f, tp, tn = _score(_pack(tumor), _pack(normal), grid, params)
    no_normal = BitMatrix.zeros(g, 0)

    # Combinations already at TP = 0: their F never changes again.
    zero = None
    live = np.flatnonzero(tp > 0)

    def fold_zero(idx: np.ndarray) -> None:
        nonlocal zero
        if idx.size:
            cand = int(idx[_best(f[idx], grid[idx])])
            zero = cand if zero is None else _pick(zero, cand)

    def _pick(a: int, b: int) -> int:
        if f[a] != f[b]:
            return a if f[a] > f[b] else b
        return a if tuple(grid[a]) <= tuple(grid[b]) else b

    fold_zero(np.flatnonzero(tp == 0))
    active = np.ones(tumor.shape[1], dtype=bool)
    out = []
    while active.any():
        win = zero
        if live.size:
            cand = int(live[_best(f[live], grid[live])])
            win = cand if win is None else _pick(win, cand)
        if win is None or tp[win] == 0:
            break
        genes = tuple(int(x) for x in grid[win])
        out.append((genes, float(f[win]), int(tp[win]), int(tn[win])))
        active &= ~tumor[list(genes)].all(axis=0)
        if not active.any() or len(out) == max_picks:
            break
        rest = _pack(tumor[:, active])
        _, tp_live, _ = _score(rest, no_normal, grid[live], params)
        tp[live] = tp_live
        f[live] = fscore(tp_live, tn[live], params)
        fold_zero(live[tp_live == 0])
        live = live[tp_live > 0]
    return out


def check_trajectory(found, expected) -> str | None:
    """``None`` when ``found`` equals ``expected`` exactly, else why not.

    ``found`` items are anything with ``genes``, ``f``, ``tp`` and ``tn``
    (solver combinations) or the gateway's result dicts.
    """
    got = []
    for c in found:
        if isinstance(c, dict):
            got.append((tuple(c["genes"]), c["f"], c["tp"], c["tn"]))
        else:
            got.append((tuple(c.genes), c.f, c.tp, c.tn))
    want = [(tuple(gs), f, tp, tn) for gs, f, tp, tn in expected]
    if len(got) != len(want):
        return f"{len(got)} picks, oracle has {len(want)}"
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"pick {i + 1}: got {a}, oracle {b}"
    return None


def cached_trajectory(
    cache_dir: Path, key: str, tumor, normal, hits: int, first_only: bool = False
):
    """:func:`reference_trajectory`, memoised as JSON under ``cache_dir``.

    ``first_only`` asks for the first winner alone; a cached full
    trajectory answers it too.
    """
    full = Path(cache_dir) / f"{key}.json"
    path = Path(cache_dir) / f"{key}-first.json" if first_only else full
    for known in (full, path):
        if known.exists():
            traj = [
                (tuple(gs), f, tp, tn)
                for gs, f, tp, tn in json.loads(known.read_text())
            ]
            return traj[:1] if first_only else traj
    traj = reference_trajectory(
        tumor, normal, hits, max_picks=1 if first_only else None
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps([list(t) for t in traj]))
    os.replace(tmp, path)
    return traj
