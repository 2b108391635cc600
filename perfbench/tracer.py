"""Per-layer spans recorded from outside the program.

:class:`Tracer` replaces public names of each layer with timing wrappers,
patched where the caller looks them up (``repro.core.engine`` calls its
own imported ``combos_from_linear``, so that is the name replaced), and
restores them on :meth:`Tracer.uninstall`.  Spans nest per thread, so a
layer's *self* time is its span time minus the spans it called.

Pool workers are forked after the wrappers are installed and so inherit
them.  A forked worker starts from empty accumulators and, after each
chunk it searches, writes its totals to ``<work_dir>/<pid>.json``; the
parent merges those files with :meth:`Tracer.worker_totals`.  A name the
program no longer has is skipped and listed in :attr:`Tracer.missing`,
so a refactor that removes it makes its layer read 0 instead of breaking
the benchmark.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from pathlib import Path


def merge(*accs: dict) -> dict:
    """Sum accumulator dicts key by key."""
    out: dict[str, list] = {}
    for acc in accs:
        for key, row in acc.items():
            mine = out.setdefault(key, [0.0, 0.0, 0, 0])
            for i, v in enumerate(row):
                mine[i] += v
    return out


def _n_items(args, kwargs) -> int:
    lam = args[0] if args else kwargs.get("lam")
    return int(getattr(lam, "size", 1))


# (owner, attribute, span key, item counter).  An owner is a module path,
# or "module:Class" for a method.
TARGETS = [
    ("repro.core.solver:MultiHitSolver", "solve", "solver.solve", None),
    ("repro.core.engine:SingleGpuEngine", "best_combo", "engine.argmax", None),
    ("repro.core.pool", "best_in_thread_range", "engine.argmax", None),
    ("repro.core.engine", "combos_from_linear", "combinatorics.decode", _n_items),
    ("repro.core.engine", "top_index_array", "combinatorics.decode", _n_items),
    ("repro.core.engine", "fused_pair_popcount", "kernels.popcount", None),
    ("repro.core.engine", "score_combos", "kernels.popcount", None),
    ("repro.core.engine", "best_of", "kernels.best_of", None),
    # The nested scan resolves its ties with this helper directly.
    ("repro.core.engine", "_lexmin_rows", "kernels.best_of", None),
    ("repro.core.engine", "stride_any_mask", "bitmatrix.sparsity", None),
    ("repro.core.kernels", "stride_any_mask", "bitmatrix.sparsity", None),
    ("repro.bitmatrix.matrix:BitMatrix", "sparsity", "bitmatrix.sparsity", None),
    ("repro.bitmatrix.matrix:BitMatrix", "from_dense", "bitmatrix.pack", None),
    ("repro.bitmatrix.matrix:BitMatrix", "samples_with_all", "bitmatrix.cover", None),
    ("repro.core.solver", "splice_columns", "bitmatrix.splice", None),
    ("repro.core.bounds:BoundTable", "build", "bounds.build", None),
    ("repro.core.bounds:BoundTable", "refresh", "bounds.refresh", None),
    ("repro.core.bounds:BoundTable", "can_skip", "bounds.check", None),
    ("repro.core.bounds:BoundTable", "can_skip_super", "bounds.check", None),
    ("repro.core.bounds:BoundTable", "super_visit_order", "bounds.check", None),
    ("repro.core.bounds:BoundTable", "slice_payload", "bounds.sync", None),
    ("repro.core.bounds:BoundTable", "from_payload", "bounds.sync", None),
    ("repro.core.bounds:BoundTable", "apply_deltas", "bounds.sync", None),
    ("repro.core.bounds:BoundTable", "deltas", "bounds.sync", None),
    ("repro.core.pool:PoolEngine", "best_combo", "pool.argmax", None),
    ("repro.core.pool:PoolEngine", "close", "pool.close", None),
    ("repro.core.checkpoint", "save_state", "checkpoint.write", None),
    ("repro.core.checkpoint:SolverState", "capture", "checkpoint.capture", None),
    ("repro.service.jobs:JobStore", "new_job", "service.store_write", None),
    ("repro.service.jobs:JobStore", "transition", "service.store_write", None),
    ("repro.service.jobs:JobStore", "update", "service.store_write", None),
    ("repro.service.http:Gateway", "submit", "service.api", None),
    ("repro.service.http:Gateway", "job", "service.api", None),
]


class Tracer:
    """Span accumulators keyed by ``layer.name``: ``[total_s, self_s, calls, items]``."""

    def __init__(self, work_dir: "str | Path") -> None:
        self.work_dir = Path(work_dir)
        self.acc: dict[str, list] = {}
        self.missing: list[str] = []
        self.pool_stats = None  # set by the caller to a PoolStats to fill
        self._patches: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._worker = False
        self._active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -----------------------------------------------------

    def _after_fork(self) -> None:
        if self._active:
            self.acc = {}
            self._local = threading.local()
            self._lock = threading.Lock()
            self._worker = True

    def _add(self, key: str, total: float, own: float, items: int) -> None:
        with self._lock:
            row = self.acc.setdefault(key, [0.0, 0.0, 0, 0])
            row[0] += total
            row[1] += own
            row[2] += 1
            row[3] += items

    def _wrap(self, fn, key: str, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                tracer._add(
                    key, dt, dt - frame[0], count(args, kwargs) if count else 0
                )
                if tracer._worker and not stack:
                    tracer._flush_worker()

        return traced

    def _flush_worker(self) -> None:
        self.work_dir.mkdir(parents=True, exist_ok=True)
        path = self.work_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.acc))
        os.replace(tmp, path)

    def _pool_best_combo(self, fn):
        """``PoolEngine.best_combo`` with the run's :class:`PoolStats` passed in."""
        tracer = self

        @functools.wraps(fn)
        def with_stats(engine, *args, **kwargs):
            if tracer.pool_stats is not None and kwargs.get("stats") is None:
                kwargs["stats"] = tracer.pool_stats
            return fn(engine, *args, **kwargs)

        return with_stats

    # -- install / uninstall -------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        for owner_path, attr, key, count in TARGETS:
            mod_name, _, cls_name = owner_path.partition(":")
            try:
                owner = importlib.import_module(mod_name)
                if cls_name:
                    owner = getattr(owner, cls_name)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner_path}.{attr}")
                continue
            raw = owner.__dict__.get(attr) if cls_name else getattr(owner, attr, None)
            if raw is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                fn = self._wrap(raw.__func__, key, count)
                new = type(raw)(fn)
            else:
                fn = raw
                if key == "pool.argmax":
                    fn = self._pool_best_combo(fn)
                new = self._wrap(fn, key, count)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, new)
        self._active = True
        return self

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()
        self._active = False

    # -- results -------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.acc = {}
        for path in self.work_dir.glob("*.json"):
            path.unlink()

    def worker_totals(self) -> dict[str, list]:
        """Accumulators summed over every pool worker since :meth:`reset`."""
        return merge(
            *(json.loads(p.read_text()) for p in sorted(self.work_dir.glob("*.json")))
        )
