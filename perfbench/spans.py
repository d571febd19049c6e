"""Span tracer around susychain's public functions, and its summarizer.

The tracer wraps every public function of the layer modules from outside
and patches each module namespace that holds one, since `cli` binds names
with `from .lattice import chain_spectrum`. Spans stay in memory; the
benchmark writes them out when the run ends.

    python3 perfbench/spans.py .bench_build/perfbench/trace-<workload>.npz

prints the per-layer table of a saved trace.
"""

import contextlib
import functools
import inspect
import itertools
import sys
import threading
import time

import numpy as np

LAYERS = ("cli", "lattice", "continuum", "susy", "models", "numcore")
REQUEST = "bench.request"
MAIN = "cli.main"
# columns of a span row
ID, NAME, START, END, PARENT, REQ, THREAD = range(7)


def _eigh_banded_counts(args, kwargs):
    m = args[0]
    vectors = kwargs.get("eigenvectors", args[1] if len(args) > 1 else False)
    n = m.dim if vectors else 0
    return {"dim": m.dim, "bandwidth": m.bandwidth, "eigvecs": n,
            "eigvec_mb": n * n * m.bands.dtype.itemsize / 1e6}


# Helpers called thousands of times per request whose bodies take a few
# microseconds: a span around each would cost more than the call, so
# their time shows as their caller's self time.
LEAVES = {"cli.fmt", "continuum.potential_matrix", "continuum.symbol_matrix",
          "lattice.bloch_hamiltonian"}
# counts taken from a layer's arguments at each call
COUNTS = {"numcore.eigh_banded": _eigh_banded_counts}
# per request, these counts keep their largest value; the others add up
COUNT_MAX = ("dim", "bandwidth")


class Tracer:
    """Records a span per call of a wrapped function inside `request()`."""

    def __init__(self):
        self.names = []
        self.rows = []                # span rows, columns ID .. THREAD
        self.counts = []              # (request id, "layer.function.stat", value)
        self._ids = itertools.count()
        self._local = threading.local()
        self._request = -1
        self._main = -1               # id of the open cli.main span
        self._patches = []
        self._wrappers = None

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        counts = COUNTS.get(name)
        is_main = name == MAIN
        clock, rows, ident = time.perf_counter, self.rows, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # ThreadPoolExecutor workers start with an empty stack; their
            # parent is the cli.main call that submitted the job
            parent = stack[-1] if stack else self._main
            sid = next(self._ids)
            stack.append(sid)
            if is_main:
                outer, self._main = self._main, sid
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if is_main:
                    self._main = outer
                rows.append((sid, name_id, start, end, parent, self._request, ident()))
                if counts:
                    for stat, value in counts(args, kwargs).items():
                        self.counts.append((self._request, f"{name}.{stat}", value))
        return wrapper

    def _install(self):
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                mod = sys.modules[f"susychain.{layer}"]
                for attr, obj in vars(mod).items():
                    name = f"{layer}.{attr}"
                    if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                            and not attr.startswith("_") and name not in LEAVES):
                        self._wrappers[obj] = self._wrap(name, obj)
        for modname, mod in list(sys.modules.items()):
            if modname == "susychain" or modname.startswith("susychain."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in self._wrappers:
                        setattr(mod, attr, self._wrappers[obj])
                        self._patches.append((mod, attr, obj))

    def _uninstall(self):
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    @contextlib.contextmanager
    def request(self, request_id):
        """Trace one request under a root span."""
        self._request = request_id
        self._install()
        sid, name_id, stack = next(self._ids), self._name_id(REQUEST), self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self._uninstall()
            self.rows.append((sid, name_id, start, end, -1, request_id,
                              threading.get_ident()))
            self._request = -1

    def spans(self):
        """The spans as an array, with threads numbered from 0."""
        rows = np.array(self.rows, dtype=float).reshape(-1, 7)
        rows[:, THREAD] = np.unique(rows[:, THREAD], return_inverse=True)[1]
        return rows

    def save(self, path):
        np.savez(path, rows=self.spans(), names=np.array(self.names),
                 count_req=np.array([c[0] for c in self.counts], dtype=float),
                 count_key=np.array([c[1] for c in self.counts], dtype=str),
                 count_val=np.array([c[2] for c in self.counts], dtype=float))


def union_lengths(group, start, end, n_groups):
    """Length of the union of the intervals [start, end) within each group."""
    if len(group) == 0:
        return np.zeros(n_groups)
    order = np.lexsort((start, group))
    g, s, e = group[order], start[order], end[order]
    # shift the groups apart so one running maximum never crosses a group
    base, width = s.min(), e.max() - s.min() + 1.0
    s = s - base + g * width
    e = e - base + g * width
    reach = np.maximum.accumulate(e)
    before = np.concatenate(([-np.inf], reach[:-1]))
    return np.bincount(g, weights=reach - np.maximum(s, before), minlength=n_groups)


def summarize(rows, names, counts=()):
    """Per-layer statistics, each averaged over the traced requests.

    For every span name: `ms` (time inside it), `calls`, `self_ms` (its
    time minus the union of its children's spans) and `concurrency` (sum
    of its span times over the length of their union, per request that
    calls it). `counts` adds the per-call counts of COUNTS.
    """
    ids = rows[:, ID].astype(np.int64)
    name = rows[:, NAME].astype(np.int64)
    start, end = rows[:, START], rows[:, END]
    parent = rows[:, PARENT].astype(np.int64)
    req = rows[:, REQ].astype(np.int64)
    dur = end - start

    by_id = np.argsort(ids)
    child = parent >= 0
    parents, group = np.unique(parent[child], return_inverse=True)
    covered = np.zeros(len(rows))
    covered[by_id[np.searchsorted(ids[by_id], parents)]] = union_lengths(
        group, start[child], end[child], len(parents))
    self_time = dur - covered

    n_req = max(1, int(np.sum(name == names.index(REQUEST)))) if REQUEST in names else 1
    out = {}
    for i, nm in enumerate(names):
        sel = name == i
        out[f"{nm}.ms"] = 1e3 * dur[sel].sum() / n_req
        out[f"{nm}.calls"] = sel.sum() / n_req
        out[f"{nm}.self_ms"] = 1e3 * self_time[sel].sum() / n_req
        reqs, rgroup = np.unique(req[sel], return_inverse=True)
        busy = np.bincount(rgroup, weights=dur[sel], minlength=len(reqs))
        union = union_lengths(rgroup, start[sel], end[sel], len(reqs))
        out[f"{nm}.concurrency"] = float(np.mean(busy / union)) if len(reqs) else 0.0

    per_request = {}
    for request, key, value in counts:
        slot = per_request.setdefault(key, {})
        if key.rsplit(".", 1)[1] in COUNT_MAX:
            slot[request] = max(slot.get(request, 0.0), value)
        else:
            slot[request] = slot.get(request, 0.0) + value
    for key, slot in per_request.items():
        out[key] = sum(slot.values()) / n_req
    return out


def table(stats, request_ms):
    """Text table of the layers, by self time."""
    layers = sorted({k.rsplit(".", 1)[0] for k in stats if k.endswith(".self_ms")},
                    key=lambda nm: -stats[f"{nm}.self_ms"])
    lines = [f"{'layer':<40} {'calls':>9} {'ms':>10} {'self_ms':>10} {'share%':>7}"]
    for nm in layers:
        ms = stats[f"{nm}.ms"]
        lines.append(f"{nm:<40} {stats[f'{nm}.calls']:>9.1f} {ms:>10.2f} "
                     f"{stats[f'{nm}.self_ms']:>10.2f} "
                     f"{100 * ms / request_ms if request_ms else 0.0:>7.1f}")
    return "\n".join(lines)


if __name__ == "__main__":
    saved = np.load(sys.argv[1])
    saved_counts = zip(saved["count_req"], saved["count_key"], saved["count_val"])
    stats = summarize(saved["rows"], list(saved["names"]), saved_counts)
    print(table(stats, stats.get(f"{REQUEST}.ms", 0.0)))
