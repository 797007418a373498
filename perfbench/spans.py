"""In-memory spans around circumproj's public entry points.

A traced pass installs thin wrappers over the module and class attributes
listed in ENTRY_POINTS, runs, and removes them again, so untraced passes run
the library untouched.  Each span stores its name, start, end, the span that
was open when it started (its parent, per thread) and the pass it belongs
to.  Spans stay in flat arrays until the run ends; `Spans` then derives
durations, self times (duration minus the direct children) and the
outermost ancestor of every span, which the per-layer metrics filter on.

An entry point that no longer exists is reported in `Tracer.absent` and is
simply not traced.
"""

import functools
import importlib
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np

# span name -> the bindings it wraps, as (module, attribute path).  Bindings
# that a module imported by name (cli.solve, problems.residual, ...) are
# listed separately because patching the defining module does not reach them.
ENTRY_POINTS = {
    "problems.generate": (
        ("circumproj.problems", "build_instance"),
        ("circumproj.problems", "build_underdetermined_instance"),
    ),
    "affine.factor": (("circumproj.affine", "AffineSubspace.__init__"),),
    "affine.project": (("circumproj.affine", "AffineSubspace.project"),),
    "problems.residual": (("circumproj.problems", "residual"),),
    "solvers.residual": (("circumproj.solvers", "residual"),),
    "circumcenter": (("circumproj.solvers", "circumcenter"),),
    "solve": (("circumproj.solvers", "solve"), ("circumproj.cli", "solve")),
    "analysis.regularity": (
        ("circumproj.analysis", "estimate_regularity"),
        ("circumproj.cli", "estimate_regularity"),
    ),
    "cli.main": (("circumproj.cli", "main"),),
}


def _resolve(module_name, path):
    """(owner, attribute, current value) or None when the binding is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return None if value is None else (owner, attr, value)


class Tracer:
    """Collects spans; `installed()` wraps the entry points for one pass."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.pass_id = array("q")
        self.size = array("q")
        self.start = array("d")
        self.end = array("d")
        self.absent = []
        self.current_pass = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id, size):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            idx = len(self.start)
            self.name_id.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.current_pass)
            self.size.append(size)
            self.end.append(0.0)
            self.start.append(time.perf_counter())
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._local.stack.pop()

    @contextmanager
    def span(self, name, size=0):
        idx = self._open(self._id(name), size)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name, func):
        name_id = self._id(name)
        # A circumcenter span records its point count as its size.
        counts_points = name == "circumcenter"

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = self._open(name_id, len(args[0]) if counts_points and args else 0)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    @contextmanager
    def installed(self, pass_id):
        """Wrap every entry point while the block runs, as pass `pass_id`."""
        self.current_pass = pass_id
        patched = []
        absent = []
        try:
            for name, bindings in ENTRY_POINTS.items():
                for module_name, path in bindings:
                    found = _resolve(module_name, path)
                    if found is None:
                        absent.append(f"{module_name}.{path}")
                        continue
                    owner, attr, original = found
                    setattr(owner, attr, self._wrap(name, original))
                    patched.append((owner, attr, original))
            self.absent = absent
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def save(self, path):
        """Write every span to an .npz file (names plus flat arrays)."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            pass_id=np.frombuffer(self.pass_id, dtype=np.int64),
            size=np.frombuffer(self.size, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


class Spans:
    """Derived per-span columns and filtered sums over one tracer's spans."""

    def __init__(self, tracer):
        names = np.array(tracer.names + ["-"])  # "-" stands for "no parent"
        name_id = np.array(tracer.name_id, dtype=np.int32)
        parent = np.array(tracer.parent, dtype=np.int64)
        self.pass_id = np.array(tracer.pass_id, dtype=np.int64)
        self.size = np.array(tracer.size, dtype=np.int64)
        self.duration = (np.array(tracer.end, dtype=np.float64)
                         - np.array(tracer.start, dtype=np.float64))
        has_parent = parent >= 0
        children = np.zeros(self.duration.size)
        np.add.at(children, parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - children
        # Parents precede their children, so following parent links until
        # nothing changes ends at each span's outermost ancestor.
        top = np.arange(self.duration.size)
        while True:
            up = np.where(parent[top] >= 0, parent[top], top)
            if np.array_equal(up, top):
                break
            top = up
        self.name = names[name_id]
        self.top = self.name[top]
        self.parent_name = names[np.where(has_parent, name_id[parent], -1)]

    def select(self, name, top=None, parent=None, pass_id=None):
        mask = self.name == name
        if top is not None:
            mask &= self.top == top
        if parent is not None:
            mask &= self.parent_name == parent
        if pass_id is not None:
            mask &= self.pass_id == pass_id
        return mask

    def total(self, mask, column="duration"):
        return float(getattr(self, column)[mask].sum())
