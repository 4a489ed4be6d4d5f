"""Outside-in span recorder for the numrad benchmark.

The tracer replaces public functions of each numrad layer with wrappers
that record one span per call (name, start, end, parent) and counts for a
few hot inner functions and for the matrices handed to numpy's Hermitian
eigensolvers. A wrapper replaces the function under every name that any
numrad module bound to it (``harness.omega``, ``bounds.omega`` and
``radius.omega`` are one function), so calls are seen whichever module
makes them. ``uninstall`` restores every original.

Spans live in per-thread lists, so the parallel campaign path needs no
lock on the hot path. A count is attributed to the innermost open span of
the calling thread.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import threading
from time import perf_counter

import numpy.linalg

# (module, function, metric name). The metric name is the layer's module
# and the public function, except the per-trial call, which is private.
SPANS = (
    ("numrad.ensembles", "sample", "ensembles.sample"),
    ("numrad.funcpair", "validate_pair", "funcpair.validate_pair"),
    ("numrad.linalg", "spectral_norm", "linalg.spectral_norm"),
    ("numrad.linalg", "gram_eigen", "linalg.gram_eigen"),
    ("numrad.linalg", "herm_eig", "linalg.herm_eig"),
    ("numrad.linalg", "fn_of_psd", "linalg.fn_of_psd"),
    ("numrad.linalg", "fn_of_abs", "linalg.fn_of_abs"),
    ("numrad.radius", "omega", "radius.omega"),
    ("numrad.radius", "omega_p", "radius.omega_p"),
    ("numrad.bounds", "bound_main1", "bounds.bound_main1"),
    ("numrad.bounds", "bound_product_xy", "bounds.bound_product_xy"),
    ("numrad.bounds", "bound_sum_norm", "bounds.bound_sum_norm"),
    ("numrad.bounds", "bound_main11", "bounds.bound_main11"),
    ("numrad.bounds", "bound_main11_young", "bounds.bound_main11_young"),
    ("numrad.bounds", "bound_main3", "bounds.bound_main3"),
    ("numrad.bounds", "bound_main4", "bounds.bound_main4"),
    ("numrad.bounds", "bound_th1", "bounds.bound_th1"),
    ("numrad.harness", "run_campaign", "harness.run_campaign"),
    ("numrad.harness", "_run_single", "harness.trial"),
    ("numrad.harness", "evaluate_bound", "harness.evaluate_bound"),
    ("numrad.harness", "report_to_json", "harness.report_to_json"),
    ("numrad.harness", "report_to_csv", "harness.report_to_csv"),
)

# Slots of a span record after (name id, start, end, parent).
EIG, OBJECTIVE, GRADIENT, ZETA = 4, 5, 6, 7

# (module, function, slot): plain counters, one per call.
COUNTERS = (
    ("numrad.radius", "omega_p_objective", OBJECTIVE),
    ("numrad.radius", "omega_p_gradient", GRADIENT),
    ("numrad.bounds", "zeta_value", ZETA),
)


def replace_everywhere(orig, wrapper) -> list[tuple[object, str, object]]:
    """Bind `wrapper` under every numrad module name bound to `orig`.

    Returns the (module, name, original) patches for :func:`restore`.
    """
    patches = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "numrad" or name.startswith("numrad.")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                patches.append((mod, attr, orig))
                setattr(mod, attr, wrapper)
    return patches


def restore(patches) -> None:
    for owner, attr, orig in reversed(patches):
        setattr(owner, attr, orig)


def _batch(a) -> int:
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) <= 2:
        return 1
    n = 1
    for d in shape[:-2]:
        n *= int(d)
    return n


class Tracer:
    """Span and count recorder over the numrad package; see the module doc."""

    def __init__(self):
        self.names: list[str] = []
        self.missing: list[str] = []
        self._local = threading.local()
        self._states: list[tuple[list, list]] = []
        self._states_lock = threading.Lock()
        self._root = [0, 0.0, 0.0, -1, 0, 0, 0, 0]
        self._wrappers: list[tuple[object, object]] = []
        self._patches: list[tuple[object, str, object]] = []
        for modname, fname, metric in SPANS:
            orig = getattr(sys.modules.get(modname), fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            self.names.append(metric)
            self._wrappers.append((orig, self._span(len(self.names) - 1, orig)))
        for modname, fname, slot in COUNTERS:
            orig = getattr(sys.modules.get(modname), fname, None)
            if orig is None:
                self.missing.append(f"{modname}.{fname}")
                continue
            self._wrappers.append((orig, self._counter(slot, orig, None)))
        self._eig = [(fname, getattr(numpy.linalg, fname)) for fname in ("eigh", "eigvalsh")]
        self._eig = [(fname, orig, self._counter(EIG, orig, _batch))
                     for fname, orig in self._eig]

    def install(self) -> None:
        """Put the wrappers in place; recorded data is kept."""
        for orig, wrapper in self._wrappers:
            self._patches += replace_everywhere(orig, wrapper)
        for fname, orig, wrapper in self._eig:
            self._patches.append((numpy.linalg, fname, orig))
            setattr(numpy.linalg, fname, wrapper)

    def uninstall(self) -> None:
        restore(self._patches)
        self._patches = []

    def _state(self) -> tuple[list, list]:
        """Create the calling thread's (spans, open-span stack) pair."""
        state = ([], [])
        self._local.state = state
        with self._states_lock:
            self._states.append(state)
        return state

    def _span(self, nid: int, fn):
        local, make, clock = self._local, self._state, perf_counter

        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = make()
            idx = len(spans)
            rec = [nid, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, 0, 0]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return functools.update_wrapper(wrapper, fn)

    def _counter(self, slot: int, fn, size):
        local, make, root = self._local, self._state, self._root

        def wrapper(*args, **kwargs):
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = make()
            rec = spans[stack[-1]] if stack else root
            rec[slot] += size(args[0]) if size is not None else 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    # -- results ----------------------------------------------------------

    def reset(self) -> None:
        """Forget recorded spans and counts."""
        with self._states_lock:
            for spans, stack in self._states:
                spans.clear()
                stack.clear()
        self._root[EIG:] = [0, 0, 0, 0]

    def span_count(self) -> int:
        return sum(len(spans) for spans, _ in self._states)

    def summary(self) -> dict:
        """Per-name aggregates of the spans recorded since the last reset.

        Each entry holds calls, incl_s, self_s (duration minus the part
        covered by child spans), eigensolves (counted in the span itself),
        eigensolves_incl (with its descendants) and the plain counters. A
        function that could not be wrapped reads as never called.
        """
        stats = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0,
                        "eigensolves": 0, "eigensolves_incl": 0,
                        "objective_calls": 0, "gradient_calls": 0,
                        "zeta_calls": 0}
                 for _, _, name in SPANS}
        totals = {"eigensolves": self._root[EIG], "objective_calls": self._root[OBJECTIVE],
                  "gradient_calls": self._root[GRADIENT], "zeta_calls": self._root[ZETA]}
        for spans, _ in self._states:
            self_s = [rec[2] - rec[1] for rec in spans]
            eig_incl = [rec[EIG] for rec in spans]
            # children are appended after their parent, so a reverse pass
            # finishes every child before its parent is read
            for idx in range(len(spans) - 1, -1, -1):
                parent = spans[idx][3]
                if parent >= 0:
                    self_s[parent] -= spans[idx][2] - spans[idx][1]
                    eig_incl[parent] += eig_incl[idx]
            for idx, rec in enumerate(spans):
                entry = stats[self.names[rec[0]]]
                entry["calls"] += 1
                entry["incl_s"] += rec[2] - rec[1]
                entry["self_s"] += self_s[idx]
                entry["eigensolves"] += rec[EIG]
                entry["eigensolves_incl"] += eig_incl[idx]
                entry["objective_calls"] += rec[OBJECTIVE]
                entry["gradient_calls"] += rec[GRADIENT]
                entry["zeta_calls"] += rec[ZETA]
                totals["eigensolves"] += rec[EIG]
                totals["objective_calls"] += rec[OBJECTIVE]
                totals["gradient_calls"] += rec[GRADIENT]
                totals["zeta_calls"] += rec[ZETA]
        return {"functions": stats, "totals": totals}

    def per_call(self, name: str, slot: int = EIG) -> list[int]:
        """One count per call of `name`, in call order (one thread)."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return [rec[slot] for spans, _ in self._states for rec in spans if rec[0] == nid]

    def write(self, path) -> None:
        """Write the recorded spans as gzip JSON: names plus one list of
        [name id, start, end, parent] per thread."""
        payload = {
            "names": self.names,
            "threads": [[rec[:4] for rec in spans] for spans, _ in self._states if spans],
        }
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))
