"""Span recorder for the traced benchmark run.

The traced run wraps, from the outside, the functions that each exotwist
module calls through.  Several modules bind their callees with
``from .milnor import ...``, so a function is wrapped under every name it is
looked up by, not only where it is defined.  Modules are taken from
``sys.modules``: ``exotwist.certify`` as an attribute of the package is the
re-exported *function*, not the module.

Spans are kept in flat in-memory arrays (name, parent, start, end) and only
summarised or written out once the traced run is over.  A span's self time
is its duration minus the time its child spans cover; spans are strictly
nested because the traced run is single-threaded.
"""

from __future__ import annotations

import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name).  The span name's first part is the layer:
# the module that defines the function.
FUNCTIONS = (
    ("exotwist.scan", "run_scan", "scan.run_scan"),
    ("exotwist.scan", "certify", "certify.certify"),
    ("exotwist.scan", "certify_direct", "certify.certify_direct"),
    ("exotwist.scan", "certify_embedding", "certify.certify_embedding"),
    ("exotwist.scan", "from_counts", "milnor.from_counts"),
    ("exotwist.scan", "invariants", "milnor.invariants"),
    ("exotwist.scan", "knot_signature_seifert", "torus_knot.knot_signature_seifert"),
    ("exotwist.certify", "certify", "certify.certify"),
    ("exotwist.certify", "certify_direct", "certify.certify_direct"),
    ("exotwist.certify", "certify_embedding", "certify.certify_embedding"),
    ("exotwist.certify", "invariants", "milnor.invariants"),
    ("exotwist.certify", "b_plus_via_lemma", "milnor.b_plus_via_lemma"),
    ("exotwist.certify", "exoticness_ledger", "ko_ring.exoticness_ledger"),
    ("exotwist.milnor", "brieskorn_count", "milnor.brieskorn_count"),
    ("exotwist.milnor", "from_counts", "milnor.from_counts"),
    # b_plus_via_lemma imports these from torus_knot at call time.
    ("exotwist.torus_knot", "knot_signature_count", "torus_knot.knot_signature_count"),
    ("exotwist.torus_knot", "slice_genus", "torus_knot.slice_genus"),
    ("exotwist.torus_knot", "brieskorn_count", "milnor.brieskorn_count"),
)

# (module, class, method, span name)
METHODS = (
    ("exotwist.certify", "Certificate", "to_csv_row", "certify.render"),
    ("exotwist.certify", "Certificate", "to_json", "certify.render"),
    ("exotwist.certify", "Certificate", "to_text", "certify.render"),
    ("exotwist.cache", "InvariantCache", "__init__", "cache.load"),
    ("exotwist.cache", "InvariantCache", "lookup", "cache.lookup"),
    ("exotwist.cache", "InvariantCache", "lookup_signature", "cache.lookup_signature"),
    ("exotwist.cache", "InvariantCache", "store", "cache.store"),
    ("exotwist.cache", "InvariantCache", "store_signature", "cache.store_signature"),
    ("exotwist.cache", "InvariantCache", "flush", "cache.flush"),
)

CERTIFY_BUILDERS = ("certify.certify", "certify.certify_direct", "certify.certify_embedding")


def _count_hit(counters: dict, name: str, args: tuple, result) -> None:
    if result is not None:
        counters[name + ".hits"] = counters.get(name + ".hits", 0) + 1


def _count_bytes(counters: dict, name: str, args: tuple, result) -> None:
    # Rendered rows are ASCII; the scan adds one newline per row.
    counters[name + ".bytes"] = counters.get(name + ".bytes", 0) + len(result) + 1


def _max_dim(counters: dict, name: str, args: tuple, result) -> None:
    q, r = args[0], args[1]
    counters[name + ".max_dim"] = max(counters.get(name + ".max_dim", 0), (q - 1) * (r - 1))


# Counters recorded at the same boundaries as the spans, keyed "<span>.<what>".
OBSERVERS = {
    "cache.lookup": _count_hit,
    "cache.lookup_signature": _count_hit,
    "certify.render": _count_bytes,
    "torus_knot.knot_signature_seifert": _max_dim,
}


class Tracer:
    """Flat span store plus the counters its wrappers record."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        open_spans, counters = self._open, self.counters
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                open_spans.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(counters, name, args, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, and for
        certify builders the calls made from outside the certify layer."""
        a = self.arrays()
        n = len(a["start"])
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested], minlength=n)
        self_time = dur - covered
        k = len(self.names)
        calls = np.bincount(a["name_id"], minlength=k)
        total = np.bincount(a["name_id"], weights=dur, minlength=k)
        own = np.bincount(a["name_id"], weights=self_time, minlength=k)
        builder = np.isin(a["name_id"], [self._ids[b] for b in CERTIFY_BUILDERS if b in self._ids])
        parent_builder = np.zeros(n, dtype=bool)
        parent_builder[nested] = builder[a["parent"][nested]]
        outer = np.bincount(a["name_id"][builder & ~parent_builder], minlength=k)
        return {
            name: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(own[i]),
                "outer_calls": int(outer[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@contextmanager
def installed(tracer: Tracer):
    """Wrap every traced name for the duration of the block.

    Yields the list of targets that were not found, so a later refactor that
    removes a name degrades the trace instead of breaking it.
    """
    undo: list[tuple[object, str, object]] = []
    missing: list[str] = []
    targets = [(mod, None, attr, span) for mod, attr, span in FUNCTIONS]
    targets += [(mod, cls, attr, span) for mod, cls, attr, span in METHODS]
    try:
        for mod_name, cls_name, attr, span in targets:
            owner = sys.modules.get(mod_name)
            if owner is not None and cls_name is not None:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                missing.append(f"{mod_name}.{cls_name + '.' if cls_name else ''}{attr}")
                continue
            undo.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(span, original))
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
