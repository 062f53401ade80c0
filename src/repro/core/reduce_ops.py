"""Associative reduction operators for sort-reduce.

Sort-reduce requires the update function to be *binary associative*
(§III-A): ``f(f(v1, v2), v3) == f(v1, f(v2, v3))``.  That lets any two
entries with matching keys be merged early, at any merge level, without
changing the final result.

A :class:`ReduceOp` is a named numpy ufunc, reduced with ``reduceat`` over
group boundaries, or one of the two positional operators ``FIRST`` and
``LAST``, which pick a value by its place in the group.  The operators the
paper's algorithms use:

* ``SUM`` — PageRank's vertex_update and betweenness-centrality backtracing.
* ``FIRST`` — BFS's vertex_update (keep vertexValue1, i.e. any one parent;
  deterministic here because our sorts are stable).
* ``MIN`` — single-source shortest path.
"""

from __future__ import annotations

import numpy as np

from repro.core.kvstream import KVArray

#: The operators that keep a group's first or last value: no ufunc.
POSITIONAL = ("first", "last")


class ReduceOp:
    """A named binary associative reduction over values of equal keys."""

    def __init__(self, name: str, ufunc: np.ufunc | None):
        if ufunc is None and name not in POSITIONAL:
            raise ValueError(f"a ReduceOp needs a ufunc unless it is one of "
                             f"{', '.join(POSITIONAL)}")
        self.name = name
        self.ufunc = ufunc

    def __repr__(self) -> str:
        return f"ReduceOp({self.name})"

    # ------------------------------------------------------------------ apply

    def reduce_sorted(self, run: KVArray, presorted: bool = False) -> KVArray:
        """Collapse duplicate keys of an already-sorted run.

        The result is strictly sorted (unique keys).  This is the operation
        interleaved after every merge step in sort-reduce.  ``presorted``
        skips the sortedness guard for callers that just sorted the run
        themselves.
        """
        if not presorted and not run.is_sorted():
            raise ValueError("reduce_sorted requires a key-sorted run")
        n = len(run)
        if n == 0:
            return run
        starts = group_starts(run.keys)
        if len(starts) == n:
            return run  # all keys already unique
        out_keys = run.keys[starts]
        out_values = self._reduce_groups(run.values, starts)
        return KVArray(out_keys, out_values)

    def _reduce_groups(self, values: np.ndarray, starts: np.ndarray) -> np.ndarray:
        if self.name == "first":
            return values[starts]
        if self.name == "last":
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:]
            ends[-1] = len(values)
            return values[ends - 1]
        return self.ufunc.reduceat(values, starts)

    def scatter_into(self, out_values: np.ndarray, touched: np.ndarray,
                     keys: np.ndarray, values: np.ndarray) -> int:
        """Reduce one batch of (key, value) updates into a dense value table.

        ``out_values`` is indexed by key; ``touched`` marks slots that hold a
        previously-scattered value (untouched slots are *assigned*, touched
        slots are *combined*).  Batch-internal duplicates are collapsed with
        a stable sort first, so for the non-commutative operators (FIRST/
        LAST) the earliest/latest update *in stream order* wins — both
        within a batch and across successive batches.  This is the one
        shared dense-aggregation path: the semi-external execution mode and
        the baseline compute kernels all reduce through it, so the ordering
        rules live in exactly one audited place.

        Returns the number of distinct keys in the batch.
        """
        if len(keys) == 0:
            return 0
        kv = KVArray(np.asarray(keys, dtype=np.uint64), np.asarray(values)).sorted()
        reduced = self.reduce_sorted(kv, presorted=True)
        idx = reduced.keys.astype(np.int64)
        seen = touched[idx]
        fresh = ~seen
        out_values[idx[fresh]] = reduced.values[fresh]
        if seen.any() and self.name != "first":   # FIRST keeps what it holds
            hot, later = idx[seen], reduced.values[seen]
            out_values[hot] = later if self.name == "last" else self.ufunc(out_values[hot], later)
        touched[idx] = True
        return len(reduced)


def group_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Indices where each distinct-key group begins in a sorted key array."""
    if len(sorted_keys) == 0:
        return np.empty(0, dtype=np.intp)
    changes = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    return np.concatenate([[0], changes])


SUM = ReduceOp("sum", np.add)
PROD = ReduceOp("prod", np.multiply)
MIN = ReduceOp("min", np.minimum)
MAX = ReduceOp("max", np.maximum)
FIRST = ReduceOp("first", None)
LAST = ReduceOp("last", None)

_BUILTIN = {op.name: op for op in (SUM, PROD, MIN, MAX, FIRST, LAST)}


def is_builtin_op(op: ReduceOp) -> bool:
    """True iff ``op`` is one of the registry singletons above.

    The parallel sort-reduce pool ships operators to worker processes *by
    name*; an identity check (not just a name match) keeps a user-defined
    operator that shadows a built-in name on the inline path, where its
    actual function runs.
    """
    return _BUILTIN.get(op.name) is op


def op_by_name(name: str) -> ReduceOp:
    """Look up a built-in reduction operator by name."""
    try:
        return _BUILTIN[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN))
        raise KeyError(f"unknown reduce op {name!r}; known: {known}") from None
