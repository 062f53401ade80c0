"""Point queries, batched into shared graph passes.

A service round may hold many concurrent point queries (neighborhood
expansions, shortest-path probes).  Running each one as its own BFS would
issue the same kind of small random index/edge reads the paper's whole
design exists to avoid.  Instead, all queries active in a round advance
*together*, one level per pass:

1. Union the frontiers of every live query into one sorted vertex list.
2. One coalesced ``index_lookup`` + ``edges_for`` over the union — a single
   set of flash reads shared by the whole batch.
3. One ``charge_chunk_sort`` for the level — the batch's updates go through
   a shared sort-reduce pass rather than one tiny sort per query.
4. Each query then expands its own slice of the shared edge block.

Per-query expansion is order-deterministic: frontier vertices are processed
in sorted order and a newly discovered vertex's parent is its *first*
discoverer in that order, so a batched query returns byte-identical results
to the same query run alone (the determinism suite asserts this).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.service.jobs import DEFAULT_PATH_CAP

#: Simulated record width of a (vertex, payload) update in the shared pass.
RECORD_BYTES = 16


def checksum(array: np.ndarray) -> int:
    """crc32 of an array's bytes — the determinism suite's comparator."""
    return zlib.crc32(np.ascontiguousarray(array).tobytes())


@dataclass
class _QueryState:
    """One live query's BFS state inside a batch."""

    job_id: str
    kind: str                    # "neighborhood" | "path"
    frontier: np.ndarray         # sorted vertex ids to expand next level
    visited: np.ndarray          # bool mask over vertices
    levels_left: int
    target: int = -1             # path only
    parents: dict = field(default_factory=dict, init=False)  # path: child -> parent
    reached: list = field(default_factory=list, init=False)  # neighborhood: per-level hits
    done: bool = False


def _make_state(job_id: str, kind: str, params: dict, num_vertices: int) -> _QueryState:
    visited = np.zeros(num_vertices, dtype=bool)
    if kind == "neighborhood":
        v = int(params["v"])
        depth = int(params.get("depth", 1))
        _check_vertex(v, num_vertices)
        visited[v] = True
        return _QueryState(job_id, kind, np.array([v], dtype=np.int64),
                           visited, depth)
    if kind == "path":
        src, dst = int(params["src"]), int(params["dst"])
        _check_vertex(src, num_vertices)
        _check_vertex(dst, num_vertices)
        cap = int(params.get("cap", DEFAULT_PATH_CAP))
        visited[src] = True
        state = _QueryState(job_id, kind, np.array([src], dtype=np.int64),
                            visited, cap, target=dst)
        if src == dst:
            state.done = True
        return state
    raise ValueError(f"not a batched point-query kind: {kind!r}")


def _check_vertex(v: int, num_vertices: int) -> None:
    if not 0 <= v < num_vertices:
        raise ValueError(f"vertex {v} out of range [0, {num_vertices})")


def run_point_batch(graph, backend, clock, queries: list[tuple[str, str, dict]],
                    ) -> dict[str, dict]:
    """Advance every query to completion against ``graph``.

    ``queries`` is a list of ``(job_id, kind, params)``; returns a JSON-safe
    result dict per job id.  All flash reads and the per-level sort-reduce
    charge are shared across the batch.

    Invalid queries (out-of-range vertex, missing param) are a *per-query*
    failure domain: the offending job gets an ``{"error": ...}`` result and
    the rest of the batch proceeds untouched — one tenant's bad input must
    never take down another tenant's round.
    """
    states = []
    errors: dict[str, dict] = {}
    for job_id, kind, params in queries:
        try:
            states.append(_make_state(job_id, kind, params,
                                      graph.num_vertices))
        except (ValueError, KeyError, TypeError) as exc:
            errors[job_id] = {"kind": kind,
                              "error": f"{type(exc).__name__}: {exc}"}
    while True:
        live = [s for s in states if not s.done and len(s.frontier)
                and s.levels_left > 0]
        if not live:
            break
        union = np.unique(np.concatenate([s.frontier for s in live]))
        starts, ends = graph.index_lookup(union)
        dsts = graph.edges_for(starts, ends).take()
        lengths = (ends - starts).astype(np.int64)
        base = np.cumsum(lengths) - lengths
        # The batch's level goes through one shared sort-reduce pass: one
        # chunk-sort charge for the union's updates, not one per query.
        backend.charge_chunk_sort(clock, max(1, len(dsts)) * RECORD_BYTES)
        for state in live:
            _advance(state, union, dsts, base, lengths)
    results = {s.job_id: _finish(s) for s in states}
    results.update(errors)
    return results


def _advance(state: _QueryState, union: np.ndarray, dsts: np.ndarray,
             base: np.ndarray, lengths: np.ndarray) -> None:
    """Expand one query's frontier using the batch's shared edge block."""
    idx = np.searchsorted(union, state.frontier)
    n = lengths[idx]
    if int(n.sum()) == 0:
        state.frontier = np.empty(0, dtype=np.int64)
        return
    # Per-edge (src, dst) pairs in frontier order, then file order — the
    # same order a solo BFS over this frontier would see them.
    srcs = np.repeat(state.frontier, n)
    offs = np.concatenate([np.arange(b, b + c) for b, c in
                           zip(base[idx].tolist(), n.tolist())])
    level_dsts = dsts[offs].astype(np.int64)
    fresh = ~state.visited[level_dsts]
    new_dsts, new_srcs = level_dsts[fresh], srcs[fresh]
    if len(new_dsts) == 0:
        state.frontier = np.empty(0, dtype=np.int64)
        return
    uniq, first = np.unique(new_dsts, return_index=True)
    state.visited[uniq] = True
    if state.kind == "path":
        for child, parent in zip(uniq.tolist(), new_srcs[first].tolist()):
            state.parents[child] = parent
        if state.visited[state.target]:
            state.done = True
    else:
        state.reached.append(uniq)
    state.frontier = uniq
    state.levels_left -= 1


def _finish(state: _QueryState) -> dict:
    if state.kind == "neighborhood":
        vertices = np.flatnonzero(state.visited).astype(np.int64)
        return {"kind": "neighborhood", "count": int(len(vertices)),
                "vertices": vertices[:64].tolist(),
                "checksum": checksum(vertices)}
    # path: walk the parent chain back from the target.
    if not state.visited[state.target]:
        return {"kind": "path", "found": False, "path": [],
                "checksum": checksum(np.empty(0, dtype=np.int64))}
    hops = [state.target]
    while hops[-1] in state.parents:
        hops.append(state.parents[hops[-1]])
    hops.reverse()
    arr = np.asarray(hops, dtype=np.int64)
    return {"kind": "path", "found": True, "hops": len(hops) - 1,
            "path": hops[:64], "checksum": checksum(arr)}


def vstate_vertices(params: dict, num_vertices: int) -> list[int]:
    """The distinct vertices a ``vstate`` query reads, ascending.

    Raises ``TypeError`` or ``ValueError`` on a ``v`` that is not a vertex,
    the same per-query failure domain as :func:`run_point_batch`.
    """
    vertices = params.get("v", [0])
    if not isinstance(vertices, list):
        vertices = [vertices]
    for v in vertices:
        if not isinstance(v, int):
            raise TypeError(f"vertex {v!r} is not an integer")
        _check_vertex(v, num_vertices)
    return sorted(set(vertices))


def read_vstate(store, filename: str, value_dtype, order: list[int]) -> dict:
    """Vertex-state reads from a finished run's durable result file.

    One access per vertex of ``order`` (ascending, distinct; see
    :func:`vstate_vertices`): a scatter read, nearby vertices are not
    coalesced.
    """
    arr = store.read_spans(filename, value_dtype,
                           [(v, v + 1) for v in order]).take()
    return {"kind": "vstate", "vertices": order,
            "values": [_json_scalar(v) for v in arr.tolist()],
            "checksum": checksum(arr)}


def _json_scalar(v):
    # float32 values reach JSON via repr of the exact float; ints stay ints.
    return float(v) if isinstance(v, float) else int(v)
