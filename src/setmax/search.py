"""Exhaustive search for the maximum number of sets on an n-card board.

Two engines answer the same question.  The naive engine enumerates every
n-card board and refuses instances beyond a triple-check budget; it is the
reference.  The pruned engine walks the same lexicographic subset tree
depth-first and discards a branch when even an optimistic completion
cannot beat the best board seen.  With symmetry on it also fixes the first
two cards to 0 and 1: the affine group moves any ordered pair of distinct
cards onto any other while preserving set counts, so some maximizer
contains that pair.

Both engines share one depth-first walk, which scores candidates through a
gain array: gain[x] is the number of pairs of chosen cards whose third
card is x.  A card x outside the chosen board adds exactly gain[x] sets,
because each new set is x plus one chosen pair completing to x.  The walk
chooses cards in increasing order, so every candidate lies outside the
board and scores cnt + gain[c] in O(1).  Choosing a card adds one entry
per chosen card (its pairs with the new card); the walk snapshots the
array before that and restores the snapshot when it backtracks.  The same
array drives the greedy trace in `heuristics`.

Pruning is strict (a branch is cut only when it cannot *reach* the current
best), which means every board achieving the final maximum is visited no
matter how the shared best value evolves.  That makes the maximum and the
witness independent of worker scheduling; the node and prune counters of a
parallel run are not, because each unit prunes against the best value
known when it starts.

The frontier of the depth-first walk is a stack of cards plus the next
candidate at the current level; checkpoints serialize exactly that, and a
resumed run rebuilds the gain array from it, so it continues the identical
traversal.  A finished walk saves its exhausted frontier: an empty stack
whose next card ends the top level.

Parallel runs split the same walk at its top level.  Work unit u is the
walk over the same base from the frontier {stack: [], next_card: u} whose
top level ends at u + 1: card u itself, then its subtree.  The units of a
run are its top-level cards, so their counters add up to the sequential
walk's, and a one-worker pool, which seeds each unit with the best of the
units before it, counts exactly as the sequential walk does.  A parallel
checkpoint maps each finished unit to the exhausted frontier its walk left.
"""

from __future__ import annotations

import csv
import json
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from math import comb

from . import geometry
from .counting import Board, add_to_gain

DEFAULT_NAIVE_BUDGET = 10 ** 10  # triple-checks; roughly a day of CPU

CHECKPOINT_FORMAT = "setmax-checkpoint"
CHECKPOINT_VERSION = 2

CSV_HEADER = ("n", "max_sets", "search_space", "nodes_visited", "elapsed_seconds", "complete")

# The hot loop only looks at the clock / stop limit every time the node
# counter crosses a multiple of this power of two.
_PROGRESS_EVERY = 4096


class BudgetExceededError(RuntimeError):
    """A naive search was refused because its estimated cost is too large."""

    def __init__(self, message: str, estimate: int):
        super().__init__(message)
        self.estimate = estimate


class CheckpointError(RuntimeError):
    """A checkpoint file is corrupt or from an incompatible version."""


@dataclass
class SearchConfig:
    dim: int
    n: int
    mode: str = "pruned"  # "naive" or "pruned"
    symmetry: bool = True
    threads: int = 1
    checkpoint_path: str | None = None
    report_interval: float = 60.0
    naive_budget: int = DEFAULT_NAIVE_BUDGET
    stop_after_nodes: int | None = None

    def __post_init__(self):
        geometry.check_dimension(self.dim)
        deck = 3 ** self.dim
        if not isinstance(self.n, int) or not 3 <= self.n <= deck:
            raise ValueError(f"board size must be an integer in [3, {deck}], got {self.n!r}")
        if self.mode not in ("naive", "pruned"):
            raise ValueError(f"mode must be 'naive' or 'pruned', got {self.mode!r}")
        if self.threads < 1:
            raise ValueError(f"threads must be positive, got {self.threads}")
        if self.report_interval <= 0:
            raise ValueError("report_interval must be positive")
        if self.mode == "naive" and self.checkpoint_path is not None:
            raise ValueError("checkpointing is only supported in pruned mode")


@dataclass
class SearchResult:
    max_sets: int
    witness: Board | None
    nodes_visited: int
    configs_pruned: int
    elapsed: float
    complete: bool


@dataclass
class Checkpoint:
    dim: int
    n: int
    mode: str
    symmetry: bool
    kind: str  # "stack" or "units"
    state: dict


def bound_remaining(current_size: int, target_n: int) -> int:
    """Most sets the remaining cards could still add, growing a board from
    current_size to target_n.

    A card joining an m-card board completes at most floor(m/2) new sets:
    every new set pairs it with two existing cards, and two sets through
    the same new card cannot share an existing card.  Summing that per
    growth step never undercounts, so pruning with it stays exact.
    """
    if current_size > target_n:
        raise ValueError(f"current size {current_size} exceeds target {target_n}")
    return sum(m // 2 for m in range(current_size, target_n))


def search_space(dim: int, n: int) -> int:
    """Cost model of the naive search: C(3**d, n) boards, C(n, 3) triples each."""
    return comb(3 ** geometry.check_dimension(dim), n) * comb(n, 3)


def _fresh_state(lo: int) -> dict:
    return {"stack": [], "next_card": lo, "best": -1, "witness": None, "nodes": 0, "pruned": 0}


def _base_and_lo(n: int, mode: str, symmetry: bool) -> tuple[list[int], int]:
    if mode == "pruned" and symmetry and n >= 2:
        return [0, 1], 2
    return [], 0


def _dfs_segment(
    dim: int,
    n: int,
    base: list[int],
    state: dict,
    *,
    prune: bool,
    end: int | None = None,
    seed_best: int = -1,
    stop_after_nodes: int | None = None,
    report_interval: float | None = None,
    on_checkpoint=None,
) -> bool:
    """Advance the depth-first walk described by `state` until the subtree is
    exhausted (returns True) or a stop trigger fires (returns False).

    The walk extends `base` with cards in strictly increasing order until
    boards of n cards are reached.  `end`, when given, ends the top level
    (the first card after `base`) before card `end`; work unit u is the
    walk from {stack: [], next_card: u} with end u + 1.  `seed_best` only
    tightens pruning; best/witness in the state reflect boards actually
    visited here, which is what keeps merged parallel results
    deterministic.

    Every candidate c is larger than every chosen card, so it scores
    cnt + gain[c] (see the module docstring).  Each step of the walk takes
    the candidates of one level from c on as a block, and leaves best,
    witness, nodes and pruned exactly as the one-by-one walk would:

    - At the leaf level every candidate completes a board of n cards and
      counts one node; none is pruned or pushed.  The one-by-one walk
      replaces (best, witness) only on a strict improvement, so its last
      replacement is at the first candidate reaching the block maximum,
      and it happens iff cnt + max > best.  The step scores the whole
      level with one max and finds that candidate with gain.index.
    - At any other level the step counts the run of pruned candidates
      starting at c, then pushes the first candidate that survives.
      best_eff changes only when a leaf improves best, and a pruned
      candidate visits no leaf, so best_eff is constant over the run, as
      are cnt and the bound of the level.  Candidate x is therefore pruned
      iff gain[x] < best_eff - bound - cnt, one threshold for the whole
      run, and the one-by-one walk would count each pruned candidate as
      one node and one prune.  When cnt + max(gain[c:limit]) + bound <
      best_eff, the run lasts to the end of the level.

    The stop and report triggers are checked between steps, once the node
    counter has grown by _PROGRESS_EVERY since the last check.  One step
    adds at most the candidates of one level, so a stop overshoots
    stop_after_nodes by less than one level's candidates beyond that
    check.  The saved frontier is always a step boundary, which is all a
    resumed run needs; a frontier inside a level, as the one-by-one walk
    saved it, resumes just as well.
    """
    deck = 3 ** dim
    base_len = len(base)
    if base_len >= n:
        raise ValueError("base leaves no card to choose")

    best = state["best"]
    witness = state["witness"]
    nodes = state["nodes"]
    pruned = state["pruned"]

    rows = geometry.third_rows(dim)

    gain = [0] * deck
    chosen = []
    cnt = 0
    for x in base:
        cnt += gain[x]
        add_to_gain(gain, chosen, x, rows)

    # Rebuild the gain array along the saved frontier; a pop restores the
    # snapshot taken by its push.
    gain_stack = []
    cnt_stack = []
    for s in state["stack"]:
        gain_stack.append(gain)
        cnt_stack.append(cnt)
        cnt += gain[s]
        gain = gain.copy()
        add_to_gain(gain, chosen, s, rows)

    c = state["next_card"]
    best_eff = best if best > seed_best else seed_best

    # Indexed by the size of the chosen board: the end of the candidate
    # range (leaving room for the cards still to come), and the most sets
    # any completion can still add once a candidate has joined.
    leaf = n - 1
    limit_at = [deck - (leaf - size) for size in range(n)]
    if end is not None:
        limit_at[base_len] = min(limit_at[base_len], end)
    slack_at = [bound_remaining(size + 1, n) for size in range(n)]

    next_check = (nodes | (_PROGRESS_EVERY - 1)) + 1
    next_report = time.monotonic() + report_interval if report_interval else None

    def _sync():
        state.update(
            stack=chosen[base_len:], next_card=c, best=best, witness=witness, nodes=nodes, pruned=pruned
        )

    try:
        while True:
            if nodes >= next_check:
                # The frontier (stack, c) is saved before candidate c is
                # processed, so a resumed run recounts nothing.
                next_check = nodes + _PROGRESS_EVERY
                if stop_after_nodes is not None and nodes >= stop_after_nodes:
                    _sync()
                    if on_checkpoint is not None:
                        on_checkpoint(state)
                    return False
                if next_report is not None and time.monotonic() >= next_report:
                    _sync()
                    if on_checkpoint is not None:
                        on_checkpoint(state)
                    next_report = time.monotonic() + report_interval

            size = len(chosen)
            limit = limit_at[size]
            if size == leaf:
                if c < limit:
                    top = max(gain[c:limit])
                    if cnt + top > best:
                        best = cnt + top
                        witness = chosen + [gain.index(top, c)]
                        if best > best_eff:
                            best_eff = best
                    nodes += limit - c
                    c = limit
            elif prune and c < limit:
                # Candidate c is pruned iff cnt + gain[c] + slack < best_eff.
                floor = best_eff - slack_at[size] - cnt
                if gain[c] < floor:
                    start = c
                    if max(gain[c:limit]) < floor:
                        c = limit
                    else:
                        c += 1
                        while gain[c] < floor:
                            c += 1
                    nodes += c - start
                    pruned += c - start

            if c >= limit:
                if size == base_len:
                    break
                gain = gain_stack.pop()
                cnt = cnt_stack.pop()
                c = chosen.pop() + 1
                continue

            nodes += 1
            gain_stack.append(gain)
            cnt_stack.append(cnt)
            cnt += gain[c]
            gain = gain.copy()
            add_to_gain(gain, chosen, c, rows)
            c += 1
    except KeyboardInterrupt:
        _sync()
        if on_checkpoint is not None:
            on_checkpoint(state)
        return False

    _sync()
    return True


def _checkpoint_for(config: SearchConfig, kind: str, state: dict) -> Checkpoint:
    return Checkpoint(
        dim=config.dim, n=config.n, mode=config.mode, symmetry=config.symmetry, kind=kind, state=state
    )


def checkpoint_save(cp: Checkpoint, path) -> None:
    """Write a checkpoint atomically and durably (JSON, versioned): the data
    reaches the disk before the rename makes it the checkpoint."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {"dim": cp.dim, "n": cp.n, "mode": cp.mode, "symmetry": cp.symmetry},
        "kind": cp.kind,
        "state": cp.state,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def checkpoint_load(path) -> Checkpoint:
    """Read a checkpoint naming a valid pruned search (else CheckpointError)."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            payload = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a search checkpoint")
    if payload.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version mismatch: file has {payload.get('version')!r}, "
            f"this build reads {CHECKPOINT_VERSION}"
        )
    try:
        cfg = payload["config"]
        if not isinstance(cfg, dict):
            raise CheckpointError(f"checkpoint config {cfg!r} is not a mapping")
        cp = Checkpoint(
            dim=cfg["dim"],
            n=cfg["n"],
            mode=cfg["mode"],
            symmetry=cfg["symmetry"],
            kind=payload["kind"],
            state=payload["state"],
        )
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} is missing field {exc}") from exc
    if cp.kind not in ("stack", "units"):
        raise CheckpointError(f"unknown checkpoint kind {cp.kind!r}")
    if not isinstance(cp.state, dict):
        raise CheckpointError(f"checkpoint state {cp.state!r} is not a mapping")
    if not isinstance(cp.symmetry, bool):
        raise CheckpointError(f"checkpoint symmetry {cp.symmetry!r} is not a boolean")
    try:
        SearchConfig(dim=cp.dim, n=cp.n, mode=cp.mode, symmetry=cp.symmetry, checkpoint_path=str(path))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} describes no valid search: {exc}") from exc
    return cp


def _result_from_state(config: SearchConfig, state: dict, elapsed: float, complete: bool) -> SearchResult:
    witness = state["witness"]
    return SearchResult(
        max_sets=state["best"],
        witness=Board(config.dim, witness) if witness is not None else None,
        nodes_visited=state["nodes"],
        configs_pruned=state["pruned"],
        elapsed=elapsed,
        complete=complete,
    )


def _run_sequential(config: SearchConfig, base: list[int], state: dict, *, prune: bool) -> SearchResult:
    t0 = time.monotonic()
    path = config.checkpoint_path

    def save(st):
        if path is not None:
            checkpoint_save(_checkpoint_for(config, "stack", dict(st)), path)

    finished = _dfs_segment(
        config.dim,
        config.n,
        base,
        state,
        prune=prune,
        stop_after_nodes=config.stop_after_nodes,
        report_interval=config.report_interval if path is not None else None,
        on_checkpoint=save,
    )
    if finished:
        save(state)
    return _result_from_state(config, state, time.monotonic() - t0, finished)


def _unit_worker(args) -> dict | None:
    """Walk work unit u; return the exhausted frontier it leaves, or None
    if the walk was interrupted."""
    dim, n, base, u, seed_best, prune = args
    state = _fresh_state(u)
    return state if _dfs_segment(dim, n, base, state, prune=prune, end=u + 1, seed_best=seed_best) else None


def _merge_units(config: SearchConfig, units: list[int], done: dict, elapsed: float, complete: bool) -> SearchResult:
    # Deterministic merge: best value over all units, witness from the
    # lexicographically first unit that achieved it.  Strict pruning
    # guarantees every unit that contains a maximum board reports it.
    best = -1
    witness = None
    nodes = 0
    pruned = 0
    for u in units:
        r = done.get(str(u))
        if r is None:
            continue
        nodes += r["nodes"]
        pruned += r["pruned"]
        if r["best"] > best:
            best = r["best"]
            witness = r["witness"]
    state = {"best": best, "witness": witness, "nodes": nodes, "pruned": pruned}
    return _result_from_state(config, state, elapsed, complete)


def _units(config: SearchConfig, base: list[int], lo: int) -> list[int]:
    """The top-level cards that split a parallel walk into work units."""
    return list(range(lo, 3 ** config.dim - (config.n - len(base)) + 1))


def _run_parallel(
    config: SearchConfig, base: list[int], lo: int, *, prune: bool, done: dict | None = None
) -> SearchResult:
    t0 = time.monotonic()
    units = _units(config, base, lo)
    done = dict(done or {})
    pending = [u for u in units if str(u) not in done]
    path = config.checkpoint_path
    seed = max([-1] + [r["best"] for r in done.values()])
    stop = config.stop_after_nodes
    next_report = time.monotonic() + config.report_interval

    stopped = False
    with ProcessPoolExecutor(max_workers=config.threads) as pool:
        it = iter(pending)
        futures = {}

        def submit_next():
            u = next(it, None)
            if u is not None:
                fut = pool.submit(
                    _unit_worker, (config.dim, config.n, base, u, seed, prune)
                )
                futures[fut] = u

        for _ in range(config.threads):
            submit_next()
        while futures:
            ready, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            for fut in ready:
                u = futures.pop(fut)
                r = fut.result()
                if r is None:
                    # An interrupted unit stays pending and no new unit starts.
                    stopped = True
                    continue
                done[str(u)] = r
                if r["best"] > seed:
                    seed = r["best"]
                if stop is not None and sum(x["nodes"] for x in done.values()) >= stop:
                    stopped = True
                if not stopped:
                    submit_next()
            if path is not None and time.monotonic() >= next_report:
                checkpoint_save(
                    _checkpoint_for(config, "units", {"done": done}), path
                )
                next_report = time.monotonic() + config.report_interval

    complete = all(str(u) in done for u in units)
    if path is not None:
        checkpoint_save(_checkpoint_for(config, "units", {"done": done}), path)
    return _merge_units(config, units, done, time.monotonic() - t0, complete)


def max_sets_naive(config: SearchConfig) -> SearchResult:
    """Exact maximum by enumerating every n-card board in lexicographic order.

    Refuses instances whose estimated triple-check count exceeds the budget;
    the witness is the lexicographically first maximizer.
    """
    if config.mode != "naive":
        raise ValueError("max_sets_naive requires mode='naive'")
    estimate = search_space(config.dim, config.n)
    if estimate > config.naive_budget:
        raise BudgetExceededError(
            f"naive search would need about {estimate:.3e} triple-checks, over the "
            f"budget of {config.naive_budget:.3e}; use the pruned engine instead",
            estimate,
        )
    base, lo = _base_and_lo(config.n, "naive", False)
    if config.threads > 1:
        return _run_parallel(config, base, lo, prune=False)
    return _run_sequential(config, base, _fresh_state(lo), prune=False)


def max_sets_pruned(config: SearchConfig) -> SearchResult:
    """Exact maximum by branch-and-bound; same answers as the naive engine.

    With symmetry on, only boards containing cards 0 and 1 are searched and
    the witness is one representative of an orbit of equivalent boards.
    """
    if config.mode != "pruned":
        raise ValueError("max_sets_pruned requires mode='pruned'")
    base, lo = _base_and_lo(config.n, "pruned", config.symmetry)
    if config.threads > 1:
        return _run_parallel(config, base, lo, prune=True)
    return _run_sequential(config, base, _fresh_state(lo), prune=True)


def run_search(config: SearchConfig) -> SearchResult:
    if config.mode == "naive":
        return max_sets_naive(config)
    return max_sets_pruned(config)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_witness(config: SearchConfig, witness) -> None:
    deck = 3 ** config.dim
    if witness is None:
        return
    if (
        not isinstance(witness, list)
        or len(witness) != config.n
        or not all(_is_int(x) and 0 <= x < deck for x in witness)
        or len(set(witness)) != config.n
    ):
        raise CheckpointError(
            f"checkpoint witness {witness!r} is not {config.n} distinct cards in [0, {deck})"
        )


_FRONTIER_KEYS = ("stack", "next_card", "best", "witness", "nodes", "pruned")


def _check_frontier(config: SearchConfig, base: list[int], lo: int, state, what: str = "state") -> None:
    """Reject a saved depth-first frontier that the walk could not have left.

    The resumed walk rebuilds its gain array from the stack without
    recounting, so a frontier it would misread must fail here rather than
    resume silently into a wrong answer.
    """
    if not isinstance(state, dict):
        raise CheckpointError(f"checkpoint {what} {state!r} is not a mapping")
    for key in _FRONTIER_KEYS:
        if key not in state:
            raise CheckpointError(f"checkpoint {what} is missing field {key!r}")
    deck = 3 ** config.dim
    need = config.n - len(base)
    stack = state["stack"]
    if not isinstance(stack, list) or not all(_is_int(x) for x in stack):
        raise CheckpointError(f"checkpoint stack {stack!r} is not a list of card ids")
    if len(stack) >= need:
        raise CheckpointError(
            f"checkpoint stack holds {len(stack)} cards; a board of {config.n} "
            f"over a base of {len(base)} allows at most {need - 1}"
        )
    if any(not lo <= x < deck for x in stack):
        raise CheckpointError(f"checkpoint stack {stack!r} leaves the range [{lo}, {deck})")
    if any(a >= b for a, b in zip(stack, stack[1:])):
        raise CheckpointError(f"checkpoint stack {stack!r} is not strictly increasing")
    first = stack[-1] + 1 if stack else lo
    limit = deck - (need - len(stack) - 1)
    c = state["next_card"]
    if not _is_int(c) or not first <= c <= limit:
        raise CheckpointError(f"checkpoint next_card {c!r} is outside [{first}, {limit}]")
    for key in ("best", "nodes", "pruned"):
        if not _is_int(state[key]):
            raise CheckpointError(f"checkpoint {key} {state[key]!r} is not an integer")
    _check_witness(config, state["witness"])


def _check_units(config: SearchConfig, base: list[int], lo: int, done) -> None:
    """Reject a `units` checkpoint whose finished units the pool could not
    have saved: each key must name a work unit u of this run and hold the
    exhausted frontier of its walk (empty stack, next card u + 1)."""
    if not isinstance(done, dict):
        raise CheckpointError(f"checkpoint done {done!r} is not a mapping of units")
    names = {str(u) for u in _units(config, base, lo)}
    for key, r in done.items():
        if key not in names:
            raise CheckpointError(f"checkpoint unit {key!r} is not a work unit of this search")
        _check_frontier(config, base, lo, r, f"unit {key}")
        if r["stack"] or r["next_card"] != int(key) + 1:
            raise CheckpointError(
                f"checkpoint unit {key} is not exhausted: stack {r['stack']!r}, next_card {r['next_card']!r}"
            )


def resume_search(
    checkpoint_path,
    *,
    threads: int | None = None,
    stop_after_nodes: int | None = None,
    report_interval: float = 60.0,
) -> SearchResult:
    """Continue a checkpointed pruned search to completion (or the next stop).

    A run resumed any number of times ends with the same result as an
    uninterrupted one, elapsed time aside; resuming a finished run returns
    its result at once.  Raises CheckpointError for a file that is
    unreadable, from another version, names no valid search, or holds a
    frontier, a finished unit or a witness the search could not have saved.
    """
    cp = checkpoint_load(checkpoint_path)
    config = SearchConfig(
        dim=cp.dim,
        n=cp.n,
        mode=cp.mode,
        symmetry=cp.symmetry,
        threads=threads if threads is not None else 1,
        checkpoint_path=str(checkpoint_path),
        report_interval=report_interval,
        stop_after_nodes=stop_after_nodes,
    )
    base, lo = _base_and_lo(config.n, config.mode, config.symmetry)
    if cp.kind == "stack":
        _check_frontier(config, base, lo, cp.state)
        state = {k: cp.state[k] for k in _FRONTIER_KEYS}
        return _run_sequential(config, base, state, prune=True)
    _check_units(config, base, lo, cp.state.get("done"))
    return _run_parallel(config, base, lo, prune=True, done=cp.state["done"])


@dataclass(frozen=True)
class TableRow:
    n: int
    max_sets: int
    search_space: int
    nodes_visited: int
    elapsed_seconds: float
    complete: bool


def run_table(
    dim: int,
    n_from: int,
    n_to: int,
    out=None,
    *,
    threads: int = 1,
    symmetry: bool = True,
) -> list[TableRow]:
    """Maximum set counts for every board size in [n_from, n_to].

    Each row is computed by the pruned engine and, when `out` is given,
    streamed to it as CSV as soon as it is known.  If a row's search is
    interrupted the row is emitted with complete=false and the table stops.
    """
    geometry.check_dimension(dim)
    deck = 3 ** dim
    if not 3 <= n_from <= n_to <= deck:
        raise ValueError(f"need 3 <= n_from <= n_to <= {deck}, got [{n_from}, {n_to}]")
    writer = None
    if out is not None:
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER)
        if hasattr(out, "flush"):
            out.flush()
    rows = []
    for n in range(n_from, n_to + 1):
        config = SearchConfig(dim=dim, n=n, mode="pruned", symmetry=symmetry, threads=threads)
        result = max_sets_pruned(config)
        row = TableRow(
            n=n,
            max_sets=result.max_sets,
            search_space=search_space(dim, n),
            nodes_visited=result.nodes_visited,
            elapsed_seconds=result.elapsed,
            complete=result.complete,
        )
        rows.append(row)
        if writer is not None:
            writer.writerow(
                (
                    row.n,
                    row.max_sets,
                    row.search_space,
                    row.nodes_visited,
                    f"{row.elapsed_seconds:.3f}",
                    "true" if row.complete else "false",
                )
            )
            if hasattr(out, "flush"):
                out.flush()
        if not row.complete:
            break
    return rows
