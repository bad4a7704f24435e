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

Every run splits the walk at its top level.  Work unit u is the walk
from the frontier {stack: [], next_card: u} whose top level ends at
u + 1: card u itself, then its subtree.  One worker walks the units in
order in its own process, each seeded with the best of the units before
it, so it counts exactly as the whole walk; more workers run them in a
process pool.  A unit's frontier is a stack of cards, which starts at u,
plus the next candidate at the current level; an empty stack has next
card u (not begun) or u + 1 (exhausted).  A checkpoint maps each started
unit to its frontier, from which a resumed run rebuilds the gain array
and continues the identical traversal, at any worker count.

Rows past half the deck are answered by their complements.  Let N = 3**d,
r = (N - 1) / 2 (the lines through a card) and L = N * r / 3 (all lines).
For a board B of k cards let t_i count the lines meeting B in exactly i
cards.  Counting lines, incidences and pairs of B gives
t_0 + t_1 + t_2 + t_3 = L, t_1 + 2 t_2 + 3 t_3 = k r and
t_2 + 3 t_3 = C(k, 2), so the sets on the N - k cards outside B number

    t_0 = L - k r + C(k, 2) - t_3,

and M_d(N - k) = L - k r + C(k, 2) - m_d(k), where m_d(k) is the fewest
sets on any k-card board.  A pruned row with 3 <= k = N - n < n therefore
walks boards of k cards, the same lexicographic walk over the same base
(cards 0 and 1 with symmetry on: the affine argument holds for any board
of two or more cards).  Its score starts at L - k r + C(k, 2) and its gain
array steps by -1 per completed pair, so cnt + gain[c] is exactly the set
count of the complement of the board extended by c, and the walk maximizes
it.  A card joining a board only adds sets, so a score never rises along a
branch: the slack of every level is 0, and pruning with it stays exact.
Every walked board reaching the final maximum has every prefix scoring at
least that maximum, so strict pruning visits it whatever the shared best
value does.  The witness is the complement of the first such board in walk
order, as deterministic as a direct row's.  For these rows nodes and
prunes count the min-walk, and a saved frontier and witness hold its
k-card boards; the result's witness is their complement.

_plan is the one place that decides the walk: board size, base, first
candidate, score offset, gain step and the slack of each level (a
candidate is pruned iff its score plus that slack is below the best).
Every checkpoint records the plan, and a file of another plan is refused.
The naive engine is the plan whose slack is L at every level.  Its offset
is 0 and its step 1, so every score is at least 0, while no best (nor a
seed from another unit) exceeds the L lines of the deck: nothing is
pruned, and the walk visits every n-card board.
"""

from __future__ import annotations

import csv
import json
import os
import signal
import time
from dataclasses import asdict, dataclass
from functools import lru_cache
from math import comb

from . import geometry
from .counting import Board, add_to_gain, count_sets

DEFAULT_NAIVE_BUDGET = 10 ** 10  # triple-checks; roughly a day of CPU

CHECKPOINT_FORMAT = "setmax-checkpoint"
CHECKPOINT_VERSION = 5

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
        if not isinstance(self.symmetry, bool):
            raise ValueError(f"symmetry must be a boolean, got {self.symmetry!r}")
        if not _is_int(self.threads) or self.threads < 1:
            raise ValueError(f"threads must be a positive integer, got {self.threads!r}")
        interval = self.report_interval
        if isinstance(interval, bool) or not isinstance(interval, (int, float)) or not interval > 0:
            raise ValueError(f"report_interval must be a positive number, got {interval!r}")
        if self.stop_after_nodes is not None and (not _is_int(self.stop_after_nodes) or self.stop_after_nodes < 0):
            raise ValueError(f"stop_after_nodes must be None or an integer >= 0, got {self.stop_after_nodes!r}")
        if not _is_int(self.naive_budget) or self.naive_budget < 0:
            raise ValueError(f"naive_budget must be an integer >= 0, got {self.naive_budget!r}")


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
    units: dict  # str(u) -> the frontier of work unit u's walk


def bound_remaining(current_size: int, target_n: int) -> int:
    """Most sets the remaining cards could still add, growing a board from
    current_size to target_n.

    A card joining an m-card board completes at most floor(m/2) new sets:
    every new set pairs it with two existing cards, and two sets through
    the same new card cannot share an existing card.  Summing that per
    growth step never undercounts, so pruning with it stays exact.

    The sum is S(n) - S(a), where S(k) = sum(m // 2 for m in range(k)) =
    (k - 1)**2 // 4 for every k >= 0, by induction: S(0) = 1 // 4 = 0, and
    k**2 // 4 - (k - 1)**2 // 4 is j**2 - (j**2 - j) = j for k = 2j and
    (j**2 + j) - j**2 = j for k = 2j + 1, which is k // 2 = S(k + 1) - S(k).
    """
    if not 0 <= current_size <= target_n:
        raise ValueError(f"current size {current_size} is outside [0, target {target_n}]")
    return (target_n - 1) ** 2 // 4 - (current_size - 1) ** 2 // 4


def search_space(dim: int, n: int) -> int:
    """Cost model of the naive search: C(3**d, n) boards, C(n, 3) triples each."""
    return comb(3 ** geometry.check_dimension(dim), n) * comb(n, 3)


def _fresh_state(u: int) -> dict:
    return {"stack": [], "next_card": u, "best": -1, "witness": None, "nodes": 0, "pruned": 0}


@dataclass(frozen=True)
class _Plan:
    """The walk of a search, as _plan decides it (see the module docstring)."""

    dim: int
    size: int
    base: tuple[int, ...]
    lo: int
    offset: int
    step: int
    slack: tuple[int, ...]

    def limit(self, size: int) -> int:
        """The end of the candidate range on a board of `size` cards: the
        next card lies below it, leaving room for the cards still to come."""
        return 3 ** self.dim - (self.size - 1 - size)


def _plan(config: SearchConfig) -> _Plan:
    """The walk that answers `config`: a pruned row with 3 <= k = 3**d - n < n
    walks the k missing cards, every other row its own n cards."""
    dim, n = config.dim, config.n
    pruned = config.mode == "pruned"
    base = (0, 1) if pruned and config.symmetry else ()
    k = 3 ** dim - n
    if pruned and 3 <= k < n:
        offset = geometry.line_count(dim) - k * geometry.lines_per_card(dim) + comb(k, 2)
        return _Plan(dim, k, base, len(base), offset, -1, (0,) * k)
    slack = tuple(bound_remaining(size + 1, n) for size in range(n)) if pruned else (geometry.line_count(dim),) * n
    return _Plan(dim, n, base, len(base), 0, 1, slack)


@lru_cache(maxsize=8)
def _start(plan: _Plan) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """The score and gain array of the plan's base board, and the end of
    the candidate range at each board size.  Built once per plan and shared
    by every walk, which copies an array before each push adds to it."""
    rows = geometry.third_rows(plan.dim)
    cnt, gain, chosen = plan.offset, [0] * 3 ** plan.dim, []
    for x in plan.base:
        cnt += gain[x]
        add_to_gain(gain, chosen, x, rows, plan.step)
    return cnt, tuple(gain), tuple(map(plan.limit, range(plan.size)))


def _dfs_segment(
    plan: _Plan,
    state: dict,
    *,
    end: int,
    seed_best: int = -1,
    stop_after_nodes: int | None = None,
    on_progress=None,
) -> None:
    """Advance the depth-first walk described by `state` until the subtree is
    exhausted or a stop trigger fires, and return None: _exhausted tells which.

    The walk extends `base` with cards in strictly increasing order until
    boards of n cards are reached, where n, base, the score offset, the
    gain step and the slack of each level are the plan's.  `end` ends the
    top level (the first card after `base`) before card `end`; work unit u
    is the walk from {stack: [], next_card: u} with end u + 1.  `seed_best`
    only tightens pruning; best/witness in the state reflect boards
    actually visited here, which is what keeps merged parallel results
    deterministic.  The walk leaves its frontier in `state` at every stop
    check (then calls `on_progress`, when given) and when it stops or
    ends.  A KeyboardInterrupt, which can land inside a step, propagates
    with `state` at the frontier of the last check.

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
      one node and one prune.
    - Before it pushes a surviving candidate c, the step bounds c's child
      level from the parent's array, and skips the push when that level
      provably does nothing.  The push adds step to gain[x] for each
      x = third(c, b) with b chosen, and third(c, .) is injective (b is
      third(c, x) again), so each x is raised at most once: the child's
      array is gain'[x] = gain[x] + step [x in R], R = {third(c, b)}.
      Child candidate x in (c, child limit) scores cnt + gain[c] +
      gain'[x].  A leaf child improves best iff some gain'[x] exceeds
      room = best - cnt - gain[c] (best is the walk's own, as at the leaf
      level, so a seed never hides a witness); a non-leaf child is pruned
      whole iff every gain'[x] is at most room = best_eff - (its own
      slack) - cnt - gain[c] - 1.  Either way the child does nothing iff
      no gain'[x] exceeds room.  With rise = max(step, 0), every gain'[x]
      is at most head = max(gain[f + 1:child limit]) + rise, where f <= c
      is the first candidate of this level entry that needed it (kept
      until a push opens the level again; the parent's array does not
      change in between).  The push is skipped when head <= room, and in
      the tie head == room + 1 with rise 1 when no chosen b gives an x =
      third(c, b) with c < x < child limit and gain[x] == room: every
      gain[x] in the range is at most head - 1 = room, so only a raised
      entry at room can pass it, and one raise is all an entry gets.
      The pretest gain[c + 1] <= room sends only the pushes that could
      skip to the head.  The min-walk (rise 0) needs no tie test: a push
      only lowers its entries, so head is the parent's maximum itself,
      not one above it.  Nor does the naive plan (slack L) at a non-leaf
      child: there room < best_eff - L <= 0 <= gain[x], so it never
      skips; at a leaf child it follows the max-walk's rule.  The skip
      counts what the push, the child's step and the pop would have:
      child limit - c nodes, of which child limit - c - 1 prunes above a
      leaf child.

    The stop trigger is checked between steps, once the node counter has
    grown by _PROGRESS_EVERY since the last check.  One step adds fewer
    nodes than the deck has cards, so a stop overshoots stop_after_nodes
    by less than a deck's worth beyond that check.  The saved frontier
    is always a step boundary, which is all a resumed run needs; a frontier
    inside a level, as the one-by-one walk saved it, resumes just as well.
    """
    n, base_len = plan.size, len(plan.base)

    best = state["best"]
    witness = state["witness"]
    nodes = state["nodes"]
    pruned = state["pruned"]

    rows = geometry.third_rows(plan.dim)
    step, slack_at = plan.step, plan.slack
    # No gain entry rises by more than this in one push.
    rise = max(step, 0)

    cnt, gain, limit_at = _start(plan)
    chosen = list(plan.base)

    # Rebuild the gain array along the saved frontier; a pop restores the
    # snapshot taken by its push, and with it the parent's score.
    gain_stack = []
    for s in state["stack"]:
        gain_stack.append(gain)
        cnt += gain[s]
        gain = list(gain)
        add_to_gain(gain, chosen, s, rows, step)

    c = state["next_card"]
    best_eff = best if best > seed_best else seed_best

    leaf = n - 1
    limit_at = list(limit_at)
    limit_at[base_len] = min(limit_at[base_len], end)
    # head_at[size] bounds every gain a push at level size leaves in its
    # child level, from the level's first look-ahead on.
    head_at = [None] * n

    next_check = (nodes | (_PROGRESS_EVERY - 1)) + 1

    def _leave():
        state.update(
            stack=chosen[base_len:], next_card=c, best=best, witness=witness, nodes=nodes, pruned=pruned
        )

    while True:
        if nodes >= next_check:
            # The frontier (stack, c) is saved before candidate c is
            # processed, so a resumed run recounts nothing.
            next_check = nodes + _PROGRESS_EVERY
            if stop_after_nodes is not None and nodes >= stop_after_nodes:
                break
            _leave()
            if on_progress is not None:
                on_progress()

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
        elif c < limit:
            # Candidate c is pruned iff cnt + gain[c] + slack < best_eff.
            floor = best_eff - slack_at[size] - cnt
            start = c
            while c < limit and gain[c] < floor:
                c += 1
            nodes += c - start
            pruned += c - start

        if c >= limit:
            if size == base_len:
                break
            gain = gain_stack.pop()
            c = chosen.pop()
            cnt -= gain[c]
            c += 1
            continue

        # Candidate c survives at a level above the leaf: push it unless
        # its child level can do nothing.
        child = limit_at[size + 1]
        score = cnt + gain[c]
        if size + 1 == leaf:
            room = best - score
        else:
            room = best_eff - slack_at[size + 1] - score - 1
        # A skip needs head <= room, or the tie head == room + 1 with rise 1.
        # Card c + 1 lies in the head's range, so this test settles most
        # pushes without the max.
        if room >= gain[c + 1]:
            head = head_at[size]
            if head is None:
                head = head_at[size] = max(gain[c + 1:child]) + rise
            if rise and head == room + 1:
                # The tie: only a raised entry at room can pass room.
                row = rows[c]
                for b in chosen:
                    x = row[b]
                    if gain[x] == room and c < x < child:
                        break
                else:
                    head = room
            if head <= room:
                nodes += child - c
                if size + 1 < leaf:
                    pruned += child - c - 1
                c += 1
                continue

        nodes += 1
        gain_stack.append(gain)
        cnt = score
        gain = list(gain)
        add_to_gain(gain, chosen, c, rows, step)
        head_at[size + 1] = None
        c += 1
    _leave()


def checkpoint_save(cp: Checkpoint, path) -> None:
    """Write a checkpoint atomically and durably (JSON, versioned): the data
    reaches the disk before the rename makes it the checkpoint."""
    plan = _plan(SearchConfig(dim=cp.dim, n=cp.n, mode=cp.mode, symmetry=cp.symmetry))
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {"dim": cp.dim, "n": cp.n, "mode": cp.mode, "symmetry": cp.symmetry},
        "plan": asdict(plan),
        "units": cp.units,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def checkpoint_load(path) -> Checkpoint:
    """Read a checkpoint naming a valid search whose plan is the one
    this build would run, and whose every unit holds a frontier that unit's
    walk could have left (else CheckpointError)."""
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
            units=payload["units"],
        )
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} is missing field {exc}") from exc
    try:
        config = SearchConfig(dim=cp.dim, n=cp.n, mode=cp.mode, symmetry=cp.symmetry)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"checkpoint {path} describes no valid search: {exc}") from exc
    saved = payload.get("plan")
    if not isinstance(saved, dict):
        raise CheckpointError(f"checkpoint {path} records no walk plan")
    plan = _plan(config)
    # JSON holds the plan's tuples as lists.
    want = json.loads(json.dumps(asdict(plan)))
    differ = sorted(k for k in want.keys() | saved.keys() if want.get(k) != saved.get(k))
    if differ:
        raise CheckpointError(
            f"checkpoint {path} was written by another walk plan; fields that differ: {', '.join(differ)}"
        )
    _check_units(plan, cp.units)
    return cp


def _units(plan: _Plan) -> list[int]:
    """The top-level cards that split the walk into work units."""
    return list(range(plan.lo, plan.limit(len(plan.base))))


def _exhausted(u: int, frontier: dict | None) -> bool:
    """Whether `frontier` ends the walk of work unit u."""
    return frontier is not None and not frontier["stack"] and frontier["next_card"] == u + 1


def _unit_worker(plan: _Plan, u: int, state: dict, seed_best: int, stop_after_nodes: int | None) -> dict:
    """Walk work unit u on from `state` in a pool worker and return the
    frontier the walk leaves.  The worker ignores SIGINT except while it
    walks: a Ctrl-C that killed an idle worker would break the pool."""
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        _dfs_segment(plan, state, end=u + 1, seed_best=seed_best, stop_after_nodes=stop_after_nodes)
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    return state


def _merge_units(config: SearchConfig, plan: _Plan, frontiers: dict, elapsed: float, complete: bool) -> SearchResult:
    # Deterministic merge: best value over all units, witness from the
    # lexicographically first unit that achieved it.  Strict pruning
    # guarantees every unit that contains a maximum board reports it.
    best = -1
    witness = None
    nodes = 0
    pruned = 0
    for u in _units(plan):
        f = frontiers.get(str(u))
        if f is None:
            continue
        nodes += f["nodes"]
        pruned += f["pruned"]
        if f["best"] > best:
            best = f["best"]
            witness = f["witness"]
    if witness is not None and plan.size != config.n:
        walked = set(witness)
        witness = [x for x in range(3 ** config.dim) if x not in walked]
    return SearchResult(
        max_sets=best,
        witness=Board(config.dim, witness) if witness is not None else None,
        nodes_visited=nodes,
        configs_pruned=pruned,
        elapsed=elapsed,
        complete=complete,
    )


def _run(config: SearchConfig, frontiers: dict | None = None) -> SearchResult:
    """Walk every work unit on from its frontier in `frontiers` (keyed by
    str(u); a unit not there starts afresh) and merge the units.  No unit
    starts after a stop or an interrupt, and each unit stops at the node
    budget left when it starts.  The unit map is saved at the end and at the
    first stop check or unit end a report_interval after the last save.
    Before any unit starts, a naive search over its budget is refused with
    BudgetExceededError, and a checkpoint path that cannot be written (a
    directory, or a file in a missing or read-only directory) with ValueError."""
    t0 = time.monotonic()
    if config.mode == "naive":
        estimate = search_space(config.dim, config.n)
        if estimate > config.naive_budget:
            raise BudgetExceededError(
                f"naive search would need about {estimate:.3e} triple-checks, over the "
                f"budget of {config.naive_budget:.3e}; use the pruned engine instead",
                estimate,
            )
    path = config.checkpoint_path
    if path is not None:
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise ValueError(f"cannot write checkpoint {path}: it is a directory, or {folder} is not a writable one")
    plan = _plan(config)
    units = _units(plan)
    frontiers = dict(frontiers or {})
    pending = [u for u in units if not _exhausted(u, frontiers.get(str(u)))]
    stop = config.stop_after_nodes
    best = max([-1] + [f["best"] for f in frontiers.values()])
    spent = sum(f["nodes"] for f in frontiers.values())
    next_report = t0 + config.report_interval

    def save():
        nonlocal next_report
        checkpoint_save(Checkpoint(config.dim, config.n, config.mode, config.symmetry, frontiers), path)
        next_report = time.monotonic() + config.report_interval

    def report():
        if path is not None and time.monotonic() >= next_report:
            save()

    def budget(state):
        """The stop_after_nodes of a unit walk from `state`: the run's
        budget left, on top of the nodes the state already holds."""
        return None if stop is None else stop - spent + state["nodes"]

    def keep(u, state, before):
        """Record unit u's frontier and say whether another unit may start."""
        nonlocal best, spent
        frontiers[str(u)] = state
        best = max(best, state["best"])
        spent += state["nodes"] - before
        return _exhausted(u, state) and (stop is None or spent < stop)

    if config.threads == 1:
        try:
            for u in pending:
                state = frontiers.setdefault(str(u), _fresh_state(u))
                before = state["nodes"]
                _dfs_segment(
                    plan,
                    state,
                    end=u + 1,
                    seed_best=best,
                    stop_after_nodes=budget(state),
                    on_progress=report,
                )
                if not keep(u, state, before):
                    break
                report()
        except KeyboardInterrupt:  # the unit keeps the frontier of its last check
            pass
    else:
        # Imported at the first pool: concurrent.futures.process pulls in
        # multiprocessing, which a one-worker run never needs.
        from concurrent import futures

        with futures.ProcessPoolExecutor(
            max_workers=config.threads, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
        ) as pool:
            waiting = iter(pending)
            running = {}

            def submit_next():
                u = next(waiting, None)
                if u is not None:
                    state = frontiers.get(str(u)) or _fresh_state(u)
                    running[pool.submit(_unit_worker, plan, u, state, best, budget(state))] = (u, state["nodes"])

            for _ in range(config.threads):
                submit_next()
            going = True
            while running:
                # A Ctrl-C that lands anywhere in this loop starts no further
                # unit, and the running units still return their frontiers.
                try:
                    ready, _ = futures.wait(list(running), return_when=futures.FIRST_COMPLETED)
                    for fut in ready:
                        u, before = running.pop(fut)
                        going = keep(u, fut.result(), before) and going
                        if going:
                            submit_next()
                    report()
                except KeyboardInterrupt:
                    going = False

    complete = all(_exhausted(u, frontiers.get(str(u))) for u in units)
    if path is not None:
        save()
    return _merge_units(config, plan, frontiers, time.monotonic() - t0, complete)


def max_sets_naive(config: SearchConfig) -> SearchResult:
    """Exact maximum by enumerating every n-card board in lexicographic order.

    It runs as every search does, under the plan that prunes nothing; it and
    its resumes refuse instances whose estimated triple-check count exceeds
    the budget.  The witness is the lexicographically first maximizer.
    """
    if config.mode != "naive":
        raise ValueError("max_sets_naive requires mode='naive'")
    return _run(config)


def max_sets_pruned(config: SearchConfig) -> SearchResult:
    """Exact maximum by branch-and-bound; same answers as the naive engine.

    With symmetry on, only boards containing cards 0 and 1 are searched and
    the witness is one representative of an orbit of equivalent boards.
    """
    if config.mode != "pruned":
        raise ValueError("max_sets_pruned requires mode='pruned'")
    return _run(config)


def run_search(config: SearchConfig) -> SearchResult:
    return _run(config)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _witness_board(plan: _Plan, witness) -> Board | None:
    """The board of a saved witness, which must be a board of the walk:
    a list of plan.size distinct cards of the deck (None stays None)."""
    if witness is None:
        return None
    refusal = f"checkpoint witness {witness!r} is not {plan.size} distinct cards in [0, {3 ** plan.dim})"
    if not isinstance(witness, list) or len(witness) != plan.size:
        raise CheckpointError(refusal)
    try:
        return Board(plan.dim, witness)
    except ValueError as exc:
        raise CheckpointError(f"{refusal}: {exc}") from None


_FRONTIER_KEYS = ("stack", "next_card", "best", "witness", "nodes", "pruned")


def _check_units(plan: _Plan, units) -> None:
    """Reject a unit map the run could not have saved: each key must name a
    work unit u of this search and hold a frontier of u's walk, whose stack
    starts at u and holds a candidate of each level, or is empty with next
    card u or u + 1, whose best is the score of its witness (-1 with none),
    and whose 0 <= pruned <= nodes.

    A resumed walk rebuilds its gain array from the stack without
    recounting, so a frontier it would misread must fail here rather than
    resume silently into a wrong answer.
    """
    if not isinstance(units, dict):
        raise CheckpointError(f"checkpoint units {units!r} is not a mapping of units")
    names = {str(u) for u in _units(plan)}
    need = plan.size - len(plan.base)
    for key, state in units.items():
        if key not in names:
            raise CheckpointError(f"checkpoint unit {key!r} is not a work unit of this search")
        if not isinstance(state, dict):
            raise CheckpointError(f"checkpoint unit {key} {state!r} is not a mapping")
        for field in _FRONTIER_KEYS:
            if field not in state:
                raise CheckpointError(f"checkpoint unit {key} is missing field {field!r}")
        stack, c = state["stack"], state["next_card"]
        if not isinstance(stack, list) or not all(_is_int(x) for x in stack):
            raise CheckpointError(f"checkpoint stack {stack!r} is not a list of card ids")
        if len(stack) >= need:
            raise CheckpointError(
                f"checkpoint stack holds {len(stack)} cards; a walked board of {plan.size} "
                f"over a base of {len(plan.base)} allows at most {need - 1}"
            )
        if any(a >= b for a, b in zip(stack, stack[1:])):
            raise CheckpointError(f"checkpoint stack {stack!r} is not strictly increasing")
        u = int(key)
        if not (stack[0] == u if stack else c in (u, u + 1)):
            raise CheckpointError(
                f"checkpoint unit {key} holds no frontier of its walk: stack {stack!r}, next_card {c!r}"
            )
        for level, x in enumerate(stack, len(plan.base)):
            if x >= plan.limit(level):
                raise CheckpointError(f"checkpoint stack card {x} is past the end {plan.limit(level)} of level {level}")
        first = stack[-1] + 1 if stack else u
        limit = plan.limit(len(plan.base) + len(stack))
        if not _is_int(c) or not first <= c <= limit:
            raise CheckpointError(f"checkpoint next_card {c!r} is outside [{first}, {limit}]")
        for field in ("best", "nodes", "pruned"):
            if not _is_int(state[field]):
                raise CheckpointError(f"checkpoint {field} {state[field]!r} is not an integer")
        if not 0 <= state["pruned"] <= state["nodes"]:
            raise CheckpointError(f"checkpoint unit {key} counts {state['pruned']} prunes of {state['nodes']} nodes")
        board = _witness_board(plan, state["witness"])
        # A walk's best is -1 until it scores a board, and from then on the
        # score of its witness, a walked board (see _plan).
        score = -1 if board is None else plan.offset + plan.step * count_sets(board)
        if state["best"] != score:
            raise CheckpointError(f"checkpoint unit {key} has best {state['best']}, but its witness scores {score}")


def _resume(config: SearchConfig, cp: Checkpoint) -> SearchResult:
    """Continue the search of checkpoint `cp` as `config` asks, which must
    name the file's search (else CheckpointError)."""
    saved, asked = ((c.dim, c.n, c.mode, c.symmetry) for c in (cp, config))
    if saved != asked:
        raise CheckpointError(
            f"checkpoint {config.checkpoint_path} holds the search (dim, n, mode, symmetry) = {saved}, not {asked}"
        )
    return _run(config, {u: {k: f[k] for k in _FRONTIER_KEYS} for u, f in cp.units.items()})


def resume_checkpoint(config: SearchConfig) -> SearchResult:
    """Continue the search `config` from its checkpoint_path to completion
    (or the next stop), at config.threads workers.  The file must hold that
    search, (dim, n, mode, symmetry) alike, else CheckpointError.

    A run resumed any number of times ends with the same maximum and
    witness as an uninterrupted one, and at one worker with the same
    counters; resuming a finished run returns its result at once.
    ValueError if config names no checkpoint_path.
    """
    if config.checkpoint_path is None:
        raise ValueError("resume_checkpoint needs a checkpoint file, but config.checkpoint_path is None")
    return _resume(config, checkpoint_load(config.checkpoint_path))


def resume_search(checkpoint_path, **run) -> SearchResult:
    """resume_checkpoint of the search the file at checkpoint_path holds,
    with the other SearchConfig fields from `run`; CheckpointError if
    checkpoint_load refuses the file."""
    cp = checkpoint_load(checkpoint_path)
    config = SearchConfig(cp.dim, cp.n, cp.mode, cp.symmetry, checkpoint_path=str(checkpoint_path), **run)
    return _resume(config, cp)


@dataclass(frozen=True)
class TableRow:
    n: int
    max_sets: int
    search_space: int
    nodes_visited: int
    elapsed_seconds: float
    complete: bool


def table_configs(dim: int, n_from: int, n_to: int, *, threads: int = 1) -> list[SearchConfig]:
    """The search of every row of a table for the board sizes [n_from,
    n_to] (ValueError for a bad range or worker count)."""
    geometry.check_dimension(dim)
    deck = 3 ** dim
    if not 3 <= n_from <= n_to <= deck:
        raise ValueError(f"need 3 <= n_from <= n_to <= {deck}, got [{n_from}, {n_to}]")
    return [SearchConfig(dim=dim, n=n, mode="pruned", threads=threads) for n in range(n_from, n_to + 1)]


def run_table(
    dim: int,
    n_from: int,
    n_to: int,
    out=None,
    *,
    threads: int = 1,
) -> list[TableRow]:
    """Maximum set counts for every board size in [n_from, n_to].

    Each row is computed by the pruned engine and, when `out` is given,
    streamed to it as CSV as soon as it is known.  If a row's search is
    interrupted the row is emitted with complete=false and the table stops.
    Every row's search is checked before the header is written.
    """
    configs = table_configs(dim, n_from, n_to, threads=threads)
    writer = None
    if out is not None:
        writer = csv.writer(out)
        writer.writerow(CSV_HEADER)
        if hasattr(out, "flush"):
            out.flush()
    rows = []
    for config in configs:
        result = max_sets_pruned(config)
        row = TableRow(
            n=config.n,
            max_sets=result.max_sets,
            search_space=search_space(dim, config.n),
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
