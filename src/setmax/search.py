"""Exhaustive search for the maximum number of sets on an n-card board.

Two engines answer the same question.  The naive engine enumerates every
n-card board and refuses instances beyond a triple-check budget; it is the
reference.  The pruned engine walks the same lexicographic subset tree
depth-first and discards a branch when even an optimistic completion
cannot beat the best board seen.  With symmetry on it also fixes the first
two cards to 0 and 1: the affine group moves any ordered pair of distinct
cards onto any other while preserving set counts, so some maximizer
contains that pair.  (A min-walk that walks, below, fixes three.)

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
parallel run are not when a walked board beats the floor below, because
each unit then prunes against the best value known when it starts.

A pruned plan with work units (below) prunes against its floor, g, the
set count of the n-card prefix of the greedy trace (heuristics.cmm_run):
every slice prunes against at least g + 1.
The prefix is a real board, so the maximum M >= g.  A board scoring g + 1
or more has every prefix bound at least g + 1 (a max-walk's bound is the
prefix score plus its slack; a min-walk's, below, is the prefix score
itself, never below the board's as scores never rise along a branch),
so strict pruning at g + 1 visits it.  So if M > g the walk visits
every maximizer it holds, and its maximum and witness are those of the
walk without a floor, at any worker count.  Otherwise no
walked board scores above g, M = g, and the witness is the greedy prefix
itself, an n-card board even for a min-walk (with symmetry on, moved by
an affine map onto a board holding cards 0 and 1).  Then every slice
prunes against g + 1 whatever the schedule, so a pool counts nodes and
prunes exactly as one worker does.  The naive plan has no floor and
prunes nothing.  The prefix is read from a trace of fewer than 2n greedy
turns that serves every row up to its length (see _greedy), each turn a
scan of the deck: on the largest row that pays it, d=8 n=6240 (k = 321,
one card above the cap below), the whole 6561-turn trace takes about
3.2 s on a 2-vCPU machine.

Every run splits the walk at its top level.  Work unit u, card u and its
subtree, is the walk from {stack: [], next_card: u} inside the level ends
_ends(plan, u).  One worker walks the units in order in its own process,
each seeded with the best of the units before it, so it counts exactly
as the whole walk; more workers run them in a process pool.  A unit's
frontier is a stack of cards plus the next candidate at the current
level, a path of u's walk (see _off_path); an empty stack has next
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
sets on any k-card board.  A pruned row with k = N - n < n therefore
walks boards of k cards, the same lexicographic walk cut to k cards,
unless k fits the cap below, when it walks nothing.  Every cap below
holds at least 4 cards, so a walked row has k > 4.  With symmetry on its
base is cards 0, 1 and 3, a pair and a card off their line, and its first
work unit is card 4, so card 2, the third card of 0 and 1, never joins.
Some board with the fewest sets lies in that walk:

- No k-card flat (affine subspace) is such a board.  A line through a
  card x outside a flat meets the flat in at most one card, so replacing
  one card of the flat with x removes the (k - 1) / 2 sets through that
  card and adds none.  So every board with the fewest sets is not a flat.
- A board B that is not a flat is not closed under third cards (over
  GF(3) a set closed under them is a flat): it holds a pair {a, b} whose
  third card c lies outside B, and, as k >= 3, a card p off the line
  {a, b, c}, since c is that line's only card outside B.
- a, b, p are affinely independent, as are 0, 1, 3, so an affine map
  sends a, b, p to 0, 1, 3.  It preserves set counts and sends c to 2,
  the third card of 0 and 1, so card 2 lies outside the image of B.

The walk's score starts at L - k r + C(k, 2) and its gain
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

A row whose k is at most the size of _cap(d), a cap (a board holding no
set) of AG(d, 3), walks nothing, with symmetry on or off.  Its base is
the cap's first k cards, itself a cap, so its plan has no work units and
no floor.  The base's complement holds the offset L - k r + C(k, 2) sets,
as t_3 = 0, and no k-card board's complement holds more, as t_3 >= 0.
So the row's maximum is the offset, its witness the deck less the base,
and it counts 0 nodes.

_plan is the one place that decides the walk: board size, base, score
offset, gain step, the slack of each level (a candidate is pruned iff
its score plus that slack is below the best) and the floor, from which
_units derives the work units.  Every checkpoint records the plan, and a
file of another plan is refused.
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
import sys
import time
from contextlib import nullcontext, suppress
from dataclasses import asdict, dataclass, replace
from functools import lru_cache
from math import comb, inf

from . import geometry, heuristics
from .counting import Board, add_to_gain, count_sets

DEFAULT_NAIVE_BUDGET = 10 ** 10  # in search_space's triple-checks, not nodes

CHECKPOINT_FORMAT = "setmax-checkpoint"
CHECKPOINT_VERSION = 5

CSV_HEADER = ("n", "max_sets", "search_space", "nodes_visited", "elapsed_seconds", "complete")

# A run pauses only between slices of a unit's walk, each ending at the first
# step end this many nodes past its start.
_SLICE = 1 << 18

# The one card of AG(0, 3), and caps of AG(3, 3) and AG(4, 3): the
# complements of the witnesses the min-walk found for d=3 n=18 and d=4
# n=61.  _cap doubles them into the others.
_SHIPPED_CAP = {
    0: (0,),
    3: (0, 1, 3, 4, 9, 10, 14, 17, 23),
    4: (0, 1, 3, 4, 9, 10, 12, 13, 27, 28, 32, 35, 38, 47, 59, 65, 66, 67, 71, 77),
}


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
        if not geometry.is_int(self.n) or not 3 <= self.n <= deck:
            raise ValueError(f"board size must be an integer in [3, {deck}], got {self.n!r}")
        if self.mode not in ("naive", "pruned"):
            raise ValueError(f"mode must be 'naive' or 'pruned', got {self.mode!r}")
        if not isinstance(self.symmetry, bool):
            raise ValueError(f"symmetry must be a boolean, got {self.symmetry!r}")
        if not geometry.is_int(self.threads) or self.threads < 1:
            raise ValueError(f"threads must be a positive integer, got {self.threads!r}")
        interval = self.report_interval
        # _run adds it to a float: inf is fine, an int past the float range is not.
        if isinstance(interval, bool) or not isinstance(interval, (int, float)) or not (0 < interval <= sys.float_info.max or interval == inf):
            raise ValueError(f"report_interval must be a positive number, got {interval!r}")
        if self.stop_after_nodes is not None and (not geometry.is_int(self.stop_after_nodes) or self.stop_after_nodes < 0):
            raise ValueError(f"stop_after_nodes must be None or an integer >= 0, got {self.stop_after_nodes!r}")
        if not geometry.is_int(self.naive_budget) or self.naive_budget < 0:
            raise ValueError(f"naive_budget must be an integer >= 0, got {self.naive_budget!r}")


@dataclass
class SearchResult:
    max_sets: int
    witness: Board | None
    nodes_visited: int
    configs_pruned: int
    elapsed: float
    complete: bool


# The SearchConfig fields that name a search: the ones _plan reads.
_SEARCH_FIELDS = ("dim", "n", "mode", "symmetry")


@dataclass
class Checkpoint:
    config: SearchConfig  # the file holds its _SEARCH_FIELDS, not its run settings
    units: dict  # u -> the frontier of work unit u's walk


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
    if not (geometry.is_int(current_size) and geometry.is_int(target_n) and 0 <= current_size <= target_n):
        raise ValueError(f"need integers 0 <= current size <= target, got {current_size!r} and {target_n!r}")
    return (target_n - 1) ** 2 // 4 - (current_size - 1) ** 2 // 4


def search_space(dim: int, n: int) -> int:
    """Cost model of the naive search: C(3**d, n) boards, C(n, 3) triples each."""
    if not geometry.is_int(n):
        raise ValueError(f"board size must be an integer, got {n!r}")
    return comb(3 ** geometry.check_dimension(dim), n) * comb(n, 3)


def _fresh_state(u: int) -> dict:
    return {"stack": [], "next_card": u, "best": -1, "witness": None, "nodes": 0, "pruned": 0}


# The fields of a frontier, which _dfs_segment writes on return.
_FRONTIER_KEYS = tuple(_fresh_state(0))


@dataclass(frozen=True)
class _Plan:
    """The walk of a search, as _plan decides it (see the module docstring)."""

    dim: int
    size: int
    base: tuple[int, ...]
    offset: int
    step: int
    slack: tuple[int, ...]
    floor: int

    def limit(self, size: int) -> int:
        """The end of the candidate range on a board of `size` cards: the
        next card lies below it, leaving room for the cards still to come."""
        return 3 ** self.dim - (self.size - 1 - size)


def _plan(config: SearchConfig) -> _Plan:
    """The walk that answers `config`: a pruned row with k = 3**d - n < n
    walks the k missing cards, every other row its own n cards.  A
    min-walk with k <= len(_cap(d)) starts from the cap's first k cards,
    so it walks nothing and has no floor.  Otherwise, with symmetry on, a
    pruned walk starts from cards 0 and 1, joined by card 3 on a min-walk.
    Every pruned plan that walks has the greedy prefix's set count as its
    floor."""
    dim, n = config.dim, config.n
    if config.mode == "naive":
        return _Plan(dim, n, (), 0, 1, (geometry.line_count(dim),) * n, -1)
    base = (0, 1) if config.symmetry else ()
    k = 3 ** dim - n
    if k < n:
        cap = _cap(dim)
        if k <= len(cap):
            base = cap[:k]
        elif base:
            base += (3,)
        offset = geometry.line_count(dim) - k * geometry.lines_per_card(dim) + comb(k, 2)
        size, step, slack = k, -1, (0,) * k
    else:
        size, offset, step = n, 0, 1
        slack = tuple(bound_remaining(s + 1, n) for s in range(n))
    floor = _greedy(dim, n)[0] if len(base) < size else -1
    return _Plan(dim, size, base, offset, step, slack, floor)


@lru_cache(maxsize=None)
def _cap(dim: int) -> tuple[int, ...]:
    """A cap of AG(dim, 3), a board holding no set, sorted and holding
    cards 0 and 1 from dim = 1 on: the shipped one, or else C x {0, 1}
    for C = _cap(dim - 1), the cards of C with a new first digit 0 or 1.
    That is a cap: the first digits of a set's three cards are all equal
    or all distinct, {0, 1} holds no three distinct digits, so a set
    there would lie in one layer, a copy of C.  So dim = 1, 2 give
    {0, 1}**dim, and dim = 5..8 give 40, 80, 160 and 320 cards."""
    if dim in _SHIPPED_CAP:
        return _SHIPPED_CAP[dim]
    cap = _cap(dim - 1)
    return cap + tuple(x + 3 ** (dim - 1) for x in cap)


def _greedy(dim: int, n: int) -> tuple[int, tuple[int, ...]]:
    """The set count and the cards of the greedy trace's n-card prefix,
    read from a trace of min(3**d, the next power of two >= n) turns: a
    trace's first n turns do not depend on where it stops, so one trace
    serves every row up to its length."""
    trace = _trace(dim, min(3 ** dim, 1 << (n - 1).bit_length()))
    return trace.cumulative_at(n), tuple(t.card for t in trace.turns[:n])


@lru_cache(maxsize=16)
def _trace(dim: int, turns: int) -> heuristics.CmmTrace:
    return heuristics.cmm_run(dim, turns)


@lru_cache(maxsize=16)
def _floor_witness(dim: int, n: int, moved: bool) -> tuple[int, ...]:
    """The greedy prefix whose set count is the floor of row n.  If `moved`
    it is moved onto a board holding cards 0 and 1: from d = 3 on the
    trace's first two cards are 0 and 9, and swapping the last digit of
    every card with its third-last is an affine map that fixes 0 and sends
    9 to 1."""
    cards = _greedy(dim, n)[1]
    if moved and cards[1] != 1:
        swap = {dim - 1: dim - 3, dim - 3: dim - 1}
        matrix = tuple(tuple(int(j == swap.get(i, i)) for j in range(dim)) for i in range(dim))
        cards = tuple(map(geometry.AffineMap(matrix, (0,) * dim).apply_card, cards))
    return cards


@lru_cache(maxsize=8)
def _start(dim: int, base: tuple[int, ...], offset: int, step: int) -> tuple[int, tuple[int, ...]]:
    """The score and gain array of a plan's base board.  Built once per
    plan and shared by every walk, which copies an array before each push
    adds to it.  Keyed by the four fields it reads: a whole plan, slack
    included, would be hashed again on every call."""
    rows = geometry.third_rows(dim)
    cnt, gain, chosen = offset, [0] * 3 ** dim, []
    for x in base:
        cnt += gain[x]
        add_to_gain(gain, chosen, x, rows, step)
    return cnt, tuple(gain)


def _ends(plan: _Plan, u: int) -> list[int]:
    """The end of each level (board size) of work unit u's walk: the top
    level, len(plan.base), holds card u alone and ends at u + 1, and every
    other ends at plan.limit(level), which rises by one per level.
    _dfs_segment walks inside these ends, and _off_path refuses a saved
    path that leaves them."""
    first = plan.limit(0)
    ends = list(range(first, first + plan.size))
    ends[len(plan.base)] = u + 1
    return ends


def _dfs_segment(
    plan: _Plan,
    state: dict,
    u: int,
    *,
    seed_best: int = -1,
    stop_after_nodes: float = inf,
) -> dict:
    """Advance the depth-first walk described by `state` until the subtree is
    exhausted or its node counter reaches stop_after_nodes, and return
    `state`: _exhausted tells which.  The return lets a pool task hand its
    frontier back.

    The walk extends `base` with cards in strictly increasing order until
    boards of n cards are reached, where n, base, the score offset, the
    gain step and the slack of each level are the plan's.  The walk is
    work unit u's: it starts from {stack: [], next_card: u} and stays inside
    the level ends _ends(plan, u).  `seed_best` only tightens pruning;
    best/witness in the state reflect boards actually visited here, which
    is what keeps merged parallel results deterministic.  The walk writes
    its frontier into `state` once, when it stops or ends.  A
    KeyboardInterrupt, which can land inside a step, propagates with
    `state` at the frontier the walk started from.

    Every candidate c is larger than every chosen card, so it scores
    cnt + gain[c] (see the module docstring).  Each step of the walk enters
    one level at its next candidate and scans the candidates from there,
    leaving best, witness, nodes and pruned exactly as the one-by-one walk
    would:

    - At the leaf level every candidate completes a board of n cards and
      counts one node; none is pruned or pushed.  The one-by-one walk
      replaces (best, witness) only on a strict improvement, so its last
      replacement is at the first candidate reaching the level maximum,
      and it happens iff cnt + max > best.  The step scores the whole
      level with one max and finds that candidate with gain.index.
    - At any other level the step visits no leaf, and best_eff changes
      only when a leaf improves best, so best_eff is constant over the
      step, as are best, cnt and the slacks of the level and its child:
      the step computes its thresholds once.  Candidate x is pruned iff
      gain[x] < best_eff - slack - cnt, and the one-by-one walk would
      count each pruned candidate as one node and one prune.
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
      no gain'[x] exceeds room, which is the step's room base less
      gain[c].  With rise = max(step, 0), every gain'[x] is at most
      head = max(gain[f + 1:child limit]) + rise, where f <= c is the
      first candidate of this level entry that needed it (kept until a
      push opens the level again; the parent's array does not change in
      between).  The push is skipped when head <= room, and in the tie
      head == room + 1 with rise 1 when no chosen b gives an x =
      third(c, b) with c < x < child limit and gain[x] == room: every
      gain[x] in the range is at most head - 1 = room, so only a raised
      entry at room can pass it, and one raise is all an entry gets.
      Until the level's head is known, the pretest gain[c + 1] <= room
      sends only the pushes that could skip to the max; once it is known
      it decides alone, as head >= gain[c + 1] + rise covers the pretest.
      The min-walk (rise 0) needs no tie test: a push only lowers its
      entries, so head is the parent's maximum itself, not one above it.
      Nor does the naive plan (slack L) at a non-leaf child: there room <
      best_eff - L <= 0 <= gain[x], so it never skips; at a leaf child it
      follows the max-walk's rule.  The skip counts what the push, the
      child's step and the pop would have: child limit - c nodes, of
      which child limit - c - 1 prunes above a leaf child.
    - The step ends at its first push, at the end of the level, which it
      pops, or after the first skip that brings nodes to stop_after_nodes.

    The loop keeps ahead = nodes - c and kept = nodes - pruned in place of
    the counters: each candidate adds one node as c moves past it, and a
    pruned one adds a prune too, so a run of pruned candidates changes
    neither.

    The walk stops at the first step end where nodes has reached
    stop_after_nodes, at once if it already has on entry.  A walk whose
    every step handles one candidate (a push, a skip, or a level's leaves
    or last prune run with its pop) would stop after the first push, skip
    or pop that reaches the limit; this one looks after each push and pop,
    and after a skip only once nodes has reached the limit, the one place
    the other walk stops.  Both do the same work in the same order, so
    they stop at the same node count with the same best, witness and
    counters.  Only a level that a skip ended is saved differently: this
    walk pops it first, saving [.., p] with next card p + 1, where the
    other saved [.., p, q] with next card at the limit of q's level; both
    resume to the same walk.  A step starts below the limit and ends by
    the first run of prunes, with the skip or push after it, that reaches
    it; such a run adds at most child limit - c nodes (a leaf level, fewer
    than limit), so a stop overshoots stop_after_nodes by less than a
    deck.
    """
    n, base_len = plan.size, len(plan.base)

    best = state["best"]
    witness = state["witness"]

    rows = geometry.third_rows(plan.dim)
    step, slack_at = plan.step, plan.slack
    # No gain entry rises by more than this in one push.
    rise = max(step, 0)

    cnt, gain = _start(plan.dim, plan.base, plan.offset, step)
    limit_at = _ends(plan, u)
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
    size = len(chosen)
    # head_at[size] bounds every gain a push at level size leaves in its
    # child level, from the level's first look-ahead on.
    head_at = [None] * n

    # nodes = ahead + c and pruned = nodes - kept.
    ahead = state["nodes"] - c
    kept = state["nodes"] - state["pruned"]

    while True:
        # A stop saves the frontier (stack, c) before candidate c is
        # processed, so a resumed run recounts nothing.
        if ahead + c >= stop_after_nodes:
            break

        limit = limit_at[size]
        if size == leaf:
            if c < limit:
                top = max(gain[c:limit])
                if cnt + top > best:
                    best = cnt + top
                    witness = chosen + [gain.index(top, c)]
                    if best > best_eff:
                        best_eff = best
                kept += limit - c
                c = limit
        elif c < limit:
            # Candidate x is pruned iff cnt + gain[x] + slack < best_eff.
            floor = best_eff - slack_at[size] - cnt
            child = limit_at[size + 1]
            deep = size + 1 < leaf
            # Pushing x is skipped when no gain of its child level can
            # exceed room_at - gain[x].
            room_at = best_eff - slack_at[size + 1] - cnt - 1 if deep else best - cnt
            head = head_at[size]
            while True:
                while c < limit and gain[c] < floor:
                    c += 1
                if c >= limit:
                    break
                room = room_at - gain[c]
                # Card c + 1 lies in the head's range, so this settles most
                # pushes without the max.
                if head is None and room >= gain[c + 1]:
                    head = head_at[size] = max(gain[c + 1:child]) + rise
                # A skip needs head <= room, or the tie head == room + 1
                # with rise 1.
                if head is not None and head <= room + rise:
                    skip = True
                    if head > room:
                        # The tie: only a raised entry at room can pass room.
                        row = rows[c]
                        for b in chosen:
                            x = row[b]
                            if gain[x] == room and c < x < child:
                                skip = False
                                break
                    if skip:
                        ahead += child - c - 1
                        kept += 1 if deep else child - c
                        c += 1
                        if ahead + c < stop_after_nodes:
                            continue
                        break
                kept += 1
                gain_stack.append(gain)
                cnt += gain[c]
                gain = list(gain)
                add_to_gain(gain, chosen, c, rows, step)
                size += 1
                head_at[size] = None
                limit = child
                c += 1
                break

        if c >= limit:
            if size == base_len:
                break
            ahead += c
            gain = gain_stack.pop()
            c = chosen.pop()
            cnt -= gain[c]
            size -= 1
            c += 1
            ahead -= c
    nodes = ahead + c
    state.update(stack=chosen[base_len:], next_card=c, best=best, witness=witness, nodes=nodes, pruned=nodes - kept)
    return state


def checkpoint_save(cp: Checkpoint, path) -> None:
    """Write a checkpoint atomically and durably (JSON, versioned): the data
    reaches the disk before the rename makes it the checkpoint, and a failed
    write or rename removes its temporary file."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": {k: getattr(cp.config, k) for k in _SEARCH_FIELDS},
        "plan": asdict(_plan(cp.config)),
        "units": {str(u): f for u, f in cp.units.items()},
    }
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(payload, f)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(tmp)
        raise


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
        fields = {k: cfg[k] for k in _SEARCH_FIELDS}
        units = payload["units"]
    except KeyError as exc:
        raise CheckpointError(f"checkpoint {path} is missing field {exc}") from exc
    try:
        config = SearchConfig(**fields)
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
    return Checkpoint(config, _check_units(plan, units))


def _units(plan: _Plan) -> list[int]:
    """The top-level cards that split the walk into work units: none when
    the base already holds all plan.size cards, else every card from the
    one after the base's last (0 with no base) up to the top level's limit.
    A card below the first unit outside the base, such as card 2 of the
    base (0, 1, 3), never joins a board."""
    if len(plan.base) == plan.size:
        return []
    return list(range(plan.base[-1] + 1 if plan.base else 0, plan.limit(len(plan.base))))


def _exhausted(u: int, frontier: dict | None) -> bool:
    """Whether `frontier` ends the walk of work unit u."""
    return frontier is not None and not frontier["stack"] and frontier["next_card"] == u + 1


def _merge_units(config: SearchConfig, plan: _Plan, frontiers: dict, elapsed: float, complete: bool) -> SearchResult:
    # Deterministic merge: best value over all units, witness from the
    # lexicographically first unit that achieved it.  Strict pruning
    # guarantees every unit that contains a maximum board reports it.  A
    # best that no unit raised above the floor is the floor, with its board.
    # A plan with no units walks one board, its base, a cap (see _plan).
    best, witness = (-1, None) if _units(plan) else (plan.offset, list(plan.base))
    nodes = 0
    pruned = 0
    for _, f in sorted(frontiers.items()):
        nodes += f["nodes"]
        pruned += f["pruned"]
        if f["best"] > best:
            best = f["best"]
            witness = f["witness"]
    if plan.floor >= 0 and best <= plan.floor:
        best, witness = plan.floor, _floor_witness(config.dim, config.n, bool(plan.base))
    elif witness is not None and plan.size != config.n:
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
    unit; a unit not there starts afresh) and merge the units.  A unit
    walks in slices of _SLICE nodes, and one slice loop serves every
    worker count.  Each round starts slices, in card order with an
    unfinished unit first in line, while fewer than `threads` slices of
    the round are running or have ended: in this process at one worker,
    as pool tasks above that, a pool that starts only if some unit waits.
    Each slice is seeded with the best so far, and at least the plan's
    floor + 1.  A slice end is the run's one pause point: the run keeps
    the unit's frontier, saves the unit map, in card order, a
    report_interval after the last save (and at the end), and starts no
    slice after an interrupt or once its node budget is spent.  A save
    lists every started unit, one whose slice is still running in
    the pool or was cut by a Ctrl-C at the frontier that slice started
    from.
    Before any unit starts, a naive search over its budget is refused with
    BudgetExceededError, and with ValueError a checkpoint path that names
    no file in a writable directory (such as "", "a/" or a directory)."""
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
        if not os.path.basename(path):
            raise ValueError(f"cannot write checkpoint {path!r}: the path names no file")
        folder = os.path.dirname(os.path.abspath(path))
        if os.path.isdir(path) or not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
            raise ValueError(f"cannot write checkpoint {path}: it is a directory, or {folder} is not a writable one")
    plan = _plan(config)
    units = _units(plan)
    frontiers = dict(frontiers or {})
    stop = inf if config.stop_after_nodes is None else config.stop_after_nodes
    # The seed of every slice: the best so far, or the floor + 1 if higher.
    best = max([plan.floor + 1] + [f["best"] for f in frontiers.values()])
    spent = sum(f["nodes"] for f in frontiers.values())
    next_report = t0 + config.report_interval

    def save():
        nonlocal next_report
        checkpoint_save(Checkpoint(config, dict(sorted(frontiers.items()))), path)
        next_report = time.monotonic() + config.report_interval

    going = True
    waiting = [u for u in reversed(units) if not _exhausted(u, frontiers.get(u))]  # the next unit last
    running = {}  # pool task -> (unit, its nodes before the slice)
    pool = None
    if config.threads > 1 and waiting:
        # Imported at the first pool: concurrent.futures.process pulls in
        # multiprocessing, which a one-worker run never needs.
        from concurrent import futures

        pool = futures.ProcessPoolExecutor(
            max_workers=config.threads, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
        )
    with pool or nullcontext():
        while True:
            # A Ctrl-C that lands anywhere in a round starts no further
            # slice; an in-process slice leaves its unit at the frontier it
            # started from, and the running pool slices still return theirs.
            try:
                while running or going and waiting:
                    # An in-process slice has ended before the next starts,
                    # so the round counts ended slices too: at one worker
                    # each slice is seeded with the best of all before it.
                    ended = []
                    while going and waiting and len(running) + len(ended) < config.threads:
                        u = waiting.pop()
                        state = frontiers.setdefault(u, _fresh_state(u))
                        before = state["nodes"]
                        cap = before + min(_SLICE, stop - spent)
                        if pool is None:
                            _dfs_segment(plan, state, u, seed_best=best, stop_after_nodes=cap)
                            ended.append((u, before, state))
                        else:
                            task = pool.submit(_dfs_segment, plan, state, u, seed_best=best, stop_after_nodes=cap)
                            running[task] = u, before
                    if running:
                        ready, _ = futures.wait(running, return_when=futures.FIRST_COMPLETED)
                        ended += [(*running.pop(task), task.result()) for task in ready]
                    for u, before, state in ended:
                        frontiers[u] = state
                        if state["best"] > best:
                            best = state["best"]
                        spent += state["nodes"] - before
                        going = going and spent < stop
                        if not _exhausted(u, state):
                            waiting.append(u)  # its next slice goes first
                    if path is not None and time.monotonic() >= next_report:
                        save()
                break
            except KeyboardInterrupt:
                going = False

    complete = all(_exhausted(u, frontiers.get(u)) for u in units)
    if path is not None:
        save()
    return _merge_units(config, plan, frontiers, time.monotonic() - t0, complete)


def max_sets_naive(config: SearchConfig) -> SearchResult:
    """Exact maximum by enumerating every n-card board in lexicographic order.

    It runs as every search does, under the plan that prunes nothing, and
    visits exactly C(3**d + 1, n) - 1 nodes: level s holds the
    C(3**d - n + s, s) prefixes of s cards that leave room for the rest,
    and the hockey-stick identity sums them over s = 1..n.  It and its
    resumes refuse instances whose search_space, the triple-check model
    and not that count, exceeds the budget.  The witness is the
    lexicographically first maximizer.
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


def _off_path(plan: _Plan, u: int, path: list[int], reach: bool) -> str | None:
    """Why `path` is no path of work unit u's walk, or None if it is one.

    A path holds one card per level from the top level on, each above the
    card before it (the first at least u) and below its level's end in
    _ends(plan, u); with `reach`, as for a frontier's next card, the last
    card may also equal that end, where the walk leaves an exhausted level.
    This one rule implies each narrower check on a frontier:

    - each card is at least the one before it plus 1, so a path increases;
    - so a witness's cards are distinct (the path starts at u, a work unit,
      above the base) and lie in the deck (no level ends past
      plan.limit(plan.size - 1) = 3**d);
    - the top level is [u, u + 1), so a stack starts at u, and an empty
      stack's next card lies in [u, u + 1].
    """
    ends, top, lo = _ends(plan, u), len(plan.base), u
    for level, x in enumerate(path, top):
        if not geometry.is_int(x) or x < lo:
            return f"card {x!r} of level {level} is not an integer >= {lo}"
        if x >= ends[level] + (reach and level == top + len(path) - 1):
            return f"card {x} is past the end {ends[level]} of level {level}"
        lo = x + 1
    return None


def _check_units(plan: _Plan, units) -> dict:
    """A file's unit map keyed by int, or CheckpointError if the run could
    not have saved it: each key must spell a work unit u of this search as
    checkpoint_save does and hold a frontier of u's walk, the
    _FRONTIER_KEYS alone.  Its stack holds no leaf card and, followed by its
    next card, is a path of u's walk (see _off_path); its witness is none,
    or plan.size cards: the base, then a path of u's walk.  Its best is the
    score of its witness (-1 with none), and 0 <= pruned <= nodes.

    A resumed walk rebuilds its gain array from the stack without
    recounting, so a frontier it would misread must fail here rather than
    resume silently into a wrong answer.
    """
    if not isinstance(units, dict):
        raise CheckpointError(f"checkpoint units {units!r} is not a mapping of units")
    names = {str(u): u for u in _units(plan)}
    top = len(plan.base)
    for key, state in units.items():
        if key not in names:
            raise CheckpointError(f"checkpoint unit {key!r} is not a work unit of this search")
        if not isinstance(state, dict):
            raise CheckpointError(f"checkpoint unit {key} {state!r} is not a mapping")
        for field in _FRONTIER_KEYS:
            if field not in state:
                raise CheckpointError(f"checkpoint unit {key} is missing field {field!r}")
        if extra := sorted(state.keys() - set(_FRONTIER_KEYS)):
            raise CheckpointError(f"checkpoint unit {key} holds fields beyond a frontier: {', '.join(extra)}")
        u = names[key]
        stack, c = state["stack"], state["next_card"]
        if not isinstance(stack, list) or len(stack) >= plan.size - top:
            raise CheckpointError(f"checkpoint unit {u} stack {stack!r} is no list of under {plan.size - top} cards")
        if reason := _off_path(plan, u, stack + [c], True):
            raise CheckpointError(f"checkpoint unit {u} holds no frontier of its walk: {reason}")
        for field in ("best", "nodes", "pruned"):
            if not geometry.is_int(state[field]):
                raise CheckpointError(f"checkpoint unit {u} {field} {state[field]!r} is not an integer")
        if not 0 <= state["pruned"] <= state["nodes"]:
            raise CheckpointError(f"checkpoint unit {u} counts {state['pruned']} prunes of {state['nodes']} nodes")
        witness = state["witness"]
        if witness is not None:
            cards = isinstance(witness, list) and len(witness) == plan.size and all(map(geometry.is_int, witness))
            if not cards or witness[:top] != list(plan.base):
                raise CheckpointError(
                    f"checkpoint witness {witness!r} of unit {u} is not {plan.size} distinct cards "
                    f"that start with the base {list(plan.base)}"
                )
            if reason := _off_path(plan, u, witness[top:], False):
                raise CheckpointError(f"checkpoint witness {witness!r} is no board of unit {u}'s walk: {reason}")
        # A walk's best is -1 until it scores a board, and from then on the
        # score of its witness, a walked board (see _plan).
        score = -1 if witness is None else plan.offset + plan.step * count_sets(Board(plan.dim, witness))
        if state["best"] != score:
            raise CheckpointError(f"checkpoint unit {u} has best {state['best']}, but its witness scores {score}")
    return {names[key]: state for key, state in units.items()}


def resume_search(checkpoint_path, **run) -> SearchResult:
    """Continue the search held by the checkpoint at checkpoint_path to
    completion (or the next stop), with the other SearchConfig fields from
    `run`.  `run` may restate the _SEARCH_FIELDS, but the search it names
    must walk the file's plan, else CheckpointError: those fields alike,
    except that a naive search, whose plan ignores the symmetry flag,
    resumes under either.  CheckpointError also if checkpoint_load refuses
    the file.

    A run resumed any number of times ends with the same maximum and
    witness as an uninterrupted one, and at one worker with the same
    counters; resuming a finished run returns its result at once.
    """
    cp = checkpoint_load(checkpoint_path)
    config = replace(cp.config, **run, checkpoint_path=str(checkpoint_path))
    if _plan(cp.config) != _plan(config):
        held, asked = (tuple(getattr(c, k) for k in _SEARCH_FIELDS) for c in (cp.config, config))
        raise CheckpointError(
            f"checkpoint {checkpoint_path} holds the search ({', '.join(_SEARCH_FIELDS)}) = {held}, not {asked}"
        )
    return _run(config, cp.units)


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
    if not (geometry.is_int(n_from) and geometry.is_int(n_to) and 3 <= n_from <= n_to <= deck):
        raise ValueError(f"need integers 3 <= n_from <= n_to <= {deck}, got [{n_from!r}, {n_to!r}]")
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
