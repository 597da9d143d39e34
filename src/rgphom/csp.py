"""Backtracking search for binary constraint networks, on bitsets.

Used by the homomorphism solvers: variables are pattern vertices,
values are target vertices, and each constraint gives the allowed value
pairs for an ordered variable pair.

A network is a list of variables, the caller's list of values, and
constraints (x, y, Rows). Values are bit positions in that list, so
each domain is an int mask, all of the values unless the caller passes
its own masks. Each constraint is held as row masks plus their
transpose (Rows): bit b of rows[a] is set when the pair (values[a],
values[b]) is allowed. Callers that already hold such rows, like the
walk engine's relations, pass them directly; pair_rows builds them for
callers that hold only value pairs.

Each distinct relation is stored once per unordered variable pair. A
constraint that is the same relation as one already stored on that
pair, up to transpose, is folded into it: the two arcs of an undirected
edge into a symmetric relation are revised once. Different relations
on one pair stay separate constraints.

Arc consistency is AC-3 over the variables whose domain changed, with
bitwise supports in the style of AC-2001 (Bessiere, Regin, Yap and
Zhang, AIJ 2005). Revising y against x keeps exactly the values of
dom[y] that have a partner in dom[x], computed from the smaller side
as in bitwise AC (Lecoutre and Vion, Constraint Programming Letters
2008): when dom[x] holds every value of x that has a partner at all,
the kept mask is dom[y] & reach, the relation's image of the whole
value list, which each Rows computes once; when dom[x] has fewer values
than dom[y], it is dom[y] & the OR of the rows of dom[x]; otherwise
each value b of dom[y] is kept when its column meets dom[x]. The three
agree, so the choice moves neither the fixpoint nor the budget.

Arc consistency runs before the search and after every value tried.
After each propagation that succeeds, every unassigned variable whose
domain holds one value is assigned at once, in variable order: at the
arc-consistent fixpoint, propagating from it would change nothing, so
it takes no frame, no tick and no propagation of its own. The search,
a loop over an explicit stack, then picks the most constrained
variable (fewest values, ties by variable order) and tries its values
from the lowest bit up, which is the order of the value list. Callers
pass it sorted, so values are tried in sorted order. _propagate records
the old mask of every domain it narrows on a trail, and backtracking
pops the trail back to the frame's mark, so no frame copies the domain
list and memory grows with the domains narrowed, not with depth times
variables. Results are therefore deterministic. The budget ticks once
per revision and once per value tried at a choice.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .errors import SearchBudget

Value = Hashable


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _transpose(rows: Sequence[int]) -> list[int]:
    """The rows of a square bit matrix, turned into its columns."""
    cols = [0] * len(rows)
    for u, row in enumerate(rows):
        bit = 1 << u
        for w in _bits(row):
            cols[w] |= bit
    return cols


@dataclass(frozen=True)
class Rows:
    """A relation over a value list as bit masks: bit b of rows[a] is
    set when (values[a], values[b]) is in it, and cols is the transpose.
    reach is the OR of the rows, the image of the whole value list, and
    coreach the OR of the columns; both are computed once, when the
    relation is built."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    reach: int = field(init=False, repr=False, compare=False)
    coreach: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "reach", reduce(or_, self.rows, 0))
        object.__setattr__(self, "coreach", reduce(or_, self.cols, 0))

    @property
    def loops(self) -> int:
        """The mask of the values a with (a, a) in the relation."""
        return sum(1 << a for a, row in enumerate(self.rows) if row >> a & 1)


def pair_rows(pairs: Iterable[tuple[Value, Value]],
              values: Sequence[Value]) -> Rows:
    """The Rows of a set of value pairs over a value list; pairs with a
    value outside the list are dropped."""
    index = {value: i for i, value in enumerate(values)}
    rows = [0] * len(values)
    for a, b in pairs:
        i, j = index.get(a), index.get(b)
        if i is not None and j is not None:
            rows[i] |= 1 << j
    return Rows(tuple(rows), tuple(_transpose(rows)))


def solve_csp(
    variables: Sequence[str],
    values: Sequence[Value],
    constraints: Iterable[tuple[str, str, Rows]],
    budget: SearchBudget,
    dom: Sequence[int] | None = None,
) -> dict[str, Value] | None:
    return next(iter_csp_solutions(variables, values, constraints, budget,
                                   dom), None)


def iter_csp_solutions(
    variables: Sequence[str],
    values: Sequence[Value],
    constraints: Iterable[tuple[str, str, Rows]],
    budget: SearchBudget,
    dom: Sequence[int] | None = None,
) -> Iterator[dict[str, Value]]:
    """Yield every solution, in deterministic order. dom holds one mask
    of values per variable, all of them when it is None."""
    root = _root(variables, values, constraints, budget, dom)
    if root is not None:
        yield from _search(*root, variables, values, budget)


# support[x] lists the arcs (y, cols, rows, reach, coreach) along which a
# change of dom[x] is propagated to y: bit a of cols[b] is set, as is bit
# b of rows[a], when x = a and y = b is allowed; reach is the OR of rows
# and coreach that of cols.
_Arc = tuple[int, Sequence[int], Sequence[int], int, int]


def _root(variables: Sequence[str], values: Sequence[Value],
          constraints: Iterable[tuple[str, str, Rows]], budget: SearchBudget,
          dom: Sequence[int] | None = None,
          ) -> tuple[list[int], list[list[_Arc]]] | None:
    """The arc-consistent domains of a network, from dom or all of the
    values, with its support lists; None when a domain empties."""
    full = (1 << len(values)) - 1
    dom = [full] * len(variables) if dom is None else list(dom)
    var = {v: i for i, v in enumerate(variables)}
    support = _network(var, len(values), dom, constraints)
    if not all(dom) or not _propagate(dom, support, range(len(dom)), budget,
                                      []):
        return None
    return dom, support


def _network(var: dict[str, int], size: int, dom: list[int],
             constraints: Iterable[tuple[str, str, Rows]]) -> list[list[_Arc]]:
    """The support lists of the constraints over variables numbered by
    var and a value list of the given size; a constraint on one variable
    narrows its domain in dom instead."""
    support: list[list[_Arc]] = [[] for _ in dom]
    # Each relation kept on the unordered pair i < j, oriented from i.
    stored: set[tuple[int, int, tuple[int, ...]]] = set()
    for x, y, allowed in constraints:
        if len(allowed.rows) != size:
            raise ValueError("Rows must cover the network's value list")
        i, j = var[x], var[y]
        if i == j:
            dom[i] &= allowed.loops
            continue
        rows, cols = allowed.rows, allowed.cols
        reach, coreach = allowed.reach, allowed.coreach
        if i > j:
            i, j, rows, cols, reach, coreach = j, i, cols, rows, coreach, reach
        if (i, j, rows) in stored:
            continue
        stored.add((i, j, rows))
        support[i].append((j, cols, rows, reach, coreach))
        support[j].append((i, rows, cols, coreach, reach))
    return support


def _propagate(dom: list[int], support: list[list[_Arc]],
               changed: Iterable[int], budget: SearchBudget,
               trail: list[tuple[int, int]]) -> bool:
    """AC-3 from the changed variables; False on a wiped domain. Each
    domain it narrows is recorded as (variable, old mask) on trail."""
    queue = deque(changed)
    queued = [False] * len(dom)
    for x in queue:
        queued[x] = True
    while queue:
        x = queue.popleft()
        queued[x] = False
        arcs = support[x]
        budget.tick(len(arcs))
        dx = dom[x]
        outside = ~dx
        size = dx.bit_count()
        for y, cols, rows, reach, coreach in arcs:
            dy = dom[y]
            if not coreach & outside:
                # dom[x] holds every value of x with a partner.
                keep = dy & reach
            elif size < dy.bit_count():
                image, rest = 0, dx
                while rest:
                    low = rest & -rest
                    rest ^= low
                    image |= rows[low.bit_length() - 1]
                keep = dy & image
            else:
                keep = rest = dy
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if not cols[low.bit_length() - 1] & dx:
                        keep ^= low
            if keep != dy:
                if not keep:
                    return False
                trail.append((y, dy))
                dom[y] = keep
                if not queued[y]:
                    queued[y] = True
                    queue.append(y)
    return True


def _search(dom: list[int], support: list[list[_Arc]], names: Sequence[str],
            values: Sequence[Value],
            budget: SearchBudget) -> Iterator[dict[str, Value]]:
    """Every solution below the arc-consistent, nonempty domains dom,
    depth first.

    assignment holds the assigned variables with their values, in the
    order they were assigned: exactly the variables whose domain is one
    value. Every variable before first is assigned. Each frame of the
    stack is [x, the values of x left to try, and the trail's length,
    the assignment's size and first before x was assigned]. Undoing a
    frame pops the trail back to its mark, restoring every domain the
    frame's propagation narrowed, and drops the values assigned since.
    """
    assignment: dict[int, int] = {}
    trail: list[tuple[int, int]] = []
    stack: list[list] = []
    first = 0
    # The variables whose domain became one value, in variable order.
    forced = [x for x, mask in enumerate(dom) if not mask & (mask - 1)]
    while True:
        for x in forced:
            assignment[x] = dom[x].bit_length() - 1
        if len(assignment) == len(names):
            yield {names[x]: values[a] for x, a in assignment.items()}
        else:
            while not dom[first] & (dom[first] - 1):
                first += 1
            # The unassigned variables are those of two values or more.
            var, fewest = first, dom[first].bit_count()
            for x in range(first + 1, len(dom)):
                if fewest == 2:
                    break
                count = dom[x].bit_count()
                if 1 < count < fewest:
                    var, fewest = x, count
            stack.append([var, dom[var], len(trail), len(assignment), first])
        # The next value to try, undoing the deepest assignment and
        # backtracking while a frame has none left.
        while stack:
            frame = stack[-1]
            var, rest, mark, size, first = frame
            while len(assignment) > size:
                assignment.popitem()
            while len(trail) > mark:
                x, old = trail.pop()
                dom[x] = old
            if not rest:
                stack.pop()
                continue
            low = rest & -rest
            frame[1] = rest ^ low
            budget.tick()
            trail.append((var, dom[var]))
            dom[var] = low
            assignment[var] = low.bit_length() - 1
            if _propagate(dom, support, (var,), budget, trail):
                forced = sorted({x for x, _ in trail[mark + 1:]
                                 if not dom[x] & (dom[x] - 1)})
                break
        else:
            return
