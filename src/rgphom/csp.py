"""Backtracking search for binary constraint networks, on bitsets.

Used by the homomorphism solvers: variables are pattern vertices,
values are target vertices, and each constraint gives the allowed value
pairs for an ordered variable pair.

Values are bit positions in one value list, the sorted union of all
domains, so each domain is an int mask. Each constraint is held as row
masks plus their transpose (Rows): bit b of rows[a] is set when the
pair (a, b) is allowed. Callers that already hold such rows, like the
walk engine's relations, pass them directly; pair_rows builds them for
callers that hold only value pairs.

Each distinct relation is stored once per unordered variable pair. A
constraint that is the same relation as one already stored on that
pair, up to transpose, is folded into it: the two arcs of an undirected
edge into a symmetric relation are revised once. Different relations
on one pair stay separate constraints.

Arc consistency is AC-3 over the variables whose domain changed, with
bitwise support checks in the style of AC-2001 (Bessiere, Regin, Yap
and Zhang, AIJ 2005): revising x against y keeps the value a when
rows[a] & dom[y] is nonzero. It runs before the search and after every
assignment. The search picks the most constrained variable first
(fewest values, ties by variable order), tries its values from the
lowest bit up, which is sorted order, and undoes an assignment by
restoring a copy of the domain list. Results are therefore
deterministic. The budget ticks once per revision and once per value
tried.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Collection, Hashable, Iterable, Iterator, Sequence
from dataclasses import dataclass

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
    set when (values[a], values[b]) is in it, and cols is the transpose."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]

    @property
    def loops(self) -> int:
        """The mask of the values a with (a, a) in the relation."""
        return sum(1 << a for a, row in enumerate(self.rows) if row >> a & 1)


@dataclass(frozen=True)
class Constraint:
    """The value pairs allowed for the ordered variable pair (x, y):
    either a collection of value pairs, or Rows over the network's value
    list, the sorted union of all domains."""

    x: str
    y: str
    allowed: Collection[tuple[Value, Value]] | Rows


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
    domains: dict[str, Sequence[Value]],
    constraints: Sequence[Constraint],
    budget: SearchBudget,
) -> dict[str, Value] | None:
    return next(iter_csp_solutions(variables, domains, constraints, budget), None)


def iter_csp_solutions(
    variables: Sequence[str],
    domains: dict[str, Sequence[Value]],
    constraints: Sequence[Constraint],
    budget: SearchBudget,
) -> Iterator[dict[str, Value]]:
    """Yield every solution, in deterministic order."""
    # Callers often pass one domain object for many variables, so each
    # distinct object is read once.
    distinct = {id(domains[v]): domains[v] for v in variables}
    values = sorted({value for domain in distinct.values() for value in domain})
    index = {value: i for i, value in enumerate(values)}
    var = {v: i for i, v in enumerate(variables)}
    masks = {key: sum(1 << index[value] for value in set(domain))
             for key, domain in distinct.items()}
    dom = [masks[id(domains[v])] for v in variables]
    support = _network(var, values, dom, constraints)
    if not _propagate(dom, support, range(len(dom)), budget):
        return
    yield from _search(dom, support, list(variables), values, {}, budget)


def _network(var: dict[str, int], values: Sequence[Value], dom: list[int],
             constraints: Sequence[Constraint],
             ) -> list[list[tuple[int, tuple[int, ...]]]]:
    """The support lists of the constraints over variables numbered by
    var and the value list values; a constraint on one variable narrows
    its domain in dom instead."""
    # support[x] lists (y, masks): revising y against x keeps the value
    # b when masks[b] & dom[x] is nonzero. stored holds (i, j, rows) for
    # each relation kept on the unordered pair i < j, oriented from i.
    support: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in dom]
    stored: set[tuple[int, int, tuple[int, ...]]] = set()
    for c in constraints:
        allowed = c.allowed
        if not isinstance(allowed, Rows):
            allowed = pair_rows(allowed, values)
        elif len(allowed.rows) != len(values):
            raise ValueError("Rows must cover the sorted union of the domains")
        i, j = var[c.x], var[c.y]
        if i == j:
            dom[i] &= allowed.loops
            continue
        rows, cols = allowed.rows, allowed.cols
        if i > j:
            i, j, rows, cols = j, i, cols, rows
        if (i, j, rows) in stored:
            continue
        stored.add((i, j, rows))
        support[i].append((j, cols))
        support[j].append((i, rows))
    return support


def _propagate(dom: list[int], support: list[list[tuple[int, tuple[int, ...]]]],
               changed: Iterable[int], budget: SearchBudget) -> bool:
    """AC-3 from the changed variables; False on a wiped domain."""
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
        for y, masks in arcs:
            dy = keep = dom[y]
            while dy:
                low = dy & -dy
                dy ^= low
                if not masks[low.bit_length() - 1] & dx:
                    keep ^= low
            if keep != dom[y]:
                if not keep:
                    return False
                dom[y] = keep
                if not queued[y]:
                    queued[y] = True
                    queue.append(y)
    return True


def _search(dom, support, names, values, assignment: dict[int, int],
            budget: SearchBudget) -> Iterator[dict[str, Value]]:
    if len(assignment) == len(names):
        yield {names[x]: values[a] for x, a in assignment.items()}
        return
    var, fewest = -1, len(values) + 1
    for x, mask in enumerate(dom):
        if x not in assignment and mask.bit_count() < fewest:
            var, fewest = x, mask.bit_count()
            if fewest == 1:
                break
    rest = dom[var]
    while rest:
        low = rest & -rest
        rest ^= low
        budget.tick()
        saved = dom[:]
        dom[var] = low
        assignment[var] = low.bit_length() - 1
        if _propagate(dom, support, (var,), budget):
            yield from _search(dom, support, names, values, assignment, budget)
        del assignment[var]
        dom[:] = saved
