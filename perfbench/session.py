"""The seeded query stream of the `session` workload.

One client in one warm process sends library queries in a closed loop.  The
stream mixes every public family a notebook user reaches for, with route A
(the definition) favoured for y1star.  Indices climb level by level and
earlier queries are revisited, so most queries read caches that earlier ones
filled and a minority fill them; the slow tail is the fills.

Every level holds the same mix (MIX below, shuffled by the seed), so seeds
differ in order, indices and points but not in proportions: the cost of a
stream depends little on its seed.
"""

from __future__ import annotations

from fractions import Fraction
import random

# (kind, y1star route, new queries, revisits of earlier queries of the same
# kind and route) per level: 58 new and 101 revisits, route A favoured.
# Cache reads (route A, E and F hits, F_k, Bernoulli) are over half of the
# queries, so the median query is a read.
MIX = (
    ("y1star", "A", 15, 30),
    *(("y1star", route, 1, 2) for route in "BCDEF"),
    ("y1star_at", "A", 6, 10),
    *(("y1star_at", route, 1, 1) for route in "BCDEF"),
    ("phi", None, 5, 8),
    ("fk", None, 7, 14),
    ("s2star", None, 4, 5),
    ("bernoulli", None, 7, 14),
    ("apostol", None, 4, 5),
)
PER_LEVEL = 1 + sum(new + old for _, _, new, old in MIX)

POINTS = 3
# rational points of similar size, so that the seed's choice of points does
# not change the cost of a stream much; all avoid lam in {0, -1} and
# lam + alpha = -1, where some families are undefined
POINT_POOL = (("3/2", "1/3"), ("2/3", "-1/4"), ("5/4", "2/5"), ("-3/5", "1/2"),
              ("4/3", "-2/3"), ("1/2", "3/4"), ("-2/3", "1/5"), ("5/3", "-1/3"))

# positions of the 'p/q' arguments of each query kind
RATIONAL_ARGS = {"y1star_at": (4, 5), "phi": (2, 3), "s2star": (3,),
                 "apostol": (3, 4)}


def decode(query: list) -> tuple:
    """A query with its 'p/q' texts turned into Fractions."""
    rational = RATIONAL_ARGS.get(query[0], ())
    return tuple(Fraction(x) if i in rational else x
                 for i, x in enumerate(query))


def make_queries(seed: int, top: int) -> list[list]:
    """PER_LEVEL queries at each index level 2..`top`, as JSON-ready lists."""
    rng = random.Random(seed)
    points = rng.sample(POINT_POOL, POINTS)
    deck = [(kind, route, revisit)
            for kind, route, new, old in MIX
            for revisit in [False] * new + [True] * old]
    seen: dict[tuple, list[list]] = {}
    revisits: dict[tuple, int] = {}
    queries = []
    for level in range(2, top + 1):
        # stepping up, the client asks for the whole row n = level at once;
        # this fills F_k for every k <= level, so the fills do not depend
        # on which later queries the seed draws
        lam, alpha = rng.choice(points)
        queries.append(["phi", level, lam, alpha, level])
        indices = {(kind, route): list(zip(_spread(rng, new, level),
                                           _spread(rng, new, level)))
                   for kind, route, new, _ in MIX}
        rng.shuffle(deck)
        for kind, route, revisit in deck:
            earlier = seen.setdefault((kind, route), [])
            if revisit and earlier:
                # cycle through the earlier queries, so each is revisited
                # about equally often and no seed piles repeats on one
                turn = revisits.get((kind, route), 0)
                revisits[(kind, route)] = turn + 1
                queries.append(earlier[turn % len(earlier)])
                continue
            pairs = indices[(kind, route)]
            n, k = pairs.pop() if pairs else _spread(rng, 2, level)
            query = _new_query(kind, route, n, k, rng.choice(points))
            earlier.append(query)
            queries.append(query)
    return queries


def _spread(rng: random.Random, count: int, level: int) -> list[int]:
    """`count` indices in 0..level, one from each of `count` equal strata,
    in random order: every seed covers the index range evenly."""
    width = (level + 1) / count
    values = [int((i + rng.random()) * width) for i in range(count)]
    rng.shuffle(values)
    return values


def _new_query(kind: str, route, n: int, k: int, point) -> list:
    lam, alpha = point
    if kind == "y1star":
        return [kind, n, k, route]
    if kind == "y1star_at":
        return [kind, n, k, route, lam, alpha]
    if kind == "phi":
        return [kind, n, lam, alpha, k]
    if kind == "fk":
        return [kind, k, n]
    if kind == "s2star":
        return [kind, n, k, alpha]
    if kind == "bernoulli":
        return [kind, n, k]
    return [kind, n, k, lam, alpha]
