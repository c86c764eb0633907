"""Independent combinatorics for inputs and known answers.

Nothing here imports the package under test.  Orders, profiles, SWF
documents, filter checks and majority relations are written from their
definitions, so an expected answer never comes from the code it checks.

An order is a tuple of indifference classes, best first, each class a
sorted tuple of alternative indices.  A profile is a tuple of orders.
"""

from __future__ import annotations

from itertools import permutations, product

FIRST, SECOND, TIE = "FIRST", "SECOND", "INDIFFERENT"

ORDER_COUNTS = {"weak": (1, 3, 13, 75, 541), "linear": (1, 2, 6, 24, 120)}


def weak_orders(m: int) -> list[tuple]:
    """Every ordered partition of 0..m-1 into nonempty classes."""

    def rec(rest: tuple) -> list[tuple]:
        if not rest:
            return [()]
        out = []
        for bits in range(1, 1 << len(rest)):
            head = tuple(x for i, x in enumerate(rest) if bits >> i & 1)
            tail = tuple(x for i, x in enumerate(rest) if not bits >> i & 1)
            out.extend((head,) + t for t in rec(tail))
        return out

    return rec(tuple(range(m)))


def linear_orders(m: int) -> list[tuple]:
    return [tuple((x,) for x in p) for p in permutations(range(m))]


def orders(m: int, domain: str) -> list[tuple]:
    return weak_orders(m) if domain == "weak" else linear_orders(m)


def ranks(order: tuple) -> dict[int, int]:
    return {x: i for i, cls in enumerate(order) for x in cls}


def stance(order: tuple, x: int, y: int) -> str:
    r = ranks(order)
    return FIRST if r[x] < r[y] else SECOND if r[y] < r[x] else TIE


def text(order: tuple, labels: list[str]) -> str:
    return ">".join("~".join(labels[x] for x in cls) for cls in order)


def profiles(m: int, n: int, domain: str) -> list[tuple]:
    return list(product(orders(m, domain), repeat=n))


def pairs(m: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(m) for y in range(x + 1, m)]


def from_relation(m: int, beats: set) -> tuple | None:
    """The order whose strict part is `beats`, or None if it is no weak order."""
    for x in range(m):
        for y in range(m):
            if (x, y) in beats and (y, x) in beats:
                return None
            for z in range(m):
                if (x, y) in beats and (x, z) not in beats and (z, y) not in beats:
                    return None
    above = [sum((y, x) in beats for y in range(m)) for x in range(m)]
    return tuple(tuple(x for x in range(m) if above[x] == lv) for lv in sorted(set(above)))


# ------------------------------------------------------- verdict rules


def verdict(kind: str, profile: tuple, m: int, v: int, const: tuple) -> tuple:
    """The verdict of an explicit SWF of the given kind on one profile."""
    if kind == "dictator":
        return profile[v]
    if kind == "anti-dictator":
        return tuple(reversed(profile[v]))
    if kind == "constant":
        return const
    if kind == "borda":
        score = [0] * m
        for order in profile:
            r = ranks(order)
            for x in range(m):
                score[x] += sum(1 for y in range(m) if r[x] < r[y])
        levels = sorted(set(score), reverse=True)
        return tuple(tuple(x for x in range(m) if score[x] == lv) for lv in levels)
    raise ValueError(f"no explicit rule {kind!r}")


def tripartitions(n: int, domain: str) -> list[tuple[int, list, list, list]]:
    """(code, first, second, tie) for every split reachable in the domain."""
    out = []
    for code in range(3**n):
        parts: tuple[list, list, list] = ([], [], [])
        c = code
        for voter in range(n):
            parts[c % 3].append(voter)
            c //= 3
        if domain == "linear" and parts[2]:
            continue
        out.append((code, *parts))
    return out


def rule_stance(kind: str, first: list, second: list, v: int, const_stance: str | None) -> str:
    """The verdict stance of a pairwise rule on one tri-partition."""
    if kind == "dictator":
        return FIRST if v in first else SECOND if v in second else TIE
    if kind == "anti-dictator":
        return SECOND if v in first else FIRST if v in second else TIE
    if kind == "constant":
        return const_stance
    if kind == "majority":
        d = len(first) - len(second)
        return FIRST if d > 0 else SECOND if d < 0 else TIE
    raise ValueError(f"no pairwise rule {kind!r}")


# Axioms each kind fails, from the definitions (n >= 2 voters, m >= 3):
# a dictator fails only non-dictatorship; an anti-dictator and a constant
# rule fail unanimity only; Borda is total and unanimous but reads other
# pairs, so it fails independence; strict pairwise majority has a profile
# whose majority relation is no weak order, so it fails totality.
FAILED_AXIOMS = {
    "dictator": ["a5"],
    "anti-dictator": ["a3"],
    "constant": ["a3"],
    "borda": ["a4"],
    "majority": ["a2"],
}


def swf_document(
    kind: str, rep: str, m: int, n: int, domain: str, labels: list[str],
    v: int, const: tuple, rng,
) -> dict:
    """An SWF JSON document; `rng` shuffles the pairwise cells.

    Explicit entries keep enumeration order, as the package writes them:
    a shuffled table changes memory locality and, with it, timing by seed.
    """
    base = {"kind": rep, "m": m, "n": n, "domain": domain, "labels": labels}
    if rep == "explicit":
        entries = [
            [[text(o, labels) for o in f], text(verdict(kind, f, m, v, const), labels)]
            for f in profiles(m, n, domain)
        ]
        return {**base, "entries": entries}
    rules = {}
    for x, y in pairs(m):
        fixed = stance(const, x, y) if kind == "constant" else None
        cells = [
            [[first, second, tie], rule_stance(kind, first, second, v, fixed)]
            for _, first, second, tie in tripartitions(n, domain)
        ]
        rng.shuffle(cells)
        rules[f"{labels[x]},{labels[y]}"] = cells
    keys = list(rules)
    rng.shuffle(keys)
    return {**base, "rules": {k: rules[k] for k in keys}}


# ------------------------------------------------------------- filters


def filter_facts(n: int, masks: set[int]) -> dict:
    """Filter axioms, ultrafilter status and core of a coalition family."""
    full = (1 << n) - 1
    ok = (
        bool(masks)
        and 0 not in masks
        and all(a | b in masks for a in masks for b in range(full + 1))
        and all(a & b in masks for a in masks for b in masks)
    )
    ultra = ok and all((a in masks) != ((full & ~a) in masks) for a in range(full + 1))
    core = full
    for a in masks:
        core &= a
    return {
        "is_filter": ok,
        "is_ultrafilter": ultra,
        "fixed": core != 0,
        "core": [v for v in range(n) if core >> v & 1],
    }


def principal(n: int, v: int) -> list[list[int]]:
    """Coalitions containing voter v, as sorted voter lists, by mask."""
    return [
        [u for u in range(n) if mask >> u & 1]
        for mask in range(1 << n)
        if mask >> v & 1
    ]


# ------------------------------------------------------------ majority


def majority(profile: tuple, m: int) -> set[tuple[int, int]]:
    beats = set()
    for x in range(m):
        for y in range(m):
            if x == y:
                continue
            d = sum({FIRST: 1, SECOND: -1, TIE: 0}[stance(o, x, y)] for o in profile)
            if d > 0:
                beats.add((x, y))
    return beats
