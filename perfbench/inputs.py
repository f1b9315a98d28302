"""Seeded inputs of the four workloads.

Every generator takes a ``random.Random`` made from the benchmark's
``--seed`` and returns plain data: tree strings, coefficient strings and
argument lists.  naphopf only ever sees these generated values.
"""

from __future__ import annotations

import random
from fractions import Fraction

from oracle import UNIT, split_children, trees_of_size, trees_up_to

SERIES_N = 9
COPRODUCT_N = 9
ANTIPODE_N = 7
SESSION_TREE_N = 8


def shuffled_spelling(rng: random.Random, t: str) -> str:
    """The same tree written with its children in a seeded order."""
    kids = [shuffled_spelling(rng, c) for c in split_children(t)]
    rng.shuffle(kids)
    return "(" + "".join(kids) + ")"


def random_series(rng: random.Random, n: int) -> dict:
    """A group element with a fixed support and seeded rational coefficients.

    The support is every other tree of each size in canonical order (so its
    size does not depend on the seed); coefficients are p/q with
    p in {-3..3} \\ {0} and q in {1..4}.
    """
    out = {UNIT: "1"}
    for k in range(2, n + 1):
        for t in trees_of_size(k)[::2]:
            out[t] = str(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4)))
    return out


def series_round(rng: random.Random, n: int = SERIES_N) -> list[dict]:
    """One round of series-n9: dense, inverse, sparse and random products."""
    return [
        {"op": "zeta_square", "n": n},
        {"op": "zeta_inverse", "n": n},
        {"op": "mobius_zeta", "n": n},
        {"op": "random_product", "n": n,
         "a": random_series(rng, n), "b": random_series(rng, n)},
    ]


def coproduct_round(rng: random.Random, n: int = COPRODUCT_N,
                    antipode_n: int = ANTIPODE_N) -> list[dict]:
    """One round of coproduct-n9: every tree with at most 9 vertices, in a
    seeded order and spelling."""
    trees = [shuffled_spelling(rng, t) for t in trees_up_to(n)]
    rng.shuffle(trees)
    return [{"op": "coproducts", "n": n, "trees": trees, "antipode_n": antipode_n}]


def verify_round(rng: random.Random) -> list[dict]:
    """One round of cli-verify: the verify command with a seeded --seed."""
    return [{"op": "cli_verify", "argv": ["verify", "--suite", "all",
                                          "--seed", str(rng.randrange(10 ** 6))]}]


COLD_ROUNDS = {
    "series-n9": series_round,
    "coproduct-n9": coproduct_round,
    "cli-verify": verify_round,
}

# ---------------------------------------------------------------------------
# session-warm

TREE_KINDS = ("hnap", "qgnap", "ck", "antipode", "mobius", "interval")
PER_KIND = 30         # queries of each kind in one round of the timed stream
ZIPF_S = 1.0          # skew of the query frequencies inside each kind


def session_pool(rng: random.Random, tree_n: int = SESSION_TREE_N) -> dict:
    """The fixed pool: per kind, every tree with 2 to ``tree_n`` vertices,
    each in a seeded spelling.  Every seed gets the same trees, so the cost
    of the stream does not depend on which trees a seed happens to draw."""
    return {kind: [shuffled_spelling(rng, t) for t in trees_up_to(tree_n) if t != UNIT]
            for kind in TREE_KINDS}


def session_round(rng: random.Random, pool: dict) -> list[tuple[str, str]]:
    """One round of the timed stream: PER_KIND queries of every kind, each
    drawn with Zipf weights over a seeded ranking of its pool entries.  A
    fresh ranking per round moves the hot set, so a run averages over many
    of them."""
    out = []
    for kind in TREE_KINDS:
        entries = list(pool[kind])
        rng.shuffle(entries)
        weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(entries))]
        out.extend((kind, q) for q in rng.choices(entries, weights, k=PER_KIND))
    rng.shuffle(out)
    return out
