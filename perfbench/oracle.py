"""Reference computations on tree strings, made apart from naphopf.

A tree is a string over "(" and ")": a vertex is "(" followed by its
children and ")".  A tree string is canonical when the children of every
vertex are sorted by (size, string), which is the form naphopf prints.
Everything here works on such strings, on plain dicts and on Fractions, so
that the benchmark checks naphopf's answers without sharing its code.

Each ``check_*`` function returns "" when the answer is right and a short
reason when it is not.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

# Rooted trees with n = 1..10 vertices (OEIS A000081).
TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)
UNIT = "()"


def split_children(s: str) -> list[str]:
    """The child subtrees of the root of ``s``, in the order written."""
    if len(s) < 2 or s[0] != "(" or s[-1] != ")":
        raise ValueError(f"not a tree string: {s!r}")
    out, depth, start = [], 0, 1
    for i in range(1, len(s) - 1):
        if s[i] == "(":
            if depth == 0:
                start = i
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"not a tree string: {s!r}")
            if depth == 0:
                out.append(s[start:i + 1])
        else:
            raise ValueError(f"not a tree string: {s!r}")
    if depth:
        raise ValueError(f"not a tree string: {s!r}")
    return out


def size(s: str) -> int:
    return s.count("(")


def _key(s: str) -> tuple[int, str]:
    return (size(s), s)


@lru_cache(maxsize=None)
def canonical(s: str) -> str:
    return "(" + "".join(sorted((canonical(c) for c in split_children(s)), key=_key)) + ")"


@lru_cache(maxsize=None)
def ideal_count(s: str) -> int:
    """Root-containing lower ideals: each child subtree is cut off or
    contributes one of its own ideals."""
    out = 1
    for c in split_children(s):
        out *= 1 + ideal_count(c)
    return out


@lru_cache(maxsize=None)
def aut_order(s: str) -> int:
    out = 1
    for c, m in Counter(canonical(c) for c in split_children(s)).items():
        out *= factorial(m) * aut_order(c) ** m
    return out


@lru_cache(maxsize=None)
def ideal_splits(s: str) -> tuple[tuple[tuple[str, ...], str], ...]:
    """Every root-containing lower ideal I of the canonical tree ``s``, as
    (the subtrees of s hanging below I, I as a canonical tree string); one
    entry per ideal.  Each child subtree is either cut off whole or kept
    with one of its own ideals."""
    options = [[((c,), None)] + list(ideal_splits(c)) for c in split_children(s)]
    out = []
    for combo in product(*options):
        below = tuple(b for cut, _ in combo for b in cut)
        kept = [r for _, r in combo if r is not None]
        out.append((below, canonical("(" + "".join(kept) + ")")))
    return tuple(out)


def corolla(k: int) -> str:
    """The tree whose root carries k leaves."""
    return "(" + "()" * k + ")"


def is_corolla(s: str) -> bool:
    return all(c == UNIT for c in split_children(s))


@lru_cache(maxsize=None)
def trees_of_size(n: int) -> tuple[str, ...]:
    """Every canonical tree with n vertices, sorted by (size, string)."""
    if n == 1:
        return (UNIT,)
    shapes = {"(" + "".join(sorted(f, key=_key)) + ")" for f in _forests(n - 1, None)}
    return tuple(sorted(shapes, key=_key))


@lru_cache(maxsize=None)
def _forests(total: int, bound) -> tuple[tuple[str, ...], ...]:
    # multisets of trees of the given total size, components listed in
    # non-increasing key order and each key at most ``bound``
    if total == 0:
        return ((),)
    out = []
    for n in range(min(total, bound[0]) if bound else total, 0, -1):
        for t in trees_of_size(n):
            if bound is not None and (n, t) > bound:
                continue
            out.extend((t,) + rest for rest in _forests(total - n, (n, t)))
    return tuple(out)


def trees_up_to(n: int) -> list[str]:
    return [t for k in range(1, n + 1) for t in trees_of_size(k)]


def hnap_mul(a: str, b: str) -> str:
    """Product of basis trees in hnap: one root carrying both branch sets."""
    return canonical("(" + a[1:-1] + b[1:-1] + ")")


# ---------------------------------------------------------------------------
# truncated power series as lists of Fractions, c_0 first


def ps_mul(a: list, b: list, n: int) -> list:
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(n + 1)]


def ps_compose(a: list, b: list, n: int) -> list:
    """a(b(x)) through degree n; b has no constant term."""
    out = [Fraction(0)] * (n + 1)
    power = [Fraction(1)] + [Fraction(0)] * n
    for m in range(n + 1):
        if m:
            power = ps_mul(power, b, n)
        for k in range(n + 1):
            out[k] += a[m] * power[k]
    return out


def corolla_projection(coeffs: dict, n: int) -> list:
    """Corolla coefficients c_0..c_{n-1} of a series truncated at n."""
    return [coeffs.get(corolla(k), Fraction(0)) for k in range(n)]


def size_projection(coeffs: dict, n: int) -> list:
    """Sum of the coefficients of each size, as a series in x (c_0 = 0)."""
    out = [Fraction(0)] * (n + 1)
    for t, c in coeffs.items():
        out[size(t)] += c
    return out


# ---------------------------------------------------------------------------
# checks of series answers; coefficient dicts map tree strings to Fractions


def check_support(coeffs: dict, n: int) -> str:
    for t in coeffs:
        if canonical(t) != t:
            return f"key {t} is not canonical"
        if size(t) > n:
            return f"key {t} exceeds the truncation {n}"
    return ""


def check_zeta_square(coeffs: dict, n: int) -> str:
    """zeta.zeta has coefficient ideals(t)/#Aut(t) on every tree t."""
    want = {t: Fraction(ideal_count(t), aut_order(t)) for t in trees_up_to(n)}
    if len(want) != sum(TREE_COUNTS[:n]):
        return "reference enumeration is wrong"
    for t, c in want.items():
        if coeffs.get(t) != c:
            return f"coefficient of {t} is {coeffs.get(t)}, want {c}"
    return "" if len(coeffs) == len(want) else "support has extra trees"


def check_mobius(coeffs: dict, n: int) -> str:
    """zeta^-1 is (-1)^k/k! on k-leaf corollas and zero elsewhere."""
    want = {corolla(k): Fraction((-1) ** k, factorial(k)) for k in range(n)}
    return "" if coeffs == want else "differs from the closed-form Mobius series"


def check_unit(coeffs: dict) -> str:
    return "" if coeffs == {UNIT: Fraction(1)} else "product is not the unit series"


def check_product(a: dict, b: dict, ab: dict, n: int) -> str:
    """Projections of a.b: Cauchy product on corollas, composition on sizes."""
    bad = check_support(ab, n)
    if bad:
        return bad
    if corolla_projection(ab, n) != ps_mul(corolla_projection(a, n), corolla_projection(b, n), n - 1):
        return "corolla projection is not the Cauchy product"
    if size_projection(ab, n) != ps_compose(size_projection(a, n), size_projection(b, n), n):
        return "size-sum projection is not the composition"
    return ""


# ---------------------------------------------------------------------------
# checks of Hopf-algebra answers; coproducts are lists of (left, right, coeff)
# rows as naphopf's JSON prints them, with "1" for the empty forest


def _forest_parts(f: str) -> list[str]:
    return [] if f == "1" else f.split()


def _terms(rows: list, key) -> "dict | None":
    """The rows as {key(left, right): coeff}; None when a key repeats."""
    out = {key(left, right): c for left, right, c in rows}
    return out if len(out) == len(rows) else None


def _forest_key(f: str) -> tuple[str, ...]:
    return tuple(sorted(_forest_parts(f)))


def check_hnap_coproduct(t: str, rows: list) -> str:
    """Exactly one term per ideal I: (the root carrying the subtrees of t
    below I) (x) (I as a tree), equal terms added up."""
    want = Counter((canonical("(" + "".join(below) + ")"), kept)
                   for below, kept in ideal_splits(t))
    got = _terms(rows, lambda left, right: (left, right))
    return "" if got == dict(want) else f"hnap coproduct of {t} differs from the ideal sum"


def check_ck_coproduct(t: str, rows: list) -> str:
    """Admissible cuts of t are its ideals I, each giving (the subtrees of t
    below I, as a forest) (x) I, plus the term t (x) 1."""
    want = Counter((tuple(sorted(below)), (kept,)) for below, kept in ideal_splits(t))
    want[((t,), ())] += 1
    got = _terms(rows, lambda left, right: (_forest_key(left), _forest_key(right)))
    return "" if got == dict(want) else f"ck coproduct of {t} differs from the cut sum"


def check_qgnap_coproduct(t: str, rows: list) -> str:
    """Graded, with G (x) 1 and 1 (x) G each once, and evaluated at
    (zeta, zeta), where G_s takes the value 1/#Aut(s), it gives the
    coefficient of t in zeta.zeta."""
    deg = size(t) - 1
    found = {}
    value = Fraction(0)
    for left, right, c in rows:
        parts = _forest_parts(left) + _forest_parts(right)
        if sum(size(p) - 1 for p in parts) != deg:
            return f"term {left} (x) {right} has the wrong degree"
        found[(left, right)] = c
        for p in parts:
            c /= aut_order(p)
        value += c
    if found.get((t, "1")) != 1 or found.get(("1", t)) != 1:
        return "primitive terms are missing"
    if value != Fraction(ideal_count(t), aut_order(t)):
        return f"evaluation at (zeta, zeta) is {value}"
    return ""


def check_antipode_identity(t: str, rows: list, antipode_of: dict) -> str:
    """m(S (x) id) Delta(F_t) = 0 for t with more than one vertex; the
    products are formed here, with naphopf's S for each left factor."""
    acc: dict = {}
    for left, right, c in rows:
        s_left = antipode_of.get(left)
        if s_left is None:
            return f"no antipode for {left}"
        for s, cs in s_left.items():
            k = hnap_mul(s, right)
            acc[k] = acc.get(k, Fraction(0)) + c * cs
    acc = {k: v for k, v in acc.items() if v}
    want = {UNIT: Fraction(1)} if t == UNIT else {}
    return "" if acc == want else f"antipode identity fails for {t}"


def check_mobius_value(t: str, mu: int) -> str:
    want = (-1) ** (size(t) - 1) if is_corolla(t) else 0
    return "" if mu == want else f"mobius({t}) is {mu}, want {want}"


def check_interval(t: str, length: int, splits: list) -> str:
    """One element per ideal I; its forest has one tree per vertex of I and
    |t| vertices in all, and its restriction has |I| vertices."""
    if length != ideal_count(t) or len(splits) != length:
        return f"interval of {t} has {length} elements, want {ideal_count(t)}"
    if any(f != size(t) or parts != r for f, parts, r in splits):
        return f"interval of {t} has a bad forest/restriction split"
    return ""


VERIFY_CHECKS = 45


def check_verify_report(rc: int, report: dict) -> str:
    checks = report.get("checks", [])
    if rc != 0 or not report.get("passed"):
        return f"verify exited {rc}"
    if len(checks) != VERIFY_CHECKS:
        return f"verify ran {len(checks)} checks, want {VERIFY_CHECKS}"
    if any(c.get("status") != "pass" for c in checks):
        return "a check did not pass"
    return ""
