"""Self-test of the reference checks: each accepts a valid output and
rejects a corrupted copy of it.  Needs no qturan.

    python3 bench/selftest.py

The benchmark also runs it at the end of every untraced run.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction
from math import ceil, comb

import inputs
import reference as R
from reference import CheckError
from workloads import class_edge_test


def rejects(check, *args) -> None:
    try:
        check(*args)
    except CheckError:
        return
    raise CheckError(f"{check.__name__} accepted a corrupted output")


def drop_line(text: str, line: str) -> str:
    lines = text.splitlines()
    lines.remove(line)
    return "\n".join(lines) + "\n"


def assignment_text(n: int, r: int, anchor: int, vectors: list[int]) -> str:
    lines = [f"# gf2-assignment n={n} r={r}", f"v0 {anchor:x}"]
    lines.extend(f"v{i} {v:x}" for i, v in enumerate(vectors, start=1))
    return "\n".join(lines) + "\n"


def csv_text(n: int, layer_edges: dict[int, int]) -> str:
    """Reports as the program prints them, bounds rounded up to 18 digits."""
    _, hi = R.c_enclosure()
    rows = [(str(r), "layer", e, r * comb(n, r), "c/2") for r, e in sorted(layer_edges.items())]
    rows.append(("", "union", sum(layer_edges.values()), n << (n - 1), "c/4"))
    lines = [R.CSV_HEADER]
    for r, scope, achieved, ambient, bound in rows:
        ratio = Fraction(achieved, ambient)
        value = Fraction(ceil(hi / R.BOUND_DIVISORS[bound] * 10**18), 10**18)
        passed = "true" if ratio > value else "false"
        lines.append(
            f"{n},{r},{scope},{achieved},{ambient},{ratio.numerator}/{ratio.denominator},"
            f"{bound},{value.numerator}/{value.denominator},{passed}"
        )
    return "\n".join(lines) + "\n"


def check_layers() -> None:
    n, r = 7, 3
    rng = random.Random(7)
    anchor, vectors = 1, [rng.randrange(1, 1 << r) for _ in range(n)]
    lower, upper = R.survivors(R.Assignment(n, r, anchor, tuple(vectors)))
    a_text = assignment_text(n, r, anchor, vectors)
    l_text = inputs.layer_text(n, r, lower, upper)
    g = R.check_layer_export(a_text, l_text, n, r)
    R.check_free_layer(g)
    x, y = min(R.inclusion_pairs(n, lower, upper))
    rejects(R.check_layer_export, a_text, drop_line(l_text, f"{y:x}"), n, r)
    rejects(R.check_layer_export, a_text, drop_line(l_text, f"{x:x} {y:x}"), n, r)
    rejects(R.check_free_layer, R.parse_layer(drop_line(l_text, f"{x:x} {y:x}")))
    rejects(R.check_free_layer, R.parse_layer(inputs.layer_text(6, 3, *inputs.full_layer(6, 3))))


def check_reports() -> None:
    n = 7
    full = {r: r * comb(n, r) for r in range(1, n + 1, 2)}
    good = csv_text(n, full)
    R.check_reports(good, n, full, union=True)
    rejects(R.check_reports, good, n, {**full, 3: full[3] - 1}, True)
    rejects(R.check_reports, good.replace(",true", ",false", 1), n, full, True)
    rejects(R.check_reports, good, n, full, False)
    _, hi = R.c_enclosure()
    low = hi / 2 - Fraction(1, 10**20)
    below = good.replace(good.splitlines()[1].split(",")[7], f"{low.numerator}/{low.denominator}", 1)
    rejects(R.check_reports, below, n, full, True)


def check_witnesses() -> None:
    c10 = inputs.planted_controls(1)["c10"][:10]
    cycle = tuple(y for _, y in c10)
    R.check_cycle(cycle, 10, R.edge_test(c10))
    rejects(R.check_cycle, cycle[:1] + cycle[2:3] + cycle[1:2] + cycle[3:], 10, R.edge_test(c10))
    rejects(R.check_cycle, cycle[:9] + cycle[:1], 10, R.edge_test(c10))
    rejects(R.check_cycle, cycle, 10, R.edge_test(c10[1:]))
    path = tuple(inputs.walk(0, [0, 1, 2, 0, 1]))
    edges = R.edge_test(zip(path, path[1:]))
    R.check_c6_minus(path, edges)
    rejects(R.check_c6_minus, path[1:] + path[:1], edges)
    # a C10 on coordinates 0, 3, 6, 9, 12: every edge has color 0
    axes = [0, 3, 6, 9, 12]
    cycle = tuple(inputs.walk(0, axes + axes)[:-1])
    edges = [(cycle[i - 1], cycle[i]) for i in range(10)]
    R.check_cycle(cycle, 10, class_edge_test(edges, 0))
    rejects(R.check_cycle, cycle, 10, class_edge_test(edges, 1))


def check_constant() -> None:
    lo, hi = R.c_enclosure()
    partial = Fraction(1)
    for k in range(1, 61):
        partial *= 1 - Fraction(1, 2**k)
    # prod over k > 60 of (1 - 2^-k) lies in [1 - 2^-60, 1]
    tail = 1 - Fraction(1, 2**60)
    if not (lo < hi and hi - lo < Fraction(1, 10**30) and partial * tail <= hi and lo <= partial):
        raise CheckError("the pentagonal enclosure of c disagrees with the partial product")


def run() -> None:
    check_constant()
    check_layers()
    check_reports()
    check_witnesses()


if __name__ == "__main__":
    run()
    print("reference checks: valid outputs accepted, corrupted outputs rejected")
    sys.exit(0)
