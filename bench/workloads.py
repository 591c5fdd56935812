"""Seeded job lists for the four workloads.

Each workload is a fixed list of CLI invocations. The seed draws the
relabelings (and, for the samplers, the sampling seeds and words); which
groups, braces and orders appear is the same on every seed, so runs on
different seeds do the same amount of work. Every job reads its own file and
no two table jobs share an additive table, so the library's automorphism
cache never carries over from one job to the next.
"""

from __future__ import annotations

import json
import os
import random

import algebra as A

WORKLOADS = ("enumerate", "structure", "verify", "samplers")


class Job:
    """One CLI invocation plus what the checks need to know about its input."""

    def __init__(self, argv, kind, expect, expected_rc=(0,)):
        self.argv = argv
        self.kind = kind
        self.expect = expect
        self.expected_rc = expected_rc

    @property
    def label(self) -> str:
        return f"{self.kind} {self.expect.get('name') or self.expect.get('brace') or ''}".strip()


class _Writer:
    """Writes input files under the run directory and names them relative to the root."""

    def __init__(self, workdir, relroot):
        self.workdir = workdir
        self.relroot = relroot
        self.count = 0

    def write(self, payload) -> str:
        name = f"in{self.count:04d}.json"
        self.count += 1
        with open(os.path.join(self.workdir, name), "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))
        return f"{self.relroot}/{name}"


def _class_representatives(table):
    auts = A.automorphisms(table)
    gens = A.subgroup_generators(auts, A.compose, tuple(range(len(table))))
    return A.orbit_representatives(A.lambda_walk(table, auts), gens)


def _fresh_perm(rng, n, used, tables, fix_zero=True):
    """A relabeling that gives the first table an image not used before, and the images."""
    while True:
        perm = A.random_perm(rng, n, fix_zero)
        images = [A.relabel(t, perm) for t in tables]
        if images[0] not in used:
            used.add(images[0])
            return perm, images


def _spaced(items, k):
    """k items spread evenly over a list, the same ones on every seed."""
    return [items[i * len(items) // k] for i in range(k)]


# ---------------------------------------------------------------------------


def _enumerate_jobs(rng, out):
    """Every group of order 2 to 12, and Z16, Z8xZ2, D16 and Q16."""
    jobs, used = [], set()
    for order, groups in sorted({**A.small_groups(), **A.catalog()}.items()):
        for name, table in groups.items():
            _, (g,) = _fresh_perm(rng, order, used, [table])
            path = out.write({"name": name, "order": order, "table": g})
            jobs.append(Job(["enumerate", "--in", path], "enumerate",
                            {"name": name, "order": order, "add": g}))
    return jobs


def _structure_jobs(rng, out):
    """Every isomorphism class of skew brace over the catalog groups.

    Orders 8 and 12 appear twice under two relabelings, so the checks can
    compare label-free invariants between the two runs of one brace.
    """
    jobs, used = [], set()
    for order, groups in A.catalog().items():
        for name, table in groups.items():
            for k, circ in enumerate(_class_representatives(table)):
                for copy in range(2 if order < 16 else 1):
                    perm, (add, c) = _fresh_perm(rng, order, used, [table, circ])
                    path = out.write({"order": order, "add": add, "circ": c})
                    jobs.append(Job(["structure", "--in", path], "structure",
                                    {"add": add, "circ": c, "brace": f"{name}/{k}",
                                     "base": table, "perm": perm}))
    return jobs


def _valid_braces():
    """24 skew braces of orders 16, 24 and 32: class representatives and products."""
    z2, z3 = A.cyclic(2), A.cyclic(3)
    reps = {order: [(g, c) for g in groups.values() for c in _class_representatives(g)]
            for order, groups in {**A.small_groups(), **A.catalog()}.items()}
    out = list(_spaced(reps[16], 8))
    out += [A.brace_product(g, c, z3, z3) for g, c in _spaced(reps[8], 4)]
    out += [A.brace_product(g, c, z2, z2) for g, c in _spaced(reps[12], 4)]
    out += [A.brace_product(g, c, *reps[4][i % len(reps[4])])
            for i, (g, c) in enumerate(_spaced(reps[8][1:], 4))]
    out += [A.brace_product(g, c, z2, z2) for g, c in _spaced(reps[16][3:], 4)]
    return out


def _linear_carriers():
    """(m, k, c): G = Zm x Zk with lambda_(x,y)(u, v) = (u, v + c x u), k | c m."""
    return ((5, 5, 1), (3, 9, 3), (4, 8, 2), (6, 6, 1), (7, 7, 1), (5, 10, 2), (8, 8, 2))


def _linear_lambda(m, k, c):
    add = A.product(A.cyclic(m), A.cyclic(k))
    maps = [tuple((b // k) * k + (b % k + c * (a // k) * (b // k)) % k for b in range(m * k))
            for a in range(m * k)]
    return add, maps


def _rb_groups():
    """Every group of order 6 to 12 except Z7 and Z11."""
    small, cat = A.small_groups(), A.catalog()
    return {**small[6], **cat[8], **small[9], **small[10], **cat[12]}


def _verify_jobs(rng, out):
    jobs, used = [], set()
    for add, circ in _valid_braces():
        n = len(add)
        _, (a1, c1) = _fresh_perm(rng, n, used, [add, circ], fix_zero=False)
        path = out.write({"order": n, "add": a1, "circ": c1})
        jobs.append(Job(["verify-brace", "--in", path], "verify-brace",
                        {"add": a1, "circ": c1}, (0,)))
        _, (a2, c2) = _fresh_perm(rng, n, used, [add, circ], fix_zero=False)
        path = out.write({"order": n, "add": a2, "circ": c2})
        jobs.append(Job(["classify", "--in", path], "classify", {"add": a2, "circ": c2}, (0,)))
        # a valid group table paired with the addition so that the left law breaks
        for _ in range(100):
            bad = A.relabel(circ, A.random_perm(rng, n))
            if A.left_law_first(add, bad) is not None:
                break
        else:
            raise RuntimeError("no relabeling breaks the left law")
        _, (a3, c3) = _fresh_perm(rng, n, used, [add, bad], fix_zero=False)
        path = out.write({"order": n, "add": a3, "circ": c3})
        jobs.append(Job(["verify-brace", "--in", path], "verify-brace",
                        {"add": a3, "circ": c3}, (1,)))
    for m, k, c in _linear_carriers():
        add, maps = _linear_lambda(m, k, c)
        n = m * k
        perm = A.random_perm(rng, n)
        inv = [0] * n
        for x, y in enumerate(perm):
            inv[y] = x
        g = A.relabel(add, perm)
        lam = [None] * n
        for a in range(n):
            lam[perm[a]] = tuple(perm[maps[a][inv[b]]] for b in range(n))
        gpath = out.write({"name": f"Z{m}xZ{k}", "order": n, "table": g})
        lpath = out.write({"maps": lam})
        jobs.append(Job(["system", "--kind", "linear", "--group", gpath, "--lambda", lpath],
                        "system", {"add": g, "maps": lam}))
    for name, table in _rb_groups().items():
        _, (g,) = _fresh_perm(rng, len(table), used, [table])
        path = out.write({"name": name, "order": len(g), "table": g})
        jobs.append(Job(["rb", "search", "--group", path], "rb-search", {"add": g}))
    return jobs


def _random_word(rng, rank, syllables, max_exp=3):
    letters = []
    for _ in range(syllables):
        g = rng.randint(1, rank)
        e = rng.randint(1, max_exp) * rng.choice((1, -1))
        letters.extend([g if e > 0 else -g] * abs(e))
    return A.reduce_letters(letters)


def _samplers_jobs(rng, out):
    """Free-group, Rota-Baxter and lattice samplers at the default 500 samples."""
    jobs = []
    for seed in (rng.randrange(1, 10 ** 6) for _ in range(4)):
        s = ["--seed", str(seed)]
        for rank in (2, 3, 4):
            jobs.append(Job(s + ["freegroup", "check", "--rank", str(rank), "--theta", "cycle"],
                            "freegroup-check", {"seed": seed, "rank": rank, "theta": "cycle"}))
        jobs.append(Job(s + ["freegroup", "check", "--rank", "2", "--theta", "identity"],
                        "freegroup-check", {"seed": seed, "rank": 2, "theta": "identity"}))
        inner = _random_word(rng, 3, 2) or (1,)
        jobs.append(Job(s + ["freegroup", "check", "--rank", "3", "--theta", "inner",
                             "--inner-word", A.word_text(inner)],
                        "freegroup-check", {"seed": seed, "rank": 3, "theta": "inner",
                                            "inner": inner}))
        for m in (0, 1, 2):
            jobs.append(Job(s + ["rb", "free", "--m", str(m)], "rb-free", {"seed": seed, "m": m}))
        for p in (1, 2, -1):
            jobs.append(Job(s + ["lattice", "--p", str(p), "--depth", "3"], "lattice",
                            {"seed": seed, "p": p}))
    for n in range(2, 7):
        jobs.append(Job(["freegroup", "verify-cyclic", "--n", str(n)], "verify-cyclic", {"n": n}))
    for n in (2, 3, 4, 2, 3, 4):
        while True:
            w = _random_word(rng, n, 3)
            m = A.exponent_sum(w)
            if w and abs(m) <= 5:
                break
        jobs.append(Job(["freegroup", "verify-t4", "--n", str(n), "--w", A.word_text(w)],
                        "verify-t4", {"n": n, "w": w}))
    for rank, modulus in ((2, None), (3, None), (2, 2), (3, 3), (4, 4), (2, 5)):
        w = _random_word(rng, rank, 6)
        excess = A.exponent_sum(w) if modulus is None else A.exponent_sum(w) % modulus
        w = A.reduce_letters(w + A.word_power((1,), -excess))
        jobs.append(Job(["freegroup", "rewrite", "--rank", str(rank),
                         "--modulus", "inf" if modulus is None else str(modulus),
                         "--w", A.word_text(w)],
                        "rewrite", {"rank": rank, "modulus": modulus, "w": w}))
    return jobs


_BUILDERS = {"enumerate": _enumerate_jobs, "structure": _structure_jobs,
             "verify": _verify_jobs, "samplers": _samplers_jobs}


def build(workload: str, seed: int, workdir: str, relroot: str) -> list:
    """Write the workload's input files for this seed and return its job list."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, _Writer(workdir, relroot))
