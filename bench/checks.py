"""Output checks, computed from the inputs by the benchmark's own algebra.

``check_round`` takes the jobs of one round with their exit codes and parsed
reports and returns a list of problems; an empty list means every output is
correct. No expected value is copied from an earlier run of the program.
"""

from __future__ import annotations

import random
import re
from itertools import product

import algebra as A

# Guarnieri and Vendramin, Math. Comp. 86 (2017): skew braces up to isomorphism.
PUBLISHED_TOTALS = {2: 1, 3: 1, 4: 4, 5: 1, 6: 6, 7: 1, 8: 47, 9: 4, 10: 6, 11: 1, 12: 38}


def _perm_order(p):
    return A.power_exponent([p])


def _flags(add, circ):
    """The five classification flags, recomputed from lambda_a(b) = a^-1 . (a o b)."""
    n = len(add)
    lam = A.lambda_maps(add, circ)
    hom = anti = True
    for a in range(n):
        la, row = lam[a], add[a]
        for b in range(n):
            lab = lam[row[b]]
            lb = lam[b]
            if hom and lab != tuple(la[x] for x in lb):
                hom = False
            if anti and lab != tuple(lb[x] for x in la):
                anti = False
            if not (hom or anti):
                break
    distinct = set(lam)
    return {
        "lambda_homomorphic": hom,
        "lambda_anti_homomorphic": anti,
        "symmetric": A.left_law_first(circ, add) is None,
        "lambda_cyclic": hom and any(_perm_order(f) == len(distinct) for f in distinct),
        "natural": all(circ[a][b] == add[b][a] for a in range(n) for b in range(n)),
    }


def _check_flags(where, reported, add, circ, problems):
    own = _flags(add, circ)
    if reported != own:
        problems.append(f"{where}: classify {reported} != recomputed {own}")
    if own["lambda_anti_homomorphic"] and not own["symmetric"]:
        problems.append(f"{where}: anti-homomorphic brace is not symmetric")


def _table(rows):
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# enumerate


def _enumerate(jobs, problems):
    orbits_by_order = {}
    for job, rc, rep in jobs:
        add, name, order = job.expect["add"], job.expect["name"], job.expect["order"]
        where = f"enumerate {name}"
        tables = [_table(b["circ"]) for b in rep["braces"]]
        if rep["order"] != order or rep["count"] != len(tables):
            problems.append(f"{where}: order/count fields disagree with the list")
        if len(set(tables)) != len(tables):
            problems.append(f"{where}: returned tables are not pairwise distinct")
        for i, (circ, b) in enumerate(zip(tables, rep["braces"])):
            if not A.is_group_table(circ):
                problems.append(f"{where}: table {i} is not a group with identity 0")
                continue
            if A.left_law_first(add, circ) is not None:
                problems.append(f"{where}: table {i} breaks the left brace law")
                continue
            _check_flags(f"{where} #{i}", b["classify"], add, circ, problems)
        auts = A.automorphisms(add)
        walked = A.lambda_walk(add, auts)
        if set(walked) != set(tables):
            problems.append(f"{where}: {len(tables)} braces, the lambda walk finds {len(walked)}")
        gens = A.subgroup_generators(auts, A.compose, tuple(range(order)))
        try:
            orbits = len(A.orbit_representatives(tables, gens))
        except ValueError as exc:
            problems.append(f"{where}: {exc}")
            continue
        orbits_by_order[order] = orbits_by_order.get(order, 0) + orbits
    for order, total in PUBLISHED_TOTALS.items():
        if orbits_by_order.get(order) != total:
            problems.append(f"enumerate: {orbits_by_order.get(order)} classes of order {order},"
                            f" published {total}")


# ---------------------------------------------------------------------------
# structure


def _normal_in(t, members):
    inv = A.inverses(t)
    if any(t[a][b] not in members for a in members for b in members):
        return False
    return all(t[t[g][a]][inv[g]] in members for g in range(len(t)) for a in members)


def _shortest_chain(add, circ, ideals):
    """Length of the shortest ideal chain {0} < ... < G with trivial quotients, or None."""
    inv = A.inverses(add)
    n = len(add)
    start, goal = frozenset((0,)), frozenset(range(n))
    depth = {start: 0}
    frontier = [start]
    while frontier:
        nxt = []
        for small in frontier:
            for big in ideals:
                if big in depth or not small < big:
                    continue
                if all(add[inv[add[a][b]]][circ[a][b]] in small for a in big for b in big):
                    depth[big] = depth[small] + 1
                    nxt.append(big)
        frontier = nxt
    return depth.get(goal)


def _structure(jobs, problems):
    invariants = {}
    base_subgroups = {}
    for job, rc, rep in jobs:
        e = job.expect
        add, circ, perm = e["add"], e["circ"], e["perm"]
        where = f"structure {e['brace']}"
        n = len(add)
        if e["base"] not in base_subgroups:
            base_subgroups[e["base"]] = A.subgroups(e["base"])
        lam = A.lambda_maps(add, circ)
        own = set()
        for h in base_subgroups[e["base"]]:
            members = frozenset(perm[x] for x in h)
            if all(lam[a][x] in members for a in range(n) for x in members) \
                    and _normal_in(add, members) and _normal_in(circ, members):
                own.add(members)
        ideals = [frozenset(i) for i in rep["ideals"]]
        if set(ideals) != own or len(ideals) != len(own):
            problems.append(f"{where}: listed ideals {len(ideals)} != the ideals {len(own)}")
        ident = tuple(range(n))
        kernel = [a for a in range(n) if lam[a] == ident]
        if rep["kernel"] != kernel:
            problems.append(f"{where}: kernel {rep['kernel']} != {kernel}")
        for must in ((0,), ident):
            if frozenset(must) not in ideals:
                problems.append(f"{where}: ideal {list(must)} is missing")
        # Ker lambda of a skew brace need not be an ideal; it must be listed when it is one
        if (frozenset(kernel) in own) != (frozenset(kernel) in ideals):
            problems.append(f"{where}: Ker lambda is an ideal but is not listed")
        st = _shortest_chain(add, circ, own)
        if rep["st"] != st or (st == 1) != (add == circ):
            problems.append(f"{where}: st {rep['st']}, shortest chain {st}")
        if st is not None:
            chain = [frozenset(c) for c in rep["chain"]]
            inv = A.inverses(add)
            ok = len(chain) == st + 1 and chain[0] == frozenset((0,)) \
                and chain[-1] == frozenset(ident) and all(c in own for c in chain)
            for small, big in zip(chain, chain[1:]):
                ok = ok and small < big and all(add[inv[add[a][b]]][circ[a][b]] in small
                                                for a in big for b in big)
            if not ok:
                problems.append(f"{where}: the chain is not a chain of ideals with trivial"
                                f" quotients from {{0}} to G of length st")
        elif rep["chain"] is not None:
            problems.append(f"{where}: a chain is listed without st")
        flags = _flags(add, circ)
        if flags["lambda_anti_homomorphic"]:
            natural = rep.get("naturality", {}).get("is_natural")
            if natural != flags["natural"]:
                problems.append(f"{where}: naturality {natural} != {flags['natural']}")
        key = (len(ideals), sorted(len(i) for i in ideals), rep["st"], rep["automorphism_count"])
        if invariants.setdefault(e["brace"], key) != key:
            problems.append(f"{where}: invariants differ between relabelings")


# ---------------------------------------------------------------------------
# verify


def _is_rb(t, inv, b):
    return all(t[b[g]][b[h]] == b[t[t[t[g][b[g]]][h]][inv[b[g]]]]
               for g in range(len(t)) for h in range(len(t)))


def _brute_force_rb_count(t):
    inv = A.inverses(t)
    return sum(_is_rb(t, inv, b) for b in product(range(len(t)), repeat=len(t)))


def _verify(jobs, problems):
    for i, (job, rc, rep) in enumerate(jobs):
        where = f"verify job {i} ({job.kind})"
        e = job.expect
        if job.kind in ("verify-brace", "classify"):
            add, circ = _table(e["add"]), _table(e["circ"])
            if job.kind == "classify":  # the handler scans the tables with identity 0
                add, circ = A.normalized(add, circ)
            left, right = A.left_law_first(add, circ), A.right_law_first(add, circ)
            want_rc = 0 if job.kind == "classify" or left is None else 1
            witness = list(left or right or []) or None
            if (rc, rep["left_ok"], rep["right_ok"], rep["two_sided"], rep["witness"]) != \
                    (want_rc, left is None, right is None, left is None and right is None, witness):
                problems.append(f"{where}: verdict/witness differ from the benchmark's scan"
                                f" (left {left}, right {right})")
            if left is None:
                _check_flags(where, rep.get("classify"), add, circ, problems)
        elif job.kind == "system":
            add, maps = e["add"], [tuple(m) for m in e["maps"]]
            n = len(add)
            period = A.power_exponent(set(maps))
            if rep["period"] != period or len(rep["vertices"]) != period:
                problems.append(f"{where}: period {rep['period']} != image exponent {period}")
            powered = [tuple(range(n)) for _ in range(n)]
            for level, vertex in enumerate(rep["vertices"]):
                want = tuple(tuple(add[a][powered[a][b]] for b in range(n)) for a in range(n))
                if _table(vertex) != want or rep["labels"][level] != f"circ_{level}":
                    problems.append(f"{where}: vertex {level} is not a . lambda_a^{level}(b)")
                powered = [A.compose(maps[a], powered[a]) for a in range(n)]
            statuses = [s for _, _, s in rep["edges"]]
            if len(statuses) != period * (period - 1) or set(statuses) - {"verified"}:
                problems.append(f"{where}: not every ordered pair of levels is verified")
        elif job.kind == "rb-search":
            t = e["add"]
            n, inv = len(t), A.inverses(t)
            ops = [tuple(o["map"]) for o in rep["operators"]]
            if rep["count"] != len(ops) or len(set(ops)) != len(ops):
                problems.append(f"{where}: count field or duplicate operators")
            if not all(_is_rb(t, inv, b) for b in ops):
                problems.append(f"{where}: a listed operator breaks the Rota-Baxter identity")
            if n <= 6:
                want = ("self-maps", _brute_force_rb_count(t))
            else:
                want = ("endomorphisms", sum(_is_rb(t, inv, b) for b in A.endomorphisms(t)))
            if (rep["scope"], rep["count"]) != want:
                problems.append(f"{where}: scope/count {rep['scope']}/{rep['count']} != {want}")


# ---------------------------------------------------------------------------
# samplers


def _theta_power(expect, w, k):
    if expect["theta"] == "inner":
        return A.conjugate_by(w, expect["inner"], k)
    shift = 1 if expect["theta"] == "cycle" else 0
    return A.cycle_generators(w, expect["rank"], shift * k)


def _left_law_recheck(expect, rng, trials=25):
    """Re-check a o (b c) = (a o b) a^-1 (a o c) on fresh triples, by free reduction."""
    rank = expect["rank"]

    def word():
        letters = [rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(rng.randint(0, 8))]
        return A.reduce_letters(letters)

    def circ(a, b):
        return A.reduce_letters(a + _theta_power(expect, b, A.exponent_sum(a)))

    for _ in range(trials):
        a, b, c = word(), word(), word()
        lhs = circ(a, A.reduce_letters(b + c))
        rhs = A.reduce_letters(circ(a, b) + A.word_inverse(a) + circ(a, c))
        if lhs != rhs:
            return (a, b, c)
    return None


_TOKEN = re.compile(r"^(?:z_\{(\d+),(-?\d+)\}|y_(\d+))$")


def _token_word(name, modulus):
    m = _TOKEN.match(name)
    if m.group(3) is not None:
        return A.reduce_letters(A.word_power((1,), modulus - 1) + (int(m.group(3)),))
    j, k = int(m.group(1)), int(m.group(2))
    return A.reduce_letters(A.word_power((1,), k) + (j,) + A.word_power((1,), -k - 1))


def _samplers(jobs, problems, seed):
    rng = random.Random(f"samplers-check:{seed}")
    for i, (job, rc, rep) in enumerate(jobs):
        where = f"samplers job {i} ({job.kind})"
        e = job.expect
        if job.kind in ("freegroup-check", "rb-free", "lattice"):
            if rep["failure_count"] != 0 or rep["samples"] != 500 or rep["seed"] != e["seed"]:
                problems.append(f"{where}: failures {rep['failure_count']}, samples"
                                f" {rep['samples']}, seed {rep['seed']}")
        if job.kind == "freegroup-check":
            if rep["rank"] != e["rank"]:
                problems.append(f"{where}: rank {rep['rank']} != {e['rank']}")
            bad = _left_law_recheck(e, rng)
            if bad is not None:
                problems.append(f"{where}: left law fails on {bad} under free reduction")
        elif job.kind == "rb-free" and rep["m"] != e["m"]:
            problems.append(f"{where}: m {rep['m']} != {e['m']}")
        elif job.kind == "lattice":
            if rep["p"] != e["p"] or any(rep["failures"].values()):
                problems.append(f"{where}: p {rep['p']} or a failure counter is nonzero")
        elif job.kind == "verify-cyclic":
            n = e["n"]
            if rep["mismatch_count"] != 0 or rep["kernel_rank"] != n * n - n + 1 \
                    or not rep["rank_consistent"]:
                problems.append(f"{where}: mismatches {rep['mismatch_count']},"
                                f" kernel rank {rep['kernel_rank']}")
        elif job.kind == "verify-t4":
            n, m = e["n"], A.exponent_sum(e["w"])
            ok = rep["modified_shift_ok"] and rep["raw_conjugation_ok"] and not rep["failures"]
            if not ok or rep["m"] != m:
                problems.append(f"{where}: shift checks failed or m {rep['m']} != {m}")
            if m != -1 and rep.get("fundamental_domain_count") != abs(m + 1) * (n - 1):
                problems.append(f"{where}: fundamental domain"
                                f" {rep.get('fundamental_domain_count')} != |m+1|(n-1)")
        elif job.kind == "rewrite":
            word = ()
            for name, k in rep["generators"]:
                word = A.reduce_letters(word + A.word_power(_token_word(name, e["modulus"]), k))
            if word != e["w"] or A.letters_of(rep["word"]) != e["w"]:
                problems.append(f"{where}: generators do not multiply back to the word")


def check_round(workload, seed, results) -> list:
    """Problems in one round's outputs.

    ``results`` holds a (job, exit code, parsed report) triple for every job
    that completed; jobs that failed are counted by the caller instead.
    """
    problems = [f"{workload} job {i}: exit code {rc}, expected one of {job.expected_rc}"
                for i, (job, rc, _) in enumerate(results) if rc not in job.expected_rc]
    if workload == "enumerate":
        _enumerate(results, problems)
    elif workload == "structure":
        _structure(results, problems)
    elif workload == "verify":
        _verify(results, problems)
    else:
        _samplers(results, problems, seed)
    return problems
