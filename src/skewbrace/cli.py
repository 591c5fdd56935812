"""Command-line front end: ingestion, dispatch, deterministic JSON/DOT reports.

Exit codes: 0 on success, 1 when a verification failed (the report is still
emitted), 2 on usage or input errors, 3 when two computations the theory says
must agree did not (CriterionMismatch, a bug in the library), with an
``invariant_failure`` report on standard error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import ExitStack
from functools import cache
from json.encoder import encode_basestring_ascii

from . import braces, groups, lattice, rota, structure, systems, words
from .config import SampleConfig
from .errors import AlgebraError, CriterionMismatch


_ENCODER = json.JSONEncoder(indent=2, sort_keys=True)
_BATCH = 1 << 15   # characters joined per write: few writes, and never the whole report at once
_SCALARS = frozenset((int, str, bool, type(None)))
_ROWS = frozenset((list, tuple))


class Emitted:
    """What emit wrote to its streams; len() is the report's length in characters.

    It stands in for the text emit returns without streams, so len() of the
    result measures the report either way.
    """

    __slots__ = ("chars",)

    def __init__(self, chars: int):
        self.chars = chars

    def __len__(self) -> int:
        return self.chars


def _write(streams, text: str) -> int:
    for stream in streams:
        stream.write(text)
    return len(text)


def _json_scalar(value) -> str:
    """The JSON text of a value that is neither a dict nor a list, as json.dumps gives it."""
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, tuple):    # a record, a namedtuple, is not a list of values
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return _ENCODER.encode(value)   # floats, subclasses; a TypeError for what JSON cannot hold


def _json_key(key) -> str:
    """A dict key as json.dumps writes it: non-string keys become strings after sorting."""
    if not isinstance(key, str):
        if not (isinstance(key, (int, float)) or key is None):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _ENCODER.encode(key)
    return encode_basestring_ascii(key)


def _json_lines(texts, indent: str) -> str:
    """A JSON array of ready item texts, one item a line at ``indent`` plus two spaces."""
    inner = "\n" + indent + "  "
    body = ("," + inner).join(texts)
    return "[" + inner + body + "\n" + indent + "]" if body else "[]"


class _RowTexts(dict):
    """The JSON texts of bytes int lists whose bracket is at one indent, each written on first use.

    A list's text is one str.translate of its bytes read as latin-1: each
    label x becomes "x," and the newline and indent of the next item.
    """

    def __init__(self, indent: str):
        super().__init__()
        inner = "\n" + indent + "  "
        self.labels = tuple(f"{x},{inner}" for x in range(256))
        self.head, self.tail, self.cut = "[" + inner, "\n" + indent + "]", 1 + len(inner)

    def __missing__(self, row: bytes) -> str:
        text = "[]"
        if row:
            text = self.head + row.decode("latin-1").translate(self.labels)[:-self.cut] + self.tail
        self[row] = text
        return text


class _RowMemo(dict):
    """The texts of the bytes lists of one report, table rows and lone maps alike.

    They are kept by the indent of the list's own bracket, so a row and a
    map at one indent share a text.
    """

    def __missing__(self, indent: str) -> _RowTexts:
        texts = self[indent] = _RowTexts(indent)
        return texts


def _json_flat(value, indent: str, rows: _RowMemo, tables: bool = True) -> str | None:
    """The text of a one-piece value, or of a table when ``tables``; None otherwise.

    One-piece values are scalars, lists of scalars, bytes (written as the
    list of their ints through ``rows``) and dicts of one-piece values. A
    table is a list or tuple of int lists or tuples, or a tuple of bytes
    rows; it is written whole, but a dict that holds it is not.
    """
    kind = type(value)
    if kind is bytes:
        return rows[indent][value]
    if kind in _ROWS:
        first = type(value[0]) if value else int
        if first in _SCALARS:
            if all(type(x) is int for x in value):
                return _json_lines(map(int.__repr__, value), indent)
            if all(type(x) in _SCALARS for x in value):
                return _json_lines(map(_json_scalar, value), indent)
        elif tables and first is bytes:
            if kind is tuple and all(type(row) is bytes for row in value):
                return _json_lines(map(rows[indent + "  "].__getitem__, value), indent)
        elif tables and first in _ROWS:
            if (all(type(row) in _ROWS for row in value)
                    and all(type(x) is int for row in value for x in row)):
                inner = indent + "  "
                return _json_lines([_json_lines(map(int.__repr__, row), inner) for row in value], indent)
        return None
    if isinstance(value, dict):
        inner, texts = indent + "  ", []
        for key, item in sorted(value.items()):
            text = _json_flat(item, inner, rows, False)
            if text is None:
                return None
            texts.append(_json_key(key) + ": " + text)
        return "{\n" + inner + (",\n" + inner).join(texts) + "\n" + indent + "}" if texts else "{}"
    return _json_scalar(value)


def _json_chunks(value, indent: str, rows: _RowMemo):
    """json.dumps(value, indent=2, sort_keys=True) in chunks, for a dict or list _json_flat does not write.

    ``value`` starts a line at ``indent``. Each item is one chunk when
    _json_flat writes it, and recurses otherwise. ``rows`` holds the texts
    of the bytes lists written so far.
    """
    inner = indent + "  "
    if isinstance(value, dict):
        items = ((_json_key(key) + ": ", item) for key, item in sorted(value.items()))
        opening, closing = "{", "}"
    else:
        items = (("", item) for item in value)
        opening, closing = "[", "]"
    separator = opening + "\n" + inner
    for head, item in items:
        text = _json_flat(item, inner, rows)
        if text is None:
            yield separator + head
            yield from _json_chunks(item, inner, rows)
        else:
            yield separator + head + text
        separator = ",\n" + inner
    yield "\n" + indent + closing


def _emit_json(report: dict, streams) -> int:
    """Write json.dumps(report, indent=2, sort_keys=True) and a newline, ~_BATCH chars a write.

    A bytes value is written as the list of its ints, and a tuple of bytes
    rows as the table of their ints. The texts of bytes lists are kept for
    this report only.
    """
    rows = _RowMemo()
    text = _json_flat(report, "", rows)
    written, batch, size = 0, [], 0
    for chunk in _json_chunks(report, "", rows) if text is None else (text,):
        batch.append(chunk)
        size += len(chunk)
        if size >= _BATCH:
            written += _write(streams, "".join(batch))
            batch, size = [], 0
    batch.append("\n")
    return written + _write(streams, "".join(batch))


def emit(report: dict, streams=None):
    """Serialize a report as JSON, deterministically.

    Without ``streams`` the text is returned. With them it is written to each
    stream, one table or one line of scalars at a time and in batches
    bounded by size, so that the whole text is never held in memory, and an
    Emitted with its length is returned.
    """
    if streams is None:
        buffer = io.StringIO()
        emit(report, [buffer])
        return buffer.getvalue()
    return Emitted(_emit_json(report, streams))


def _load_json(path: str | None, what: str) -> dict:
    """The JSON object in a file.

    Raises ValueError naming ``what`` when no path is given or the top level
    is not an object.
    """
    if path is None:
        raise ValueError(f"no {what} given")
    with open(path, "r", encoding="utf-8") as handle:
        return groups.json_object(json.load(handle), what)


def _maps(payload: dict):
    return groups.json_field(payload, "maps", "lambda file")


def _finite_operator(path: str, group) -> tuple:
    """The "map" of an operator file, checked as a self-map of the group."""
    op = rota.rb_from_json(_load_json(path, "operator file"), group)
    if isinstance(op, rota.FreeRb):
        raise ValueError('this command needs a finite operator, an operator file with a "map"')
    return op


def _parse_elements(text: str | None, flag: str) -> tuple:
    if text is None:
        raise ValueError(f"no {flag} elements given")
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _brace_payload(brace) -> dict:
    payload = braces.brace_to_json(brace)
    payload["classify"] = brace.classification._asdict()
    return payload


# ---------------------------------------------------------------------------
# Command handlers: each returns (report, ok), or (graph, ok) for system with --format dot


def _cmd_verify_group(args):
    check = groups.group_check_from_json(_load_json(args.infile, "group file"), args.max_order)
    return check.as_report(), check.ok


def _cmd_verify_brace(args):
    rep = braces.verify_brace(*braces.brace_tables(_load_json(args.infile, "brace file")))
    report = rep.as_report()
    if rep.left_ok:
        report["classify"] = rep.brace.classification._asdict()
    return report, rep.left_ok


def _cmd_classify(args):
    brace = braces.brace_from_json(_load_json(args.infile, "brace file"))
    rw = braces.right_law_witness(brace.add, brace.circ)
    report = braces.BraceReport(left_ok=True, right_ok=rw is None, two_sided=rw is None,
                                left_witness=None, right_witness=rw, brace=brace).as_report()
    report["classify"] = brace.classification._asdict()
    return report, True


def _cmd_construct(args):
    kind = args.kind
    if kind == "opposite":
        brace = braces.opposite(braces.brace_from_json(_load_json(args.infile, "brace file")))
        return {"construct": kind, "brace": _brace_payload(brace),
                "trivial": brace.is_trivial}, True
    group = groups.group_from_json(_load_json(args.group, "group file"), args.max_order)
    if kind == "trivial":
        brace = braces.trivial_brace(group)
    elif kind == "op":
        brace = braces.op_brace(group)
    elif kind == "from-lambda":
        payload = _load_json(args.lam, "lambda file")
        brace = braces.construct_from_lambda(group, _maps(payload), args.mode)
    elif kind == "exact-factorization":
        brace = braces.construct_exact_factorization(
            group, _parse_elements(args.part_a, "--a"), _parse_elements(args.part_b, "--b"))
    elif kind == "unification":
        payload = _load_json(args.unification, "unification file")
        brace = braces.construct_unification(
            group, groups.json_field(payload, "f", "unification file"),
            groups.json_field(payload, "alpha", "unification file"), payload.get("epsilon", 1))
    else:  # pragma: no cover - argparse restricts choices
        raise AlgebraError(f"unknown construction {kind!r}")
    return {"construct": kind, "brace": _brace_payload(brace)}, True


def _cmd_enumerate(args):
    group = groups.group_from_json(_load_json(args.infile, "group file"), args.max_order)
    found = braces.enumerate_circ_ops(group, args.max_order)
    return {
        "order": group.order,
        "count": len(found),
        "braces": [{"circ": b.circ.table,
                    "classify": b.classification._asdict()} for b in found],
    }, True


def _cmd_system(args):
    group = groups.group_from_json(_load_json(args.group, "group file"), args.max_order)
    if args.kind == "linear":
        lam = _maps(_load_json(args.lam, "lambda file"))
        graph = systems.build_linear_system(group, lam, depth=args.depth,
                                            include_negative=args.include_negative)
        period = systems.detect_period(graph)
    elif args.kind == "union":
        lam1 = _maps(_load_json(args.lam, "lambda file"))
        lam2 = _maps(_load_json(args.lam2, "lambda file"))
        graph = systems.union_systems(systems.build_linear_system(group, lam1),
                                      systems.build_linear_system(group, lam2))
        period = None
    elif args.kind == "rb":
        graph = systems.build_rb_multibrace(group, _finite_operator(args.rb, group), args.k)
        period = None
    else:  # rooted
        found = braces.enumerate_circ_ops(group, args.max_order)
        graph = systems.build_rooted_system(group, [b.circ for b in found])
        period = None
    if args.format == "dot":
        return graph, True
    report = systems.system_to_json(graph)
    if period is not None:
        report["period"] = period
    if graph.hypotheses_met is not None:
        report["hypotheses_met"] = graph.hypotheses_met
    return report, all(status == "verified" for status in graph.edges.values())


def _cmd_structure(args):
    brace = braces.brace_from_json(_load_json(args.infile, "brace file"))
    ideals = structure.all_ideals(brace)
    chain = structure.triviality_step(brace, ideals)
    report = {
        "ideals": ideals,
        "kernel": brace.lam.kernel,
        "st": chain.step if chain else None,
        "chain": chain.chain if chain else None,
        "automorphism_count": len(structure.brace_automorphisms(brace, args.max_order)),
    }
    if brace.lam.anti_homomorphic_on_add:
        report["naturality"] = structure.naturality_report(brace)
    return report, True


def _cmd_freegroup(args):
    if args.action == "verify-cyclic":
        report = words.verify_cyclic1(args.n)
        return report, report["mismatch_count"] == 0 and report["rank_consistent"]
    if args.action == "verify-t4":
        w = words.word_from_text(args.n, args.word)
        report = words.verify_t4(args.n, w, window=args.window)
        return report, report["modified_shift_ok"] and report["raw_conjugation_ok"]
    if args.action == "check":
        if args.theta == "cycle":
            theta = words.GeneratorCycle(args.rank)
        elif args.theta == "identity":
            theta = words.GeneratorCycle(args.rank, shift=0)
        else:
            theta = words.Inner(words.word_from_text(args.rank, args.inner_word))
        report = words.sampled_brace_check(theta, args.sampling)
        return report, report["failure_count"] == 0
    # rewrite
    modulus = None if args.modulus == "inf" else int(args.modulus)
    rewriter = words.SchreierRewriter(args.rank, modulus)
    w = words.word_from_text(args.rank, args.word)
    tokens = rewriter.rewrite(w)
    return {
        "word": words.word_to_text(w),
        "rank": args.rank,
        "modulus": args.modulus,
        "generators": [[rewriter.token_name(tok), e] for tok, e in tokens],
    }, True


def _cmd_lattice(args):
    report = lattice.lattice_system_check(args.p, depth=args.depth,
                                          sampling=args.sampling)
    return report, report["failure_count"] == 0


def _cmd_rb(args):
    group = (groups.group_from_json(_load_json(args.group, "group file"), args.max_order)
             if args.group else None)
    if args.action in ("brace", "search") and group is None:
        raise ValueError("--group is required for this action")
    if args.action == "check":
        op = rota.rb_from_json(_load_json(args.rb, "operator file"), group)
        if isinstance(op, rota.FreeRb):
            report = rota.free_is_rb(op, args.sampling)
            return report, report["failure_count"] == 0
        if group is None:
            raise ValueError("--group is required to check a finite operator")
        check = rota.is_rb(group, op)
        return {"is_rb": check.ok,
                "witness": list(check.witness) if check.witness else None}, check.ok
    if args.action == "brace":
        op = _finite_operator(args.rb, group)
        brace = rota.rb_brace(group, op)
        report = {"brace": _brace_payload(brace)}
        report.update(rota.rb_symmetry_check(brace, op))
        return report, True
    if args.action == "search":
        return rota.rb_search(group, args.max_order), True
    # free
    report = rota.free_rb_report(args.m, args.sampling)
    return report, report["failure_count"] == 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewbrace",
        description="Construct, verify and enumerate skew braces and brace systems.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--max-order", type=int, default=groups.MAX_GROUP_ORDER, dest="max_order")
    parser.add_argument("--out", default=None, help="also write the report to this path")
    parser.add_argument("--format", choices=("json", "dot"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify-group", help="check the group axioms on a table file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_verify_group)

    p = sub.add_parser("verify-brace", help="check both brace laws on a brace file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_verify_brace)

    p = sub.add_parser("classify", help="structural flags of a brace file")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("construct", help="build a brace from one of the constructions")
    p.add_argument("--kind", required=True,
                   choices=("trivial", "op", "from-lambda", "exact-factorization",
                            "unification", "opposite"))
    p.add_argument("--group", help="group file (all kinds except opposite)")
    p.add_argument("--in", dest="infile", help="brace file (kind=opposite)")
    p.add_argument("--lambda", dest="lam", help='file {"maps": [[...], ...]}')
    p.add_argument("--mode", choices=("homomorphic", "anti_homomorphic"),
                   default="homomorphic")
    p.add_argument("--a", dest="part_a", help="comma-separated subgroup elements")
    p.add_argument("--b", dest="part_b", help="comma-separated subgroup elements")
    p.add_argument("--unification", help='file {"f": [...], "alpha": [[...]], "epsilon": 1}')
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("enumerate", help="all skew braces over a fixed additive group")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("system", help="build a brace system graph")
    p.add_argument("--kind", required=True, choices=("linear", "union", "rb", "rooted"))
    p.add_argument("--group", required=True)
    p.add_argument("--lambda", dest="lam")
    p.add_argument("--lambda2", dest="lam2")
    p.add_argument("--rb")
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--include-negative", action="store_true")
    p.set_defaults(handler=_cmd_system)

    p = sub.add_parser("structure", help="ideals, triviality chain, automorphisms")
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(handler=_cmd_structure)

    p = sub.add_parser("freegroup", help="free-group word verifications")
    p.add_argument("action", choices=("verify-cyclic", "verify-t4", "check", "rewrite"))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--rank", type=int, default=2)
    p.add_argument("--w", dest="word", default="x1")
    p.add_argument("--window", type=int, default=6)
    p.add_argument("--theta", choices=("cycle", "identity", "inner"), default="cycle")
    p.add_argument("--inner-word", dest="inner_word", default="x1")
    p.add_argument("--modulus", default="inf")
    p.set_defaults(handler=_cmd_freegroup)

    p = sub.add_parser("lattice", help="sampled checks of the integer-lattice tower")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--depth", type=int, default=3)
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("rb", help="Rota-Baxter operators and their braces")
    p.add_argument("action", choices=("check", "brace", "search", "free"))
    p.add_argument("--group")
    p.add_argument("--rb")
    p.add_argument("--m", type=int, default=1)
    p.set_defaults(handler=_cmd_rb)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first main() call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        args.sampling = SampleConfig(samples=args.samples, seed=args.seed)   # checked for every command
        if args.max_order < 1:
            raise ValueError(f"--max-order must be at least 1, not {args.max_order}")
        if args.format == "dot" and args.command != "system":
            raise ValueError("dot output is only available for system graphs")
        result, ok = args.handler(args)
    except CriterionMismatch as exc:
        failure = {"command": args.command, "error": type(exc).__name__, "message": str(exc)}
        print(json.dumps({"invariant_failure": failure}, sort_keys=True), file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError, KeyError, ValueError, AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with ExitStack() as stack:
        streams = [sys.stdout]
        if args.out:
            try:
                streams.append(stack.enter_context(open(args.out, "w", encoding="utf-8")))
            except OSError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
        if args.format == "dot":      # system returns its graph; main refused dot for the rest
            _write(streams, systems.export_graph(result))
        else:
            emit({"config": {"seed": args.seed, "samples": args.samples, "max_order": args.max_order},
                  "command": args.command, **result}, streams)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
