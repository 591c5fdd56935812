import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    case_key,
    compose_by_index,
    group_to_json,
    invert_by_index,
    rb_search_rows_by_operator,
    tuples,
)

from skewbrace import braces, cli, config, groups, rng, rota, structure, systems, words
from skewbrace.braces import brace_to_json, op_brace, trivial_brace
from skewbrace.cli import main
from skewbrace.errors import CriterionMismatch


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def z4_file(tmp_path):
    return write(tmp_path, "z4.json", group_to_json(groups.cyclic_group(4)))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_same_text(actual: str, expected: str) -> None:
    """actual == expected, reported by both lengths and 80 characters around the first difference.

    pytest's own report of a failed == diffs the two texts whole, which takes
    minutes on a report of about 1 MB.
    """
    if actual == expected:
        return
    at = next((i for i, (x, y) in enumerate(zip(actual, expected)) if x != y),
              min(len(actual), len(expected)))
    window = slice(max(0, at - 40), at + 40)
    pytest.fail(f"texts differ: lengths {len(actual)} and {len(expected)}, first at offset {at}\n"
                f"  actual:   {actual[window]!r}\n  expected: {expected[window]!r}", pytrace=False)


def test_verify_group_ok(tmp_path, capsys):
    code, out, _ = run(capsys, ["verify-group", "--in", z4_file(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["group_ok"] is True
    assert report["config"] == {"seed": 0, "samples": 500, "max_order": 24}


def test_verify_group_failure_exit_1(tmp_path, capsys):
    bad = group_to_json(groups.cyclic_group(4))
    bad["table"][1][1] = 1
    path = write(tmp_path, "bad.json", bad)
    code, out, _ = run(capsys, ["verify-group", "--in", path])
    assert code == 1
    assert json.loads(out)["group_ok"] is False


def test_verify_group_rejects_booleans(tmp_path, capsys):
    path = write(tmp_path, "bools.json", {"table": [[False, True], [True, False]]})
    code, out, _ = run(capsys, ["verify-group", "--in", path])
    assert code == 1
    report = json.loads(out)
    assert report["group_ok"] is False
    assert report["violations"] == [{"code": "entry_out_of_range", "witness": [0, 0]}]


def test_verify_group_generators(tmp_path, capsys):
    path = write(tmp_path, "v4.json",
                 {"name": "V", "degree": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]})
    code, out, _ = run(capsys, ["verify-group", "--in", path])
    assert code == 0
    assert json.loads(out)["order"] == 4


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, ["verify-group", "--in", "/nonexistent.json"])
    assert code == 2
    assert "error" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify-group", "--bogus-flag", "x"])
    assert info.value.code == 2


def test_verify_brace(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    path = write(tmp_path, "brace.json", brace_to_json(op_brace(s3)))
    code, out, _ = run(capsys, ["verify-brace", "--in", path])
    assert code == 0
    report = json.loads(out)
    assert report["left_ok"] and report["classify"]["lambda_anti_homomorphic"]


def test_verify_brace_failure(tmp_path, capsys):
    z4 = groups.cyclic_group(4)
    payload = {"order": 4, "add": [list(r) for r in z4.table],
               "circ": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]}
    path = write(tmp_path, "bad_brace.json", payload)
    code, out, _ = run(capsys, ["verify-brace", "--in", path])
    assert code == 1
    report = json.loads(out)
    assert report["left_ok"] is False and report["witness"] is not None


@pytest.mark.parametrize("circ", [
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],   # the left law fails
    [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],   # the left law holds
])
def test_verify_brace_declared_order_checked_first(tmp_path, capsys, circ):
    z4 = groups.cyclic_group(4)
    payload = {"order": 5, "add": [list(r) for r in z4.table], "circ": circ}
    path = write(tmp_path, "misdeclared.json", payload)
    code, out, err = run(capsys, ["verify-brace", "--in", path])
    assert code == 2 and out == ""
    assert "declared order does not match the tables" in err


@pytest.mark.parametrize("order", [2.0, True, "2"])
@pytest.mark.parametrize("argv,payload,message", [
    (["verify-group", "--in"], {"table": [[0, 1], [1, 0]]}, "not a group"),
    (["classify", "--in"], {"add": [[0, 1], [1, 0]], "circ": [[0, 1], [1, 0]]},
     "declared order does not match the tables"),
    (["rb", "check", "--rb"], {"map": [0, 1]}, "declared order does not match the map length"),
])
def test_declared_order_that_is_not_an_integer_exit_2(tmp_path, capsys, argv, payload, message,
                                                      order):
    path = write(tmp_path, "declared.json", {**payload, "order": order})
    code, out, err = run(capsys, argv + [path])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("missing", ["add", "circ"])
def test_brace_file_missing_field_is_named(tmp_path, capsys, missing):
    payload = brace_to_json(trivial_brace(groups.cyclic_group(4)))
    del payload[missing]
    path = write(tmp_path, "partial.json", payload)
    for command in ("verify-brace", "classify", "structure"):
        code, out, err = run(capsys, [command, "--in", path])
        assert code == 2 and out == ""
        assert err == f'error: brace file has no "{missing}" table\n'


SHAPE = "must be a list of rows, each a list of integers"


@pytest.mark.parametrize("command, payload, field", [
    ("verify-brace", {"order": 4, "add": 5, "circ": 5}, "add"),
    ("verify-brace", {"add": [[0, 1], [1, 0]], "circ": [[0, 1], 3]}, "circ"),
    ("classify", {"add": [[0, 1], [1, 0]], "circ": 7}, "circ"),
    ("verify-group", {"table": 3}, "table"),
    ("verify-group", {"table": [[0, 1], 5]}, "table"),
    ("enumerate", {"table": 3}, "table"),
    ("enumerate", {"order": 2, "table": [0, 1]}, "table"),
])
def test_table_that_is_not_a_list_of_lists_exit_2(tmp_path, capsys, command, payload, field):
    code, out, err = run(capsys, [command, "--in", write(tmp_path, "shape.json", payload)])
    assert code == 2 and out == ""
    assert err == f'error: "{field}" {SHAPE}\n'


def test_classify(tmp_path, capsys):
    z4 = groups.cyclic_group(4)
    path = write(tmp_path, "trivial.json", brace_to_json(trivial_brace(z4)))
    code, out, _ = run(capsys, ["classify", "--in", path])
    assert code == 0
    flags = json.loads(out)["classify"]
    assert set(flags) == {"lambda_homomorphic", "lambda_anti_homomorphic",
                          "symmetric", "lambda_cyclic", "natural"}


def test_enumerate_z4(tmp_path, capsys):
    code, out, _ = run(capsys, ["enumerate", "--in", z4_file(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 2


def test_construct_op(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    path = write(tmp_path, "s3.json", group_to_json(s3))
    code, out, _ = run(capsys, ["construct", "--kind", "op", "--group", path])
    assert code == 0
    report = json.loads(out)
    assert report["brace"]["classify"]["natural"] is True


def test_construct_from_lambda(tmp_path, capsys):
    gpath = z4_file(tmp_path)
    lpath = write(tmp_path, "lam.json",
                  {"maps": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]]})
    code, out, _ = run(capsys, ["construct", "--kind", "from-lambda", "--group", gpath,
                               "--lambda", lpath, "--mode", "homomorphic"])
    assert code == 0
    assert json.loads(out)["brace"]["circ"][1][1] == 0


def test_construct_exact_factorization(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    path = write(tmp_path, "s3.json", group_to_json(s3))
    a3 = groups.derived_subgroup(s3)
    transposition = next(x for x in range(6) if s3.element_order(x) == 2)
    code, out, _ = run(capsys, ["construct", "--kind", "exact-factorization",
                               "--group", path,
                               "--a", ",".join(map(str, a3)),
                               "--b", f"0,{transposition}"])
    assert code == 0
    assert json.loads(out)["brace"]["classify"]["symmetric"] is True


def test_construct_trivial_and_opposite(tmp_path, capsys):
    gpath = z4_file(tmp_path)
    code, out, _ = run(capsys, ["construct", "--kind", "trivial", "--group", gpath])
    assert code == 0
    brace_payload = json.loads(out)["brace"]
    bpath = write(tmp_path, "b.json",
                  {"order": 4, "add": brace_payload["add"], "circ": brace_payload["circ"]})
    code, out, _ = run(capsys, ["construct", "--kind", "opposite", "--in", bpath])
    assert code == 0
    assert json.loads(out)["trivial"] is True


def test_construct_unification(tmp_path, capsys):
    d4 = groups.dihedral_group(4)
    gpath = write(tmp_path, "d4.json", group_to_json(d4))
    chi1 = [i % 2 for i in range(4)] + [i % 2 for i in range(4)]
    chi2 = [0] * 4 + [1] * 4
    alpha = [[2 if chi1[a] * chi2[b] else 0 for b in range(8)] for a in range(8)]
    upath = write(tmp_path, "uni.json", {"f": [0] * 8, "alpha": alpha, "epsilon": 1})
    code, out, _ = run(capsys, ["construct", "--kind", "unification",
                               "--group", gpath, "--unification", upath])
    assert code == 0
    report = json.loads(out)
    assert report["brace"]["classify"]["symmetric"] is True
    assert report["brace"]["circ"] != report["brace"]["add"]


def test_construct_bad_input_exit_2(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    path = write(tmp_path, "s3.json", group_to_json(s3))
    code, _, err = run(capsys, ["construct", "--kind", "exact-factorization",
                               "--group", path, "--a", "0,1", "--b", "0,2"])
    assert code == 2
    assert "error" in err
    # a repeated label is named as such, not as a set that is no subgroup
    argv = ["construct", "--kind", "exact-factorization", "--group", z4_file(tmp_path)]
    code, out, err = run(capsys, argv + ["--a", "0,0,1,2,3", "--b", "0"])
    assert code == 2 and out == ""
    assert err == "error: A lists element 0 more than once\n"
    code, _, _ = run(capsys, argv + ["--a", "0,1,2,3", "--b", "0"])
    assert code == 0


def test_system_linear_json(tmp_path, capsys):
    gpath = z4_file(tmp_path)
    lpath = write(tmp_path, "lam.json",
                  {"maps": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]]})
    code, out, _ = run(capsys, ["system", "--kind", "linear", "--group", gpath,
                               "--lambda", lpath, "--depth", "2"])
    assert code == 0
    report = json.loads(out)
    assert report["period"] == 2
    assert report["kind"] == "linear"


@pytest.mark.parametrize("depth,code", [(1000, 0), (1001, 2)])
def test_system_linear_depth_bound(tmp_path, capsys, depth, code):
    gpath = z4_file(tmp_path)
    lpath = write(tmp_path, "lam.json",
                  {"maps": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]]})
    found, out, err = run(capsys, ["system", "--kind", "linear", "--group", gpath,
                                   "--lambda", lpath, "--depth", str(depth),
                                   "--include-negative"])
    assert found == code
    if code == 0:
        assert json.loads(out)["period"] == 2
    else:
        assert out == "" and err == f"error: depth 1001 exceeds the bound of {systems.MAX_TOWER_HEIGHT}\n"


def test_criterion_mismatch_exits_3_with_invariant_report(tmp_path, capsys, monkeypatch):
    # with no automorphism found, the identity lambda values of a trivial brace are unlisted
    path = write(tmp_path, "brace.json", brace_to_json(trivial_brace(groups.cyclic_group(4))))
    monkeypatch.setattr(structure, "_homomorphisms", lambda *args: [])
    code, out, err = run(capsys, ["structure", "--in", path])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"invariant_failure": {
        "command": "structure", "error": "CriterionMismatch",
        "message": "lambda values must be brace automorphisms here"}}


def test_derived_table_failure_exits_3_not_2(tmp_path, capsys, monkeypatch):
    # a product table that matches no lambda value fails the check of SkewBrace.from_lambda
    of = braces.LambdaMap.of

    def corrupted(group, lam):
        facts = of(group, lam)
        return facts._replace(products=tuple((-1,) * len(row) for row in facts.products))

    monkeypatch.setattr(braces.LambdaMap, "of", staticmethod(corrupted))
    lam = write(tmp_path, "lam.json", {"maps": [[0, 1, 2, 3]] * 4})
    code, out, err = run(capsys, ["construct", "--kind", "from-lambda", "--group", z4_file(tmp_path),
                                  "--lambda", lam])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"invariant_failure": {
        "command": "construct", "error": "CriterionMismatch",
        "message": "lambda_(a o b) is not lambda_a lambda_b at (0, 0)"}}


def test_census_missing_a_conjugate_exits_3(tmp_path, capsys, monkeypatch):
    # the walked assignments must be every orbit member the root keeps: drop one
    # walked member of an orbit of Q8 that keeps another, from which it is reached
    q8 = groups.dicyclic_group(2)
    auts = groups.automorphism_group(q8)
    walked = braces.regular_subgroups(q8, auts)
    orbit = next(o for o in braces.assignment_orbits(q8, auts, walked) if len(set(o) & set(walked)) > 1)
    kept = [maps for maps in walked if maps != max(set(orbit) & set(walked))]
    monkeypatch.setattr(braces, "regular_subgroups", lambda base, automorphisms: kept)
    message = r"regular subgroup (\d+) has an Aut\(G\)-conjugate that the walk did not find"
    with pytest.raises(CriterionMismatch, match=message) as raised:
        braces.enumerate_circ_ops(q8)
    assert kept[int(re.match(message, str(raised.value))[1])] in orbit
    code, out, err = run(capsys, ["enumerate", "--in", write(tmp_path, "q8.json", group_to_json(q8))])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"invariant_failure": {
        "command": "enumerate", "error": "CriterionMismatch", "message": str(raised.value)}}


def test_rb_search_missing_a_conjugate_exits_3(tmp_path, capsys, monkeypatch):
    # the search's output must be Aut(G)-stable: drop one member of an orbit of S3
    s3 = groups.symmetric_group(3)
    search = rota.rb_self_maps
    orbit = next(o for o in rota.rb_orbits(groups.automorphism_group(s3), search(s3)) if len(o) > 1)
    kept = [b for b in search(s3) if b != orbit[1]]
    monkeypatch.setattr(rota, "rb_self_maps", lambda group: kept)
    message = r"Rota-Baxter operator (\d+) has an Aut\(G\)-conjugate that the search did not find"
    with pytest.raises(CriterionMismatch, match=message) as raised:
        rota.rb_search(s3)
    assert kept[int(re.match(message, str(raised.value))[1])] in orbit
    code, out, err = run(capsys, ["rb", "search", "--group", write(tmp_path, "s3.json", group_to_json(s3))])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"invariant_failure": {
        "command": "rb", "error": "CriterionMismatch", "message": str(raised.value)}}


def test_an_orbit_whose_size_does_not_divide_aut_exits_3(tmp_path, capsys, monkeypatch):
    # orbit-stabilizer: an action that splits the 6 conjugates of one operator
    # of Z2xZ2, |Aut| = 6, into the least of them and the other 5 is caught
    klein = groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2))
    auts = groups.automorphism_group(klein)
    found = rota.rb_self_maps(klein)
    orbit = next(o for o in rota.rb_orbits(auts, found) if len(o) == len(auts) == 6)
    conjugation_by = rota.conjugation_by

    def split(psi):         # psi's conjugation, except that nothing moves onto or off orbit[0]
        move = conjugation_by(psi)
        return lambda b: b if (b == orbit[0]) != (move(b) == orbit[0]) else move(b)

    monkeypatch.setattr(rota, "conjugation_by", split)
    message = r"the orbit of member (\d+) has 5 members, but 5 does not divide \|Aut\| = 6"
    with pytest.raises(CriterionMismatch, match=message) as raised:
        rota.rb_search(klein)
    assert found[int(re.match(message, str(raised.value))[1])] in orbit[1:]
    code, out, err = run(capsys, ["rb", "search", "--group", write(tmp_path, "k.json", group_to_json(klein))])
    assert code == 3
    assert out == ""
    assert json.loads(err) == {"invariant_failure": {
        "command": "rb", "error": "CriterionMismatch", "message": str(raised.value)}}


def test_rb_search_takes_aut_under_a_max_order_above_the_default(tmp_path, capsys):
    # Aut(G) is searched under the larger of --max-order and MAX_GROUP_ORDER
    z32 = groups.cyclic_group(32)
    path = write(tmp_path, "z32.json", group_to_json(z32))
    code, out, err = run(capsys, ["rb", "search", "--group", path])
    assert code == 2 and out == "" and "order 32 exceeds cap 24" in err
    code, out, _ = run(capsys, ["--max-order", "32", "rb", "search", "--group", path])
    assert code == 0
    assert json.loads(out)["operators"] == rb_search_rows_by_operator(z32, 32)


@pytest.mark.parametrize("maps,message", [
    (3, "lambda must be a list of maps"),
    ([[0, 1, 2, 3], [0, 3, 2, 1]], "lambda has 2 maps, the group has 4 elements"),
    ([[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2]],
     "lambda map of element 3 must list 4 images in 0..3"),
    ([[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1, 0]],
     "lambda map of element 3 must list 4 images in 0..3"),
    ([[0, 1, 2, 3], [0, 3, 2, 7], [0, 1, 2, 3], [0, 3, 2, 1]],
     "lambda map of element 1 must list 4 images in 0..3"),
    ([[0, 1, 2, 3], [0, -1, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]],
     "lambda map of element 1 must list 4 images in 0..3"),
    ([[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1], "junk"],
     "lambda has 5 maps, the group has 4 elements"),
])
@pytest.mark.parametrize("command", [["system", "--kind", "linear"],
                                     ["construct", "--kind", "from-lambda"]])
def test_malformed_lambda_file_exit_2(tmp_path, capsys, maps, message, command):
    gpath = z4_file(tmp_path)
    lpath = write(tmp_path, "lam.json", {"maps": maps})
    code, out, err = run(capsys, command + ["--group", gpath, "--lambda", lpath])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command,kind,payload,message", [
    (["system", "--kind", "linear", "--lambda"], "lambda", {"mapz": []},
     'the lambda file has no "maps" field'),
    (["system", "--kind", "union", "--lambda2", "{lam2}", "--lambda"], "lambda", {"mapz": []},
     'the lambda file has no "maps" field'),
    (["construct", "--kind", "from-lambda", "--lambda"], "lambda", {"mapz": []},
     'the lambda file has no "maps" field'),
    (["construct", "--kind", "unification", "--unification"], "unification",
     {"alpha": [[0] * 4] * 4}, 'the unification file has no "f" field'),
    (["construct", "--kind", "unification", "--unification"], "unification",
     {"f": [0] * 4}, 'the unification file has no "alpha" field'),
    (["verify-group", "--in"], "group", {"generators": ["(1 2)"]},
     'the group file has no "degree" field'),
    (["rb", "check", "--rb"], "operator", {"images": ["x1", "x1"]},
     'the operator file has no "rank" field'),
], ids=["linear", "union", "from-lambda", "unification-f", "unification-alpha", "degree", "rank"])
def test_missing_loader_field_is_named(tmp_path, capsys, command, kind, payload, message):
    lam2 = write(tmp_path, "lam2.json", {"maps": [[0, 1, 2, 3]] * 4})
    path = write(tmp_path, f"{kind}.json", payload)
    argv = [arg.replace("{lam2}", lam2) for arg in command] + [path]
    if kind in ("lambda", "unification"):
        argv += ["--group", z4_file(tmp_path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


UNIFICATION = ["construct", "--kind", "unification", "--unification"]
FREE_OP = {"rank": 2, "images": ["x1", "x1"]}


@pytest.mark.parametrize("command,payload,message", [
    (UNIFICATION, {"f": [0], "alpha": [[0]]}, '"f" must list 4 elements in 0..3'),
    (UNIFICATION, {"f": [0, 0, 0, 0], "alpha": 5},
     '"alpha" must be a 4x4 table of elements in 0..3'),
    (UNIFICATION, {"f": [0, 0, 0, 0], "alpha": [[0, 0, 0, 0]] * 3},
     '"alpha" must be a 4x4 table of elements in 0..3'),
    (UNIFICATION, {"f": [0, 0, 0, 0], "alpha": [[0, 0, 0, 0]] * 4, "epsilon": True},
     "epsilon must be +1 or -1"),
    (["rb", "check", "--rb"], {"map": 5}, '"map" must be a list of elements'),
    (["rb", "check", "--rb"], {"rank": 2, "images": 5},
     '"images" must be a list of words, each a string'),
    (["rb", "check", "--rb"], {"rank": 2, "images": [1, 2]},
     '"images" must be a list of words, each a string'),
    (["rb", "check", "--rb"], {"rank": 2, "images": ["x1"]},
     '"images" must give one word per generator, 2 in all'),
    (["rb", "check", "--rb"], {"rank": "2", "images": ["x1", "x1"]}, '"rank" must be an integer'),
    (["rb", "brace", "--rb"], FREE_OP,
     'this command needs a finite operator, an operator file with a "map"'),
    (["system", "--kind", "rb", "--rb"], FREE_OP,
     'this command needs a finite operator, an operator file with a "map"'),
], ids=["unification-f-short", "unification-alpha-number", "unification-alpha-short",
        "unification-epsilon-boolean", "map-number", "images-number", "images-not-words", "images-short", "rank-string",
        "brace-free-operator", "system-free-operator"])
def test_misshapen_loader_payload_exit_2(tmp_path, capsys, command, payload, message):
    argv = command + [write(tmp_path, "payload.json", payload), "--group", z4_file(tmp_path)]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("payload,message", [
    ({"degree": "x", "generators": ["(1 2)"]}, '"degree" must be a positive integer'),
    ({"degree": True, "generators": ["(1 2)"]}, '"degree" must be a positive integer'),
    ({"degree": 3, "generators": 5},
     '"generators" must be a list of permutations, each a string'),
    ({"degree": 3, "generators": [5]},
     '"generators" must be a list of permutations, each a string'),
], ids=["degree-string", "degree-boolean", "generators-number", "generators-not-strings"])
def test_misshapen_generator_group_file_exit_2(tmp_path, capsys, payload, message):
    code, out, err = run(capsys, ["verify-group", "--in", write(tmp_path, "g.json", payload)])
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_generator_group_file_degree_bound(tmp_path, capsys):
    bound = groups.MAX_PERMUTATION_DEGREE
    code, out, _ = run(capsys, ["verify-group", "--in", write(
        tmp_path, "wide.json", {"degree": bound, "generators": ["(1 2)", f"({bound - 1} {bound})"]})])
    assert code == 0 and json.loads(out)["order"] == 4
    code, out, err = run(capsys, ["verify-group", "--in", write(
        tmp_path, "wider.json", {"degree": bound + 1, "generators": ["(1 2)"]})])
    assert code == 2 and out == ""
    assert err == f'error: "degree" {bound + 1} exceeds the bound of {bound} points\n'


@pytest.mark.parametrize("command", [["verify-group", "--in"], ["enumerate", "--in"],
                                     ["rb", "search", "--group"]],
                         ids=["verify-group", "enumerate", "rb-search"])
def test_generator_group_file_above_the_order_cap_exit_2(tmp_path, capsys, command):
    s4 = write(tmp_path, "s4.json", {"degree": 4, "generators": ["(1 2)", "(1 2 3 4)"]})
    code, out, _ = run(capsys, ["verify-group", "--in", s4])
    assert code == 0 and json.loads(out)["order"] == 24
    # S5 and the symmetric group on all 256 points: the closure stops at 25 elements
    for degree in (5, groups.MAX_PERMUTATION_DEGREE):
        cycle = "(" + " ".join(str(p) for p in range(1, degree + 1)) + ")"
        path = write(tmp_path, f"s{degree}.json", {"degree": degree, "generators": ["(1 2)", cycle]})
        code, out, err = run(capsys, command + [path])
        assert code == 2 and out == ""
        assert err == "error: the generated group has order above the cap 24\n"


def test_max_order_raises_the_generator_file_cap(tmp_path, capsys):
    s5 = write(tmp_path, "s5.json", {"degree": 5, "generators": ["(1 2)", "(1 2 3 4 5)"]})
    code, out, err = run(capsys, ["verify-group", "--in", s5])
    assert code == 2 and err == "error: the generated group has order above the cap 24\n"
    code, out, _ = run(capsys, ["--max-order", "120", "verify-group", "--in", s5])
    assert code == 0 and json.loads(out)["order"] == 120
    code, out, err = run(capsys, ["--max-order", "119", "verify-group", "--in", s5])
    assert code == 2 and err == "error: the generated group has order above the cap 119\n"
    # a group table holds at most MAX_TABLE_ORDER labels, whatever --max-order says
    s6 = write(tmp_path, "s6.json", {"degree": 6, "generators": ["(1 2)", "(1 2 3 4 5 6)"]})
    code, out, err = run(capsys, ["--max-order", "720", "verify-group", "--in", s6])
    assert code == 2 and err == "error: the generated group has order above the cap 256\n"


def test_table_of_the_bound_order_is_accepted(tmp_path, capsys):
    z2 = groups.cyclic_group(2)
    group = z2
    for _ in range(7):
        group = groups.direct_product(group, z2)
    assert group.order == groups.MAX_TABLE_ORDER == 256
    code, out, _ = run(capsys, ["verify-group", "--in", write(
        tmp_path, "z2-8.json", group_to_json(group))])
    assert code == 0
    report = json.loads(out)
    assert report["group_ok"] and report["order"] == 256


@pytest.mark.parametrize("command", ["verify-group", "verify-brace", "structure", "enumerate"])
def test_table_above_the_order_bound_exit_2(tmp_path, capsys, command):
    table = [[(a + b) % 257 for b in range(257)] for a in range(257)]
    if command in ("verify-group", "enumerate"):
        payload = {"name": "Z257", "order": 257, "table": table}
    else:
        payload = {"order": 257, "add": table, "circ": table}
    code, out, err = run(capsys, [command, "--in", write(tmp_path, "z257.json", payload)])
    assert code == 2 and out == ""
    assert err == "error: table order 257 exceeds the bound of 256\n"


@pytest.mark.parametrize("values", [[0, 1], [0, 9, 2, 3], [0, True, 2, 3], ["0", 1, 2, 3]],
                         ids=["short", "out-of-range", "boolean", "string"])
@pytest.mark.parametrize("command", [["rb", "check"], ["rb", "brace"], ["system", "--kind", "rb"]],
                         ids=["rb-check", "rb-brace", "system-rb"])
def test_operator_map_that_is_not_a_self_map_exit_2(tmp_path, capsys, command, values):
    argv = command + ["--group", z4_file(tmp_path),
                      "--rb", write(tmp_path, "op.json", {"map": values})]
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == 'error: "map" must list 4 elements in 0..3\n'


def test_system_linear_dot(tmp_path, capsys):
    gpath = z4_file(tmp_path)
    lpath = write(tmp_path, "lam.json",
                  {"maps": [[0, 1, 2, 3], [0, 3, 2, 1], [0, 1, 2, 3], [0, 3, 2, 1]]})
    code, out, _ = run(capsys, ["--format", "dot", "system", "--kind", "linear",
                               "--group", gpath, "--lambda", lpath, "--depth", "1"])
    assert code == 0
    assert out.startswith("digraph brace_system {")
    assert "v0 -> v1;" in out


def test_no_report_carries_the_group_name(tmp_path, capsys):
    # a group's name reaches no report, so reports are the same under the old and the new name of D8
    group = group_to_json(groups.dihedral_group(4))
    assert group["name"] == "D8"
    paths = [write(tmp_path, f"{name}.json", {**group, "name": name}) for name in ("D8", "D4")]
    for argv in (["verify-group", "--in"], ["enumerate", "--in"], ["system", "--kind", "rooted", "--group"],
                 ["rb", "search", "--group"], ["construct", "--kind", "op", "--group"]):
        outs = []
        for path in paths:
            code, out, err = run(capsys, argv + [path])
            assert (code, err) == (0, ""), argv
            outs.append(out)
        assert "D8" not in outs[0] and "D4" not in outs[1], argv
        assert outs[0] == outs[1], argv


def test_system_rooted(tmp_path, capsys):
    code, out, _ = run(capsys, ["system", "--kind", "rooted", "--group", z4_file(tmp_path)])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "rooted"
    assert len(report["vertices"]) == 2  # trivial brace collapses onto the root


def test_system_rb(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    gpath = write(tmp_path, "s3.json", group_to_json(s3))
    rbpath = write(tmp_path, "inv.json", {"order": 6, "map": list(s3.inverse)})
    code, out, _ = run(capsys, ["system", "--kind", "rb", "--group", gpath,
                               "--rb", rbpath, "--k", "2"])
    assert code in (0, 1)  # non-consecutive pairs may legitimately fail
    report = json.loads(out)
    assert report["kind"] == "linear"


def test_dot_rejected_for_non_system(tmp_path, capsys):
    code, _, err = run(capsys, ["--format", "dot", "enumerate", "--in", z4_file(tmp_path)])
    assert code == 2
    assert "dot" in err


def test_dot_is_refused_before_the_command_runs(tmp_path, capsys, monkeypatch):
    def refuse(args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "_cmd_enumerate", refuse)
    monkeypatch.setattr(cli, "_cmd_verify_group", refuse)
    parser = cli.build_parser()     # binds the handlers above
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    for argv in (["enumerate", "--in", z4_file(tmp_path)],
                 ["verify-group", "--in", str(tmp_path / "nonexistent.json")]):
        code, out, err = run(capsys, ["--format", "dot"] + argv)
        assert code == 2 and out == ""
        assert err == "error: dot output is only available for system graphs\n"


def test_structure_command(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    path = write(tmp_path, "brace.json", brace_to_json(op_brace(s3)))
    code, out, _ = run(capsys, ["structure", "--in", path])
    assert code == 0
    report = json.loads(out)
    assert report["st"] == 2
    assert report["naturality"]["is_natural"] is True
    assert [0, 1, 2, 3, 4, 5] in report["ideals"]


def test_freegroup_verify_cyclic(capsys):
    code, out, _ = run(capsys, ["freegroup", "verify-cyclic", "--n", "4"])
    assert code == 0
    report = json.loads(out)
    assert report["kernel_rank"] == 13
    assert report["mismatch_count"] == 0


def test_freegroup_verify_t4(capsys):
    code, out, _ = run(capsys, ["freegroup", "verify-t4", "--n", "2", "--w", "x1"])
    assert code == 0
    assert json.loads(out)["shift"] == 2


def test_freegroup_check(capsys):
    code, out, _ = run(capsys, ["--samples", "100", "freegroup", "check",
                               "--rank", "2", "--theta", "cycle"])
    assert code == 0
    report = json.loads(out)
    assert report["failure_count"] == 0 and report["samples"] == 100


def test_freegroup_rewrite(capsys):
    code, out, _ = run(capsys, ["freegroup", "rewrite", "--rank", "2",
                               "--modulus", "2", "--w", "x1 x2"])
    assert code == 0
    assert json.loads(out)["generators"] == [["y_2", 1]]


def test_lattice_command(capsys):
    code, out, _ = run(capsys, ["--samples", "100", "lattice", "--p", "1", "--depth", "2"])
    assert code == 0
    assert json.loads(out)["failure_count"] == 0


@pytest.mark.parametrize("token", ["x1^", "x+1", "x01", "x1_0", "x-1", "x", "y1", "x1^2^3",
                                   "x1^1_0", "x1^ 2", "x1^--2", "x\u0661", "x1^0x2", "^2"])
@pytest.mark.parametrize("command", [["freegroup", "verify-t4", "--n", "2", "--w"],
                                     ["freegroup", "check", "--theta", "inner", "--inner-word"],
                                     ["freegroup", "rewrite", "--w"]],
                         ids=["verify-t4", "check-inner", "rewrite"])
def test_malformed_word_token_exit_2(capsys, command, token):
    code, out, err = run(capsys, command + [f"x2 {token}"])
    assert code == 2 and out == ""
    assert err == f"error: cannot parse word token {token.split()[0]!r}\n"


@pytest.mark.parametrize("text,word", [("x1^-2 x2", "x1^-2 x2"), ("x2^+3", "x2^3"),
                                       ("x1^1 x2^0", "x1"), ("x10", None)])
def test_well_formed_word_tokens(capsys, text, word):
    code, out, err = run(capsys, ["freegroup", "verify-t4", "--n", "2", "--w", text])
    if word is None:   # x10 parses and names a generator outside rank 2
        assert code == 2 and err == "error: generator x10 outside rank 2\n"
    else:
        assert code == 0 and json.loads(out)["w"] == word


def test_rewrite_length_bound_exit_2(capsys):
    bound = words.MAX_REWRITE_LENGTH
    half = bound // 2 - 1
    code, out, _ = run(capsys, ["freegroup", "rewrite", "--w", f"x2 x1^{half} x2^-1 x1^-{half}"])
    assert code == 0 and json.loads(out)["generators"] == [["z_{2,0}", 1], ["z_{2,%d}" % half, -1]]
    code, out, err = run(capsys, ["freegroup", "rewrite", "--w", "x2 x1^1000000000 x2^-1 x1^-1000000000"])
    assert code == 2 and out == ""
    assert err == f"error: word length 2000000002 exceeds the rewrite bound of {bound} letters\n"


def test_t4_window_bound_exit_2(capsys):
    bound = words.MAX_T4_WINDOW
    argv = ["freegroup", "verify-t4", "--n", "2", "--w", "x2", "--window"]
    code, out, _ = run(capsys, argv + [str(bound)])
    assert code == 0 and json.loads(out)["window"] == bound
    code, out, err = run(capsys, argv + [str(bound + 1)])
    assert code == 2 and out == ""
    assert err == f"error: window {bound + 1} exceeds the bound of {bound}\n"


def test_inner_word_bound_exit_2(capsys):
    bound = words.MAX_INNER_SYLLABLES
    argv = ["--samples", "5", "freegroup", "check", "--theta", "inner", "--rank", "3", "--inner-word"]
    code, out, _ = run(capsys, argv + [" ".join(["x1", "x2"] * (bound // 2))])
    assert code == 0 and json.loads(out)["failure_count"] == 0
    code, out, err = run(capsys, argv + [" ".join(["x1", "x2"] * (bound // 2)) + " x3"])
    assert code == 2 and out == ""
    assert err == f"error: inner word of {bound + 1} syllables exceeds the bound of {bound}\n"


def test_rb_tower_height_bound_exit_2(tmp_path, capsys):
    bound = systems.MAX_TOWER_HEIGHT
    s3 = groups.symmetric_group(3)
    argv = ["system", "--kind", "rb", "--group", write(tmp_path, "s3.json", group_to_json(s3)),
            "--rb", write(tmp_path, "inv.json", {"map": list(s3.inverse)}), "--k"]
    code, out, _ = run(capsys, argv + [str(bound)])
    assert code == 0 and json.loads(out)["kind"] == "linear"
    code, out, err = run(capsys, argv + [str(bound + 1)])
    assert code == 2 and out == ""
    assert err == f"error: tower height {bound + 1} exceeds the bound of {bound}\n"


@pytest.mark.parametrize("argv", [["freegroup", "check", "--rank", "2"],
                                  ["rb", "check", "--rb", "{free}"],
                                  ["rb", "free"],
                                  ["lattice", "--p", "1"]],
                         ids=["freegroup-check", "rb-check-free", "rb-free", "lattice"])
def test_samples_bound_exit_2_before_any_draw(tmp_path, capsys, monkeypatch, argv):
    def no_draws(self, seed):
        raise AssertionError("a sampler seeded its generator before the samples bound was checked")

    bound = config.MAX_SAMPLES
    free = write(tmp_path, "free.json", {"rank": 2, "images": ["x1", "x1"]})
    monkeypatch.setattr(rng.Lcg, "__init__", no_draws)
    code, out, err = run(capsys, ["--samples", str(bound + 1)] + [a.format(free=free) for a in argv])
    assert code == 2 and out == ""
    assert err == f"error: samples {bound + 1} exceeds the bound of {bound}\n"


def test_samples_bound_admits_the_bound():
    assert config.MAX_SAMPLES == 100_000
    assert config.SampleConfig(samples=100_000).samples == 100_000
    with pytest.raises(ValueError, match="samples 100001 exceeds the bound of 100000"):
        config.SampleConfig(samples=100_001)


def test_ideal_search_cap_exit_2(tmp_path, capsys):
    path = write(tmp_path, "z18.json", brace_to_json(trivial_brace(groups.cyclic_group(18))))
    code, out, err = run(capsys, ["structure", "--in", path])
    assert code == 2 and out == ""
    assert err == "error: ideal search capped at order 16\n"


def test_lattice_depth_cap_exit_2(capsys):
    code, out, _ = run(capsys, ["--samples", "20", "lattice", "--p", "1", "--depth", "8"])
    assert code == 0 and json.loads(out)["failure_count"] == 0
    code, out, err = run(capsys, ["--samples", "20", "lattice", "--p", "1", "--depth", "9"])
    assert code == 2 and out == ""
    assert err == "error: depth is capped at 8\n"


def test_max_order_caps_the_brace_automorphism_search(tmp_path, capsys):
    path = write(tmp_path, "z8.json", brace_to_json(trivial_brace(groups.cyclic_group(8))))
    code, out, _ = run(capsys, ["--max-order", "8", "structure", "--in", path])
    assert code == 0 and json.loads(out)["automorphism_count"] == 4
    code, out, err = run(capsys, ["--max-order", "7", "structure", "--in", path])
    assert code == 2 and out == ""
    assert err == "error: order 8 exceeds automorphism cap 7\n"


@pytest.mark.parametrize("argv,what", [
    (["construct", "--kind", "trivial"], "group file"),
    (["construct", "--kind", "from-lambda", "--group", "{z4}"], "lambda file"),
    (["construct", "--kind", "unification", "--group", "{z4}"], "unification file"),
    (["construct", "--kind", "opposite"], "brace file"),
    (["construct", "--kind", "exact-factorization", "--group", "{z4}", "--b", "0,2"], "--a elements"),
    (["construct", "--kind", "exact-factorization", "--group", "{z4}", "--a", "0,2"], "--b elements"),
    (["construct", "--kind", "exact-factorization", "--group", "{z4}"], "--a elements"),
    (["system", "--kind", "linear", "--group", "{z4}"], "lambda file"),
    (["system", "--kind", "union", "--group", "{z4}"], "lambda file"),
    (["system", "--kind", "union", "--group", "{z4}", "--lambda", "{lam}"], "lambda file"),
    (["system", "--kind", "rb", "--group", "{z4}"], "operator file"),
    (["rb", "check"], "operator file"),
    (["rb", "check", "--group", "{z4}"], "operator file"),
    (["rb", "brace", "--group", "{z4}"], "operator file"),
])
def test_missing_file_argument_exit_2(tmp_path, capsys, argv, what):
    paths = {"z4": z4_file(tmp_path),
             "lam": write(tmp_path, "lam.json", {"maps": [[0, 1, 2, 3]] * 4})}
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2 and out == ""
    assert err == f"error: no {what} given\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["freegroup", "check", "--rank", "0"], "rank must be at least 1"),
    (["freegroup", "check", "--rank", "0", "--theta", "identity"], "rank must be at least 1"),
    (["freegroup", "rewrite", "--modulus", "0"], "modulus must be at least 1"),
    (["freegroup", "rewrite", "--rank", "2", "--modulus", "-2", "--w", "x1^2"],
     "modulus must be at least 1"),
    (["--samples", "-5", "freegroup", "check", "--rank", "2"], "samples must not be negative"),
    (["--samples", "-5", "rb", "free"], "samples must not be negative"),
    (["lattice", "--p", "1", "--depth", "-1"], "depth must not be negative"),
    (["--samples", "-5", "lattice", "--p", "1"], "samples must not be negative"),
    (["--samples", "-5", "freegroup", "rewrite", "--rank", "2", "--w", "x1"],
     "samples must not be negative"),
    (["--samples", "1000000000", "freegroup", "verify-cyclic", "--n", "2"],
     "samples 1000000000 exceeds the bound of 100000"),
    (["--max-order", "0", "verify-group", "--in", "group.json"], "--max-order must be at least 1"),
    (["--max-order", "-3", "enumerate", "--in", "group.json"], "--max-order must be at least 1"),
    (["--max-order", "0", "structure", "--in", "brace.json"], "--max-order must be at least 1"),
    (["--max-order", "0", "rb", "search", "--group", "group.json"], "--max-order must be at least 1"),
    (["--max-order", "0", "freegroup", "verify-cyclic", "--n", "2"], "--max-order must be at least 1"),
    (["--samples", "0", "rb", "check", "--rb", "{rank0}"], "rank must be at least 1"),
    (["rb", "check", "--rb", "{rank0}"], "rank must be at least 1"),
    (["freegroup", "check", "--rank", "1001"], "rank 1001 exceeds the bound of 1000"),
])
def test_out_of_range_argument_exit_2(tmp_path, capsys, argv, message):
    rank0 = write(tmp_path, "rank0.json", {"rank": 0, "images": []})
    code, out, err = run(capsys, [arg.format(rank0=rank0) for arg in argv])
    assert code == 2 and out == ""
    assert err.startswith(f"error: {message}")


def test_exact_factorization_element_outside_the_group_exit_2(tmp_path, capsys):
    argv = ["construct", "--kind", "exact-factorization", "--group", z4_file(tmp_path)]
    for parts in (["--a", "0,4", "--b", "0,1"], ["--a", "0,2", "--b", "0,-1"]):
        code, out, err = run(capsys, argv + parts)
        assert code == 2 and out == ""
        assert err == "error: the parts must list elements in 0..3\n"


def test_rb_check(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    gpath = write(tmp_path, "s3.json", group_to_json(s3))
    rbpath = write(tmp_path, "inv.json", {"order": 6, "map": list(s3.inverse)})
    code, out, _ = run(capsys, ["rb", "check", "--group", gpath, "--rb", rbpath])
    assert code == 0
    assert json.loads(out)["is_rb"] is True


def test_rb_check_free(tmp_path, capsys):
    rbpath = write(tmp_path, "free.json", {"rank": 2, "images": ["x1", "x1"]})
    code, out, _ = run(capsys, ["--samples", "50", "rb", "check", "--rb", rbpath])
    assert code == 0
    assert json.loads(out)["failure_count"] == 0


def test_rb_search(tmp_path, capsys):
    s3 = groups.symmetric_group(3)
    gpath = write(tmp_path, "s3.json", group_to_json(s3))
    code, out, _ = run(capsys, ["rb", "search", "--group", gpath])
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 8 and report["scope"] == "self-maps"


def test_rb_free_report(capsys):
    code, out, _ = run(capsys, ["--samples", "60", "rb", "free", "--m", "1"])
    assert code == 0
    assert json.loads(out)["failure_count"] == 0


def test_emit_contract():
    from skewbrace.cli import emit

    assert emit({}) == "{}\n"
    assert emit({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_emit_streams_the_same_bytes_without_holding_them():
    import io
    import tracemalloc

    from skewbrace.cli import emit

    report = {"rows": [[i, {"k": [i] * 20, "s": "x" * (i % 7)}] for i in range(2000)]}
    expected = json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert_same_text(emit(report), expected)
    first, second = io.StringIO(), io.StringIO()
    assert len(emit(report, [first, second])) == len(expected)
    assert_same_text(first.getvalue(), expected)
    assert_same_text(second.getvalue(), expected)

    class Sink:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        emit(report, [Sink()])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(expected) // 4


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
                 | st.floats(allow_nan=True, allow_infinity=True) | st.text())
_INT_TABLES = st.lists(st.lists(st.integers(), max_size=5), max_size=5)   # empty and ragged rows too
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | _INT_TABLES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@given(_JSON_VALUES)
def test_emit_writes_what_json_dumps_writes(value):
    import io

    from skewbrace.cli import emit

    expected = json.dumps(value, indent=2, sort_keys=True) + "\n"
    assert_same_text(emit(value), expected)
    first, second = io.StringIO(), io.StringIO()
    assert len(emit(value, [first, second])) == len(expected)
    assert_same_text(first.getvalue(), expected)
    assert_same_text(second.getvalue(), expected)


def _rows_as_lists(value):
    """The value with each tuple of bytes rows turned into a list of int lists, for json.dumps."""
    if isinstance(value, dict):
        return {key: _rows_as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        if type(value) is tuple and value and all(type(row) is bytes for row in value):
            return [list(row) for row in value]
        return [_rows_as_lists(item) for item in value]
    return value


_BYTES_TABLES = st.lists(st.binary(max_size=6), max_size=5).map(tuple)   # the empty table and empty rows too
_MIXED_VALUES = st.recursive(
    _JSON_SCALARS | _INT_TABLES | _BYTES_TABLES,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=20)


def _bytes_table_at(depth):
    """Values with a bytes table ``depth`` containers below the top, beside other JSON values."""
    if depth == 0:
        return _BYTES_TABLES
    inner = _bytes_table_at(depth - 1)
    return (st.tuples(inner, st.lists(_MIXED_VALUES, max_size=2), st.integers(0, 2))
            .map(lambda t: t[1][:t[2]] + [t[0]] + t[1][t[2]:])
            | st.tuples(st.text(), inner, st.dictionaries(st.text(), _MIXED_VALUES, max_size=2))
            .map(lambda t: {**t[2], t[0]: t[1]}))


@given(st.integers(0, 3).flatmap(_bytes_table_at) | _MIXED_VALUES)
@example(())
@example((b"",))
@example((b"\x00\xff", b"", b"\xff\x00"))
@example({"a": [(b"\x00",), 1], "b": {"c": [[(b"\xff", b"\xff")]]}})
def test_emit_writes_bytes_tables_as_json_dumps_writes_their_lists(value):
    import io

    from skewbrace.cli import emit

    expected = json.dumps(_rows_as_lists(value), indent=2, sort_keys=True) + "\n"
    assert_same_text(emit(value), expected)
    first, second = io.StringIO(), io.StringIO()
    assert len(emit(value, [first, second])) == len(expected)
    assert_same_text(first.getvalue(), expected)
    assert_same_text(second.getvalue(), expected)


def test_emit_writes_each_distinct_row_once_per_report(monkeypatch):
    written = []
    missing = cli._RowTexts.__missing__

    def counted(texts, row):
        written.append(row)
        return missing(texts, row)

    monkeypatch.setattr(cli._RowTexts, "__missing__", counted)
    rows = [bytes((a + k) % 5 for k in range(5)) for a in range(5)]
    report = {"tables": [tuple(rows[(a + i) % 5] for a in range(5)) for i in range(7)]}
    expected = json.dumps(_rows_as_lists(report), indent=2, sort_keys=True) + "\n"
    for _ in range(2):   # a second report starts with no rows written
        written.clear()
        assert_same_text(cli.emit(report), expected)
        assert sorted(written) == sorted(rows)


def test_emit_streams_bytes_tables_without_holding_them():
    import io
    import tracemalloc

    from skewbrace.cli import emit

    # like a census report: the rows of circ tables over Z16 are the 128 maps x -> v + u x of Hol(Z16)
    pool = [bytes((v + u * x) % 16 for x in range(16)) for u in range(1, 16, 2) for v in range(16)]
    report = {"braces": [{"circ": tuple(pool[(i * 7 + a * (i % 5 + 1)) % 128] for a in range(16)), "i": i}
                         for i in range(600)]}
    expected = json.dumps(_rows_as_lists(report), indent=2, sort_keys=True) + "\n"
    assert_same_text(emit(report), expected)
    first, second = io.StringIO(), io.StringIO()
    assert len(emit(report, [first, second])) == len(expected)
    assert_same_text(first.getvalue(), expected)
    assert_same_text(second.getvalue(), expected)

    class Sink:
        def write(self, text):
            pass

    tracemalloc.start()
    try:
        emit(report, [Sink()])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(expected) // 4


def test_emit_batches_are_bounded_by_size():
    from skewbrace.cli import _BATCH, emit

    table = [[(a * b) % 23 for b in range(23)] for a in range(23)]
    report = {"tables": [table] * 40}
    one_table = len(json.dumps({"tables": [table]}, indent=2))   # a table's chunk, at its depth
    writes = []

    class Sink:
        def write(self, text):
            writes.append(len(text))

    emitted = emit(report, [Sink()])
    assert len(emitted) == sum(writes) == len(json.dumps(report, indent=2, sort_keys=True)) + 1
    assert len(writes) > 1
    assert max(writes) < _BATCH + one_table


def test_byte_identical_runs(tmp_path, capsys):
    argv = ["enumerate", "--in", z4_file(tmp_path)]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def run_process(argv, timeout=None):
    """The CLI run on ``argv`` in a child process that imports the package from where this one did."""
    import os
    import subprocess
    import sys

    import skewbrace

    package_root = os.path.dirname(os.path.dirname(skewbrace.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "skewbrace.cli", *argv], capture_output=True,
                          env=env, timeout=timeout)


def test_byte_identical_across_processes(tmp_path):
    argv = ["enumerate", "--in", z4_file(tmp_path)]
    first = run_process(argv)
    second = run_process(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout  # not empty


@pytest.mark.parametrize("rank,flags,most", [(4, [], 625), (5, ["--max-order", "32"], 312)])
def test_enumerate_over_the_holomorph_cap_exits_2_before_listing_aut(tmp_path, rank, flags, most):
    # |Aut(Z2^5)| is 9,999,360: the automorphism search must stop at the cap, not list them all
    group = groups.cyclic_group(2)
    for _ in range(rank - 1):
        group = groups.direct_product(group, groups.cyclic_group(2))
    path = write(tmp_path, "elementary.json", group_to_json(group))
    done = run_process(flags + ["enumerate", "--in", path], timeout=60)
    assert done.returncode == 2 and done.stdout == b""
    assert done.stderr.decode() == (
        f"error: holomorph order exceeds cap 10000: Aut(G) has more than {most} automorphisms\n")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, ["--out", str(target), "enumerate",
                               "--in", z4_file(tmp_path)])
    assert code == 0
    assert target.read_text() == out


def test_out_path_that_cannot_be_opened_exit_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "report.json"
    code, out, err = run(capsys, ["--out", str(target), "enumerate", "--in", z4_file(tmp_path)])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "report.json" in err


# --- files whose top level is not a JSON object -----------------------------------


NOT_OBJECTS = [([1, 2], "an array"), (5, "a number"), ("x", "a string"), (None, "null")]

GROUP_COMMANDS = {
    "verify-group": lambda g, t: ["verify-group", "--in", g],
    "enumerate": lambda g, t: ["enumerate", "--in", g],
    "construct": lambda g, t: ["construct", "--kind", "trivial", "--group", g],
    "system": lambda g, t: ["system", "--kind", "linear", "--group", g,
                            "--lambda", write(t, "lam.json", {"maps": [[0, 1], [0, 1]]})],
    "rb": lambda g, t: ["rb", "search", "--group", g],
}


@pytest.mark.parametrize("payload,kind", NOT_OBJECTS)
@pytest.mark.parametrize("command", sorted(GROUP_COMMANDS))
def test_group_file_that_is_not_an_object_exit_2(tmp_path, capsys, command, payload, kind):
    argv = GROUP_COMMANDS[command](write(tmp_path, "g.json", payload), tmp_path)
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert err == f"error: the group file must be a JSON object, not {kind}\n"


@pytest.mark.parametrize("argv,what", [
    (["verify-brace", "--in", "{bad}"], "brace file"),
    (["classify", "--in", "{bad}"], "brace file"),
    (["structure", "--in", "{bad}"], "brace file"),
    (["construct", "--kind", "opposite", "--in", "{bad}"], "brace file"),
    (["construct", "--kind", "from-lambda", "--group", "{z4}", "--lambda", "{bad}"], "lambda file"),
    (["construct", "--kind", "unification", "--group", "{z4}", "--unification", "{bad}"],
     "unification file"),
    (["system", "--kind", "linear", "--group", "{z4}", "--lambda", "{bad}"], "lambda file"),
    (["rb", "check", "--rb", "{bad}"], "operator file"),
])
def test_other_file_that_is_not_an_object_exit_2(tmp_path, capsys, argv, what):
    paths = {"bad": write(tmp_path, "bad.json", [1, 2]), "z4": z4_file(tmp_path)}
    code, out, err = run(capsys, [arg.format(**paths) for arg in argv])
    assert code == 2 and out == ""
    assert err == f"error: the {what} must be a JSON object, not an array\n"


def test_group_from_json_rejects_a_top_level_array():
    with pytest.raises(ValueError, match="must be a JSON object, not an array"):
        groups.group_from_json("[1, 2]")


# --- the parser ----------------------------------------------------------------------


def test_parser_built_once_per_process(capsys, monkeypatch):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run(capsys, ["freegroup", "verify-cyclic", "--n", "2"])[0] == 0
        assert run(capsys, ["--samples", "3", "lattice", "--p", "1", "--depth", "0"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert builds == [1]


def test_back_to_back_calls_do_not_leak_arguments(tmp_path, capsys):
    target = tmp_path / "first.json"
    code, first, _ = run(capsys, ["--seed", "7", "--samples", "5", "--out", str(target),
                                  "lattice", "--p", "2", "--depth", "1"])
    assert code == 0
    code, second, _ = run(capsys, ["freegroup", "check", "--rank", "3"])
    assert code == 0
    assert target.read_text() == first   # the second call wrote no --out file
    first, second = json.loads(first), json.loads(second)
    assert first["config"] == {"seed": 7, "samples": 5, "max_order": 24}
    assert (first["command"], first["p"], first["depth"]) == ("lattice", 2, 1)
    assert second["config"] == {"seed": 0, "samples": 500, "max_order": 24}
    assert (second["command"], second["rank"], second["seed"]) == ("freegroup", 3, 0)
    assert "p" not in second and "depth" not in second
    code, third, _ = run(capsys, ["lattice", "--p", "1"])
    assert code == 0
    third = json.loads(third)
    assert third["config"]["seed"] == 0
    assert (third["p"], third["depth"], third["samples"]) == (1, 3, 500)


# --- each fact computed once per job ------------------------------------------------


def count_calls(monkeypatch, fn):
    """Record the calls of fn under every name the library binds it to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for module in (groups, braces, structure, rota, cli):
        for key, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, key, counted)
    return calls


def test_structure_closes_one_ideal_per_element(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "brace.json", brace_to_json(op_brace(groups.dihedral_group(4))))
    subgroups = count_calls(monkeypatch, structure.all_subgroups)
    closures = count_calls(monkeypatch, structure._ideal_closure)
    code, _, _ = run(capsys, ["structure", "--in", path])
    assert code == 0
    assert subgroups == []
    assert sorted(seed for _, seed in closures) == list(range(1, 8))


def test_structure_verifies_only_the_tables_of_its_file(tmp_path, capsys, monkeypatch):
    # the quotient by Ker lambda, taken for naturality, is built from lambda, not checked again
    s3 = groups.symmetric_group(3)
    a3 = groups.derived_subgroup(s3)
    brace = braces.construct_exact_factorization(s3, a3, (0, 1))   # 1 is a transposition
    path = write(tmp_path, "brace.json", brace_to_json(brace))
    calls = count_calls(monkeypatch, groups.verify_group)
    code, out, _ = run(capsys, ["structure", "--in", path])
    assert code == 0
    assert json.loads(out)["naturality"] == {"is_natural": False, "quotient_natural": True}
    assert len(calls) == 2


def test_generator_group_file_is_not_verified_as_a_table(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "s3.json", {"name": "S3", "degree": 3, "generators": ["(1 2)", "(1 2 3)"]})
    calls = count_calls(monkeypatch, groups.verify_group)
    code, out, _ = run(capsys, ["verify-group", "--in", path])
    assert code == 0 and json.loads(out)["order"] == 6
    assert calls == []


@pytest.mark.parametrize("command", ["classify", "verify-brace"])
def test_brace_tables_verified_once(tmp_path, capsys, monkeypatch, command):
    path = write(tmp_path, "brace.json", brace_to_json(op_brace(groups.symmetric_group(3))))
    calls = count_calls(monkeypatch, groups.verify_group)
    code, _, _ = run(capsys, [command, "--in", path])
    assert code == 0
    assert len(calls) == 2  # the additive and the multiplicative table


def test_rb_search_builds_each_brace_once(tmp_path, capsys, monkeypatch):
    # one brace per Aut(G)-orbit under B -> psi B psi^-1: the calls are the orbit leaders, in order
    d4 = groups.dihedral_group(4)
    path = write(tmp_path, "d4.json", group_to_json(d4))
    calls = count_calls(monkeypatch, rota.rb_brace)
    code, out, _ = run(capsys, ["rb", "search", "--group", path])
    assert code == 0
    operators = [tuple(op["map"]) for op in json.loads(out)["operators"]]
    assert len(operators) > 1
    auts = tuples(groups.automorphism_group(d4))
    leaders = [b for b in operators
               if b == min(compose_by_index(psi, compose_by_index(b, invert_by_index(psi)))
                           for psi in auts)]
    built = [tuple(args[1]) for args in calls]
    assert built == leaders
    assert len(set(built)) == len(built) < len(operators)


def test_rb_search_above_the_self_map_order_runs_one_backtrack(tmp_path, capsys, monkeypatch):
    # Aut(G) is read off the endomorphisms the search lists, not searched for again
    path = write(tmp_path, "q8.json", group_to_json(groups.dicyclic_group(2)))
    _, expected, _ = run(capsys, ["rb", "search", "--group", path])
    calls = count_calls(monkeypatch, groups._homomorphisms)
    code, out, _ = run(capsys, ["rb", "search", "--group", path])
    assert code == 0
    assert out == expected
    assert json.loads(out)["count"] > 1
    assert [args[2] for args in calls] == [False]     # the one endomorphism search


RB_ORACLE_GROUPS = [g for g in groups.small_group_catalog(12) if g.order >= 6] + [
    groups.direct_product(groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2)),
                          groups.cyclic_group(2), name="Z4xZ2xZ2"),
    groups.dicyclic_group(4),
]


@pytest.mark.parametrize("group", RB_ORACLE_GROUPS, ids=case_key)
def test_rb_search_rows_match_the_search_that_checks_every_operator(tmp_path, capsys, group):
    path = write(tmp_path, "group.json", group_to_json(group))
    code, out, _ = run(capsys, ["rb", "search", "--group", path])
    assert code == 0
    assert json.loads(out)["operators"] == rb_search_rows_by_operator(group)


def test_rb_search_computes_the_center_once(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "d4.json", group_to_json(groups.dihedral_group(4)))
    center = groups.FiniteGroup.center
    computed = []

    def counted(group):
        if group._center is None:
            computed.append(group.order)
        return center.fget(group)

    monkeypatch.setattr(groups.FiniteGroup, "center", property(counted))
    code, out, _ = run(capsys, ["rb", "search", "--group", path])
    assert code == 0
    assert json.loads(out)["count"] > 1
    assert computed == [8]


def test_rb_brace_classifies_once(tmp_path, capsys, monkeypatch):
    s3 = groups.symmetric_group(3)
    gpath = write(tmp_path, "s3.json", group_to_json(s3))
    rbpath = write(tmp_path, "inv.json", {"order": 6, "map": list(s3.inverse)})
    calls = count_calls(monkeypatch, braces.left_law_witness)
    code, out, _ = run(capsys, ["rb", "brace", "--group", gpath, "--rb", rbpath])
    assert code == 0
    report = json.loads(out)
    assert report["symmetric"] == report["brace"]["classify"]["symmetric"]
    circ = tuple(map(bytes, report["brace"]["circ"]))
    assert circ != s3.table
    symmetry_scans = [args for args in calls if args[0].table == circ]  # left_law_witness(circ, add)
    assert len(symmetry_scans) == 1
