"""Every command that reads a file, fed arbitrary and mutated files in-process.

Whatever the file holds, a command ends in exit 0 or 1 with a JSON report,
or in exit 2 with one ``error: ...`` line: never an uncaught exception.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import group_to_json
from skewbrace import braces, groups
from skewbrace.braces import brace_to_json, op_brace, trivial_brace
from skewbrace.cli import main

Z4 = groups.cyclic_group(4)
Z4_INVERSION = braces.construct_from_lambda(
    Z4, [tuple(range(4)) if a % 2 == 0 else Z4.inverse for a in range(4)], "homomorphic")

GROUP_FILES = [
    group_to_json(groups.cyclic_group(2)),
    group_to_json(groups.cyclic_group(3)),
    group_to_json(Z4),
    {"name": "V", "order": 4, "table": [[1, 0, 3, 2], [0, 1, 2, 3], [3, 2, 1, 0], [2, 3, 0, 1]]},
    {"name": "V", "degree": 4, "generators": ["(1 2)(3 4)", "(1 3)(2 4)"]},
]
BRACE_FILES = [
    brace_to_json(trivial_brace(Z4)),
    brace_to_json(Z4_INVERSION),
    brace_to_json(op_brace(groups.symmetric_group(3))),
]
LAMBDA_FILES = [{"maps": [list(m) for m in Z4_INVERSION.lam.maps]}]
UNIFICATION_FILES = [{"f": [0, 0, 0, 0], "alpha": [[0] * 4 for _ in range(4)], "epsilon": 1}]
OPERATOR_FILES = [{"order": 4, "map": [0, 3, 2, 1]}, {"rank": 2, "images": ["x1", "x1"]}]

# every command that reads a file, as (slot it reads, argv); the other slots get valid Z4 files
COMMANDS = [
    ("group", ["verify-group", "--in", "{group}"]),
    ("group", ["enumerate", "--in", "{group}"]),
    ("group", ["construct", "--kind", "trivial", "--group", "{group}"]),
    ("group", ["construct", "--kind", "op", "--group", "{group}"]),
    ("group", ["construct", "--kind", "exact-factorization", "--group", "{group}",
               "--a", "0,2", "--b", "0,1"]),
    ("group", ["system", "--kind", "rooted", "--group", "{group}"]),
    ("group", ["rb", "search", "--group", "{group}"]),
    ("brace", ["verify-brace", "--in", "{brace}"]),
    ("brace", ["classify", "--in", "{brace}"]),
    ("brace", ["structure", "--in", "{brace}"]),
    ("brace", ["construct", "--kind", "opposite", "--in", "{brace}"]),
    ("lambda", ["construct", "--kind", "from-lambda", "--group", "{group}",
                "--lambda", "{lambda}"]),
    ("lambda", ["system", "--kind", "linear", "--group", "{group}", "--lambda", "{lambda}"]),
    ("lambda", ["system", "--kind", "union", "--group", "{group}", "--lambda", "{lambda}",
                "--lambda2", "{lambda}"]),
    ("unification", ["construct", "--kind", "unification", "--group", "{group}",
                     "--unification", "{unification}"]),
    ("operator", ["rb", "check", "--group", "{group}", "--rb", "{operator}"]),
    ("operator", ["--samples", "20", "rb", "check", "--rb", "{operator}"]),
    ("operator", ["rb", "brace", "--group", "{group}", "--rb", "{operator}"]),
    ("operator", ["system", "--kind", "rb", "--group", "{group}", "--rb", "{operator}"]),
]
VALID = {"group": GROUP_FILES[2], "brace": BRACE_FILES[1], "lambda": LAMBDA_FILES[0],
         "unification": UNIFICATION_FILES[0], "operator": OPERATOR_FILES[0]}
BASES = {"group": GROUP_FILES, "brace": BRACE_FILES, "lambda": LAMBDA_FILES,
         "unification": UNIFICATION_FILES, "operator": OPERATOR_FILES}
IDS = ["-".join(arg for arg in argv if arg[0] not in "-{0123456789") for _, argv in COMMANDS]
FIELDS = sorted({key for files in BASES.values() for payload in files for key in payload})

# small integers: the entries that matter are labels of a table of order at most 6
scalars = (st.none() | st.booleans() | st.integers(-8, 8) | st.floats(allow_nan=False)
           | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=3), inner,
                                     max_size=4)),
    max_leaves=20)


@st.composite
def mutated(draw, payload):
    """``payload`` with one node replaced, dropped or grown, or a wrong "order" declared.

    The node is reached from the top by picking a field and then, mostly,
    list items down to a leaf, so a single entry of a table row is the usual
    target; a row or a whole field is hit too.
    """
    payload = json.loads(json.dumps(payload))
    if draw(st.integers(0, 4)) == 0:
        payload["order"] = draw(st.integers(-1, 9) | st.booleans() | st.text(max_size=2))
        return payload
    parent, key = payload, draw(st.sampled_from(sorted(payload)))
    while isinstance(parent[key], list) and parent[key] and draw(st.integers(0, 3)):
        parent, key = parent[key], draw(st.integers(0, len(parent[key]) - 1))
    node = parent[key]
    action = draw(st.sampled_from(["replace", "drop", "grow"]))
    if action == "drop":
        del parent[key]
    elif action == "grow" and isinstance(node, list):
        node.append(draw(scalars | st.just(node[-1] if node else 0)))
    else:
        parent[key] = draw(st.integers(-3, 9) | st.booleans() | scalars | json_values)
    return payload


def run_argv(argv) -> tuple:
    """(exit code, stdout, stderr) of main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_main(valid_paths, argv, slot, payload) -> tuple:
    """main(argv) with ``payload`` as the file of ``slot`` and a valid file in every other slot."""
    fuzzed = valid_paths["dir"] / "fuzzed.json"
    fuzzed.write_text(json.dumps(payload))
    paths = {**valid_paths, slot: fuzzed}
    return run_argv([arg.format(**paths) for arg in argv])


def check_outcome(code, out, err):
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    else:
        json.loads(out)


@pytest.fixture(scope="module")
def valid_paths(tmp_path_factory):
    directory = tmp_path_factory.mktemp("loader_fuzz")
    paths = {"dir": directory}
    for slot, payload in VALID.items():
        paths[slot] = directory / f"{slot}.json"
        paths[slot].write_text(json.dumps(payload))
    return paths


@pytest.mark.parametrize("slot,argv", COMMANDS, ids=IDS)
@settings(max_examples=15)
@given(data=st.data())
def test_mutated_files_exit_cleanly(valid_paths, slot, argv, data):
    payload = data.draw(mutated(data.draw(st.sampled_from(BASES[slot]))))
    check_outcome(*run_main(valid_paths, argv, slot, payload))


@pytest.mark.parametrize("slot,argv", COMMANDS, ids=IDS)
@settings(max_examples=5)
@given(payload=json_values)
def test_arbitrary_json_files_exit_cleanly(valid_paths, slot, argv, payload):
    check_outcome(*run_main(valid_paths, argv, slot, payload))


# Word text on the command line: valid tokens x<i>[^<e>], malformed ones, generators
# outside rank 2 and exponents up to 10^12, which no command may expand letter by letter.

WORD_COMMANDS = [
    ["freegroup", "verify-t4", "--w"],
    ["freegroup", "rewrite", "--w"],
    ["--samples", "20", "freegroup", "check", "--theta", "inner", "--inner-word"],
]
exponents = st.integers(-3, 3) | st.integers(-10**12, 10**12)
valid_tokens = st.builds("x{}{}".format, st.integers(1, 2), st.just("") | exponents.map("^{}".format))
bad_tokens = (st.sampled_from(["x01", "x+1", "x1^", "x1^^2", "y2"])
              | st.builds("x{}".format, st.integers(3, 10**12)))
# at most one bad token, so that most texts get past the parser
word_texts = st.builds(lambda valid, bad: " ".join(valid + bad),
                       st.lists(valid_tokens, max_size=5), st.lists(bad_tokens, max_size=1))


@pytest.mark.parametrize("argv", WORD_COMMANDS, ids=["verify-t4", "rewrite", "check-inner"])
@given(text=word_texts)
def test_word_text_exits_cleanly(argv, text):
    check_outcome(*run_argv(argv + [text]))


# Files on which the brace readers once disagreed: a raw circ table that is not a group
# reached a relabeling before any check, and "verify-group" skipped the declared order.

PINNED = [
    ("brace", {"add": [[0, 1], [1, 0]], "circ": [[0, 1], [1]]}, "not_square', witness=(2,)"),
    ("brace", {"add": [[0, 1], [1, 0]], "circ": [[0, 1], [1, 5]]},
     "entry_out_of_range', witness=(1, 1)"),
    ("brace", {"add": [list(r) for r in groups.cyclic_group(3).table],
               "circ": [[0, 1, 2], [1, 2, -3], [2, -3, 1]]},
     "entry_out_of_range', witness=(1, 2)"),
    ("group", {"order": 5, "table": [[0, 1], [1, 0]]}, "not_square', witness=(5,)"),
    ("group", {"degree": 3, "generators": ["(1 2)", "(1 2 3)"], "order": 5},
     "not_square', witness=(5,)"),
]


@pytest.mark.parametrize("argv,slot,payload,violation", [
    pytest.param(argv, slot, payload, violation, id=f"{name}-{violation.split(chr(39))[0]}"
                 + ("-generators" if "generators" in payload else ""))
    for slot, payload, violation in PINNED
    for (_, argv), name in zip(COMMANDS, IDS) if "{" + slot + "}" in argv])
def test_pinned_non_groups_exit_2_naming_the_violation(valid_paths, argv, slot, payload,
                                                       violation):
    code, out, err = run_main(valid_paths, argv, slot, payload)
    assert (code, out) == (2, "")
    assert err.startswith("error: not a group: (Violation(code='") and violation in err
