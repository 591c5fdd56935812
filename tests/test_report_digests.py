"""The sampler and table-command reports, pinned byte for byte.

Each sampler entry is the SHA-256 of the standard output of one sampled command at
a fixed seed, as printed by the word kernel that fully reduced every product
and the lattice kernel that built a matrix power for every product. A faster
kernel must give the same bytes: the same checks and the same counts. Those
reports list no words, since every check passes, so one operator that is not
Rota-Baxter pins the sampled words themselves through its failure list.
"""

import hashlib
import json

import pytest

from oracles import group_to_json
from skewbrace import groups
from skewbrace.braces import brace_to_json, construct_from_lambda, enumerate_circ_ops
from skewbrace.cli import main

REPORT_SHA256 = [
    (("--seed", "11", "freegroup", "check", "--rank", "3", "--theta", "cycle"),
     "ef28bf5a1d50807620dfdfcc11e1eb0225c72028fc2084f0f2476ccbfb50815e"),
    (("--seed", "11", "freegroup", "check", "--rank", "2", "--theta", "identity"),
     "f201687cff5396d93e19713897678f31eaa13be421d9a6dfe84b7af9bfc93ffe"),
    (("--seed", "11", "freegroup", "check", "--rank", "3", "--theta", "inner", "--inner-word", "x2 x1^-2 x3"),
     "ef28bf5a1d50807620dfdfcc11e1eb0225c72028fc2084f0f2476ccbfb50815e"),
    (("--seed", "11", "rb", "free", "--m", "0"),
     "30a2fcc334720da29b41ab3f5b5d55235b61be06fd2785ba59ce7ea78c2abfc0"),
    (("--seed", "11", "rb", "free", "--m", "1"),
     "6a836ccf9497af4a03c1814ab841c205515f6306948ff7867f172410130258bc"),
    (("--seed", "11", "rb", "free", "--m", "2"),
     "3c224b8d24ce44014d3665b2c09d2f83cd6746bebdfcbad4d380efa18323288e"),
    (("--seed", "11", "lattice", "--p", "1"),
     "8f90ca1929efcf61357c39d03711b7729ab8e442ae8463ae01a84eda2e8015a0"),
    (("--seed", "11", "lattice", "--p", "2"),
     "35d44a0aa255afc6350ec47ec6620d0617d927ffbd8e8d49521e0be123d75d35"),
    (("--seed", "11", "lattice", "--p", "-1"),
     "fea43c9b4beeca032c44053464eb189121d4d37d801dc386d7b1d86983d87056"),
    (("--seed", "90210", "freegroup", "check", "--rank", "3", "--theta", "cycle"),
     "fabc1b816c6d1a9a6f50a48c408a87028d1e96afc23de78194b8590640842a21"),
    (("--seed", "90210", "freegroup", "check", "--rank", "2", "--theta", "identity"),
     "b7f92a3bdecabdd5f97f6ee2ea52f437a3582232390c85de74cf674eddec236d"),
    (("--seed", "90210", "freegroup", "check", "--rank", "3", "--theta", "inner", "--inner-word", "x2 x1^-2 x3"),
     "fabc1b816c6d1a9a6f50a48c408a87028d1e96afc23de78194b8590640842a21"),
    (("--seed", "90210", "rb", "free", "--m", "0"),
     "64bf64df15313383ed59a2b4a0b991d6ab144860933c8326bbd484e2e00ad5c4"),
    (("--seed", "90210", "rb", "free", "--m", "1"),
     "9a419a9007216de55ec76dd62eb23d60b93cb50898e34d43cf56f7deccff6502"),
    (("--seed", "90210", "rb", "free", "--m", "2"),
     "f8f408b09d5c4baedadc1269bb82ec23e9ab9ab3ce3c81dcee06f1b7af73edbc"),
    (("--seed", "90210", "lattice", "--p", "1"),
     "8ad045cb1ab0a964b1536d1e3dcb89876b12b0187b557cf14fa448e39b446703"),
    (("--seed", "90210", "lattice", "--p", "2"),
     "7751bd70d4db2c772af37dc5c7ec55c3254b5cdbf0b47abfa3829016ba9cc934"),
    (("--seed", "90210", "lattice", "--p", "-1"),
     "3dc103474df7b96ae29048d40315d43788260b0481b5a6acadd4b47f198424d5"),
    # the lattice beyond depth 3: depth 0 has no compatibility pairs, the closed-form
    # recursion stops after level 4, and depth 8 is the cap
    (("--seed", "11", "lattice", "--p", "1", "--depth", "0"),
     "d0f432b17cbb00077bf5661ce5aae396451b8b25885960a7fd4729592dbdde69"),
    (("--seed", "11", "lattice", "--p", "1", "--depth", "5"),
     "32161d0e9020366f2ea6a7de799aa5d393fb20c8c11bc0fdd3e428e0e0db5dbc"),
    (("--seed", "11", "lattice", "--p", "1", "--depth", "8"),
     "94d23fc0dd255d594207fd79f0a6b69f3a7244b340823efd3606e92740c8804c"),
    (("--seed", "11", "lattice", "--p", "-3", "--depth", "8"),
     "f3a8b2c9db566c3ca09860c5608f91772479ef1c72ae08ef896ce1736145dea3"),
    (("--seed", "90210", "lattice", "--p", "1", "--depth", "0"),
     "5910c91c3d0bb922dc447e0979ec98ee5dbae66b42c73de2aa63ab4f7545f178"),
    (("--seed", "90210", "lattice", "--p", "1", "--depth", "5"),
     "eab1fb470d60cfca51105894ccd776565bbe3b535f14acd8c01150aaca9958c6"),
    (("--seed", "90210", "lattice", "--p", "1", "--depth", "8"),
     "52b91859489c6c2dcb44f474448986e9422aa6c8a1f3b28bef113a711e91a56d"),
    (("--seed", "90210", "lattice", "--p", "-3", "--depth", "8"),
     "0b7ba8a30839b5cadb93be29e3a78a3952e9358064891099410e3a3aaa3513c6"),
]


@pytest.mark.parametrize("argv,digest", REPORT_SHA256, ids=[" ".join(a) for a, _ in REPORT_SHA256])
def test_sampler_report_bytes_are_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# The exact word verifications, pinned as printed by the kernel whose
# automorphisms built a new object for every power: the coset-rewriting checks
# for n = 2..6, the index-shift check for a word of exponent sum 1 and one of
# exponent sum -2, and one Schreier rewriting modulo 3.
WORD_REPORT_SHA256 = [
    (("freegroup", "verify-cyclic", "--n", "2"),
     "5a60dcb407b0daa74215334064b5cd1e78b891e388e79acd5adf151d6359d30f"),
    (("freegroup", "verify-cyclic", "--n", "3"),
     "8800315004921439d5286d747d51eb060e944d496fa6f8d56f81d51b88d6a0ac"),
    (("freegroup", "verify-cyclic", "--n", "4"),
     "d6f5e275206046a44f1c661548784ed1adbfabf23a3e18317e818ecf24fe3508"),
    (("freegroup", "verify-cyclic", "--n", "5"),
     "9ecb07cf4fc477189a2e49d17acf612a68aa67735e7b519b0810ddc01b3bafd6"),
    (("freegroup", "verify-cyclic", "--n", "6"),
     "761127fbc326ec45ecc177227830aec7d0edd860df0647eb0112676bafca9e5a"),
    (("freegroup", "verify-t4", "--n", "2", "--w", "x1 x2 x1^-1"),
     "bf28e9b3262a1b868c8f77692116a233d5701e594ade86bdc8440bed57a31e2d"),
    (("freegroup", "verify-t4", "--n", "3", "--w", "x2^-1 x3 x1^-2"),
     "b15693b5a73e931eeb0587a394b2428f121977a9db771d1d911833eb793a0d98"),
    (("freegroup", "rewrite", "--rank", "3", "--modulus", "3", "--w", "x2 x1^2 x3^-1 x1"),
     "fffb2d28c0a979ef20dab62f3ae5c814068c3140805810266660e66715b03110"),
]


@pytest.mark.parametrize("argv,digest", WORD_REPORT_SHA256, ids=[" ".join(a) for a, _ in WORD_REPORT_SHA256])
def test_word_report_bytes_are_pinned(capsys, argv, digest):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


NOT_ROTA_BAXTER_SHA256 = {
    "11": "224d18336f127a409912e19215796ec7752f9f86c63e582832c3b035f12db0ef",
    "90210": "bcd28a9ca05ab16de66dc935d7d04973bce41e3ce40fe94452c7593b4035ba80",
}


@pytest.mark.parametrize("seed", sorted(NOT_ROTA_BAXTER_SHA256))
def test_failing_operator_report_bytes_are_pinned(tmp_path, capsys, seed):
    path = tmp_path / "op.json"
    path.write_text(json.dumps({"rank": 2, "images": ["x2", "x1 x2"]}))
    assert main(["--seed", seed, "--samples", "40", "rb", "check", "--rb", str(path)]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["failure_count"] == 27
    assert hashlib.sha256(out.encode()).hexdigest() == NOT_ROTA_BAXTER_SHA256[seed]


# The table commands, pinned the same way: the reports of the brace
# constructor that rebuilt and rechecked lambda per brace and of the
# stdlib's indented JSON encoder. A brace is named by its group and its index
# in enumerate_circ_ops; the braces chosen cover the homomorphic,
# anti-homomorphic, natural and neither classes. The two braces of order 16
# run the largest automorphism searches of the table commands. The entries
# after the first verify-brace pair were pinned on the tables of int tuples,
# before they became bytes rows; the "shuffled" files have their identity at
# label 5, and the linear system is the one _linear_files writes. The four
# enumerate reports of order 16 at the end, the order-16 groups of the
# enumerate benchmark, were pinned on the emitter that wrote every table
# entry as an int, before tables were written from their bytes rows. The
# rooted systems of D8, Q8 and A4 (20, 28 and 42 vertices), the other report
# built from enumerate_circ_ops, were pinned on the enumeration that built and
# checked every labeled brace, before it checked one per Aut(G)-orbit. The
# rb search reports after D8's (512 operators on Z2xZ2xZ2, and Q8, A4, Dic12
# and Z12) were pinned on the search that built and checked the brace of every
# operator, before it checked one per Aut(G)-orbit.

TABLE_GROUPS = {
    "Z2xZ2xZ2": lambda: groups.direct_product(
        groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(2)),
        groups.cyclic_group(2), name="Z2xZ2xZ2"),
    "D8": lambda: groups.dihedral_group(4),
    "Q8": lambda: groups.dicyclic_group(2),
    "A4": lambda: groups.alternating_group(4),
    "Dic12": lambda: groups.dicyclic_group(3),
    "Z12": lambda: groups.cyclic_group(12),
    "S3": lambda: groups.symmetric_group(3),
    "D16": lambda: groups.dihedral_group(8),
    "Z4xZ2xZ2": lambda: groups.direct_product(
        groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2)),
        groups.cyclic_group(2), name="Z4xZ2xZ2"),
    "Z8": lambda: groups.cyclic_group(8),
    "Z4xZ4": lambda: groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(4)),
    "Z16": lambda: groups.cyclic_group(16),
    "Z8xZ2": lambda: groups.direct_product(groups.cyclic_group(8), groups.cyclic_group(2)),
    "Q16": lambda: groups.dicyclic_group(4),
}

# Moves the identity of an order-8 table to label 5, so that the reports of
# verify-brace and classify show how the raw labels are read and normalized.
SHUFFLE_8 = (5, 3, 0, 7, 1, 6, 2, 4)


def _homomorphic_z4xz2xz2():
    """lambda_a = phi^j for a = (i, j, k) in Z4xZ2xZ2, where phi(i, j, k) = (i, j, k + i).

    a -> j is a homomorphism onto Z2 and b^-1 phi(b) = (0, 0, i) lies in its
    kernel, so this is a homomorphic brace; it avoids enumerating the 3152
    labeled braces of the group.
    """
    group = TABLE_GROUPS["Z4xZ2xZ2"]()
    phi = tuple(x ^ ((x >> 2) & 1) for x in range(16))   # x = 4i + 2j + k
    lam = [phi if a & 2 else tuple(range(16)) for a in range(16)]
    return construct_from_lambda(group, lam, "homomorphic")


def _group_file(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(group_to_json(TABLE_GROUPS[name]())))
    return str(path)


def _brace_file(tmp_path, name, index):
    if index == "homomorphic":
        brace = _homomorphic_z4xz2xz2()
    else:
        brace = enumerate_circ_ops(TABLE_GROUPS[name]())[index]
    path = tmp_path / f"{name}-{index}.json"
    path.write_text(json.dumps(brace_to_json(brace)))
    return str(path)


def _law_breaking_file(tmp_path):
    """The additive table of D8 with the table of Z4xZ2 as circ: the left law fails."""
    z4xz2 = groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2))
    path = tmp_path / "d8-z4xz2.json"
    path.write_text(json.dumps({
        "order": 8,
        "add": [list(r) for r in TABLE_GROUPS["D8"]().table],
        "circ": [list(r) for r in z4xz2.table],
    }))
    return str(path)


def _shuffled(table):
    """The table relabeled along SHUFFLE_8, as int lists."""
    out = [[0] * 8 for _ in range(8)]
    for a in range(8):
        for b in range(8):
            out[SHUFFLE_8[a]][SHUFFLE_8[b]] = SHUFFLE_8[table[a][b]]
    return out


def _shuffled_file(tmp_path, name, index):
    """A brace file with its identity at label 5; index "law-breaking" is _law_breaking_file's pair."""
    if index == "law-breaking":
        add = TABLE_GROUPS["D8"]().table
        circ = groups.direct_product(groups.cyclic_group(4), groups.cyclic_group(2)).table
    else:
        brace = enumerate_circ_ops(TABLE_GROUPS[name]())[index]
        add, circ = brace.add.table, brace.circ.table
    path = tmp_path / f"{name}-{index}-shuffled.json"
    path.write_text(json.dumps({"order": 8, "add": _shuffled(add), "circ": _shuffled(circ)}))
    return str(path)


def _linear_files(tmp_path, name):
    """A group file of Z4xZ4 and lambda_(x,y)(u, v) = (u, v + x u), a linear-system input."""
    group = TABLE_GROUPS[name]()
    maps = [[(b // 4) * 4 + (b % 4 + (a // 4) * (b // 4)) % 4 for b in range(16)]
            for a in range(16)]
    lam = tmp_path / f"{name}-lambda.json"
    lam.write_text(json.dumps({"maps": maps}))
    return _group_file(tmp_path, name), str(lam)


TABLE_REPORT_SHA256 = [
    (("enumerate", "Z2xZ2xZ2"), 0,
     "ddfd76b5a6630c5ecec56acfc0cc28f36befac1bcabe4a2829a342f2e3f04b78"),
    (("enumerate", "D8"), 0,
     "3ec10b17abbc7c7c4454de3fb110d142feceaab90ecc2cf2aa48f3240eab5ae3"),
    (("enumerate", "Q8"), 0,
     "fad5e34742137e2216e42217a88d88e22d161c61491f261ca1b1434a9a99b598"),
    (("enumerate", "A4"), 0,
     "003f63915401fca3fd9b65fd9f63dc6fc0a352a6eb3bb13e163d02ff6ddf0b82"),
    (("enumerate", "Dic12"), 0,
     "215e45981e96e67db4542e85ab1d93a18804ae8cab511f7da798c8a6ed7b180d"),
    (("classify", "D8", 14), 0,
     "ed56c064e769fc5601234297454bc6a2d2be357754f5d968962784efd5109066"),
    (("classify", "D8", 17), 0,
     "552ea1f0c00c00b449b7ff676237b40420ba0db5effb99e0ea5f7e710e413fca"),
    (("classify", "Q8", 1), 0,
     "018e2c54b39469d921997f9360fc2d9747e6a2bab87b9ed24a5022e0a014d95a"),
    (("classify", "A4", 4), 0,
     "093b8939abe69720a7bfc713d5d36f02804ef6d9ace27d0c2030ef656d952dbc"),
    (("classify", "Dic12", 20), 0,
     "855bd4210e61b90198f59e8d90e7affb725f877e82f004eb9de47a2b950bcf49"),
    (("classify", "Z12", 5), 0,
     "00c5de46d79fc061324500656740a690436d6fadc7a22e8fb3220d16d9077096"),
    (("structure", "D8", 14), 0,
     "5fc853a498aa964416be2b92e12737bd6e61f209ea3de4b558d7e3ec01ee8f6a"),
    (("structure", "Q8", 19), 0,
     "2a0f08823a576b2607e423bf6c2456afe7be531db5a8509613df85c91bc07855"),
    (("structure", "A4", 4), 0,
     "38efbe00f8ab4b0c84db38090a2b58ce88c268b76510a236cda6db29a7ddd98d"),
    (("structure", "Dic12", 21), 0,
     "5deba1eff18b9ea4485b835d58df40fd7ea2518e9c07fbf2680ee2c14895d62a"),
    (("structure", "Z12", 2), 0,
     "e72f56faaa0cfae144e898bfb28934c96510312f8745c88b4b833425629fdec6"),
    (("structure", "D16", 150), 0,
     "271cb14f91b993761b1217a1e01aff05b7b68938ba9953188159cc03ad2e0737"),
    (("structure", "Z4xZ2xZ2", "homomorphic"), 0,
     "095fd680d2d107d0a2bfeed7d61f3961cba7579e3b510e8802bb2635d63697e6"),
    (("verify-brace", "D8", 14), 0,
     "316afd98ea82c45a02df3025576d240b25d8e3aeedfbeb1b33127b97a80d2f29"),
    (("verify-brace", "law-breaking"), 1,
     "26bdfb213a7e992c40444338ba50b101a1ff915937013e27d31f04b098ea73d5"),
    (("enumerate", "Z8"), 0,
     "c849760a25012b805699e74057fb43dd3ebad25ec08b097d613634159cb65e3b"),
    (("structure", "Z8", 3), 0,
     "c8c7f92a023f5f00822cf727f9564fcacc69cb0df0850c6018aa75e3100c8448"),
    (("verify-brace", "D8", 14, "shuffled"), 0,
     "316afd98ea82c45a02df3025576d240b25d8e3aeedfbeb1b33127b97a80d2f29"),
    (("verify-brace", "D8", "law-breaking", "shuffled"), 1,
     "b947722ccaf4d8f9fb977c1eaf20deef797e3db915e653eb51ddfb9fa9008d6d"),
    (("classify", "Q8", 19, "shuffled"), 0,
     "552ea1f0c00c00b449b7ff676237b40420ba0db5effb99e0ea5f7e710e413fca"),
    (("system", "linear", "Z4xZ4"), 0,
     "031edf4249cce238700cbbb819e6ddea065fefec62104da88317fa9e3461c36a"),
    (("rb", "search", "S3"), 0,
     "578156d588b9d10072637365027e2c1ad94b210d888b800ef373c27c925b5d22"),
    (("rb", "search", "D8"), 0,
     "8b303f443e5902e40cd8495381d630c7337e9a3aedb86969badeb76e53531bda"),
    (("rb", "search", "Z2xZ2xZ2"), 0,
     "ccf3e63aae99ff44c569e273e00e00fb2c557f4fda36901c1f49dea7168b11ed"),
    (("rb", "search", "Q8"), 0,
     "38c9fed3c7fcaabe9cd28bc2b1bdd7bd5ace2af173ba341061c0f620d0a48fca"),
    (("rb", "search", "A4"), 0,
     "6513b32cf4195f6b6d0be2f6ce57de236d4f2cefe479c45ec41e16fa0e5a0209"),
    (("rb", "search", "Dic12"), 0,
     "f5b631da48d60898e8e14b818d6e50240841fc717f810c90212eca0118ebb5b9"),
    (("rb", "search", "Z12"), 0,
     "9aada93807af32f5185808512a95a75e91de08631c3e1b0078becdc7ce70d721"),
    (("enumerate", "Z16"), 0,
     "a6e5dfb903cb990fcf6b88850739f9655947dea705f0c63a6083a424842d7fc6"),
    (("enumerate", "Z8xZ2"), 0,
     "c9eb65832238a10cc0a86941eb3b8c41d07701c5ba77b395e4267cbc0e6efa13"),
    (("enumerate", "D16"), 0,
     "e72a70d3c22cc94d2c8f1e0b9075cac664a2c7e1f613c442945a53b1ba691319"),
    (("enumerate", "Q16"), 0,
     "727e11b621c415ea613c51fe131f635bcb43c5d33468dcf007f3c9ac7358e1ea"),
    (("system", "rooted", "D8"), 0,
     "eeab746603c1c736aff64b55dffd58a89ce76242c68fd7c77d5a991d82dacd2f"),
    (("system", "rooted", "Q8"), 0,
     "2d0c7fd6db5ec5bad872a525c96c4c27271e9873de6512662581b9c53a77be68"),
    (("system", "rooted", "A4"), 0,
     "b57f5ad07de23ba6f09d3219133bd17490ed3d71f44d7f0963c3923ffc9ab4b0"),
]


def _table_argv(tmp_path, case):
    if case[0] == "enumerate":
        return ["enumerate", "--in", _group_file(tmp_path, case[1])]
    if case[0] == "rb":
        return ["rb", "search", "--group", _group_file(tmp_path, case[2])]
    if case[:2] == ("system", "rooted"):
        return ["system", "--kind", "rooted", "--group", _group_file(tmp_path, case[2])]
    if case[0] == "system":
        group, lam = _linear_files(tmp_path, case[2])
        return ["system", "--kind", "linear", "--group", group, "--lambda", lam]
    if case[-1] == "shuffled":
        return [case[0], "--in", _shuffled_file(tmp_path, case[1], case[2])]
    if case[1] == "law-breaking":
        return [case[0], "--in", _law_breaking_file(tmp_path)]
    return [case[0], "--in", _brace_file(tmp_path, case[1], case[2])]


@pytest.mark.parametrize("case,code,digest", TABLE_REPORT_SHA256,
                         ids=[" ".join(map(str, c)) for c, _, _ in TABLE_REPORT_SHA256])
def test_table_report_bytes_are_pinned(tmp_path, capsys, case, code, digest):
    assert main(_table_argv(tmp_path, case)) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rb_search_under_a_max_order_below_the_group_keeps_its_bytes(tmp_path, capsys):
    # a table file is not capped by --max-order, and the self-map search of S3 takes no cap
    argv = ["--max-order", "4", "rb", "search", "--group", _group_file(tmp_path, "S3")]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["count"] == 8
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9972ea28adb01227f687f9aeedbab75eb11c128b67ce2e7f70d8570cea12538b")
