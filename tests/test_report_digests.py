"""The sampler reports, pinned byte for byte.

Each entry is the SHA-256 of the standard output of one sampled command at
a fixed seed, as printed by the word kernel that fully reduced every product
and the lattice kernel that built a matrix power for every product. A faster
kernel must give the same bytes: the same checks and the same counts. Those
reports list no words, since every check passes, so one operator that is not
Rota-Baxter pins the sampled words themselves through its failure list.
"""

import hashlib
import json

import pytest

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
]


@pytest.mark.parametrize("argv,digest", REPORT_SHA256, ids=[" ".join(a) for a, _ in REPORT_SHA256])
def test_sampler_report_bytes_are_pinned(capsys, argv, digest):
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
