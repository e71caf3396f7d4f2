import argparse
import contextlib
import dataclasses
import errno
import hashlib
import io
import json
import os
import random
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modsym
from modsym import enumeration, identities, stirling, symfun
from modsym import cli
from modsym.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# sha256 of stdout for a fixed set of invocations, in sha256sum's
# "digest  arguments" form.  Output bytes are part of the CLI contract, so a
# change here must be deliberate.
_PINNED_STDOUT = [line.split("  ", 1) for line in """\
78bdf686f3e70035de9d6da679c440d20bbc812f31416ef7bd828c6f78381259  table --family stirling2 --s 1 --n-max 40 --format text
145e1357cd0ad3022f39dbab1ec98977fc75a95c90098bbf8a7542d0a3165b1c  table --family stirling2 --s 1 --n-max 40 --format csv
e22a6d647d8e3596f6af877ad96fd7cc76131a33b96ea60e9d4115615000e6fa  table --family stirling2 --s 1 --n-max 40 --format json
78bdf686f3e70035de9d6da679c440d20bbc812f31416ef7bd828c6f78381259  table --family stirling2 --s 3 --n-max 40 --format text
145e1357cd0ad3022f39dbab1ec98977fc75a95c90098bbf8a7542d0a3165b1c  table --family stirling2 --s 3 --n-max 40 --format csv
e22a6d647d8e3596f6af877ad96fd7cc76131a33b96ea60e9d4115615000e6fa  table --family stirling2 --s 3 --n-max 40 --format json
05176bd4c4e313bfc3e8c1b374a927dcfcfe188fa2d8120a3af68d13102435e7  table --family stirling1 --s 1 --n-max 40 --format text
fda507147fad27f48b38c6bd400d62b0ae88b074b49af8c7330a4ba37637cee2  table --family stirling1 --s 1 --n-max 40 --format csv
f44892d84ea8f909b7d19b3b12c7c667075095691e5c0e04c982f2103dca78fe  table --family stirling1 --s 1 --n-max 40 --format json
05176bd4c4e313bfc3e8c1b374a927dcfcfe188fa2d8120a3af68d13102435e7  table --family stirling1 --s 3 --n-max 40 --format text
fda507147fad27f48b38c6bd400d62b0ae88b074b49af8c7330a4ba37637cee2  table --family stirling1 --s 3 --n-max 40 --format csv
f44892d84ea8f909b7d19b3b12c7c667075095691e5c0e04c982f2103dca78fe  table --family stirling1 --s 3 --n-max 40 --format json
78bdf686f3e70035de9d6da679c440d20bbc812f31416ef7bd828c6f78381259  table --family stirling2mod --s 1 --n-max 40 --format text
145e1357cd0ad3022f39dbab1ec98977fc75a95c90098bbf8a7542d0a3165b1c  table --family stirling2mod --s 1 --n-max 40 --format csv
59ac0b17396d55f97675d218dd31167f4f55593550c2bf79952ef6d8b636ee5d  table --family stirling2mod --s 1 --n-max 40 --format json
878680ae8d6c90e17118a7dc938382763fd108211609baf03684779b9cadeb4a  table --family stirling2mod --s 3 --n-max 40 --format text
5b42cc087b3ce8828a7db781e7f64508d6ff03ce47cc1b2c4ae3dd160284948f  table --family stirling2mod --s 3 --n-max 40 --format csv
0ad7f0afee518c42e22816f50f3efbb2faf93b3879da1e275312f303e91053e1  table --family stirling2mod --s 3 --n-max 40 --format json
05176bd4c4e313bfc3e8c1b374a927dcfcfe188fa2d8120a3af68d13102435e7  table --family stirling1mod --s 1 --n-max 40 --format text
fda507147fad27f48b38c6bd400d62b0ae88b074b49af8c7330a4ba37637cee2  table --family stirling1mod --s 1 --n-max 40 --format csv
be8cd81cc07e9c078a080922573b1d5aa87d006b0b569c2a3611271c4a890cae  table --family stirling1mod --s 1 --n-max 40 --format json
11c6cc51e483b8f5f00a12f9e36eac275de47a31bc1ecbba2c4f68ec39e88228  table --family stirling1mod --s 3 --n-max 40 --format text
754b351edcfd133c8f741078128a3722db512f34987a344995654743bfa0a7e2  table --family stirling1mod --s 3 --n-max 40 --format csv
6d6c28bf57e362314a169ec30c17e63b621b19444e940d96f819a860ae9e1dc8  table --family stirling1mod --s 3 --n-max 40 --format json
05176bd4c4e313bfc3e8c1b374a927dcfcfe188fa2d8120a3af68d13102435e7  table --family stirling1higher --s 1 --n-max 40 --format text
fda507147fad27f48b38c6bd400d62b0ae88b074b49af8c7330a4ba37637cee2  table --family stirling1higher --s 1 --n-max 40 --format csv
4b27c84bbc321555323897c36998fef9752c09a3eeb9b678a5940e87b7ac2e7e  table --family stirling1higher --s 1 --n-max 40 --format json
99f4a4ab9c0d0d19d372306e3f70092cd22837cac95899a6b070fa8daeed807c  table --family stirling1higher --s 3 --n-max 40 --format text
c1f7674baa9a7e7d599c27b7d44a9a3175fdf297d7aa53351512655014fad1ac  table --family stirling1higher --s 3 --n-max 40 --format csv
8a0f454bf77c5fa927875a9ac3563e6b74a4bb89bec3325ea5a9fc843b334cd9  table --family stirling1higher --s 3 --n-max 40 --format json
626a78d27152f4ee33c00ffa8f0d118f7c7c3a00e6c58c667ae1da6cc0a28ef7  verify --id all --profile quick
b6234046b3ac61e7c849960bc8c42091bfc8b68fe05a3b8c0f0297865a07e969  verify --seed-check
00d7100fe3e840c75832c6cce4d1b55c5c1546f503907c69cfde84687c24e374  eval --function M --s 2 --k 7 --vars 1,2,3,4,5
4ed73a6045555987462f7ce359ddf1d14912a61c1ca7a78a6c978afb4b3a9b04  eval --function E --s 3 --k 5 --vars 2,3,5,7 --format json
0e77cf34e21a843f5b1c40634b2766cb294f0c4ea903e58477ca85ed9ff5aa05  eval --function M --s 2 --k 5 --vars symbolic:3
3d7e58f4668ffc3057f94187d16087b088135840f4ee416c29c53b3cf7b791a9  eval --function Ml --s 3 --ell 2 --k 4 --vars symbolic:3 --format json
6b0104f6f9293c02814fa031578a3ee9a47d00b0b40a097201a2f1267ec2c3cc  eval --function h --k 3 --vars symbolic:3
d58839c0651d33f483a477fe7450aa1a19d61c2ae3c374dd5d6e4da11c4112a5  eval --function E --s 2 --k 4 --vars symbolic:3
db1b1c692576f746b7a7df42d83bff7a63ae17e1bc6f868032d2ad91aae98aff  eval --function e --k 2 --vars symbolic:4 --format json
6256d166405ca873c586d0c76e9528fa23a172c82f07096e8899a50aacf2bbfb  enumerate --family partitions-mod --n 6 --k 3 --s 2
df4f8216e4f1634b61095f461a6ec3e78be99820f28b4f8ae75f577a12799667  enumerate --family paths --n 3 --k 5 --s 2 --format json
23daffea3ef626217ce3b85b944b060ea2b2827897d45b3e70a8094cc72c6f93  enumerate --family perms --n 5 --k 2
8a8e66291f6fdfeeee6770da6a96d45c92c67c7d9d59d11d31ad04c0043254f9  enumerate --family nested-tuples --n 3 --k 3 --s 2 --format json
b2528670a4e22e497f59e359d2ad188dfcc64c951a355d9d590240c543b8953f  enumerate --family partitions-bounded --board 6 --blocks 3 --s 2
ccbe156b4c4f2deb84d4dfaf9be62f3c1d15bf9de58d237a7fc5f342b2bb8d8a  enumerate --family partitions-mod --n 6 --k 3 --s 2 --format json
9520872d446a4727c9d8aeb04f2768e1f51e642643ea263984f1f65462076162  enumerate --family paths --n 3 --k 5 --s 2
51398ad7b383633a9510cb137ce80d667c4262f8e6c01d53d5fec928184abcd8  enumerate --family tilings --n 3 --k 5 --s 2
c89682498bb8e13191f9013db886ed47148be1d25e455ab1a8df2c372782e0f7  enumerate --family tilings --n 3 --k 5 --s 2 --format json
b347fc8ff029d2e490fbd991e897fc0f8c16dd2e1c4952b8a8401bf048e0eeff  enumerate --family partitions --n 6 --k 3
2706bd3256e3acb7962da4c11607d022786f314b794df1908b6b5c056c85a651  enumerate --family partitions --n 6 --k 3 --format json
ba2ab36479730e9255689639ba5d090138f446fcb2eacd6636cf2590b363d6fc  enumerate --family perms --n 5 --k 2 --format json
f53390db8f0bd581eb1c5d209f861c178ec6db77b8418bcb28e336fe00f3c3c4  enumerate --family nested-tuples --n 3 --k 3 --s 2
fdcc1ff491926e8195a0243821017b6b7429d046a56950173b92c9fd0fb02b6a  enumerate --family partitions-bounded --board 6 --blocks 3 --s 2 --format json
cf5410fc44df3ceffa6c42f5664db1db44d6c7abae8c5b6e2011bd2867ee0e0a  table --family stirling2mod --s 2 --n-max 40 --format text
89066cbc7ad6e980b1760012b4115cd9de96bca4682f2c291a3517488fec1fe0  table --family stirling2mod --s 2 --n-max 40 --format csv
0c0a9cec16a19d049e09b081452debba63de7f3673ceb9acc14364f63a1783c5  table --family stirling2mod --s 2 --n-max 40 --format json
a27ef95a351f487c9c3518e4befc6cb91f38683497a1c54335704fadb2ccba4b  table --family stirling2mod --s 4 --n-max 40 --format text
a3de45c7e77bc2a565be5d2aeb1265a58667020f875d2d43fae37281269117bd  table --family stirling2mod --s 4 --n-max 40 --format csv
86d0e7d07a2fab3a7b8e92fa84fcceb6667428763dc6b2e5437afd275d10155c  table --family stirling2mod --s 4 --n-max 40 --format json
53c90cbd2e9a8b24baf191c4195c631340359d5381686778e5208b9c119f0818  table --family stirling1mod --s 2 --n-max 40 --format text
4b240830db5256fa3eee94521ffee3930eb2ddacf9c9d7de7e0cbd4d6ea2089d  table --family stirling1mod --s 2 --n-max 40 --format csv
0f0c84304a97c9ce7adc16303e4dd33ba63cf15c6df99d99d24ff35807143d0a  table --family stirling1mod --s 2 --n-max 40 --format json
ac1405d63be4dc267756dd2140348493cd29e89c5b3b92d7fb8f4ee16c71fd9f  table --family stirling1mod --s 4 --n-max 40 --format text
0f7f45b9df933dfc6746a6d601b573c4d763a63b1bda05e9153b3700e29de992  table --family stirling1mod --s 4 --n-max 40 --format csv
f046a8306d02f9c0ae4a96ecac4cb81bb8b73175e9df2e11f2c668021ec80b7c  table --family stirling1mod --s 4 --n-max 40 --format json
4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865  table --family stirling1mod --s 1 --n-max 0
9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa  table --family stirling1mod --s 2 --n-max 0
0e125ed931cc63efa172a764fc0578ef820a4ed9805e8c2c2ccbeb96d138fb2f  table --family stirling1higher --s 2 --n-max 40 --format text
0554184dfb3df55ddd3570f0f47ba7d21846d8966eed01f55eea724f2afa7844  table --family stirling1higher --s 2 --n-max 40 --format csv
2da8d2fcade6f1e49b0d1568300ed59305bfa1769c0cc72c46cf25593072dcb0  table --family stirling1higher --s 2 --n-max 40 --format json
75c224657fb1c0bac862a0c9e85991e05349ee9cef384ae3a6f5e2b6a618871d  table --family stirling1higher --s 4 --n-max 40 --format text
415e9de7ce498945e5f81b59a81f264cf662951a6a7c3bbcb60a27e5a3ed71c6  table --family stirling1higher --s 4 --n-max 40 --format csv
fa11c1ed0bc29b227013435509de7e68f142e4f2c5d0f1b6515fcf531cf7ce97  table --family stirling1higher --s 4 --n-max 40 --format json
4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865  table --family stirling1 --s 1 --n-max 0
4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865  table --family stirling1higher --s 2 --n-max 0
d176345b1432aacdf232077058c9a4bd9a65cb1b6b0c3cf1d8b4cfe075a91c1d  eval --function M --s 2 --k 6 --vars=-3,2,5,-1 
ad84104931e4d414aff9d0bd80fa0b48cf438266c49cf1d9818fce0bee5af133  eval --function M --s 2 --k 6 --vars=-3,2,5,-1 --format json 
4cb12f027f2651a12ee280a05525b55fe77bb49a9ed7c600982c50b266225f69  eval --function M --s 3 --k 0 --vars 5,7 --format json 
654ee9da442fa353f59f11beb688fc7f76c8de62a6c18b2a181fdde2a27cc3ef  eval --function E --s 2 --k 5 --vars=4,-2,3 
3edd18de1bfed49d9eb2cfd5c049ba1a3e7d6e1f9339b5de0ba540cd67d68329  eval --function E --s 2 --k 5 --vars=4,-2,3 --format json 
9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa  eval --function E --s 2 --k 7 --vars=4,-2,3 
b8d7ce91ebea1dd8908421367701e869556c052d14bf279c0b9a39c3a94a4f7d  eval --function E --s 3 --k 0 --vars=-6 --format json 
0093d664d2f8d814430a87f7d9103784f9998cf58b3646efc3c6a10321858e5c  eval --function e --k 3 --vars=-6,9,2,-1,5 
1165d1e8f7c9ee9d39430d4974ede21e5ef333d4c31548823ef135a8007a66b7  eval --function e --k 3 --vars=-6,9,2,-1,5 --format json 
48d18a707c490435730d7050f034cfa4897fc8aba3c5d6dcaa2fcaa6b420b9a1  eval --function e --k 4 --vars 1,2,3 --format json 
4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865  eval --function e --k 0 --vars 8,9 
527a8f1aa47e18e867d53a3253fd2e1bd6da8fffe3624841c301178ce95bd786  eval --function h --k 5 --vars=-2,7,3 
d473ee991abb58dc2c7d073e28b8dfe6b6e9471e6fdcbdaf083a2158acd3b67b  eval --function h --k 5 --vars=-2,7,3 --format json 
d857749ea5d8f4721c6ae5e1566dc8f8a29209bd436687429d7dd77f8fe9f389  eval --function h --k 0 --vars=-4 --format json 
9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa  eval --function Ml --s 3 --ell 2 --k 7 --vars=2,-1,3 
19bf937695f642a3c6a5ebe68b43fcd22c3887f25873fa6cf284f9d84f639756  eval --function Ml --s 3 --ell 2 --k 8 --vars=2,-1,3 
38d371477d68c746ed6931c609541a914b7fb525a1714d8f7bac2fca42f5215b  eval --function Ml --s 3 --ell 2 --k 8 --vars=2,-1,3 --format json 
5e7e6e6ef5ae452f1c90dffb1e1b425a97ec1d7035a0a5aeed6592cf4df62be3  eval --function Ml --s 3 --ell 0 --k 8 --vars=2,-1,3 
294b7f0653080828b377e0a39a3428955e06ea444b6be31f0726f39b9688ad12  eval --function Ml --s 3 --ell 0 --k 8 --vars=2,-1,3 --format json 
59d3cc380e09f30e5493dfcf34903d2cf49862e86ce49ec704c3b4125aa38e95  eval --function Ml --s 5 --ell 3 --k 9 --vars=-5,4,1,-2 
4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865  eval --function Ml --s 2 --ell 1 --k 0 --vars 6 
""".splitlines()]


class TestTable:
    def test_stirling2mod_row5(self, capsys):
        code, out = run_cli(
            capsys, "table", "--family", "stirling2mod", "--s", "2", "--n-max", "5"
        )
        assert code == 0
        rows = [line.split() for line in out.splitlines()]
        assert rows[5][2] == "9"

    def test_stirling1mod_collapses_to_classical(self, capsys):
        code, out = run_cli(
            capsys, "table", "--family", "stirling1mod", "--s", "1", "--n-max", "4"
        )
        assert code == 0
        assert out.splitlines()[4] == "0 6 11 6 1"

    def test_single_row(self, capsys):
        code, out = run_cli(capsys, "table", "--family", "stirling2", "--n-max", "0")
        assert code == 0
        assert out == "1\n"

    def test_csv_round_trips(self, capsys, tmp_path):
        from modsym.stirling import triangle_csv, triangle_from_csv

        code, out = run_cli(
            capsys,
            "table", "--family", "stirling1higher", "--s", "2",
            "--n-max", "6", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,k,value"
        assert triangle_csv(triangle_from_csv(out)) == out

    def test_json_schema(self, capsys):
        code, out = run_cli(
            capsys,
            "table", "--family", "stirling2", "--n-max", "3", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj == {
            "family": "stirling2",
            "s": None,
            "rows": [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]],
        }

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "t.csv"
        code, _ = run_cli(
            capsys,
            "table", "--family", "stirling2", "--n-max", "2",
            "--format", "csv", "--output", str(dest),
        )
        assert code == 0
        assert dest.read_text().splitlines()[0] == "n,k,value"

    def test_bad_family_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "nosuch", "--n-max", "3"])
        assert exc.value.code == 2

    def test_bad_s_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["table", "--family", "stirling2mod", "--s", "0", "--n-max", "3"])
        assert exc.value.code == 2


class TestEval:
    def test_modular_at_point(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--function", "M", "--s", "2", "--k", "3",
            "--vars", "1,2,3",
        )
        assert code == 0 and out == "42\n"

    def test_modular_symbolic(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--function", "M", "--s", "2", "--k", "3",
            "--vars", "symbolic:3",
        )
        assert code == 0 and out == "x1^3 + x1*x2*x3 + x2^3 + x3^3\n"

    def test_symbolic_thousand_variables(self, capsys):
        code = main(["eval", "--function", "M", "--k", "1", "--vars", "symbolic:1000"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == " + ".join(f"x{i}" for i in range(1, 1001)) + "\n"

    def test_bounded_elementary(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--function", "E", "--s", "3", "--k", "3",
            "--vars", "1,2",
        )
        assert code == 0 and out == "15\n"

    def test_lmodular_requires_ell(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--function", "Ml", "--s", "3", "--k", "2", "--vars", "1,2"])
        assert exc.value.code == 2

    def test_lmodular_json(self, capsys):
        code, out = run_cli(
            capsys, "eval", "--function", "Ml", "--s", "3", "--ell", "2",
            "--k", "2", "--vars", "symbolic:2", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["function"] == "Ml" and obj["ell"] == 2
        assert obj["polynomial"] == [
            {"coeff": "1", "exps": [2]},
            {"coeff": "1", "exps": [0, 2]},
        ]

    def test_bad_vars_exit_2(self, capsys):
        for bad in ("1,two,3", "symbolic:x"):
            with pytest.raises(SystemExit) as exc:
                main(["eval", "--function", "h", "--k", "2", "--vars", bad])
            assert exc.value.code == 2

    def test_point_matches_the_evaluated_polynomial(self, capsys):
        # a point reads the generating rules; the reference builds the
        # polynomial and evaluates it there
        rng = random.Random(18)
        cases = [("e", 1, None), ("h", 1, None)] + [
            case
            for s in range(1, 5)
            for case in [("M", s, None), ("E", s, None)]
            + [("Ml", s, ell) for ell in range(s + 1)]
        ]
        builders = {
            "M": lambda n, k, s, ell: symfun.modular_sym(n, k, s),
            "E": lambda n, k, s, ell: symfun.bounded_elem_sym(n, k, s),
            "e": lambda n, k, s, ell: symfun.elem_sym(n, k),
            "h": lambda n, k, s, ell: symfun.comp_sym(n, k),
            "Ml": symfun.lmodular_sym,
        }
        for fn, s, ell in cases:
            for n in range(1, 6):
                for k in range(10):
                    point = [rng.randint(-6, 9) for _ in range(n)]
                    argv = ["eval", "--function", fn, "--s", str(s), "--k", str(k),
                            "--vars=" + ",".join(map(str, point))]
                    if ell is not None:
                        argv += ["--ell", str(ell)]
                    code, out = run_cli(capsys, *argv)
                    want = builders[fn](n, k, s, ell).evaluate(point)
                    assert code == 0 and out == f"{want}\n", argv

    def test_rules_build_no_polynomial(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a point built or evaluated a polynomial")

        for name in ("modular_sym", "bounded_elem_sym", "elem_sym", "comp_sym",
                     "lmodular_sym"):
            monkeypatch.setattr(symfun, name, refuse)
        monkeypatch.setattr(modsym.polycore.Polynomial, "evaluate", refuse)
        def ints(top):
            return ",".join(map(str, range(1, top + 1)))

        # e_15(1..30) = [31, 16] and h_16(1..12) = {28, 12}
        for argv, want in (
            (("e", "--k", "15", "--vars", ints(30)), stirling.stirling1(31, 16)),
            (("h", "--k", "16", "--vars", ints(12)), stirling.stirling2(28, 12)),
            (("M", "--s", "2", "--k", "30", "--vars", ints(10)), None),
            (("E", "--s", "4", "--k", "30", "--vars", ints(10)), None),
            (("Ml", "--s", "3", "--ell", "2", "--k", "40", "--vars", ints(3)), None),
        ):
            code, out = run_cli(capsys, "eval", "--function", *argv)
            assert code == 0 and int(out) > 0 and want in (None, int(out)), argv

    def test_answer_past_the_default_digit_limit(self, capsys):
        # X**3 has 4500 digits, past the interpreter's default of 4300 for
        # converting an int to text
        x = 10**1500 - 1
        nines = "9" * 1500
        code = main(["eval", "--function", "e", "--k", "3", "--vars", f"{nines},{nines},{nines}"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert captured.out == f"{x**3}\n"


class TestEnumerate:
    def test_partitions_mod_text(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "--family", "partitions-mod",
            "--n", "5", "--k", "2", "--s", "2",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "count: 9"
        assert set(lines[:-1]) == {
            "1234/5", "1345/2", "134/25", "135/24", "13/245",
            "145/23", "14/235", "15/234", "1/2345",
        }

    def test_partitions_bounded_text(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "--family", "partitions-bounded",
            "--board", "5", "--blocks", "3", "--s", "1",
        )
        assert code == 0
        assert out.splitlines()[-1] == "count: 11"

    def test_paths_json(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "--family", "paths",
            "--n", "3", "--k", "3", "--s", "2", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["count"] == 4
        assert obj["objects"][0] == {"steps": "HHHVV", "weight": "x1^3"}

    def test_nested_tuples(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "--family", "nested-tuples",
            "--n", "3", "--k", "4", "--s", "3",
        )
        assert code == 0
        assert out.splitlines()[-1] == "count: 15"

    def test_perms_json(self, capsys):
        code, out = run_cli(
            capsys, "enumerate", "--family", "perms",
            "--n", "3", "--k", "2", "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert [o["text"] for o in obj["objects"]] == [
            "(1)(2 3)", "(1 2)(3)", "(1 3)(2)"
        ]

    def test_infeasible_parameters_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--family", "partitions", "--n", "2", "--k", "5"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([
                "enumerate", "--family", "nested-tuples",
                "--n", "2", "--k", "-5", "--s", "1",
            ])
        assert exc.value.code == 2

    def test_missing_parameters_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--family", "paths", "--n", "3"])
        assert exc.value.code == 2

    # one object each, a thousand elements, steps or tuple entries deep
    @pytest.mark.parametrize("argv", [
        "partitions --n 1100 --k 1100",
        "partitions-mod --n 1100 --k 1100 --s 1",
        "partitions-bounded --board 1100 --blocks 1100 --s 0",
        "paths --n 1100 --k 0 --s 1",
        "tilings --n 1 --k 1100 --s 1",
        "nested-tuples --n 1 --k 1 --s 1100",
    ])
    def test_deep_one_object_family(self, capsys, argv):
        code = main(["enumerate", "--family", *argv.split()])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.endswith("count: 1\n")
        assert captured.err == ""

    # The CLI must call each generator through the module attribute at request
    # time: perfbench's tracer rebinds enumeration.gen_* to time the stream.
    @pytest.mark.parametrize("gen_name,argv", [
        ("gen_lattice_paths", "paths --n 3 --k 2 --s 1"),
        ("gen_tilings", "tilings --n 3 --k 2 --s 1"),
        ("gen_set_partitions", "partitions --n 4 --k 2"),
        ("gen_partitions_mod", "partitions-mod --n 4 --k 2 --s 1"),
        ("gen_partitions_bounded", "partitions-bounded --board 4 --blocks 2 --s 1"),
        ("gen_cycle_perms", "perms --n 3 --k 2"),
        ("gen_nested_tuples", "nested-tuples --n 2 --k 1 --s 2"),
    ])
    def test_generators_called_through_module(
        self, monkeypatch, capsys, gen_name, argv
    ):
        original = getattr(enumeration, gen_name)
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(enumeration, gen_name, counting)
        code, out = run_cli(capsys, "enumerate", "--family", *argv.split())
        assert code == 0
        assert len(calls) == 1
        assert out.splitlines()[-1] != "count: 0"


class TestVerify:
    def test_single_id(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--id", "ps1",
            "--n-max", "4", "--k-max", "8", "--s-max", "3",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["identity"] == "PS1"
        assert obj["fail"] == 0
        assert obj["range"] == {"n_max": 4, "k_max": 8, "s_max": 3}

    def test_all_quick(self, capsys):
        code, out = run_cli(capsys, "verify", "--id", "all", "--profile", "quick")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 26
        assert all(r["fail"] == 0 for r in reports)

    def test_unknown_id_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "nosuch"])
        assert exc.value.code == 2

    def test_seed_check(self, capsys):
        code, out = run_cli(capsys, "verify", "--seed-check")
        assert code == 0  # all perturbations failed somewhere, as they must
        reports = json.loads(out)
        assert len(reports) == 5
        assert all(r["fail"] >= 1 for r in reports)

    @pytest.mark.parametrize("extra, named", [
        (["--id", "REC3"], "--id"),
        (["--id", "all"], "--id"),
        (["--profile", "quick"], "--profile"),
        (["--id", "nosuch", "--n-max", "-1", "--profile", "full"],
         "--id, --profile, --n-max"),
        (["--p-list", "4"], "--p-list"),
        (["--board-max", "3"], "--board-max"),
    ] + [
        # every range field's flag, so that a field the CLI drops fails here
        ([flag, "4"], flag)
        for flag in (
            "--" + f.name.replace("_", "-") for f in dataclasses.fields(identities.Ranges)
        )
    ])
    def test_seed_check_refuses_the_grid_flags(self, capsys, tmp_path, extra, named):
        # the self-test runs fixed grids, so a flag it would ignore is refused
        # before --output is opened
        dest = tmp_path / "out.json"
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--seed-check", *extra, "--output", str(dest)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"modsym: error: --seed-check takes no {named}"
        assert not dest.exists()

    def test_byte_identical_repeats(self, capsys):
        _, first = run_cli(
            capsys, "verify", "--id", "omega", "--n-max", "5", "--s-max", "2"
        )
        _, second = run_cli(
            capsys, "verify", "--id", "omega", "--n-max", "5", "--s-max", "2"
        )
        assert first == second

    def test_fermat_p_list(self, capsys):
        code, out = run_cli(
            capsys, "verify", "--id", "fermat",
            "--n-max", "3", "--k-max", "5", "--p-list", "2,3,5",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["range"]["p_list"] == [2, 3, 5]


class TestOutputErrors:
    @pytest.mark.parametrize("argv", [
        ("table", "--family", "stirling2", "--n-max", "3"),
        ("eval", "--function", "h", "--k", "2", "--vars", "1,2"),
        ("enumerate", "--family", "perms", "--n", "3", "--k", "2"),
        ("verify", "--id", "omega"),
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("dest", ["missing-dir/out", "."], ids=["missing", "directory"])
    def test_unopenable_output_exits_2(self, capsys, tmp_path, argv, dest):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / dest)])
        assert exc.value.code == 2
        assert "modsym: error: cannot open --output" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("table", "--family", "stirling2", "--n-max", "300"),
        ("eval", "--function", "M", "--s", "2", "--k", "7", "--vars", "1,2,3"),
        ("verify", "--id", "s2mod_rec", "--profile", "full"),
        ("verify", "--id", "all"),
        ("verify", "--seed-check"),
    ], ids=["table", "eval", "verify-one", "verify-all", "seed-check"])
    def test_output_opened_before_work(self, monkeypatch, capsys, tmp_path, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("computed before --output was opened")

        monkeypatch.setattr(stirling, "triangle_rows", refuse)
        monkeypatch.setattr(symfun, "modular_sym", refuse)
        monkeypatch.setattr(symfun, "_modular_rows", refuse)
        monkeypatch.setattr(identities, "verify", refuse)
        monkeypatch.setattr(identities, "mutation_selftest", refuse)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "missing-dir" / "out")])
        assert exc.value.code == 2


class TestOutputFile:
    # library refusals, each reported with the library's own message
    @pytest.mark.parametrize("argv,message", [
        (("verify", "--id", "nosuch"), "unknown identity 'nosuch'"),
        (("eval", "--function", "M", "--k", "-1", "--vars", "1,2"),
         "k must be >= 0, got -1"),
        (("verify", "--id", "ps1", "--n-max", "-1"), "empty parameter grid for PS1"),
        (("enumerate", "--family", "perms", "--n", "2", "--k", "5"),
         "need n >= k >= 0, got (2, 5)"),
    ], ids=["unknown-id", "bad-eval", "empty-grid", "bad-enumerate"])
    def test_late_usage_error_keeps_existing_file(
        self, capsys, tmp_path, argv, message
    ):
        dest = tmp_path / "out"
        dest.write_text("keep")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(dest)])
        assert exc.value.code == 2
        assert dest.read_text() == "keep"
        err = capsys.readouterr().err
        assert f"modsym: error: {message}" in err and "Traceback" not in err

    def test_longer_file_rewritten_exactly(self, tmp_path):
        dest = tmp_path / "out"
        dest.write_text("x" * 100_000)
        argv = ["eval", "--function", "M", "--s", "2", "--k", "3", "--vars", "1,2,3"]
        assert main([*argv, "--output", str(dest)]) == 0
        assert dest.read_bytes() == b"42\n"

    def test_null_device(self):
        argv = ["table", "--family", "stirling2", "--n-max", "5"]
        assert main([*argv, "--output", os.devnull]) == 0

    def test_fifo(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        argv = ["table", "--family", "stirling2", "--n-max", "3"]
        assert main([*argv, "--output", str(fifo)]) == 0
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [b"1\n0 1\n0 1 1\n0 1 3 1\n"]


def _child_env():
    # the environment of a child ``python -m modsym.cli``, which imports
    # this checkout's library
    src = str(Path(modsym.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestClosedStdout:
    def test_early_close_exits_141_silently(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "modsym.cli", "table", "--family", "stirling2",
             "--n-max", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        assert proc.stdout.read(20)
        proc.stdout.close()  # the output is far larger than a pipe buffer
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""


class TestInterrupt:
    def test_sigint_exits_130_silently(self):
        # the enumeration streams far longer than the test waits
        proc = subprocess.Popen(
            [sys.executable, "-m", "modsym.cli", "enumerate", "--family",
             "nested-tuples", "--n", "5", "--k", "1", "--s", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
        )
        # a line out means the interpreter's SIGINT handler is in place
        assert proc.stdout.readline()
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert err == b""


_FULL_DEVICE = pytest.mark.skipif(
    not os.path.exists("/dev/full"), reason="no /dev/full on this system"
)
_WRITE_FAILED = f"modsym: error: cannot write output: {os.strerror(errno.ENOSPC)}\n"


class TestFailedWrite:
    # a device that takes no byte: one line on stderr and EX_IOERR, 74

    @_FULL_DEVICE
    def test_full_stdout_exits_74(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "modsym.cli", "table", "--family",
                 "stirling2", "--n-max", "5"],
                stdout=full, stderr=subprocess.PIPE, timeout=60, env=_child_env(),
            )
        assert proc.returncode == 74
        assert proc.stderr.decode() == _WRITE_FAILED

    @_FULL_DEVICE
    @pytest.mark.parametrize("argv", [
        ("table", "--family", "stirling2", "--n-max", "5"),
        ("enumerate", "--family", "partitions", "--n", "8", "--k", "3"),
        ("verify", "--id", "omega"),
    ], ids=["table", "enumerate", "verify"])
    def test_full_output_file_exits_74(self, capsys, argv):
        assert main([*argv, "--output", "/dev/full"]) == 74
        assert capsys.readouterr() == ("", _WRITE_FAILED)


class TestParserReuse:
    _ARGVS = (
        ["table", "--family", "stirling2mod", "--s", "2", "--n-max", "5"],
        ["eval", "--function", "M", "--s", "2", "--k", "3", "--vars", "1,2,3"],
        ["enumerate", "--family", "partitions", "--n", "4", "--k", "2"],
        ["verify", "--id", "GF_M", "--n-max", "2", "--k-max", "2", "--s-max", "1"],
    )

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        main(self._ARGVS[0])
        built = []
        init = argparse.ArgumentParser.__init__

        def counted_init(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        for _ in range(5):
            for argv in self._ARGVS:
                assert main(argv) == 0
        capsys.readouterr()
        assert built == []

    # Successes, usage errors found by argparse, usage errors found by a
    # command, then successes that leave out flags earlier calls gave.
    _SEQUENCE = (
        "table --family stirling2mod --s 3 --n-max 6 --format json",
        "eval --function Ml --s 3 --ell 2 --k 4 --vars 1,2,3 --format json",
        "enumerate --family partitions-bounded --board 6 --blocks 3 --s 2 --format json",
        "verify --id GF_M --n-max 3 --k-max 2 --s-max 2",
        "enumerate --family bogus --n 3 --k 2",
        "eval --function M --vars 1,2",
        "eval --function Ml --k 2 --vars 1,2",
        "eval --function M --k 2 --vars 1,x",
        "table --family stirling2 --s 0 --n-max 3",
        "table --family stirling2mod --n-max 6",
        "eval --function M --k 2 --vars 1,2",
        "enumerate --family partitions --n 5 --k 2",
        "verify --id GF_M --n-max 2",
    )

    def test_calls_match_fresh_processes(self, capsys, monkeypatch):
        # One fixed width for both sides: argparse wraps usage text to it.
        monkeypatch.setenv("COLUMNS", "60")
        env = _child_env()
        for line in self._SEQUENCE:
            try:
                code = main(line.split())
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "modsym.cli", *line.split()],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), line


# Small values, and one draw in seven a malformed token, for every integer
# flag; huge values are left out, since nothing yet refuses a request by its
# cost.
_INT_TOKENS = st.sampled_from(
    [str(v) for v in range(-2, 4)] * 4 + ["", "x", "1.5", "symbolic:"]
)
_VARS = st.one_of(
    _INT_TOKENS,
    _INT_TOKENS.map("symbolic:".__add__),
    st.lists(st.integers(-2, 3), max_size=3).map(lambda xs: ",".join(map(str, xs))),
)
_FORMATS = st.sampled_from(["text", "json"])


def _names(known):
    return st.sampled_from([*known, "unknown"])


def _command(name, required, optional):
    # the required flags are always given, each optional one is given or not
    def flag(flag, value, given=True):
        pair = value.map(lambda v: [f"--{flag}", v])
        return pair if given else st.one_of(st.just([]), pair)

    flags = [flag(f, v) for f, v in required.items()]
    flags += [flag(f, v, False) for f, v in optional.items()]
    return st.tuples(*flags).map(lambda pairs: [name, *sum(pairs, [])])


_ARGVS = st.one_of(
    _command(
        "table",
        {"family": _names(stirling.TRIANGLE_FAMILIES), "n-max": _INT_TOKENS},
        {"s": _INT_TOKENS, "format": st.sampled_from(["text", "csv", "json"])},
    ),
    _command(
        "eval",
        {"function": _names(cli._EVAL_FUNCTIONS), "k": _INT_TOKENS, "vars": _VARS},
        {"s": _INT_TOKENS, "ell": _INT_TOKENS, "format": _FORMATS},
    ),
    _command(
        "enumerate",
        {"family": _names(cli._ENUM_FAMILIES), "n": _INT_TOKENS, "k": _INT_TOKENS},
        {"s": _INT_TOKENS, "board": _INT_TOKENS, "blocks": _INT_TOKENS,
         "format": _FORMATS},
    ),
    # --n-max is always given, so that no draw sweeps a whole full profile
    st.tuples(
        _command(
            "verify",
            {"n-max": _INT_TOKENS},
            {
                "id": _names([i.id for i in identities.list_identities()] + ["all"]),
                "profile": st.sampled_from(identities.PROFILES),
                "k-max": _INT_TOKENS, "s-max": _INT_TOKENS, "ell": _INT_TOKENS,
                "board-max": _INT_TOKENS, "p-list": _VARS,
            },
        ),
        st.sampled_from([[], ["--seed-check"]]),
    ).map(lambda t: t[0] + t[1]),
)


class TestSmallValueFuzz:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(argv=_ARGVS)
    def test_exits_0_1_or_2_without_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code == 2:
            # argparse names the subcommand in its own errors
            last = err.splitlines()[-1]
            assert re.match(r"modsym( [a-z]+)?: error: ", last), (argv, err)


class TestDeterminism:
    def test_table_byte_identical(self, capsys):
        args = ("table", "--family", "stirling2mod", "--s", "3", "--n-max", "8",
                "--format", "json")
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    def test_enumerate_byte_identical(self, capsys):
        args = ("enumerate", "--family", "tilings", "--n", "3", "--k", "4",
                "--s", "2", "--format", "json")
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)
        assert a == b

    @pytest.mark.parametrize(
        "digest,argv", _PINNED_STDOUT, ids=[argv for _, argv in _PINNED_STDOUT]
    )
    def test_pinned_stdout(self, capsys, digest, argv):
        code, out = run_cli(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
