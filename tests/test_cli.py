import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import modsym
from modsym import enumeration, identities, stirling, symfun
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
        monkeypatch.setattr(identities, "verify", refuse)
        monkeypatch.setattr(identities, "mutation_selftest", refuse)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(tmp_path / "missing-dir" / "out")])
        assert exc.value.code == 2


class TestOutputFile:
    @pytest.mark.parametrize("argv", [
        ("verify", "--id", "nosuch"),
        ("eval", "--function", "M", "--k", "-1", "--vars", "1,2"),
        ("verify", "--id", "ps1", "--n-max", "-1"),
    ], ids=["unknown-id", "bad-eval", "empty-grid"])
    def test_late_usage_error_keeps_existing_file(self, capsys, tmp_path, argv):
        dest = tmp_path / "out"
        dest.write_text("keep")
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--output", str(dest)])
        assert exc.value.code == 2
        assert dest.read_text() == "keep"

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


class TestClosedStdout:
    def test_early_close_exits_141_silently(self):
        src = str(Path(modsym.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "modsym.cli", "table", "--family", "stirling2",
             "--n-max", "300"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.stdout.read(20)
        proc.stdout.close()  # the output is far larger than a pipe buffer
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 141
        assert err == b""


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
