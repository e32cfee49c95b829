import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latticevc as lv
from latticevc import cli, core


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def test_ssp_brute_fig1():
    code, out = run_cli("ssp", "--strategy", "brute", "fig1")
    assert code == 0
    assert out == "CertifiedSSP (BruteForce), families=512\n"


def test_ssp_auto_fig1_uses_certificate():
    code, out = run_cli("ssp", "--strategy", "auto", "fig1")
    assert code == 0
    assert out == "CertifiedSSP (RcMuVanishingOnce)\n"


def test_ssp_chain_violated():
    code, out = run_cli("ssp", "chain:2")
    assert code == 1
    assert out == "Violated, witness {1,2}, |F|=2, |Str|=1\n"


def test_ssp_inconclusive_budget():
    code, out = run_cli("ssp", "--strategy", "brute", "--budget", "10", "fig1")
    assert code == 1
    assert out.startswith("Inconclusive")


def test_mobius_pair():
    code, out = run_cli("mobius", "fig2", "--pair", "0", "top")
    assert (code, out) == (0, "0\n")
    code, out = run_cli("mobius", "boolean:3", "--pair", "bottom", "top")
    assert (code, out) == (0, "-1\n")


def test_mobius_summary():
    code, out = run_cli("mobius", "fig1")
    assert code == 0
    assert "vanishing=1" in out
    assert "mu(0,1234)=0" in out


def test_rc_verbs():
    code, out = run_cli("rc", "fig2")
    assert (code, out) == (0, "RC\n")
    code, out = run_cli("rc", "fig3b")
    assert code == 1
    assert out == "Not RC: witness (4, 45, [5])\n"


def test_build_summary_and_emit(tmp_path):
    code, out = run_cli("build", "fig1")
    assert code == 0
    assert "n=9" in out and "ranked=no" in out and "atoms={1,2,3,4}" in out

    code, emitted = run_cli("build", "fig3b", "--emit")
    assert code == 0
    path = tmp_path / "fig3b.lat"
    path.write_text(emitted)
    code, again = run_cli("build", str(path), "--emit")
    assert code == 0
    assert again == emitted
    assert lv.parse_lattice_text(again).names == lv.fig3b().names


def test_product_source():
    code, out = run_cli("build", "product(boolean:1,chain:2)")
    assert code == 0
    assert "n=6" in out
    code, out = run_cli("build", "product(product(chain:1,chain:1),chain:1)")
    assert code == 0
    assert "n=8" in out


def test_shatter_and_vc():
    code, out = run_cli("shatter", "chain:2", "--family", "1,2")
    assert code == 0
    assert out == "|F|=2 |Str|=1 Str={0}\n"
    code, out = run_cli("shatter", "chain:2", "--family", "1,2",
                        "--element", "0")
    assert (code, out) == (0, "shattered\n")
    code, out = run_cli("shatter", "chain:2", "--family", "1,2",
                        "--element", "2")
    assert (code, out) == (1, "not shattered\n")
    code, out = run_cli("vc", "chain:2", "--family", "1,2")
    assert (code, out) == (0, "0\n")
    code, out = run_cli("vc", "boolean:2", "--family", "0,1,2,12")
    assert (code, out) == (0, "2\n")


def test_antichain_verb():
    code, out = run_cli("antichain", "boolean:2", "--antichain", "1,2",
                        "--family", "0")
    assert code == 0
    assert "|F|=1 <= |F_A|=1" in out


def test_scan_verb():
    code, out = run_cli("scan", "--max-n", "4", "--format", "tsv")
    assert code == 0
    assert out.splitlines()[-1] == "4\t2\t1\t1\t0\t0"
    code, out = run_cli("scan", "--max-n", "3")
    assert code == 0
    assert "n=3 total=1 rc=0 ssp=0" in out


def test_export_dot():
    code, out = run_cli("export-dot", "chain:2")
    assert code == 0
    assert out.count("->") == 2
    assert out.count("label=") == 3
    code, again = run_cli("export-dot", "chain:2")
    assert again == out  # byte-deterministic

    code, out = run_cli("export-dot", "fig1")
    assert out.count("label=") == 9
    assert out.count("->") == 14
    assert "rank=same" not in out  # fig1 is unranked

    code, out = run_cli("export-dot", "boolean:2")
    assert out.count("label=") == 4
    assert out.count("->") == 4


def test_usage_errors():
    code, _ = run_cli("build", "nosuchsource")
    assert code == 2
    code, _ = run_cli("frobnicate", "fig1")
    assert code == 2
    code, _ = run_cli("vc", "fig1", "--family", "1,2")  # unranked input
    assert code == 2
    code, _ = run_cli("mobius", "fig1", "--pair", "1", "2")  # incomparable
    assert code == 2
    code, _ = run_cli("shatter", "fig1", "--family", "zzz")
    assert code == 2


@pytest.mark.parametrize("source", [
    "chain:-1", "subspace:2:0", "product(chain:1,chain:-2)", "boolean:3:7",
    "chain:1:", "product(chain:1)", "boolean:x", "<directory>",
    "<non-utf8 file>"])
def test_bad_source_is_a_usage_error(source, tmp_path, capsys):
    latin1 = tmp_path / "latin1.lat"
    latin1.write_bytes(b"elem \xe9\n")
    source = {"<directory>": str(tmp_path),
              "<non-utf8 file>": str(latin1)}.get(source, source)
    assert run_cli("build", source) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("latticevc: ") and err.count("\n") == 1


def test_refused_arguments_exit_2(tmp_path, capsys):
    no_top = tmp_path / "vee.lat"
    no_top.write_text("elem b\nelem x\nelem y\ncover b x\ncover b y\n")
    for argv, message in (
            (("mobius", str(no_top), "--pair", "bottom", "top"),
             "latticevc: this structure has no top element\n"),
            (("ssp", "fig1", "--jobs", "abc"),
             "invalid int value: 'abc'\n")):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err.endswith(message)


def test_format_errors_cite_line(tmp_path, capsys):
    bad = tmp_path / "bad.lat"
    bad.write_text("elem a\ncover a b\n")
    code, _ = run_cli("build", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert "line 2" in err


def test_jobs_flag():
    # --jobs is accepted and ignored: the output bytes are those without it
    for args in (("ssp", "--strategy", "brute", "fig1"),
                 ("scan", "--max-n", "5")):
        assert run_cli(*args, "--jobs", "2") == run_cli(*args)


def test_cli_import_is_light():
    # a fresh interpreter shows what the CLI loads: neither importing it nor
    # a brute-force search with --jobs 2 (which runs in this process) loads
    # a process pool or logging
    src = Path(lv.__file__).resolve().parents[1]
    heavy = "{'logging', 'concurrent.futures', 'multiprocessing'}"
    code = ("import io, sys, latticevc.cli as c; "
            f"print(sorted({heavy} & set(sys.modules))); "
            "code = c.run(['ssp', 'product(chain:1,fig3b)', '--strategy', "
            "'brute', '--jobs', '2'], out=io.StringIO()); "
            f"print(code, sorted({heavy} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "[]\n1 []\n"


def _nested_products(operators):
    spec = "chain:0"
    for _ in range(operators):
        spec = f"product({spec},chain:0)"
    return spec


def test_product_operator_limit(monkeypatch, capsys):
    code, out = run_cli("build", _nested_products(10))
    assert code == 0 and out.startswith("n=1 ")

    def no_product(*factors):
        raise AssertionError("a factor was built")

    # load_source calls the name that cli imported from core
    monkeypatch.setattr(cli, "product", no_product)
    monkeypatch.setattr(core, "product", no_product)
    for operators in (11, 1000):
        assert run_cli("build", _nested_products(operators)) == (2, "")
        assert capsys.readouterr().err == (
            "latticevc: more than 10 product operators\n")


def test_subspace_over_cap_exits_2(capsys):
    assert run_cli("build", "subspace:13:3") == (2, "")
    assert capsys.readouterr().err.startswith("latticevc: TooLarge: ")


def test_ssp_single_family():
    code, out = run_cli("ssp", "chain:2", "--family", "1,2")
    assert code == 1
    assert out == "Violated, witness {1,2}, |F|=2, |Str|=1\n"
    code, out = run_cli("ssp", "boolean:2", "--family", "1,2")
    assert (code, out) == (0, "OK, |F|=2, |Str|=3\n")


def test_negative_budget_rejected_at_parse_time(capsys):
    for argv in (("ssp", "fig1", "--budget", "-1"),
                 ("scan", "--max-n", "3", "--budget", "-5")):
        assert run_cli(*argv) == (2, "")
        assert "--budget: must be >= 0" in capsys.readouterr().err
    for argv, message in ((("scan", "--max-n", "0"), "--max-n: must be >= 1"),
                          (("scan", "--max-n", "-3"), "--max-n: must be >= 1"),
                          (("scan", "--jobs", "0"), "--jobs: must be >= 1"),
                          (("ssp", "fig1", "--jobs", "0"), "--jobs: must be >= 1"),
                          (("ssp", "fig1", "--jobs", "-4"), "--jobs: must be >= 1")):
        assert run_cli(*argv) == (2, "")
        assert message in capsys.readouterr().err
    assert run_cli("ssp", "chain:2", "--budget", "0")[0] == 1
