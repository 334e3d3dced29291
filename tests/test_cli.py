import io
import json

import pytest

from quongram.cli import main, parse_weight, Usage, build_parser


def run(*argv):
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


def test_det_goldens():
    code, s = run("det", "--n", "3", "--one-param")
    assert code == 0 and s.strip() == "(1-q^2)^6 * (1-q^6)"
    code, s = run("det", "--n", "2")
    assert code == 0 and s.strip() == "(1 - q12*q21)"
    code, s = run("det", "--n", "4", "--one-param")
    assert s.strip() == "(1-q^2)^36 * (1-q^6)^8 * (1-q^12)^2"


def test_det_degenerate():
    code, s = run("det", "--weight", "2,0,1")
    assert code == 0
    assert "q13" in s


def test_count_values():
    assert run("count", "chains", "--n", "6") == (0, "197\n")
    assert run("count", "tree-like", "--n", "4") == (0, "22\n")
    assert run("count", "bracketings", "--n", "4") == (0, "11\n")
    assert run("count", "bracketings", "--n", "3", "--no-outer") == (0, "3\n")
    code, s = run("count", "table", "--n", "4")
    assert code == 0
    assert s.splitlines() == ["c_4,1 = 1", "c_4,2 = 5", "c_4,3 = 5"]


def test_build_formats():
    code, s = run("build", "--n", "2", "--format", "csv")
    assert code == 0
    assert s.splitlines()[0] == ",12,21"
    code, s = run("build", "--weight", "2", "--format", "json")
    data = json.loads(s)
    assert data["entries"] == [["1 + q11"]]


def test_invert_json_support():
    code, s = run("invert", "--n", "2", "--format", "json")
    assert code == 0
    assert set(json.loads(s)) == {"12", "21"}


def _refuse(monkeypatch, module, names):
    def refuse(*args, **kwargs):
        raise AssertionError("work started")
    for name in names:
        monkeypatch.setattr(module, name, refuse)


def test_invert_refuses_oversized_bases(capsys, monkeypatch):
    # n = 6: 720 words, past the 120-word limit; refused before any work
    from quongram import inverse
    _refuse(monkeypatch, inverse, ("inv_full", "inv_degenerate"))
    for argv in (["--n", "6"], ["--weight", "3,3"], ["--n", "7", "--one-param"]):
        code, s = run("invert", *argv)
        assert code == 2 and s == ""
        err = capsys.readouterr().err
        assert "720" in err or "5040" in err
        assert "scripts/invert_at_point.py" in err


def test_det_refuses_oversized_eliminations(capsys, monkeypatch):
    # degenerate weights are eliminated densely: past 6 words (20 with
    # --one-param) they are refused before anything is built
    from quongram import determinant
    _refuse(monkeypatch, determinant, ("det_elim",))
    for argv, words in ((["--weight", "3,2"], 10),
                        (["--weight", "2,1,1"], 12),
                        (["--weight", "2,2,1", "--one-param"], 30)):
        code, s = run("det", *argv)
        assert code == 2 and s == ""
        assert f"{words} words" in capsys.readouterr().err
    monkeypatch.undo()
    assert run("det", "--weight", "2,2")[0] == 0
    assert run("det", "--weight", "2,1,1", "--one-param")[0] == 0
    # generic weights take the factored formula, with no elimination
    _refuse(monkeypatch, determinant, ("det_elim",))
    assert run("det", "--n", "5")[0] == 0


def test_build_refuses_oversized_bases(capsys, monkeypatch):
    from quongram import cli
    _refuse(monkeypatch, cli, ("build_generic", "build_degenerate"))
    for argv, words in ((["--n", "7"], 5040),
                        (["--weight", "2,2,2,2"], 2520),
                        (["--n", "8", "--one-param"], 40320)):
        code, s = run("build", *argv)
        assert code == 2 and s == ""
        assert f"{words} words" in capsys.readouterr().err


def test_invert_degenerate_runs():
    code, s = run("invert", "--weight", "2,0,1")
    assert code == 0
    assert "113" in s


def test_invert_methods_print_same_expansion():
    ref = run("invert", "--n", "3")
    for m in ("long", "short", "chains", "zagier", "brute"):
        assert run("invert", "--n", "3", "--method", m) == ref


def test_varchenko():
    code, s = run("varchenko", "--n", "2", "--det")
    assert code == 0 and s.strip() == "(1 - q12^2)"
    code, s = run("varchenko", "--n", "2")
    assert code == 0 and "q12" in s


def test_contravariant_det_small():
    code, s = run("contravariant", "--n", "2", "--det")
    assert code == 0 and s.strip() == "u12^-2 - u12^2"
    # symbolic expansion is refused for larger n without a b matrix
    code, _ = run("contravariant", "--n", "4", "--det")
    assert code == 2


def test_contravariant_b_matrix(tmp_path):
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"n": 3, "b": {"1,2": -2, "1,3": -2,
                                           "2,3": -2}}))
    code, s = run("contravariant", "--n", "3", "--det",
                  "--b-matrix", str(f))
    assert code == 0 and s.strip()
    # size mismatch is a usage error
    code, _ = run("contravariant", "--n", "4", "--det", "--b-matrix", str(f))
    assert code == 2


def test_zagier_check_exit_codes():
    code, s = run("zagier-check", "--n", "3")
    assert code == 0 and "PASS" in s
    code, s = run("zagier-check", "--n", "8", "--mode",
                  "original-conjecture", "--coeff", "43218765")
    assert code == 1 and "FAIL" in s
    code, s = run("zagier-check", "--n", "8", "--mode", "one-param",
                  "--coeff", "43218765", "--format", "json")
    assert code == 0 and json.loads(s)["passed"]


def test_verify_single_suite():
    code, s = run("verify", "--suite", "counting", "--max-n", "4")
    assert code == 0
    assert s.startswith("ok   counting:") or s.startswith("ok  counting:")
    code, _ = run("verify", "--suite", "nonsense")
    assert code == 2


def test_verify_deterministic_for_seed():
    a = run("--seed", "7", "verify", "--suite", "positivity,oracle",
            "--max-n", "3")
    b = run("--seed", "7", "verify", "--suite", "positivity,oracle",
            "--max-n", "3")
    assert a == b and a[0] == 0


def test_weight_parsing_errors():
    code, _ = run("det", "--weight", "0,0")
    assert code == 2
    code, _ = run("det", "--weight", "1,1", "--n", "2")
    assert code == 2
    code, _ = run("det")
    assert code == 2
    args = build_parser().parse_args(["det", "--weight", "1,0,2"])
    nu = parse_weight(args)
    assert dict(nu.multiplicities) == {1: 1, 3: 2}
    with pytest.raises(Usage):
        parse_weight(build_parser().parse_args(["det", "--weight", "x"]))
