import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import quongram
from quongram.cli import (main, parse_weight, Usage, build_parser,
                          _widest_subdivision)
from quongram.perms import Perm


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
    assert run("count", "table", "--n", "1") == (0, "c_1,0 = 1\n")


@pytest.mark.parametrize("n", range(1, 9))
def test_count_table_sums_to_chain_count(n):
    _, table = run("count", "table", "--n", str(n))
    _, chains = run("count", "chains", "--n", str(n))
    assert sum(int(line.split(" = ")[1])
               for line in table.splitlines()) == int(chains)


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


@pytest.mark.parametrize("argv", [
    ["invert", "--n", "2", "--format", "matrix"],
    ["invert", "--n", "2", "--format", "matrix", "--one-param"],
    ["invert", "--n", "3", "--method", "zagier", "--format", "json"],
])
def test_invert_prints_alike_in_a_fresh_interpreter(argv):
    # a fresh process registers its variables in another order, and after
    # some renamings are built: the printout must not depend on either
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(quongram.__file__)))
    proc = subprocess.run([sys.executable, "-m", "quongram.cli", *argv],
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == run(*argv)


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


def test_invert_at_point_refuses_checks_that_do_not_finish():
    # at n = 6 det_point alone ran for more than 20 minutes: the script
    # exits with code 2 before any work unless the checks are skipped
    src = os.path.dirname(os.path.dirname(quongram.__file__))
    script = os.path.join(os.path.dirname(src), "scripts",
                          "invert_at_point.py")
    proc = subprocess.run([sys.executable, script, "-n", "6"],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert "--skip-verify" in proc.stderr


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


def test_degenerate_weights_are_refused_by_their_fiber_terms(capsys,
                                                             monkeypatch):
    # words * |nu|! terms: 3,3,2 has 560 words, under the 720-word limit,
    # and the weight 12 one word; both are refused before anything is built
    from quongram import cli, determinant
    _refuse(monkeypatch, cli, ("build_generic", "build_degenerate"))
    _refuse(monkeypatch, determinant, ("det_elim",))
    for argv, terms in ((["build", "--weight", "3,3,2"], 22579200),
                        (["build", "--weight", "3,3,2", "--one-param"],
                         22579200),
                        (["det", "--weight", "12"], 479001600),
                        (["det", "--weight", "12", "--one-param"],
                         479001600)):
        code, s = run(*argv)
        assert code == 2 and s == ""
        assert f"{terms} fiber terms, over the limit" in \
            capsys.readouterr().err


def test_det_refuses_oversized_factored_formulas(capsys, monkeypatch):
    # a generic weight lists its 2^N subsets: past 14 letters it is refused,
    # in det and in varchenko --det alike; --one-param lists N boxes only
    from quongram import applications, determinant
    _refuse(monkeypatch, determinant, ("det_formula", "det_elim"))
    _refuse(monkeypatch, applications, ("varchenko_det",))
    for argv in (["det", "--n", "15"], ["det", "--weight", "1," * 15 + "1"],
                 ["varchenko", "--n", "15", "--det"]):
        code, s = run(*argv)
        assert code == 2 and s == ""
        assert "letters, over the limit of 14" in capsys.readouterr().err
    code, s = run("det", "--n", "15", "--one-param")
    assert code == 0 and s.startswith("(1-q^2)^")


def test_arrangement_and_contravariant_refuse_oversized(capsys, monkeypatch,
                                                        tmp_path):
    from quongram import applications
    _refuse(monkeypatch, applications,
            ("varchenko_matrix", "contravariant_matrix", "contravariant_det"))
    f = tmp_path / "b.json"
    f.write_text(json.dumps({"n": 7, "b": {}}))
    for argv, size in ((["varchenko", "--n", "7"], "5040 words"),
                       (["contravariant", "--n", "6"], "720 words"),
                       (["contravariant", "--n", "7", "--format", "csv"],
                        "5040 words"),
                       (["contravariant", "--n", "7", "--det", "--b-matrix",
                         str(f)], "7 letters")):
        code, s = run(*argv)
        assert code == 2 and s == ""
        assert f"{size}, over the limit" in capsys.readouterr().err


def test_verify_refuses_max_n_past_every_suite(capsys, monkeypatch):
    from quongram import cli

    def refuse(*args):
        raise AssertionError("work started")
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, refuse)
    for max_n in ("7", "100000"):
        code, s = run("verify", "--suite", "counting", "--max-n", max_n)
        assert code == 2 and s == ""
        assert "over the limit of 6" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["zagier-check", "--n", "7"],
    ["zagier-check", "--n", "7", "--mode", "one-param"],
    ["zagier-check", "--n", "8", "--coeff", "12345678"],
    ["zagier-check", "--n", "8", "--mode", "extended-multi",
     "--coeff", "87654321"],
    ["count", "tree-like", "--n", "9"],
    ["count", "tree-like", "--n", "11"],
    ["count", "bracketings", "--n", "11"],
    ["count", "bracketings", "--n", "12", "--no-outer"],
], ids=" ".join)
def test_sizes_that_never_finish_fail_fast(capsys, monkeypatch, argv):
    # refused before any work starts, S_11 included
    from quongram import cli, inverse, subdiv
    _refuse(monkeypatch, inverse, ("inv_full", "zagier_check", "tree_like"))
    _refuse(monkeypatch, subdiv, ("enumerate_bracketings",))
    _refuse(monkeypatch, cli, ("all_perms",))
    t0 = time.perf_counter()
    code, s = run(*argv)
    assert time.perf_counter() - t0 < 1
    assert code == 2 and s == ""
    assert capsys.readouterr().err.startswith("error: ")


def test_zagier_check_without_coeff_points_to_coeff(capsys):
    assert run("zagier-check", "--n", "7") == (2, "")
    err = capsys.readouterr().err
    assert "5040 words, over the limit of 720" in err and "--coeff" in err


@pytest.mark.parametrize("mode", ["multi", "extended-multi", "one-param",
                                  "original-conjecture"])
def test_zagier_check_sweeps_every_coefficient_up_to_n_6(mode):
    from quongram.inverse import zagier_check
    code, s = run("zagier-check", "--n", "6", "--mode", mode)
    assert code == 0 and s == f"{zagier_check(6, mode)}\n"
    assert run("zagier-check", "--n", "7", "--mode", mode) == (2, "")


@pytest.mark.parametrize("argv", [
    ["det", "--n", "{n}"],
    ["build", "--n", "{n}"],
    ["invert", "--n", "{n}"],
    ["count", "chains", "--n", "{n}"],
    ["count", "bracketings", "--n", "{n}"],
    ["count", "tree-like", "--n", "{n}"],
    ["count", "table", "--n", "{n}"],
    ["varchenko", "--n", "{n}"],
    ["varchenko", "--det", "--n", "{n}"],
    ["contravariant", "--n", "{n}"],
    ["contravariant", "--det", "--n", "{n}"],
    ["zagier-check", "--n", "{n}"],
    ["zagier-check", "--n", "{n}", "--coeff", "1"],
    ["verify", "--suite", "counting", "--max-n", "{n}"],
], ids=lambda argv: " ".join(argv).replace("{n}", "N"))
def test_sizes_below_one_are_usage_errors(capsys, argv):
    for n in (0, -3):
        code, s = run(*(a.format(n=n) for a in argv))
        assert code == 2 and s == ""
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "at least 1" in err
    code, s = run(*(a.format(n=1) for a in argv))
    assert code == 0 and s


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


@pytest.mark.parametrize("text", [
    "[[0, -2], [-2, 0]]",
    '{"n": 3, "b": {"1,2": 1.5, "1,3": -2, "2,3": -2}}',
    '{"n": 3, "b": {"1,2": 1, "2,1": 3, "1,3": -2, "2,3": -2}}',
], ids=["array", "float", "pair twice"])
def test_contravariant_b_matrix_rejects_malformed(tmp_path, capsys, text):
    f = tmp_path / "b.json"
    f.write_text(text)
    code, s = run("contravariant", "--n", "3", "--det", "--b-matrix", str(f))
    assert code == 2 and s == ""
    assert capsys.readouterr().err.startswith("error: ")


# Byte length and sha256 of the contravariant outputs: the matrix in each
# format, det S written out in the u_kl, and det S in t under b matrices
# with all entries -2, with mixed signs, and with a zero subset sum.
CONTRAVARIANT_B = {
    "all-2-3": {"1,2": -2, "1,3": -2, "2,3": -2},
    "all-2-4": {f"{i},{j}": -2 for i, j in
                ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))},
    "mixed-3": {"1,2": 1, "1,3": -2, "2,3": 3},
    "mixed-4": {"1,2": 1, "1,3": 1, "1,4": 3, "2,3": 1, "2,4": -2,
                "3,4": -3},
    # b_23 = 0 makes the factor 1 - q^{b_23}, and det S, vanish: "0\n"
    "zero-3": {"1,2": 1, "1,3": -1, "2,3": 0},
}
CONTRAVARIANT_GOLDENS = [
    (("--n", "3"), 684,
     "08a5402bdce63b5de59c38fde0b626479fad60768d2f369201a53cc936edc7a7"),
    (("--n", "3", "--format", "json"), 1114,
     "3cc3115ae57f200e7da272d8e86dabbff066f4911607f8fbd67a4015b394d802"),
    (("--n", "3", "--format", "csv"), 715,
     "09a4e1be812a4f777ec3b18803f5ab9b904874bcf3aaa60aa0c8ebc18d8f12b3"),
    (("--n", "2", "--det"), 15,
     "827391c50bb14aabe62fd1fbddd2c472aa15ef6e87aa20e4b130e1d454d9c68f"),
    (("--n", "3", "--det"), 1051,
     "e56f995e9be381f2c2683385bf3820fae81f19b0d15270bac1ac58fe28313cff"),
    (("--n", "3", "--det", "--b-matrix", "all-2-3"), 94,
     "19ff6672dd31235224c2006053455695cd930bfbd68293a2114da58584095f34"),
    (("--n", "4", "--det", "--b-matrix", "all-2-4"), 1366,
     "e84e89e3a1d105253dc289a2f61924bb9bcf76865d0b7278b35387cebda028eb"),
    (("--n", "3", "--det", "--b-matrix", "mixed-3"), 123,
     "9a04280861533bb01d28bef4125dd6c8dac87777194b4d649e22b84cda27b3c2"),
    (("--n", "4", "--det", "--b-matrix", "mixed-4"), 1369,
     "74d282f685d1e28c2ee484f5babb670db9e5166407681b22228052e4d42ec286"),
    (("--n", "3", "--det", "--b-matrix", "zero-3"), 2,
     "9a271f2a916b0b6ee6cecb2426f0b3206ef074578be55d9bc94f6f3fe3ab86aa"),
]


@pytest.mark.parametrize("argv,size,digest", CONTRAVARIANT_GOLDENS, ids=[
    " ".join(argv) for argv, _, _ in CONTRAVARIANT_GOLDENS])
def test_contravariant_goldens(tmp_path, argv, size, digest):
    argv = list(argv)
    if "--b-matrix" in argv:
        k = argv.index("--b-matrix") + 1
        f = tmp_path / "b.json"
        f.write_text(json.dumps({"n": int(argv[1]),
                                 "b": CONTRAVARIANT_B[argv[k]]}))
        argv[k] = str(f)
    code, s = run("contravariant", *argv)
    data = s.encode()
    assert code == 0
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


# Byte length and sha256 of degenerate Gram matrices and inverses, each
# in both modes, recorded from the sigma-sum builder and the group-sum
# inverse that the fiber push-down replaced.
DEGENERATE_GOLDENS = [
    (("build", "--weight", "2,2,1"), 68410,
     "f9a442359ee013b0d841f00bcdbe324373777546e690cf3dc0ca4cd79ae8d4f5"),
    (("build", "--weight", "2,2,1", "--one-param"), 19276,
     "c2f53c604dd47c48996e626ccd082d9b2731793a2352a97784e363eb221a1c18"),
    (("build", "--weight", "2,2,1", "--format", "json"), 75370,
     "d15f7b57b96dd126cd3f0982ab6cc77c55d622bfd6bca08db2732e4a727a011a"),
    (("build", "--weight", "2,2,1", "--format", "json", "--one-param"), 26236,
     "17b43ed382dfe54d3681fdcbd7a836e5ef08e96e4f06446a1b7dee0c20d23cd9"),
    (("build", "--weight", "3,2,1", "--format", "json"), 834117,
     "4b3dd189b859f75b23b8f63efbd2a90001e5bb40e09bfd5c4fdee38082ca2709"),
    (("build", "--weight", "3,2,1", "--format", "json", "--one-param"), 201015,
     "9dddf573689e7cb0cf6a7cf0e60d6180bf3f6ca6ed2f96d0c11cf08863019524"),
    (("invert", "--weight", "2,2,1", "--format", "json"), 1188872,
     "007d896566f57906ca1a470e462072cb15eb29e5415e80a316261ff00b2100d3"),
    (("invert", "--weight", "2,2,1", "--format", "json", "--one-param"),
     124260,
     "0a9d11808ee660beaa82d8b26b8fcd0952bb23d0d2ddd4de33ccfc8c913dcf34"),
]


# Byte length and sha256 of dense generic inverses as printed by
# ``invert --format matrix``, which GOLDEN_TABLES (the json form) does not
# cover: the placement of each coefficient and each printed entry.
MATRIX_GOLDENS = [
    (("invert", "--n", "4", "--format", "matrix"), 69048,
     "37a8624724c4aac57f1697a3cd31cc2ae798164cd8be13ec58f708036497b856"),
    (("invert", "--n", "4", "--format", "matrix", "--one-param"), 26424,
     "5d3d527116c4a86798dbeb87431e4a3a260f590cb2b51cd514e44b87abad7e41"),
    (("invert", "--n", "3", "--format", "matrix", "--one-param"), 1110,
     "9ad0980462fe7c2ef97d46b797350051305e8b845c6fc334d49dff633856a01d"),
]


# Byte length and sha256 of the default expansion printout of invert --n 4
# in both modes, and of invert --n 5 --format json by each operator method,
# recorded from the per-word diagonals that one value per permutation
# replaced.  Multiparameter forms are unique, so every method prints alike.
EXPANSION_GOLDENS = [
    (("invert", "--n", "4"), 60576,
     "d0714d900a782f3ede2f817af68a4e4f7efba4ea47dd2a9100bb145a00b70dbd"),
    (("invert", "--n", "4", "--one-param"), 29040,
     "3813fbc092102a4fab5578e46ba4158adbe3edf16d122f5dccb19154b891904e"),
] + [
    (("invert", "--n", "5", "--format", "json", "--method", m), 5217933,
     "77883776370ffead86e109a2bbded99ad08975c2046febdc77c7359d7c628317")
    for m in ("fast", "long", "short", "chains", "zagier")]

# One-parameter reduced forms are not unique, and invert --n 5 --one-param
# prints three: one by fast, one by long, short and chains, one by zagier.
# Recorded from the running sums that added one-parameter parts in order.
EXPANSION_GOLDENS += [
    (("invert", "--n", "5", "--one-param", "--method", "fast"), 888090,
     "d2bd393d565876bf7d589ee18a0337f828507e588182c2bd43073c039acc6961"),
    (("invert", "--n", "5", "--one-param", "--method", "long"), 911370,
     "3da31c8a01657bcd3d613e07d57ae9558358de41b635f6e8f84a37503a1af22c"),
    (("invert", "--n", "5", "--one-param", "--method", "zagier"), 1473210,
     "a45b202c77ecabe8ec01a2a93746efa6e3b69b53cbd7aa39c73a35aab8e25061"),
]


# Byte length and sha256 of zagier-check reports, recorded from the check
# that ran at every (coefficient, word) pair: the full sweep at n = 5 in
# each mode and format, the one-parameter sweep at n = 6, and one
# coefficient of S_5, S_6 and S_8.  The
# original conjecture fails at 43218765, and a failing report exits 1.
ZAGIER_GOLDENS = [
    (("zagier-check", "--n", "5", "--mode", "multi", "--format", "text"), 30,
     "6a38af78eb908f7e899bc9d04658aa64873735687e619135e6226c2ae36a0b53"),
    (("zagier-check", "--n", "5", "--mode", "multi", "--format", "json"), 125,
     "6f175fbe8ce127536d4a338e9bb35c0cc24fdcd47e68fd4814d63a4875c0c9d6"),
    (("zagier-check", "--n", "5", "--mode", "extended-multi", "--format",
      "text"), 39,
     "6dc41d16669aab7e476e558e305b78119ce56c320085a2c0d7ba478a704285c3"),
    (("zagier-check", "--n", "5", "--mode", "extended-multi", "--format",
      "json"), 134,
     "c902c4fcb395c75cdd1d6f32c988cf10c87241ec707941b1b2ecff77e9bf6629"),
    (("zagier-check", "--n", "5", "--mode", "one-param", "--format", "text"),
     34, "0ad66754219545ce343903e2aebfa1f481ba100ca25b284338e3ffef43e9f420"),
    (("zagier-check", "--n", "5", "--mode", "one-param", "--format", "json"),
     128, "356ecb1b348fb187b74f14b38e34a83b1a509253f8044a5e564c9f827f6f499c"),
    (("zagier-check", "--n", "5", "--mode", "original-conjecture",
      "--format", "text"), 44,
     "5eb625cabe71b68942473035adc292ea65b64dfbae33b44a6a223c06e9f53492"),
    (("zagier-check", "--n", "5", "--mode", "original-conjecture",
      "--format", "json"), 138,
     "9aacb4b996fe05485f10edf45f2c7399eabf845326049e14adb70fffa936f928"),
    (("zagier-check", "--n", "8", "--mode", "original-conjecture", "--coeff",
      "43218765"), 687,
     "e9bd5643c2c07d9bed1c6cf87f8f5a24f9acb05c61c09ec3c8da84257db3612d"),
    (("zagier-check", "--n", "8", "--mode", "one-param", "--coeff",
      "43218765"), 30,
     "e20bbdba19ff2a12246aed819c052017f3d2cf50392d4093a2dad8d5d8bd53bb"),
    (("zagier-check", "--n", "6", "--mode", "multi", "--coeff", "214365"), 26,
     "8de55ae73e541edda43b6dfe31e52b0932d3550ae6f526ec54da461e6b624f2e"),
    (("zagier-check", "--n", "5", "--mode", "extended-multi", "--coeff",
      "21435"), 35,
     "8ed0173989019e552ade2c5b91e16c09f5fb83dfe25b9e2b9120c96d5d727b1e"),
    (("zagier-check", "--n", "6", "--mode", "one-param"), 35,
     "f6fc328f88ad828a805354adef8009babfb8e9ea660dac41562546ebb5f4dc3d"),
]
INVERT_GOLDENS = (DEGENERATE_GOLDENS + MATRIX_GOLDENS + EXPANSION_GOLDENS
                  + ZAGIER_GOLDENS)


# the matrix, expansion and zagier-check rows share this body; the
# degenerate ids keep their names
@pytest.mark.parametrize("argv,size,digest", INVERT_GOLDENS, ids=[
    " ".join(argv) for argv, _, _ in INVERT_GOLDENS])
def test_degenerate_goldens(argv, size, digest):
    code, s = run(*argv)
    data = s.encode()
    assert code == (argv[0] == "zagier-check" and "FAIL" in s)
    assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


def test_zagier_check_limits_coeff_by_its_widest_subdivision(capsys):
    widths = {g: _widest_subdivision(Perm.parse(g)) for g in
              ("12345678", "87654321", "21345678", "43218765")}
    assert widths == {"12345678": 8, "87654321": 8, "21345678": 7,
                      "43218765": 4}
    assert run("zagier-check", "--n", "8", "--coeff", "12345678") == (2, "")
    assert "8 blocks, over the limit of 7" in capsys.readouterr().err
    code, s = run("zagier-check", "--n", "8", "--coeff", "43218765")
    assert code == 0 and "PASS" in s


def test_zagier_check_exit_codes():
    code, s = run("zagier-check", "--n", "3")
    assert code == 0 and "PASS" in s
    code, s = run("zagier-check", "--n", "8", "--mode",
                  "original-conjecture", "--coeff", "43218765")
    assert code == 1 and "FAIL" in s
    code, s = run("zagier-check", "--n", "8", "--mode", "one-param",
                  "--coeff", "43218765", "--format", "json")
    assert code == 0 and json.loads(s)["passed"]


def test_zagier_check_has_no_one_param_flag(capsys):
    # --mode one-param is the one way to ask for the one-parameter check;
    # a flag that another --mode silently overrode is a usage error
    for extra in ([], ["--mode", "extended-multi"]):
        with pytest.raises(SystemExit) as e:
            run("zagier-check", "--n", "3", "--one-param", *extra)
        assert e.value.code == 2
        assert "--one-param" in capsys.readouterr().err


def test_verify_positivity_without_numpy():
    # positivity is decided exactly, so a fresh interpreter that cannot
    # import numpy runs the suite
    code = ("import sys; sys.modules['numpy'] = None\n"
            "from quongram.cli import main\n"
            "sys.exit(main(['verify', '--suite', 'positivity', "
            "'--max-n', '4']))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(quongram.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.startswith("ok")
    assert "positivity" in proc.stdout


def test_verify_single_suite():
    code, s = run("verify", "--suite", "counting", "--max-n", "4")
    assert code == 0
    assert s.startswith("ok   counting:") or s.startswith("ok  counting:")
    code, _ = run("verify", "--suite", "nonsense")
    assert code == 2


def test_verify_det_certifies_the_factor_chain_up_to_max_n(monkeypatch):
    from quongram import determinant

    real, sizes = determinant.det_factor_chain, []

    def spy(nu):
        sizes.append(nu.size)
        return real(nu)
    monkeypatch.setattr(determinant, "det_factor_chain", spy)
    code, s = run("verify", "--max-n", "5")
    assert code == 0 and "ok   det:" in s and sizes == [4, 5]


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
