"""Value semantics of the record classes: equality and its hash values,
printed form, immutability, pickling and copying, and what each
constructor checks or normalises."""

import copy
import pickle

import pytest

from quongram.applications import (BilinearData, Edge, contravariant_det,
                                   t_laurent, varchenko_det)
from quongram.determinant import (DetFormula, Divisibility, det_formula,
                                  det_one_param)
from quongram.fock import Weight
from quongram.gram import Basis, DiagOp, build_generic, embed_degenerate
from quongram.inverse import ZagierReport, inv_full
from quongram.perms import YoungData
from quongram.subdiv import Subdivision, chain_to_bracketing, enumerate_chains

NU = Weight({2: 1, 1: 2})
GEN3 = Weight.generic_n(3)


def _weight():
    assert Weight({3: 1, 2: 0, 1: 2}) == Weight(((3, 1), (1, 2)))
    assert Weight({3: 1, 2: 0, 1: 2}).multiplicities == ((1, 2), (3, 1))
    with pytest.raises(ValueError):
        Weight({1: -1})


def _det_formula():
    f = det_formula(GEN3)
    shuffled = DetFormula(GEN3, reversed(f.factors))
    assert shuffled == f and hash(shuffled) == hash(f)
    assert [len(m) for m, _ in shuffled.factors] == [2, 2, 2, 3]
    assert shuffled.factors[0] == ((1, 2), 2)


def _divisibility():
    assert Divisibility(True, False)
    assert not Divisibility(False, True)


def _bilinear_data():
    with pytest.raises(ValueError):
        BilinearData(2, {(2, 1): 1})
    with pytest.raises(ValueError):
        BilinearData(2, {(1, 3): 1})
    with pytest.raises(ValueError):
        BilinearData(2, {(1, 2): 1.5})


def _subdivision():
    s = Subdivision(((1, 3), (4, 4)))
    t = Subdivision(((1, 1), (2, 3), (4, 4)))
    assert s < t and not t < s
    with pytest.raises(TypeError):
        s <= t
    with pytest.raises(ValueError):
        Subdivision(((1, 2), (4, 4)))
    with pytest.raises(ValueError):
        Subdivision(((2, 2),))


def _diag_op():
    d = DiagOp.identity(Basis.of_weight(NU))
    assert (d * d).diagonal == d.diagonal
    with pytest.raises(TypeError):
        2 * d


def _zagier_report():
    a, b = ZagierReport("multi", 3, False), ZagierReport("multi", 3, False)
    assert (a.checked, a.failures, a.notes) == (0, [], "")
    a.failures.append(("12", "12", "x"))
    assert b.failures == [] and b.failures is not a.failures
    assert not a.passed and b.passed


def _chain():
    return enumerate_chains(4)[3]


# name -> (build, fields, hash or None when not pinned, str or None when
# not pinned, immutable, extra check); build() gives a fresh instance each
# call, and hash is TypeError where the value is unhashable
CASES = {
    "Edge": (lambda: Edge((1, 2, 3), 2), ("subset", "multiplicity"),
             1635890139698243014,
             "Edge(subset=(1, 2, 3), multiplicity=2)", True, None),
    "VarchenkoDet": (
        lambda: varchenko_det(3), ("n", "edges"), 5212576514504557796,
        "(1 - q12^2)^2 * (1 - q13^2)^2 * (1 - q23^2)^2"
        " * (1 - q12^2*q13^2*q23^2)", True, None),
    "TLaurent": (lambda: t_laurent(-2, [0, 1, 0, -3, 0]), ("low", "coeffs"),
                 1406940618736514309, "t^-1 - 3*t", True, None),
    "BilinearData": (
        lambda: BilinearData(3, {(1, 2): 1, (1, 3): -2, (2, 3): 0}),
        ("n", "b"), TypeError,
        "BilinearData(n=3, b={(1, 2): 1, (1, 3): -2, (2, 3): 0})", True,
        _bilinear_data),
    "ContravariantDet": (
        lambda: contravariant_det(3), ("n", "factors"), 5212576514504557796,
        "ContravariantDet(n=3, factors=(((1, 2), 2), ((1, 3), 2),"
        " ((2, 3), 2), ((1, 2, 3), 1)))", True, None),
    "DetFormula": (
        lambda: det_formula(GEN3), ("weight", "factors"),
        -6571821454997672633,
        "(1 - q12*q21)^2 * (1 - q13*q31)^2 * (1 - q23*q32)^2"
        " * (1 - q12*q13*q21*q23*q31*q32)", True, _det_formula),
    "OneParamDet": (lambda: det_one_param(3), ("n", "factors"),
                    -8972240932556178299, "(1 - q^2)^6 * (1 - q^6)", True,
                    None),
    "Divisibility": (lambda: Divisibility(True, False),
                     ("divides", "certified"), -5164621852614943976,
                     "Divisibility(divides=True, certified=False)", True,
                     _divisibility),
    "Weight": (lambda: Weight({2: 1, 1: 2}), ("multiplicities",),
               -6303746208615762589, "112", True, _weight),
    "Basis": (
        lambda: Basis(NU, tuple(NU.words())), ("weight", "words"),
        7331343998116071619,
        "Basis(weight=Weight(multiplicities=((1, 2), (2, 1))), words=("
        "Word((1, 1, 2)), Word((1, 2, 1)), Word((2, 1, 1))))", True, None),
    "GramMatrix": (lambda: build_generic(GEN3), ("basis", "entries"),
                   TypeError, None, False, None),
    "DiagOp": (lambda: DiagOp.identity(Basis.of_weight(NU)),
               ("basis", "diagonal"), None, None, False, _diag_op),
    "Embedding": (lambda: embed_degenerate(NU),
                  ("weight", "generic_weight", "phi", "fibers"), None, None,
                  False, None),
    "LambdaTable": (lambda: inv_full(GEN3, "fast"),
                    ("basis", "one_param", "coefficients"), TypeError, None,
                    False, None),
    "ZagierReport": (lambda: ZagierReport("multi", 3, False, checked=6),
                     ("mode", "n", "one_param", "checked", "failures",
                      "notes"), None, "multi: n=3 entries=6 PASS", False,
                     _zagier_report),
    "YoungData": (
        lambda: YoungData(frozenset({2, 3}), ((1, 2), (3, 3), (4, 5))),
        ("cuts", "blocks"), 7040042400598512372,
        "YoungData(cuts=frozenset({2, 3}), blocks=((1, 2), (3, 3), (4, 5)))",
        True, None),
    "Subdivision": (lambda: Subdivision(((1, 2), (3, 3), (4, 5))),
                    ("intervals",), -2148100898051552033, "[12][3][45]",
                    False, _subdivision),
    "Chain": (_chain, ("members",), -792246782211636924,
              "[1234] < [1][234] < [1][23][4]", True, None),
    "Bracketing": (lambda: chain_to_bracketing(_chain()),
                   ("n", "brackets"), -5618429292338169656, "[1[[23]4]]",
                   True, None),
}

# classes whose equality compares values; the others compare by identity
VALUE_EQ = set(CASES) - {"Embedding", "ZagierReport"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_semantics(name):
    build, fields, hashed, text, immutable, extra = CASES[name]
    x, y = build(), build()
    assert type(x).__name__ == name
    values = [getattr(x, f) for f in fields]
    assert [getattr(y, f) for f in fields] == values
    if name in VALUE_EQ:
        assert x == y and not x != y
    if hashed is TypeError:
        with pytest.raises(TypeError):
            hash(x)
    elif hashed is not None:
        assert hash(x) == hash(y) == hashed
    if text is not None:
        assert str(x) == text
    if immutable:
        with pytest.raises(AttributeError):
            setattr(x, fields[0], values[0])
    for z in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
        assert type(z) is type(x)
        assert [getattr(z, f) for f in fields] == values
        if name in VALUE_EQ:
            assert z == x
    if extra is not None:
        extra()
