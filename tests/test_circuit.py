import gc
import time
from fractions import Fraction

import pytest

from exactla import circuit as cc
from exactla.errors import InvalidInput, MalformedInput, SizeExceeded, ZeroDenominator
from exactla.field import QQ, PrimeField
from exactla.rng import SplitMix64

GF7 = PrimeField(7)


def test_hash_consing():
    x, y = cc.var("x"), cc.var("y")
    assert cc.var("x") is x
    assert (x + y) is (x + y)
    assert cc.parse_sexpr("(add (var x) (var y))") is (x + y)


def test_intern_table_forgets_dropped_circuits():
    gc.collect()
    before = len(cc._INTERN)
    g = cc.var("dropped")
    for k in range(3000):
        g = g + cc.const(k)
    assert len(cc._INTERN) >= before + 3000
    assert cc.parse_sexpr(cc.format_sexpr(g)) is g  # still hash-consed
    del g
    gc.collect()
    assert len(cc._INTERN) == before


def test_gate_count_shares_subcircuits():
    x = cc.var("x")
    f = x
    for _ in range(6):
        f = f * f
    assert cc.gate_count(f) == 7  # a chain of squarings, not 2^6 leaves


def test_variables_and_division_freedom():
    f = cc.parse_sexpr("(add (div (var x) (var y)) (const 1))")
    assert cc.variables(f) == ["x", "y"]
    assert not cc.is_division_free(f)
    assert cc.is_division_free(cc.var("x") + cc.const(3))


def test_num_den_base_cases():
    x, y = cc.var("x"), cc.var("y")
    num, den = cc.num_den(x)
    assert num is x and den is cc.const(1)
    num, den = cc.num_den(x / y)  # (x*1, 1*y) -- the rule is applied literally
    asn = {"x": Fraction(2), "y": Fraction(3)}
    assert cc.eval_alg(num, QQ, asn) == 2
    assert cc.eval_alg(den, QQ, asn) == 3


def test_num_den_add_rule():
    x, y = cc.var("x"), cc.var("y")
    num, den = cc.num_den(x / y + cc.const(1))
    asn = {"x": Fraction(3), "y": Fraction(5)}
    assert cc.eval_alg(num, QQ, asn) == 8  # x + y after the cross-multiply
    assert cc.eval_alg(den, QQ, asn) == 5
    assert cc.is_division_free(num) and cc.is_division_free(den)


def test_num_den_outputs_division_free():
    rng = SplitMix64(3)
    for _ in range(50):
        f = _rand_circuit(rng, 4)
        num, den = cc.num_den(f)
        assert cc.is_division_free(num) and cc.is_division_free(den)


def _rand_circuit(rng, depth):
    if depth == 0 or rng.below(3) == 0:
        return cc.var("xyz"[rng.below(3)]) if rng.below(2) else cc.const(rng.randint(-3, 3))
    ops = [cc.add, cc.mul, cc.div][rng.below(3)]
    return ops(_rand_circuit(rng, depth - 1), _rand_circuit(rng, depth - 1))


def test_evaluate_examples():
    assert cc.evaluate(cc.const(7), QQ, {}) == 7
    f = cc.var("x") / cc.var("y")
    assert cc.evaluate(f, QQ, {"x": Fraction(1), "y": Fraction(2)}) == Fraction(1, 2)
    with pytest.raises(ZeroDenominator):
        cc.evaluate(f, QQ, {"x": Fraction(1), "y": Fraction(0)})
    with pytest.raises(InvalidInput):
        cc.evaluate(f, QQ, {"x": Fraction(1)})


def test_evaluate_matches_naive():
    rng = SplitMix64(9)
    done = 0
    while done < 150:
        f = _rand_circuit(rng, rng.randint(1, 4))
        field = QQ if done % 2 == 0 else GF7
        asn = {v: field.from_int(rng.randint(-5, 5)) for v in "xyz"}
        try:
            naive = cc.eval_direct(f, field, asn)
        except ZeroDenominator:
            continue
        # wherever the naive pass is defined, both agree
        assert field.eq(cc.evaluate(f, field, asn), naive)
        done += 1


def test_distributivity_semantics():
    rng = SplitMix64(15)
    x, y, z = cc.var("x"), cc.var("y"), cc.var("z")
    lhs, rhs = x * (y + z), x * y + x * z
    for _ in range(50):
        asn = {v: Fraction(rng.randint(-6, 6)) for v in "xyz"}
        assert cc.evaluate(lhs, QQ, asn) == cc.evaluate(rhs, QQ, asn)


def test_sexpr_roundtrip():
    rng = SplitMix64(27)
    for _ in range(60):
        f = _rand_circuit(rng, rng.randint(1, 4))
        assert cc.parse_sexpr(cc.format_sexpr(f)) is f


def test_format_deep_chain():
    depth = 5000
    g = cc.const(1)
    for _ in range(depth):
        g = g + cc.const(1)
    text = cc.format_sexpr(g)
    assert text == "(add " * depth + "(const 1)" + " (const 1))" * depth
    assert repr(g) == f"Gate<{text}>"
    assert cc.parse_sexpr(text) is g


def test_format_refuses_exponential_trees():
    # x^(2^60) is 61 gates but 2^61 - 1 nodes written out as a tree
    g = cc.var("x")
    for _ in range(60):
        g = g * g
    start = time.perf_counter()
    with pytest.raises(SizeExceeded):
        cc.format_sexpr(g)
    assert repr(g) == "Gate<mul, 61 gates>"
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("bad", [
    "", "(", "(add (var x))", "(frob (var x) (var y))", "(const a)",
    "(add (var x) (var y)) junk", "(var x))", "(div (var x) (var y)",
])
def test_malformed_sexprs(bad):
    with pytest.raises(MalformedInput):
        cc.parse_sexpr(bad)
