import os
import random
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import exactla
from exactla import circuit as cc
from exactla.combinatorics import (MAX_VERTICES, Graph, SetFamily,
                                   _ball, _count_basis, _elim_rank,
                                   binom, binom_table,
                                   clique_number, fisher_check,
                                   graham_pollak_check, grolmusz_graph,
                                   independence_number, lincoeff,
                                   oddtown_check, or_poly_mod_pe, ramsey_check,
                                   rcw_verify, subset_rank, subset_unrank,
                                   subsets_up_to)
from exactla.errors import (CapExceeded, CertificateFailed, InvalidInput,
                            NotLIntersecting, PreconditionViolated, ScaleExceeded)
from exactla.field import GF2, GF3, QQ, PrimeField
from exactla.matrix import Matrix
from exactla.oracles import gauss_rank


def test_binom():
    assert binom(5, 0) == 1
    assert binom(4, 2) == 6
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom_table(4, 2)[4] == [1, 4, 6]


def test_ball_is_the_sum_of_binomials():
    for n in range(-2, 15):
        for s in range(-2, 17):
            assert _ball(n, s) == sum(binom(n, i) for i in range(s + 1)), (n, s)


def test_subset_ranking_bijective():
    subsets = subsets_up_to(3, 1)
    assert [subset_rank(3, S, 1) for S in subsets] == [1, 2, 3, 4]
    assert subset_rank(5, frozenset(), 2) == 1
    total = sum(binom(5, i) for i in range(3))
    for x in range(1, total + 1):
        assert subset_rank(5, subset_unrank(5, x, 2), 2) == x
    assert subsets_up_to(4, 2) == [
        frozenset(), {1}, {2}, {3}, {4},
        {1, 2}, {1, 3}, {2, 3}, {1, 4}, {2, 4}, {3, 4}]
    for n in range(7):
        for s in range(8):  # s > n and s = 0 included
            total = sum(binom(n, i) for i in range(s + 1))
            assert ([subset_rank(n, S, s) for S in subsets_up_to(n, s)]
                    == list(range(1, total + 1)))


def test_lincoeff_multilinear():
    x1, x2 = cc.var("x1"), cc.var("x2")
    coeffs = lincoeff(x1 * x2 + x1, QQ, ["x1", "x2"])
    assert coeffs[frozenset({1, 2})] == 1
    assert coeffs[frozenset({1})] == 1
    # squaring collapses on 0/1 inputs: x^2 has the same table as x
    sq = lincoeff(x1 * x1, QQ, ["x1", "x2"])
    assert sq[frozenset({1})] == 1 and frozenset({1, 2}) not in sq


def test_count_basis_is_the_multilinearization():
    # the witness prod_{l in L, l < |S|} (sum_{j in S} x_j - l), multilinearized
    # monomial by monomial, has coefficient c_|T| on x_T for every T in S
    for size in range(9):
        S = range(2, 2 * size + 1, 2)
        names = [f"x{j}" for j in range(1, 2 * size + 1)]
        inner = cc.const(0)
        for j in S:
            inner = inner + cc.var(f"x{j}")
        for mask in range(32):
            L = [lk for lk in range(5) if mask >> lk & 1]
            witness = cc.const(1)
            for lk in L:
                if lk < size:
                    witness = witness * (inner + cc.const(-lk))
            c = _count_basis(L, size)
            want = {frozenset(T): c[t] for t in range(len(c))
                    for T in combinations(S, t) if c[t]}
            assert lincoeff(witness, QQ, names) == want, (size, L)


def test_rcw_triangle():
    fam = SetFamily(3, [{1, 2}, {2, 3}, {1, 3}])
    report = rcw_verify(fam, [1])
    assert report["m"] == 3 and report["bound"] == 4
    assert report["bound_holds"] and report["upper_triangular"]


def test_rcw_sunflower_of_singletons():
    fam = SetFamily(4, [{1}, {2}, {3}, {4}])
    report = rcw_verify(fam, [0])
    assert report["diag_nonzero"] and report["bound_holds"]


def test_rcw_single_set_empty_l():
    report = rcw_verify(SetFamily(3, [{1, 2}]), [])
    assert report["m"] == 1 and report["bound"] == 1


def test_rcw_cost_follows_the_members():
    # three small members over 600 points: the cross-check works in the count
    # basis, not over all 180,301 monomials of degree <= 2
    start = time.perf_counter()
    report = rcw_verify(SetFamily(600, [{1, 2}, {2, 3}, {4, 5}]), [0, 1])
    assert time.perf_counter() - start < 2
    assert report == {"m": 3, "n": 600, "s": 2, "bound": 180301,
                      "upper_triangular": True, "diag_nonzero": True,
                      "bound_holds": True}


def test_rcw_walks_each_witness_once(monkeypatch):
    walks = []
    postorder = cc._postorder
    monkeypatch.setattr(cc, "_postorder", lambda root: walks.append(root) or postorder(root))
    fam = SetFamily(9, [{1, 2, 3 * a + 3, 3 * a + 4, 3 * a + 5} for a in range(2)]
                    + [{1, 2}])
    assert rcw_verify(fam, [2])["bound_holds"]
    assert len(walks) == 3 and len(set(map(id, walks))) == 3


def test_rcw_rejects_bad_intersections():
    fam = SetFamily(4, [{1, 2}, {2, 3}, {3, 4}])
    with pytest.raises(NotLIntersecting) as err:
        rcw_verify(fam, [0])  # {1,2} and {2,3} share one element
    assert err.value.witness == (1, 2, 1)
    assert str(err.value) == "sets 1 and 2 intersect in 1 points, not in L"
    # the first offending pair in (i, j) order, not the first pair of sets
    with pytest.raises(NotLIntersecting) as err:
        rcw_verify(SetFamily(4, [{1}, {2}, {1, 3}, {3}]), [0])
    assert err.value.witness == (1, 3, 1)
    assert str(err.value) == "sets 1 and 3 intersect in 1 points, not in L"


def test_oddtown_singletons():
    fam = SetFamily(5, [{i} for i in range(1, 6)])
    report = oddtown_check(fam)
    assert report["m"] == 5 and report["gf2_rank"] == 5


def test_oddtown_rejections():
    with pytest.raises(PreconditionViolated) as err:
        oddtown_check(SetFamily(4, [{1, 2}]))  # even size
    assert err.value.witness == 1 and str(err.value) == "set 1 has even size 2"
    with pytest.raises(PreconditionViolated) as err:
        oddtown_check(SetFamily(4, [{1, 2, 3}, {3}]))  # odd intersection
    assert err.value.witness == (1, 2)
    assert str(err.value) == "sets 1 and 2 intersect oddly (1)"
    with pytest.raises(PreconditionViolated) as err:
        oddtown_check(SetFamily(4, [{1}, {2}, {1, 2, 3}, {4}]))
    assert err.value.witness == (1, 3)
    assert str(err.value) == "sets 1 and 3 intersect oddly (1)"


def test_fisher_degenerate_rejected():
    fam = SetFamily(3, [{1, 2, 3}, {1, 2, 3}])
    with pytest.raises(PreconditionViolated) as err:
        fisher_check(fam, 3)  # |A_i| > lambda fails
    assert err.value.witness == 1
    assert str(err.value) == "set 1 has size 3 <= lambda"
    with pytest.raises(PreconditionViolated) as err:
        fisher_check(SetFamily(4, [{1, 2}, {1, 3}, {1, 2, 3}, {1, 4}]), 1)
    assert err.value.witness == (1, 3)
    assert str(err.value) == "sets 1 and 3 intersect in 2 != lambda"


def test_fisher_accepts():
    fam = SetFamily(4, [{1, 2}, {1, 3}, {1, 4}])
    report = fisher_check(fam, 1)
    assert report["bound_holds"] and report["gram_det"] != 0


def test_graham_pollak_two_stars():
    report = graham_pollak_check(3, [({1}, {2, 3}), ({2}, {3})])
    assert report["count"] == 2 and report["bound_holds"]
    # a generator is read once, so its bicliques are counted, not exhausted
    assert graham_pollak_check(3, (b for b in [({1}, {2, 3}), ({2}, {3})])) == report


def test_graham_pollak_rejects_cover_errors():
    with pytest.raises(PreconditionViolated):
        graham_pollak_check(3, [({1}, {2, 3})])  # edge {2,3} missing
    with pytest.raises(PreconditionViolated):
        graham_pollak_check(3, [({1}, {2, 3}), ({2}, {1, 3})])  # {1,2} twice


def test_or_poly_parity():
    spec = or_poly_mod_pe(2, 2, 1)
    assert spec.coeffs == (0, 1)  # f = s_1
    assert spec.eval_count(0) == 0 and spec.eval_count(1) == 1


def test_or_poly_mod_four():
    spec = or_poly_mod_pe(4, 2, 2)
    for j in range(10):
        assert (spec.eval_count(j) == 0) == (j % 4 == 0)


def test_or_poly_mod_three():
    spec = or_poly_mod_pe(3, 3, 1)
    assert spec.eval_count(0) == 0
    assert spec.eval_count(1) == spec.eval_count(2) != 0


def test_or_poly_guards():
    with pytest.raises(InvalidInput):
        or_poly_mod_pe(100, 2, 1)  # q^2 < k
    with pytest.raises(InvalidInput):
        or_poly_mod_pe(4, 2, 5)  # q > 16
    with pytest.raises(InvalidInput, match="modulus 25 above"):
        or_poly_mod_pe(4, 5, 2)
    with pytest.raises(InvalidInput, match=r"modulus 3\^100000000 above"):
        or_poly_mod_pe(1, 3, 10 ** 8)  # refused before 3^(10^8) is computed


def test_grolmusz_k2():
    built = grolmusz_graph(2)
    assert built["n"] == 4 and built["edge_rule"] == "odd"
    G = built["graph"]
    for i in range(G.n):
        assert not G.rows[i][i]
    report = ramsey_check(G, built["rank2"], built["rank3"])
    assert report["bounds_hold"]
    assert report["clique"] <= built["rank2"] + 1
    assert report["independence"] <= binom(built["rank3"] + 1, 2) + 1
    # clique 2 beats the bound rank2 + 1 = 1
    with pytest.raises(CertificateFailed):
        ramsey_check(G, rank2=0, rank3=0)


def test_ramsey_bound_failure_raises_under_optimize():
    code = ("from exactla.combinatorics import grolmusz_graph, ramsey_check\n"
            "from exactla.errors import CertificateFailed\n"
            "try:\n"
            "    ramsey_check(grolmusz_graph(2)['graph'], rank2=0, rank3=0)\n"
            "except CertificateFailed:\n"
            "    print(__debug__, 'raised')\n")
    src = str(Path(exactla.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert out.stdout == "False raised\n"


def test_one_vertex_limit():
    assert MAX_VERTICES == 256
    with pytest.raises(CapExceeded, match="257 vertices; pass an explicit cap <= 256"):
        grolmusz_graph(5, cap=257)
    with pytest.raises(ScaleExceeded, match="257 vertices"):
        clique_number(Graph([[0] * 257 for _ in range(257)]))


def _residue_matrix(rng, p, m, n):
    """An m x n matrix of residues mod p of rank at most a random r, with a
    zero row and a repeated row mixed in once m allows."""
    r = rng.randint(0, min(m, n))
    B = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
    C = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    rows = [[sum(b * c for b, c in zip(row, col)) % p for col in zip(*C)] if r else [0] * n
            for row in B]
    if m >= 3:
        rows[rng.randrange(m)] = [0] * n
        rows[rng.randrange(m)] = list(rows[rng.randrange(m)])
    return rows


@pytest.mark.parametrize("field", [GF2, GF3, PrimeField(1000003), PrimeField(2 ** 61 - 1)],
                         ids=["GF2", "GF3", "GF1000003", "GF2^61-1"])
def test_elim_rank_matches_the_oracle(field):
    rng = random.Random(field.p)
    sizes = (1, 2, 3, 5, 8, 13, 21, 30)
    for m in sizes:
        for n in sizes:
            rows = _residue_matrix(rng, field.p, m, n)
            assert _elim_rank(field.p, rows) == gauss_rank(Matrix(field, rows)), (m, n)


def test_grolmusz_k3_capped():
    built = grolmusz_graph(3, cap=27)
    assert built["n"] == 27
    assert ramsey_check(built["graph"], built["rank2"], built["rank3"])["bounds_hold"]


def _largest_subset(n, joined):
    """The largest k such that some k of the vertices 0..n-1 are pairwise
    joined, by trying every subset of each size k = 1, 2, ... in turn: a
    subset of a joined set is joined, so none of size k means none above."""
    size = 0
    while size < n and any(all(joined(i, j) for i, j in combinations(S, 2))
                           for S in combinations(range(n), size + 1)):
        size += 1
    return size


@given(n=st.integers(0, 12), density=st.floats(0, 1), rng=st.randoms(use_true_random=False))
def test_clique_and_independence_numbers_match_subset_search(n, density, rng):
    rows = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        rows[i][j] = rows[j][i] = int(rng.random() < density)
    G = Graph(rows)
    assert clique_number(G) == _largest_subset(n, lambda i, j: rows[i][j])
    assert independence_number(G) == _largest_subset(n, lambda i, j: not rows[i][j])


def test_clique_extremes():
    empty = Graph([[0] * 4 for _ in range(4)])
    assert clique_number(empty) == 1
    assert independence_number(empty) == 4
    complete = empty.complement()
    assert clique_number(complete) == 4
    assert independence_number(complete) == 1
    assert ramsey_check(empty, 3, 3)["clique"] == 1
