"""The integer fixed-point kernels: every floor chain lives in
``stirling.fixed``, and the chain lemma its docstring states holds."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import mpmath
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from mpmath import libmp

import stirling
import stirling.fixed
from stirling.fixed import (_exp, _exp_table, _exp_walk, _lambda_series, _ln2, _ln2_floor, _log,
                            _log1m_ratio, _round_nearest)
from stirling.quadrature import _lambda_coeffs


def _factors(node):
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def _floors_running(name, value):
    """value is floor(name * ... >> s), floor(name * ... // q), or such a
    floor floored again, as in (x * y >> s) // j."""
    if not (isinstance(value, ast.BinOp) and isinstance(value.op, (ast.RShift, ast.FloorDiv))):
        return False
    while isinstance(value, ast.BinOp) and isinstance(value.op, (ast.RShift, ast.FloorDiv)):
        value = value.left
    return any(isinstance(f, ast.Name) and f.id == name for f in _factors(value))


class _ChainSites(ast.NodeVisitor):
    """The functions with a loop that floors a running integer: x = x y >>
    s, x = (x y >> s) // j, x = x y // q, or x //= q."""

    def __init__(self):
        self.function, self.sites = "<module>", set()

    def visit_FunctionDef(self, node):
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    def visit_For(self, node):
        for inner in ast.walk(node):
            if isinstance(inner, ast.AugAssign):
                if isinstance(inner.op, ast.FloorDiv) and isinstance(inner.target, ast.Name):
                    self.sites.add(self.function)
            elif isinstance(inner, ast.Assign) and len(inner.targets) == 1:
                target = inner.targets[0]
                if isinstance(target, ast.Name) and _floors_running(target.id, inner.value):
                    self.sites.add(self.function)
        self.generic_visit(node)

    visit_While = visit_For


def chain_sites():
    found = set()
    for path in Path(stirling.__file__).parent.glob("*.py"):
        visitor = _ChainSites()
        visitor.visit(ast.parse(path.read_text()))
        found |= {(path.name, function) for function in visitor.sites}
    return found


def test_only_fixed_floors_a_running_integer():
    # every series summed by a chain of floors is one of the kernels of
    # stirling.fixed, under its one lemma
    found = chain_sites()
    assert {name for name, _ in found} == {"fixed.py"}
    assert {("fixed.py", kernel) for kernel in (
        "_log1m_ratio", "_lambda_series", "_moments", "_moment_series", "_floor_terms",
        "_exp_bracket", "_even_power_sums", "_exp_walk", "_ln2_floor", "_exp_series",
        "_log_fixed")} <= found


def _chain(P, mu):
    """P_0 = P, P_(j+1) = floor(P_j mu), up to and with the first zero."""
    out = [P]
    while P:
        P = int(P * mu)  # mu >= 0, so int() is the floor
        out.append(P)
    return out


@st_.composite
def chains(draw):
    """(rho, mu, delta): a ratio rho <= 1/4 and its computed form, either
    M 2^-W with M = floor(rho 2^W), or 1/q for an integer q >= 4."""
    if draw(st_.booleans()):
        W = draw(st_.integers(1, 200))
        den = draw(st_.integers(1, 2**64))
        rho = Fraction(draw(st_.integers(0, den // 4)), den)
        mu = Fraction(int(rho * 2**W), 2**W)
        return rho, mu, rho - mu
    rho = Fraction(1, draw(st_.integers(4, 2**40)))
    return rho, rho, Fraction(0)


@settings(max_examples=300, deadline=None)
@given(ratio=chains(), P0=st_.integers(0, 2**300),
       frac=st_.fractions(0, 1).filter(lambda f: f < 1),
       divisors=st_.lists(st_.integers(1, 1000), min_size=1, max_size=8))
def test_floor_chain_lemma(ratio, P0, frac, divisors):
    # p_0 = P_0 + frac, so e_0 = frac; d_j is the last listed divisor past
    # the list, which makes the exact sum a finite rational
    rho, mu, delta = ratio
    P = _chain(P0, mu)
    J = len(P) - 1
    d = [divisors[min(j, len(divisors) - 1)] for j in range(max(J + 1, len(divisors)))]
    p = [(P0 + frac) * rho**j for j in range(len(d))]
    e = [frac]
    for j in range(J):
        e.append(rho * e[j] + delta * p[j] + 1)
    # (a): each P_j at most p_j, and short of it by less than e_j
    assert 0 <= p[0] - P[0] <= e[0]
    assert all(0 <= p[j] - P[j] < e[j] for j in range(1, J + 1))
    if delta == 0:
        assert all(p[j] - P[j] <= 1 / (1 - rho) for j in range(J + 1))
        if frac == 0 and mu.numerator <= 1:  # nested floors of 1/q
            assert all(P[j] == int(p[j]) for j in range(J + 1))
    # (b): the floor sum against the exact sum over all j, whose terms past
    # the last listed d_j form a geometric tail
    s = sum(P[j] // d[j] for j in range(J))
    exact = sum(pj / dj for pj, dj in zip(p[:-1], d)) + p[-1] / (d[-1] * (1 - rho))
    bound = sum((e[j] + d[j] - 1) / d[j] for j in range(J)) + e[J] / (min(d[J:]) * (1 - rho))
    assert 0 <= exact - s
    assert exact - s < bound if J >= 1 else exact - s <= bound


@settings(max_examples=200, deadline=None)
@given(r=st_.integers(40, 1200), data=st_.data())
def test_log1m_ratio_within_its_bound(r, data):
    # S(q) = -ln(1 - q) / q for q = Q 2^-r and for q just below (Q + 1)
    # 2^-r, both of which floor to Q: 0 <= 2^r S(q) - s < r/24 + 3
    Q = data.draw(st_.integers(0, (1 << (r - 24)) - 1))
    s = _log1m_ratio(Q, r)
    with mpmath.workprec(2 * r + 64):
        for q in (mpmath.ldexp(Q, -r), mpmath.ldexp(Q + 1, -r) - mpmath.ldexp(1, -2 * r)):
            exact = mpmath.ldexp(-mpmath.log1p(-q) / q if q else 1, r)
            assert 0 <= exact - s < r / 24 + 3, q


@settings(max_examples=200, deadline=None)
@given(R=st_.integers(64, 1120), D=st_.integers(45, 400), M=st_.integers(2**63, 2**64 - 1))
def test_lambda_series_within_its_bound(R, D, M):
    # S(x) = lambda(x) + x/2 = ln((1 - e^-x) / x) + x/2 at x = X 2^-R, X =
    # floor(M 2^(R-D-64)), so that 2^-(D+1) <= M 2^-(D+64) < 2^-D: within 1.1
    # n + 1.2 units of 2^-R, n = (R - 1) // (2 (R - bitlen X)) the most terms
    # the chain may add, with the coefficients a table at F = R builds
    X = M >> (D + 64 - R) if D + 64 >= R else M << (R - D - 64)
    n = (R - 1) // (2 * (R - X.bit_length()))
    coeffs = _lambda_coeffs(R)
    assert n <= len(coeffs)
    s = _lambda_series(X, R, coeffs)
    with mpmath.workprec(R + 64):
        x = mpmath.ldexp(X, -R)
        exact = mpmath.ldexp(mpmath.log(-mpmath.expm1(-x) / x) + x / 2, R) if X else 0
        assert abs(exact - s) < 1.1 * n + 1.2


@settings(max_examples=200, deadline=None)
@given(W=st_.integers(1, 300), den=st_.integers(1, 2**64), data=st_.data(),
       n=st_.integers(0, 120), drop=st_.integers(0, 1))
def test_exp_walk_within_its_bound(W, den, data, n, drop):
    # against the exact products p_k = 2^W rho^k, as Fractions, for a ratio
    # rho = e^c in (0, 4] and S = floor(2^W rho) or one below it, as the
    # node table takes it: each B_k at most p_k and short of it by less
    # than 3.04 k max(1, rho^k)
    rho = Fraction(data.draw(st_.integers(1, 4 * den)), den)
    S = max(0, int(rho * 2**W) - drop)
    B = list(_exp_walk(S, W, n))
    assert len(B) == n + 1 and B[0] == 2**W
    p = Fraction(2**W)
    for k in range(1, n + 1):
        p *= rho
        assert 0 <= p - B[k] < Fraction(304, 100) * k * max(1, rho**k), k


def test_ln2_is_the_exact_floor():
    # against ln 2 at 3,000 bits, for every p from 64 to 2,048: the chain
    # itself, widened where its first bracket straddles an integer, and the
    # memo, both shifted down and widened as p grows
    widened = 0
    with mpmath.workprec(3000):
        for p in range(64, 2049):
            floor = int(mpmath.floor(mpmath.ldexp(mpmath.ln2, p)))
            assert _ln2_floor(p) == _ln2(p) == floor, p
            s, P, J = 0, (2 << (p + 16)) // 3, 0  # the first bracket, [s, s + J]
            while P:
                s, P, J = s + P // (2 * J + 1), P // 9, J + 1
            widened += s >> 16 != (s + J) >> 16
    assert widened > 0


def nearest(f, prec):
    """f(), an mpmath function of the working precision, rounded to nearest
    at prec bits as a raw libmp value: taken at prec + 64 bits, and again
    at twice as many more while a value within 4 ulp of it at that
    precision could round otherwise (a near tie)."""
    extra = 64
    while True:
        with mpmath.workprec(prec + extra):
            x = f()
            slack = mpmath.ldexp(abs(x), 4 - prec - extra)
            lo, hi = (libmp.mpf_pos(v._mpf_, prec, "n") for v in (x - slack, x + slack))
        if lo == hi:
            return lo
        extra *= 2


@settings(max_examples=400, deadline=None)
@given(prec=st_.integers(64, 1100), data=st_.data())
@example(prec=105, data=(1, 52)).via("e^(2^-52), 2^-105 past a tie, where libmp rounds down")
@example(prec=200, data=(-1 << 303, 300)).via("y = -8, an integer")
@example(prec=700, data=(1, 703)).via("the last y short of the cut to 1")
@example(prec=1600, data=(-(3 << 1690) // 7, 1696)).via("past the Binet tables' precisions")
def test_exp_is_correctly_rounded_within_its_bound(prec, data):
    # y = Y 2^-cp exactly, |y| <= 700 of either sign and any magnitude:
    # e^y rounded to nearest at prec, against mpmath at prec + 64 bits, and
    # within half an ulp and 2^-(prec+6) e^y of e^y
    if isinstance(data, tuple):
        Y, cp = data
    else:
        cp = data.draw(st_.integers(0, prec + 128), label="cp")
        mag = data.draw(st_.integers(-prec - 32, 10), label="mag")
        top = min(700 << cp, 1 << max(0, cp + mag))
        Y = data.draw(st_.integers(-top, top), label="Y")
    man, e = _exp(Y, cp, prec)
    assert 0 < man <= 1 << prec
    assert libmp.from_man_exp(man, e) == nearest(lambda: mpmath.exp(mpmath.ldexp(Y, -cp)), prec)
    with mpmath.workprec(prec + 64):
        exact = mpmath.exp(mpmath.ldexp(Y, -cp))
        half_ulp = mpmath.ldexp(1, e + man.bit_length() - prec - 1)
        assert abs(mpmath.ldexp(man, e) - exact) < half_ulp + mpmath.ldexp(exact, -(prec + 6))


@st_.composite
def log_arguments(draw):
    """(V, e0) for v = V 2^e0 > 0: any, near 1 on either side, or a power
    of 2."""
    kind = draw(st_.sampled_from(("any", "near one", "power of two")))
    if kind == "any":
        return draw(st_.integers(1, 2**1300)), draw(st_.integers(-1500, 300))
    if kind == "power of two":
        return 1, draw(st_.integers(-3000, 3000))
    k = draw(st_.integers(1, 1300))
    b = draw(st_.integers(1, k))  # v = 1 +- d 2^-k, d of b bits
    d = draw(st_.integers(1 << (b - 1), (1 << b) - 1))
    return (1 << k) + draw(st_.sampled_from((-1, 1))) * d, -k


@settings(max_examples=300, deadline=None)
@given(prec=st_.integers(64, 1100), v=log_arguments())
@example(prec=1600, v=((1 << 2000) - 1, -2000)).via("just below 1, past the tables' precisions")
@example(prec=2048, v=(3, -1)).via("3/2")
@example(prec=1501, v=(10**600 + 7, -1990)).via("far from 1")
@example(prec=64, v=(1, 0)).via("ln 1 = 0 exactly")
def test_log_is_correctly_rounded(prec, v):
    # ln v rounded to nearest at prec, sign and all, against mpmath at
    # prec + 64 bits; (0, 0) at v = 1
    V, e0 = v
    man, e = _log(V, e0, prec)
    assert abs(man) <= 1 << prec
    if V << max(0, e0) == 1 << max(0, -e0):
        assert (man, e) == (0, 0)
    else:
        assert libmp.from_man_exp(man, e) == nearest(lambda: mpmath.log(mpmath.ldexp(V, e0)), prec)


def test_kernels_do_not_depend_on_the_table_width(monkeypatch):
    # the same exponentials and logs from a table built just wide enough
    # and from a wider one, whose entries shifted down are other floors
    monkeypatch.setattr(stirling.fixed, "_table_memo", (0, (), []))
    rng = random.Random(36)
    calls = []
    for prec in (64, 300, 832, 900):
        cp = prec + 96
        calls += [(_exp, rng.choice((-1, 1)) * rng.getrandbits(cp + rng.randint(-60, 9)), cp, prec)
                  for _ in range(20)]
        calls += [(_log, rng.getrandbits(prec + 40) | 1, -(prec + 40) + rng.randint(-60, 60), prec)
                  for _ in range(20)]
    first = [f(*args) for f, *args in calls]
    W = stirling.fixed._table_memo[0]
    assert W < 1200
    _exp_table(4000)
    assert stirling.fixed._table_memo[0] > 4000
    assert [f(*args) for f, *args in calls] == first


@settings(max_examples=300, deadline=None)
@given(prec=st_.integers(1, 1200), kept=st_.integers(1, 2**1200), dropped=st_.integers(0, 200),
       tie=st_.booleans(), e=st_.integers(-2000, 2000), data=st_.data())
@example(prec=8, kept=255, dropped=3, tie=True, e=0, data=None).via("a tie that carries")
def test_round_nearest_is_libmps_rounding(prec, kept, dropped, tie, e, data):
    # ties, half an ulp above and below one, and the carry to 2^prec
    # included: the value libmp's normalisation to nearest gives
    kept = kept >> max(0, kept.bit_length() - prec)
    low = 1 << (dropped - 1) if tie and dropped else data.draw(st_.integers(0, (1 << dropped) - 1))
    M = (kept << dropped) | low
    man, e2 = _round_nearest(M, e, prec)
    assert 0 < man <= 1 << prec
    assert libmp.from_man_exp(man, e2) == libmp.from_man_exp(M, e, prec, "n")


def test_exp_of_minus_one_is_libmps_power_of_e():
    # y = -1 is the u = 0 node's: libmp takes it above 600 bits as a power
    # of e, not by its series, and every node table from 64 to 1,024 bits
    # (wp = bits + 64) keeps its t~
    for wp in range(587, 1101):
        cp = wp + 96
        man, e = _exp(-1 << cp, cp, wp)
        assert libmp.from_man_exp(man, e) == libmp.mpf_exp(libmp.fnone, wp, "n"), wp


def test_exp_is_correctly_rounded_at_high_precision():
    # at 8,192 bits libmp's own exp is off by up to 3 ulp on such y, with
    # |y| between 2^-30 and 2^-10; the kernel rounds each correctly
    rng = random.Random(8192)
    for prec in (1486, 2048, 8192):
        cp = prec + 96
        for _ in range(30):
            Y = rng.choice((-1, 1)) * rng.getrandbits(cp + rng.randint(-30, -10))
            exact = nearest(lambda: mpmath.exp(mpmath.ldexp(Y, -cp)), prec)
            assert libmp.from_man_exp(*_exp(Y, cp, prec)) == exact
