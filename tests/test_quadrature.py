"""The node table of the half-line map t = exp(u - e^-u) and its moments,
and the one sum over it: its work cap, its work per node, and the
discretisation, truncation and rounding parts of its error bound."""

import ast
import hashlib
import inspect
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp

import stirling.fixed
import stirling.oracle
import stirling.quadrature
from stirling.bernoulli import table as bernoulli_table
from stirling.errors import ConvergenceError
from stirling.mpcore import PrecisionCtx, to_raw
from stirling.oracle import lngamma_binet2
from stirling.quadrature import half_line_nodes

# nodes with t >= 1/8, each summed by one integer division
DIVISIONS = {64: 35, 256: 136, 768: 463}

# sha256 of each table's rows, split and moments (``table_digest``)
TABLE_SHA256 = {
    64: "51b18303b6b6b5a8fb985b08148cfc821e504cf12257100f0f67a28ba35040b6",
    256: "6aea49b29097e1d5138b487cd597af45356a0607cecd513f4431cb20d3832b11",
    320: "53e42c572df561416673270bf9fe9007d14b0e4916962478d765be4d484a82c8",
    768: "6e459a04ba426b2cab4b58d2d6c6e2bd04834b737fc108be7348e046a923931d",
}


def table(bits):
    m, j_left, j_right, *_ = stirling.oracle._binet_plan(bits)
    return m, j_left, j_right, half_line_nodes(bits + 64, m, j_left, j_right)[0]


def division_nodes(bits):
    """The nodes with t >= 1/8, counted from the table itself."""
    F = bits + 96
    return sum(1 for T2, _ in table(bits)[3] if T2 >= 1 << (F - 6))


def walk(wp, m, j_left, j_right):
    """(j, t~) for each table row, in the order half_line_nodes builds
    them: its walk of e^-u on integers at cp fractional bits redone, and t~
    = e^y at wp, so that each weight can be checked at the table's own
    t~."""
    cp = wp + 96
    for sign, first, last in ((1, 0, j_right), (-1, 1, j_left)):
        step = libmp.mpf_exp(libmp.from_rational(-sign, m, cp + 8, "n"), cp + 8, "n")
        ratio = libmp.to_fixed(step, cp) - 1
        b = 1 << cp  # e^-u in units of 2^-cp
        for k in range(last + 1):
            if k >= first:
                y = libmp.from_man_exp((sign * k << cp) // m - b, -cp)
                yield sign * k, libmp.mpf_exp(y, wp, "n")
            b = b * ratio >> cp


def ell(t):
    """l(t) = -ln(1 - e^(-2 pi t)), at the working precision of mpmath."""
    return -mpmath.log(-mpmath.expm1(-2 * mpmath.pi * t))


def weight(u, t):
    """(1 + e^-u) t l(t) / pi: the integrand at u, taken at the node t, is
    this times z / (z^2 + t^2)."""
    return (1 + mpmath.exp(-u)) * t * ell(t) / mpmath.pi


def term(u, t, z):
    return weight(u, t) * z / (z * z + t * t)


def test_binet_budget_exhaustion(monkeypatch):
    # at 256 bits the plan needs 301 nodes, so a cap of 100 fails before any
    # node of a table is built
    monkeypatch.setattr(stirling.oracle, "BINET_MAX_NODES", 100)
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    built = []
    real_node = stirling.quadrature._node
    monkeypatch.setattr(stirling.quadrature, "_node",
                        lambda *a: built.append(a) or real_node(*a))
    with pytest.raises(ConvergenceError):
        lngamma_binet2(5, PrecisionCtx(256))
    assert stirling.quadrature._CACHE == {} and built == []


def test_nodes_cached_and_inside_interval():
    m, j_left, j_right, nodes = table(128)
    assert nodes is table(128)[3]
    assert len(nodes) == j_left + j_right + 1
    for T2, W in nodes:
        assert T2 >= 0 and W > 0


def table_digest(bits):
    """sha256 of a table's rows, split and moments, each integer in hex."""
    m, j_left, j_right, *_ = stirling.oracle._binet_plan(bits)
    nodes, split, moments, _ = half_line_nodes(bits + 64, m, j_left, j_right)
    text = (";".join(f"{T2:x},{W:x}" for T2, W in nodes) + f"|{split}|"
            + ",".join(f"{s:x}" for s in moments))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("bits", sorted(TABLE_SHA256))
def test_tables_are_pinned(bits):
    assert table_digest(bits) == TABLE_SHA256[bits]


@pytest.mark.parametrize("wp", [128, 320, 832])
def test_nodes_match_mpmath(wp):
    # against mpmath at wp + 128: t~ within a relative 3 2^-wp of
    # exp(u - e^-u), T2 = floor(t~^2 2^F) exactly, and W 2^-F within
    # [w - 2^-F - 2^-(F+4), w + 2^-(F+4)] of the weight w = (1 + e^-u) t~
    # l(t~) at the table's own t~ (see the quadrature docstring); at 832
    # bits only the rows with t < 2^-48, whose l(t) comes from its series
    m, j_left, j_right, nodes = table(wp - 64)
    F = half_line_nodes(wp, m, j_left, j_right)[3]
    assert F == wp + 32
    rows = list(zip(walk(wp, m, j_left, j_right), nodes, strict=True))
    if wp == 832:
        rows = [row for row in rows if row[0][1][2] + row[0][1][3] <= -48]
        assert len(rows) > 250
    with mpmath.workprec(wp + 128):
        for (j, t_raw), (T2, W) in rows:
            u = mpmath.mpf(j) / m
            t = mpmath.mpf(t_raw)
            assert abs(t / mpmath.exp(u - mpmath.exp(-u)) - 1) <= 3 * mpmath.ldexp(1, -wp), j
            exact_t2 = Fraction(*libmp.to_rational(t_raw)) ** 2 * 2**F
            assert T2 == exact_t2.numerator // exact_t2.denominator, j
            gap = (1 + mpmath.exp(-u)) * t * ell(t) - mpmath.ldexp(W, -F)
            assert -mpmath.ldexp(1, -(F + 4)) <= gap < mpmath.ldexp(17, -(F + 4)), j


@pytest.mark.parametrize("bits", [64, 768])
def test_cold_table_work_per_node(monkeypatch, count_calls, bits):
    # no node calls libmp's exponential: t and l's q come from fixed._exp,
    # and libmp's mpf_exp takes only the walk's two ratios.  A log only for
    # the nodes between the series and the chain, besides the 19 the
    # table's constants take, and one from_man_exp for its argument: no
    # call a series or chain node, 2 a node between, and 64 for the table's
    # constants and the walk's two ratios
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    m, j_left, j_right, *_ = stirling.oracle._binet_plan(bits)
    short = chain = 0
    for _, t_raw in walk(bits + 64, m, j_left, j_right):
        short += t_raw[2] + t_raw[3] <= -48
        chain += mpmath.mpf(t_raw) * 2 * mpmath.pi >= 17
    counts = count_calls(*(name for name, f in vars(libmp).items() if inspect.isfunction(f)))
    n = len(table(bits)[3])
    calls = {name: tally[0] for name, tally in counts.items() if tally[0]}
    assert short > 0 and chain > 0
    between = n - short - chain
    assert calls.pop("mpf_exp") == 2
    assert calls.pop("mpf_log") == between + 19
    assert "mpf_mul" not in calls and "mpf_sub" not in calls
    assert calls.pop("from_rational") == 2 + 17  # the walk's two ratios, the anchors
    assert calls.pop("from_man_exp") == between
    # the 19 logs and the walk's two ratios to fixed point, pi, 2 pi and 2
    assert calls == {"to_fixed": 19 + 2, "mpf_pi": 1, "mpf_shift": 1, "from_int": 1}
    total = sum(tally[0] for tally in counts.values())
    assert total == 2 * between + 64
    assert bits == 64 or total < 5 * n


@pytest.mark.parametrize("bits", [64, 256])
def test_the_weight_check_is_the_one_precision_rule(monkeypatch, bits):
    # each node's first guess at mag w, its predecessor's, passes the check
    # after the weight at every node; a guess 8 bits lower fails it, and the
    # retry at F + 8 + mag w gives the same table
    m, j_left, j_right, nodes = table(bits)
    real_node, real_ell = stirling.quadrature._node, stirling.quadrature._ell
    for lower in (0, 8):
        monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
        monkeypatch.setattr(stirling.quadrature, "_node",
                            lambda *a, d=lower: real_node(*a[:-1], a[-1] - d))
        ells = []
        monkeypatch.setattr(stirling.quadrature, "_ell",
                            lambda *a: ells.append(a) or real_ell(*a))
        assert half_line_nodes(bits + 64, m, j_left, j_right)[0] == nodes
        retries = len(ells) - len(nodes)
        assert retries > len(nodes) // 2 if lower else retries == 0


def test_a_series_past_the_bernoulli_cap_takes_the_middle_form(monkeypatch, count_calls):
    # a node with t < 2^-48 whose chain would need more coefficients than
    # the Bernoulli table's cap allows (only past about 23,000 bits) takes
    # the middle form instead, shown here with the cap cut to 4: a table
    # holds up to (F + 17) // 90 coefficients, and 2 under that cap
    wp = 320
    F, cp = wp + 32, wp + 96
    m, j_left, j_right, *_ = stirling.oracle._binet_plan(wp - 64)
    assert len(stirling.quadrature._lambda_coeffs(F)) == (F + 17) // 90 == 4
    assert len(stirling.quadrature._lambda_coeffs(10**5)) == 256
    logs = count_calls("mpf_log")
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    nodes = half_line_nodes(wp, m, j_left, j_right)[0]
    full = logs["mpf_log"][0]
    monkeypatch.setattr(bernoulli_table(), "cap", 4)
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    consts = stirling.quadrature._constants(wp)
    assert len(consts[-1]) == 2
    # at prec = 330, R = 338: t near 2^-48 needs 337 // 90 = 3 coefficients,
    # so it takes a log; t near 2^-200 needs none
    with mpmath.workprec(wp + 128):
        for mag, needs_log in ((-48, 1), (-200, 0)):
            t = libmp.from_man_exp(0xb504f333f9de6484597d89b3754abe9f, mag - 128)
            Y = libmp.to_fixed(libmp.mpf_log(t, cp, "n"), cp)
            logs["mpf_log"][0] = 0
            L, e = stirling.quadrature._ell(t[1:3], Y, 330, consts)
            assert logs["mpf_log"][0] == needs_log
            assert abs(mpmath.ldexp(L, e) / ell(mpmath.mpf(t)) - 1) < mpmath.ldexp(1, -330)
    # the table built so takes more logs, keeps every T2, and moves no W by
    # more than a unit
    logs["mpf_log"][0] = 0
    cut = half_line_nodes(wp, m, j_left, j_right)[0]
    assert logs["mpf_log"][0] > full
    assert [T2 for T2, _ in cut] == [T2 for T2, _ in nodes]
    assert all(abs(a - b) <= 1 for (_, a), (_, b) in zip(cut, nodes, strict=True))


def test_quadrature_holds_no_floating_point():
    # mag w comes from the integers of the table, and l(t) from libmp and
    # the kernels of stirling.fixed, which take e^y and its squaring counts
    # on integers: no math transcendental, no conversion to a float, no
    # float literal in either; fixed takes only math's isqrt, comb and lcm
    found = []
    for module, allowed in ((stirling.quadrature, ()), (stirling.fixed, ("isqrt", "comb", "lcm"))):
        for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found.append(node.value)
            elif isinstance(node, ast.Import):
                found += [a.name for a in node.names
                          if a.name == "cmath" or a.name == "math" and not allowed]
            elif isinstance(node, ast.ImportFrom) and node.module in ("math", "cmath"):
                found.append(node.module)
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "to_float"
                    or isinstance(node.value, ast.Name) and (
                        node.value.id == "cmath"
                        or node.value.id == "math" and node.attr not in allowed)):
                found.append(node.attr)
            elif isinstance(node, ast.Name) and node.id == "float":
                found.append(node.id)
    assert found == []


@pytest.mark.parametrize("bits", [64, 256, 768])
def test_nodes_split_at_an_eighth_with_their_moments(bits):
    # the nodes with t < 1/8 (T2 < 2^(F-6)) are the table's tail, and every
    # node before it has t >= 1/8; S_k sums the chain W (T2 2^-F)^k over
    # the tail in units of 2^-F, each step at least 64-fold smaller, and
    # each node's floors lower its share by less than 64/63
    wp = bits + 64
    m, j_left, j_right, nodes = table(bits)
    got, split, moments, F = half_line_nodes(wp, m, j_left, j_right)
    assert got is nodes and split == division_nodes(bits) == DIVISIONS[bits]
    assert all(T2 < 1 << (F - 6) for T2, _ in nodes[split:])
    assert all(T2 >= 1 << (F - 6) for T2, _ in nodes[:split])
    assert all(64 * later <= earlier for earlier, later in zip(moments, moments[1:]))
    assert moments[-1] > 0
    tail = nodes[split:]
    for k in (0, 1, 5, len(moments) - 1):
        # the exact sum is num 2^(-F k) in units of 2^-F
        num = sum(W * T2**k for T2, W in tail)
        gap = num - (moments[k] << (F * k))
        assert 0 <= gap and 63 * gap < (64 * len(tail)) << (F * k), k


@pytest.mark.parametrize("bits", [64, 256, 768])
@pytest.mark.parametrize("z", [Fraction(1), Fraction(22, 7), Fraction(10**6), Fraction(2)**400])
def test_moment_series_within_its_proven_bound(z, bits):
    # the series over the moments against E = sum W a / (1 + t^2 a^2), a =
    # 1/z and t^2 = T2 2^-F, at 2F + 64 bits: off by less than N_s (0.7 F
    # + 24) units of 2^-F (see fixed._moment_series); z = 2^400 is past 2^F
    # at 64 bits, where every term is 0
    wp = bits + 64
    z_raw = to_raw(z, wp)
    m, j_left, j_right, _ = table(bits)
    nodes, split, moments, F = half_line_nodes(wp, m, j_left, j_right)
    num, den = libmp.to_rational(z_raw)
    series = stirling.fixed._moment_series(moments, (den << F) // num, F)
    with mpmath.workprec(2 * F + 64):
        a = mpmath.mpf(den) / num
        exact = sum(W * a / (1 + mpmath.ldexp(T2, -F) * a * a) for T2, W in nodes[split:])
        assert abs(series - exact) < (len(nodes) - split) * (0.7 * F + 24)


def test_warm_and_shifted_calls_build_no_table_and_no_moments(monkeypatch):
    # the moments live with their table: a second call at the same
    # precision and a z < 1 (taken at z + 1) reuse both
    ctx = PrecisionCtx(256)
    lngamma_binet2(Fraction(22, 7), ctx)
    before = dict(stirling.quadrature._CACHE)
    built = []
    real_node, real_moments = stirling.quadrature._node, stirling.quadrature._moments
    monkeypatch.setattr(stirling.quadrature, "_node",
                        lambda *a: built.append("node") or real_node(*a))
    monkeypatch.setattr(stirling.quadrature, "_moments",
                        lambda *a: built.append("moments") or real_moments(*a))
    second = lngamma_binet2(Fraction(23, 7), ctx)
    shifted = lngamma_binet2(Fraction(1, 1000), ctx)
    assert built == []
    assert stirling.quadrature._CACHE.keys() == before.keys()
    assert all(stirling.quadrature._CACHE[key] is value for key, value in before.items())
    assert second.diagnostics["divisions"] == shifted.diagnostics["divisions"] == DIVISIONS[256]


def test_small_z_reuses_the_unit_tables():
    # z = 1/1000 is shifted to 1.001: no new node table, no extra node
    ctx = PrecisionCtx(256)
    one = lngamma_binet2(1, ctx)
    keys = set(stirling.quadrature._CACHE)
    small = lngamma_binet2(Fraction(1, 1000), ctx)
    assert set(stirling.quadrature._CACHE) == keys
    assert small.diagnostics["nodes"] == one.diagnostics["nodes"] > 0
    assert small.diagnostics["divisions"] == one.diagnostics["divisions"] > 0


def test_binet_loop_divides_once_per_evaluation(count_calls):
    # 1/z is taken once, as the integer floor(2^F / z), each node with
    # t >= 1/8 divides integers, and the sum is divided by m pi once
    ctx = PrecisionCtx(256)
    lngamma_binet2(3, ctx)
    counts = count_calls("mpf_div")
    lngamma_binet2(Fraction(22, 7), ctx)
    assert counts["mpf_div"][0] == 1


@pytest.mark.parametrize("bits", [256, 768])
def test_warm_call_takes_no_exponential_arctan_or_node_log(monkeypatch, bits):
    # every transcendental of a node lives in its cached table: a warm
    # evaluation takes no exponential and no arctan, and its only logs are
    # ln z of P(z), and of z itself when z < 1 is shifted to z + 1; ln(2 pi)
    # is taken once per precision
    ctx = PrecisionCtx(bits)
    wp = bits + 64
    lngamma_binet2(3, ctx)
    calls = {"mpf_exp": [], "mpf_atan": [], "mpf_log": []}
    for name, seen in calls.items():
        def spy(x, *rest, real=getattr(libmp, name), seen=seen):
            seen.append(x)
            return real(x, *rest)
        monkeypatch.setattr(libmp, name, spy)
    small = to_raw(Fraction(1, 1000), wp)
    for z, logs in ((Fraction(22, 7), [to_raw(Fraction(22, 7), wp)]),
                    (Fraction(1, 1000), [libmp.mpf_add(small, libmp.fone), small])):
        for seen in calls.values():
            seen.clear()
        lngamma_binet2(z, ctx)
        assert calls["mpf_exp"] == calls["mpf_atan"] == []
        assert calls["mpf_log"] == logs


@pytest.mark.parametrize("bits, most", [(256, 450), (768, 1500)])
def test_one_evaluation_takes_one_division_per_node(bits, most):
    # one division per node with t >= 1/8, at every z > 0; the nodes with
    # t < 1/8 go into the series over the table's moments
    ctx = PrecisionCtx(bits)
    for z in (Fraction(22, 7), Fraction(1, 1000), Fraction(10**20)):
        ov = lngamma_binet2(z, ctx)
        assert ov.diagnostics["divisions"] == division_nodes(bits) == DIVISIONS[bits]
        assert ov.diagnostics["nodes"] == len(table(bits)[3]) <= most
    assert ov.diagnostics["step_m"] == table(bits)[0]


@pytest.mark.parametrize("bits", [64, 256, 768])
@pytest.mark.parametrize("z", [Fraction(1), Fraction(10**6), Fraction(22, 7)],
                         ids=["z1", "z2", "z3"])
def test_fixed_point_sum_within_its_rounding_bound(z, bits):
    # the exact terms at the table's own nodes t~, summed with mpmath at
    # wp + 64: the integer sum of floored weights over one division each,
    # with the series over the moments for t < 1/8 (the integral sees only
    # z >= 1), may differ from that by no more than the rounding part, and
    # the integral, rounded to wp, by one ulp there more, which
    # lngamma_binet2 charges through mpcore._Ball
    wp = bits + 64
    z_raw = to_raw(z, wp)
    integral, _, parts = stirling.oracle._binet_integral(z_raw, bits)
    rounding = parts["rounding"]
    m, j_left, j_right, _ = table(bits)
    with mpmath.workprec(wp + 64):
        zm = mpmath.mpf(z_raw)
        total = sum(term(mpmath.mpf(j) / m, mpmath.mpf(t_raw), zm)
                    for j, t_raw in walk(wp, m, j_left, j_right))
        ulp = mpmath.ldexp(1, integral[2] + integral[3] - wp)
        assert abs(mpmath.mpf(integral) - total / m) <= mpmath.mpf(rounding) + ulp
    assert libmp.mpf_le(rounding, libmp.from_man_exp(1, -(bits + 40)))


def phi(u):
    return mpmath.exp(u - mpmath.exp(-u))


def dropped(m, j, sign):
    """h sum of the terms at u = sign k/m, k > j, at z = 1, summed until
    they stop mattering."""
    total = 0
    while True:
        j += 1
        u = mpmath.mpf(sign * j) / m
        step = term(u, phi(u), 1)
        if step < mpmath.ldexp(total, -64):
            return total / m
        total += step


def right_tail(t):
    """The bound of _binet_plan on the terms past a right node at t."""
    return 1 / (2 * mpmath.pi**2 * mpmath.expm1(2 * mpmath.pi * t))


def left_tail(t):
    """The bound of _binet_plan on the terms before a left node at t."""
    return t * (1 - mpmath.log(2 * mpmath.pi * t) + mpmath.pi * t / 2) / mpmath.pi


@pytest.mark.parametrize("bits", [64, 128])
def test_omitted_right_nodes_within_their_bound(bits):
    # the terms past J_R against the right-end part of the truncation bound
    m, _, j_right, _, truncation, t_max = stirling.oracle._binet_plan(bits)
    with mpmath.workprec(bits + 96):
        end = phi(mpmath.mpf(j_right) / m)
        assert 0 < dropped(m, j_right, 1) <= right_tail(end) <= mpmath.mpf(truncation)
        assert end < t_max
    assert libmp.mpf_le(truncation, libmp.from_man_exp(1, -(bits + 31)))


@pytest.mark.parametrize("bits", [64, 128])
def test_omitted_left_nodes_within_their_bound(bits):
    # the terms before -J_L against the left-end part of the truncation bound
    m, j_left, _, _, truncation, _ = stirling.oracle._binet_plan(bits)
    with mpmath.workprec(bits + 96):
        head = left_tail(phi(-mpmath.mpf(j_left) / m))
        assert 0 < dropped(m, j_left, -1) <= head <= mpmath.mpf(truncation)


def trapezoid_checks(steps, zs):
    """For each step 1/s: the trapezoidal sum of the integral on the map at
    every z, summed in mpmath until the closed-form bounds on the terms
    left out fall under 2^-20 of the discretisation bound D(s), against
    ln Gamma(z) - P(z); asserts the error is within D(s) plus those
    bounds."""
    for s in steps:
        bound = mpmath.mpf(stirling.oracle._binet_discretisation_bound(s))
        with mpmath.workprec(40 - int(mpmath.log(bound, 2))):
            cut = mpmath.ldexp(bound, -20)
            sums, ends = [0] * len(zs), 0
            for sign, j in ((1, 0), (-1, 1)):
                while True:
                    u = mpmath.mpf(sign * j) / s
                    t = phi(u)
                    w = weight(u, t)
                    sums = [acc + w * z / (z * z + t * t) for acc, z in zip(sums, zs)]
                    end = right_tail(t) if sign > 0 else left_tail(t)
                    if end <= cut:
                        ends += end
                        break
                    j += 1
            for z, acc in zip(zs, sums):
                z = mpmath.mpf(z)
                truth = (mpmath.loggamma(z) - (z - 0.5) * mpmath.log(z) + z
                         - mpmath.log(2 * mpmath.pi) / 2)
                assert abs(acc / s - truth) <= bound + ends + cut, (s, z)


STEPS_256 = 34


@pytest.mark.parametrize("bits", [64, 256, 768])
def test_discretisation_bound_holds_at_every_coarser_step(bits):
    # the plan takes the least m whose bound is at most 2^-(bits+24); that
    # bound, which depends on the step alone, must cover the true error of
    # the full trapezoidal sum at z in {1, 2, 10^6} at the chosen step and
    # every coarser one.  At 768 bits the steps up to 34 are those of the
    # 256-bit case, and the rest are sampled (a full sweep takes ~30 s).
    m = stirling.oracle._binet_plan(bits)[0]
    disc = stirling.oracle._binet_discretisation_bound
    assert libmp.mpf_le(disc(m), libmp.from_man_exp(1, -(bits + 24)))
    assert libmp.mpf_gt(disc(m - 1), libmp.from_man_exp(1, -(bits + 24)))
    steps = range(1, m + 1)
    if bits == 768:
        assert stirling.oracle._binet_plan(256)[0] == STEPS_256
        steps = [*range(STEPS_256 + 1, m - 1, 14), m - 1, m]
    trapezoid_checks(steps, [1, 2, 10**6])


def strip_constants():
    """d, rho, w_rho and w_1 of _binet_strip_mass as mpmath numbers."""
    oracle = stirling.oracle
    return [mpmath.mpf(q.numerator) / q.denominator for q in
            (oracle._STRIP_D, oracle._STRIP_RHO, oracle._STRIP_W_RHO, oracle._STRIP_W_ONE)]


def test_strip_constants():
    # the image of |Im u| < d = 19/20 under phi: |phi| >= rho = 7/8 forces
    # e^-Re u <= w_rho = 3/4, and |phi| >= 1 forces e^-Re u <= w_1 =
    # 11/16, which keeps arg phi below pi/2, above pi/4 in both cones; M
    # as proven, about 59.7, and as the formula of its docstring gives it
    oracle = stirling.oracle
    assert (oracle._STRIP_D, oracle._STRIP_RHO, oracle._STRIP_W_RHO, oracle._STRIP_W_ONE) == (
        Fraction(19, 20), Fraction(7, 8), Fraction(3, 4), Fraction(11, 16))
    with mpmath.workprec(128):
        d, rho, w_rho, w_one = strip_constants()
        c = mpmath.cos(d)
        assert w_rho * mpmath.exp(w_rho * c) >= 1 / rho
        assert w_one * mpmath.exp(w_one * c) >= 1
        theta_rho, theta_one = d + w_rho * mpmath.sin(d), d + w_one * mpmath.sin(d)
        assert mpmath.pi / 4 < theta_one < theta_rho < mpmath.pi / 2
        assert 1.560 < theta_rho < 1.561 and 1.509 < theta_one < 1.510
        s_d, pi_rho = mpmath.sin(d), mpmath.pi * rho
        a_0 = mpmath.log(2 * mpmath.pi) + d + s_d + pi_rho + (1 - pi_rho * mpmath.cot(pi_rho)) / 2
        near = rho * (a_0 + (1 + mpmath.tan(d)) * (1 + mpmath.log(1 / rho))) / (1 - rho**2)
        b_rho = (1 - rho) / (8 * mpmath.sin(2 * theta_rho)) * mpmath.fsum(
            -mpmath.log(-mpmath.expm1(-2 * mpmath.pi * mpmath.cos(theta_rho)
                                      * (rho + i * (1 - rho) / 8))) for i in range(8))
        k = 2 * mpmath.pi * mpmath.cos(theta_one)
        b_1 = 1 / (mpmath.sin(2 * theta_one) * k * mpmath.expm1(k))
        formula = (near + b_rho + b_1) / (mpmath.pi * c)
        mass = mpmath.mpf(oracle._binet_strip_mass())
        assert abs(mass - formula) < mpmath.ldexp(formula, -56)
    assert 59 < mass < 60.5


def test_the_strip_image_keeps_to_its_cones():
    # on a grid over |Im u| <= d, |t| >= rho implies |arg t| <= theta_rho
    # and |t| >= 1 implies |arg t| <= theta_1, arg t taken continuously as
    # Im(u - e^-u); and d lies below the first line whose image meets the
    # imaginary axis at |t| >= 1, the singular set of l(t) z / (z^2 + t^2)
    # over z >= 1: on the line Im u = b that happens where w = e^-Re u =
    # (pi/2 - b) / sin b, with |t| = 1 / (w e^(w cos b)) >= 1
    with mpmath.workprec(64):
        d, rho, w_rho, w_one = strip_constants()
        theta_rho, theta_one = d + w_rho * mpmath.sin(d), d + w_one * mpmath.sin(d)
        widest = 0
        for i in range(-40, 41):
            b = d * i / 40
            for k in range(-32, 129):
                u = mpmath.mpc(mpmath.mpf(k) / 32, b)
                y = u - mpmath.exp(-u)
                r, arg = mpmath.exp(y.real), abs(y.imag)
                if r >= rho:
                    assert arg <= theta_rho, (k, i)
                    widest = max(widest, arg)
                if r >= 1:
                    assert arg <= theta_one, (k, i)
        assert widest > theta_rho - 0.02  # the grid reaches the cone's edge

        def crossing(b):
            """(w, |t|) where the line Im u = b meets the imaginary axis"""
            w = (mpmath.pi / 2 - b) / mpmath.sin(b)
            return w, 1 / (w * mpmath.exp(w * mpmath.cos(b)))

        lo, hi = d, mpmath.pi / 2
        for _ in range(50):
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if crossing(mid)[1] >= 1 else (mid, hi)
        assert d + 0.04 < lo < 0.996
        b = hi + mpmath.mpf(1) / 100
        w, r = crossing(b)
        u = mpmath.mpc(-mpmath.log(w), b)
        t = mpmath.exp(u - mpmath.exp(-u))
        assert abs(t.real) < 1e-15 and abs(abs(t) - r) < 1e-15 and r > 1


def strip_integrand(u, z):
    """F(u) of _binet_strip_mass on the strip, with l continued as
    -ln(2 pi) - (u - e^-u) - lambda(2 pi t) where |t| < rho, and the
    principal -ln(1 - e^(-2 pi t)) elsewhere."""
    e = mpmath.exp(-u)
    t = mpmath.exp(u - e)
    if abs(t) < float(stirling.oracle._STRIP_RHO):
        x = 2 * mpmath.pi * t
        l_t = -mpmath.log(2 * mpmath.pi) - (u - e) - mpmath.log(-mpmath.expm1(-x) / x)
    else:
        l_t = ell(t)
    return l_t * z / (z * z + t * t) * (1 + e) * t / mpmath.pi


@pytest.mark.parametrize("z", [1, 2, 10, 1000])
def test_strip_mass_bounds_the_integral_on_every_line(z):
    # integral |F(s + ib)| ds by mpmath quadrature, for lines inside the
    # strip |Im u| < 19/20, up to 1/100 from its edge, against M; on the
    # real line it is ln Gamma(z) - P(z) itself
    mass = mpmath.mpf(stirling.oracle._binet_strip_mass())
    with mpmath.workprec(53):
        for b in (0, 0.4, -0.4, 0.79, -0.79, 0.94, -0.94):
            mass_b = mpmath.quad(lambda s: abs(strip_integrand(mpmath.mpc(s, b), z)),
                                 [-7, -4, -2, 0, 2, 5])
            assert mass_b <= mass, b
            if b == 0:
                z_m = mpmath.mpf(z)
                truth = (mpmath.loggamma(z_m) - (z_m - 0.5) * mpmath.log(z_m) + z_m
                         - mpmath.log(2 * mpmath.pi) / 2)
                assert abs(mass_b - truth) < 1e-7 * truth


def test_the_two_forms_of_l_agree_where_both_hold():
    # on 1/2 < |t| < 1 in the strip, the continuation through u - e^-u and
    # the principal log are the same function, so on the overlap rho < |t|
    # < 1 of _binet_strip_mass, which the second points sample up to 1/100
    # from the strip's edges
    with mpmath.workprec(80):
        rho = strip_constants()[1]
        for s, b, low in ((0.15, 0.79, 0.5), (0.15, -0.79, 0.5), (0.25, 0.5, 0.5),
                          (0.3, 0.2, 0.5), (0.15, -0.7, 0.5),
                          (0.35, 0.94, rho), (0.35, -0.94, rho), (0.35, 0.9, rho),
                          (0.45, 0.5, rho), (0.5, 0.2, rho), (0.4, -0.79, rho)):
            u = mpmath.mpc(s, b)
            e = mpmath.exp(-u)
            t = mpmath.exp(u - e)
            assert low < abs(t) < 1, (s, b)
            x = 2 * mpmath.pi * t
            continued = -mpmath.log(2 * mpmath.pi) - (u - e) - mpmath.log(-mpmath.expm1(-x) / x)
            assert abs(continued - ell(t)) < mpmath.mpf(10) ** -20, (s, b)


def test_discretisation_part_keeps_its_headroom():
    # the least m with D(m) <= 2^-(bits+24) keeps D(m) > 2^-(bits+33), as
    # D(m) / D(m - 1) > e^(-2 pi d) (1 - e^(-2 pi d)) > 1/393: the step is
    # never finer than the bound asks for
    oracle = stirling.oracle
    with mpmath.workprec(64):
        a = 2 * mpmath.pi * strip_constants()[0]
        assert mpmath.exp(-a) * (1 - mpmath.exp(-a)) > mpmath.mpf(1) / 393
    for bits in range(64, 1025, 16):
        m = oracle._binet_plan(bits)[0]
        assert libmp.mpf_gt(oracle._binet_discretisation_bound(m),
                            libmp.from_man_exp(1, -(bits + 33))), bits
