"""The node table of the half-line map t = exp(u - e^-u) and its moments,
and the one sum over it: its work cap, its work per node, and the
discretisation, truncation and rounding parts of its error bound."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

import stirling.fixed
import stirling.oracle
import stirling.quadrature
from stirling.errors import ConvergenceError
from stirling.mpcore import PrecisionCtx, to_raw
from stirling.oracle import lngamma_binet2
from stirling.quadrature import half_line_nodes


def table(bits):
    m, j_left, j_right, *_ = stirling.oracle._binet_plan(bits)
    return m, j_left, j_right, half_line_nodes(bits + 64, m, j_left, j_right)[0]


def arctan_nodes(bits):
    """The nodes with t >= 1/4, counted from the table itself."""
    return sum(1 for t, _ in table(bits)[3] if mpmath.mpf(t) >= 0.25)


def grid(m, j_left, j_right):
    """The j of each table row, in the order half_line_nodes builds them."""
    return list(range(j_right + 1)) + [-k for k in range(1, j_left + 1)]


def kernel_calls(count_calls):
    """The running count of calls to the Binet oracle's arctan kernel."""
    return count_calls("_atan_fixed", module=stirling.oracle)["_atan_fixed"]


def test_binet_budget_exhaustion(monkeypatch, count_calls):
    # at 256 bits the plan needs 352 nodes, so a cap of 100 fails before any
    # node table is built or any arctan taken
    monkeypatch.setattr(stirling.oracle, "BINET_MAX_NODES", 100)
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    atan = kernel_calls(count_calls)
    with pytest.raises(ConvergenceError):
        lngamma_binet2(5, PrecisionCtx(256))
    assert stirling.quadrature._CACHE == {}
    assert atan[0] == 0


def test_nodes_cached_and_inside_interval():
    m, j_left, j_right, nodes = table(128)
    assert nodes is table(128)[3]
    assert len(nodes) == j_left + j_right + 1
    for t, G in nodes:
        assert libmp.mpf_gt(t, libmp.fzero)
        assert G > 0


@pytest.mark.parametrize("wp", [128, 320])
def test_nodes_match_mpmath(wp):
    # t = exp(u - e^-u) at u = j/m, and the weight (1 + e^-u) t / (e^(2 pi t)
    # - 1) at the computed t, at wp + 128: the node-error part of
    # _binet_integral rests on t lying within a relative 3 2^-wp, and its
    # rounding part on the weight lying within 2^-(F+4) before the floor
    m, j_left, j_right, nodes = table(wp - 64)
    F = half_line_nodes(wp, m, j_left, j_right)[3]
    assert F == wp + 32
    with mpmath.workprec(wp + 128):
        for j, (t_raw, G) in zip(grid(m, j_left, j_right), nodes):
            u = mpmath.mpf(j) / m
            t = mpmath.mpf(t_raw)
            assert abs(t / mpmath.exp(u - mpmath.exp(-u)) - 1) <= 3 * mpmath.ldexp(1, -wp), j
            g = (1 + mpmath.exp(-u)) * t / mpmath.expm1(2 * mpmath.pi * t)
            gap = g - mpmath.ldexp(G, -F)
            assert -mpmath.ldexp(1, -(F + 4)) <= gap < mpmath.ldexp(17, -(F + 4)), j


@pytest.mark.parametrize("bits", [64, 768])
def test_cold_table_takes_two_exponentials_and_one_division_per_node(
        monkeypatch, count_calls, bits):
    # e^-u walks the grid by products; per node only t = exp(u - e^-u) and
    # e^(2 pi t) - 1 remain, and one division for the weight (near t = 0,
    # raw_expm1 takes its cubic series: a division in place of the exponential)
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    stirling.oracle._binet_plan(bits)
    counts = count_calls("mpf_exp", "mpf_div")
    atan = kernel_calls(count_calls)
    n = len(table(bits)[3])
    assert counts["mpf_exp"][0] <= 2 * n + 2
    assert counts["mpf_exp"][0] + counts["mpf_div"][0] <= 3 * n + 2
    assert counts["mpf_div"][0] <= n + n // 10
    assert atan[0] == 0


def test_nodes_split_at_a_quarter_with_their_moments():
    # the nodes with t < 1/4 are the table's tail; S_k sums G t^(2k+1) over
    # them in units of 2^-F, each step at least 16-fold smaller
    bits = 256
    wp = bits + 64
    m, j_left, j_right, nodes = table(bits)
    got, split, moments, F = half_line_nodes(wp, m, j_left, j_right)
    assert got is nodes and split == arctan_nodes(bits) == 148
    assert all(mpmath.mpf(t) < 0.25 for t, _ in nodes[split:])
    assert all(16 * later <= earlier for earlier, later in zip(moments, moments[1:]))
    assert moments[-1] > 0
    # the floors of the build only lower each node's share, by under
    # G 2^-F + 3 units (see fixed._moment_series)
    slack = (sum(G for _, G in nodes[split:]) >> F) + 3 * (len(nodes) - split + 1)
    with mpmath.workprec(2 * F):
        for k in (0, 1, 5, len(moments) - 1):
            exact = sum(G * mpmath.mpf(t) ** (2 * k + 1) for t, G in nodes[split:])
            assert 0 <= exact - moments[k] < slack, k


@pytest.mark.parametrize("bits", [64, 256, 768])
@pytest.mark.parametrize("z", [Fraction(1), Fraction(22, 7), Fraction(10**6), Fraction(2)**400])
def test_moment_series_within_its_proven_bound(z, bits):
    # the series over the moments against sum G 2^-F arctan(t/z) over the
    # nodes with t < 1/4, at 2F bits: off by less than N_s 2^22 2^-F (see
    # fixed._moment_series); z = 2^400 is past 2^F, where every term is 0
    wp = bits + 64
    z_raw = to_raw(z, wp)
    m, j_left, j_right, _ = table(bits)
    nodes, split, moments, F = half_line_nodes(wp, m, j_left, j_right)
    num, den = libmp.to_rational(z_raw)
    series = stirling.fixed._moment_series(moments, (den << F) // num, F)
    with mpmath.workprec(2 * F + 64):
        zm = mpmath.mpf(z_raw)
        exact = sum(G * mpmath.atan(mpmath.mpf(t) / zm) for t, G in nodes[split:])
        err = abs(mpmath.ldexp(series, -F) - exact)
        assert err < (len(nodes) - split) * mpmath.ldexp(1, 22), err


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
    assert second.diagnostics["arctans"] == shifted.diagnostics["arctans"] == 148


def test_small_z_reuses_the_unit_tables(count_calls):
    # z = 1/1000 is shifted to 1.001: no new node table, no extra node
    ctx = PrecisionCtx(256)
    lngamma_binet2(1, ctx)
    keys = set(stirling.quadrature._CACHE)
    atan = kernel_calls(count_calls)
    lngamma_binet2(1, ctx)
    at_one = atan[0]
    lngamma_binet2(Fraction(1, 1000), ctx)
    assert set(stirling.quadrature._CACHE) == keys
    assert atan[0] - at_one == at_one > 0


def test_binet_loop_divides_once_per_evaluation(count_calls):
    # 1/z is taken once, as the integer floor(2^F / z), and each node with
    # t >= 1/4 takes its arctan from it in integer fixed point; the series
    # over the rest divides only integers
    ctx = PrecisionCtx(256)
    lngamma_binet2(3, ctx)
    counts = count_calls("mpf_div")
    atan = kernel_calls(count_calls)
    lngamma_binet2(Fraction(22, 7), ctx)
    assert atan[0] == 148
    assert counts["mpf_div"][0] <= 2


def kernel_points(q):
    """Arguments of the arctan kernel: every anchor n/128, 1 and 1 +- 2^-q
    about the reflection, x < 2^-7 (n = 0), and x up to 2^20."""
    points = [Fraction(n, 128) for n in range(129)]
    points += [1 + Fraction(1, 2**q), 1 - Fraction(1, 2**q), 1 + Fraction(1, 2**(q // 2))]
    points += [Fraction(1, 2**q), Fraction(3, 2**q), Fraction(1, 129), Fraction(255, 2**15)]
    points += [Fraction(129, 128), Fraction(22, 7), Fraction(2**20 - 1, 3), Fraction(2**20)]
    points += [Fraction(2**20, 1 + n) for n in (1, 127, 128, 1000, 2**20 - 1)]
    return points


@pytest.mark.parametrize("p", [64, 256, 768, 1024])
def test_arctan_kernel_within_its_proven_bound(p):
    # _atan_fixed against mpmath at q + 64 bits, with F = p + 26, the least
    # the proof allows.  Against arctan of its own argument x = t X 2^-F it
    # is within (q/28 + 11) 2^-q < 1.2 2^-p (see fixed._atan_fixed); against
    # arctan(t/z), with X = floor(2^F / z), within the allowance 3.7 2^-p +
    # 1.6 2^-F of the rounding part (see oracle._binet_integral)
    q = p + stirling.fixed._KERNEL_GUARD
    F = p + 26
    # the weight G and working precision wp at which the kernel takes p
    G, wp = 1 << (p + 23), F - 32
    kernel = (q / 28 + 11) * mpmath.ldexp(1, -q)
    assert kernel < 1.2 * mpmath.ldexp(1, -p)
    allowance = 3.7 * mpmath.ldexp(1, -p) + 1.6 * mpmath.ldexp(1, -F)
    for z in (Fraction(1), Fraction(22, 7), Fraction(10**6)):
        X = (z.denominator << F) // z.numerator
        for x in kernel_points(q):
            t = libmp.from_rational(x.numerator, x.denominator, q + 64, libmp.round_nearest)
            A = stirling.fixed._atan_fixed(t, X, G, F, wp)
            with mpmath.workprec(q + 64):
                got, tm = mpmath.ldexp(A, -F), mpmath.mpf(t)
                assert abs(got - mpmath.atan(tm * mpmath.ldexp(X, -F))) < kernel, (z, x)
                assert abs(got - mpmath.atan(tm * z.denominator / z.numerator)) < allowance, (z, x)


def test_cold_call_builds_no_libmp_arctan_anchors(monkeypatch):
    # mpmath's mpf_atan builds its anchors by Newton's method once per
    # process and power-of-two precision; the oracle's kernel takes its own
    # ladder instead, so a cold call at a fresh precision adds none
    cache = {}
    monkeypatch.setattr(libmp.libelefun, "atan_taylor_cache", cache)
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    stirling.fixed._atan_ladder.cache_clear()
    ov = lngamma_binet2(Fraction(22, 7), PrecisionCtx(200))
    assert ov.diagnostics["arctans"] > 0
    assert stirling.fixed._atan_ladder.cache_info().currsize == 1
    assert cache == {}


ARCTANS = {256: 148, 768: 520}


@pytest.mark.parametrize("bits, most", [(256, 450), (768, 1500)])
def test_one_evaluation_takes_one_arctan_per_node(count_calls, bits, most):
    # one arctan per node with t >= 1/4, at every z > 0; the nodes with
    # t < 1/4 go into the series over the table's moments
    ctx = PrecisionCtx(bits)
    lngamma_binet2(3, ctx)
    atan = kernel_calls(count_calls)
    libmp_atan = count_calls("mpf_atan")["mpf_atan"]
    for z in (Fraction(22, 7), Fraction(1, 1000), Fraction(10**20)):
        before = atan[0]
        ov = lngamma_binet2(z, ctx)
        assert atan[0] - before == ov.diagnostics["arctans"] == arctan_nodes(bits) == ARCTANS[bits]
        assert ov.diagnostics["nodes"] == len(table(bits)[3]) <= most
    assert ov.diagnostics["step_m"] == table(bits)[0]
    assert libmp_atan[0] == 0


@pytest.mark.parametrize("bits", [64, 256, 768])
@pytest.mark.parametrize("z", [Fraction(1), Fraction(10**6), Fraction(22, 7)],
                         ids=["z1", "z2", "z3"])
def test_tapered_sum_within_its_rounding_bound(z, bits):
    # the same nodes t summed with mpmath at wp + 64, with each weight and
    # arctan at full precision: the integer sum of floored weights times
    # tapered arctans, with the series over the moments for t < 1/4 (the
    # integral sees only z >= 1), may differ from that by no more than the
    # rounding part
    wp = bits + 64
    z_raw = to_raw(z, wp)
    integral, _, parts = stirling.oracle._binet_integral(z_raw, bits)
    rounding = parts["rounding"]
    m, j_left, j_right, nodes = table(bits)
    with mpmath.workprec(wp + 64):
        total = 0
        for j, (t_raw, _) in zip(grid(m, j_left, j_right), nodes):
            t = mpmath.mpf(t_raw)
            g = (1 + mpmath.exp(-mpmath.mpf(j) / m)) * t / mpmath.expm1(2 * mpmath.pi * t)
            total += g * mpmath.atan(t / mpmath.mpf(z_raw))
        assert abs(mpmath.mpf(integral) - 2 * total / m) <= mpmath.mpf(rounding)
    assert libmp.mpf_le(rounding, libmp.from_man_exp(1, -(bits + 40)))


def phi(u):
    return mpmath.exp(u - mpmath.exp(-u))


def dropped(m, j, sign):
    """2 h sum of the terms at u = sign k/m, k > j, at z = 1, where
    arctan(t/z) is largest, summed until they stop mattering."""
    total = 0
    while True:
        j += 1
        u = mpmath.mpf(sign * j) / m
        t = phi(u)
        term = (1 + mpmath.exp(-u)) * t * mpmath.atan(t) / mpmath.expm1(2 * mpmath.pi * t)
        if term < mpmath.ldexp(total, -64):
            return 2 * total / m
        total += term


@pytest.mark.parametrize("bits", [64, 128])
def test_omitted_right_nodes_within_their_bound(bits):
    # the terms past J_R against the right-end part of the truncation bound
    m, _, j_right, _, truncation, t_max = stirling.oracle._binet_plan(bits)
    with mpmath.workprec(bits + 96):
        end = phi(mpmath.mpf(j_right) / m)
        tail = 1 / (2 * mpmath.expm1(2 * mpmath.pi * end))
        assert 0 < dropped(m, j_right, 1) <= tail <= mpmath.mpf(truncation)
        assert end < t_max
    assert libmp.mpf_le(truncation, libmp.from_man_exp(1, -(bits + 31)))


@pytest.mark.parametrize("bits", [64, 128])
def test_omitted_left_nodes_within_their_bound(bits):
    # the terms before -J_L against the left-end part of the truncation bound
    m, j_left, _, _, truncation, _ = stirling.oracle._binet_plan(bits)
    with mpmath.workprec(bits + 96):
        head = phi(-mpmath.mpf(j_left) / m) / mpmath.pi
        assert 0 < dropped(m, j_left, -1) <= head <= mpmath.mpf(truncation)


def trapezoid_checks(steps, zs):
    """For each step 1/s: the trapezoidal sum of 2 * integral on the map at
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
                    g = (1 + mpmath.exp(-u)) * t / mpmath.expm1(2 * mpmath.pi * t)
                    sums = [acc + g * mpmath.atan(t / z) for acc, z in zip(sums, zs)]
                    # the bounds of _binet_plan on the terms past this one
                    end = 1 / (2 * mpmath.expm1(2 * mpmath.pi * t)) if sign > 0 \
                        else t / mpmath.pi
                    if end <= cut:
                        ends += end
                        break
                    j += 1
            for z, acc in zip(zs, sums):
                z = mpmath.mpf(z)
                truth = (mpmath.loggamma(z) - (z - 0.5) * mpmath.log(z) + z
                         - mpmath.log(2 * mpmath.pi) / 2)
                assert abs(2 * acc / s - truth) <= bound + ends + cut, (s, z)


STEPS_256 = 40


@pytest.mark.parametrize("bits", [64, 256, 768])
def test_discretisation_bound_holds_at_every_coarser_step(bits):
    # the plan takes the least m whose bound is at most 2^-(bits+24); that
    # bound, which depends on the step alone, must cover the true error of
    # the full trapezoidal sum at z in {1, 2, 10^6} at the chosen step and
    # every coarser one.  At 768 bits the steps up to 40 are those of the
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


def test_strip_constants():
    # the image of |Im u| < d = 4/5 under phi: |phi| >= 1/2 forces
    # e^-Re u <= 1, and |phi| >= 1 forces e^-Re u <= 2/3, which keeps
    # arg phi below pi/2; M as proven, about 14.2
    with mpmath.workprec(128):
        d = mpmath.mpf(4) / 5
        assert mpmath.exp(mpmath.cos(d)) >= 2
        assert 2 * mpmath.exp(2 * mpmath.cos(d) / 3) / 3 >= 1
        assert d + mpmath.sin(d) < mpmath.pi / 2
    mass = mpmath.mpf(stirling.oracle._binet_strip_mass())
    assert 14 < mass < 14.5
