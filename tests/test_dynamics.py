import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from pdmp_impulse.cli import main
from pdmp_impulse.controlled import estimate_cost_J
from pdmp_impulse.dynamics import (
    _draw_atoms,
    _runtime,
    cumulative_intensity,
    default_horizon,
    flow_at,
    flow_cumulative,
    flow_running_cost,
    flow_sojourns,
    hit_time,
    lockstep_costs,
    sample_post_jump,
    sample_sojourn,
    simulate_uncontrolled,
)
from pdmp_impulse.errors import DomainError, NumericalError
from pdmp_impulse.model import as_state, load_model
from pdmp_impulse.operators import FlowProfile
from pdmp_impulse.quadrature import GL_ORDER, panel_cumulative, panel_nodes
from pdmp_impulse.valuefn import GridSpec, compute_h

from conftest import feature_model, rm1_doc
from oracle import running_at


# ---------------------------------------------------------------------------
# Flow and hit times


def test_flow_at_closed_form(rm1):
    point, hit = flow_at(rm1, as_state(1, 2.0), 1.0)
    assert point == as_state(1, 1.0)
    assert not hit


def test_flow_at_identity_at_zero(rm1):
    point, hit = flow_at(rm1, as_state(1, 2.0), 0.0)
    assert point == as_state(1, 2.0)
    assert not hit


def test_flow_at_boundary_flagged(rm1):
    point, hit = flow_at(rm1, as_state(2, 4.0), 2.0)
    assert point.mode == 2
    assert point.zeta[0] == pytest.approx(0.0, abs=1e-14)
    assert hit


def test_flow_at_beyond_hit_time_rejected(rm1):
    with pytest.raises(DomainError):
        flow_at(rm1, as_state(1, 2.0), 2.5)


def _hit_time_bisection_oracle(model, x, hi):
    """Independent oracle: bisection on interiority of the flow position."""
    region = model.region(x.mode)
    lo, t = 0.0, hi
    for _ in range(200):
        mid = 0.5 * (lo + t)
        pos = np.asarray(model.flow.position(x.mode, x.zeta, mid))
        if region.contains_interior(pos):
            lo = mid
        else:
            t = mid
    return t


def test_hit_time_matches_bisection_oracle(rm1):
    for x in (as_state(1, 2.0), as_state(2, 4.0), as_state(1, 9.5)):
        direct = hit_time(rm1, x)
        oracle = _hit_time_bisection_oracle(rm1, x, 12.0)
        assert direct == pytest.approx(oracle, abs=1e-10)
    assert hit_time(rm1, as_state(1, 2.0)) == pytest.approx(2.0)
    assert hit_time(rm1, as_state(2, 4.0)) == pytest.approx(2.0)


def test_hit_time_near_boundary_not_clamped(rm1):
    assert hit_time(rm1, as_state(1, 1e-9)) == pytest.approx(1e-9, rel=1e-12)


def test_hit_time_requires_interior(rm1):
    with pytest.raises(DomainError):
        hit_time(rm1, as_state(1, 0.0))


@pytest.mark.parametrize("family,params", [
    ("constant-drift", {"velocity": [-0.7]}),
    ("linear-decay-to-target", {"rate": [0.8], "target": [-2.0]}),
    ("exponential-decay-to-target", {"rate": [0.5], "target": [-1.0]}),
])
def test_flow_semigroup_and_hit_consistency(family, params):
    doc = rm1_doc()
    doc["modes"] = [{"id": 1, "bounds": [[0.0, 10.0]]}]
    doc["flow"] = {"family": family, "params": {"1": params}}
    doc["intensity"] = {"1": "0.3"}
    doc["intensity_bound"] = 0.3
    doc["kernel"] = [{"from_mode": 1, "region": None,
                      "atoms": [{"mode": 1, "zeta": ["5.0"], "prob": 1.0}]}]
    doc["costs"]["running"] = {"1": "1.0"}
    doc["control_set"] = [{"mode": 1, "zeta": [8.0]}]
    doc["t_star_bound"] = 40.0
    model = load_model(doc)
    rng = np.random.default_rng(7)
    for _ in range(50):
        z = 0.1 + 9.8 * rng.random()
        x = as_state(1, z)
        ts = hit_time(model, x)
        t = rng.random() * 0.6 * ts
        s = rng.random() * (ts - t) * 0.999
        once, _ = flow_at(model, x, t)
        twice, _ = flow_at(model, once, s)
        direct, _ = flow_at(model, x, t + s)
        assert twice.zeta[0] == pytest.approx(direct.zeta[0], abs=1e-12)
        end, hit = flow_at(model, x, ts)
        assert hit
        assert min(abs(end.zeta[0] - 0.0), abs(end.zeta[0] - 10.0)) < 1e-10


# ---------------------------------------------------------------------------
# Cumulative intensity


def test_cumulative_intensity_constant_rate(rm1):
    assert cumulative_intensity(rm1, as_state(1, 2.0), 1.0) == pytest.approx(0.5)
    assert cumulative_intensity(rm1, as_state(2, 4.0), 2.0) == pytest.approx(2.0)
    assert cumulative_intensity(rm1, as_state(1, 2.0), 0.0) == 0.0


def test_cumulative_intensity_domain(rm1):
    with pytest.raises(DomainError):
        cumulative_intensity(rm1, as_state(1, 2.0), 2.5)
    with pytest.raises(DomainError):
        cumulative_intensity(rm1, as_state(1, 2.0), -0.1)


def affine_intensity_model():
    doc = rm1_doc()
    doc["intensity"] = {"1": "0.1 + 0.05*zeta[0]", "2": "1.0"}
    doc["intensity_bound"] = 1.0
    return load_model(doc)


def test_cumulative_intensity_affine_closed_form():
    model = affine_intensity_model()
    z0, t = 6.0, 3.0
    # Drift -1: rate along flow is 0.1 + 0.05*(z0 - s).
    hand = 0.1 * t + 0.05 * (z0 * t - 0.5 * t * t)
    got = cumulative_intensity(model, as_state(1, z0), t)
    assert got == pytest.approx(hand, rel=1e-10)


def test_kinked_intensity_is_rejected(rm1_table, tmp_path):
    """An intensity with a kink along the flow is refused by the sojourn
    sampler, the solver, the Monte Carlo estimate and the CLI (exit 3)."""
    doc = rm1_doc()
    doc["intensity"] = {"1": "0.1 + 0.1*abs(zeta[0] - 5.0)", "2": "1.0"}
    model = load_model(doc)
    x = as_state(1, 7.3)
    with pytest.raises(NumericalError, match="not smooth"):
        sample_sojourn(model, x, 0.9)
    with pytest.raises(NumericalError, match="not smooth"):
        compute_h(model, GridSpec(density=20))
    with pytest.raises(NumericalError, match="not smooth"):
        estimate_cost_J(x, 0, rm1_table, model, replicates=10, seed=0)
    path = tmp_path / "kinked.json"
    path.write_text(json.dumps(doc))
    assert main(["compute-value", "--model", str(path), "--out", str(tmp_path),
                 "--grid", "20", "--nmax", "1"]) == 3


def test_sojourn_inversion_consistency_nonconstant_rate():
    model = affine_intensity_model()
    x = as_state(1, 6.0)
    for u in (0.9, 0.7, 0.5):
        s, hit = sample_sojourn(model, x, u)
        assert not hit
        assert cumulative_intensity(model, x, s) == pytest.approx(-math.log(u), abs=1e-9)


# ---------------------------------------------------------------------------
# Integrals along the flow: the Gauss-Legendre panel rule against adaptive
# quadrature


def _quad_segment(model, x, length):
    def integrand(s):
        pos = np.asarray(model.flow.position(x.mode, np.asarray(x.zeta), s))
        return math.exp(-model.discount * s) * running_at(model, x.mode, pos)

    return quad(integrand, 0.0, length, epsabs=1e-15, epsrel=1e-13, limit=200)[0]


@pytest.mark.parametrize("name", ["planar_intervening", "affine_intensity_region_split_kernel",
                                  "nonconstant_running"])
def test_panel_rule_matches_adaptive_quadrature(name):
    model, _density = feature_model(name)
    for mode in model.mode_ids:
        region = model.region(mode)
        lo, hi = np.asarray(region.lower), np.asarray(region.upper)
        for frac in (0.23, 0.61, 0.94):
            x = as_state(mode, tuple(lo + frac * (hi - lo)))
            zeta = np.array([x.zeta])
            ts = hit_time(model, x)
            for t in (0.3 * ts, 0.7 * ts, ts):
                want = cumulative_intensity(model, x, t)
                got = flow_cumulative(model, mode, zeta, np.array([t]))[0]
                assert abs(got - want) <= 1e-12 * abs(want), (x, t)
                want = _quad_segment(model, x, t)
                got = flow_running_cost(model, mode, zeta, np.array([t]))[0]
                assert abs(got - want) <= 1e-12 * abs(want), (x, t)
            u = np.array([0.95, 0.7, 0.4, 0.1])
            s, hit = flow_sojourns(model, mode, np.repeat(zeta, u.size, axis=0),
                                   np.full(u.size, ts), u)
            for s_k, u_k in zip(s[~hit], u[~hit]):
                residual = cumulative_intensity(model, x, s_k) + math.log(u_k)
                assert abs(residual) <= 1e-12 * max(1.0, ts), (x, u_k)
            profile = FlowProfile(model, mode, zeta, 33)
            nodes = panel_nodes(profile.tgrid)[0][:, ::7]
            cum = profile.intensity(np.arange(1), nodes)[1]
            for t, got in zip(nodes[0], cum[0]):
                want = cumulative_intensity(model, x, t)
                assert abs(got - want) <= 1e-12 * abs(want), (x, t)


def test_panel_quadrature_takes_zero_rows():
    s, w = panel_nodes(np.empty((0, 5)))
    assert s.shape == w.shape == (0, 4 * GL_ORDER)
    assert panel_cumulative(s, w).shape == (0, 5)
    model = affine_intensity_model()
    none = np.empty(0)
    sojourn, hit = flow_sojourns(model, 1, np.empty((0, 1)), none, none)
    assert sojourn.shape == hit.shape == (0,)
    assert flow_running_cost(model, 1, np.empty((0, 1)), none).shape == (0,)


# ---------------------------------------------------------------------------
# Sojourn sampling


def test_sample_sojourn_boundary_atom(rm1):
    s, hit = sample_sojourn(rm1, as_state(1, 2.0), math.exp(-1.0) - 1e-6)
    assert (s, hit) == (2.0, True)


def test_sample_sojourn_interior_root(rm1):
    s, hit = sample_sojourn(rm1, as_state(1, 2.0), math.exp(-0.25))
    assert not hit
    assert s == pytest.approx(0.5, abs=1e-12)


def test_sample_sojourn_near_one_is_tiny(rm1):
    s, hit = sample_sojourn(rm1, as_state(1, 2.0), 1.0 - 1e-12)
    assert not hit
    assert 0.0 < s < 1e-11


def test_sampling_law_kolmogorov_smirnov(rm1):
    x = as_state(1, 2.0)
    ts = hit_time(rm1, x)
    lam = 0.5
    n = 20_000
    rng = np.random.default_rng(123)
    draws = [sample_sojourn(rm1, x, rng.random()) for _ in range(n)]
    interior = np.array([s for s, hit in draws if not hit])
    n_boundary = sum(hit for _s, hit in draws)
    # Boundary atom frequency vs survival mass.
    p_atom = math.exp(-lam * ts)
    se = math.sqrt(p_atom * (1 - p_atom) / n)
    assert abs(n_boundary / n - p_atom) < 4 * se
    # Interior draws follow the truncated survival law.
    denom = 1.0 - p_atom

    def trunc_cdf(t):
        return (1.0 - np.exp(-lam * np.asarray(t))) / denom

    stat = stats.kstest(interior, trunc_cdf).statistic
    crit = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(len(interior))
    assert stat < crit


# ---------------------------------------------------------------------------
# Post-jump sampling


def test_sample_post_jump_single_atom(rm1):
    assert sample_post_jump(rm1, as_state(1, 1.5), 0.99) == as_state(2, 5.0)
    # Boundary pre-jump point of mode 2 maps to the mode-1 atom.
    assert sample_post_jump(rm1, as_state(2, 0.0), 0.01) == as_state(1, 5.0)


def test_sample_post_jump_inverse_cdf_rule():
    doc = rm1_doc()
    doc["kernel"][0]["atoms"] = [
        {"mode": 2, "zeta": ["5.0"], "prob": 0.3},
        {"mode": 2, "zeta": ["7.0"], "prob": 0.7},
    ]
    model = load_model(doc)
    assert sample_post_jump(model, as_state(1, 1.0), 0.25) == as_state(2, 5.0)
    assert sample_post_jump(model, as_state(1, 1.0), 0.30) == as_state(2, 7.0)
    assert sample_post_jump(model, as_state(1, 1.0), 0.999999) == as_state(2, 7.0)


# ---------------------------------------------------------------------------
# Uncontrolled simulation


def test_zero_running_cost_paths_cost_nothing(rm1_zero_running):
    rng = np.random.default_rng(5)
    rec = simulate_uncontrolled(rm1_zero_running, as_state(1, 2.0), 30.0, rng)
    assert rec.discounted_running_cost == 0.0


def test_short_horizon_mostly_jump_free(rm1):
    n = 4000
    horizon = 0.01
    zero_jumps = 0
    for rep in range(n):
        rng = np.random.default_rng([11, rep])
        rec = simulate_uncontrolled(rm1, as_state(1, 2.0), horizon, rng)
        zero_jumps += not rec.events
    p = math.exp(-0.5 * horizon)
    se = math.sqrt(p * (1 - p) / n)
    assert zero_jumps / n > p - 4 * se


def test_path_structure_and_cost_bound(rm1):
    horizon = default_horizon(rm1)
    for rep in range(40):
        rng = np.random.default_rng([17, rep])
        rec = simulate_uncontrolled(rm1, as_state(1, 7.0), horizon, rng)
        assert rec.discounted_running_cost <= rm1.costs.running_bound / rm1.discount
        times = [e.time for e in rec.events]
        assert times == sorted(times)
        prev = rec.start
        for event in rec.events:
            ts_prev = hit_time(rm1, prev)
            assert event.sojourn <= ts_prev + 1e-12
            assert event.boundary_hit == (abs(event.sojourn - ts_prev) < 1e-12)
            assert rm1.region(event.post_jump.mode).contains_interior(
                event.post_jump.zeta
            )
            prev = event.post_jump


def test_uncontrolled_cost_matches_renewal_oracle(rm1, rm1_h):
    """The mean discounted running cost must match the fixed-point value."""
    x0 = as_state(1, 2.0)
    horizon = default_horizon(rm1)
    n = 20_000
    costs = np.empty(n)
    for rep in range(n):
        rng = np.random.default_rng([29, rep])
        costs[rep] = simulate_uncontrolled(
            rm1, x0, horizon, rng, collect_events=False
        ).discounted_running_cost
    mean = costs.mean()
    se = costs.std(ddof=1) / math.sqrt(n)
    assert abs(mean - rm1_h.eval(x0)) < 4 * se


def test_default_horizon_tail_rule(rm1):
    h = default_horizon(rm1)
    tail = math.exp(-rm1.discount * h) * rm1.costs.running_bound / rm1.discount
    assert tail <= 1e-6 * 1.0000001


def test_explosion_guard():
    doc = rm1_doc()
    # Huge constant intensity forces enormous jump counts per unit time.
    doc["intensity"] = {"1": "200000.0", "2": "200000.0"}
    doc["intensity_bound"] = 200000.0
    model = load_model(doc)
    rng = np.random.default_rng(3)
    with pytest.raises(NumericalError, match="jumps"):
        simulate_uncontrolled(model, as_state(1, 2.0), 50.0, rng)


def test_json_lines_round_trip(rm1):
    import json as _json

    rng = np.random.default_rng(8)
    rec = simulate_uncontrolled(rm1, as_state(1, 2.0), 5.0, rng)
    payload = _json.loads(rec.to_json_line())
    assert payload["start"] == [1, [2.0]]
    assert len(payload["events"]) == len(rec.events)


def test_zero_intensity_flow_that_never_exits_fails_cleanly():
    """A mode with no jumps whose flow settles inside its region has no next
    jump; both engines refuse it, as compute_h does, before drawing."""
    doc = rm1_doc()
    doc["flow"] = {"family": "exponential-decay-to-target",
                   "params": {m: {"target": [5.0], "rate": [1.0]} for m in ("1", "2")}}
    doc["intensity"] = {"1": "0.0", "2": "0.0"}
    doc["intensity_bound"] = 0.0
    model = load_model(doc)
    x0 = as_state(1, 2.0)

    class NoDraws:
        def random(self):
            raise AssertionError("a uniform was drawn")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="bounded exit times are required"):
            simulate_uncontrolled(model, x0, 30.0, NoDraws())
        with pytest.raises(NumericalError, match="bounded exit times are required"):
            lockstep_costs(model, None, x0, 0, 30.0, 0, 4)


@pytest.mark.parametrize("name", ["rm1", "exponential_decay"])
def test_static_table_draws_as_the_kernel_claim(rm1, name):
    """The scalar post-jump draw reads the static-kernel table, _draw_atoms
    claims through the kernel entries; both take the first atom whose
    cumulative probability exceeds u (bisect_right, side="right") and the
    last atom when u is above them all."""
    model = rm1 if name == "rm1" else feature_model(name)[0]
    rt = _runtime(model)
    modes = [m for m in model.mode_ids if model.kernel.static_atoms_for(m) is not None]
    assert modes == [1, 2]
    for mode in modes:
        static = model.kernel.static_atoms_for(mode)
        assert rt.static[mode] is static
        pre = np.array([[3.0]])
        last = len(static.cdf) - 1
        cases = [(np.nextafter(static.cdf[-1], 2.0), last)]
        for j, c in enumerate(static.cdf):
            cases += [(np.nextafter(c, 0.0), j), (c, min(j + 1, last)),
                      (np.nextafter(c, 2.0), min(j + 1, last))]
        for u, want in cases:
            post_mode, post_pos, atom = _draw_atoms(model.kernel, mode, pre, np.array([u]))
            drawn = (int(post_mode[0]), tuple(post_pos[0].tolist()), int(atom[0]))
            a_mode, a_pos, _prob = static.atoms[want]
            assert rt.post_jump(mode, (3.0,), float(u)) == drawn == (a_mode, a_pos, want)
    if name == "exponential_decay":
        assert [p for _m, _z, p in model.kernel.static_atoms_for(1).atoms] == [0.4, 0.6]

