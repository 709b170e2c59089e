"""Continuation over decreasing mu: schedules, path invariants, accumulation."""

from collections import Counter

import numpy as np
import pytest

from logbarrier import barrier, cli, continuation, diagnostics, expr, inner, problem
from logbarrier.certificate import Verdict
from logbarrier.continuation import MuSchedule
from logbarrier.diagnostics import SlaterUnverifiedError
from logbarrier.inner import InfeasibleStartError, InnerStatus


def test_schedule_weights():
    s = MuSchedule(1.0, 0.2, 1e-8)
    w = s.weights()
    assert w[0] == 1.0
    assert all(a > b for a, b in zip(w, w[1:]))
    assert w[-1] >= 1e-8
    assert w[-1] * 0.2 < 1e-8
    assert len(w) == 12


@pytest.mark.parametrize(
    "args, fragment",
    [
        ((0.0, 0.2, 1e-8), "mu_min <= mu0"),
        ((1e-9, 0.2, 1e-8), "mu_min <= mu0"),
        ((1.0, 0.2, 0.0), "mu_min <= mu0"),
        ((1.0, 1.5, 1e-8), "factor"),
        ((1.0, 0.0, 1e-8), "factor"),
    ],
)
def test_schedule_validation(args, fragment):
    with pytest.raises(ValueError, match=fragment):
        MuSchedule(*args)


@pytest.mark.parametrize("mu0", [float("inf"), float("nan")])
def test_schedule_needs_a_finite_mu0(mu0):
    # weights() would never return from an infinite mu0; only construct
    with pytest.raises(ValueError, match="mu0"):
        MuSchedule(mu0=mu0)


def test_schedule_length_is_bounded():
    # construction only: weights() of a refused schedule would build its
    # list before the first stage, 7.1e8 floats for the first one here
    assert len(MuSchedule(1.0, 0.9, 1e-8).weights()) == 175
    with pytest.raises(ValueError, match="709[0-9]{6} weights; at most 100000"):
        MuSchedule(1e300, 0.999999, 1e-8)
    MuSchedule(1.0, 0.9999, 1e-4)  # 92099 weights
    with pytest.raises(ValueError, match="weights"):
        MuSchedule(1.0, 0.9999, 1e-5)  # about 115124


def test_path_invariants(problems, traces):
    for name, trace in traces.items():
        p = problems[name]
        mus = [pt.mu for pt in trace.points]
        assert mus[0] == 1.0
        assert all(a > b for a, b in zip(mus, mus[1:]))
        assert mus[-1] <= 1e-7
        for pt in trace.points:
            gvals = np.array([expr.evaluate(g, pt.x) for g in p.constraints])
            assert gvals.min() > 0.0
            assert (pt.multipliers > 0.0).all()
            assert np.abs(pt.multipliers * gvals - pt.mu).max() <= 1e-12 * pt.mu


def _at_float_floor(p, x, mu) -> bool:
    """Whether no trial t = 1, 1/2, ... of the search at x, with t >= MIN_STEP
    and a decrease t * slope that shows against phi, passes its tests."""
    be = barrier.barrier_eval(p, x, mu)
    d, slope = inner._newton_step(p, x, mu, be.gradient)
    t = 1.0
    while t >= inner.MIN_STEP and be.value + t * slope < be.value:
        value = barrier.barrier_value(p, x + t * d, mu)
        if value < be.value and value <= be.value + inner.ARMIJO_C1 * t * slope:
            return False
        t *= 0.5
    return True


def _ends_honestly(p, pt) -> bool:
    """A stage ends within its target, or no_progress at the float floor."""
    if pt.status is InnerStatus.CONVERGED:
        return pt.grad_norm <= inner.STAGE_TARGET * pt.mu
    return pt.status is InnerStatus.NO_PROGRESS and _at_float_floor(p, pt.x, pt.mu)


def test_path_gradient_norms_are_honest(problems, traces):
    # the reported norm must be the actual barrier gradient norm at (x, mu);
    # on the default schedule every stage ends within its tolerance or at
    # the float floor of phi, recomputed at its x
    for name, trace in traces.items():
        p = problems[name]
        for pt in trace.points:
            be = barrier.barrier_eval(p, pt.x, pt.mu)
            assert float(np.linalg.norm(be.gradient)) == pt.grad_norm
            assert _ends_honestly(p, pt), (name, pt.mu, pt.status)


def test_multiplier_estimates_settle(traces):
    # regular problems only; the cusped disk diverges by construction
    for name in ("cassini", "hyperbola", "epsbox", "disk"):
        trace = traces[name]
        active = trace.final_certificate.active_set
        assert active
        tail = trace.points[-5:]
        for j in active:
            vals = [pt.multipliers[j - 1] for pt in tail]
            assert (max(vals) - min(vals)) / max(vals) < 0.1


def test_final_certificates(traces):
    for name, trace in traces.items():
        cert = trace.final_certificate
        # grad g vanishes at the cusped disk's limit, so no finite multiplier exists
        want = Verdict.NOT_CERTIFIED if name == "degenerate-disk" else Verdict.KKT_POINT
        assert cert.verdict is want, name
        assert cert.stationarity_residual <= 1e-5
        assert cert.primal_feasibility_violation == 0.0

    assert traces["hyperbola"].final_certificate.active_set == [1]
    assert traces["epsbox"].final_certificate.active_set == [1, 4]


def test_no_certificate_field_is_negative_zero(traces):
    # max(0, -lam) keeps the sign of a zeroed multiplier unless it is normalized
    for name, trace in traces.items():
        cert = trace.final_certificate
        numbers = [v for v in cert if isinstance(v, float)] + [*cert.x, *cert.multipliers]
        assert [v for v in numbers if v == 0.0 and np.signbit(v)] == [], name


def test_hyperbola_path_endpoint(traces):
    cert = traces["hyperbola"].final_certificate
    assert np.abs(cert.x - 1.0).max() <= 1e-3
    assert abs(cert.objective - 2.0) <= 1e-4
    assert abs(cert.multipliers[0] - 1.0) <= 1e-2


def test_final_certificate_multipliers(traces):
    lam = traces["hyperbola"].final_certificate.multipliers
    assert abs(lam[0] - 1.0) <= 1e-2
    assert np.abs(lam[1:]).max() <= 1e-6

    cert = traces["epsbox"].final_certificate
    assert np.abs(cert.x - [0.0, 1.0]).max() <= 1e-3
    lam = cert.multipliers
    assert abs(lam[0] - 1.001) <= 1e-2
    assert abs(lam[3] - 1.0) <= 1e-2
    assert np.abs(lam[[1, 2]]).max() <= 1e-6


def _disk_with(*constraints):
    return problem.problem_from_dict(
        {
            "name": "disk-variant",
            "nvars": 2,
            "objective": "(x1 - 1)^2 + (x2 - 1)^2",
            "constraints": list(constraints),
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
            "interior_point": [0, 0],
        }
    )


def test_the_certificate_does_not_depend_on_how_g_is_scaled():
    # the disk builtin with g scaled by 2^k, which scales g and grad g
    # exactly: the path is the same and only the multipliers move, by 2^-k,
    # and the least singular value of the active gradients, by 2^k
    certs = {}
    for k in (-14, 0, 14):
        certs[k] = continuation.solve(_disk_with(f"{2.0**k!r}*(1 - x1^2 - x2^2)")).final_certificate
    for k, cert in certs.items():
        assert cert.x.tolist() == certs[0].x.tolist(), k
        assert (cert.active_set, cert.verdict) == ([1], Verdict.KKT_POINT), k
        np.testing.assert_allclose(cert.multipliers, 2.0**-k * certs[0].multipliers, rtol=1e-12)
        sigma = 2.0**k * certs[0].least_active_singular_value
        assert cert.least_active_singular_value == pytest.approx(sigma, rel=1e-12), k


@pytest.mark.parametrize("k", [-14, 0, 14])
def test_the_cubed_disk_is_refused_at_every_scale(k):
    # grad g = 3 h^2 grad h vanishes where h = 1 - |x|^2 does, however g is scaled
    cert = continuation.solve(_disk_with(f"{2.0**k!r}*(1 - x1^2 - x2^2)^3")).final_certificate
    assert (cert.active_set, cert.verdict) == ([1], Verdict.NOT_CERTIFIED)
    assert cert.least_active_singular_value < diagnostics.NONDEGENERACY_DELTA


@pytest.mark.parametrize(
    "constraints, share, sigma",
    [
        # the same gradient twice: G_A^T G_A = 2 * 4, so sigma = sqrt(8)
        (["1 - x1^2 - x2^2", "1 - x1^2 - x2^2"], [0.5, 0.5], np.sqrt(8.0)),
        # g and 2g: sigma = |grad g| * |(1, 2)| = 2 sqrt(5)
        (["1 - x1^2 - x2^2", "2*(1 - x1^2 - x2^2)"], [0.2, 0.4], np.sqrt(20.0)),
    ],
)
def test_a_repeated_or_proportional_constraint_counts_once(constraints, share, sigma):
    # rank-deficient active gradients: lstsq keeps one direction, its least
    # kept singular value is far from zero, and lam is the minimum-norm split
    # of the single disk's sqrt(2) - 1 (lam_1 + lam_2 = lam, or lam_1 + 2 lam_2)
    cert = continuation.solve(_disk_with(*constraints)).final_certificate
    assert (cert.active_set, cert.verdict) == ([1, 2], Verdict.KKT_POINT)
    np.testing.assert_allclose(cert.multipliers, np.array(share) * (np.sqrt(2.0) - 1.0), rtol=1e-6)
    assert cert.least_active_singular_value == pytest.approx(sigma, rel=1e-6)


def test_zero_objective_ends_unconstrained():
    p = problem.problem_from_dict(
        {
            "name": "disk-flat",
            "nvars": 2,
            "objective": "0",
            "constraints": ["1 - x1^2 - x2^2"],
            "box": [[-1.5, 1.5], [-1.5, 1.5]],
            "interior_point": [0.4, -0.2],
        }
    )
    trace = continuation.solve(p)
    cert = trace.final_certificate
    # a KKT point with nothing active: the objective's gradient vanishes
    assert (cert.verdict, cert.active_set, cert.multipliers.tolist()) == (
        Verdict.KKT_POINT,
        [],
        [0.0],
    )
    assert np.abs(cert.x).max() <= 1e-4


def test_solve_with_explicit_start(problems):
    trace = continuation.solve(
        problems["disk"], MuSchedule(1.0, 0.2, 1e-4), x0=np.array([-0.5, 0.2])
    )
    assert abs(trace.final_certificate.objective - 0.1715728752538097) <= 1e-2


def test_infeasible_start_rejected(problems):
    with pytest.raises(InfeasibleStartError, match="strictly interior"):
        continuation.solve(problems["disk"], x0=np.array([5.0, 0.0]))


def test_no_interior_anywhere():
    p = problem.problem_from_dict(
        {
            "name": "void",
            "nvars": 1,
            "objective": "x1",
            "constraints": ["-1 - x1^2"],
            "box": [[-2, 2]],
        }
    )
    with pytest.raises(SlaterUnverifiedError):
        continuation.solve(p)


def _counting(monkeypatch) -> Counter:
    """The barrier_hessian and barrier_value calls inner makes from now on."""
    counts = Counter()
    for name in ("barrier_hessian", "barrier_value"):

        def counting(*args, name=name, function=getattr(inner, name)):
            counts[name] += 1
            return function(*args)

        monkeypatch.setattr(inner, name, counting)
    return counts


def test_stuck_stages_are_recorded(monkeypatch, problems):
    # a hard iteration cap leaves every stage far from tolerance; each is
    # recorded with its status and the certificate alone judges the run
    monkeypatch.setattr(inner, "MAX_ITERS", 0)
    trace = continuation.solve(problems["cassini"])
    stages = [(pt.iterations, pt.trials, pt.status) for pt in trace.points]
    assert stages == [(0, 0, InnerStatus.MAX_ITERS)] * 12
    assert trace.final_certificate.verdict is Verdict.NOT_CERTIFIED


def test_one_stage_per_weight_on_the_path(problems):
    # one stage per weight, each on the path with its status
    p = problems["disk"]
    trace = continuation.solve(p, MuSchedule(1.0, 0.2, 1e-6))
    assert [pt.mu for pt in trace.points] == MuSchedule(1.0, 0.2, 1e-6).weights()
    assert all(_ends_honestly(p, pt) for pt in trace.points)


@pytest.mark.parametrize("name", ["cassini", "hyperbola"])
def test_float_floor_stage_ends_without_spinning(problems, name):
    # the last stage reaches the float floor of phi; it used to repeat a
    # step there until max_iters, 5068 and 5074 iterations in all
    trace = continuation.solve(problems[name])
    assert sum(pt.iterations for pt in trace.points) < 100
    assert trace.points[-1].status is InnerStatus.NO_PROGRESS
    assert trace.final_certificate.verdict is Verdict.KKT_POINT


# instance 25 of the benchmark's seed-2 solve pool: its last stage cycled
# between two iterates with bit-equal barrier values, which the Armijo test
# accepts, for 5000 iterations; ended at the float floor of phi it stops in a few
HYPERBOLA_006 = {
    "name": "hyperbola-006",
    "nvars": 2,
    "objective": "0.9773640578448384*x1 + 1.8472011595754063*x2",
    "constraints": ["x1*x2 - 1", "x1", "x2", "10 - x1", "10 - x2"],
    "box": [[0.01, 10.0], [0.01, 10.0]],
    "interior_point": [2.0, 2.0],
}


def test_two_point_cycle_ends_below_the_float_floor():
    trace = continuation.solve(problem.problem_from_dict(HYPERBOLA_006))
    assert sum(pt.iterations for pt in trace.points) < 100
    assert all(pt.status is not InnerStatus.MAX_ITERS for pt in trace.points)
    assert trace.points[-1].status is InnerStatus.NO_PROGRESS
    assert trace.final_certificate.verdict is Verdict.KKT_POINT
    assert abs(trace.final_certificate.objective - 2.6872945658995477) <= 1e-6


# (Newton steps, barrier_value trials) of each builtin's default-schedule solve
BUILTIN_CEILINGS = {
    "cassini": (75, 134),
    "hyperbola": (71, 111),
    "epsbox": (76, 150),
    "disk": (71, 98),
    "degenerate-disk": (71, 94),
}


@pytest.mark.parametrize("name", BUILTIN_CEILINGS)
def test_builtin_newton_iterations(monkeypatch, problems, name):
    # deterministic counters, each Newton step forming one barrier Hessian;
    # the path records them, and counted calls check the records
    counts = _counting(monkeypatch)
    trace = continuation.solve(problems[name])
    steps = sum(pt.iterations for pt in trace.points)
    trials = sum(pt.trials for pt in trace.points)
    assert steps <= BUILTIN_CEILINGS[name][0]
    assert trials <= BUILTIN_CEILINGS[name][1]
    assert (counts["barrier_hessian"], counts["barrier_value"]) == (steps, trials)


@pytest.mark.parametrize(
    "name, schedule, trials",
    [
        ("cassini", MuSchedule(1.0, 0.9, 1e-8), 518),
        ("hyperbola", MuSchedule(1.0, 0.9, 1e-8), 490),
        ("cassini", MuSchedule(1.0, 0.2, 1e-12), 190),
    ],
    ids=["cassini-factor-0.9", "hyperbola-factor-0.9", "cassini-mu-min-1e-12"],
)
def test_off_default_stages_end_honestly(monkeypatch, problems, name, schedule, trials):
    # close weights and a low mu_min end late stages at phi's float floor
    # above their target; a search that ran 54 trials there and formed a
    # Hessian it did not count read 780, 806 and 242 trials
    counts = _counting(monkeypatch)
    trace = continuation.solve(problems[name], schedule)
    assert counts["barrier_hessian"] == sum(pt.iterations for pt in trace.points)
    assert counts["barrier_value"] == sum(pt.trials for pt in trace.points)
    assert counts["barrier_value"] <= trials
    assert all(_ends_honestly(problems[name], pt) for pt in trace.points)


def test_records_shape(traces):
    trace = traces["disk"]
    records = [cli.record("path_point", pt) for pt in trace.points]
    records.append(cli.record("certificate", trace.final_certificate))
    assert [r["record"] for r in records[:-1]] == ["path_point"] * (len(records) - 1)
    assert records[-1]["record"] == "certificate"
    pt = records[0]
    assert set(pt) == {
        "record",
        "mu",
        "x",
        "multipliers",
        "objective",
        "grad_norm",
        "status",
        "iterations",
        "trials",
    }
    assert pt["mu"] == 1.0
    assert pt["status"] in {s.value for s in InnerStatus}
