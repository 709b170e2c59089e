"""End-to-end acceptance: nine checks, one printed verdict line each.

Each test exercises the shipped surface (CLI or public probe functions),
computes its pass condition, prints a single [criterion N] PASS/FAIL line
with the key numbers, and then asserts.
"""

import json

import numpy as np

from logbarrier import barrier, diagnostics, expr, oracle

DISK_FSTAR = 3.0 - 2.0 * np.sqrt(2.0)


def _verdict(num, name, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _records(text):
    return [json.loads(line) for line in text.splitlines() if line]


def test_criterion_1_cassini_agrees_with_oracle(run_cli, tmp_path, problems):
    out = tmp_path / "cassini.jsonl"
    code, _, _ = run_cli(["solve", "--builtin", "cassini", "--out", out])
    cert = _records(out.read_text())[-1]
    ref = oracle.grid_minimize(problems["cassini"], res=2049)
    gap = abs(cert["objective"] - ref.f_best)
    active_lams = [cert["multipliers"][j - 1] for j in cert["active_set"]]
    ok = (
        code == 0
        and cert["verdict"] == "kkt_point"
        and gap <= 1e-4
        and cert["stationarity_residual"] <= 1e-5
        and len(active_lams) > 0
        and all(v >= 0.0 for v in active_lams)
    )
    _verdict(
        1,
        "cassini solve is a certified KKT point matching the grid oracle",
        ok,
        f"f={cert['objective']:.10f} oracle={ref.f_best:.10f} gap={gap:.2e} "
        f"stationarity={cert['stationarity_residual']:.2e} active={cert['active_set']}",
    )


def test_criterion_2_hyperbola_known_solution(run_cli):
    code, stdout, _ = run_cli(["solve", "--builtin", "hyperbola"])
    cert = _records(stdout)[-1]
    dx = max(abs(cert["x"][0] - 1.0), abs(cert["x"][1] - 1.0))
    df = abs(cert["objective"] - 2.0)
    dlam = abs(cert["multipliers"][0] - 1.0)
    ok = code == 0 and cert["verdict"] == "kkt_point" and dx <= 1e-3 and df <= 1e-4 and dlam <= 1e-2
    _verdict(
        2,
        "hyperbola solve recovers x*=(1,1), f*=2, lambda1=1",
        ok,
        f"|x - x*|={dx:.2e} |f - 2|={df:.2e} |lam1 - 1|={dlam:.2e}",
    )


def test_criterion_3_epsbox_solved_despite_nonconvex_barrier(run_cli, tmp_path):
    code_s, stdout, _ = run_cli(["solve", "--builtin", "epsbox"])
    cert = _records(stdout)[-1]
    dx = max(abs(cert["x"][0] - 0.0), abs(cert["x"][1] - 1.0))
    df = abs(cert["objective"] - (-1.0))
    out = tmp_path / "phi.jsonl"
    code_d, _, _ = run_cli(["diagnose", "--builtin", "epsbox", "--check", "phiconvexity:1", "--out", out])
    (phi,) = _records(out.read_text())
    ok = (
        code_s == 0
        and cert["verdict"] == "kkt_point"
        and dx <= 1e-3
        and df <= 1e-4
        and code_d == 0
        and phi["min_eigenvalue"] < 0.0
    )
    _verdict(
        3,
        "epsbox solve reaches x*=(0,1) while its barrier is provably nonconvex",
        ok,
        f"|x - x*|={dx:.2e} |f + 1|={df:.2e} min_eig={phi['min_eigenvalue']:.3f}",
    )


def test_criterion_4_levelset_probe_separates_levels(problems):
    p = problems["cassini"]
    results = {}
    witness_ok = True
    for level in (2.95, 2.5, 1.5, 4.0, 0.0, -2.0):
        r = diagnostics.levelset_convexity_probe(p, level)
        results[level] = r.verdict
        if r.witness is not None:
            w = r.witness
            g = p.constraints[0]
            witness_ok = witness_ok and (
                expr.evaluate(g, w.x) == w.g_x[0]
                and expr.evaluate(g, w.y) == w.g_y[0]
                and expr.evaluate(g, w.midpoint) == w.g_mid[0]
                and w.g_x[0] >= level
                and w.g_y[0] >= level
                and w.g_mid[0] < level
            )
    ok = (
        all(results[a] == "counterexample" for a in (2.95, 2.5, 1.5, 4.0))
        and all(results[a] == "convex_up_to_sampling" for a in (0.0, -2.0))
        and witness_ok
    )
    _verdict(
        4,
        "level-set probe flags nonconvex superlevel sets and verifiable witnesses",
        ok,
        "; ".join(f"a={a}: {v}" for a, v in results.items()) + f"; witnesses_reproduce={witness_ok}",
    )


def test_criterion_5_nondegeneracy_gate(run_cli, tmp_path):
    mins = {}
    codes = {}
    for name in ("cassini", "hyperbola", "epsbox", "disk"):
        out = tmp_path / f"ndg-{name}.jsonl"
        codes[name], _, _ = run_cli(["diagnose", "--builtin", name, "--check", "nondegeneracy", "--out", out])
        (rec,) = _records(out.read_text())
        sampled = [c["min_gradient_norm"] for c in rec["constraints"] if c["samples"] > 0]
        mins[name] = min(sampled)
    out = tmp_path / "ndg-degenerate.jsonl"
    code_bad, _, _ = run_cli(["diagnose", "--builtin", "degenerate-disk", "--check", "nondegeneracy", "--out", out])
    (rec,) = _records(out.read_text())
    degenerate_min = min(c["min_gradient_norm"] for c in rec["constraints"] if c["samples"] > 0)
    code_solve, _, _ = run_cli(["solve", "--builtin", "degenerate-disk", "--require-assumptions"])
    ok = (
        all(code == 0 for code in codes.values())
        and all(v >= 1e-6 for v in mins.values())
        and code_bad == 3
        and degenerate_min <= 1e-4
        and code_solve == 3
    )
    _verdict(
        5,
        "nondegeneracy probe passes regular problems and gates the cusped disk",
        ok,
        f"min_norms={{{', '.join(f'{k}: {v:.3f}' for k, v in mins.items())}}} "
        f"degenerate={degenerate_min:.1e} require-assumptions exit={code_solve}",
    )


def test_criterion_6_barrier_calculus_identities(problems):
    mu = 0.5
    h = 1e-6
    worst_fd = 0.0
    worst_prod = 0.0
    worst_matrix = 0.0
    for p in problems.values():
        rng = np.random.default_rng(42)
        points = []
        while len(points) < 100:
            x = rng.uniform(p.box[:, 0], p.box[:, 1])
            if min(expr.evaluate(g, x) for g in p.constraints) >= 1e-2:
                points.append(x)
        for x in points:
            be = barrier.barrier_eval(p, x, mu)
            for i in range(p.nvars):
                xp, xm = x.copy(), x.copy()
                xp[i] += h
                xm[i] -= h
                fd = (barrier.barrier_value(p, xp, mu) - barrier.barrier_value(p, xm, mu)) / (2 * h)
                if not np.isfinite(fd):
                    continue
                denom = max(1.0, abs(be.gradient[i]), abs(fd))
                worst_fd = max(worst_fd, abs(be.gradient[i] - fd) / denom)
            prods = be.multipliers * be.constraint_values
            worst_prod = max(worst_prod, float(np.abs(prods - mu).max()) / mu)
            for g in p.constraints:
                d = expr.evaluate_dual(g, x)
                dl = expr.evaluate_dual(expr.Expr(("ln", g.root), p.nvars), x)
                lhs = d.value**2 * dl.hess
                rhs = d.value * d.hess - np.outer(d.grad, d.grad)
                rel = np.linalg.norm(lhs - rhs) / max(1.0, np.linalg.norm(rhs))
                worst_matrix = max(worst_matrix, rel)
    ok = worst_fd <= 1e-5 and worst_prod <= 1e-12 and worst_matrix <= 1e-8
    _verdict(
        6,
        "gradient, multiplier, and curvature identities hold at 100 points per problem",
        ok,
        f"fd={worst_fd:.2e} (tol 1e-5) lam*g={worst_prod:.2e} (tol 1e-12) "
        f"matrix={worst_matrix:.2e} (tol 1e-8)",
    )


def test_criterion_7_barrier_blows_up_at_boundary(problems):
    mu = 1e-3
    floor_gain = 10.0 * mu * np.log(1e6)
    outcomes = {}
    for name, xs in (
        ("disk", [-np.sqrt(1.0 - 10.0**-k) / np.sqrt(2.0) * np.ones(2) for k in range(3, 9)]),
        ("cassini", [((3.0 - 10.0**-k) / 4.0) ** 0.25 * np.ones(2) for k in range(3, 9)]),
    ):
        p = problems[name]
        margins = [min(expr.evaluate(g, x) for g in p.constraints) for x in xs]
        margins_ok = all(
            abs(m - 10.0**-k) <= 1e-6 * 10.0**-k for m, k in zip(margins, range(3, 9))
        )
        phis = [barrier.barrier_value(p, x, mu) for x in xs]
        increasing = all(a < b for a, b in zip(phis, phis[1:]))
        f0 = expr.evaluate(p.objective, p.interior_point)
        excess = phis[-1] - (f0 + floor_gain)
        outcomes[name] = (margins_ok, increasing, excess)
    ok = all(m and i and e > 0.0 for m, i, e in outcomes.values())
    _verdict(
        7,
        "barrier grows monotonically along boundary-approaching sequences",
        ok,
        "; ".join(
            f"{n}: margins_ok={m} increasing={i} excess={e:.3f}" for n, (m, i, e) in outcomes.items()
        ),
    )


def test_criterion_8_disk_convex_reference(run_cli, problems):
    code, stdout, _ = run_cli(["solve", "--builtin", "disk"])
    cert = _records(stdout)[-1]
    df = abs(cert["objective"] - DISK_FSTAR)
    eig_disk = diagnostics.phi_convexity_probe(problems["disk"], mu=1.0).min_eigenvalue
    eig_hyp = diagnostics.phi_convexity_probe(problems["hyperbola"], mu=1.0).min_eigenvalue
    ok = (
        code == 0
        and cert["verdict"] == "kkt_point"
        and df <= 1e-4
        and eig_disk >= -1e-8
        and eig_hyp >= -1e-8
    )
    _verdict(
        8,
        "disk solve hits 3 - 2*sqrt(2) and convex barriers stay convex under sampling",
        ok,
        f"|f - f*|={df:.2e} min_eig(disk)={eig_disk:.3f} min_eig(hyperbola)={eig_hyp:.3f}",
    )


def test_criterion_9_reruns_are_byte_identical(run_cli, tmp_path):
    commands = {
        "solve": ["solve", "--builtin", "hyperbola"],
        "diagnose": [
            "diagnose",
            "--builtin",
            "cassini",
            "--check",
            "slater,nondegeneracy,levelset:1.5,phiconvexity:1,curvature",
            "--seed",
            "42",
        ],
        "contour": ["contour", "--builtin", "cassini", "--res", "400", "--levels", "2.95,2.5,1.5,0,-2"],
        "oracle": ["oracle", "--builtin", "disk", "--res", "501"],
        "list": ["list"],
    }
    identical = {}
    for label, argv in commands.items():
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{label}-{run}.out"
            code, _, _ = run_cli(argv + ["--out", out])
            assert code == 0, (label, code)
            payloads.append(out.read_bytes())
        identical[label] = payloads[0] == payloads[1]
    contour_rows = len((tmp_path / "contour-a.out").read_bytes().splitlines())
    rows_ok = contour_rows == 2 + 400 * 400
    ok = all(identical.values()) and rows_ok
    _verdict(
        9,
        "every command reruns byte-identically with fixed flags and seed",
        ok,
        ", ".join(f"{k}={v}" for k, v in identical.items()) + f", contour_rows={contour_rows}",
    )
