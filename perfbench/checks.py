"""Output checks for the benchmark, each computed apart from avgvar.

Nothing here imports avgvar. Every expected value comes from a closed form
or a quadrature written out below, or from a property the method must
have (the weight identities, the density integrating to the empirical
mass, three pricers agreeing, no-arbitrage bounds). No check compares
against a stored copy of an earlier run.

Statistical checks pass when the estimate is within ``Z_TOL`` standard
errors of its target. At 5 standard errors a correct program fails a given
check on about one seed in 1.7 million, so a failure points at the program,
not at the seed.
"""

import csv
import math

import numpy as np

Z_TOL = 5.0
GH_NODES = 64  # Gauss-Hermite nodes for E[sigma^2(Y_t)] under the OU law


def read_columns(path):
    """A CSV file as {column: float array}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {name: np.array([float(r[i]) for r in body]) for i, name in enumerate(header)}


def read_prices(path):
    """prices.csv as {method: (value, se, ci_lo, ci_hi)}."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return {r[0]: tuple(float(v) for v in r[1:]) for r in rows[1:]}


def _trapezoid_weights(T, n_steps):
    w = np.full(n_steps + 1, T / n_steps)
    w[0] = w[-1] = 0.5 * T / n_steps
    return w


def expected_f_ou(model):
    """E[F] for the OU model with the reference volatility family.

    Y at node t is exactly Gaussian, with mean y0 e^{-a t} and variance
    k^2 (1 - e^{-2 a t}) / (2 a), because the program steps Y by its exact
    transition. E[sigma^2(Y_t)] is integrated against that law by
    Gauss-Hermite quadrature, then averaged over the grid by the same
    trapezoid rule that defines F.
    """
    p, n = model["params"], model["n_steps"]
    c, m = model["vol"]["c"], model["vol"]["m"]
    a, k, T = p["alpha"], p["k"], p["T"]
    t = np.linspace(0.0, T, n + 1)
    mean = p["y0"] * np.exp(-a * t)
    sd = np.sqrt(k * k * (1.0 - np.exp(-2.0 * a * t)) / (2.0 * a))
    x, gw = np.polynomial.hermite_e.hermegauss(GH_NODES)
    y = mean[:, None] + sd[:, None] * x[None, :]
    sigma = c + m * (y + np.sqrt(y * y + 1.0))
    e_sig2 = (sigma**2 @ gw) / math.sqrt(2.0 * math.pi)
    return float(e_sig2 @ _trapezoid_weights(T, n) / T)


def expected_f_cir(model):
    """E[F] for the CIR model under full-truncation Euler.

    The noise term k sqrt(max(Z, 0)) dW has mean zero given Z, so the node
    means follow m_{j+1} = m_j + (b - m_j) dt exactly (the positivity floor
    at 1e-12 is never reached in the density regime).
    """
    p, n = model["params"], model["n_steps"]
    dt = p["T"] / n
    means = np.empty(n + 1)
    means[0] = p["z0"]
    for j in range(n):
        means[j + 1] = means[j] + (p["b"] - means[j]) * dt
    return float(means @ _trapezoid_weights(p["T"], n) / p["T"])


class CheckLog:
    """Named pass/fail results with the numbers behind them.

    ``pooled`` keeps, for each statistical check, the estimate's distance
    from its target and its standard error, so that a run can repeat the
    check on all of its rounds together (see ``pooled_failures``).
    """

    def __init__(self):
        self.results = []
        self.pooled = {}

    def add(self, name, ok, detail):
        self.results.append((name, bool(ok), detail))

    def within(self, name, value, target, se):
        self.pool(name, value - target, se)
        z = abs(value - target) / se if se > 0 else math.inf
        self.add(name, abs(value - target) <= Z_TOL * se,
                 f"{value:.6g} vs {target:.6g} ({z:.2f} se)")

    def pool(self, name, distance, se):
        self.pooled[name] = (distance, se)

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def pooled_failures(rounds):
    """Repeat each statistical check on the mean over independent rounds.

    ``rounds`` maps a check name to its (distance, se) of every round. The
    mean distance has standard error sqrt(sum se^2) / R, so R rounds see a
    bias sqrt(R) times smaller than one round does. Returns the names and
    details of the checks that fail.
    """
    failed = []
    for name, pairs in rounds.items():
        distance = sum(d for d, _ in pairs) / len(pairs)
        se = math.sqrt(sum(s * s for _, s in pairs)) / len(pairs)
        if not abs(distance) <= Z_TOL * se:
            failed.append((name, f"mean distance {distance:.4g} over {len(pairs)} "
                                 f"rounds, {abs(distance) / se:.2f} se"))
    return failed


def _sem(values):
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def check_density_outputs(out_dir, model, n_paths, log):
    """Checks on density.csv and weights.csv; returns the accuracy se.

    The returned se is the root mean square over the density grid of
    std(1{F_i > x} w_i) / sqrt(N), from per-path terms rather than the
    program's 10-block errors.
    """
    wcols = read_columns(f"{out_dir}/weights.csv")
    dcols = read_columns(f"{out_dir}/density.csv")
    log.add("weights.rows", wcols["path_index"].size == n_paths,
            f"{wcols['path_index'].size} rows for {n_paths} paths")
    f_all, w_all = wcols["avg_variance"], wcols["weight"]
    valid = np.isfinite(w_all)
    log.add("weights.valid", valid.sum() >= n_paths * (1 - 1e-3),
            f"{int(valid.sum())} finite weights of {n_paths}")
    f, w = f_all[valid], w_all[valid]

    expected = expected_f_ou(model) if model["kind"] == "ou" else expected_f_cir(model)
    log.within("mean_F", float(np.mean(f_all)), expected, _sem(f_all))
    log.within("mean_w", float(np.mean(w)), 0.0, _sem(w))
    log.within("mean_Fw", float(np.mean(f * w)), 1.0, _sem(f * w))

    x = dcols["x"]
    tail = (f[:, None] > x[None, :]) * w[:, None]
    p_paths = tail.mean(axis=0)
    p_prog = dcols["p_malliavin"]
    scale = float(np.max(np.abs(p_paths)))
    log.add("density.matches_weights",
            np.allclose(p_prog, p_paths, rtol=1e-9, atol=1e-12 * scale),
            f"max |diff| {float(np.max(np.abs(p_prog - p_paths))):.3g}")

    # the trapezoid integral of p_malliavin between grid nodes a and b,
    # written per path, against the share of F in (a, b]
    last = x.size - 1
    for lo, hi in ((0, last), (0, last // 4), (last // 4, last // 2),
                   (last // 2, 3 * last // 4), (3 * last // 4, last)):
        wab = _sub_trapezoid(x, lo, hi)
        integral = float(p_prog @ wab)
        inside = (f > x[lo]) & (f <= x[hi])
        diff = tail @ wab - inside
        name = "density.mass" if (lo, hi) == (0, last) else f"density.int[{lo},{hi}]"
        log.within(name, integral, float(inside.mean()), _sem(diff))
    return float(np.sqrt(np.mean(tail.std(axis=0, ddof=1) ** 2) / f.size))


def _sub_trapezoid(x, lo, hi):
    """Trapezoid weights of the nodes lo..hi of the grid x."""
    out = np.zeros_like(x)
    h = np.diff(x[lo:hi + 1])
    out[lo:hi] += 0.5 * h
    out[lo + 1:hi + 1] += 0.5 * h
    return out


PRICERS = ("density_quadrature", "mixing_mc", "plain_mc")


def check_price_outputs(out_dir, model, strike, log):
    """Checks on prices.csv; returns the se of the density_quadrature row.

    The three pricers estimate one price from independent ensembles, so
    their intervals of Z_TOL standard errors must overlap pairwise. (The
    95% intervals the file also carries miss each other on a few percent
    of seeds by chance alone, too often for a gate.)
    """
    rows = read_prices(f"{out_dir}/prices.csv")
    missing = [m for m in PRICERS + ("martingale_check",) if m not in rows]
    log.add("prices.rows", not missing, f"missing {missing}" if missing else "4 rows")
    if missing:
        return math.nan
    p = model["params"]
    s0, r, T = p["s0"], p["r"], p["T"]
    lower = max(s0 - strike * math.exp(-r * T), 0.0)
    for name in PRICERS:
        value = rows[name][0]
        log.add(f"{name}.no_arbitrage", lower < value < s0,
                f"{lower:.6g} < {value:.6g} < {s0:.6g}")
    for i, a in enumerate(PRICERS):
        for b in PRICERS[i + 1:]:
            (va, sa), (vb, sb) = rows[a][:2], rows[b][:2]
            log.add(f"overlap.{a}.{b}", abs(va - vb) <= Z_TOL * (sa + sb),
                    f"{va:.6g} +- {Z_TOL * sa:.3g} vs {vb:.6g} +- {Z_TOL * sb:.3g}")
            log.pool(f"difference.{a}.{b}", va - vb, math.hypot(sa, sb))
    value, se = rows["martingale_check"][:2]
    log.within("martingale", value, s0, se)
    return rows["density_quadrature"][1]
