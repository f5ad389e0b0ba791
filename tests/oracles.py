"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from scratch (plain Python loops,
mpmath arbitrary precision) and must not import from compredict, so that
test comparisons are genuine dual-route checks.
"""

import json
import math
import os

import mpmath as mp
from scipy import stats as scipy_stats

mp.mp.dps = 50


def brute_force_trajectory(p0, v0, accels, dt):
    """Sequential exact-hold integration of one axis: returns positions and
    velocities at every sample (len(accels) + 1 of each)."""
    positions, velocities = [p0], [v0]
    p, v = p0, v0
    for a in accels:
        p = p + dt * v + 0.5 * dt * dt * a
        v = v + dt * a
        positions.append(p)
        velocities.append(v)
    return positions, velocities


def zoh_update(positions, velocities, accelerations, dt):
    """One exact ZOH sample update; broadcasts over any leading dimensions.

    The stepped reference for `dynamics.zoh_trajectory`, which must equal
    repeated calls bit for bit.
    """
    new_p = positions + dt * velocities + (0.5 * dt * dt) * accelerations
    new_v = velocities + dt * accelerations
    return new_p, new_v


def convolution_position(p1, v1, inputs, dt):
    """Closed-form position after len(inputs) steps:
    p = p1 + (k-1)*dt*v1 + sum_i (k-i-1/2)*dt^2*u[i] with i = 1..k-1."""
    k = len(inputs) + 1
    total = p1 + (k - 1) * dt * v1
    for i, u in enumerate(inputs, start=1):
        total += (k - i - 0.5) * dt * dt * u
    return total


def generate_profile(kind, u1, n_samples, measured_future=None):
    """The assumed accelerations of one horizon, one [x, y, z] row per
    sample; row k-1 drives the step from sample k to k+1 (the last row
    drives none). zero gives 0, const gives u1, cubic gives
    (1 - 3s^2 + 2s^3) * u1 with s = (k-1)/(n-1), and oracle gives the rows
    of measured_future, the recorded accelerations of the horizon."""
    kind = getattr(kind, "value", kind)  # a profile name or a ProfileKind
    if kind == "oracle":
        return [[float(a) for a in row] for row in measured_future[:n_samples]]
    rows = []
    for k in range(1, n_samples + 1):
        s = (k - 1) / (n_samples - 1)
        weight = {"zero": 0.0, "const": 1.0, "cubic": 1.0 - 3.0 * s**2 + 2.0 * s**3}[kind]
        rows.append([weight * float(a) for a in u1])
    return rows


def _magnitude(c):
    """|c| of a scalar discrepancy (acting along X) or of a 3-vector."""
    return math.hypot(*c) if hasattr(c, "__len__") else abs(float(c))


def analytic_error(k, dt, c):
    """Exact position error at sample k (1-based) of a horizon when the
    assumed acceleration differs from the true one by the constant c.

    Each of the k-1 ZOH steps feeds the discrepancy through the position row
    of the input matrix; the accumulated gap is (k-1)^2/2 * dt^2 * |c|.
    """
    return 0.5 * (k - 1) ** 2 * dt * dt * _magnitude(c)


def expected_ae(n_samples, dt, c):
    """Mean of analytic_error over k = 1..n_samples:
    dt^2 * |c| * (n-1)(2n-1)/12."""
    return dt * dt * _magnitude(c) * (n_samples - 1) * (2 * n_samples - 1) / 12.0


def expected_me(n_samples, dt, c):
    """Max of analytic_error over a horizon, attained at the last sample."""
    return analytic_error(n_samples, dt, c)


def direction_score(reference, predicted):
    """1 when the predicted displacement over a horizon has the sign of the
    reference displacement along the axis where the reference moves most
    (first such axis on ties), else 0; the sign of 0 is 0. Both arguments
    are the horizon's positions, one row of coordinates per sample."""

    def sign(x):
        return (x > 0) - (x < 0)

    ref = [float(b) - float(a) for a, b in zip(reference[0], reference[-1])]
    pred = [float(b) - float(a) for a, b in zip(predicted[0], predicted[-1])]
    axis = max(range(len(ref)), key=lambda i: abs(ref[i]))
    return int(sign(pred[axis]) == sign(ref[axis]))


def _nested_mean(grouped):
    """Mean over activities of the mean over repeats of the mean of each
    trial's values, keys in sorted order; grouped is {activity: {repeat:
    values}}."""
    activity_means = []
    for activity in sorted(grouped):
        repeat_means = []
        for repeat in sorted(grouped[activity]):
            values = grouped[activity][repeat]
            repeat_means.append(sum(values) / len(values))
        activity_means.append(sum(repeat_means) / len(repeat_means))
    return sum(activity_means) / len(activity_means)


def _start_outcomes(trial, kind, n, dt):
    """(mean error, max error, direction score) of each horizon of n samples
    in a trial, stepping the profile's accelerations one sample at a time."""
    positions = trial.positions.tolist()
    velocities = trial.velocities.tolist()
    accels = trial.accel_inputs.tolist()
    outcomes = []
    for start in range(len(positions) - n + 1):
        profile = generate_profile(kind, accels[start], n, accels[start : start + n])
        axes = []
        for axis in range(3):
            inputs = [row[axis] for row in profile[: n - 1]]
            axes.append(brute_force_trajectory(positions[start][axis], velocities[start][axis], inputs, dt)[0])
        predicted = [[axes[0][k], axes[1][k], axes[2][k]] for k in range(n)]
        reference = positions[start : start + n]
        errors = []
        for p, r in zip(predicted, reference):
            errors.append(math.sqrt((p[0] - r[0]) ** 2 + (p[1] - r[1]) ** 2 + (p[2] - r[2]) ** 2))
        outcomes.append((sum(errors) / n, max(errors), direction_score(reference, predicted)))
    return outcomes


def reference_metric_rows(trials, config):
    """A run's metric rows and skip rows, from per-start stepping and plain
    loops.

    trials carry subject_id, activity_id, repeat_index, is_static and (n, 3)
    positions, velocities and accel_inputs; config carries dt, profiles and
    horizons_ms. Subjects go in sorted order, then profiles and horizons in
    config order. A trial shorter than a horizon is skipped once per
    (subject, activity, repeat, horizon), with the pipeline's reason; static
    trials give no direction scores. Returns
    (rows, skips): rows are (subject, profile, horizon_ms, ae, me, ada, mda)
    with ada and mda None when every trial is static, and skips are
    (subject, activity, repeat, horizon_ms, reason).
    """
    rows, skips, seen = [], [], set()
    for subject in sorted({trial.subject_id for trial in trials}):
        own = [trial for trial in trials if trial.subject_id == subject]
        for profile in config.profiles:
            for t_ms in config.horizons_ms:
                n = round(t_ms / 1000.0 / config.dt) + 1
                means, maxima, scores = {}, {}, {}
                for trial in own:
                    key = (subject, trial.activity_id, trial.repeat_index)
                    length = len(trial.positions)
                    if length < n:
                        if key + (t_ms,) not in seen:
                            seen.add(key + (t_ms,))
                            reason = (
                                f"trial {key!r} has {length} samples, shorter than one "
                                f"{t_ms:g} ms horizon ({n} samples)"
                            )
                            skips.append(key + (t_ms, reason))
                        continue
                    outcomes = _start_outcomes(trial, profile, n, config.dt)
                    means.setdefault(trial.activity_id, {})[trial.repeat_index] = [o[0] for o in outcomes]
                    maxima.setdefault(trial.activity_id, {})[trial.repeat_index] = [o[1] for o in outcomes]
                    if not trial.is_static:
                        scores.setdefault(trial.activity_id, {})[trial.repeat_index] = [o[2] for o in outcomes]
                if not means:
                    continue
                me = max(max(values) for repeats in maxima.values() for values in repeats.values())
                ada = mda = None
                if scores:
                    ada = _nested_mean(scores)
                    mda = min(sum(v) / len(v) for repeats in scores.values() for v in repeats.values())
                rows.append((subject, profile, t_ms, _nested_mean(means), me, ada, mda))
    return rows, skips


STATISTICS_METRICS = ("ae", "me", "ada", "mda")


def _mean(values):
    return math.fsum(values) / len(values)


def _variance(values):
    """Sample variance (n - 1 in the denominator); exactly 0 when every
    value is equal."""
    if len(set(values)) == 1:
        return 0.0
    mean = _mean(values)
    return math.fsum((v - mean) ** 2 for v in values) / (len(values) - 1)


def _welch_t(a, b):
    """Welch's t-test: (t, df) by the Welch-Satterthwaite equation and the
    two-sided p-value, or the note of a pair with no variance."""
    va, vb = _variance(a), _variance(b)
    if va == 0.0 and vb == 0.0:
        return "both samples have zero variance"
    se_a, se_b = va / len(a), vb / len(b)
    t = (_mean(a) - _mean(b)) / math.sqrt(se_a + se_b)
    df = (se_a + se_b) ** 2 / (se_a**2 / (len(a) - 1) + se_b**2 / (len(b) - 1))
    return t, df, None, 2.0 * scipy_stats.t.sf(abs(t), df)


def _cohens_d(a, b):
    va, vb = _variance(a), _variance(b)
    spread = ((len(a) - 1) * va + (len(b) - 1) * vb) / (len(a) + len(b) - 2)
    if spread <= 0.0:
        return "pooled variance is zero"
    return (_mean(a) - _mean(b)) / math.sqrt(spread)


def _welch_anova(groups):
    """Welch's one-way ANOVA (Welch 1951): F, df1 = k - 1, df2 and its
    p-value, or the note naming the first group with no variance."""
    variances = [_variance(g) for g in groups]
    if 0.0 in variances:
        return f"group {variances.index(0.0)} has zero variance"
    k = len(groups)
    w = [len(g) / v for g, v in zip(groups, variances)]
    means = [_mean(g) for g in groups]
    total = math.fsum(w)
    grand = math.fsum(wi * m for wi, m in zip(w, means)) / total
    between = math.fsum(wi * (m - grand) ** 2 for wi, m in zip(w, means)) / (k - 1)
    lam = math.fsum((1.0 - wi / total) ** 2 / (len(g) - 1) for wi, g in zip(w, groups))
    f = between / (1.0 + 2.0 * (k - 2) * lam / (k * k - 1))
    df2 = (k * k - 1) / (3.0 * lam)
    return f, float(k - 1), df2, scipy_stats.f.sf(f, k - 1, df2)


def _wls_fit(levels, degree):
    """Weighted polynomial fit in high precision: each value at a level
    weighs 1/variance of the level's values, 1e12 for a level without
    variance. Returns (coefficients, R^2, weighted RSS, points, degenerate)."""
    ts, ys, ws = [], [], []
    for t, values in levels:
        v = _variance(values)
        for y in values:
            ts.append(t)
            ys.append(y)
            ws.append(1.0 / v if v > 0.0 else 1e12)
    coefficients = mp_wls_polyfit(ts, ys, ws, degree)
    wrss = mp_weighted_rss(ts, ys, ws, coefficients)
    grand = mp.fsum(mp.mpf(w) * y for w, y in zip(ws, ys)) / mp.fsum(ws)
    wtss = mp.fsum(mp.mpf(w) * (y - grand) ** 2 for w, y in zip(ws, ys))
    r_squared = 1 - wrss / wtss if wtss > 0 else (1 if wrss <= 0 else 0)
    degenerate = any(_variance(values) == 0.0 for _, values in levels)
    return [float(c) for c in coefficients], float(r_squared), wrss, len(ys), degenerate


def _nested_f(reduced, full):
    """F-test of a fit of one more degree: (F, df1, df2, p, note)."""
    (_, _, rss_r, n, _), (coefficients, _, rss_f, _, _) = reduced, full
    df1, df2 = 1.0, float(n - len(coefficients))
    drop = rss_r - rss_f
    if drop <= max(mp.mpf(1e-12) * rss_r, 0):
        return 0.0, df1, df2, 1.0, ""
    if rss_f <= 0:
        return math.inf, df1, df2, 0.0, "perfect fit"
    f = float((drop / df1) / (rss_f / df2))
    return f, df1, df2, scipy_stats.f.sf(f, df1, df2), ""


def reference_statistics(metric_rows, config):
    """compute_statistics' (fit rows, level rows, test rows, notes), each row
    a tuple of the pipeline row's fields, from textbook formulas: scipy.stats
    distributions for the tails and quantiles, and high-precision normal
    equations for the weighted fits.

    metric_rows carry subject_id, profile, horizon_ms and the four metrics
    (ada and mda may be None); config carries profiles, horizons_ms and
    alpha. A group of values counts as without variance when its values are
    all equal. Per (metric, profile), each horizon with two or more values
    gives a level row with a t-based 95% CI; four or more such levels give
    the cubic -> quadratic -> linear fits and their F-tests. Per (metric,
    horizon), the profiles with two or more values get a Welch ANOVA; when
    p <= alpha, Welch t-tests with a pooled-SD Cohen's d follow in two
    Bonferroni families: the pairs of non-oracle profiles, and the oracle
    against each of them. A family's m is its number of pairs.
    """
    if len({row.subject_id for row in metric_rows}) < 2:
        return [], [], [], ["insufficient subjects for inference (n < 2); statistics skipped"]
    values = {}
    for row in sorted(metric_rows, key=lambda r: r.subject_id):
        for metric in STATISTICS_METRICS:
            if getattr(row, metric) is not None:
                values.setdefault((metric, row.profile, row.horizon_ms), []).append(getattr(row, metric))

    fits, levels, trends, tests, notes = [], [], [], [], []
    for metric in STATISTICS_METRICS:
        for profile in config.profiles:
            usable = []
            for t in config.horizons_ms:
                group = values.get((metric, profile, t), [])
                if len(group) < 2:
                    continue
                usable.append((t, group))
                mean, n = _mean(group), len(group)
                se = math.sqrt(_variance(group) / n)
                low, high = scipy_stats.t.interval(0.95, n - 1, loc=mean, scale=se) if se else (mean, mean)
                levels.append((metric, profile, t, mean, low, high, n))
            if len(usable) < 4:
                notes.append(f"{metric}/{profile}: too few horizon levels for trend fits")
                continue
            by_degree = {d: _wls_fit(usable, d) for d in (1, 2, 3)}
            f, df1, df2, p, note = _nested_f(by_degree[2], by_degree[3])
            trends.append((metric, None, f"{profile}:cubic-vs-quadratic", f, df1, df2, p, None, None, note))
            selected = 3
            if not p <= config.alpha:
                f, df1, df2, p, note = _nested_f(by_degree[1], by_degree[2])
                trends.append((metric, None, f"{profile}:quadratic-vs-linear", f, df1, df2, p, None, None, note))
                selected = 2 if p <= config.alpha else 1
            for d, (coefficients, r_squared, _, _, degenerate) in by_degree.items():
                fits.append((metric, profile, d, d == selected, tuple(coefficients), r_squared, degenerate))

    oracle = "oracle"
    plain = [p for p in config.profiles if p != oracle]
    families = [[(a, b) for i, a in enumerate(plain) for b in plain[i + 1 :]]]
    families.append([(oracle, p) for p in plain] if oracle in config.profiles else [])
    for metric in STATISTICS_METRICS:
        for t in config.horizons_ms:
            groups = {}
            for p in config.profiles:
                if len(values.get((metric, p, t), [])) >= 2:
                    groups[p] = values[metric, p, t]
            if len(groups) < 2:
                continue
            anova = _welch_anova(list(groups.values()))
            if isinstance(anova, str):
                tests.append((metric, t, "anova", None, None, None, None, None, None, anova))
                continue
            tests.append((metric, t, "anova", *anova, None, None, ""))
            if not anova[3] <= config.alpha:
                continue
            for family in families:
                pairs = [(a, b) for a, b in family if a in groups and b in groups]
                rows = []
                for a, b in pairs:
                    result = _welch_t(groups[a], groups[b])
                    d = result if isinstance(result, str) else _cohens_d(groups[a], groups[b])
                    if isinstance(d, str):  # the note of the test, or else of the effect size
                        rows.append((metric, t, f"{a}-{b}", None, None, None, None, None, None, d))
                    else:
                        rows.append((metric, t, f"{a}-{b}", *result, None, d, ""))
                for row in rows:
                    adjusted = None if row[6] is None else min(1.0, len(pairs) * row[6])
                    tests.append(row[:7] + (adjusted,) + row[8:])
    return fits, levels, trends + tests, notes


def mp_t_cdf(x, df):
    x, df = mp.mpf(x), mp.mpf(df)
    tail = mp.betainc(df / 2, mp.mpf(1) / 2, x2=df / (df + x * x), regularized=True)
    return tail / 2 if x < 0 else 1 - tail / 2


def mp_betainc(a, b, x, y):
    """I_x(a, b), with y = 1 - x, by the all-positive series
    x^a y^b / (a B(a, b)) 2F1(a + b, 1; a + 1; x), summed on the side where it
    converges fast: mpmath's own betainc fails to converge at a = b = 5e3."""
    if x > (a + 1) / (a + b + 2):
        return 1 - mp_betainc(b, a, y, x)
    return x**a * y**b / (a * mp.beta(a, b)) * mp.hyp2f1(a + b, 1, a + 1, x)


def mp_f_sf(x, df1, df2):
    x, df1, df2 = mp.mpf(x), mp.mpf(df1), mp.mpf(df2)
    if x <= 0:
        return mp.mpf(1)
    d = df1 * x + df2
    return mp_betainc(df2 / 2, df1 / 2, df2 / d, df1 * x / d)


def mp_t_quantile(q, df):
    return mp.findroot(lambda t: mp_t_cdf(t, df) - mp.mpf(q), mp.mpf(2))


def mp_wls_polyfit(ts, ys, ws, degree):
    """Weighted normal equations (X^T W X) beta = X^T W y in high precision."""
    n = degree + 1
    xtwx = mp.zeros(n, n)
    xtwy = mp.zeros(n, 1)
    for t, y, w in zip(ts, ys, ws):
        t, y, w = mp.mpf(t), mp.mpf(y), mp.mpf(w)
        powers = [t**j for j in range(n)]
        for r in range(n):
            xtwy[r] += w * powers[r] * y
            for c in range(n):
                xtwx[r, c] += w * powers[r] * powers[c]
    beta = mp.lu_solve(xtwx, xtwy)
    return [beta[i] for i in range(n)]


def mp_weighted_rss(ts, ys, ws, coeffs):
    total = mp.mpf(0)
    for t, y, w in zip(ts, ys, ws):
        fit = sum(mp.mpf(c) * mp.mpf(t) ** j for j, c in enumerate(coeffs))
        total += mp.mpf(w) * (mp.mpf(y) - fit) ** 2
    return total


def detect_contact_by_loop(vertical, rise_threshold, hold_samples):
    """Inclusive (start, end) index pairs of the runs of vertical force above
    the threshold that last at least hold_samples samples, one sample at a
    time."""
    intervals = []
    start = None
    for i, value in enumerate(vertical):
        above = value > rise_threshold
        if above and start is None:
            start = i
        elif not above and start is not None:
            if i - start >= hold_samples:
                intervals.append((start, i - 1))
            start = None
    if start is not None and len(vertical) - start >= hold_samples:
        intervals.append((start, len(vertical) - 1))
    return intervals


def _write_cells(path, header, rows):
    """A CSV file of float rows, one repr per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(float(cell)) for cell in row) + "\n")


def reference_write_dataset(out_dir, items, gravity, grf_factor):
    """The synthetic dataset writer as a per-cell loop: every GRF row is
    built at the written rate, holding force sample i over the grf_factor
    rows centred on its instant, and every cell is formatted on its own.
    items are (subject_id, activity_id, repeat_index, is_static, trial)."""
    manifest = {"trials": []}
    for subject_id, activity_id, repeat_index, is_static, trial in items:
        os.makedirs(os.path.join(out_dir, subject_id), exist_ok=True)
        com_rel = os.path.join(subject_id, f"{activity_id}_{repeat_index}_com.csv")
        grf_rel = os.path.join(subject_id, f"{activity_id}_{repeat_index}_grf.csv")
        states = zip(trial.positions.tolist(), trial.velocities.tolist())
        com_rows = [[i * trial.dt] + p + v for i, (p, v) in enumerate(states)]
        _write_cells(os.path.join(out_dir, com_rel), "time_s,px,py,pz,vx,vy,vz", com_rows)

        forces = [[trial.mass * a for a in row] for row in trial.accel_inputs.tolist()]
        for row in forces:
            row[1] += trial.mass * gravity
        n = len(forces)
        forces_fast = [forces[min((i + grf_factor // 2) // grf_factor, n - 1)] for i in range(grf_factor * n)]
        period = 1.0 / (grf_factor / trial.dt)
        grf_rows = [[i * period] + row for i, row in enumerate(forces_fast)]
        _write_cells(os.path.join(out_dir, grf_rel), "time_s,fx,fy,fz", grf_rows)

        manifest["trials"].append(
            {
                "subject_id": subject_id,
                "activity_id": activity_id,
                "repeat_index": repeat_index,
                "is_static": is_static,
                "mass_kg": trial.mass,
                "com_file": com_rel,
                "grf_file": grf_rel,
                "contact_intervals": [[0, len(forces_fast) - 1]],
                "axis_map": ["x", "y", "z"],
            }
        )
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
