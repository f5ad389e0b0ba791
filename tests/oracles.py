"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written from scratch (plain Python loops,
mpmath arbitrary precision) and must not import from compredict, so that
test comparisons are genuine dual-route checks.
"""

import mpmath as mp

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


def mp_t_cdf(x, df):
    x, df = mp.mpf(x), mp.mpf(df)
    tail = mp.betainc(df / 2, mp.mpf(1) / 2, x2=df / (df + x * x), regularized=True)
    return tail / 2 if x < 0 else 1 - tail / 2


def mp_f_cdf(x, df1, df2):
    x, df1, df2 = mp.mpf(x), mp.mpf(df1), mp.mpf(df2)
    if x <= 0:
        return mp.mpf(0)
    return mp.betainc(df1 / 2, df2 / 2, x2=df1 * x / (df1 * x + df2), regularized=True)


def mp_f_sf(x, df1, df2):
    x, df1, df2 = mp.mpf(x), mp.mpf(df1), mp.mpf(df2)
    if x <= 0:
        return mp.mpf(1)
    return mp.betainc(df2 / 2, df1 / 2, x2=df2 / (df1 * x + df2), regularized=True)


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
