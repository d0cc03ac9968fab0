"""Reference formulations of the kernels and the price gap: the ones the
program must match bit for bit, the parent forms it must stay close to,
and a long-double trapezium to measure both against."""

import math

import numpy as np


# how far two kernel forms may differ: three times the parent form's worst
# error against long_double_kernels on the accuracy oracle's grid (2.6e-14 on
# Pi and 1.4e-15 on Xi, absolute; 3.0e-15 on rhat, relative), rounded up,
# as each form is within twice that of the long-double sums
PI_ATOL, XI_ATOL, RHAT_RTOL = 1e-13, 5e-15, 1e-14
# on jet rows, each derivative's distance relative to the size of what forms
# it: Pi's and Xi's own row, and for rhat's rows (rhat * Pi)'/Pi - rhat * Pi'/Pi
# the size of either term, which cancel to nothing on a flat curve
JET_ROW_RTOL = 1e-13


def assert_kernels_close(got, want):
    # (pi, xi, rhat) of two kernel forms, plain or jet, within the bounds above
    pi, xi, rhat = (np.atleast_2d(x) for x in got)
    pi_w, xi_w, rhat_w = (np.atleast_2d(x) for x in want)
    np.testing.assert_allclose(pi[0], pi_w[0], rtol=0.0, atol=PI_ATOL)
    np.testing.assert_allclose(xi[0], xi_w[0], rtol=0.0, atol=XI_ATOL)
    np.testing.assert_allclose(rhat[0], rhat_w[0], rtol=RHAT_RTOL, atol=0.0)
    rhat_terms = np.abs(rhat_w[0] * pi_w[1:] / pi_w[0])
    for rows, rows_w, size in ((pi, pi_w, np.abs(pi_w[1:])), (xi, xi_w, np.abs(xi_w[1:])),
                               (rhat, rhat_w, rhat_terms)):
        scale = size.max(axis=-1, keepdims=True)
        assert (np.abs(rows[1:] - rows_w[1:]) <= JET_ROW_RTOL * scale).all()


def parent_jet_kernels(curve, params, t_max, tenors, h):
    # the jet kernels as first written: a full grid to t_max, three
    # separate running sums, and Q evaluated again at the tenors
    n = int(math.ceil(t_max / h - 1e-12))
    t = np.arange(n + 1) * h
    B = np.asarray(curve.discount_factor(t))
    Q = params.jet(t)
    BQ = B * Q

    def running_sum(x):
        return np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(x, axis=-1)], axis=-1)

    cum_pi = running_sum(h * (BQ[..., :-1] + BQ[..., 1:]) / 2.0)
    cum_xi = running_sum((B[:-1] + B[1:]) / 2.0 * (Q[..., :-1] - Q[..., 1:]))
    cum_rp = running_sum((B[:-1] - B[1:]) * (Q[..., :-1] + Q[..., 1:]) / 2.0)
    k = np.minimum((tenors / h + 1e-9).astype(int), n)
    dt, B_k, B_T = tenors - t[k], B[k], np.asarray(curve.discount_factor(tenors))
    Q_T, Q_k = params.jet(tenors), Q[..., k]
    pi = cum_pi[..., k] + dt * (B_k * Q_k + B_T * Q_T) / 2.0
    xi = cum_xi[..., k] + (B_k + B_T) / 2.0 * (Q_k - Q_T)
    rp = cum_rp[..., k] + (B_k - B_T) * (Q_k + Q_T) / 2.0
    rhat = rp[0] / pi[0]
    return pi, xi, np.vstack([rhat, (rp[1:] - rhat * pi[1:]) / pi[0]])


def linear_map_kernels(curve, params, tenors, h, jet=False):
    # the kernels as one linear map of Q, W = M @ S: M (tenors x steps) marks
    # the steps in each tenor's sum, the grid steps before its last node and
    # its own short step; S (steps x points) holds each step's weights on Q
    # at its two ends.  W is read out with the program's einsum, and rhat
    # (with its derivative rows) by the quotient rule; returns (pi, xi, rhat, bq_T)
    tenors = np.asarray(tenors, dtype=float)
    k = (tenors / h + 1e-9).astype(int)
    n, m = int(k.max()) + 1, len(tenors)
    t = np.arange(n) * h
    points = np.concatenate([t, tenors])
    B = np.asarray(curve.discount_factor(points))
    start = np.concatenate([np.arange(n - 1), k])
    end = np.concatenate([np.arange(1, n), n + np.arange(m)])
    half_len = np.concatenate([np.full(n - 1, h), tenors - t[k]]) / 2.0
    B_s, B_e = B[start], B[end]
    steps = np.arange(n - 1 + m)
    S = np.zeros((3, n - 1 + m, n + m))
    weights = ((half_len * B_s, half_len * B_e), ((B_s + B_e) / 2.0, -(B_s + B_e) / 2.0),
               ((B_s - B_e) / 2.0, (B_s - B_e) / 2.0))
    for kernel, (w_start, w_end) in enumerate(weights):
        S[kernel, steps, start] = w_start
        S[kernel, steps, end] = w_end
    M = np.zeros((m, n - 1 + m))
    M[:, :n - 1] = np.arange(n - 1) < k[:, np.newaxis]
    M[np.arange(m), n - 1 + np.arange(m)] = 1.0
    W = (M @ S).reshape(3 * m, n + m)
    if not jet:
        Q = np.asarray(params.survival_probability(points))
        pi, xi, rp = np.einsum("kp,p->k", W, Q).reshape(3, m)
        return pi, xi, rp / pi, B[n:] * Q[n:]
    Q = params.jet(points)
    pi, xi, rp = np.einsum("kp,jp->jk", W, Q).reshape(4, 3, m).transpose(1, 0, 2)
    rhat = rp[0] / pi[0]
    return pi, xi, np.vstack([rhat, (rp[1:] - rhat * pi[1:]) / pi[0]]), B[n:] * Q[:, n:]


def long_double_kernels(curve, params, tenors, h):
    # the trapezium sums of the kernels in long double, one tenor at a time:
    # the program's float64 grid and B, with Q and all arithmetic in long
    # double; returns (pi, xi, rhat) as long-double arrays
    ld = np.longdouble
    a, b, c = (ld(x) for x in (params.a, params.b, params.c))
    out = []
    for T in np.asarray(tenors, dtype=float):
        k = int(T / h + 1e-9)
        t = np.append(np.arange(k + 1) * h, T)
        B = np.asarray(curve.discount_factor(t)).astype(ld)
        t = t.astype(ld)
        Q = np.exp((b - a) / c * np.log1p(c * t) - b * t)
        pi = np.sum(np.diff(t) * (B[:-1] * Q[:-1] + B[1:] * Q[1:]) / 2)
        xi = np.sum((B[:-1] + B[1:]) / 2 * (Q[:-1] - Q[1:]))
        rp = np.sum((B[:-1] - B[1:]) * (Q[:-1] + Q[1:]) / 2)
        out.append((pi, xi, rp / pi))
    return tuple(np.array(column, dtype=ld) for column in zip(*out))


def parent_dp(pi, xi, rhat, s_extra, recs, coupons, prices, upfronts, is_bond):
    # the price gap as first written: the value row by recursion, then stacked
    if np.ndim(pi) > 1:
        d_rp = rhat[0] * pi[1:] + pi[0] * rhat[1:]
        slope = 100.0 * ((coupons - s_extra) * pi[1:] - (1.0 - recs) * xi[1:]
                         - np.where(is_bond, d_rp, 0.0))
        value = parent_dp(pi[0], xi[0], rhat[0], s_extra, recs, coupons, prices, upfronts,
                          is_bond)
        return np.vstack([value, slope])
    s_model = (1.0 - recs) * xi / pi + s_extra
    dp_bond = 100.0 - prices + 100.0 * (coupons - rhat - s_model) * pi
    dp_cds = 100.0 * (upfronts + (coupons - s_model) * pi)
    return np.where(is_bond, dp_bond, dp_cds)
