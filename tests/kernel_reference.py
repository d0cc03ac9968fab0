"""Reference formulations that the kernel and price-gap code must match bit for bit."""

import math

import numpy as np


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
