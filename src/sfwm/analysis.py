"""Fitting procedures and figures of merit.

The wave-packet tail is summarized by a three-parameter exponential
``y(x) = y0 + S*exp(-(x - x0)/tau)`` with the onset ``x0`` held fixed: the
baseline ``y0`` is resolved from the data first (pre-onset bins plus the far
tail), then ``S`` and ``tau`` come from a Poisson-weighted least-squares fit
of the bins past the onset.  The decay constant maps to a linewidth through
``1/(2*pi*tau)`` and the peak signal-to-background ratio ``S/y0`` equals the
maximum two-photon correlation, whose square against the assumed
autocorrelation value 2 gives the Cauchy-Schwarz violation.

Transparency spectra are inverted in two stages as well: the optical depth
follows uniquely from the baseline transmission, after which the coupling
Rabi frequency and the decoherence rate are fit against the full spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .biphoton import (
    DEFAULT_ETALONS,
    EtalonChain,
    SpectralGrid,
    WavePacket,
    predict_packet,
    rise_time_convolve,
    wavepacket_area,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    InversionError,
    UsageError,
)
from .physics import (
    DopplerQuadrature,
    DriveParams,
    MediumParams,
    Spectrum,
    _transmission_raw,
    eit_spectrum,
    eit_transmission,
    spectrum_baseline,
    spectrum_fwhm,
)
from .units import DEFAULT_UNITS, UnitSystem


@dataclass
class ExpFit:
    """Result of the fixed-onset exponential fit, in counts/bin and ns."""

    baseline: float
    amplitude: float
    tau_ns: float
    onset_ns: float
    baseline_err: float
    amplitude_err: float
    tau_err: float
    residual_norm: float
    converged: bool
    n_fit_bins: int


@dataclass
class EitFit:
    """Medium parameters recovered from a transparency spectrum (Gamma units)."""

    alpha_s: float
    omega_c: float
    gamma: float
    residual_norm: float
    converged: bool


@dataclass(eq=False)
class SweepPrediction:
    """Predicted figures of merit across a list of coupling powers."""

    powers_mw: np.ndarray
    tau_ns: np.ndarray
    linewidth_hz: np.ndarray
    eit_fwhm_hz: np.ndarray
    area: np.ndarray
    rate_pairs_per_s: np.ndarray
    brightness: np.ndarray
    sbr: np.ndarray
    rate_scale: float
    sbr_scale: float


def _baseline_window_mask(tau_ns: np.ndarray, x0_ns: float, bin_ns: float) -> np.ndarray:
    mask = tau_ns <= x0_ns - 2.0 * bin_ns
    n_tail = max(1, tau_ns.size // 10)
    mask[-n_tail:] = True
    return mask


_TAU_MIN_NS = 1e-6  # lower bound on the decay constant
_LM_MAX_STEPS = 200  # trial steps per solve
_LM_XTOL = 1e-8  # relative Gauss-Newton step of both parameters that ends a solve
_LM_GTOL = 1e-8  # cosine between residuals and each Jacobian column that ends a solve
# Relative cost reduction below which a step of the EIT fit cannot be seen:
# T is near 1 where the residuals are near 0.005, so its cost carries a
# relative rounding of about 1e-14.  Without this floor the iterates stalled
# just short of the step and gradient tests on 17 of 1000 noisy spectra
# (sigma = 0.005, 0.2 to 2.75 mW).
_EIT_FTOL = 1e-13
# Smallest damping: it keeps the scaled, damped 2x2 determinant positive in
# floating point when the two Jacobian columns are collinear (a one-bin spike).
_LM_DAMPING_MIN = 1e-10


def _decay_jacobian(e, x, w, amp, tau):
    """Columns dr/dS = e*w and dr/dtau = S*e*w*x/tau^2, where e = exp(-x/tau)."""
    ew = e * w
    return ew, amp * ew * x / (tau * tau)


def _damped_step(held1, held2, u11, u12, u22, h1, h2, k1, k2, lam):
    """Step of (p1, p2) from the damped, scaled normal equations.

    A parameter held at its bound does not move, and the other one takes the
    step of the one-parameter problem.
    """
    m11, m22 = u11 + lam, u22 + lam
    if held1 or held2:
        s1 = 0.0 if held1 else -h1 / m11
        s2 = 0.0 if held2 else -h2 / m22
    else:
        det = m11 * m22 - u12 * u12
        s1 = (u12 * h2 - m22 * h1) / det
        s2 = (u12 * h1 - m11 * h2) / det
    return s1 / k1, s2 / k2


def _truncated(p1, p2, lo1, lo2, d1, d2):
    """(p1, p2) + (d1, d2), cut short where it first reaches a bound.

    Keeping the direction matters far from the optimum: clipping each
    parameter on its own can throw both onto their bounds at once.  A
    parameter already on its bound that the step pushes outward stays put.
    """
    if p1 == lo1:
        d1 = max(d1, 0.0)
    if p2 == lo2:
        d2 = max(d2, 0.0)
    t1 = (lo1 - p1) / d1 if p1 + d1 < lo1 else math.inf
    t2 = (lo2 - p2) / d2 if p2 + d2 < lo2 else math.inf
    t = min(t1, t2, 1.0)
    return (
        lo1 if t1 == t else max(p1 + t * d1, lo1),
        lo2 if t2 == t else max(p2 + t * d2, lo2),
    )


def _solve_2x2(evaluate, p1, p2, lo1, lo2, ftol=0.0):
    """Minimize |r(p1, p2)|^2 over p1 >= lo1, p2 >= lo2.

    ``evaluate(p1, p2)`` returns the residual vector and a function of no
    arguments giving the two Jacobian columns there; it is called once per
    trial step, and the Jacobian only at accepted points.

    Levenberg-Marquardt: each trial step solves the 2x2 damped normal
    equations in closed form, in variables scaled by the running maximum of
    the Jacobian column norms (Marquardt's scaling), and is cut short at the
    first bound it reaches; a parameter on its bound with the gradient
    pushing outward is held there while the other one moves alone.  A solve
    ends when the Gauss-Newton step, clipped to the bounds, moves both
    parameters by less than _LM_XTOL relative, or when the projected gradient
    is orthogonal to the residuals within _LM_GTOL; the cost alone cannot
    tell, since it is flat to rounding near the optimum of noiseless data.
    With ``ftol`` > 0 it also ends when a trial step fails to reduce the
    cost by a reduction the linearized problem put below ``ftol`` of it: the
    damping has then shrunk the steps below what rounding lets the cost show.
    Returns (p1, p2, residuals there, converged).
    """
    r, jacobian = evaluate(p1, p2)
    cost = float(r @ r)
    lam = 1e-3
    c1 = c2 = 0.0
    normal = None
    for _ in range(_LM_MAX_STEPS):
        if normal is None:
            j1, j2 = jacobian()
            normal = float(j1 @ j1), float(j1 @ j2), float(j2 @ j2), float(j1 @ r), float(j2 @ r)
        a11, a12, a22, g1, g2 = normal
        # Components pushing a parameter through its bound do not count.
        held1 = p1 == lo1 and g1 > 0.0
        held2 = p2 == lo2 and g2 > 0.0
        q1 = 0.0 if held1 else g1
        q2 = 0.0 if held2 else g2
        root_cost = math.sqrt(cost)
        if (abs(q1) <= _LM_GTOL * math.sqrt(a11) * root_cost
                and abs(q2) <= _LM_GTOL * math.sqrt(a22) * root_cost):
            return p1, p2, r, True
        c1, c2 = max(c1, math.sqrt(a11)), max(c2, math.sqrt(a22))
        # Scaled, the damped matrix has a diagonal of order one, so its
        # determinant neither underflows nor, with the damping floor, loses
        # its sign to rounding.  A column that has been zero at every iterate
        # (S = 0 from the start zeroes the tau column of the decay) has no
        # gradient: unit scaling gives it a zero step.
        k1, k2 = c1 or 1.0, c2 or 1.0
        scaled = (held1, held2, a11 / k1 / k1, a12 / k1 / k2, a22 / k2 / k2, g1 / k1, g2 / k2, k1, k2)
        # Stationarity is judged on the Gauss-Newton step, damped only by the
        # floor and clipped to the bounds: the trial step shrinks under heavy
        # damping or near a bound anywhere, not only near a minimum.
        gn1, gn2 = _damped_step(*scaled, _LM_DAMPING_MIN)
        if (abs(max(p1 + gn1, lo1) - p1) <= _LM_XTOL * p1
                and abs(max(p2 + gn2, lo2) - p2) <= _LM_XTOL * p2):
            return p1, p2, r, True
        d1, d2 = _damped_step(*scaled, lam)
        new1, new2 = p1 + d1, p2 + d2
        if new1 < lo1 or new2 < lo2:
            new1, new2 = _truncated(p1, p2, lo1, lo2, d1, d2)
            d1, d2 = new1 - p1, new2 - p2
        new_r, new_jacobian = evaluate(new1, new2)
        new_cost = float(new_r @ new_r)
        # Cost reduction the linearized problem foresees for the trial step.
        foreseen = -2.0 * (g1 * d1 + g2 * d2) - (a11 * d1 * d1 + 2.0 * a12 * d1 * d2 + a22 * d2 * d2)
        if new_cost < cost:
            # The damping falls only where at least a quarter of the foreseen
            # reduction came true; in a curved valley it rises instead, so
            # the steps do not zigzag across it.
            if cost - new_cost >= 0.25 * foreseen:
                lam = max(0.1 * lam, _LM_DAMPING_MIN)
            else:
                lam *= 2.0
            p1, p2, r, jacobian, cost = new1, new2, new_r, new_jacobian, new_cost
            normal = None
        else:
            lam *= 10.0
            if 0.0 < foreseen <= ftol * cost:
                return p1, p2, r, True
    return p1, p2, r, False


def _fit_decay(x, d, w, amp, tau):
    """Minimize sum(((S*exp(-x/tau) - d)*w)^2) over S >= 0, tau >= _TAU_MIN_NS.

    Uses the analytic Jacobian.  Returns (S, tau, converged).
    """

    def evaluate(amp, tau):
        e = np.exp(-x / tau)
        return (amp * e - d) * w, lambda: _decay_jacobian(e, x, w, amp, tau)

    amp, tau, _, converged = _solve_2x2(evaluate, amp, tau, 0.0, _TAU_MIN_NS)
    return amp, tau, converged


def fit_exponential(w: WavePacket, x0_ns: float = 200.0) -> ExpFit:
    """Fit y0 + S*exp(-(x - x0)/tau) to a wave packet with the onset fixed.

    Stage 1 estimates the baseline from the pre-onset window [0, x0 - 2*bin]
    joined with the last 10% of bins.  Stage 2 is a bounded least-squares fit
    of (S, tau) on the bins at or past x0 with Poisson weights, starting from
    1/max(count, 1) and then reweighted against the fitted model's variances;
    purely data-derived weights overweight downward-fluctuating bins and bias
    the decay constant several percent low at low counts.  Each weighted
    problem is solved by a two-parameter Levenberg-Marquardt iteration in
    closed form (see _fit_decay).  Raises UsageError on non-finite input,
    ConvergenceError (carrying the best iterate) if the solver gives up,
    DegenerateDataError on all-zero input.
    """
    t = w.tau_ns
    y = w.g2
    if not (math.isfinite(x0_ns) and np.isfinite(t).all() and np.isfinite(y).all()):
        raise UsageError("wave packet delays, values and onset must be finite")
    if not np.any(y > 0):
        raise DegenerateDataError("wave packet is identically zero")
    fit_mask = t >= x0_ns
    if np.count_nonzero(fit_mask) < 10:
        raise UsageError(f"need at least 10 bins past the onset at {x0_ns} ns")

    base_mask = _baseline_window_mask(t, x0_ns, w.bin_ns)
    n_base = int(np.count_nonzero(base_mask))
    y0 = float(y[base_mask].mean())
    # Standard error of the window mean from the scatter of its bins; for
    # Poisson counts this recovers sqrt(mean/N), and it vanishes for
    # noiseless model packets in arbitrary units.
    if n_base >= 2:
        y0_err = float(np.std(y[base_mask], ddof=1)) / math.sqrt(n_base)
    else:
        y0_err = math.sqrt(float(np.maximum(y[base_mask], 1.0).sum())) / n_base

    tf = t[fit_mask]
    yf = y[fit_mask]
    sigma = np.sqrt(np.maximum(yf, 1.0))

    if np.all(yf == y0):
        # Exactly flat fit region: zero amplitude, decay constant undefined.
        return ExpFit(
            baseline=y0, amplitude=0.0, tau_ns=float(tf[-1] - tf[0]),
            onset_ns=float(x0_ns), baseline_err=float(y0_err),
            amplitude_err=float("inf"), tau_err=float("inf"),
            residual_norm=0.0, converged=True, n_fit_bins=int(yf.size),
        )
    amp0 = max(float(yf[0] - y0), 0.0)
    below = np.nonzero(yf - y0 < amp0 / math.e)[0]
    tau0 = float(tf[below[0]] - tf[0]) if below.size else float(tf[-1] - tf[0]) / 2.0
    tau0 = max(tau0, 2.0 * w.bin_ns)

    x = tf - x0_ns
    amp, tau = amp0, tau0
    for _ in range(3):
        fit_sigma = sigma
        amp, tau, converged = _fit_decay(x, yf - y0, 1.0 / fit_sigma, amp, tau)
        e = np.exp(-x / tau)
        model = y0 + amp * e
        refined = np.sqrt(np.maximum(model, 1.0))
        if np.allclose(refined, fit_sigma, rtol=1e-3):
            break
        sigma = refined

    # Covariance of the weighted problem from the analytic Jacobian at the
    # final iterate, rescaled by the reduced chi-square so the reported errors
    # stay calibrated when the nominal per-bin variances max(count, 1) do not
    # describe the data (arbitrary units, noiseless models).  The sensitivity
    # of (S, tau) to the separately estimated baseline is added in quadrature.
    # A singular normal matrix means an undetermined decay: infinite errors.
    weights = 1.0 / fit_sigma
    jac = np.column_stack(_decay_jacobian(e, x, weights, amp, tau))
    (a11, a12), (_, a22) = jac.T @ jac
    det = a11 * a22 - a12 * a12
    resid = (model - yf) * weights
    chi2_per_dof = float(resid @ resid) / max(yf.size - 2, 1)
    amp_err = tau_err = math.inf
    if det > 0.0:
        with np.errstate(over="ignore", invalid="ignore"):
            cov = np.array([[a22, -a12], [-a12, a11]]) / det
            baseline_shift = -cov @ (jac.T @ weights)
            errors = np.sqrt(
                chi2_per_dof * np.maximum(np.diag(cov), 0.0) + (baseline_shift * y0_err) ** 2
            )
        # nan here is inf - inf from a nearly singular matrix: also undetermined.
        amp_err, tau_err = np.nan_to_num(errors, nan=math.inf)

    fit = ExpFit(
        baseline=y0,
        amplitude=float(amp),
        tau_ns=float(tau),
        onset_ns=float(x0_ns),
        baseline_err=float(y0_err),
        amplitude_err=float(amp_err),
        tau_err=float(tau_err),
        residual_norm=float(np.linalg.norm(resid)),
        converged=converged,
        n_fit_bins=int(yf.size),
    )
    if not converged:
        raise ConvergenceError(
            f"exponential fit did not converge in {_LM_MAX_STEPS} steps", best=fit
        )
    return fit


def linewidth_from_tau(tau_ns: float) -> float:
    """Linewidth in Hz from the decay constant: 1/(2*pi*tau)."""
    if not (tau_ns > 0) or not math.isfinite(tau_ns):
        raise DomainError(f"decay constant must be positive, got {tau_ns!r}")
    return 1.0 / (2.0 * math.pi * tau_ns * 1e-9)


def tau_from_linewidth(linewidth_hz: float) -> float:
    """Decay constant in ns from a linewidth in Hz; inverse of linewidth_from_tau."""
    if not (linewidth_hz > 0) or not math.isfinite(linewidth_hz):
        raise DomainError(f"linewidth must be positive, got {linewidth_hz!r}")
    return 1.0 / (2.0 * math.pi * linewidth_hz) * 1e9


def sbr(fit: ExpFit) -> float:
    """Peak signal-to-background ratio S/y0, the maximum pair correlation.

    A zero baseline with nonzero amplitude returns inf rather than raising.
    """
    if fit.amplitude == 0:
        return 0.0
    if fit.baseline == 0:
        return float("inf")
    return fit.amplitude / fit.baseline


def cs_violation(g2: float, g_auto: float = 2.0) -> float:
    """Cauchy-Schwarz violation factor g2^2 / g_auto^2.

    Classical fields obey g2^2 <= g_auto1 * g_auto2; both autocorrelations
    are taken equal to the thermal value 2 by default.
    """
    if g2 < 0:
        raise DomainError("cross-correlation must be nonnegative")
    if not (g_auto > 0):
        raise DomainError("autocorrelation must be positive")
    return (g2 / g_auto) ** 2


def generation_rate(
    detected_pairs_per_s: float, eff_as: float = 0.084, eff_s: float = 0.13
) -> float:
    """Source pair rate from the detected rate and both collection efficiencies."""
    for name, eff in (("eff_as", eff_as), ("eff_s", eff_s)):
        if not (0.0 < eff <= 1.0):
            raise DomainError(f"{name} must lie in (0, 1], got {eff!r}")
    return detected_pairs_per_s / (eff_as * eff_s)


def spectral_brightness(rate_pairs_per_s: float, pump_mw: float, linewidth_hz: float) -> float:
    """Generation rate per pump power per linewidth, pairs/(s*mW*MHz)."""
    if not (pump_mw > 0):
        raise DomainError("pump power must be positive")
    if not (linewidth_hz > 0):
        raise DomainError("linewidth must be positive")
    return rate_pairs_per_s / (pump_mw * linewidth_hz / 1e6)


def omega_c_from_power(p_mw: float) -> float:
    """Coupling Rabi frequency (Gamma units) from coupling power: 2.7*sqrt(P/mW)."""
    if p_mw < 0:
        raise DomainError("coupling power must be nonnegative")
    return 2.7 * math.sqrt(p_mw)


def background_rate(p_mw: float) -> float:
    """Uncorrelated Stokes-arm background in counts/s: 240 + 320*(P/mW)^0.53."""
    if p_mw < 0:
        raise DomainError("coupling power must be nonnegative")
    return 240.0 + 320.0 * p_mw**0.53


def normalize_predictions(predicted, observed) -> float:
    """Least-squares scale a* = sum(p*o)/sum(p*p) matching predictions to data."""
    p = np.asarray(predicted, dtype=float)
    o = np.asarray(observed, dtype=float)
    if p.size != o.size or p.size < 2:
        raise UsageError("need two equal-length vectors of at least 2 entries")
    denom = float(np.sum(p * p))
    if denom == 0.0:
        raise DegenerateDataError("all predictions are zero; scale is undefined")
    return float(np.sum(p * o)) / denom


def average_low_power_gamma(power_fit_pairs, n: int = 3) -> float:
    """Mean fitted decoherence rate over the ``n`` smallest coupling powers."""
    pairs = sorted(power_fit_pairs, key=lambda item: item[0])
    if len(pairs) < n:
        raise UsageError(f"need at least {n} fits, got {len(pairs)}")
    return float(np.mean([fit.gamma for _, fit in pairs[:n]]))


# Bounds of the optical depth that the baseline inversion searches.
_ALPHA_MIN, _ALPHA_MAX = 1e-6, 1e5
_NEWTON_MAX_STEPS = 100
# Forward-difference step of the EIT Jacobian on the quadrature path,
# relative to max(|parameter|, 1).
_FD_STEP = math.sqrt(np.finfo(float).eps)


def _log_mean_exp(alpha, k):
    """log(mean(exp(-alpha*k))) and its derivative in alpha, without underflow."""
    s = -alpha * k
    top = float(s.max())
    e = np.exp(s - top)
    total = float(e.sum())
    return top + math.log(total / k.size), -float(e @ k) / total


def _invert_baseline(k, target: float) -> float:
    """Optical depth alpha with mean(exp(-alpha*k)) = target, for k > 0.

    The log of the left side is convex and decreasing in alpha, so Newton's
    method from alpha = 0 rises monotonically to the root.
    """
    log_target = math.log(target)
    if _log_mean_exp(_ALPHA_MIN, k)[0] < log_target:
        raise InversionError(
            f"baseline transmission {target:.4f} is brighter than a transparent medium"
        )
    if _log_mean_exp(_ALPHA_MAX, k)[0] > log_target:
        raise InversionError(
            f"baseline transmission {target:.4f} is darker than any optical depth"
        )
    alpha = 0.0
    for _ in range(_NEWTON_MAX_STEPS):
        value, slope = _log_mean_exp(alpha, k)
        step = (value - log_target) / slope
        alpha -= step
        if abs(step) <= 1e-15 * alpha:
            break
    return alpha


def fit_eit(
    data: Spectrum,
    m0: MediumParams,
    d0: DriveParams,
    q: DopplerQuadrature | None = None,
) -> EitFit:
    """Recover (alpha_s, omega_c, gamma) from a measured transparency spectrum.

    Stage 1 inverts the baseline transmission for the optical depth with the
    coupling off.  There T(delta) = exp(-alpha*k(delta)) exactly, so one
    evaluation at alpha = 1 gives k and Newton's method solves for alpha.
    Stage 2 fits the remaining two parameters against the full spectrum by
    the bounded 2x2 Levenberg-Marquardt solver from the supplied initial
    guesses, with the analytic Jacobian on the exact Doppler average and
    forward differences when a quadrature is given.  Deterministic given data
    and guesses.  Raises UsageError on a short or non-finite spectrum,
    InversionError when no optical depth in [1e-6, 1e5] matches the baseline,
    and ConvergenceError (carrying the best iterate) if the solver gives up.
    """
    if data.delta.size < 10:
        raise UsageError("spectrum too short to fit")
    if not (np.isfinite(data.delta).all() and np.isfinite(data.transmission).all()):
        raise UsageError("spectrum detunings and transmissions must be finite")
    target = spectrum_baseline(data)
    if not (0.0 < target < 1.0):
        raise InversionError(f"baseline transmission {target!r} is outside (0, 1)")

    n = data.delta.size
    k = max(1, round(0.1 * n))
    edge_deltas = np.concatenate([data.delta[:k], data.delta[-k:]])
    coupling_off = DriveParams(omega_c=0.0, omega_p=d0.omega_p, delta_p=d0.delta_p)

    def medium(alpha, gamma):
        return MediumParams(
            alpha_s=alpha,
            gamma=gamma,
            alpha_as=alpha,
            gamma_doppler=m0.gamma_doppler,
            gamma3=m0.gamma3,
            gamma4=m0.gamma4,
        )

    def drive(omega_c):
        return DriveParams(omega_c, d0.omega_p, d0.delta_p)

    unit_depth = eit_transmission(edge_deltas, medium(1.0, m0.gamma), coupling_off, q)
    alpha_s = _invert_baseline(-np.log(unit_depth), target)

    # The solver works in (omega_c^2, gamma): T depends on the coupling only
    # through omega_c^2, so in omega_c its slope would vanish on the bound
    # omega_c = 0 and a step projected onto it could never leave.
    if q is None:
        # The exact path takes raw floats: m0 was validated when it was built,
        # alpha_s comes from the bracketed inversion, and the bounds keep
        # square >= 0 and gamma > 0, so nothing is rechecked per evaluation.
        def evaluate(square, gamma):
            t, gradient = _transmission_raw(
                data.delta, alpha_s, gamma, m0.gamma_doppler, m0.gamma3, square
            )
            return t - data.transmission, gradient
    else:
        def model(square, gamma):
            return eit_transmission(data.delta, medium(alpha_s, gamma), drive(math.sqrt(square)), q)

        def evaluate(square, gamma):
            t = model(square, gamma)

            def gradient():
                h1 = _FD_STEP * max(square, 1.0)
                h2 = _FD_STEP * max(gamma, 1.0)
                return (model(square + h1, gamma) - t) / h1, (model(square, gamma + h2) - t) / h2

            return t - data.transmission, gradient

    square, gamma, r, converged = _solve_2x2(
        evaluate, max(d0.omega_c, 1e-3) ** 2, max(m0.gamma, 1e-4), 0.0, 1e-9, _EIT_FTOL
    )
    omega_c = math.sqrt(square)
    fit = EitFit(
        alpha_s=alpha_s,
        omega_c=omega_c,
        gamma=gamma,
        residual_norm=float(np.linalg.norm(r)),
        converged=converged,
    )
    if not converged:
        raise ConvergenceError(f"EIT fit did not converge in {_LM_MAX_STEPS} steps", best=fit)
    return fit


def sweep_predict(
    powers_mw,
    alpha_s: float = 82.0,
    gamma: float = 0.025,
    pump_mw: float = 0.5,
    *,
    omega_p: float = 2.0,
    delta_p: float = DriveParams.__dataclass_fields__["delta_p"].default,
    q: DopplerQuadrature | None = None,
    grid: SpectralGrid | None = None,
    etalons: EtalonChain = DEFAULT_ETALONS,
    tau_max_ns: float = 4000.0,
    bin_ns: float = 25.6,
    onset_ns: float = 150.0,
    x0_ns: float = 200.0,
    rise_ns: float = 35.0,
    rate_anchor: tuple[float, float] | None = None,
    observed_rates=None,
    observed_sbr=None,
    units: UnitSystem = DEFAULT_UNITS,
) -> SweepPrediction:
    """Predict tau, rate, brightness, and SBR across coupling powers.

    For each power the coupling Rabi frequency follows the square-root
    calibration, the filtered wave packet is synthesized by
    :func:`predict_packet` (``grid=None``: a count derived from the scenario)
    and fit for its
    decay constant, and its area stands in for the pair rate.  The SBR proxy
    is the rise-time-convolved packet peak over the power-dependent
    background rate.  Rates and SBR are relative until normalized, either
    against observed vectors (least-squares scale) or by anchoring the rate
    per linewidth at one power with ``rate_anchor=(power_mw, pairs_per_s_per_MHz)``.
    """
    powers = np.asarray(powers_mw, dtype=float)
    if powers.size == 0:
        raise UsageError("empty power list")
    # Written so that nan fails every comparison.
    if not np.all((powers > 0) & (powers < math.inf)):
        raise UsageError("coupling powers must be finite and positive")
    if not 0.0 < pump_mw < math.inf:
        raise UsageError(f"pump power must be finite and positive, got {pump_mw!r} mW")
    if rate_anchor is not None and observed_rates is not None:
        raise UsageError("give either a rate anchor or observed rates, not both")
    if rate_anchor is not None and not 0.0 < rate_anchor[1] < math.inf:
        raise UsageError(f"anchor rate must be finite and positive, got {rate_anchor[1]!r}")

    medium = MediumParams(alpha_s=alpha_s, gamma=gamma)
    tau_axis = np.arange(0.0, tau_max_ns, bin_ns)
    eit_scan = np.linspace(-2.0, 2.0, 1601)

    taus = np.empty(powers.size)
    areas = np.empty(powers.size)
    peaks = np.empty(powers.size)
    fwhms = np.empty(powers.size)
    for i, p in enumerate(powers):
        drive = DriveParams(omega_c=omega_c_from_power(p), omega_p=omega_p, delta_p=delta_p)
        packet = predict_packet(
            medium, drive, tau_axis, grid=grid, etalons=etalons, q=q, onset_ns=onset_ns, units=units
        )
        taus[i] = fit_exponential(packet, x0_ns=x0_ns).tau_ns
        areas[i] = wavepacket_area(packet)
        peaks[i] = rise_time_convolve(packet, rise_ns).g2.max()
        fwhms[i] = spectrum_fwhm(eit_spectrum(eit_scan, medium, drive, q), units)

    linewidths = np.array([linewidth_from_tau(t) for t in taus])
    raw_sbr = peaks / np.array([background_rate(p) for p in powers])

    if rate_anchor is not None:
        anchor_power, per_mhz = rate_anchor
        idx = np.nonzero(np.isclose(powers, anchor_power))[0]
        if idx.size == 0:
            raise UsageError(f"anchor power {anchor_power} mW is not in the sweep")
        i = int(idx[0])
        rate_scale = per_mhz * (linewidths[i] / 1e6) / areas[i]
    elif observed_rates is not None:
        rate_scale = normalize_predictions(areas, observed_rates)
    else:
        rate_scale = 1.0
    sbr_scale = 1.0 if observed_sbr is None else normalize_predictions(raw_sbr, observed_sbr)

    rates = rate_scale * areas
    brightness = rates / (pump_mw * linewidths / 1e6)
    return SweepPrediction(
        powers_mw=powers,
        tau_ns=taus,
        linewidth_hz=linewidths,
        eit_fwhm_hz=fwhms,
        area=areas,
        rate_pairs_per_s=rates,
        brightness=brightness,
        sbr=sbr_scale * raw_sbr,
        rate_scale=float(rate_scale),
        sbr_scale=float(sbr_scale),
    )
