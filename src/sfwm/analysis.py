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
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .biphoton import (
    WavePacket,
    delay_axis,
    predict_packet,
    rise_time_convolve,
    wavepacket_area,
)
from .errors import (
    ConvergenceError,
    DegenerateDataError,
    DomainError,
    InversionError,
    NumericsError,
    PeakShapeError,
    UsageError,
)
from .physics import (
    MAX_SAMPLE_VALUE,
    DriveParams,
    MediumParams,
    Spectrum,
    _edges,
    _transmission,
    eit_spectrum,
    spectrum_baseline,
    spectrum_fwhm,
)

if TYPE_CHECKING:
    from .config import Scenario
    from .detector import DetectionModel

# Delay span of every packet of a sweep: the 4 us window of the detection chain.
SWEEP_SPAN_NS = 4000.0
RABI_PER_ROOT_MW = 2.7  # the coupling calibration Omega_c = 2.7*sqrt(P/mW) Gamma
FIT_ONSET_NS = 200.0  # onset of the exponential fit; the [run] fit_onset_ns default


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
    rate_pairs_per_s: np.ndarray
    brightness: np.ndarray
    sbr: np.ndarray
    rate_scale: float


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
# Factor on both start values of the EIT fit's second solve, made when the
# first ends with the coupling off.  In 3600 random spectra (noise <= 0.03,
# guesses 0.3-3x Omega_c and 0.1-10x gamma) 88 fits ended there; from a
# tenth of the start 27 of them ended lower.
_EIT_RESTART = 0.1
# Smallest damping: it keeps the scaled, damped 2x2 determinant positive in
# floating point when the two Jacobian columns are nearly collinear.
_LM_DAMPING_MIN = 1e-10
_NEWTON_MAX_STEPS = 100  # steps of the decay fit and of the baseline inversion
# Largest step of the decay fit in log tau (a factor of e^2 in tau), and the
# step that ends it.
_LOG_TAU_STEP_MAX = 2.0
_LOG_TAU_STEP_LAST = 1e-5


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


def _solve_2x2(evaluate, p1, p2, lo1, lo2):
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
    It also ends when a trial step fails to reduce the cost by a reduction
    the linearized problem put below _EIT_FTOL of it: the damping has then
    shrunk the steps below what rounding lets the cost show.
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
        # has no gradient: unit scaling gives it a zero step.
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
            if 0.0 < foreseen <= _EIT_FTOL * cost:
                return p1, p2, r, True
    return p1, p2, r, False


def _decay_profile(u, z, wd, W):
    """The decay fit at tau = exp(u) with the amplitude eliminated.

    With e = exp(-z/tau), g = z/tau, a_k = sum(W*d*e*g^k) and
    b_k = sum(W*e^2*g^k), the best amplitude is S = max(a_0, 0)/b_0 and the
    cost is sum(W*d^2) - phi with phi = a_0*S.  As de/du = e*g and
    dg/du = -g, a_0' = a_1, b_0' = 2*b_1, a_1' = a_2 - a_1 and
    b_1' = 2*b_2 - b_1, so dphi/du = 2*S*G and d2phi/du2 = 2*S*H with G and
    H below.  Returns (phi, G, H); at S = 0 all three are zero.
    """
    # Rows e, -e*g and e*g^2: two matrix-vector products give the six sums.
    h = z * (-1.0 / math.exp(u))
    rows = np.empty((3, z.size))
    e = np.exp(h, out=rows[0])
    np.multiply(e, h, out=rows[1])
    np.multiply(rows[1], h, out=rows[2])
    (a0, a1, a2), (b0, b1, b2) = (rows @ wd).tolist(), (rows @ (W * e)).tolist()
    if a0 <= 0.0:
        return 0.0, 0.0, 0.0
    a1, b1 = -a1, -b1
    s = a0 / b0
    grad = a1 - s * b1
    s_u = (grad - s * b1) / b0  # dS/du
    curv = s_u * grad / s + a2 - a1 - s_u * b1 - s * (2.0 * b2 - b1)
    return a0 * s, grad, curv


def _fit_decay(z, wd, W, tau):
    """Minimize sum(W*(S*exp(-z/tau) - d)^2) over S >= 0, tau >= _TAU_MIN_NS.

    ``wd`` is W*d.  Variable projection: for a fixed tau the best S is
    linear in the data and closed-form, so the solve maximizes the
    one-dimensional profile phi of _decay_profile over u = log(tau), by
    Newton's method with analytic derivatives.  Where phi is not concave the
    step goes uphill by _LOG_TAU_STEP_MAX instead; every step is capped at
    that, stops at the bound, and is halved until phi rises.  A step
    shorter than _LOG_TAU_STEP_LAST is the last, taken without that test:
    phi changes by less than rounding can show, and Newton's method leaves
    an error of order its square.  The solve also ends where the slope
    vanishes, as it does at S = 0.  ``z`` starts at 0, so exp(-z/tau) cannot
    underflow on the first bin whatever tau.  Returns (tau, converged); S
    follows from tau in closed form.
    """
    u_min = math.log(_TAU_MIN_NS)
    u = math.log(max(tau, _TAU_MIN_NS))
    phi, grad, curv = _decay_profile(u, z, wd, W)
    for _ in range(_NEWTON_MAX_STEPS):
        if grad == 0.0:
            return math.exp(u), True
        step = -grad / curv if curv < 0.0 else math.copysign(_LOG_TAU_STEP_MAX, grad)
        if math.isnan(step):  # inf/inf from sums that overflowed
            break
        step = max(min(step, _LOG_TAU_STEP_MAX), -_LOG_TAU_STEP_MAX)
        while True:
            new = max(u + step, u_min)
            if abs(new - u) <= _LOG_TAU_STEP_LAST:
                return math.exp(new), True
            trial = _decay_profile(new, z, wd, W)
            if trial[0] > phi:
                break
            step *= 0.5
        u = new
        phi, grad, curv = trial
    return math.exp(u), False


def fit_exponential(w: WavePacket, x0_ns: float = FIT_ONSET_NS) -> ExpFit:
    """Fit y0 + S*exp(-(x - x0)/tau) to a wave packet with the onset fixed.

    Stage 1 estimates the baseline from the pre-onset window [0, x0 - 2*bin]
    joined with the last 10% of bins.  Stage 2 is a bounded least-squares fit
    of (S, tau) on the bins at or past x0 with Poisson weights, starting from
    1/max(count, 1) and then reweighted against the fitted model's variances;
    purely data-derived weights overweight downward-fluctuating bins and bias
    the decay constant several percent low at low counts.  Each weighted
    problem is solved by variable projection, S in closed form and Newton's
    method in log(tau) (see _fit_decay), in terms of the amplitude at the
    first fit bin; S at the onset follows from it, and is inf with infinite
    errors where that overflows.  Raises UsageError on a non-finite onset or
    values above MAX_SAMPLE_VALUE, ConvergenceError (carrying the best
    iterate) if the solver gives up, DegenerateDataError on all-zero input.
    """
    t = w.tau_ns
    y = w.g2
    if not math.isfinite(x0_ns):
        raise UsageError(f"fit onset must be finite, got {x0_ns!r} ns")
    if not (y > 0).any():
        raise DegenerateDataError("wave packet is identically zero")
    if y.max() > MAX_SAMPLE_VALUE:
        raise UsageError(f"wave packet values must not exceed {MAX_SAMPLE_VALUE:g}")
    # The delays increase, so the fit region is a suffix and the baseline
    # window a prefix joined with the last 10% of bins: whole where they meet.
    first_fit = int(np.searchsorted(t, x0_ns))
    if t.size - first_fit < 10:
        raise UsageError(f"need at least 10 bins past the onset at {x0_ns} ns")

    pre = int(np.searchsorted(t, x0_ns - 2.0 * w.bin_ns, side="right"))
    window = np.concatenate((y[:pre], y[max(pre, t.size - t.size // 10):]))
    n_base = window.size
    y0 = float(window.mean())
    # Standard error of the window mean from the scatter of its bins; for
    # Poisson counts this recovers sqrt(mean/N), and it vanishes for
    # noiseless model packets in arbitrary units.
    if n_base >= 2:
        scatter = window - y0
        y0_err = math.sqrt(float(scatter @ scatter) / (n_base - 1) / n_base)
    else:
        y0_err = math.sqrt(float(np.maximum(window, 1.0).sum())) / n_base

    tf = t[first_fit:]
    yf = y[first_fit:]
    sigma = np.sqrt(np.maximum(yf, 1.0))

    if (yf == y0).all():
        # Exactly flat fit region: zero amplitude, decay constant undefined.
        return ExpFit(
            baseline=y0, amplitude=0.0, tau_ns=float(tf[-1] - tf[0]),
            onset_ns=float(x0_ns), baseline_err=float(y0_err),
            amplitude_err=float("inf"), tau_err=float("inf"),
            residual_norm=0.0, converged=True, n_fit_bins=int(yf.size),
        )
    d = yf - y0
    amp0 = max(float(d[0]), 0.0)
    below = np.nonzero(d < amp0 / math.e)[0]
    tau0 = float(tf[below[0]] - tf[0]) if below.size else float(tf[-1] - tf[0]) / 2.0
    tau = max(tau0, 2.0 * w.bin_ns)

    # Delays past the first fit bin, which lies lead_ns past the onset.
    z = tf - tf[0]
    lead_ns = float(tf[0]) - x0_ns
    for _ in range(3):
        fit_sigma = sigma
        weights = 1.0 / fit_sigma
        W = weights * weights
        wd = W * d
        tau, converged = _fit_decay(z, wd, W, tau)
        e = np.exp(-z / tau)
        amp_first = max(float(wd @ e), 0.0) / float(W @ (e * e))
        excess = amp_first * e
        model = y0 + excess
        refined = np.sqrt(np.maximum(model, 1.0))
        if (np.abs(refined - fit_sigma) <= 1e-8 + 1e-3 * fit_sigma).all():
            break
        sigma = refined

    # Covariance of the weighted problem from the analytic Jacobian at the
    # final iterate, rescaled by the reduced chi-square so the reported errors
    # stay calibrated when the nominal per-bin variances max(count, 1) do not
    # describe the data (arbitrary units, noiseless models).  The sensitivity
    # of (S, tau) to the separately estimated baseline is added in quadrature.
    # A singular normal matrix means an undetermined decay: infinite errors.
    # The Jacobian columns are dr/dS = lead_decay*e*w and
    # dr/dtau = S*lead_decay*e*w*x/tau^2 with lead_decay = exp(-lead_ns/tau),
    # which may underflow; S*lead_decay is the amplitude at the first fit bin.
    lead_decay = math.exp(-lead_ns / tau)
    j1 = (lead_decay * e) * weights
    j2 = excess * weights * ((z + lead_ns) / (tau * tau))
    a11, a12, a22 = float(j1 @ j1), float(j1 @ j2), float(j2 @ j2)
    v1, v2 = float(j1 @ weights), float(j2 @ weights)
    det = a11 * a22 - a12 * a12
    resid = (model - yf) * weights
    chi2 = float(resid @ resid)
    chi2_per_dof = chi2 / max(yf.size - 2, 1)
    amp_err = tau_err = math.inf
    if det > 0.0:
        # Baseline shift -cov @ (J^T w) with cov = [[a22, -a12], [-a12, a11]]/det.
        amp_shift = (a12 * v2 - a22 * v1) / det * y0_err
        tau_shift = (a12 * v1 - a11 * v2) / det * y0_err
        amp_err = math.sqrt(chi2_per_dof * max(a22 / det, 0.0) + amp_shift * amp_shift)
        tau_err = math.sqrt(chi2_per_dof * max(a11 / det, 0.0) + tau_shift * tau_shift)
        # nan here is inf - inf from a nearly singular matrix: also undetermined.
        amp_err = math.inf if math.isnan(amp_err) else amp_err
        tau_err = math.inf if math.isnan(tau_err) else tau_err
    if lead_decay > 0.0:
        amp = amp_first / lead_decay
    else:
        amp = math.inf if amp_first > 0.0 else 0.0

    fit = ExpFit(
        baseline=y0,
        amplitude=amp,
        tau_ns=tau,
        onset_ns=float(x0_ns),
        baseline_err=float(y0_err),
        amplitude_err=amp_err,
        tau_err=tau_err,
        residual_norm=math.sqrt(chi2),
        converged=converged,
        n_fit_bins=int(yf.size),
    )
    if not converged:
        raise ConvergenceError(
            f"exponential fit did not converge in {_NEWTON_MAX_STEPS} steps", best=fit
        )
    return fit


def linewidth_from_tau(tau_ns: float) -> float:
    """Linewidth in Hz from the decay constant: 1/(2*pi*tau)."""
    if not (tau_ns > 0) or not math.isfinite(tau_ns):
        raise DomainError(f"decay constant must be positive, got {tau_ns!r}")
    return 1.0 / (2.0 * math.pi * tau_ns * 1e-9)


def sbr(fit: ExpFit) -> float:
    """Peak signal-to-background ratio S/y0, the maximum pair correlation.

    A zero baseline with nonzero amplitude returns inf rather than raising.
    """
    if fit.amplitude == 0:
        return 0.0
    if fit.baseline == 0:
        return float("inf")
    return fit.amplitude / fit.baseline


def cs_violation(g2: float) -> float:
    """Cauchy-Schwarz violation factor g2^2 / 4.

    Classical fields obey g2^2 <= g_auto1 * g_auto2; both autocorrelations
    are fixed at the thermal value 2.
    """
    if g2 < 0:
        raise DomainError("cross-correlation must be nonnegative")
    return (g2 / 2.0) ** 2


def generation_rate(detected_pairs_per_s: float, dm: DetectionModel) -> float:
    """Source pair rate from the detected rate and the model's collection efficiencies."""
    return detected_pairs_per_s / (dm.eff_as * dm.eff_s)


def spectral_brightness(rate_pairs_per_s, pump_mw: float, linewidth_hz):
    """Generation rate per pump power per linewidth, pairs/(s*mW*MHz), elementwise."""
    if not (pump_mw > 0):
        raise DomainError("pump power must be positive")
    if not np.all(linewidth_hz > 0):
        raise DomainError("linewidth must be positive")
    return rate_pairs_per_s / (pump_mw * linewidth_hz / 1e6)


def omega_c_from_power(p_mw: float) -> float:
    """Coupling Rabi frequency (Gamma units) from coupling power: 2.7*sqrt(P/mW)."""
    if p_mw < 0:
        raise DomainError("coupling power must be nonnegative")
    return RABI_PER_ROOT_MW * math.sqrt(p_mw)


def background_rate(p_mw: float) -> float:
    """Uncorrelated Stokes-arm background in counts/s: 240 + 320*(P/mW)^0.53."""
    if p_mw < 0:
        raise DomainError("coupling power must be nonnegative")
    return 240.0 + 320.0 * p_mw**0.53


def average_low_power_gamma(power_fit_pairs) -> float:
    """Mean fitted decoherence rate over the three smallest coupling powers."""
    pairs = sorted(power_fit_pairs, key=lambda item: item[0])
    if len(pairs) < 3:
        raise UsageError(f"need at least 3 fits, got {len(pairs)}")
    return float(np.mean([fit.gamma for _, fit in pairs[:3]]))


# Bounds of the optical depth that the baseline inversion searches.
_ALPHA_MIN, _ALPHA_MAX = 1e-6, 1e5


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


def fit_eit(data: Spectrum, m0: MediumParams, d0: DriveParams) -> EitFit:
    """Recover (alpha_s, omega_c, gamma) from a measured transparency spectrum.

    Stage 1 inverts the baseline transmission for the optical depth with the
    coupling off.  There T(delta) = exp(-alpha*k(delta)) exactly, so one
    evaluation at alpha = 1 gives k and Newton's method solves for alpha.
    Stage 2 fits the remaining two parameters against the full spectrum by
    the bounded 2x2 Levenberg-Marquardt solver from the supplied initial
    guesses, with the analytic Jacobian of the exact Doppler average.  A
    solve that ends with the coupling on its bound 0 is repeated once from
    a tenth of both guesses, and the repeat is kept if it ends at a lower
    cost (and converged, where the first did).  It
    reads ``gamma``, ``gamma_doppler`` and ``gamma3`` of ``m0`` and
    ``omega_c`` of ``d0``; the other fields are not read.
    Deterministic given data and guesses.  Raises UsageError on a short
    spectrum, InversionError when no optical depth in [1e-6, 1e5] matches
    the baseline, and ConvergenceError (carrying the best iterate) if the
    solver gives up.
    """
    if data.delta.size < 10:
        raise UsageError("spectrum too short to fit")
    target = spectrum_baseline(data)
    if not (0.0 < target < 1.0):
        raise InversionError(f"baseline transmission {target!r} is outside (0, 1)")

    edge_deltas = np.concatenate(_edges(data.delta))
    # The kernel on raw floats: m0 and the detunings are already validated.
    # Both calls take the exact Doppler rule, whose by-parts gradient the
    # solver uses.
    unit_depth, _ = _transmission(edge_deltas, 1.0, m0.gamma, 0.0, m0, None)
    alpha_s = _invert_baseline(-np.log(unit_depth), target)

    # The solver works in (omega_c^2, gamma): T depends on the coupling only
    # through omega_c^2, so in omega_c its slope would vanish on the bound
    # omega_c = 0 and a step projected onto it could never leave.  The model
    # takes raw floats: m0 was validated when it was built, alpha_s comes
    # from the bracketed inversion, and the bounds keep square >= 0 and
    # gamma > 0, so nothing is rechecked per evaluation.
    def evaluate(square, gamma):
        t, gradient = _transmission(data.delta, alpha_s, gamma, square, m0, None)
        return t - data.transmission, gradient

    start = max(d0.omega_c, 1e-3) ** 2, max(m0.gamma, 1e-4)
    square, gamma, r, converged = _solve_2x2(evaluate, *start, 0.0, 1e-9)
    if square == 0.0:
        # With the coupling off T does not depend on gamma, so a solve that
        # lands on the bound stops there.  From a poor start the first step
        # often does, past an interior minimum; from a window a tenth as
        # wide in both parameters the solver often grows the window instead.
        retry = _solve_2x2(evaluate, _EIT_RESTART * start[0], _EIT_RESTART * start[1], 0.0, 1e-9)
        if retry[2] @ retry[2] < r @ r and (retry[3] or not converged):
            square, gamma, r, converged = retry
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
    scenario: Scenario,
    powers_mw,
    *,
    rate_anchor: tuple[float, float] | None = None,
) -> SweepPrediction:
    """Predict tau, rate, brightness, and SBR of a scenario across coupling powers.

    For each power the coupling Rabi frequency follows the square-root
    calibration and replaces the scenario's; every other field of the
    scenario is kept.  The filtered wave packet is synthesized by
    :func:`predict_packet` on SWEEP_SPAN_NS of detection bins and fit for
    its decay constant, and its area stands in for the pair rate.  The SBR
    proxy is the rise-time-convolved packet peak over the power-dependent
    background rate.  Rates are relative unless anchored: ``rate_anchor=
    (power_mw, pairs_per_s_per_MHz)`` fixes the rate per linewidth at the
    first power within 1e-5 relative of ``power_mw``.
    The brightness divides the rate by the pump power that the scenario's
    ``drive.omega_p`` implies and by the linewidth.  The EIT width is nan
    at a power whose spectrum has no measurable transparency window.  Raises
    NumericsError if an anchored rate is not finite.
    """
    powers = np.asarray(powers_mw, dtype=float)
    if powers.size == 0:
        raise UsageError("empty power list")
    # Written so that nan fails every comparison.
    if not np.all((powers > 0) & (powers < math.inf)):
        raise UsageError("coupling powers must be finite and positive")
    if rate_anchor is not None and not 0.0 < rate_anchor[1] < math.inf:
        raise UsageError(f"anchor rate must be finite and positive, got {rate_anchor[1]!r}")

    tau_axis = delay_axis(SWEEP_SPAN_NS, scenario.detection.bin_ns)
    eit_scan = np.linspace(-2.0, 2.0, 1601)

    taus = np.empty(powers.size)
    areas = np.empty(powers.size)
    peaks = np.empty(powers.size)
    fwhms = np.empty(powers.size)
    for i, p in enumerate(powers):
        drive = replace(scenario.drive, omega_c=omega_c_from_power(p))
        packet = predict_packet(replace(scenario, drive=drive, coupling_power_mw=p), tau_axis)
        taus[i] = fit_exponential(packet, x0_ns=scenario.fit_onset_ns).tau_ns
        areas[i] = wavepacket_area(packet)
        peaks[i] = rise_time_convolve(packet, scenario.rise_ns).g2.max()
        try:
            fwhms[i] = spectrum_fwhm(eit_spectrum(eit_scan, scenario.medium, drive, scenario.q))
        except PeakShapeError:
            fwhms[i] = math.nan

    linewidths = np.array([linewidth_from_tau(t) for t in taus])
    sbrs = peaks / np.array([background_rate(p) for p in powers])

    if rate_anchor is not None:
        anchor_power, per_mhz = rate_anchor
        idx = np.nonzero(np.isclose(powers, anchor_power, atol=0.0))[0]
        if idx.size == 0:
            raise UsageError(f"anchor power {anchor_power} mW is not in the sweep")
        i = int(idx[0])
        with np.errstate(all="ignore"):
            rate_scale = per_mhz * (linewidths[i] / 1e6) / areas[i]
            rates = rate_scale * areas
        if not np.all(np.isfinite(rates)):
            raise NumericsError(f"anchored rates are not finite (rate scale {rate_scale:.6g})")
    else:
        rate_scale, rates = 1.0, areas
    # The calibration of DriveParams: omega_p = 2.0 at 0.5 mW, P ~ omega_p^2.
    pump_mw = 0.5 * (scenario.drive.omega_p / 2.0) ** 2
    return SweepPrediction(
        powers_mw=powers,
        tau_ns=taus,
        linewidth_hz=linewidths,
        eit_fwhm_hz=fwhms,
        rate_pairs_per_s=rates,
        brightness=spectral_brightness(rates, pump_mw, linewidths),
        sbr=sbrs,
        rate_scale=float(rate_scale),
    )
