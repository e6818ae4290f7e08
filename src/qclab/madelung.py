"""Polar decomposition of wavefunctions and the quantum potential.

Writing psi = lambda * exp(i*Phi/hbar) splits the Schrodinger equation
into two real equations,

    (grad Phi)^2 / 2m + V + V_q = -dPhi/dt          (phase equation)
    lap Phi + 2 (grad Phi)(grad ln lambda)
                          = -2m d(ln lambda)/dt     (continuity)

with the quantum potential V_q = -(hbar^2/2m) lap(lambda)/lambda and the
effective potential V_t = V + V_q.  This module performs the
decomposition, evaluates V_q and V_t, measures how far a phase is from
a classical principal function (exactly -V_q, and nothing for inertial
motion), and verifies the identities that stationary states must
satisfy:

  * for stationary 1D states with monotone phase, lambda^2 * dPhi/dx is
    spatially constant (equivalently lambda = P^(-1/2) up to one global
    factor) — checked against its spatial median;
  * harmonic eigenmoduli satisfy
    lambda_n'' + (2m/hbar^2) [ (n+1/2) hbar w - (m w^2/2) x^2 ] lambda_n = 0;
  * any stationary state satisfies (dPhi/dx)^2 = 2m (E - V_t).

lambda vanishes at nodes, where ln(lambda) and lap(lambda)/lambda are
singular; such points are masked (threshold 1e-6 of the peak modulus)
and every derived quantity is NaN there and at neighbouring points whose
stencils touch them.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grids import Grid1D, PhysicalConstants
from .states import EigenPair, WaveFunction
from .stencils import gradient, second_derivative

NODE_THRESHOLD = 1e-6  # relative to max lambda
_VACUOUS_MOMENTUM = 1e-8  # times hbar/dx; below this the phase is flat


@dataclass(frozen=True)
class PolarField:
    """Modulus lambda and phase Phi (action units) of psi = lambda e^{i Phi/hbar}.

    phase is NaN exactly where node_mask is True.  Within each contiguous
    unmasked run the phase is unwrapped left to right, the run's leftmost
    value lying in (-pi*hbar, pi*hbar].
    """

    modulus: np.ndarray
    phase: np.ndarray
    node_mask: np.ndarray
    grid: Grid1D
    time: float = 0.0

    def __post_init__(self) -> None:
        n = self.grid.n_points
        for name in ("modulus", "phase", "node_mask"):
            if getattr(self, name).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")


def _unmasked_runs(mask: np.ndarray) -> list[tuple[int, int]]:
    """[start, stop) index pairs of contiguous unmasked runs."""
    runs = []
    idx = np.flatnonzero(~mask)
    if idx.size == 0:
        return runs
    breaks = np.flatnonzero(np.diff(idx) > 1)
    start = idx[0]
    for b in breaks:
        runs.append((int(start), int(idx[b]) + 1))
        start = idx[b + 1]
    runs.append((int(start), int(idx[-1]) + 1))
    return runs


def decompose(
    psi: WaveFunction, constants: PhysicalConstants
) -> PolarField:
    """Split psi into modulus and unwrapped phase (in action units).

    Raises ValueError for an identically vanishing field (every point
    would be masked, leaving no phase reference anywhere).
    """
    lam = np.abs(psi.values)
    peak = float(lam.max())
    if peak == 0.0:
        raise ValueError("cannot decompose an identically zero wavefunction")
    mask = lam < NODE_THRESHOLD * peak
    if mask.all():
        raise ValueError("wavefunction is masked everywhere; nothing to decompose")
    phase = np.full(psi.grid.n_points, np.nan)
    angles = np.angle(psi.values)
    for start, stop in _unmasked_runs(mask):
        phase[start:stop] = constants.hbar * np.unwrap(angles[start:stop])
    return PolarField(lam, phase, mask, psi.grid, psi.time)


def recompose(
    polar: PolarField, constants: PhysicalConstants
) -> WaveFunction:
    """Inverse of decompose; masked points borrow the nearest unmasked phase."""
    phase = polar.phase
    if polar.node_mask.any():
        x = polar.grid.x
        good = ~polar.node_mask
        phase = np.interp(x, x[good], polar.phase[good])
    values = polar.modulus * np.exp(1j * phase / constants.hbar)
    return WaveFunction(values, polar.grid, polar.time)


def quantum_potential(
    polar: PolarField, constants: PhysicalConstants
) -> np.ndarray:
    """v_q = -(hbar^2/2m) * lambda''/lambda, NaN on the dilated node mask.

    The mask is widened by one point on each side because the central
    second difference at a node's neighbour already straddles the
    singular point.  A node falling *between* grid points leaves both
    neighbours above the modulus threshold while |psi| kinks there, so
    the second difference of the modulus picks up an O(1/dx) artifact;
    such crossings announce themselves as a ~pi*hbar step in the phase,
    and points whose stencil spans one are masked too (same detector as
    phase_jump_guard).
    """
    lam = polar.modulus
    d2 = second_derivative(lam, polar.grid.dx)
    v_q = -(constants.hbar**2) / (2.0 * constants.mass) * d2 / np.where(
        polar.node_mask, np.nan, lam
    )
    dilated = polar.node_mask.copy()
    dilated[1:] |= polar.node_mask[:-1]
    dilated[:-1] |= polar.node_mask[1:]
    dilated |= _beside_branch_jump(polar, constants)
    v_q[dilated] = np.nan
    return v_q


def total_potential(v_q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """v_t = V + v_q; NaN entries of v_q stay NaN."""
    if v_q.shape != v.shape:
        raise ValueError(f"shape mismatch: v_q {v_q.shape} vs V {v.shape}")
    return v + v_q


def _beside_branch_jump(polar: PolarField, constants: PhysicalConstants) -> np.ndarray:
    """Points adjacent to a phase step larger than pi*hbar/2."""
    jump = np.abs(np.diff(polar.phase)) > 0.5 * np.pi * constants.hbar
    beside = np.zeros(polar.phase.shape, dtype=bool)
    beside[:-1] |= jump
    beside[1:] |= jump
    return beside


def phase_jump_guard(
    polar: PolarField, constants: PhysicalConstants
) -> np.ndarray:
    """Phase with NaN at points whose central stencil crosses a branch jump.

    A node falling between two grid points flips the sign of a real
    wavefunction without pushing either neighbour below the node
    threshold, so the stored phase steps by ~pi*hbar there.  Derivatives
    across such a step are meaningless; this guard blanks any point
    adjacent to a step larger than pi*hbar/2.
    """
    phase = polar.phase.copy()
    phase[_beside_branch_jump(polar, constants)] = np.nan
    return phase


class MadelungRows:
    """Residual rows of the phase and continuity equations, fed one slice
    at a time.

    push(w) takes the series' next slice.  From the third slice on it
    returns the rows (r_phase, r_continuity) of the slice before it, the
    middle of the three it holds (see madelung_residuals for the rows);
    before that it returns None.  Each slice is decomposed once, as it
    arrives.  dt is the series' first interval, and every later interval
    must equal it to rtol 1e-9.
    """

    def __init__(
        self, potential_values: np.ndarray, constants: PhysicalConstants
    ) -> None:
        self._potential = potential_values
        self._constants = constants
        self._window = deque(maxlen=3)  # (slice, mask, guarded phase, ln lambda, v_q)
        self._dt = None

    def _prepare(self, w: WaveFunction):
        p = decompose(w, self._constants)
        safe = np.where(p.node_mask, 1.0, p.modulus)
        log_lam = np.where(p.node_mask, np.nan, np.log(safe))
        v_q = quantum_potential(p, self._constants)
        return w, p.node_mask, phase_jump_guard(p, self._constants), log_lam, v_q

    def push(self, w: WaveFunction) -> tuple[np.ndarray, np.ndarray] | None:
        window = self._window
        if not window:
            if self._potential.shape != (w.grid.n_points,):
                raise ValueError("potential_values must live on the series grid")
        else:
            step = w.time - window[-1][0].time
            if self._dt is None:
                self._dt = step
            dt = self._dt
            if not (dt > 0 and abs(step - dt) <= 1e-9 * dt):
                raise ValueError("time slices must be uniformly spaced and increasing")
        window.append(self._prepare(w))
        if len(window) < 3:
            return None
        m, hbar = self._constants.mass, self._constants.hbar
        dt, dx = self._dt, w.grid.dx
        (prev, mask_prev, _, log_prev, _), middle, (_, mask_next, _, log_next, _) = window
        _, _, guarded, log_lam, v_q = middle
        grad_phi = gradient(guarded, dx)
        lap_phi = second_derivative(guarded, dx)
        grad_log = gradient(log_lam, dx)
        dphi_dt = hbar * np.angle(w.values * np.conj(prev.values)) / (2.0 * dt)
        # a masked neighbour slice must poison the time stencil too
        dphi_dt[mask_prev | mask_next] = np.nan
        dlog_dt = (log_next - log_prev) / (2.0 * dt)
        r_phase = grad_phi**2 / (2.0 * m) + self._potential + v_q + dphi_dt
        r_cont = lap_phi + 2.0 * grad_phi * grad_log + 2.0 * m * dlog_dt
        return r_phase, r_cont


def madelung_residuals(
    series: Sequence[WaveFunction],
    potential_values: np.ndarray,
    constants: PhysicalConstants,
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals of the phase and continuity equations along an evolution.

    Returns (r_phase, r_continuity), each of shape (len(series)-2,
    n_points): time derivatives are central, so only interior slices are
    evaluated.  Row k corresponds to series[k+1].

        r_phase      = (grad Phi)^2/2m + V + v_q + dPhi/dt
        r_continuity = lap Phi + 2 (grad Phi)(grad ln lambda)
                       + 2m d(ln lambda)/dt

    The temporal phase derivative is computed from the principal angle of
    psi_{k+1} * conj(psi_{k-1}), which equals the central difference of
    Phi whenever the true phase advance over 2*dt stays below pi*hbar —
    no cross-slice branch bookkeeping needed.  Node masks, dilations and
    branch-jump guards enter as NaN.  The rows come from MadelungRows, so
    three slices' polar forms are held at a time; a caller that reads
    less than every row, such as a peak, can feed MadelungRows itself and
    hold no rows at all.
    """
    if len(series) < 3:
        raise ValueError("need at least 3 time slices for central differences")
    rows = MadelungRows(potential_values, constants)
    shape = (len(series) - 2, series[0].grid.n_points)
    r_phase, r_cont = np.empty(shape), np.empty(shape)
    for k, w in enumerate(series):
        row = rows.push(w)
        if row is not None:
            r_phase[k - 2], r_cont[k - 2] = row
    return r_phase, r_cont


def phase_residual_peak(r_phase: np.ndarray) -> float:
    """max |r_phase| over a residual row's finite points; ValueError if
    it has none."""
    if not np.isfinite(r_phase).any():
        raise ValueError("phase residual has no finite point: every point is on or beside a node")
    return float(np.nanmax(np.abs(r_phase)))


def phase_action_gap(
    series: Sequence[WaveFunction],
    potential_values: np.ndarray,
    constants: PhysicalConstants,
) -> float:
    """How far the classical HJ residual of the phase at series[1] is from
    -V_q: max |r_phase| of madelung_residuals on series[:3]."""
    r_phase, _ = madelung_residuals(series[:3], potential_values, constants)
    return phase_residual_peak(r_phase[0])


def inertial_deviations(
    psi: WaveFunction,
    s_fn: Callable[[np.ndarray, float], np.ndarray],
    constants: PhysicalConstants,
) -> tuple[float, float, float]:
    """How far psi is from inertial motion with principal function
    S = s_fn(x, t), such as hamilton_jacobi.free_principal_function.

    Returns (max |Phi - S - offset|, max |V_q|, offset), the offset being
    the constant Phi - S midway between its extremes.  For a plane wave
    and its own S the first two vanish.
    """
    polar = decompose(psi, constants)
    diff = polar.phase - s_fn(psi.grid.x, psi.time)
    offset = 0.5 * (np.nanmax(diff) + np.nanmin(diff))
    v_q = quantum_potential(polar, constants)
    return (
        float(np.nanmax(np.abs(diff - offset))),
        float(np.nanmax(np.abs(v_q))),
        float(offset),
    )


def median(values: np.ndarray) -> float:
    """np.median of a non-empty 1-D float array, bit for bit: the middle
    value, or the mean of the two middle values, of one partition; NaN if
    any value is.  np.median's own NaN check imports numpy.ma."""
    half = values.size // 2
    middle = [half] if values.size % 2 else [half - 1, half]
    part = np.partition(values, [*middle, -1])
    if np.isnan(part[-1]):
        return float("nan")
    return float(part[middle].sum() / len(middle))


@dataclass(frozen=True)
class AmplitudeRelationResult:
    """Outcome of the stationary amplitude-phase check.

    vacuous is True when the phase is flat (bound states), where the
    relation constrains nothing; deviation is None in that case.
    """

    vacuous: bool
    deviation: float | None


def verify_1d_amplitude_relation(
    polar: PolarField, constants: PhysicalConstants
) -> AmplitudeRelationResult:
    """Constancy of lambda^2 * dPhi/dx for a stationary 1D state.

    For scattering-type states the product equals m times the (constant)
    probability current, i.e. lambda = (dPhi/dx)^(-1/2) up to one global
    factor.  Returns the maximum relative deviation from the spatial
    median over unmasked interior points.  A flat phase (bound state)
    makes the relation vacuous; mixed-sign momentum is rejected.
    """
    phase = phase_jump_guard(polar, constants)
    p_field = gradient(phase, polar.grid.dx)[1:-1]
    lam2 = polar.modulus[1:-1] ** 2
    # a node's own central stencil straddles the phase step across it
    valid = ~np.isnan(p_field) & ~polar.node_mask[1:-1]
    if not valid.any():
        raise ValueError("no unmasked interior points to evaluate")
    p_valid = p_field[valid]
    if np.max(np.abs(p_valid)) < _VACUOUS_MOMENTUM * constants.hbar / polar.grid.dx:
        return AmplitudeRelationResult(vacuous=True, deviation=None)
    if np.any(p_valid <= 0.0):
        raise ValueError(
            "phase gradient changes sign; the stationary amplitude "
            "relation applies to one-directional (scattering) states"
        )
    product = lam2[valid] * p_valid
    med = median(product)
    deviation = float(np.max(np.abs(product - med)) / abs(med))
    return AmplitudeRelationResult(vacuous=False, deviation=deviation)


def verify_oscillator_identity(
    n: int,
    eig: EigenPair,
    omega: float,
    constants: PhysicalConstants,
) -> float:
    """Residual of the harmonic-modulus identity, normalized.

    Checks lambda_n'' + (2m/hbar^2) [ (n+1/2) hbar w - (m w^2/2) x^2 ]
    lambda_n = 0 in multiplied form (no division by lambda_n, so nodes
    are harmless).  The identity is linear and insensitive to an overall
    sign per nodal segment, so it is evaluated on the signed
    eigenfunction: |psi| has kinks at the nodes that a second difference
    turns into O(1/dx) spikes, while psi itself stays smooth.  Returns
    max |residual| / max |lambda''| over interior points.
    """
    if n != eig.index:
        raise ValueError(f"quantum number {n} does not match eigenpair index {eig.index}")
    grid = eig.state.grid
    m, hbar = constants.mass, constants.hbar
    lam = np.real(eig.state.values)
    d2 = second_derivative(lam, grid.dx)
    bracket = (n + 0.5) * hbar * omega - 0.5 * m * omega**2 * grid.x**2
    residual = d2 + (2.0 * m / hbar**2) * bracket * lam
    interior = slice(1, -1)
    return float(
        np.max(np.abs(residual[interior])) / np.max(np.abs(d2[interior]))
    )


def verify_modified_hj(
    psi: WaveFunction,
    potential_values: np.ndarray,
    energy: float,
    constants: PhysicalConstants,
) -> float:
    """Max residual of (dPhi/dx)^2 = 2m (E - V_t) for a stationary state
    of energy E.

    Evaluated at unmasked interior points; returns
    max |(dPhi/dx)^2 - 2m(E - V_t)|, inf where 2m(E - V_t) overflows (a
    wall near the float maximum).
    """
    polar = decompose(psi, constants)
    phase = phase_jump_guard(polar, constants)
    grad_phi = gradient(phase, polar.grid.dx)
    v_q = quantum_potential(polar, constants)
    v_t = total_potential(v_q, potential_values)
    with np.errstate(over="ignore"):
        residual = grad_phi**2 - 2.0 * constants.mass * (energy - v_t)
    interior = residual[1:-1]
    finite = interior[~np.isnan(interior)]
    if finite.size == 0:
        raise ValueError("every interior point is masked")
    return float(np.max(np.abs(finite)))
