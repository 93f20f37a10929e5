"""Mass-constrained energy minimization on truncated graphs.

Riemannian preconditioned nonlinear conjugate gradients on the mass sphere
(Danaila & Protas, SIAM J. Sci. Comput. 2017; Antoine, Levitt & Tang,
J. Comput. Phys. 2017).  Each step moves along a search direction built from
the (sigma*M + K)^{-1}-preconditioned tangent gradient (alone, one
backward-Euler step of the normalized gradient flow) and the previous
direction, and reprojects onto the sphere, so the mass is exact.  The shift
sigma follows the Lagrange multiplier lam, also below 1: it is the power of
two nearest max(SolverConfig.shift_floor, -lam), and the preconditioner is
rebuilt only when that target leaves [sigma/2, 2*sigma].  A step is accepted
only when it does not raise E, so the energy is monotone.  _descend gives the
direction and when it restarts.

The multi-start runs the uniform start first.  On the free truncation
boundary the constant is an exact critical point, so that start stops after
one iteration, and a spreading point reports the constant's own energy: a
later start that reaches the same energy within _beats' tie does not replace
it.

The sampling, minimize's samples_per_edge, is the one setting.  The step
and the tolerances are SolverConfig's constants, and the iteration budgets
MAX_ITERS, MAX_POLISHES and MAX_NEWTON_STEPS are module constants.

One loop runs the descent.  A stretch of descent ends at the first step
that does not lower E; when that happens short of the residual tolerance,
damped Newton on the stationarity system is the fallback, and descent then
resumes, up to MAX_POLISHES times.  Every iteration of either kind is one
trace row.

Each line-search candidate is evaluated once: one product K v and
Discretization.potential give its energy, and the accepted candidate hands
them on to the next gradient and trace row, which form none of them.

(sigma*M + K)^{-1} and Newton's bordered system are both solved by one
static condensation, _condensed_solver of K + diag(s).  The interior samples
of an edge form a tridiagonal chain coupled only to the edge's two end
vertices; every chain is factored once by batched tridiagonal (Thomas)
elimination, all edges at once, and eliminating them leaves a vertex-only
Schur complement (a weighted graph Laplacian plus a diagonal), formed by
sparse products, the one matrix that is factorized, by SuperLU in its
multiple minimum degree order.  The Discretization keeps the finished
preconditioner of every shift sigma met (Discretization.preconditioners),
so each sigma is built once per Discretization: a multi-start or a mass
sweep on one graph returns to the same few powers of two.  A kept
preconditioner holds its chain pivots, A_VI, X's values and its vertex
factor (sizes in _Descent.shift_to).  They live as long as the graph, and
every function on the graph, a returned minimizer too, keeps the graph
alive.
Newton's one mass constraint row is eliminated by a second right-hand side:
K - diag(c) is solved for r and M v as one 2-column block, and the
multiplier follows from the constraint (the range-space method for
saddle-point systems; Benzi, Golub & Liesen, Acta Numer. 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg
from scipy.sparse.linalg import splu

from .analytic import build_trial_function, soliton_params, soliton_profile
from .calculus import (Discretization, GraphFunction, constant_function, from_vertex_values,
                       rescale_mass)
from .functionals import (_bare_graph, _center_vertex, energy, make_discretization,
                          truncation_boundary, vertex_distances)
from .honeycomb import HoneycombLattice

INITIALIZERS = ("uniform", "soliton-bump", "trial-eps")
MAX_ITERS = 4000         # iterations per start
MAX_POLISHES = 8         # Newton polishes per descent
MAX_NEWTON_STEPS = 40    # accepted Newton steps per polish


class ResolutionError(ValueError):
    """A probe profile is narrower than the sampling can resolve."""


class BracketError(ValueError):
    """Bisection endpoints do not have the required classifications."""


class SolverConfig:
    """The solver's fixed constants, read as SolverConfig.residual_tol.

    Nothing here is a setting: SolverConfig() takes no argument, and the one
    setting of minimize is its samples_per_edge.  shift_floor bounds the
    shift sigma of (sigma*M + K)^{-1} from below: on the free boundary K
    annihilates the constants, so sigma*M + K becomes singular as sigma -> 0.
    """
    __slots__ = ()

    step = 1.0                # first descent step, and again after each polish
    energy_tol = 1e-8         # only sets the spreading threshold -10*energy_tol*mu
    residual_tol = 1e-6       # relative stationarity residual of a converged run
    spread_threshold = 0.05   # boundary mass share of a flat-like spreading run
    divergence_floor = -1e12  # energy below which a run is UnboundedBelow
    shift_floor = 2.0 ** -10  # least preconditioner shift sigma


@dataclass(slots=True)
class SolveOutcome:
    classification: str  # GroundState | SpreadToZero | UnboundedBelow | Inconclusive
    final_energy: float
    minimizer: GraphFunction | None
    lagrange_multiplier: float
    iterations: int
    residual: float = np.inf
    init_used: str = ""
    trace: list[dict] = field(default_factory=list)


# --- initializers -----------------------------------------------------------

def _path_profile(lat: HoneycombLattice, f, n: int) -> GraphFunction:
    """f of the arclength coordinate on the path L_0 through the center, every
    other edge linear between its end-vertex values."""
    on_path, i, coord = lat.edge_coordinates
    path = np.flatnonzero(on_path & (i == 0))
    profiles = f(lat.edge_length * (coord[path, None] + np.linspace(0.0, 1.0, n)))
    dz = make_discretization(lat, n)
    dof_of = dz.dof_of[path]
    vertex_val = np.zeros(lat.graph.num_vertices)
    # Adjacent path edges give their shared vertex the same value.
    vertex_val[dof_of[:, [0, -1]]] = profiles[:, [0, -1]]
    dofs = dz.interpolate(vertex_val)
    dofs[dof_of[:, 1:-1]] = profiles[:, 1:-1]
    return GraphFunction(lat.graph, dofs)


def soliton_bump(graph, p: float, mu: float, samples_per_edge: int) -> GraphFunction:
    """Discretized line soliton transplanted along a path through the center:
    L_0 on a honeycomb lattice, the whole graph otherwise (by arc distance)."""
    bare, lat = _bare_graph(graph)
    params = soliton_params(min(p, 5.9), mu)
    if lat is None:
        dist = vertex_distances(bare, _center_vertex(bare))
        vv = soliton_profile(params, dist)
        u = from_vertex_values(bare, vv, samples_per_edge)
        return rescale_mass(u, mu)
    return rescale_mass(_path_profile(lat, partial(soliton_profile, params),
                                      samples_per_edge), mu)


def initial_function(graph, tag: str, p: float, mu: float,
                     samples_per_edge: int) -> GraphFunction:
    bare, lat = _bare_graph(graph)
    if tag == "soliton-bump":
        return soliton_bump(graph, p, mu, samples_per_edge)
    if tag == "trial-eps":
        if lat is not None:
            return rescale_mass(build_trial_function(lat, 0.3, samples_per_edge), mu)
        dist = vertex_distances(bare, _center_vertex(bare))
        return rescale_mass(from_vertex_values(bare, np.exp(-0.3 * dist), samples_per_edge), mu)
    if tag == "uniform":
        return constant_function(bare, np.sqrt(mu / bare.total_length()), samples_per_edge)
    raise ValueError(f"unknown initializer {tag!r}")


# --- descent core -----------------------------------------------------------

def factorized(A: sp.spmatrix):
    """Solve function of a sparse LU of A, its columns in multiple minimum
    degree order on A^T + A (MMD_AT_PLUS_A; Liu, ACM TOMS 1985)."""
    # Called through its module, not as this module's splu, which stays
    # Newton's factorization alone for code that wraps it by name.
    return scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A").solve


def _condensed_solver(dz: Discretization, s: np.ndarray, factor):
    """Solve function of A = K + diag(s), s one entry per DOF, by static
    condensation; it takes one right-hand side or a block of k columns.

    The m = n - 2 interior samples of edge e form a tridiagonal chain A_II
    with the constant off-diagonal -1/h_e, coupled to the edge's tail and
    head vertices through -1/h_e at its first and last sample.  Every chain
    is factored once, all edges at once, by elimination (Thomas) stored
    sample-major, (m, E), so each step reads contiguous rows.  There is no
    pivoting, so a zero or non-finite pivot raises RuntimeError.  Eliminating
    the chains leaves the vertex Schur complement S = A_VV - A_VI X with
    X = A_II^{-1} A_IV (two columns per edge, tail and head), formed by
    sparse products on K's blocks, sliced here.  factor(S), S in CSC,
    returns the solve function of S.  With no interior samples (n = 2)
    S = A.

    The returned solve holds the chain pivots, A_VI, X's two values per
    interior sample and the vertex solve; its back-substitution gathers
    x at each edge's tail and head through dz.dof_of, so it keeps no
    pattern of X and no reference to dz.
    """
    V, E, m = dz.num_vertices, dz.num_edges, dz.n - 2
    K = dz.stiffness
    off = -1.0 / dz.h
    piv = (K.diagonal()[V:] + s[V:]).reshape(E, m).T.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, m):
            piv[i] -= off / piv[i - 1] * off
    if not np.all(np.isfinite(piv) & (piv != 0)):
        raise RuntimeError("zero or non-finite pivot in an edge chain")

    def chain_solve(rhs: np.ndarray) -> np.ndarray:
        # Sample-major (m, E, k) copy of the (E, m, k) right-hand sides.  The
        # multipliers off / piv[i - 1] are formed again at each solve rather
        # than kept, one (m, E) array less per kept preconditioner.
        x = rhs.reshape(E, m, math.prod(rhs.shape[1:])).transpose(1, 0, 2).copy()
        for i in range(1, m):
            x[i] -= (off / piv[i - 1])[:, None] * x[i - 1]
        for i in reversed(range(m)):
            if i < m - 1:
                x[i] -= off[:, None] * x[i + 1]
            x[i] /= piv[i, :, None]
        return x.transpose(1, 0, 2).reshape(rhs.shape)

    # A_IV's two columns per edge are -1/h at the first and the last sample.
    sample = np.arange(m)
    X = chain_solve(np.stack([off[:, None] * (sample == 0), off[:, None] * (sample == m - 1)],
                             axis=-1).reshape(E * m, 2))
    # X's CSR pattern: the tail and the head column in every interior row.
    ends = np.repeat(dz.dof_of[:, [0, -1]].astype(np.intc), m, axis=0).ravel()
    A_VI = K[:V, V:]
    S = K[:V, :V] + sp.diags(s[:V]) - A_VI @ sp.csr_matrix(
        (X.ravel(), ends, np.arange(0, 2 * E * m + 1, 2, dtype=np.intc)), shape=(E * m, V))
    solve_vertices = factor(S.tocsc())
    X = X.reshape(E, m, 2, 1)
    tail, head = dz.dof_of[:, 0], dz.dof_of[:, -1]

    def solve(r: np.ndarray) -> np.ndarray:
        y = chain_solve(r[V:])                  # A_II^{-1} r_I
        x = solve_vertices(r[:V] - A_VI @ y)
        xk = x.reshape(V, 1, -1)
        Xx = X[:, :, 0] * xk[tail] + X[:, :, 1] * xk[head]      # X x, (E, m, k)
        return np.concatenate([x, y - Xx.reshape(y.shape)])

    return solve


class _Point(NamedTuple):
    """An iterate with what its one evaluation formed."""
    v: np.ndarray
    E: float
    Kv: np.ndarray       # K v
    w: np.ndarray        # |v|^{p-2}


class _Descent:
    def __init__(self, dz: Discretization, p: float, mu: float):
        self.dz = dz
        self.p = p
        self.mu = mu
        self.K = dz.stiffness
        self.inv_mass = 1.0 / dz.mass_vec
        self.sigma = 1.0
        self.precondition = None    # set by shift_to

    def shift_to(self, lam: float) -> bool:
        """Keep self.precondition = (sigma*M + K)^{-1} fitted to the multiplier
        lam; returns whether it was (re)built.

        The SPD preconditioner is inverse-Hessian-like for the stiff kinetic
        modes and, through sigma*M, for the -lam*M part of the Hessian of the
        constrained energy (Antoine, Levitt & Tang, J. Comput. Phys. 2017).
        sigma is the power of two nearest max(shift_floor, -lam), so it follows
        -lam below 1 too, where a spreading run's Hessian is nearly K; the
        floor keeps sigma*M + K nonsingular.  The preconditioner is built on
        first use, so residual-only callers never factorize, and rebuilt only
        when the target leaves [sigma/2, 2*sigma].

        A rebuild takes the preconditioner of sigma from the Discretization's
        preconditioners when sigma was met before, and builds it there once,
        through _condensed_solver and factorized, when it was not: each sigma
        is built once while its graph lives, and later starts and masses
        reuse the same object.  A rebuild returns True, restarting CG, either
        way.  Each kept preconditioner holds its edge-chain pivots, A_VI,
        X's values and the L and U of its vertex factor: about 1.9 MB on
        R = 20 at n = 9 and 41.5 MB on R = 100 at n = 3 (0.9 and 34 MB of it
        the factor), one per distinct sigma, for as long as the graph or any
        function on it is kept.
        """
        target = max(SolverConfig.shift_floor, -lam)
        if self.precondition is not None and self.sigma / 2 <= target <= 2 * self.sigma:
            return False
        sigma = self.sigma = 2.0 ** round(np.log2(target))
        # A power of two, so every product by sigma is exact and sigma is an
        # exact key: the preconditioner, built from K and sigma alone, is the
        # same each time.
        kept = self.dz.preconditioners
        if sigma not in kept:
            # factorized is looked up here, at call time, so a wrapper
            # installed on the module sees every factorization.
            kept[sigma] = _condensed_solver(self.dz, sigma * self.dz.mass_vec, factorized)
        self.precondition = kept[sigma]
        return True

    def project(self, v: np.ndarray) -> np.ndarray:
        return v * np.sqrt(self.mu / self.dz.mass(v))

    def evaluate(self, v: np.ndarray) -> _Point:
        """v with its energy; the one place an iterate meets K and the power."""
        Kv = self.K @ v
        w, _, lp = self.dz.potential(v, self.p)
        return _Point(v, 0.5 * float(v @ Kv) - lp / self.p, Kv, w)

    def tangent_gradient(self, pt: _Point) -> tuple[np.ndarray, float, float]:
        """Projected gradient r = grad E - lambda*M*v, its multiplier, and the
        relative strong-form residual norm."""
        v = pt.v
        mv = self.dz.mass_vec * v
        nonlinear = mv * pt.w                       # M |v|^{p-2} v
        lam = (float(v @ pt.Kv) - float(nonlinear @ v)) / self.mu
        r = pt.Kv - nonlinear - lam * mv
        res = float(np.sqrt(float(r ** 2 @ self.inv_mass)) / np.sqrt(self.mu))
        return r, lam, res

    def record(self, trace: list[dict] | None, it: int, pt: _Point, res: float,
               step: float) -> None:
        if trace is not None:
            trace.append({"iteration": it, "energy": pt.E, "residual": res, "step": step})

    def line_search(self, pt: _Point, direction: np.ndarray,
                    tau: float) -> tuple[_Point | None, float, bool]:
        """Step from pt along -direction, reprojected onto the mass sphere.

        Tries tau, then 0.4 times less, until a candidate does not raise E
        beyond rounding; an accepted step grows tau by 1.4, up to 64.  Returns
        the accepted point (None once tau falls to 1e-13), the next tau, and
        whether any trial was rejected.
        """
        rejected = False
        while tau > 1e-13:
            cand = self.evaluate(self.project(pt.v - tau * direction))
            if cand.E <= pt.E + 1e-14 * max(abs(pt.E), self.mu):
                return cand, min(tau * 1.4, 64.0), rejected
            tau *= 0.4
            rejected = True
        return None, tau, rejected

    def newton_direction(self, v: np.ndarray, lam: float, r: np.ndarray) -> np.ndarray:
        """Newton step delta of the bordered stationarity system at v,

            [[A, b], [b^T, 0]] [delta; eta] = [r; 0],  A = K - diag(c),  b = M v,

        with c = (p - 1) M |v|^{p-2} + lam M.  The border is eliminated: one
        _condensed_solver of A (its vertex Schur complement factorized like
        the preconditioner's, by splu in multiple minimum degree order)
        solves A [y_r, y_b] = [r, b] as one 2-column block, and b^T delta = 0
        gives delta = y_r - (b.y_r / b.y_b) y_b.  Raises
        RuntimeError on a zero pivot in a chain, a singular vertex factor
        (SuperLU raises it) or a zero or non-finite b.y_b.
        """
        dz = self.dz
        # Regularize |v|^{p-2} near zeros of v (singular for p < 3); the
        # Jacobian only steers the step, acceptance is residual descent.
        floor = 1e-8 * float(np.abs(v).max())
        c = (self.p - 1.0) * dz.mass_vec * (v * v + floor * floor) ** (self.p / 2.0 - 1.0) \
            + lam * dz.mass_vec
        b = dz.mass_vec * v
        solve = _condensed_solver(dz, -c, lambda S: splu(S, permc_spec="MMD_AT_PLUS_A").solve)
        y = solve(np.stack([r, b], axis=-1))
        y_r, y_b = y[:, 0], y[:, 1]
        b_yb = float(b @ y_b)
        if not (math.isfinite(b_yb) and b_yb != 0):
            raise RuntimeError(f"mass border pivot b.y_b = {b_yb}")
        return y_r - (float(b @ y_r) / b_yb) * y_b

    def newton_polish(self, pt: _Point, trace: list[dict] | None = None,
                      it0: int = 0) -> tuple[_Point, float, int]:
        """Damped Newton iteration on the stationarity system near a minimizer.

        Steps along newton_direction and accepts them only when the residual
        drops without an energy increase, so monotonicity is preserved.
        """
        r, lam, res = self.tangent_gradient(pt)
        done = 0
        for _ in range(MAX_NEWTON_STEPS):
            if res <= SolverConfig.residual_tol:
                break
            try:
                delta = self.newton_direction(pt.v, lam, r)
            except RuntimeError:
                break
            step, improved = 1.0, False
            for _ in range(15):
                cand = self.evaluate(self.project(pt.v - step * delta))
                cr, clam, cres = self.tangent_gradient(cand)
                if cres < res and cand.E <= pt.E + 1e-12 * max(abs(pt.E), self.mu):
                    pt, r, lam, res = cand, cr, clam, cres
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            done += 1
            self.record(trace, it0 + done, pt, res, step)
        return pt, res, done


def euler_lagrange_residual(u: GraphFunction, p: float) -> tuple[float, float]:
    """Rayleigh-type multiplier and relative stationarity residual of the
    constrained problem at u."""
    mu = u.layout.mass(u.dofs)
    if not 0 < mu < np.inf:
        raise ValueError(f"Euler-Lagrange residual needs a positive, finite mass, got {mu}")
    d = _Descent(u.layout, p, mu)
    _, lam, res = d.tangent_gradient(d.evaluate(u.dofs))
    return lam, res


def _descend(d: _Descent, v0: np.ndarray,
             trace: list[dict] | None = None) -> tuple[np.ndarray, float, float, float, int]:
    """Riemannian preconditioned nonlinear CG on the mass sphere from v0.

    The direction is z = P r (P = (sigma*M + K)^{-1}, r the tangent
    gradient, sigma from the multiplier by _Descent.shift_to) plus beta
    times the previous direction, with the Polak-Ribiere+ beta =
    max(0, z.(r - r_prev) / z_prev.r_prev).  The previous direction is
    carried to the tangent space at v by dropping its M-normal part,
    d - (v^T M d / mu) v.  The direction restarts at z on the first step,
    after a step whose line search rejected a trial, after every Newton
    polish, after every rebuild of P, and whenever r.d <= 0 (not a descent
    direction).

    A stretch of descent ends when the line search returns no step, or a
    step that does not lower E (one it accepted within rounding): E has
    reached its rounding floor, or first-order steps crawl along a
    nearly-neutral mode.  Short of residual_tol, damped Newton on the
    stationarity system then takes over, and descent resumes with a fresh
    step.  Gives up after MAX_POLISHES polishes or a stretch that lowered
    E not once.
    """
    pt = d.evaluate(d.project(v0))
    tau, polishes, it, progressed = SolverConfig.step, 0, 0, False
    prev = None     # (r, z.r, direction) of the last step; None restarts at z
    while it < MAX_ITERS:
        it += 1
        r, lam, res = d.tangent_gradient(pt)
        d.record(trace, it, pt, res, tau)
        if res <= SolverConfig.residual_tol or pt.E < SolverConfig.divergence_floor:
            break
        if d.shift_to(lam):
            prev = None
        z = d.precondition(r)
        direction = z
        if prev is not None:
            r_prev, zr_prev, d_prev = prev
            beta = max(0.0, float(z @ (r - r_prev)) / zr_prev)
            # Transport: drop the M-normal part of the old direction at v.
            d_prev = d_prev - (float(pt.v @ (d.dz.mass_vec * d_prev)) / d.mu) * pt.v
            cg = z + beta * d_prev
            if float(r @ cg) > 0:
                direction = cg
        new, tau, rejected = d.line_search(pt, direction, tau)
        prev = None if rejected else (r, float(z @ r), direction)
        if new is not None:
            lowered, pt = new.E < pt.E, new
            progressed = progressed or lowered
            if lowered:
                continue
        # The stretch ended short of residual_tol.
        if (polishes == MAX_POLISHES or (polishes and not progressed)
                or pt.E < SolverConfig.divergence_floor or it >= MAX_ITERS):
            break
        pt, res, done = d.newton_polish(pt, trace, it0=it)
        it += done
        if res <= SolverConfig.residual_tol:
            break
        tau, polishes, progressed = SolverConfig.step, polishes + 1, False
        prev = None
    # The carried evaluation describes the returned iterate, also when the
    # loop stopped right after an accepted step.
    _, lam, res = d.tangent_gradient(pt)
    return pt.v, pt.E, lam, res, it


def _classify(d: _Descent, v: np.ndarray, E: float, res: float, p: float, graph) -> str:
    dz = d.dz
    if E < SolverConfig.divergence_floor:
        return "UnboundedBelow"
    total_len = float(np.sum(dz.h) * (dz.n - 1))
    flat_energy = -(d.mu / total_len) ** (p / 2.0) * total_len / p
    near_zero = E >= -max(10.0 * SolverConfig.energy_tol * d.mu, 1e-12)
    # A spreading run ends at (or near) the mass-mu constant function, whose
    # energy vanishes as the truncation grows; a ground state, even a broad
    # one squeezed by the window, sits well below that reference.  Mass on
    # the truncation boundary alone is not decisive, because wide ground
    # states also touch the window edge; it is measured only for a flat-like
    # run that is not near zero and not constant, the one case it decides.
    # The constant is the flat state itself, spreading whatever its share,
    # which on a large window falls below spread_threshold.
    flat_like = E >= 2.0 * flat_energy
    if near_zero or dz.cells_constant(v) or (flat_like and dz.boundary_mass_fraction(
            v, dz.boundary_weights(truncation_boundary(graph))) >= SolverConfig.spread_threshold):
        return "SpreadToZero"
    if p == 6:
        # Ground states never exist at the 1D-critical power; a localized
        # negative-energy iterate is the start of a blow-down.
        return "UnboundedBelow"
    return "GroundState" if res <= SolverConfig.residual_tol else "Inconclusive"


def _beats(E: float, res: float, best_E: float, best_res: float, mu: float) -> bool:
    """Whether a start that ended at (E, res) replaces the best earlier start.

    Lowest energy wins.  Runs that reached the same minimum (energies within
    1e-9 relative) are ranked by stationarity residual, unless both converged:
    then the earlier start stays, so rounding noise in residuals far below
    residual_tol cannot pick the winner.
    """
    tie = 1e-9 * max(abs(best_E), mu)
    if E < best_E - tie:
        return True
    if E >= best_E + tie or max(res, best_res) <= SolverConfig.residual_tol:
        return False
    return res < best_res


def minimize(graph, p: float, mu: float, *, samples_per_edge: int = 9,
             init: GraphFunction | str = "multi") -> SolveOutcome:
    """Minimize the mass-mu NLS energy on a truncated graph.

    init may be a GraphFunction, one of the named initializers, or "multi"
    (run all named initializers, keep the best final energy).
    samples_per_edge is the sampling and the one setting; each start runs at
    most MAX_ITERS iterations.

    Pass the lattice, not its bare graph: the two are solved differently.  A
    lattice's truncation boundary, which the classification weighs, is its
    vertices of degree below 3, a bare graph's only its leaves, and the
    soliton-bump and trial-eps starts follow the path L_0 on a lattice but
    the arc distance from the center on a bare graph.  On R = 7 at
    (p, mu) = (2.5, 1), the lattice ends SpreadToZero after 254 iterations
    and its bare graph GroundState after 491, energies 2e-12 apart relative.
    """
    if not (2 < p <= 6):
        raise ValueError(f"nonlinearity power must be in (2, 6], got {p}")
    if not 0 < mu < np.inf:
        raise ValueError(f"mass must be positive and finite, got {mu}")
    dz = make_discretization(graph, samples_per_edge)
    d = _Descent(dz, p, mu)

    if isinstance(init, GraphFunction):
        inits = [("custom", dz.to_dofs(init))]
    else:
        inits = [(tag, initial_function(graph, tag, p, mu, samples_per_edge).dofs)
                 for tag in (INITIALIZERS if init == "multi" else [init])]

    best = None
    for tag, v0 in inits:
        trace: list[dict] = []
        v, E, lam, res, it = _descend(d, v0, trace)
        if best is None or _beats(E, res, best[1], best[4], mu):
            best = (tag, E, v, lam, res, it, trace)
    tag, E, v, lam, res, it, trace = best
    classification = _classify(d, v, E, res, p, graph)
    minimizer = GraphFunction(_bare_graph(graph)[0], v) if classification == "GroundState" else None
    return SolveOutcome(classification=classification, final_energy=E, minimizer=minimizer,
                        lagrange_multiplier=lam, iterations=it, residual=res,
                        init_used=tag, trace=trace)


def bisect_critical_mass(graph, p: float, mu_lo: float, mu_hi: float, tol: float = 0.05
                         ) -> tuple[float, tuple[float, float]]:
    """Bisect the SpreadToZero -> GroundState transition mass.

    tol is the relative bracket width.  Requires mu_lo to spread and mu_hi to
    produce a ground state; the classification is assumed monotone in mass.
    """
    if not (4 <= p < 6):
        raise ValueError(f"critical-mass bisection applies for p in [4, 6), got {p}")
    # A zero or negative width would bisect forever.
    if not tol > 0:
        raise ValueError(f"relative bracket width must be positive, got {tol}")
    if not 0 < mu_lo < mu_hi < np.inf:
        raise ValueError(f"need 0 < mu_lo < mu_hi < inf, got {mu_lo} and {mu_hi}")

    def ground(mu: float) -> bool:
        out = minimize(graph, p, mu)
        if out.classification not in ("GroundState", "SpreadToZero"):
            raise BracketError(f"solve at mu={mu} inconclusive ({out.classification})")
        return out.classification == "GroundState"

    if ground(mu_lo):
        raise BracketError(f"expected SpreadToZero at mu_lo={mu_lo}")
    if not ground(mu_hi):
        raise BracketError(f"expected GroundState at mu_hi={mu_hi}")
    lo, hi = mu_lo, mu_hi
    while (hi - lo) > tol * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if ground(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)


# --- blow-down probes at the 1D-critical power ------------------------------

def squeezed_profile(lat: HoneycombLattice, mu: float, width: float,
                     samples_per_edge: int | None = None) -> GraphFunction:
    """Mass-mu sech profile of given width concentrated on the path L_0,
    linearly grounded on the edges leaving the path."""
    if not 0 < width < np.inf:
        raise ValueError(f"width must be positive and finite, got {width}")
    if samples_per_edge is None:
        samples_per_edge = max(17, int(np.ceil(8.0 / width)) + 1)
    n = samples_per_edge
    h = lat.edge_length / (n - 1)
    if h > width / 4:
        raise ResolutionError(
            f"width {width} unresolvable with {n} samples per edge "
            f"(spacing {h:.3g}); refine the sampling")
    return rescale_mass(_path_profile(lat, lambda x: 1.0 / np.cosh(x / width), n), mu)


def demonstrate_unbounded(lat: HoneycombLattice, mu: float,
                          width_sequence: list[float],
                          samples_per_edge: int | None = None) -> list[float]:
    """Energies of the squeezed-soliton family at the 1D-critical power p=6.

    For mass beyond the critical value the energies decrease without bound as
    the width shrinks; for small mass they stay near or above zero.
    """
    if not all(0 < w < np.inf for w in width_sequence):
        raise ValueError("widths must be positive and finite")
    if sorted(width_sequence, reverse=True) != list(width_sequence):
        raise ValueError("widths must be decreasing")
    return [energy(squeezed_profile(lat, mu, w, samples_per_edge), 6.0).total
            for w in width_sequence]
