"""Mass-constrained energy minimization on truncated graphs.

Riemannian preconditioned nonlinear conjugate gradients on the mass sphere
(Danaila & Protas, SIAM J. Sci. Comput. 2017; Antoine, Levitt & Tang,
J. Comput. Phys. 2017).  Each step moves along a search direction built from
the (sigma*M + K)^{-1}-preconditioned tangent gradient (alone, one
backward-Euler step of the normalized gradient flow) and the previous
direction, and reprojects onto the sphere, so the mass is exact.  The shift
sigma follows the Lagrange multiplier lam, also below 1: it is the power of
two nearest max(SolverConfig.shift_floor, -lam), and the one factor is rebuilt
only when that target leaves [sigma/2, 2*sigma].  A step is accepted only when
it does not raise E, so the energy is monotone.  _descend gives the direction
and when it restarts.

The multi-start runs the uniform start first.  On the free truncation
boundary the constant is an exact critical point, so that start stops after
one iteration, and a spreading point reports the constant's own energy: a
later start that reaches the same energy within _beats' tie does not replace
it.

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
Schur complement (a weighted graph Laplacian plus a diagonal), the one
matrix that is factorized, in minimum-degree order.  What does not depend on
the shift is analysed once per Discretization and kept on it
(_CondensationFrame): the Schur complement's pattern with its columns in that
order, found once, and where each product lands; each shift and each Newton
step fills values only and factorizes in the given order.  Newton's one mass
constraint row is eliminated by a second right-hand side: K - diag(c) is
solved for r and M v as one 2-column block, and the multiplier follows from
the constraint (the range-space method for saddle-point systems; Benzi,
Golub & Liesen, Acta Numer. 2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, NamedTuple

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
MAX_POLISHES = 8         # Newton polishes per descent
MAX_NEWTON_STEPS = 40    # accepted Newton steps per polish


class ResolutionError(ValueError):
    """A probe profile is narrower than the sampling can resolve."""


class BracketError(ValueError):
    """Bisection endpoints do not have the required classifications."""


@dataclass(slots=True)
class SolverConfig:
    """The sampling and the iteration budget, the two settings a caller varies.

    The step, the tolerances and the preconditioner's shift floor are fixed
    class constants; they read like fields (cfg.residual_tol) but cannot be
    passed to the constructor.  shift_floor bounds the shift sigma of
    (sigma*M + K)^{-1} from below: on the free boundary K annihilates the
    constants, so sigma*M + K becomes singular as sigma -> 0.
    """
    samples_per_edge: int = 9
    max_iters: int = 4000

    step: ClassVar[float] = 1.0               # first descent step, and again after each polish
    energy_tol: ClassVar[float] = 1e-8        # only sets the spreading threshold -10*energy_tol*mu
    residual_tol: ClassVar[float] = 1e-6      # relative stationarity residual of a converged run
    spread_threshold: ClassVar[float] = 0.05  # boundary mass share of a flat-like spreading run
    divergence_floor: ClassVar[float] = -1e12  # energy below which a run is UnboundedBelow
    shift_floor: ClassVar[float] = 2.0 ** -10  # least preconditioner shift sigma

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.samples_per_edge < 2:
            raise ValueError(f"need at least 2 samples per edge, got {self.samples_per_edge}")


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
    dof_of = make_discretization(lat, n).dof_of[path]
    vertex_val = np.zeros(lat.graph.num_vertices)
    # Adjacent path edges give their shared vertex the same value.
    vertex_val[dof_of[:, [0, -1]]] = profiles[:, [0, -1]]
    u = from_vertex_values(lat.graph, vertex_val, n)
    u.dofs[dof_of[:, 1:-1]] = profiles[:, 1:-1]
    return u


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
    """Solve function of a sparse LU of A with its columns in the order given:
    the condensation puts them in minimum-degree order beforehand."""
    # Called through its module, not as this module's splu, which stays
    # Newton's factorization alone for code that wraps it by name.
    return scipy.sparse.linalg.splu(A, permc_spec="NATURAL").solve


class _CondensationFrame:
    """What the condensation of K + diag(s) on one Discretization keeps from
    shift to shift: structure and K's entries, no value of s.

    The vertex Schur complement S = K_VV + diag(s_V) - A_VI X has a diagonal
    and one entry per edge and direction, (tail, head) and (head, tail).  Its
    CSC pattern (indptr, indices) has the columns in the minimum-degree order
    on S^T + S that SuperLU computes (MMD_AT_PLUS_A), found once from the
    pattern: column j is vertex order[j], the rows stay as they are.
    Factorized in natural order, S[:, order] has the factor SuperLU's own
    ordering of S gives, bit for bit, except where partial pivoting meets an
    exact tie: SuperLU prefers column j's diagonal among equally large pivots
    and takes row j for it, so it may pick another of them.

    k_vertex is K_VV on that pattern and diag its diagonal positions.  A_VI X
    adds, edge by edge, the tail row's first-sample and the head row's
    last-sample products with X's tail and head columns; scatter is where
    they land, (tail, tail), (tail, head), (head, tail), (head, head) per
    edge in edge order, so np.bincount sums each entry in the order the
    sparse product A_VI @ X does.  X = A_II^{-1} A_IV has the CSR pattern
    (x_indptr, x_indices): the tail and the head column in every interior
    row.  Kept on the Discretization, so it goes with its graph.
    """

    def __init__(self, dz: Discretization):
        V, E, m = dz.num_vertices, dz.num_edges, dz.n - 2
        K = dz.stiffness
        self.k_interior = K.diagonal()[V:]
        self.A_VI = K[:V, V:]
        tail, head = dz.dof_of[:, 0], dz.dof_of[:, -1]
        ends = np.stack([tail, head], axis=1).astype(np.intc)
        self.x_indices = np.repeat(ends, m, axis=0).ravel()
        self.x_indptr = np.arange(0, 2 * E * m + 1, 2, dtype=np.intc)

        rows = np.concatenate([np.arange(V), tail, head])
        cols = np.concatenate([np.arange(V), head, tail])

        def pattern(column_of):
            """Sorted (new column, row) keys of S's entries, CSC indptr, indices."""
            keys = np.unique(column_of[cols] * V + rows)
            return (keys, np.searchsorted(keys, np.arange(V + 1) * V).astype(np.intc),
                    (keys % V).astype(np.intc))

        # The order depends on the pattern alone; a diagonal of V keeps the one
        # factorization that finds it regular (strictly diagonally dominant).
        keys, indptr, indices = pattern(np.arange(V))
        dominant = np.where(keys // V == indices, float(V), -1.0)
        # perm_c is C int: widened, so the keys column * V + row cannot wrap
        # once V * V passes 2^31 (V > 46,340).
        column_of = scipy.sparse.linalg.splu(sp.csc_matrix((dominant, indices, indptr)),
                                             permc_spec="MMD_AT_PLUS_A").perm_c.astype(np.int64)
        self.order = np.argsort(column_of)
        keys, self.indptr, self.indices = pattern(column_of)

        def position(r, c):
            return np.searchsorted(keys, column_of[c] * V + r)

        self.diag = position(np.arange(V), np.arange(V))
        K_VV = K[:V, :V].tocoo()
        self.k_vertex = np.zeros(keys.size)
        self.k_vertex[position(K_VV.row, K_VV.col)] = K_VV.data
        # With no interior samples (n = 2) S = K_VV + diag(s_V): nothing to add.
        self.ends = [0, m - 1] if m else []
        self.scatter = (position(np.stack([tail, tail, head, head], axis=1),
                                 np.stack([tail, head, tail, head], axis=1)).ravel()
                        if m else np.empty(0, dtype=int))


def _frame(dz: Discretization) -> _CondensationFrame:
    """dz's condensation frame, built on first use and kept on dz."""
    frame = vars(dz).get("condensation_frame")
    if frame is None:
        frame = dz.condensation_frame = _CondensationFrame(dz)
    return frame


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
    X = A_II^{-1} A_IV (two columns per edge, tail and head).  Its pattern
    and minimum-degree column order are dz's _CondensationFrame, analysed
    once per Discretization; each call fills only values: S's, written
    straight into that column order, and X's.  factor(S[:, order]), in CSC,
    returns the solve function of the column-permuted S, whose solution z
    is put back in vertex order, x[order] = z.  With no interior samples
    (n = 2) S = A.
    """
    V, E, m = dz.num_vertices, dz.num_edges, dz.n - 2
    f = _frame(dz)
    off = -1.0 / dz.h
    piv = (f.k_interior + s[V:]).reshape(E, m).T.copy()
    ratio = np.empty_like(piv)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, m):
            ratio[i] = off / piv[i - 1]
            piv[i] -= ratio[i] * off
    if not np.all(np.isfinite(piv) & (piv != 0)):
        raise RuntimeError("zero or non-finite pivot in an edge chain")

    def chain_solve(rhs: np.ndarray) -> np.ndarray:
        # Sample-major (m, E, k) copy of the (E, m, k) right-hand sides.
        x = rhs.reshape(E, m, math.prod(rhs.shape[1:])).transpose(1, 0, 2).copy()
        for i in range(1, m):
            x[i] -= ratio[i, :, None] * x[i - 1]
        for i in reversed(range(m)):
            if i < m - 1:
                x[i] -= off[:, None] * x[i + 1]
            x[i] /= piv[i, :, None]
        return x.transpose(1, 0, 2).reshape(rhs.shape)

    # A_IV's two columns per edge are -1/h at the first and the last sample.
    sample = np.arange(m)
    y = chain_solve(np.stack([off[:, None] * (sample == 0), off[:, None] * (sample == m - 1)],
                             axis=-1).reshape(E * m, 2))
    X = sp.csr_matrix((y.ravel(), f.x_indices, f.x_indptr), shape=(E * m, V))
    S = f.k_vertex.copy()
    S[f.diag] += s[:V]
    S -= np.bincount(f.scatter, (off[:, None, None] * y.reshape(E, m, 2)[:, f.ends]).ravel(),
                     minlength=S.size)
    solve_vertices = factor(sp.csc_matrix((S, f.indices, f.indptr), shape=(V, V)))

    def solve(r: np.ndarray) -> np.ndarray:
        y = chain_solve(r[V:])                  # A_II^{-1} r_I
        z = solve_vertices(r[:V] - f.A_VI @ y)
        x = np.empty_like(z)
        x[f.order] = z
        return np.concatenate([x, y - X @ x])

    return solve


class _Point(NamedTuple):
    """An iterate with what its one evaluation formed."""
    v: np.ndarray
    E: float
    Kv: np.ndarray       # K v
    w: np.ndarray        # |v|^{p-2}


class _Descent:
    def __init__(self, dz: Discretization, p: float, mu: float, cfg: SolverConfig):
        self.dz = dz
        self.p = p
        self.mu = mu
        self.cfg = cfg
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
        floor keeps sigma*M + K nonsingular.  The factor is built on first use,
        so residual-only callers never factorize, and rebuilt only when the
        target leaves [sigma/2, 2*sigma].  One factor is alive at a time.
        """
        target = max(self.cfg.shift_floor, -lam)
        if self.precondition is not None and self.sigma / 2 <= target <= 2 * self.sigma:
            return False
        self.sigma = 2.0 ** round(np.log2(target))
        self.precondition = None    # free the old factor before the new one is made
        # A power of two, so every product by sigma is exact.
        self.precondition = _condensed_solver(self.dz, self.sigma * self.dz.mass_vec,
                                              factorized)
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

    def multiplier_residual(self, v: np.ndarray) -> tuple[float, float]:
        _, lam, res = self.tangent_gradient(self.evaluate(v))
        return lam, res

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
        the preconditioner's, by splu in the frame's minimum-degree column
        order) solves A [y_r, y_b] = [r, b] as one 2-column block, and
        b^T delta = 0 gives delta = y_r - (b.y_r / b.y_b) y_b.  Raises
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
        solve = _condensed_solver(dz, -c, lambda S: splu(S, permc_spec="NATURAL").solve)
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
            if res <= self.cfg.residual_tol:
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
    d = _Descent(u.layout, p, mu, SolverConfig())
    return d.multiplier_residual(u.dofs)


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
    cfg = d.cfg
    pt = d.evaluate(d.project(v0))
    tau, polishes, it, progressed = cfg.step, 0, 0, False
    prev = None     # (r, z.r, direction) of the last step; None restarts at z
    while it < cfg.max_iters:
        it += 1
        r, lam, res = d.tangent_gradient(pt)
        d.record(trace, it, pt, res, tau)
        if res <= cfg.residual_tol or pt.E < cfg.divergence_floor:
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
                or pt.E < cfg.divergence_floor or it >= cfg.max_iters):
            break
        pt, res, done = d.newton_polish(pt, trace, it0=it)
        it += done
        if res <= cfg.residual_tol:
            break
        tau, polishes, progressed = cfg.step, polishes + 1, False
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
    # run that is not near zero, the one case it decides.
    flat_like = E >= 2.0 * flat_energy
    if near_zero or (flat_like and dz.boundary_mass_fraction(
            v, dz.boundary_weights(truncation_boundary(graph))) >= SolverConfig.spread_threshold):
        return "SpreadToZero"
    if p == 6:
        # Ground states never exist at the 1D-critical power; a localized
        # negative-energy iterate is the start of a blow-down.
        return "UnboundedBelow"
    return "GroundState" if res <= SolverConfig.residual_tol else "Inconclusive"


def _beats(E: float, res: float, best_E: float, best_res: float, mu: float,
           residual_tol: float) -> bool:
    """Whether a start that ended at (E, res) replaces the best earlier start.

    Lowest energy wins.  Runs that reached the same minimum (energies within
    1e-9 relative) are ranked by stationarity residual, unless both converged:
    then the earlier start stays, so rounding noise in residuals far below
    residual_tol cannot pick the winner.
    """
    tie = 1e-9 * max(abs(best_E), mu)
    if E < best_E - tie:
        return True
    if E >= best_E + tie or max(res, best_res) <= residual_tol:
        return False
    return res < best_res


def minimize(graph, p: float, mu: float, cfg: SolverConfig | None = None,
             init: GraphFunction | str = "multi") -> SolveOutcome:
    """Minimize the mass-mu NLS energy on a truncated graph.

    init may be a GraphFunction, one of the named initializers, or "multi"
    (run all named initializers, keep the best final energy).
    """
    if not (2 < p <= 6):
        raise ValueError(f"nonlinearity power must be in (2, 6], got {p}")
    if not 0 < mu < np.inf:
        raise ValueError(f"mass must be positive and finite, got {mu}")
    cfg = cfg or SolverConfig()
    dz = make_discretization(graph, cfg.samples_per_edge)
    d = _Descent(dz, p, mu, cfg)

    if isinstance(init, GraphFunction):
        inits = [("custom", dz.to_dofs(init))]
    else:
        inits = [(tag, initial_function(graph, tag, p, mu, cfg.samples_per_edge).dofs)
                 for tag in (INITIALIZERS if init == "multi" else [init])]

    best = None
    for tag, v0 in inits:
        trace: list[dict] = []
        v, E, lam, res, it = _descend(d, v0, trace)
        if best is None or _beats(E, res, best[1], best[4], mu, cfg.residual_tol):
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
