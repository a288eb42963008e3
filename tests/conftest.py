import json
import math
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest

from dnls_ist import ist, lattice, scattering, spectral, verify
from dnls_ist.errors import BlowupDetected, SingularTransfer

CASE1_ETA1 = math.pi + math.pi / 7  # zbar_1 = (1 - q0 exp(i pi/7))/r


@pytest.fixture(scope="session")
def case1_soliton():
    """Case I two-eigenvalue configuration with the figure parameters."""
    cfg = spectral.make_case(1, 2.0 / 3.0, 0.0)
    eigenset = ist.eigenvalues_case1(cfg, CASE1_ETA1)
    norming = ist.norming_case1(cfg, eigenset, 1.0, 0.0, 0.0)
    return cfg, eigenset, norming


@pytest.fixture(scope="session")
def case1_window(case1_soliton):
    cfg, eigenset, norming = case1_soliton
    N = 60
    q = np.array([ist.reconstruct(cfg, eigenset, norming, n, 0.0)
                  for n in range(-N, N + 1)])
    return lattice.PotentialWindow(cfg, N, 0.0, q)


@pytest.fixture(scope="session")
def case4_soliton():
    """Case IV single-eigenvalue configuration (theta_plus = 0, thbar1 = pi/3)."""
    cfg = spectral.make_case(4, 2.0 / 3.0, -math.pi)
    eigenset = ist.eigenvalues_case4(cfg)
    norming = ist.norming_case4(cfg, eigenset, math.pi / 3.0)
    return cfg, eigenset, norming


def fresh(member):
    """member with a NormingData of its own, which has solved no site yet.

    The session fixtures' NormingData keep the sites they have solved
    (NormingData.site_solves), so a test that counts solves or patches LAPACK
    takes a fresh one.
    """
    cfg, eigenset, norming = member
    return cfg, eigenset, ist.NormingData(cfg, eigenset, norming.cbar0)


def reconstruct_grid_sizes(monkeypatch, name="reconstruct_grid", times=None):
    """Record the cell count of every ist.<name> call made through the module.

    name is reconstruct_grid or _solve_screened, which share a signature; a
    nonempty stationary spectrum's reconstruct_grid call makes one
    _solve_screened call over its distinct sites.  times, if given, gathers
    the time of each cell of every call.
    """
    sizes = []
    grid = getattr(ist, name)

    def counted(cfg, eigenset, norming, ns, ts, derivative=False):
        sizes.append(np.broadcast(ns, ts).size)
        if times is not None:
            times.extend(np.broadcast_arrays(ns, ts)[1].ravel().tolist())
        return grid(cfg, eigenset, norming, ns, ts, derivative)

    monkeypatch.setattr(ist, name, counted)
    return sizes


def perturbed_background(cfg, N=25, t=0.0, seed=0, amplitude=0.04):
    """Background window with a compact random bump (PT partner is derived)."""
    rng = np.random.default_rng(seed)
    base = lattice.background_field(cfg, t, N)
    ns = np.arange(-N, N + 1)
    bump = amplitude * (rng.standard_normal(2 * N + 1)
                        + 1j * rng.standard_normal(2 * N + 1)) * np.exp(-(ns / 4.0) ** 2)
    return lattice.PotentialWindow(cfg, N, t, np.array(base.q) + bump)


def case_configs():
    return [
        spectral.make_case(1, 2.0 / 3.0, 0.0),
        spectral.make_case(2, 1.0, 0.0),
        spectral.make_case(3, 1.0, 0.0),
        spectral.make_case(4, 2.0 / 3.0, -math.pi),
    ]


# Test-side references for one-point views the package no longer carries.

def site(window, n):
    """q_n of a window, with the exact background substituted for |n| > N."""
    if -window.N <= n <= window.N:
        return complex(window.q[n + window.N])
    return complex(window.cfg.background(n, window.t))


def al_rhs_at(window, n):
    """The scalar window stencil: dq_n/dt from the lattice equation at one site."""
    qp, qm, qn = site(window, n + 1), site(window, n - 1), site(window, n)
    rn = window.cfg.sigma * np.conj(site(window, -n))
    return -1j * (qp - 2.0 * qn + qm - qn * rn * (qp + qm))


def wronskian(col_a, col_b, n):
    """2x2 determinant of two Jost columns at site n, de-scaled."""
    i = n + col_a.N
    va, vb = col_a.values[i], col_b.values[i]
    det = va[0] * vb[1] - va[1] * vb[0]
    return complex(det * math.exp(col_a.log_scale[i] + col_b.log_scale[i]))


# The recursive JSON writer that cli's type-dispatched dump_json replaced, and the
# per-line field and trajectory writers that cli's streamed format_g17 writers replaced.

def _fmt_json(x):
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % repr(x)
    return format(float(x), ".17g")


def dump_json_recursive(obj, indent=0):
    """The JSON of cli.dump_json, by one isinstance chain with complex written as a dict."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = ",\n".join(f'{pad}  {json.dumps(k)}: {dump_json_recursive(v, indent + 1)}'
                           for k, v in obj.items())
        return "{\n" + items + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = ",\n".join(f"{pad}  {dump_json_recursive(v, indent + 1)}" for v in obj)
        return "[\n" + items + "\n" + pad + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_json(float(obj))
    if isinstance(obj, (complex, np.complexfloating)):
        return dump_json_recursive({"re": float(obj.real), "im": float(obj.imag)}, indent)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def field_csv_lines(grid):
    """The field CSV of grid, one format call per line."""
    lines = ["n,t,re_q,im_q,abs_q,singular"]
    for n, t, q, bad in zip(grid.ns.tolist(), grid.ts.tolist(), grid.q.tolist(),
                            grid.singular.tolist()):
        if bad:
            lines.append(f"{n},{_fmt_json(t)},,,,1")
            continue
        # Python's abs, not np.abs: the two differ in the last bit
        lines.append("%d,%.17g,%.17g,%.17g,%.17g,0" % (n, t, q.real, q.imag, abs(q)))
    return "\n".join(lines) + "\n"


def trajectory_csv_lines(traj):
    """The trajectory CSV of traj, one format call per line."""
    lines = ["step,t,n,re_q,im_q"]
    sites = range(-traj.N, traj.N + 1)
    for k, (t, row) in enumerate(zip(traj.times.tolist(), traj.states.tolist())):
        for n, z in zip(sites, row):
            lines.append("%d,%.17g,%d,%.17g,%.17g" % (k, t, n, z.real, z.imag))
    return "\n".join(lines) + "\n"


def check_symmetries(window, zeta_samples):
    """The symmetry residuals of scattering_report over zeta_samples."""
    return scattering.scattering_report(window, zeta_samples).symmetry


# The sampled case-II scan that ist.case2_trace_infima replaced: the one
# sampled reference for the closed-form infima.

@dataclass(frozen=True)
class FeasibilityScan:
    """Least sampled violation (first in family order); by_family[name] = (drawn, scores).

    drawn holds each candidate's first zero, the one its family is derived from.
    """

    min_violation: float
    argmin: complex
    family: str
    candidates: int
    by_family: dict


def case2_feasibility_scan(cfg, samples=10_000, seed=0):
    """Random candidates of the three case-II families, scored as case2_trace_infima scores them.

    A single real pair (J=1) from three intervals inside [-6, 8], one
    quartet (J=2) from [-4, 4]**2 and two real pairs linked by
    zeta_2 = 1/zeta_bar(zeta_1) (J=2), each scored by its distance from the
    case's trace limits (branch sign -1) as one batch of spectra; an empty
    interval (q0 < 0.0448 or > 3.937) draws nothing.
    """
    rng = np.random.default_rng(seed)
    r, q0 = cfg.r, cfg.q0
    n_each = max(1, samples // 3)

    def uniform(low, high, size):
        return rng.uniform(low, high, size) if low < high else np.empty(0)

    reals = np.concatenate([
        rng.uniform(-6.0, -1.0 - 1e-3, n_each // 3),
        uniform(1.0 / r * (1 + 1e-6), 0.999, n_each // 3),
        uniform(r + q0 + 1e-3, 8.0, n_each - 2 * (n_each // 3)),
    ])
    zh = reals[spectral.classify(cfg, reals) == spectral.Region.DMinus]
    zbh = spectral.zeta_bar(cfg, zh)
    # Each quartet candidate takes two consecutive draws, real part first.
    zeta = rng.uniform(-4, 4, (n_each, 2)).view(complex)[:, 0]
    zeta = zeta[(spectral.classify(cfg, zeta) == spectral.Region.DMinus)
                & (np.abs(zeta.imag) >= 1e-3)]
    zb = spectral.zeta_bar(cfg, zeta)
    nonzero = np.abs(zbh) >= 1e-12
    zh1, zbh1 = zh[nonzero], zbh[nonzero]
    zh2 = 1.0 / zbh1
    linked = spectral.classify(cfg, zh2) == spectral.Region.DMinus
    zh1, zbh1, zh2 = zh1[linked], zbh1[linked], zh2[linked]

    def violation(zeros, partners, with_t22=True):
        worst = np.abs(ist.trace_product(zeros, partners, 1.0 / r) + 1.0)
        if with_t22:
            theta_inf = ist.trace_product(zeros, partners, 0.0)
            worst = np.maximum(worst, np.abs(
                theta_inf * ist.trace_product(partners, zeros, r) + 1.0))
        return worst

    families = (  # (name, zeros with the candidate first, partners, t22(r) scored)
        ("J2=1 real pair", zh[:, None], zbh[:, None], True),
        ("J1=1 quartet", np.stack([zeta, zeta.conj()], 1), np.stack([zb, zb.conj()], 1), False),
        ("J2=2 real pairs", np.stack([zh1, zh2], 1),
         np.stack([zbh1, spectral.zeta_bar(cfg, zh2)], 1), True),
    )
    best, by_family = (math.inf, 0j, ""), {}
    for family, zeros, partners, with_t22 in families:
        if len(zeros):
            scores = violation(zeros, partners, with_t22)
            i = int(np.argmin(scores))
            by_family[family] = (zeros[:, 0], scores)
            if scores[i] < best[0]:
                best = (float(scores[i]), complex(zeros[i, 0]), family)
    return FeasibilityScan(*best, sum(len(f[1]) for f in families), by_family)


def case2_violation_mp(cfg, family, zeta):
    """The scan's score of the candidate drawn as zeta, in 40 digits (cfg.r taken as exact).

    The float score rounds: a zero 1e-6 from 1/r, say, cancels six digits.
    """
    with mpmath.workdps(40):
        r, zeta = mpmath.mpf(cfg.r), mpmath.mpc(zeta)

        def bar(x):
            return (r * x - 1) / (x - r)

        zeros = {"J2=1 real pair": [zeta], "J1=1 quartet": [zeta, mpmath.conj(zeta)],
                 "J2=2 real pairs": [zeta, 1 / bar(zeta)]}[family]
        t11 = mpmath.fprod((1 / r - x) / (1 / r - bar(x)) for x in zeros)
        t22 = mpmath.fprod(x / bar(x) * (r - bar(x)) / (r - x) for x in zeros)
        worst = abs(t11 + 1)
        return float(worst if family == "J1=1 quartet" else max(worst, abs(t22 + 1)))


# The dense reflectionless solve that reconstruct_grid's block form replaced:
# every cell's (4J+1) system stacked and solved by LAPACK, with the same checks.

def dense_reconstruct(cfg, eigenset, norming, ns, ts):
    """(q, r, reason) per cell from the dense solve, checked as reconstruct_grid checks.

    Unknown ordering: N1(zeta_j), N2(zeta_j), Nbar1(zbar_j), Nbar2(zbar_j), 1/Theta_n.
    """
    b = ist._assemble(cfg, eigenset, norming, np.asarray(ns), np.asarray(ts, dtype=float))
    J, M = b.row.shape
    dim = 4 * J + 1
    B = np.zeros((M, dim, dim), dtype=complex)
    B[:, np.arange(dim), np.arange(dim)] = 1.0
    B[:, J:2 * J, -1] = b.rp[:, None]
    B[:, 2 * J:3 * J, -1] = -b.qp[:, None]
    B[:, :J, 2 * J:3 * J] = B[:, J:2 * J, 3 * J:4 * J] = -b.kbar.transpose(2, 0, 1)
    B[:, 2 * J:3 * J, :J] = B[:, 3 * J:4 * J, J:2 * J] = -b.k.transpose(2, 0, 1)
    B[:, -1, J:2 * J] = b.row.T
    Y = np.concatenate([b.y0, np.zeros(2 * J), b.y3, [1.0]]).astype(complex)
    reason = np.full(M, ist.OK, dtype=np.int8)

    def flag(bad, code):
        reason[(reason == ist.OK) & bad] = code

    entries_ok = np.isfinite(B).all(axis=(1, 2))
    flag(~entries_ok, ist.OVERFLOW)
    B[~entries_ok] = np.eye(B.shape[1])
    X = np.full(B.shape[:2], np.nan, dtype=complex)
    with np.errstate(all="ignore"):
        for i in range(M):  # cell by cell, so that a zero pivot flags that cell alone
            try:
                X[i] = np.linalg.solve(B[i], Y)
            except np.linalg.LinAlgError:
                reason[i] = ist.EXACTLY_SINGULAR
        flag(~np.isfinite(X).all(axis=1), ist.OVERFLOW)
        backward = np.abs((B @ X[..., None])[..., 0] - Y).max(axis=1)
        xmax = np.abs(X).max(axis=1)
        scale = np.abs(B).max(axis=(1, 2)) * np.maximum(xmax, 1e-300) + np.abs(Y).max()
        flag(backward > 1e-8 * scale, ist.BACKWARD_ERROR)
        theta_inv = X[:, -1]
        flag(np.abs(theta_inv) < ist.DET_GUARD * np.maximum(1.0, xmax), ist.THETA_DIVERGENCE)
        q = b.qp + cfg.r * (b.row.T * X[:, :J]).sum(axis=1) / theta_inv
        rn = b.rp - (b.row_r.T * X[:, 3 * J:4 * J]).sum(axis=1) / theta_inv
    flag(~np.isfinite(q), ist.AMPLITUDE)
    return q, rn, reason


def mp_reconstruct(cfg, eigenset, norming, n, t):
    """q_n(t) from the (4J+1) system assembled and solved in mpmath at 50 digits.

    The inputs are the double eigenvalues, Cbar_j(0) and the background
    constants; the lam powers, gamma, the time factors and the solve are
    all carried at 50 digits.
    """
    with mpmath.workdps(50):
        return complex(_mp_cell(cfg, _mp_inputs(cfg, eigenset, norming), n, mpmath.mpf(t))[0])


def mp_fields(cfg, eigenset, norming, n, t):
    """(q_n, r_n, 1/Theta_n, dq_n/dt) at time t, each as mp_reconstruct makes q_n.

    dq/dt is the central difference of step 1e-20 of the 50-digit q: its
    truncation (about 1e-40 times q's third derivative) and rounding (1e-30)
    lie far below a double's.
    """
    with mpmath.workdps(50):
        return _mp_fields(cfg, _mp_inputs(cfg, eigenset, norming), n, t)


def mp_exact_fields(cfg, keys, n, t):
    """mp_fields of the member that cfg and its norming keys define, from exact inputs.

    keys are norming_case1's (eta1, kappa1, thbar1) for a case-I cfg and
    norming_case4's (thbar1,) for a case-IV one.  r, the rotation, the
    eigenvalues and Cbar_j(0) are their closed forms (spectral.make_case,
    eigenvalues_case1/_case4, norming_case1/_case4), evaluated at 50 digits
    from these double parameters, so the limit of the solve as n -> -inf
    is q_minus(t) itself, which the double eigenvalues' rounding moves.
    """
    with mpmath.workdps(50):
        return _mp_fields(cfg, _mp_exact_inputs(cfg, keys), n, t)


def mp_exact_background(cfg, t):
    """(q_minus(t), r_minus(t), dq_minus/dt) of a case-I or case-IV cfg at 50 digits,
    rounded once to doubles: the limit of mp_exact_fields as n -> -inf."""
    with mpmath.workdps(50):
        q0, rotation, theta_plus = _mp_exact_background(cfg)
        t = mpmath.mpf(t)
        q_minus = q0 * mpmath.expj(cfg.theta_minus + rotation * t)
        r_minus = cfg.sigma * mpmath.conj(q0 * mpmath.expj(theta_plus + rotation * t))
        return complex(q_minus), complex(r_minus), complex(1j * rotation * q_minus)


def _mp_exact_background(cfg):
    """(q0, rotation, theta_plus) of a case-I or case-IV cfg in the working precision."""
    q0, case_iv = mpmath.mpf(cfg.q0), cfg.case_id is spectral.Case.IV
    return q0, 2 * q0 ** 2, cfg.theta_minus + mpmath.pi * case_iv  # rotation 2 sigma delta


def _mp_fields(cfg, inputs, n, t):
    """mp_fields of _mp_cell's inputs, in the working precision."""
    t, h = mpmath.mpf(t), mpmath.mpf("1e-20")
    q, r, theta_inv = _mp_cell(cfg, inputs, n, t)
    qdot = (_mp_cell(cfg, inputs, n, t + h)[0] - _mp_cell(cfg, inputs, n, t - h)[0]) / (2 * h)
    return tuple(complex(x) for x in (q, r, theta_inv, qdot))


def _mp_inputs(cfg, eigenset, norming):
    """The inputs of _mp_cell from a double member: (r, rotation, theta_plus, the
    zeros of t11 and of t22, Cbar_j(0)), each as the double it is."""
    return (mpmath.mpf(cfg.r), mpmath.mpf(cfg.rotation), mpmath.mpf(cfg.theta_plus),
            [mpmath.mpc(z) for z in eigenset.zeros_t11],
            [mpmath.mpc(z) for z in eigenset.zeros_t22], [mpmath.mpc(c) for c in norming.cbar0])


def _mp_exact_inputs(cfg, keys):
    """The inputs of _mp_cell from the closed forms of a case-I or case-IV member (keys
    as mp_exact_fields), in the working precision."""
    q0, rotation, theta_plus = _mp_exact_background(cfg)
    r = mpmath.sqrt(1 - q0 ** 2)  # r**2 = 1 - q0**2 in cases I and IV

    def lam(zeta):  # lam(zbar_1), real and positive for both members
        return zeta * mpmath.sqrt((zeta - r) / (zeta * (zeta * r - 1)))

    if cfg.case_id is spectral.Case.IV:
        zb1, z1 = (1 - q0) / r, r / (1 - q0)
        zs, zbs = [mpmath.mpc(z1)], [mpmath.mpc(zb1)]
        cbar0 = [(zb1 - z1) / lam(zb1) * mpmath.expj(mpmath.mpf(keys[0]))]
        return r, rotation, theta_plus, zs, zbs, cbar0
    eta1, kappa1, thbar1 = (mpmath.mpf(key) for key in keys)
    zb1, z1 = (1 + q0 * mpmath.expj(eta1)) / r, r / (1 + q0 * mpmath.expj(-eta1))
    zs, zbs = [z1, mpmath.conj(z1)], [zb1, mpmath.conj(zb1)]
    lam3 = lam(zb1) ** 3
    cbar0 = [kappa1 * lam3 * (zbs[0] - z1) * (zbs[0] - zs[1]) / (zbs[0] - zbs[1])
             * mpmath.expj(thbar1 - mpmath.pi / 2),
             (zbs[1] - z1) * (zbs[1] - zs[1]) / (kappa1 * lam3 * (zbs[1] - zbs[0]))
             * mpmath.expj(thbar1 + mpmath.pi / 2)]
    return r, rotation, theta_plus, zs, zbs, cbar0


def _mp_cell(cfg, inputs, n, t):
    """(q_n, r_n, 1/Theta_n) at the mpf time t, in the working precision."""
    r, rotation, theta_plus, zs, zbs, cbar0 = inputs
    J = len(zs)
    qp = cfg.q0 * mpmath.expj(theta_plus + rotation * t)
    rp = cfg.sigma * mpmath.conj(cfg.q0 * mpmath.expj(cfg.theta_minus + rotation * t))

    def lam2(z):
        return z * (z - r) / (z * r - 1)

    def gamma(z):
        return r * r * (z - 2 / r + 1 / z) * (z - 2 * r + 1 / z) / ((z - r) * (1 / z - r))

    cbar = [c0 * mpmath.exp(-1j * (rotation + gamma(zb)) * t) for c0, zb in zip(cbar0, zbs)]
    cpow = [-qp ** 2 / (zb - r) ** 2 * cb * lam2(z) ** (-n)
            for z, zb, cb in zip(zs, zbs, cbar)]
    cbarpow = [cb * lam2(zb) ** n for zb, cb in zip(zbs, cbar)]
    row = [cp / (z * (z - r)) for z, cp in zip(zs, cpow)]
    row_r = [cb / (zb - 1 / r) for zb, cb in zip(zbs, cbarpow)]
    dim = 4 * J + 1
    B = [[mpmath.mpc(i == j) for j in range(dim)] for i in range(dim)]
    Y = [mpmath.mpc(0)] * dim
    for i in range(J):
        Y[i], Y[3 * J + i], Y[4 * J] = r - 1 / zs[i], zbs[i] - r, 1
        B[J + i][4 * J], B[2 * J + i][4 * J], B[4 * J][J + i] = rp, -qp, row[i]
        for j in range(J):
            kbar = (zs[i] - 1 / r) * cbarpow[j] / ((zbs[j] - 1 / r) * (zs[i] - zbs[j]))
            k = (zbs[i] - r) * cpow[j] / ((zs[j] - r) * (zbs[i] - zs[j]))
            B[i][2 * J + j] = B[J + i][3 * J + j] = -kbar
            B[2 * J + i][j] = B[3 * J + i][J + j] = -k
    X = _mp_solve(B, Y)
    return (qp + r * mpmath.fsum(row[j] * X[j] for j in range(J)) / X[4 * J],
            rp - mpmath.fsum(row_r[j] * X[3 * J + j] for j in range(J)) / X[4 * J], X[4 * J])


def _mp_solve(B, Y):
    """Gaussian elimination with partial pivoting on lists of mpmath numbers.

    mpmath.lu_solve calls a far-field system singular: its pivot test is
    relative to the norm of B, which the lam**(2n) entries make huge.
    """
    A = [row[:] + [y] for row, y in zip(B, Y)]
    dim = len(A)
    for c in range(dim):
        p = max(range(c, dim), key=lambda i: abs(A[i][c]))
        A[c], A[p] = A[p], A[c]
        for i in range(c + 1, dim):
            f = A[i][c] / A[c][c]
            A[i] = [a - f * b for a, b in zip(A[i], A[c])]
    X = [mpmath.mpc(0)] * dim
    for i in reversed(range(dim)):
        X[i] = (A[i][dim] - mpmath.fsum(A[i][j] * X[j] for j in range(i + 1, dim))) / A[i][i]
    return X


# The block solve and the RK4 stepper as they were before their loop invariants
# were hoisted: _assemble's per-spectrum constants built again for every block,
# each check flagging the cells still OK in turn, and RK4 stages that copy the
# field and concatenate its neighbours.  ist and verify must match them byte for byte.

def assemble_reference(cfg, eigenset, norming, ns, ts):
    """ist._Blocks over the cells (ns[i], ts[i]), every constant built in place."""
    zs = np.array(eigenset.zeros_t11)
    zbs = np.array(eigenset.zeros_t22)
    J = zs.size
    r = cfg.r
    rinv = 1.0 / r
    qp, rp = cfg.q_plus(ts), cfg.r_plus(ts)
    with np.errstate(all="ignore"):
        cbar = norming.cbar(np.arange(J)[:, None], ts)
        c = -(qp * qp) / ((zbs - r) ** 2)[:, None] * cbar
        cpow = c * spectral.lam_squared(cfg, zs)[:, None] ** -ns
        cbarpow = cbar * spectral.lam_squared(cfg, zbs)[:, None] ** ns
        kbar = ((zs - rinv)[:, None, None] * cbarpow
                / ((zbs - rinv)[None, :] * (zs[:, None] - zbs[None, :]))[..., None])
        k = ((zbs - r)[:, None, None] * cpow
             / ((zs - r)[None, :] * (zbs[:, None] - zs[None, :]))[..., None])
        row = cpow / (zs * (zs - r))[:, None]
        row_r = cbarpow / (zbs - rinv)[:, None]
    return ist._Blocks(kbar, k, row, row_r, qp, rp, r - 1.0 / zs, zbs - r)


def _abs_max(*blocks):
    """The largest modulus per cell over arrays whose last axis is the cell axis."""
    return np.max([np.abs(a).reshape(-1, a.shape[-1]).max(axis=0, initial=0.0)
                   for a in blocks], axis=0)


def solve_block_reference(cfg, eigenset, norming, ns, ts, derivative=False):
    """ist._solve_block's (q, r, backward, theta_inv, reason[, qdot, theta_inv_dot])."""
    b = assemble_reference(cfg, eigenset, norming, ns, ts)
    kbar, k, row, qp, rp = b.kbar, b.k, b.row, b.qp, b.rp
    J, M = row.shape
    reason = np.full(M, ist.OK, dtype=np.int8)

    def flag(bad, code):
        reason[(reason == ist.OK) & bad] = code

    with np.errstate(all="ignore"):
        bmax = _abs_max(kbar, k, row, qp, rp, np.ones(M))
    entries_ok = np.isfinite(bmax)
    if not entries_ok.all():
        flag(~entries_ok, ist.OVERFLOW)
        kbar[..., ~entries_ok] = k[..., ~entries_ok] = row[:, ~entries_ok] = 0.0
    P = np.empty((M, 2 * J, 2 * J), dtype=complex)
    P[:, :J, :J] = P[:, J:, J:] = np.eye(J)
    P[:, :J, J:] = -kbar.transpose(2, 0, 1)
    P[:, J:, :J] = -k.transpose(2, 0, 1)
    rhs = np.zeros((2 * J, 4, M), dtype=complex)
    rhs[J:, 0] = b.y3[:, None]
    rhs[:J, 1] = -rp
    rhs[:J, 2] = b.y0[:, None]
    rhs[J:, 3] = qp
    with np.errstate(all="ignore"):
        try:
            z = np.linalg.solve(P, rhs.transpose(2, 0, 1))
        except np.linalg.LinAlgError:
            z = np.full((M, 2 * J, 4), np.nan, dtype=complex)
            for i in range(M):
                try:
                    z[i] = np.linalg.solve(P[i:i + 1], rhs[None, ..., i])[0]
                except np.linalg.LinAlgError:
                    reason[i] = ist.EXACTLY_SINGULAR
        z = z.transpose(1, 2, 0).copy()
        border = 1.0 + (row * z[:J, 1]).sum(axis=0)
        theta_inv = (1.0 - (row * z[:J, 0]).sum(axis=0)) / border
        X = z[:, 0::2] + theta_inv * z[:, 1::2]
        xmax = np.maximum(_abs_max(X), np.abs(theta_inv))
        solved = np.isfinite(xmax)
        flag(~solved, ist.OVERFLOW)
        residual = X - (rhs[:, 0::2] + theta_inv * rhs[:, 1::2])
        residual[:J] -= ist._times(kbar, X[J:])
        residual[J:] -= ist._times(k, X[:J])
        backward = np.maximum(_abs_max(residual),
                              np.abs(theta_inv + (row * X[:J, 0]).sum(axis=0) - 1.0))
        ymax = np.abs(np.concatenate([b.y0, b.y3])).max(initial=1.0)
        flag(backward > 1e-8 * (bmax * np.maximum(xmax, 1e-300) + ymax), ist.BACKWARD_ERROR)
        flag(np.abs(theta_inv) < ist.DET_GUARD * np.maximum(1.0, xmax), ist.THETA_DIVERGENCE)
        sum_q = (row * X[:J, 1]).sum(axis=0)
        q = qp + cfg.r * sum_q / theta_inv
        rn = rp - (b.row_r * X[J:, 0]).sum(axis=0) / theta_inv
        flag(~np.isfinite(np.abs(q)), ist.AMPLITUDE)
    backward[~solved] = np.inf
    backward[~entries_ok] = np.nan
    q[reason != ist.OK] = rn[reason != ist.OK] = complex(np.nan, np.nan)
    if not derivative:
        return q, rn, backward, theta_inv, reason
    qdot = theta_inv_dot = np.full(M, complex(np.nan, np.nan))
    if not reason.any():
        with np.errstate(all="ignore"):
            c_X = norming.c_rate[:, None, None] * X[:J]
            spin = 1j * cfg.rotation * theta_inv
            drhs = np.empty_like(X)
            drhs[:J] = ist._times(kbar, norming.cbar_rate[:, None, None] * X[J:])
            drhs[J:] = ist._times(k, c_X)
            drhs[:J, 0] += spin * rp
            drhs[J:, 1] += spin * qp
            dX = np.linalg.solve(P, drhs.transpose(2, 0, 1)).transpose(1, 2, 0)
            theta_inv_dot = -(row * (c_X[:, 0] + dX[:J, 0])).sum(axis=0) / border
            n1_dot = dX[:J, 1] + theta_inv_dot * z[:J, 3]
            dsum_q = (row * (c_X[:, 1] + n1_dot)).sum(axis=0)
            qdot = (1j * cfg.rotation * qp
                    + cfg.r * (dsum_q - sum_q * theta_inv_dot / theta_inv) / theta_inv)
    return q, rn, backward, theta_inv, reason, qdot, theta_inv_dot


def _rhs_reference(cfg, y, pinned, bg):
    q = y.copy()
    q[pinned] = bg
    deriv = lattice.al_rhs(q, np.concatenate((q[1:], bg[-1:])),
                           np.concatenate((bg[:1], q[:-1])), q[::-1], cfg.sigma)
    deriv[pinned] = 1j * cfg.rotation * bg
    return deriv


def simulate_reference(initial_window, cfg, t_end, dt):
    """verify.simulate's Trajectory, or its BlowupDetected."""
    N = initial_window.N
    sign = 1.0 if t_end >= initial_window.t else -1.0
    step = sign * abs(dt)
    n_steps = int(round(abs(t_end - initial_window.t) / abs(dt)))
    times = initial_window.t + step * np.arange(n_steps + 1)
    states = np.empty((n_steps + 1, 2 * N + 1), dtype=complex)
    states[0] = initial_window.q
    idx = np.arange(-N, N + 1)
    pinned = np.flatnonzero(np.abs(idx) >= N - 1)
    bg_at, bg_half, bg_full = (cfg.background(idx[pinned], ts[:, None]) for ts in (
        times, times[:-1] + 0.5 * step, times[:-1] + step))
    y = states[0].copy()
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            k1 = _rhs_reference(cfg, y, pinned, bg_at[k])
            k2 = _rhs_reference(cfg, y + 0.5 * step * k1, pinned, bg_half[k])
            k3 = _rhs_reference(cfg, y + 0.5 * step * k2, pinned, bg_half[k])
            k4 = _rhs_reference(cfg, y + step * k3, pinned, bg_full[k])
            y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            y[pinned] = bg_at[k + 1]
            peak = float(np.max(np.abs(y)))
            if not np.isfinite(peak) or peak > verify.BLOWUP_THRESHOLD:
                raise BlowupDetected(
                    f"|q| reached {peak:.3e} at step {k + 1}, t = {times[k + 1]:.4f}",
                    step=k + 1, t=float(times[k + 1]))
            states[k + 1] = y
    return verify.Trajectory(N, times, states)


# The Jost sweep as it was before its step factors were certified by a priori
# bounds: every step factor of the window built and checked before the sweep,
# and the renormalization test run after every step.  Like it, the sweep starts
# where some column first leaves its edge's background.  scattering._propagate
# must match it byte for byte, exceptions included.

def propagate_reference(window, zetas, kinds=tuple(scattering.ColumnKind), site=None):
    """scattering._propagate's _Sweep, or its SingularTransfer."""
    cfg = window.cfg
    N = window.N
    if site is not None:
        scattering._check_site(N, site)
    steps = 2 * N + 1
    zeta = np.asarray(zetas, dtype=complex)
    K, C = zeta.size, len(kinds)
    forward = np.array([scattering._FORWARD[kind] for kind in kinds])
    q_f, r_f = window.q, lattice.partner(window)
    q_s = np.where(forward, q_f[:, None], q_f[::-1, None])[:, :, None]
    r_s = np.where(forward, r_f[:, None], r_f[::-1, None])[:, :, None]
    with np.errstate(all="ignore"):
        g_s = q_s * r_s
        x00, x01, x10, x11 = (np.stack(x) for x in zip(
            *(scattering._step_constants(cfg, zeta, kind) for kind in kinds)))
        det0 = np.where(forward[:, None], 1.0, x00 * x11)
        det1 = np.where(forward[:, None], 0.0, x01 * x10)
        block = max(1, scattering._CHECK_BLOCK // max(1, 3 * C * K))

        def factors(j):
            return x01 * q_s[j:j + block], x10 * r_s[j:j + block], det0 - det1 * g_s[j:j + block]

        failures = np.empty((steps, C, K), dtype=np.int8)
        for j in range(0, steps, block):
            a01, a10, det = factors(j)
            finite = np.isfinite(x00) & np.isfinite(x11) & np.isfinite(a01) & np.isfinite(a10)
            invertible = forward[:, None] | ((det != 0) & np.isfinite(det))
            failures[j:j + block] = np.where(finite, np.where(invertible, 0, 2), 1)
        if failures.any():
            k, c, j = np.unravel_index(int(np.argmax(failures.transpose(2, 1, 0) != 0)),
                                       (K, C, steps))
            if failures[j, c, k] == 2:
                raise SingularTransfer("transfer matrix not invertible")
            n = j - N if forward[c] else N - j
            raise SingularTransfer(f"non-finite transfer entry at n={n}, zeta={complex(zeta[k])}")

        keep = range(steps + 1) if site is None else sorted(
            {scattering._step_index(kind, N, site) for kind in kinds})
        slots = {j: i for i, j in enumerate(keep)}
        values = np.empty((len(keep), 2, C, K), dtype=complex)
        logs = np.empty((len(keep), C, K))
        v0, v1 = (np.stack(x) for x in zip(
            *(scattering._boundary_vector(cfg, window.t, zeta, kind) for kind in kinds)))
        log = np.zeros((C, K))

        def record(j):
            i = slots.get(j)
            if i is not None:
                values[i, 0], values[i, 1], logs[i] = v0, v1, log

        start = steps
        for c, kind in enumerate(kinds):
            left_edge = scattering._FORWARD[kind]
            q_edge = cfg.q_minus(window.t) if left_edge else cfg.q_plus(window.t)
            r_edge = cfg.r_minus(window.t) if left_edge else cfg.r_plus(window.t)
            j = 0
            while j < steps and q_s[j, c, 0] == q_edge and r_s[j, c, 0] == r_edge:
                j += 1
            start = min(start, j)
        for j in range(start + 1):
            record(j)
        for j in range(start, keep[-1]):
            a01, a10, det = x01 * q_s[j], x10 * r_s[j], det0 - det1 * g_s[j]
            v0, v1 = ((x00 * v0 + a01 * v1) / det, (a10 * v0 + x11 * v1) / det)
            m = np.maximum(np.abs(v0), np.abs(v1))
            threshold = scattering.RENORM_THRESHOLD
            rescale = (m > threshold) | ((m > 0.0) & (m < 1.0 / threshold))
            if rescale.any():
                m = np.where(rescale, m, 1.0)
                v0, v1, log = v0 / m, v1 / m, log + np.log(m)
            record(j + 1)
    return scattering._Sweep(tuple(kinds), N, slots, values, logs)
