"""Integration against the spectral measure, with certified error reporting.

integrate_measure is the one place where a kernel is integrated against
G(d mu): atoms are summed exactly and each power-law segment goes to
integrate_vector, an adaptive Gauss-Kronrod (G10, K21) integrator for
vector-valued integrands. Its rule and error estimate are QUADPACK's
(Piessens et al. 1983); its subdivision is global: each round bisects the
panels with the largest error estimates together, error control on the
dominant component (max norm). As in QUADPACK's QAG, the convergence test
covers the first round too, so an integrand the initial panels resolve is
evaluated once. The nodes of a round go to the integrand in calls of whole
panels, so the kernels only ever see arrays, and each call is reduced
before the next. A probe call with zero nodes tells the rule and the
output shape, so no kernel value is computed twice. Failure to reach the
tolerance, or a non-finite result, raises AccuracyError carrying the
achieved estimate instead of silently returning it.

A segment A mu^a on [0, hi] with a non-integer exponent is singular at 0,
where bisection alone arrives one panel per round (80 rounds at a = -0.6),
each round paying the kernels' fixed cost per call. integrate_measure
therefore seeds such a segment with panels graded toward 0, at
hi 2^-k for k = 1..K, K sized by the rule's own error estimate (_halvings),
and integrates the panel at 0 in a variable where the density is constant.
Spectra and covariances then take one round in the common case, a few at
most at any exponent, the same adaptive error control certifies them, and
no node is ever subnormal,
even for exponents near -1 whose mass lies mostly below 1e-300.

An integrand returns either an array with the node axis last, reduced by
_dense_sums, or a pair of factors, rows (nodes, J, K) and cols
(nodes, K, B), whose value at a node is the (J, B) matrix rows @ cols.
_factored_sums folds the weights into cols and takes each panel's Kronrod
sum and its Kronrod-minus-Gauss difference as (J x 21K) @ (21K x B)
products, so no node's value is ever formed. Its error estimate is the raw
max |K - G|: QUADPACK's rescaling needs |value - mean| at every node, which
does not factor, and for a resolved panel (200 |K - G| below that spread)
the raw difference is the larger estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import AccuracyError
from .measure import PowerLawSegment, SpectralMeasure

# QUADPACK's dqk21: the Kronrod nodes in (0, 1), the Kronrod weights (the last
# one for node 0) and the Gauss weights of the odd-numbered nodes.
_XK = [0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
       0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
       0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
       0.14887433898163122]
_WK = [0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849, 0.1494455540029169]
_WG = [0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287]
_NODES = np.array(_XK + [0.0] + [-x for x in _XK[::-1]])
_WEIGHTS = np.array([_WK + _WK[-2::-1],
                     [w for g in _WG + _WG[::-1] for w in (0.0, g)] + [0.0]])

# Values per call, counted as the integral's width per node: the values a
# dense integrand returns, or the J*B values of rows @ cols for factors,
# which are never formed but whose factors take kernel work on about J + B
# columns per node. A call carries as many whole panels as fit, and at least
# one, so the kernels' fixed cost per call is spread over many nodes while a
# call's memory and its reduction stay bounded.
_VALUES_PER_CALL = 2 ** 20
# Multiply-adds per BLAS call of serial_matmul. OpenBLAS threads a GEMM or GEMV
# above 2^18, and its last bits then change with the threads: (16 x 200) @ (200
# x 401) and (1 x 1000) @ (1000 x 500) did from 1 to 2. Plain @ stays where the
# bits were the same at every size probed: _dense_sums' (rows, 21) @ (21, 2) and
# |v| @ w at 1k-100k rows, and integrate_measure's f(mus) @ masses.
_SERIAL_GEMM = 2 ** 18
_MAX_BISECT = 128
# Panels after which integrate_vector stops bisecting and raises AccuracyError.
_MAX_PANELS = 2000
_ATOL = 1e-15
_TINY = np.finfo(float).tiny


def _dense_sums(values, ints: np.ndarray, stats: np.ndarray) -> None:
    """Reduce an integrand's values at the nodes of k panels, node axis last,
    to each panel's Kronrod sums, ints (k, width), and its stats (3, k): the
    max |K - G|, the max Kronrod sum of |v| and QUADPACK's spread, the max
    Kronrod sum of |v - mean|."""
    panels = ints.shape[0]
    v = np.reshape(values, (-1, 21))  # (width * panels, 21)
    kg = v @ _WEIGHTS.T
    kronrod = kg[:, 0].reshape(-1, panels)
    ints[...] = kronrod.T
    stats[0] = np.max(np.abs(kronrod - kg[:, 1].reshape(-1, panels)), axis=0,
                      initial=0.0)
    for i, dev in ((1, v), (2, v - 0.5 * kg[:, :1])):
        stats[i] = np.max((np.abs(dev) @ _WEIGHTS[0]).reshape(-1, panels),
                          axis=0, initial=0.0)


def serial_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (..., M, K) @ b ([...,] K, N) in float64 BLAS calls of at most _SERIAL_GEMM
    multiply-adds each, split by b's columns, and by a's rows if M x K is over it."""
    m, k, n = *a.shape[-2:], b.shape[-1]
    if m * k * n <= _SERIAL_GEMM:
        return a @ b
    cols = max(1, _SERIAL_GEMM // (m * k))
    rows = max(1, _SERIAL_GEMM // (k * cols))
    a, out = np.ascontiguousarray(a), np.empty(a.shape[:-1] + (n,))
    for j in range(0, n, cols):
        for i in range(0, m, rows):
            np.matmul(a[..., i:i + rows, :], b[..., j:j + cols],
                      out=out[..., i:i + rows, j:j + cols])
    return out


def _factored_sums(factors, ints: np.ndarray, stats: np.ndarray) -> None:
    """_dense_sums for factors (rows, cols): each panel's sums are products of
    its rows, (J, 21K), with its weighted cols, (21K, B), by serial_matmul. The
    rounding bound takes |rows| @ |cols| for |v|; the spread, never formed, is 0."""
    rows, cols = factors
    panels, n_rows, n_cols = ints.shape[0], rows.shape[1], cols.shape[2]
    inner = 21 * rows.shape[-1]
    # (panel, J, node, K) and (panel, node, K, B): node-major inner index.
    rows = rows.reshape(panels, 21, n_rows, -1).swapaxes(1, 2).reshape(
        panels, n_rows, inner)
    cols = cols.reshape(panels, 21, -1, n_cols)
    kronrod, difference = (
        (w[:, None, None] * cols).reshape(panels, inner, n_cols)
        for w in (_WEIGHTS[0], _WEIGHTS[0] - _WEIGHTS[1]))
    ints[...] = serial_matmul(rows, kronrod).reshape(panels, -1)
    stats[0] = np.max(np.abs(serial_matmul(rows, difference)), (1, 2), initial=0.0)
    stats[1] = np.max(serial_matmul(np.abs(rows), np.abs(kronrod)), (1, 2), initial=0.0)


def _gk21(f, lo: np.ndarray, hi: np.ndarray, reduce, width: int):
    """Integral and error estimate of each panel [lo, hi], and the summed
    rounding error of all of them. f gets whole panels, about
    _VALUES_PER_CALL / width nodes and at least one panel per call, and
    reduce sums each call's values before the next call. |K - G| is
    rescaled by the spread where that is nonzero, and is at least the
    rounding bound."""
    half = 0.5 * (hi - lo)
    ints, stats = np.empty((lo.size, width)), np.zeros((3, lo.size))
    step = max(1, _VALUES_PER_CALL // (21 * max(width, 1)))
    for p in range(0, lo.size, step):
        chunk = slice(p, p + step)
        x = (0.5 * (lo + hi)[chunk, None] + half[chunk, None] * _NODES).ravel()
        reduce(f(x), ints[chunk], stats[:, chunk])
    err, s_abs, spread = stats
    err, spread = half * err, half * spread
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = spread * np.minimum(1.0, (200.0 * err / spread) ** 1.5)
    err = np.where((spread != 0.0) & (err != 0.0), scaled, err)
    rounding = 50.0 * np.finfo(float).eps * half * s_abs
    err = np.where(rounding > np.finfo(float).tiny, np.maximum(err, rounding), err)
    return half[:, None] * ints, err, float(rounding.sum())


def integrate_vector(f, lo: float, hi: float, *, rtol: float = 1e-9,
                     breakpoints=()):
    """Integrate a vector-valued integrand over [lo, hi].

    f takes a 1D array of nodes and either puts the node axis last, or
    returns the pair (rows (nodes, J, K), cols (nodes, K, B)) whose value at
    a node is rows @ cols; the result has the shape of one node's values.
    f must accept an empty array of nodes: its values then have a node axis
    of length 0, or its factors 0 rows, which picks the rule and the shape.
    breakpoints inside the interval (e.g. where a derivative jumps) seed the
    initial panel subdivision.
    """
    inner = sorted({p for p in breakpoints if lo < p < hi})
    a, b = np.array([lo, *inner], dtype=float), np.array([*inner, hi], dtype=float)
    probe = f(np.empty(0))  # zero nodes give the rule and the shape
    if isinstance(probe, tuple):
        reduce, shape = _factored_sums, (probe[0].shape[1], probe[1].shape[2])
    else:
        reduce, shape = _dense_sums, np.shape(probe)[:-1]
    width = math.prod(shape)
    ints, errs, rounding = _gk21(f, a, b, reduce, width)

    def tolerance():
        return max(_ATOL, rtol * float(np.max(np.abs(ints.sum(axis=0)), initial=0.0)))

    error = float(errs.sum())
    converged = error < tolerance() / 8
    while not converged and a.size < _MAX_PANELS:
        # Bisect the worst panels until their error covers error - tol/8.
        order = np.lexsort((b, a, -errs))
        covered = np.cumsum(errs[order]) <= error - tolerance() / 8
        split, keep = np.split(order, [min(_MAX_BISECT, 1 + np.count_nonzero(covered))])
        mid = 0.5 * (a[split] + b[split])
        lo_c, hi_c = np.concatenate([a[split], mid]), np.concatenate([mid, b[split]])
        ints_c, errs_c, rounding_c = _gk21(f, lo_c, hi_c, reduce, width)
        a, b = np.concatenate([a[keep], lo_c]), np.concatenate([b[keep], hi_c])
        ints = np.concatenate([ints[keep], ints_c])
        errs = np.concatenate([errs[keep], errs_c])
        error, rounding = float(errs.sum()), rounding + rounding_c
        converged = error < tolerance() / 8
        if error < rounding or not (math.isfinite(error) and math.isfinite(rounding)):
            break

    total, err = ints.sum(axis=0), error + rounding
    # Each test is written so that NaN fails it.
    if not (converged and err <= 10.0 * tolerance() and np.all(np.abs(total) < np.inf)):
        raise AccuracyError(
            f"quadrature over [{lo}, {hi}] did not reach its tolerance "
            f"(error estimate {err:.3e})",
            estimate=total.reshape(shape), error=err,
        )
    return total.reshape(shape)


def _origin_singular(seg: PowerLawSegment) -> bool:
    """Whether seg is A mu^a on [0, hi] with non-integer a, whose density is
    not smooth at 0: integrate_measure grades its panels toward 0, and
    _segment_atoms takes Gauss-Jacobi atoms for it."""
    return seg.lo == 0.0 and seg.exponent != math.floor(seg.exponent)


def _gauss_jacobi(n: int, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss rule for the weight (1 + y)^beta
    on [-1, 1], Jacobi alpha = 0 and non-integer beta > -1: the eigenvalues of
    the Jacobi matrix of the monic Jacobi recurrence, and mu_0 = 2^(beta+1) /
    (beta+1) times the squared first components of their unit eigenvectors
    (Golub & Welsch, Math. Comp. 23(106), 1969)."""
    s = 2.0 * np.arange(n) + beta
    diag = beta * beta / (s * (s + 2.0))
    k, s = np.arange(1, n), s[1:]
    off = 2.0 * k * (k + beta) / (s * np.sqrt((s + 1.0) * (s - 1.0)))
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 ** (beta + 1.0) / (beta + 1.0) * vectors[0] ** 2


def _segment_atoms(segments, n: int):
    """Yield, segment by segment, the locations and masses of the n atoms of
    the Gauss rule for its density: Gauss-Jacobi in mu = hi (1 + y)/2 where
    _origin_singular, since Gauss-Legendre then converges only as about
    n^-2(1+a), and Gauss-Legendre elsewhere, whose weights keep more relative
    digits at the ends. The Gauss-Legendre rule is built once, when needed."""
    legendre = None
    for seg in segments:
        if _origin_singular(seg):
            y, w = _gauss_jacobi(n, seg.exponent)
            half = 0.5 * seg.hi
            yield half * (1.0 + y), seg.amplitude * half ** (seg.exponent + 1.0) * w
            continue
        if legendre is None:
            legendre = np.polynomial.legendre.leggauss(n)
        y, w = legendre
        half = 0.5 * (seg.hi - seg.lo)
        mus = 0.5 * (seg.hi + seg.lo) + half * y
        yield mus, half * w * seg.amplitude * mus ** seg.exponent


def _halvings(exponent: float, rtol: float) -> int:
    """Halvings K of an origin segment [0, hi] toward 0.

    The rule's integral i1 and error estimate e1 for mu^a on [0, 1] both
    scale as h^(a+1) on [0, h], so after K = log2(e1 / (rtol/8 i1)) / (a+1)
    halvings the estimate on the panel at 0 is below rtol/8 of the segment's
    integral. K is at most log2(8/rtol): the panel at 0 is then at most
    rtol/8 of the segment long, and integrate_measure integrates it where
    the density is constant, so only f's change across it is left.
    """
    ints, errs, _ = _gk21(lambda x: x ** exponent, np.zeros(1), np.ones(1),
                          _dense_sums, 1)
    ratio = errs[0] / (rtol / 8.0 * ints[0, 0])
    if not ratio > 1.0:  # also NaN, where mu^a underflows at every node
        return 0
    return math.ceil(min(math.log2(ratio) / (exponent + 1.0), math.log2(8.0 / rtol)))


def integrate_measure(f, measure: SpectralMeasure, *, rtol: float = 1e-9,
                      breakpoints=()):
    """Integral of f(mu) over G(d mu).

    f takes a 1D array of wave numbers and puts that axis last, or returns
    factors as integrate_vector takes them; as there, it must accept an
    empty array, returning a node axis of length 0 or factors with 0 rows.
    The atoms go in as one array, so f(mus) @ masses sums them exactly (for
    factors, the sum over atoms of mass * rows @ cols); each segment's
    f(mu) * A mu^a goes to integrate_vector, one call per segment, its
    panels split at the breakpoints. The empty measure gives zeros of f's
    shape.

    A segment on [0, hi] with non-integer a gets the breakpoints hi 2^-k,
    k = 1..K, with K from _halvings. On the panel at 0, [0, h] with
    h = hi 2^-K, the integration variable is x = h (mu/h)^(a+1), so
    A mu^a dmu = A h^a / (a+1) dx is constant there and only f varies; its
    nodes mu never go below the smallest normal double, where f takes its
    value at 0 to rounding. Breakpoints below h move with the map.
    """
    mus = np.array([mu for mu, _ in measure.atoms])
    masses = np.array([mass for _, mass in measure.atoms])
    total = 0.0
    if measure.atoms or not measure.segments:
        values = f(mus)
        if isinstance(values, tuple):
            total = np.einsum("ajk,a,akb->jb", values[0], masses, values[1])
        else:
            total = values @ masses
    for seg in measure.segments:
        a = seg.exponent
        k = _halvings(a, rtol) if _origin_singular(seg) else 0
        h = math.ldexp(seg.hi, -k) if k else 0.0  # the panel [0, h] at the origin

        def integrand(x, seg=seg, a=a, h=h):
            # mu = x above h; below it x = h (mu/h)^(a+1), where the
            # density A mu^a dmu is the constant A h^a / (a+1) dx.
            mu, density = x, seg.amplitude * np.maximum(x, h) ** a
            if h:
                inner = x < h
                mu = np.where(inner, np.maximum(
                    h * np.minimum(x / h, 1.0) ** (1.0 / (a + 1.0)), _TINY), x)
                density[inner] /= a + 1.0
            values = f(mu)
            if isinstance(values, tuple):
                return values[0] * density[:, None, None], values[1]
            return values * density
        points = [math.ldexp(seg.hi, -j) for j in range(1, k + 1)]
        points += [h * (p / h) ** (a + 1.0) if 0.0 < p < h else p for p in breakpoints]
        total = total + integrate_vector(integrand, seg.lo, seg.hi, rtol=rtol,
                                         breakpoints=points)
    return total
