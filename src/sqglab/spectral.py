"""Fourier representation of mean-zero scalar fields on the flat 2-torus.

Everything lives on [0, 2pi)^2 with an even number N of points per axis.
Fields are stored as full N x N complex coefficient arrays in numpy FFT
layout, normalized so that

    f(x) = sum_k  c_k  exp(i k . x),          k in Z^2, |k_i| < N/2.

Real fields satisfy c(-k) = conj(c(k)) and exact fields additionally have
c(0,0) = 0 (mean-zero stream functions; the constant/harmonic part is
excluded by construction).

Sign convention fixed once for the whole package:

    perp-gradient   grad_perp(psi) = (-d_y psi, d_x psi)
    Poisson bracket {f, g} = grad_perp(g) . grad(f) = -f_x g_y + f_y g_x
"""

from __future__ import annotations

import functools
import math
import struct
import threading
from dataclasses import dataclass, field

import numpy as np


class GridMismatchError(ValueError):
    """Two fields from different grids were combined."""


class MeanNonzeroError(ValueError):
    """Negative fractional Laplacian power applied to a non-mean-zero field."""


TWO_PI = 2.0 * np.pi


class SpectralGrid:
    """Uniform N x N grid on [0, 2pi)^2 with cached wavenumber arrays.

    The dealias cutoff follows the 2/3 rule: modes with max(|kx|, |ky|)
    above floor(N/3) are zeroed when forming quadratic products.
    """

    def __init__(self, n: int):
        if n < 16 or n % 2:
            raise ValueError(f"resolution must be an even integer >= 16, got {n}")
        self.n = n
        k = np.fft.fftfreq(n, d=1.0 / n)  # integer wavenumbers
        self.kx = k[:, None]
        self.ky = k[None, :]
        self.k2 = self.kx**2 + self.ky**2
        self.cutoff = n // 3
        mask = (np.abs(self.kx) <= self.cutoff) & (np.abs(self.ky) <= self.cutoff)
        self.dealias_mask = mask
        # derivative multipliers with the Nyquist line removed (odd mode
        # has no well-defined derivative sign on an even grid)
        nyq = n // 2
        dkx = k.copy()
        dkx[nyq] = 0.0
        self.ikx = 1j * dkx[:, None] * np.ones((1, n))
        self.iky = 1j * np.ones((n, 1)) * dkx[None, :]
        # the masked gradient packed as one spectrum: f_x + i f_y
        self.packed_gradient = (self.ikx + 1j * self.iky) * mask
        # the bracket's dealiasing mask and its N^2 rescaling as one multiplier
        self.dealias_scale = mask * n**2
        x = TWO_PI * np.arange(n) / n
        self.x = x[:, None] * np.ones((1, n))
        self.y = np.ones((n, 1)) * x[None, :]
        self._k_power: dict[float, np.ndarray] = {}

    def k_power(self, alpha: float) -> np.ndarray:
        """The multiplier |k|^(2 alpha) of (-Lap)^alpha, zero at k = 0 (cached, read-only)."""
        w = self._k_power.get(alpha)
        if w is None:
            w = np.zeros_like(self.k2)
            nz = self.k2 > 0
            w[nz] = self.k2[nz] ** alpha
            w.flags.writeable = False
            self._k_power[alpha] = w
        return w

    def __eq__(self, other):
        return isinstance(other, SpectralGrid) and other.n == self.n

    def __hash__(self):
        return hash(("SpectralGrid", self.n))

    def __repr__(self):
        return f"SpectralGrid(n={self.n})"


@functools.cache
def grid(n: int) -> SpectralGrid:
    """Shared grid instance for resolution ``n``."""
    return SpectralGrid(n)


def _check_same_grid(a, b):
    if a.grid.n != b.grid.n:
        raise GridMismatchError(f"grid mismatch: {a.grid} vs {b.grid}")


@dataclass(frozen=True)
class ScalarField:
    """Mean-zero real scalar field in spectral representation."""

    grid: SpectralGrid
    coeff: np.ndarray = field(repr=False)

    @classmethod
    def from_values(cls, g: SpectralGrid, values: np.ndarray, zero_mean: bool = True):
        c = np.fft.fft2(np.asarray(values, dtype=float)) / g.n**2
        if zero_mean:
            c[0, 0] = 0.0
        return cls(g, c)

    @classmethod
    def from_function(cls, g: SpectralGrid, fn):
        return cls.from_values(g, fn(g.x, g.y))

    @classmethod
    def zero(cls, g: SpectralGrid):
        return cls(g, np.zeros((g.n, g.n), dtype=complex))

    def values(self) -> np.ndarray:
        """Physical-space samples at the grid points."""
        return np.fft.ifft2(self.coeff).real * self.grid.n**2

    def mean(self) -> float:
        return float(self.coeff[0, 0].real)

    def norm_l2(self) -> float:
        """L2(mu) norm, mu the flat area measure of total mass (2 pi)^2."""
        return float(np.sqrt(np.sum(np.abs(self.coeff) ** 2).real) * TWO_PI)

    def dealiased(self) -> "ScalarField":
        return ScalarField(self.grid, self.coeff * self.grid.dealias_mask)

    def __add__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.coeff + other.coeff)

    def __sub__(self, other):
        _check_same_grid(self, other)
        return ScalarField(self.grid, self.coeff - other.coeff)

    def __mul__(self, a: float):
        return ScalarField(self.grid, self.coeff * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return ScalarField(self.grid, -self.coeff)


@dataclass(frozen=True)
class VectorFieldExact:
    """Divergence-free field u = grad_perp(psi) represented by its stream."""

    stream: ScalarField

    @property
    def grid(self) -> SpectralGrid:
        return self.stream.grid

    def component_fields(self) -> tuple[ScalarField, ScalarField]:
        g = self.grid
        c = self.stream.coeff
        ux = ScalarField(g, -g.iky * c)
        uy = ScalarField(g, g.ikx * c)
        return ux, uy

    def packed(self) -> np.ndarray:
        """The packed velocity spectrum ux + i uy."""
        ux, uy = self.component_fields()
        return ux.coeff + 1j * uy.coeff

    def max_speed(self) -> float:
        return _packed_max_speed(self.packed())


def _packed_max_speed(packed: np.ndarray) -> float:
    """max |u| on the grid from the packed velocity spectrum ux + i uy: one inverse FFT."""
    return float(np.max(np.abs(np.fft.ifft2(packed)))) * packed.shape[-1]**2


def frac_laplacian(f: ScalarField, alpha: float) -> ScalarField:
    """(-Laplace)^alpha as the Fourier multiplier |k|^(2 alpha).

    The zero mode is annihilated; negative powers require mean-zero input.
    """
    g = f.grid
    if alpha < 0 and abs(f.coeff[0, 0]) > 1e-12:
        raise MeanNonzeroError(
            f"(-Delta)^{alpha} needs a mean-zero field, mean = {f.coeff[0, 0]:.3e}"
        )
    c = f.coeff * g.k_power(alpha)
    c[0, 0] = 0.0
    return ScalarField(g, c)


def gradient_perp(f: ScalarField) -> VectorFieldExact:
    """u = grad_perp(psi) = (-d_y psi, d_x psi)."""
    return VectorFieldExact(ScalarField(f.grid, f.coeff.copy()))


def multiply_dealiased(f: ScalarField, g_: ScalarField) -> ScalarField:
    """Pointwise product with 2/3-rule dealiasing (mean retained)."""
    _check_same_grid(f, g_)
    g = f.grid
    a = ScalarField(g, f.coeff * g.dealias_mask).values()
    b = ScalarField(g, g_.coeff * g.dealias_mask).values()
    c = np.fft.fft2(a * b) / g.n**2
    return ScalarField(g, c * g.dealias_mask)


def poisson_bracket(f: ScalarField, g_: ScalarField) -> ScalarField:
    """{f, g} = grad_perp(g) . grad(f), dealiased, mean forced to zero.

    Each operand's masked gradient is packed into one complex spectrum,
    f_x + i f_y, so one batched inverse FFT of two fields gives
    a = f_x + i f_y and b = g_x + i g_y on the grid, and
    {f, g} = f_y g_x - f_x g_y = Im(a conj(b)) takes one forward FFT.
    """
    _check_same_grid(f, g_)
    g = f.grid
    a, b = np.fft.ifft2(np.stack([f.coeff, g_.coeff]) * g.packed_gradient, axes=(-2, -1))
    c = np.fft.fft2((a * b.conj()).imag) * g.dealias_scale
    c[0, 0] = 0.0
    return ScalarField(g, c)


# ---------------------------------------------------------------------------
# interpolation

def _phase_powers(kmax: int, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp(i k x) for k = 0..kmax, shape (kmax + 1,) + x.shape, from one exponential.

    Row 1 is exp(i x) and each higher row the product of the row below it
    with row 1, so row k carries about k roundings of a unit complex
    product.  That is finer than exponentiating k x, which rounds k x first,
    an error that grows with |k x|: 2e-15 against 1.4e-14 up to k = 21 on
    the inverse-map points of an N = 64 record.  The phases are periodic in
    x for every k, so x need not be wrapped into [0, 2 pi).  kmax is at
    least 1; the table is built in ``out`` when given, else in a new array.
    """
    if out is None:
        out = np.empty((kmax + 1,) + x.shape, dtype=complex)
    out[0] = 1.0
    np.exp(np.multiply(x, 1j, out=out[1]), out=out[1])
    for k in range(2, kmax + 1):
        np.multiply(out[k - 1], out[1], out=out[k])
    return out


# points per pass of the direct Fourier sum
FOURIER_CHUNK = 256


def _fourier_eval(coeff: np.ndarray, g: SpectralGrid, x: np.ndarray,
                  y: np.ndarray) -> np.ndarray:
    """Direct Fourier evaluation of stacked coefficient arrays at points.

    coeff has shape (..., N, N); returns real values of shape (..., P).
    Only the rows and columns of the spectrum that hold a non-zero
    coefficient in some array are summed, so a field in the 2/3 band costs
    (2/3)^2 of a full-spectrum one.  The sum runs over chunks of
    ``FOURIER_CHUNK`` points.  For each chunk and axis one power table
    exp(i |k| x), |k| = 0..max |k| (``_phase_powers``), gives the phases
    exp(i k x) of the summed rows or columns, gathered by |k| and conjugated
    where k < 0.  That table, the two phase tables and the product of every
    array with the second live in buffers allocated once per call and
    reused by every chunk (about 0.6 MB for one field in the band at N = 64
    and 1.2 MB at N = 128, the product's share times the number of arrays),
    however many points are asked for.  The points need not be wrapped.
    """
    n = g.n
    k = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    c = coeff.reshape(-1, n, n)
    nz = c != 0
    rows = np.flatnonzero(nz.any(axis=(0, 2)))
    cols = np.flatnonzero(nz.any(axis=(0, 1)))
    c = c[:, rows[:, None], cols]          # (m, R, S)
    m = c.shape[0]
    # per axis: the |k| of each summed row or column and the count of k >= 0,
    # which come first in FFT order
    axes = [(np.abs(k[i]), np.count_nonzero(k[i] >= 0)) for i in (rows, cols)]
    kmax = max(int(mag.max(initial=1)) for mag, _ in axes)
    # every pass sums a full chunk, the last one zero-padded: BLAS computes
    # the last columns of a ragged product with other kernels, so a point's
    # value would otherwise depend on where the chunks fall
    count = x.size
    pad = -count % FOURIER_CHUNK
    if pad:
        x, y = np.pad(x, (0, pad)), np.pad(y, (0, pad))
    ex, ey, prod, table = (np.empty((r, FOURIER_CHUNK), dtype=complex)
                           for r in (rows.size, cols.size, m * rows.size, kmax + 1))
    out = np.empty((m, x.size))
    for p0 in range(0, x.size, FOURIER_CHUNK):
        pts = slice(p0, p0 + FOURIER_CHUNK)
        for (mag, npos), p, e in zip(axes, (x[pts], y[pts]), (ex, ey)):
            np.take(_phase_powers(kmax, p, table), mag, axis=0, out=e)  # (R or S, chunk)
            np.conjugate(e[npos:], out=e[npos:])
        np.matmul(c.reshape(m * rows.size, cols.size), ey, out=prod)  # (m*R, chunk)
        out[:, pts] = np.einsum("kp,bkp->bp", ex, prod.reshape(m, rows.size, FOURIER_CHUNK)).real
    return out[:, :count].reshape(coeff.shape[:-2] + (count,))


# refinement factor of the grid that carries the quintic spline
SPLINE_UPSAMPLE = 4


@functools.cache
def _quintic_prefilter(n: int, m: int) -> np.ndarray:
    """1 / B(w) at the N modes of an N-point spectrum within the m-point one.

    The modes are the first and last N/2 of the m-point spectrum in FFT
    order, and the read-only result follows that order, with B(w) = (66 +
    52 cos w + 2 cos 2w) / 120, w = 2 pi k / m.  B is the symbol of the
    quintic B-spline sampled on an m-point periodic grid, so dividing by it
    is the periodic spline prefilter (Unser, "Splines: a perfect fit",
    IEEE SPM 1999).
    """
    half = n // 2
    w = TWO_PI * np.fft.fftfreq(m)[np.r_[0:half, m - half:m]]
    inv = 120.0 / (66.0 + 52.0 * np.cos(w) + 2.0 * np.cos(2.0 * w))
    inv.flags.writeable = False
    return inv


def _spline_coefficients(coeff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic quintic B-spline coefficients of a field on a finer grid.

    The N x N spectrum is zero-padded to m = SPLINE_UPSAMPLE * N and divided
    by the separable B-spline symbol, so the spline through the refined
    samples is evaluated by ``_spline_eval``.  Only N of the m rows carry
    modes, the first and last N/2: the inverse transform runs along axis 1
    on those rows of the complex (m, m) grid, then along axis 0 on all of
    it.  The grid is built in ``out`` when given, else in a new array;
    ``out`` is overwritten whatever it held, so one grid serves every stage
    of a run.  A packed field a + i b gives the coefficients of a in the real
    and of b in the imaginary part.
    """
    n = coeff.shape[-1]
    m = SPLINE_UPSAMPLE * n
    if out is None:
        out = np.empty((m, m), dtype=complex)
    half = n // 2
    inv = _quintic_prefilter(n, m)
    for part, modes, row_inv in ((out[:half], coeff[:half], inv[:half, None]),
                                 (out[m - half:], coeff[half:], inv[half:, None])):
        np.multiply(modes[:, :half], inv[:half], out=part[:, :half])
        part[:, half:m - half] = 0.0
        np.multiply(modes[:, half:], inv[half:], out=part[:, m - half:])
        np.fft.ifft(part, axis=1, norm="forward", out=part)
        part *= row_inv
    out[half:m - half] = 0.0
    return np.fft.ifft(out, axis=0, norm="forward", out=out)


# points per pass of the spline sampler; its workspace, about 1.5 kB per
# point, is allocated once per thread and reused by each of its calls
SPLINE_CHUNK = 512

# row j: the quintic B-spline weight of tap floor(u) - 2 + j as the
# coefficients of 1, t, ..., t^5, t = u - floor(u) in [0, 1)
_QUINTIC_TAPS = np.array([[1, -5, 10, -10, 5, -1],
                          [26, -50, 20, 20, -20, 5],
                          [66, 0, -60, 0, 30, -10],
                          [26, 50, 20, -20, -20, 10],
                          [1, 5, 10, 10, 5, -5],
                          [0, 0, 0, 0, 0, 1]]) / 120.0

@functools.cache
def _wrapped_taps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat row and column offsets, (6, m + 1), of the taps of each floor(u) in 0..m, read-only.

    floor(u) = m occurs when mod(x, 2 pi) rounds up to 2 pi; it wraps to 0.
    """
    col = np.mod(np.arange(-2, 4)[:, None] + np.arange(m + 1), m)
    row = col * m
    row.flags.writeable = col.flags.writeable = False
    return row, col


class _SplineWork(threading.local):
    """Reused buffers of the spline sampler for ``SPLINE_CHUNK`` points, one set per thread.

    Each buffer is flat; a call on s points works on the contiguous first
    part of it.  Each coordinate and weight is stored twice, once for the
    real and once for the imaginary part of a complex grid value, so the
    contraction runs on the float view of the gathered values.
    """

    def __init__(self):  # run again by each other thread on its first read
        self.u = np.empty(4 * SPLINE_CHUNK)
        self.powers = np.empty(24 * SPLINE_CHUNK)
        self.weights = np.empty(24 * SPLINE_CHUNK)
        self.base = np.empty(2 * SPLINE_CHUNK, dtype=np.intp)
        self.rows = np.empty(6 * SPLINE_CHUNK, dtype=np.intp)
        self.cols = np.empty(6 * SPLINE_CHUNK, dtype=np.intp)
        self.index = np.empty(36 * SPLINE_CHUNK, dtype=np.intp)
        self.values = np.empty(36 * SPLINE_CHUNK, dtype=complex)
        self.partial = np.empty(12 * SPLINE_CHUNK)

    @staticmethod
    def _part(buf: np.ndarray, *shape) -> np.ndarray:
        return buf[:math.prod(shape)].reshape(shape)

    def taps(self, x: np.ndarray, y: np.ndarray, m: int):
        """Weights (6, 2, 2 s) and flat grid indices (6, 6, s) of the s points."""
        s = x.size
        u = self._part(self.u, 2, s, 2)
        # the second copy of each coordinate holds floor(u) until t is known
        t, t_again = u[:, :, 0], u[:, :, 1]
        # mod(x, 2 pi) is x itself on [0, 2 pi), so only the points outside move
        for c, v in zip(t, (x, y)):
            np.copyto(c, v)
            np.mod(v, TWO_PI, out=c, where=(v < 0.0) | (v >= TWO_PI))
        t /= TWO_PI
        t *= m
        np.floor(t, out=t_again)
        base = self._part(self.base, 2, s)
        base[...] = t_again
        t -= t_again
        t_again[...] = t
        pw = self._part(self.powers, 6, 2, s, 2)
        pw[0] = 1.0
        pw[1] = u
        np.multiply(u, u, out=pw[2])
        np.multiply(pw[2], u, out=pw[3])
        np.multiply(pw[2], pw[2], out=pw[4])
        np.multiply(pw[4], u, out=pw[5])
        w = self._part(self.weights, 6, 4 * s)
        np.matmul(_QUINTIC_TAPS, pw.reshape(6, 4 * s), out=w)
        # mode="clip" writes straight into ``out``; the indices are in range
        row_taps, col_taps = _wrapped_taps(m)
        rows, cols = self._part(self.rows, 6, s), self._part(self.cols, 6, s)
        np.take(row_taps, base[0], axis=1, out=rows, mode="clip")
        np.take(col_taps, base[1], axis=1, out=cols, mode="clip")
        index = self._part(self.index, 6, 6, s)
        np.add(rows[:, None], cols[None], out=index)
        return w.reshape(6, 2, 2 * s), index

    def contract(self, grid_: np.ndarray, weights: np.ndarray, index: np.ndarray,
                 out: np.ndarray):
        """out = sum over the 6 x 6 taps of weight times grid value (complex)."""
        s = index.shape[-1]
        vals = self._part(self.values, 6, 6, s)
        np.take(grid_.ravel(), index, out=vals, mode="clip")
        partial = self._part(self.partial, 6, 2 * s)
        np.einsum("abp,bp->ap", vals.view(float), weights[:, 1], out=partial)
        np.einsum("ap,ap->p", partial, weights[:, 0], out=out.view(float))


_SPLINE_WORK = _SplineWork()


def _spline_eval(grids, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
    """Sample complex spline coefficient grids (from ``_spline_coefficients``) at points.

    Returns one complex array per grid.  The six taps per axis are
    floor(u) - 2 .. floor(u) + 3, u = mod(x, 2 pi) m / 2 pi on the m-point
    grid, wrapped periodically; their weights and indices are computed
    once per chunk of ``SPLINE_CHUNK`` points and shared by every grid.
    """
    x, y = np.ravel(x), np.ravel(y)
    m = grids[0].shape[0]
    out = [np.empty(x.size, dtype=complex) for _ in grids]
    for p0 in range(0, x.size, SPLINE_CHUNK):
        chunk = slice(p0, p0 + SPLINE_CHUNK)
        weights, index = _SPLINE_WORK.taps(x[chunk], y[chunk], m)
        for c, o in zip(grids, out):
            _SPLINE_WORK.contract(c, weights, index, o[chunk])
    return out


def interpolate(f: ScalarField, points: np.ndarray) -> np.ndarray:
    """Evaluate a field at arbitrary points of the plane (the field is periodic).

    The Fourier series is summed directly, so the values are exact; its
    integer-k phases come from exp(i x) by powers, so the points are not
    wrapped first.  The particle stage samples the velocity through the
    quintic spline of ``_spline_coefficients`` / ``_spline_eval`` instead.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    return _fourier_eval(f.coeff, f.grid, pts[:, 0], pts[:, 1])


# ---------------------------------------------------------------------------
# metric

def check_beta(beta: float):
    if not 0.0 <= beta <= 1.0:
        raise ValueError(f"beta must lie in [0, 1], got {beta}")


def inner_product_beta(psi_u: ScalarField, psi_v: ScalarField, beta: float) -> float:
    """Metric pairing of the exact fields with the given stream functions.

    Equals (2 pi)^2 sum_k |k|^(2-beta) conj(c_u) c_v, i.e. the quadratic
    form of (-Laplace)^(1-beta/2) on stream functions.
    """
    check_beta(beta)
    _check_same_grid(psi_u, psi_v)
    w = psi_u.grid.k_power(1.0 - beta / 2.0)
    s = np.sum(w * np.conj(psi_u.coeff) * psi_v.coeff)
    return float(s.real * TWO_PI**2)


def norm_beta(psi: ScalarField, beta: float) -> float:
    return float(np.sqrt(max(inner_product_beta(psi, psi, beta), 0.0)))


def stream_sobolev_sq(psi: ScalarField, alpha: float) -> float:
    """Squared homogeneous Sobolev norm of the stream itself, order alpha."""
    w = psi.grid.k_power(alpha)
    return float(np.sum(w * np.abs(psi.coeff) ** 2).real * TWO_PI**2)


# ---------------------------------------------------------------------------
# checkpoints

MAGIC_FIELD = b"GSQG"
MAGIC_FLOW = b"GSQGF"


def save_field(path, f: ScalarField):
    """Bit-exact checkpoint of one field (``write_checkpoint``, magic "GSQG")."""
    write_checkpoint(path, MAGIC_FIELD, [f.coeff])


def write_checkpoint(path, magic: bytes, channels):
    """Write N x N complex channels, bit-exact, in the layout ``read_checkpoint`` parses."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(struct.pack("<II", 1, channels[0].shape[-1]))
        for c in channels:
            fh.write(np.ascontiguousarray(c, dtype="<c16").tobytes())


def read_checkpoint(path, magic: bytes, channels: int) -> list[np.ndarray]:
    """The N x N complex coefficient channels of a checkpoint file.

    The layout is magic, version u32 = 1, N u32, then ``channels`` arrays of
    N*N c128 row-major; a file of any other length is rejected.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    found = MAGIC_FLOW if data.startswith(MAGIC_FLOW) else data[:len(magic)]  # GSQG begins GSQGF
    if found != magic:
        raise ValueError(f"bad magic {found!r}, expected {magic!r}")
    header = len(magic) + 8
    if len(data) < header:
        raise ValueError(f"checkpoint {path} has {len(data)} bytes, "
                         f"shorter than its {header}-byte header")
    version, n = struct.unpack_from("<II", data, len(magic))
    if version != 1:
        raise ValueError(f"unsupported version {version}")
    size = 16 * n * n
    if len(data) != header + channels * size:
        raise ValueError(f"checkpoint {path} for N = {n} should have "
                         f"{header + channels * size} bytes, found {len(data)}")
    return [np.frombuffer(data, dtype="<c16", count=n * n, offset=header + i * size)
            .reshape(n, n).astype(complex) for i in range(channels)]


def load_field(path) -> ScalarField:
    (c,) = read_checkpoint(path, MAGIC_FIELD, 1)
    return ScalarField(grid(c.shape[0]), c)
