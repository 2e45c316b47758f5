"""Sparse real multivariate polynomials and complex matrix polynomials.

Variables live in a fixed ring context of ``controls`` real optimization
variables x0..x{m-1}; time never appears here, since the Magnus terms are
built with their envelope integrals already in closed form.  Scalar
polynomials have real coefficients: the objective is a real polynomial in
real controls, and a complex coefficient is an error.  Matrix-valued
polynomials are stored as a map from exponent vectors to dense complex numpy
coefficient matrices, which keeps products and commutators of large
(2^N dimensional) operator families cheap.  Coefficients must be finite: a
NaN or inf is an error, never pruned.

What is copied and what is shared: the public ``PolyMatrix(...)`` constructor
copies and validates the caller's matrices, so a caller's array is never
aliased.  Every stored coefficient matrix is read-only.  Arithmetic results
(``+``, ``-``, ``@``, :meth:`PolyMatrix.scale`, and the Magnus terms) are
built without a copy: a freshly computed matrix is checked for finiteness and
pruned in place, once, and a coefficient an operation passes through unchanged
is the operand's own read-only array, shared.  Both paths prune through one
helper, so a result holds the same bytes, in the same key order, as the public
constructor would give it.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

# Coefficients smaller than this are dropped at canonicalization.  Every exact
# coefficient produced here is a small-denominator rational times a Hamiltonian
# entry, orders of magnitude above the threshold.
PRUNE_EPS = 1e-14


@dataclass(frozen=True)
class Ring:
    """Variable context: ``controls`` x-slots."""

    controls: int

    def __post_init__(self):
        if self.controls < 0:
            raise ValueError("ring arity must be non-negative")


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key for graded lexicographic monomial order."""
    return (sum(exponents), exponents)


def _check_same_ring(a, b):
    if a.ring != b.ring:
        raise ValueError(f"ring context mismatch: {a.ring} vs {b.ring}")


def _exponents(ring: Ring, exps) -> tuple[int, ...]:
    """Exponent vector as an int tuple: one non-negative entry per ring slot."""
    exps = tuple(int(e) for e in exps)
    if len(exps) != ring.controls or any(e < 0 for e in exps):
        raise ValueError(f"bad exponent vector {exps} for ring arity {ring.controls}")
    return exps


def _product(a: dict, b: dict, mul) -> dict:
    """Term map of a product: ``mul(ca, cb)`` summed at each exponent ea + eb."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(p + q for p, q in zip(ea, eb))
            block = mul(ca, cb)
            out[e] = out[e] + block if e in out else block
    return out


def _pruned(e: tuple[int, ...], m: np.ndarray) -> np.ndarray | None:
    """Coefficient matrix ``m`` of exponent ``e``, pruned in place and made
    read-only; None when every entry is below ``PRUNE_EPS``.

    Sub-threshold entries are zeroed, so every stored entry is either 0 or
    at least ``PRUNE_EPS`` in magnitude.
    """
    mag = np.abs(m)
    peak = mag.max()
    if not np.isfinite(peak):
        raise ValueError(f"non-finite coefficient of {e}")
    if peak < PRUNE_EPS:
        return None
    m[mag < PRUNE_EPS] = 0.0
    m.setflags(write=False)
    return m


def control_values(m: int, x) -> np.ndarray:
    """Control values ``x`` as a float vector of length ``m``, else ValueError."""
    x = np.asarray(x, dtype=float)
    if x.shape != (m,):
        raise ValueError(f"expected {m} control values, got shape {x.shape}")
    return x


def _lowered(e: tuple[int, ...], v: int) -> tuple[int, ...]:
    """Exponent tuple ``e`` with one power less of variable ``v``."""
    return e[:v] + (e[v] - 1,) + e[v + 1 :]


class MonomialTable:
    """The monomials a polynomial is evaluated from, each computed once.

    The rows are every monomial dividing a term, in graded lexicographic
    order: row 0 is the constant 1, every other row an earlier row (its
    parent) times its first variable, so values at n points fill a (rows, n)
    array with one gather and one multiply per degree.  ``coeffs`` holds the
    polynomial's coefficient of each row, so p = coeffs @ values; it and the
    derivative weights are read-only.
    """

    __slots__ = ("exponents", "coeffs", "_index", "_steps", "_derivatives")

    def __init__(self, poly: "Polynomial"):
        rows = {d for e in poly.terms for d in itertools.product(*(range(k + 1) for k in e))}
        self.exponents = tuple(sorted(rows, key=grlex_key))
        self._index = {e: i for i, e in enumerate(self.exponents)}
        self.coeffs = np.array([poly.terms.get(e, 0.0) for e in self.exponents])
        self.coeffs.setflags(write=False)
        self._derivatives = None
        self._steps, lo = [], 1
        for _, level in itertools.groupby(self.exponents[1:], key=sum):
            level = list(level)
            var = [next(k for k, p in enumerate(e) if p) for e in level]
            parent = [self._index[_lowered(e, v)] for e, v in zip(level, var)]
            self._steps.append((lo, lo + len(var), np.array(parent), np.array(var)))
            lo += len(var)

    def monomials(self, xt: np.ndarray) -> np.ndarray:
        """Every row's value at the n columns of an (m, n) array of points."""
        t = np.empty((len(self.coeffs), xt.shape[1]))
        t[:1] = 1.0
        for lo, hi, parent, var in self._steps:
            np.multiply(t[parent], xt[var], out=t[lo:hi])
        return t

    def jet(self, x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        """Value (the bits ``eval`` gives), gradient and Hessian at one point.

        Exact: d x^e / dx_k = e_k x^(e - u_k), and e - u_k is a row, so row e
        with coefficient c weighs c e_k on row e - u_k of gradient entry k and
        c (e_k (e_l - [k = l])) on row e - u_k - u_l of Hessian entry (k, l).
        The weights are built on first use.  The product may round (k, l)
        and (l, k) apart, so the Hessian is their mean.
        """
        m = len(x)
        if self._derivatives is None:
            w = np.zeros((m + m * m, len(self.coeffs)))
            for e, c in zip(self.exponents, self.coeffs):
                for k in (k for k in range(m) if c and e[k]):
                    f = _lowered(e, k)
                    w[k, self._index[f]] = c * e[k]
                    for l in (l for l in range(m) if f[l]):
                        w[m + k * m + l, self._index[_lowered(f, l)]] = c * (e[k] * f[l])
            w.setflags(write=False)
            self._derivatives = w
        t = self.monomials(x[:, None])
        d = self._derivatives @ t[:, 0]
        h = d[m:].reshape(m, m)
        return float((self.coeffs @ t)[0]), d[:m], 0.5 * (h + h.T)


# Points are evaluated in chunks whose monomial values take this many doubles
# (512 KiB), so that the working set stays in cache.
_CHUNK_DOUBLES = 1 << 16


class Polynomial:
    """Immutable sparse polynomial with real coefficients.

    ``terms`` maps exponent tuples (one entry per ring slot) to nonzero
    float coefficients.  Construction canonicalizes: anything below
    ``PRUNE_EPS`` in magnitude is dropped, and a complex or non-finite
    coefficient is an error.  Every evaluation, derivatives included, goes
    through one :class:`MonomialTable`, built on first use.
    """

    __slots__ = ("ring", "terms", "_table")

    def __init__(self, ring: Ring, terms: dict | None = None):
        self.ring = ring
        self.terms = {}
        self._table = None
        for exps, coeff in (terms or {}).items():
            exps = _exponents(ring, exps)
            # a float passes before the ABC check, which is far slower
            if not (type(coeff) is float or isinstance(coeff, numbers.Real)):
                raise ValueError(f"coefficient {coeff!r} of {exps} is not real")
            c = float(coeff)
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} of {exps}")
            if abs(c) >= PRUNE_EPS:
                self.terms[exps] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring)

    @classmethod
    def constant(cls, ring: Ring, value: float) -> "Polynomial":
        return cls(ring, {(0,) * ring.controls: value})

    @classmethod
    def variable(cls, ring: Ring, slot: int, coeff: float = 1.0) -> "Polynomial":
        if not 0 <= slot < ring.controls:
            raise ValueError(f"slot {slot} outside ring arity {ring.controls}")
        e = [0] * ring.controls
        e[slot] = 1
        return cls(ring, {tuple(e): coeff})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=0)

    def constant_term(self) -> float:
        return self.terms.get((0,) * self.ring.controls, 0.0)

    def real_coeff_dict(self) -> dict[tuple[int, ...], float]:
        """A copy of ``terms``.  Kept for the benchmark workloads, which read
        the coefficients through it."""
        return dict(self.terms)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, numbers.Real):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same_ring(self, other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0.0) + c
        return Polynomial(self.ring, merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, (Polynomial, numbers.Real)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same_ring(self, other)
        return Polynomial(self.ring, _product(self.terms, other.terms, operator.mul))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def isclose(self, other: "Polynomial", tol: float = 1e-12) -> bool:
        _check_same_ring(self, other)
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) <= tol for k in keys
        )

    def diff(self, slot: int) -> "Polynomial":
        """Formal partial derivative with respect to one slot."""
        if not 0 <= slot < self.ring.controls:
            raise ValueError(f"slot {slot} outside ring arity {self.ring.controls}")
        return Polynomial(
            self.ring, {_lowered(e, slot): c * e[slot] for e, c in self.terms.items() if e[slot]}
        )

    # -- evaluation --------------------------------------------------------

    def monomial_table(self) -> MonomialTable:
        """The table every evaluation reads, built once per instance."""
        if self._table is None:
            self._table = MonomialTable(self)
        return self._table

    def eval(self, x) -> float:
        """Value at control values ``x``: ``eval_many`` on one point."""
        return float(self.eval_many(control_values(self.ring.controls, x)[None])[0])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at an (n, controls) array of real points, from the monomial
        table in chunks of at most ``_CHUNK_DOUBLES`` monomial values."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ring.controls:
            raise ValueError("points must have shape (n, controls)")
        table = self.monomial_table()
        out = np.empty(len(points))
        chunk = max(1, _CHUNK_DOUBLES // max(1, len(table.coeffs)))
        for lo in range(0, len(points), chunk):
            xt = np.ascontiguousarray(points[lo : lo + chunk].T)
            out[lo : lo + chunk] = table.coeffs @ table.monomials(xt)
        return out

    def jet(self, x) -> tuple[float, np.ndarray, np.ndarray]:
        """Value (as ``eval`` gives it), exact gradient and exact Hessian at ``x``."""
        return self.monomial_table().jet(control_values(self.ring.controls, x))

    def __repr__(self):
        return " + ".join(
            f"({c:g})" + "".join(f"*x{i}^{p}" if p > 1 else f"*x{i}" for i, p in enumerate(e) if p)
            for e, c in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))
        ) or "0"


class PolyMatrix:
    """Square matrix of polynomials, stored as exponent -> coefficient matrix.

    All entries share one ring context.  Coefficient matrices are complex
    (the generators are anti-Hermitian), and products are dense numpy matrix
    products.
    """

    __slots__ = ("ring", "dim", "coeffs", "_sorted")

    def __init__(self, ring: Ring, dim: int, coeffs: dict | None = None):
        if dim <= 0:
            raise ValueError("dimension must be positive")
        cleaned: dict[tuple[int, ...], np.ndarray] = {}
        for exps, mat in (coeffs or {}).items():
            exps = _exponents(ring, exps)
            mat = np.array(mat, dtype=complex, order="C")
            if mat.shape != (dim, dim):
                raise ValueError(f"coefficient shape {mat.shape} != ({dim},{dim})")
            cleaned[exps] = mat
        self._set(ring, dim, cleaned)

    @classmethod
    def _adopt(cls, ring: Ring, dim: int, coeffs: dict) -> "PolyMatrix":
        """Arithmetic result over ``coeffs``, taken without a copy.

        Each writable matrix must be freshly computed and owned by no one
        else: it is checked and pruned in place.  Each read-only one must be
        a coefficient of an existing PolyMatrix, and is shared as it is.
        """
        out = object.__new__(cls)
        out._set(ring, dim, coeffs)
        return out

    def _set(self, ring: Ring, dim: int, coeffs: dict):
        """Store ``coeffs``: prune each writable matrix in place, keep each
        read-only one as it is, and drop the matrices pruned to nothing."""
        self.ring = ring
        self.dim = dim
        self._sorted = None
        self.coeffs = {}
        for e, m in coeffs.items():
            if m.flags.writeable:
                m = _pruned(e, np.ascontiguousarray(m))
            if m is not None:
                self.coeffs[e] = m

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring, dim: int) -> "PolyMatrix":
        return cls(ring, dim)

    @classmethod
    def constant(cls, ring: Ring, mat: np.ndarray) -> "PolyMatrix":
        mat = np.asarray(mat, dtype=complex)
        return cls(ring, mat.shape[0], {(0,) * ring.controls: mat})

    @classmethod
    def identity(cls, ring: Ring, dim: int) -> "PolyMatrix":
        return cls.constant(ring, np.eye(dim))

    # -- access ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def max_entry_degree(self) -> int:
        return max((sum(e) for e in self.coeffs), default=0)

    def sorted_coeffs(self) -> tuple:
        """Coefficients in graded lexicographic order, sorted once per instance."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.coeffs.items(), key=lambda kv: grlex_key(kv[0])))
        return self._sorted

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other):
        _check_same_ring(self, other)
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _plus(self, terms) -> "PolyMatrix":
        """self plus the (exponent, read-only matrix) pairs ``terms``."""
        merged = dict(self.coeffs)
        for e, m in terms:
            merged[e] = merged[e] + m if e in merged else m
        return PolyMatrix._adopt(self.ring, self.dim, merged)

    def __add__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_compat(other)
        return self._plus(other.coeffs.items())

    def __neg__(self):
        return PolyMatrix._adopt(self.ring, self.dim, {e: -m for e, m in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_compat(other)
        # the sums of self + (-other), negating one coefficient at a time
        return self._plus((e, _pruned(e, -m)) for e, m in other.coeffs.items())

    def __matmul__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        self._check_compat(other)
        return PolyMatrix._adopt(
            self.ring, self.dim, _product(self.coeffs, other.coeffs, operator.matmul)
        )

    def scale(self, factor) -> "PolyMatrix":
        """Multiply by a scalar."""
        return PolyMatrix._adopt(
            self.ring, self.dim, {e: factor * m for e, m in self.coeffs.items()}
        )

    def eval(self, x) -> np.ndarray:
        vals = control_values(self.ring.controls, x)
        acc = np.zeros((self.dim, self.dim), dtype=complex)
        for e, m in self.sorted_coeffs():
            acc += math.prod(v**p for v, p in zip(vals, e) if p) * m
        return acc

    def __repr__(self):
        return f"PolyMatrix(dim={self.dim}, ring={self.ring}, terms={len(self.coeffs)})"


def pm_commutator(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Matrix commutator a@b - b@a."""
    return a @ b - b @ a


def pm_eval(a: PolyMatrix, x) -> np.ndarray:
    return a.eval(x)


def frobenius_sq(a: PolyMatrix) -> Polynomial:
    """Squared Frobenius norm of a PolyMatrix as a real polynomial in x.

    For real control values, ||A(x)||_F^2 = sum over coefficient pairs of
    x^(a+b) * <A_b, A_a>_F.  Pairing (a, b) with (b, a) gives
    2 Re<A_b, A_a>_F, so only real parts are ever summed.
    """
    items = a.sorted_coeffs()
    out: dict[tuple[int, ...], float] = {}
    for ia, (ea, ma) in enumerate(items):
        # diagonal pair: exactly real
        key = tuple(2 * v for v in ea)
        out[key] = out.get(key, 0.0) + float(np.vdot(ma, ma).real)
        for eb, mb in items[ia + 1 :]:
            ip = np.vdot(mb, ma)  # conj(B) . A
            key = tuple(p + q for p, q in zip(ea, eb))
            out[key] = out.get(key, 0.0) + 2.0 * float(ip.real)
    return Polynomial(a.ring, out)
