"""Sparse complex multivariate polynomials and matrices with polynomial entries.

Variables live in a fixed ring context of ``controls`` real optimization
variables x0..x{m-1}; time never appears here, since the Magnus terms are
built with their envelope integrals already in closed form.  Matrix-valued
polynomials are stored as a map from exponent vectors to dense numpy
coefficient matrices, which keeps products and commutators of large
(2^N dimensional) operator families cheap; scalar entries are recovered on
demand.  Coefficients must be finite: a NaN or inf is an error, never pruned.

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

import cmath
import operator
from dataclasses import dataclass

import numpy as np

# Coefficients smaller than this are dropped at canonicalization.  Every exact
# coefficient produced here is a small-denominator rational times a Hamiltonian
# entry, orders of magnitude above the threshold.
PRUNE_EPS = 1e-14
# Largest imaginary residue a coefficient may carry when read as real.
IMAG_TOL = 1e-13


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

    Sub-threshold entries are zeroed so that entry() round-trips cleanly.
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


class Polynomial:
    """Immutable sparse polynomial with complex coefficients.

    ``terms`` maps exponent tuples (one entry per ring slot) to nonzero
    complex coefficients.  Construction canonicalizes: anything below
    ``PRUNE_EPS`` in magnitude is dropped, and a non-finite coefficient is
    an error.
    """

    __slots__ = ("ring", "terms", "_sorted")

    def __init__(self, ring: Ring, terms: dict | None = None):
        self.ring = ring
        self.terms = {}
        self._sorted = None
        for exps, coeff in (terms or {}).items():
            exps = _exponents(ring, exps)
            c = complex(coeff)
            if not cmath.isfinite(c):
                raise ValueError(f"non-finite coefficient {c} of {exps}")
            if abs(c) >= PRUNE_EPS:
                self.terms[exps] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: Ring) -> "Polynomial":
        return cls(ring)

    @classmethod
    def constant(cls, ring: Ring, value: complex) -> "Polynomial":
        return cls(ring, {(0,) * ring.controls: value})

    @classmethod
    def variable(cls, ring: Ring, slot: int, coeff: complex = 1.0) -> "Polynomial":
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

    def constant_term(self) -> complex:
        return self.terms.get((0,) * self.ring.controls, 0j)

    def sorted_terms(self) -> tuple:
        """Terms in graded lexicographic order (deterministic iteration).

        Sorted once per instance: a polynomial never changes after
        construction.
        """
        if self._sorted is None:
            self._sorted = tuple(sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])))
        return self._sorted

    def real_coeff_dict(self) -> dict[tuple[int, ...], float]:
        """Term map with coefficients coerced to real; error on large residues."""
        out = {}
        for e, c in self.terms.items():
            if abs(c.imag) > IMAG_TOL:
                raise ValueError(
                    f"coefficient {c} of {e} has imaginary residue above {IMAG_TOL}"
                )
            out[e] = c.real
        return out

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        _check_same_ring(self, other)
        merged = dict(self.terms)
        for e, c in other.terms.items():
            merged[e] = merged.get(e, 0j) + c
        return Polynomial(self.ring, merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, float, complex)):
            other = Polynomial.constant(self.ring, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
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

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def isclose(self, other: "Polynomial", tol: float = 1e-12) -> bool:
        _check_same_ring(self, other)
        keys = set(self.terms) | set(other.terms)
        return all(
            abs(self.terms.get(k, 0j) - other.terms.get(k, 0j)) <= tol for k in keys
        )

    def diff(self, slot: int) -> "Polynomial":
        """Formal partial derivative with respect to one slot."""
        if not 0 <= slot < self.ring.controls:
            raise ValueError(f"slot {slot} outside ring arity {self.ring.controls}")
        out = {}
        for e, c in self.terms.items():
            if e[slot] == 0:
                continue
            d = list(e)
            d[slot] -= 1
            out[tuple(d)] = c * e[slot]
        return Polynomial(self.ring, out)

    # -- evaluation --------------------------------------------------------

    def eval(self, x) -> complex:
        """Evaluate at control values ``x``."""
        vals = control_values(self.ring.controls, x)
        acc = 0j
        for e, c in self.sorted_terms():
            term = c
            for v, p in zip(vals, e):
                if p:
                    term *= v**p
            acc += term
        return acc

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Vectorized evaluation at an (n, controls) array of real points."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != self.ring.controls:
            raise ValueError("points must have shape (n, controls)")
        maxdeg = self.degree()
        n, m = points.shape
        # powers[v][p] = column v raised to p
        powers = [
            np.vander(points[:, v], N=maxdeg + 1, increasing=True) for v in range(m)
        ]
        acc = np.zeros(n, dtype=complex)
        for e, c in self.sorted_terms():
            term = np.full(n, c, dtype=complex)
            for v in range(m):
                if e[v]:
                    term *= powers[v][:, e[v]]
            acc += term
        return acc

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"x{i}^{p}" if p > 1 else f"x{i}"
                for i, p in enumerate(e)
                if p
            )
            bits.append(f"({c:g}){'*' + mono if mono else ''}")
        return " + ".join(bits)


class PolyMatrix:
    """Square matrix of polynomials, stored as exponent -> coefficient matrix.

    All entries share one ring context.  The representation is equivalent to
    a d x d grid of :class:`Polynomial` (see :meth:`entry` /
    :meth:`from_entries`) but keeps products as dense numpy matrix products.
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

    @classmethod
    def from_entries(cls, grid) -> "PolyMatrix":
        """Build from a d x d nested sequence of Polynomial entries."""
        dim = len(grid)
        ring = grid[0][0].ring
        coeffs: dict[tuple[int, ...], np.ndarray] = {}
        for i in range(dim):
            if len(grid[i]) != dim:
                raise ValueError("grid must be square")
            for j in range(dim):
                p = grid[i][j]
                if p.ring != ring:
                    raise ValueError("all entries must share one ring context")
                for e, c in p.terms.items():
                    if e not in coeffs:
                        coeffs[e] = np.zeros((dim, dim), dtype=complex)
                    coeffs[e][i, j] = c
        return cls(ring, dim, coeffs)

    # -- access ------------------------------------------------------------

    def entry(self, i: int, j: int) -> Polynomial:
        return Polynomial(self.ring, {e: m[i, j] for e, m in self.coeffs.items()})

    def entries(self) -> list[list[Polynomial]]:
        return [[self.entry(i, j) for j in range(self.dim)] for i in range(self.dim)]

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
            w = 1.0
            for v, p in zip(vals, e):
                if p:
                    w *= v**p
            acc += w * m
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
    x^(a+b) * <A_b, A_a>_F.  Pairing (a, b) with (b, a) keeps the result real
    by construction; any larger imaginary residue is an error.
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
