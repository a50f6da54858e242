"""Grid-sampled model of modules over the continuous functions on [0, 1].

The algebra is sampled at the dyadic nodes j/n for j = 0..n with n a power
of two (at least 16). Two module variants are modeled:

  pair  elements (a, m) with m in the ideal of functions vanishing at 0
  l2    finitely supported sequences of functions

Operators of both are k x k blocks of multiplier functions acting on the
first k coordinates and zeroing the rest: k = 2 for pair, k = 1 for l2.

Inner products are conjugate linear in the first argument. The point of
the model is to witness, numerically, how range inclusion and majorization
detach from factorization once the underlying space is a module rather
than a Hilbert space: equalities that force range inclusion for matrices
leave preimages outside the module here, visible either as an ideal-test
failure at the left endpoint or as a candidate whose sup norm keeps
doubling under grid refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import InputError, require_finite

TOL_IDEAL = 1e-9
TOL_INTERP = 1e-9

GRID_MIN = 16
DEFAULT_GRID_N = 1024

# A candidate preimage counts as refinement-stable when its sup norm moves
# by at most this factor when the grid is doubled.
STABLE_FACTOR = 1.1

# thl2_decompose's pass, op_psd_gap and ex2's constructive probes work in
# blocks of this many node indices, so their scratch is 512 KiB of complex
# values rather than a grid array; demo_l2 keeps even g and h in it.
BLOCK = 1 << 15

# The modeled variants and the block size k of their operators.
VARIANTS = {"pair": 2, "l2": 1}


def _check_grid_n(n: int) -> None:
    if n < GRID_MIN or (n & (n - 1)) != 0:
        raise InputError(f"grid size must be a power of two >= {GRID_MIN}, got {n}")


@dataclass(eq=False)
class GridFunction:
    """A function on [0, 1] sampled at the nodes j/n, j = 0..n."""

    samples: np.ndarray

    def __post_init__(self):
        self._check_shape()
        if not np.isfinite(self.samples).all():
            raise InputError("samples must be finite")

    def _check_shape(self) -> None:
        arr = np.asarray(self.samples, dtype=np.complex128)
        if arr.ndim != 1:
            raise InputError("samples must be a 1-D array")
        _check_grid_n(arr.size - 1)
        self.samples = arr

    @classmethod
    def _checked(cls, samples: np.ndarray) -> "GridFunction":
        """Wrap samples whose finiteness is already established: the shape
        is checked, the finiteness pass of the public constructor is not
        repeated. Only for results that have passed ``require_finite`` or
        are built from finite samples."""
        gf = object.__new__(cls)
        gf.samples = samples
        gf._check_shape()
        return gf

    @property
    def n(self) -> int:
        return self.samples.size - 1

    @classmethod
    def nodes(cls, n: int) -> np.ndarray:
        _check_grid_n(n)
        # j * (1/n) is j/n exactly, as 1/n is a power of two
        nodes = np.arange(n + 1, dtype=np.float64)
        nodes *= 1.0 / n
        return nodes

    @classmethod
    def from_samples_of(cls, fn, n: int) -> "GridFunction":
        """Vectorized constructor: fn acts on the whole node array."""
        return cls(np.asarray(fn(cls.nodes(n)), dtype=np.complex128))

    @classmethod
    def coordinate(cls, n: int) -> "GridFunction":
        return cls._checked(cls.nodes(n).astype(np.complex128))

    @classmethod
    def constant(cls, value, n: int) -> "GridFunction":
        """The constant function ``value``. Its samples are a read-only
        view of the one value (``np.broadcast_to``), so a constant costs no
        grid array; sums, products, conjugates and quotients of it are
        fresh arrays."""
        _check_grid_n(n)
        value = np.complex128(value)
        if not np.isfinite(value):
            raise InputError("samples must be finite")
        return cls._checked(np.broadcast_to(value, n + 1))

    def sup(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def conj(self) -> "GridFunction":
        return GridFunction._checked(self.samples.conj())

    def _coerce(self, other) -> np.ndarray:
        if isinstance(other, GridFunction):
            if other.n != self.n:
                raise InputError(f"grid mismatch: {self.n} vs {other.n}")
            return other.samples
        return np.complex128(other)

    def __add__(self, other):
        return GridFunction(self.samples + self._coerce(other))

    def __sub__(self, other):
        return GridFunction(self.samples - self._coerce(other))

    def __mul__(self, other):
        return GridFunction(self.samples * self._coerce(other))

    __radd__ = __add__
    __rmul__ = __mul__


@dataclass(frozen=True)
class PureState:
    """Evaluation at a point x0 of [0, 1], interpolated between nodes."""

    x0: float

    def __post_init__(self):
        if not (0.0 <= self.x0 <= 1.0) or not math.isfinite(self.x0):
            raise InputError(f"state must sit in [0, 1], got {self.x0}")


def _ideal_test(end: float, sup: float) -> bool:
    """The ideal test on end = |f(0)| and the sup norm of f."""
    return bool(end <= TOL_IDEAL * (1.0 + sup))


def in_ideal_M(f: GridFunction) -> bool:
    """Membership in the ideal of functions vanishing at the left endpoint."""
    end = abs(f.samples[0])
    # an exact zero passes at any sup norm, so the sup is not taken for it
    return bool(end == 0.0) or _ideal_test(end, f.sup())


@dataclass(eq=False)
class ModuleElement:
    """Element of one of the two modeled modules.

    pair: exactly two components (a, m), m constrained to the ideal.
    l2:   any finite number of components (finitely supported sequence).
    """

    variant: str
    components: tuple

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        comps = tuple(self.components)
        if not comps:
            raise InputError("an element needs at least one component")
        n = comps[0].n
        for c in comps:
            if not isinstance(c, GridFunction) or c.n != n:
                raise InputError("components must be GridFunctions on one grid")
        if self.variant == "pair":
            if len(comps) != 2:
                raise InputError("pair elements have exactly two components")
            if not in_ideal_M(comps[1]):
                raise InputError(
                    "second component must lie in the ideal (vanish at 0)"
                )
        self.components = comps

    @property
    def n(self) -> int:
        return self.components[0].n


@dataclass(eq=False)
class ModuleOperator:
    """Adjointable operator on a modeled module.

    blocks is a k x k nest of multiplier GridFunctions (None = zero) acting
    on the first k coordinates; all other coordinates map to zero. k is 2
    for pair (the whole module) and 1 for l2 (coordinate 1 alone).
    """

    variant: str
    blocks: tuple

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InputError(f"unknown variant {self.variant!r}")
        k = VARIANTS[self.variant]
        rows = tuple(tuple(row) for row in self.blocks)
        if len(rows) != k or any(len(r) != k for r in rows):
            raise InputError(f"{self.variant} operators need {k}x{k} blocks")
        given = [b for row in rows for b in row if b is not None]
        if not all(isinstance(b, GridFunction) for b in given):
            raise InputError("operator blocks must be GridFunctions or None")
        grids = {b.n for b in given}
        if len(grids) > 1:
            raise InputError("operator blocks must share one grid")
        if not grids:
            raise InputError("an all-zero operator still needs one explicit block")
        self.blocks = rows

    @classmethod
    def pair(cls, b00, b01, b10, b11) -> "ModuleOperator":
        return cls(variant="pair", blocks=((b00, b01), (b10, b11)))

    @classmethod
    def on_first_coordinate(cls, mult: GridFunction) -> "ModuleOperator":
        return cls(variant="l2", blocks=((mult,),))

    @property
    def n(self) -> int:
        return next(b.n for row in self.blocks for b in row if b is not None)


def _same_variant(x, y, what: str) -> None:
    if x.variant != y.variant:
        raise InputError(f"{what} needs matching variants, got {x.variant!r} and {y.variant!r}")
    if x.n != y.n:
        raise InputError(f"{what} needs matching grids, got {x.n} and {y.n}")


def _sum_of_products(pairs) -> np.ndarray | None:
    """The pointwise sum of a * b over the (a, b) sample arrays in pairs,
    started from the first product; None when pairs is empty. Raises
    InputError when the sum leaves the floating-point range."""
    acc = None
    with np.errstate(over="ignore", invalid="ignore"):
        for a, b in pairs:
            term = a * b
            if acc is None:
                acc = term
            else:
                acc += term
    return None if acc is None else require_finite(acc, "pointwise product overflows")


def module_inner(x: ModuleElement, y: ModuleElement) -> GridFunction:
    """Algebra-valued inner product, conjugate linear in the first slot."""
    _same_variant(x, y, "module_inner")
    # a coordinate past either support contributes 0
    return GridFunction._checked(
        _sum_of_products((np.conj(a.samples), b.samples) for a, b in zip(x.components, y.components))
    )


def op_apply(t: ModuleOperator, x: ModuleElement) -> ModuleElement:
    """Apply an operator to an element."""
    _same_variant(t, x, "op_apply")
    out = []
    for row in t.blocks:
        acc = _sum_of_products(
            (b.samples, c.samples) for b, c in zip(row, x.components) if b is not None
        )
        out.append(GridFunction.constant(0.0, x.n) if acc is None else GridFunction._checked(acc))
    return ModuleElement(variant=x.variant, components=tuple(out))


def op_adjoint(t: ModuleOperator) -> ModuleOperator:
    """Adjoint with respect to the algebra-valued inner product.

    For multiplier blocks this is the conjugate transpose of the block
    pattern with each multiplier conjugated pointwise.
    """
    flip = [[None if b is None else b.conj() for b in col] for col in zip(*t.blocks)]
    return ModuleOperator(variant=t.variant, blocks=flip)


def op_compose(s: ModuleOperator, t: ModuleOperator) -> ModuleOperator:
    """Composition s after t, as multiplier blocks."""
    _same_variant(s, t, "op_compose")
    cols = tuple(zip(*t.blocks))
    out = []
    for row in s.blocks:
        out_row = []
        for col in cols:
            acc = _sum_of_products(
                (left.samples, right.samples)
                for left, right in zip(row, col)
                if left is not None and right is not None
            )
            out_row.append(None if acc is None else GridFunction._checked(acc))
        out.append(out_row)
    if all(b is None for row in out for b in row):
        out[0][0] = GridFunction.constant(0.0, s.n)
    return ModuleOperator(variant=s.variant, blocks=out)


def _extrapolate_endpoint(g: np.ndarray) -> None:
    """Fill g[0] by linear extrapolation from g[1] and g[2], the values at
    the two smallest positive nodes; InputError when it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        g[0] = 2.0 * g[1] - g[2]
    require_finite(g[0], "endpoint extrapolation overflows")


def _divide_with_endpoint(target: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """Pointwise target / mult away from 0, endpoint filled by
    :func:`_extrapolate_endpoint`; InputError when the quotient leaves the
    floating-point range."""
    if np.any(mult[1:] == 0):
        raise InputError("multiplier vanishes at an interior node")
    g = np.empty_like(target)
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(target[1:], mult[1:], out=g[1:])
    require_finite(g[1:], "multiplier quotient overflows")
    _extrapolate_endpoint(g)
    return g


@dataclass
class PreimageReport:
    """Result of hunting a preimage g with multiplier * g = target."""

    candidate: GridFunction
    candidate_sup: float
    divergence_ratio: float
    ideal_ok: bool | None
    in_range: bool


def multiplier_preimage(
    target: GridFunction, multiplier: GridFunction, require_ideal: bool
) -> PreimageReport:
    """Attempt to invert a multiplier on the grid and judge the result.

    The candidate is the pointwise quotient with the endpoint
    extrapolated. ``divergence_ratio`` compares the candidate's sup norm
    on the full grid against the one of the half-resolution quotient; a
    genuine preimage is stable (ratio near 1), while a quotient that blows
    up at the endpoint roughly doubles per grid doubling. The
    half-resolution quotient divides the same samples at the even nodes,
    so it is read off the fine one (every other value) with only its
    endpoint extrapolated again, from the nodes 2/n and 4/n. in_range
    requires stability and, when asked, membership in the ideal. A
    quotient or endpoint that overflows is refused with InputError.

    |g| is taken once, on the fine grid, and both sup norms read it: the
    coarse one is the largest of |g| at the positive even nodes and of the
    re-extrapolated coarse endpoint. ``candidate_sup`` keeps the fine one,
    and the ideal test reads it through the same rule as
    :func:`in_ideal_M`.
    """
    if target.n != multiplier.n:
        raise InputError(f"grid mismatch: {target.n} vs {multiplier.n}")
    g_fine = _divide_with_endpoint(target.samples, multiplier.samples)
    mag = np.abs(g_fine)
    sup_fine = float(np.max(mag))
    # the coarse grid's values at 0, 2/n and 4/n; only the first changes
    coarse_head = g_fine[:5:2].copy()
    _extrapolate_endpoint(coarse_head)
    sup_coarse = float(max(np.max(mag[2::2]), np.abs(coarse_head)[0]))
    if sup_coarse == 0.0:
        ratio = 1.0 if sup_fine == 0.0 else math.inf
    else:
        ratio = sup_fine / sup_coarse
    candidate = GridFunction._checked(g_fine)
    stable = (1.0 / STABLE_FACTOR) <= ratio <= STABLE_FACTOR
    ideal_ok = _ideal_test(abs(g_fine[0]), sup_fine) if require_ideal else None
    in_range = stable and (ideal_ok is not False)
    return PreimageReport(
        candidate=candidate,
        candidate_sup=sup_fine,
        divergence_ratio=ratio,
        ideal_ok=ideal_ok,
        in_range=in_range,
    )


def op_psd_gap(s: ModuleOperator, t: ModuleOperator, c: float) -> float:
    """Worst pointwise eigenvalue gap of c*t - s over the grid.

    Both operators must be self-adjoint in form (built as X X*). For pair
    operators the local object at a node is the full 2x2 block matrix; for
    l2 operators it is diag(value, 0, 0, ...), so the zero tail caps the
    gap at 0. A negative return certifies that s <= c*t fails somewhere.
    A missing (None) pair block enters the formulas as the scalar 0.0, so
    it costs no grid array. Both variants run on blocks of BLOCK nodes, so
    their temporaries stay the size of one block; the gap is the least of
    the block minima, taken by ``np.min``, which keeps a NaN. The l2 value
    is formed as the complex c*t - s before its real part is read, as
    reading t's real part first can flip the sign of a zero.
    """
    _same_variant(s, t, "op_psd_gap")

    def local(i, j, nodes):
        # c*t - s at block (i, j) on the nodes
        tb, sb = t.blocks[i][j], s.blocks[i][j]
        tv = 0.0 if tb is None else tb.samples[nodes]
        return c * tv - (0.0 if sb is None else sb.samples[nodes])

    minima = []
    for lo in range(0, s.n + 1, BLOCK):
        nodes = slice(lo, lo + BLOCK)
        if s.variant == "l2":
            minima.append(np.min(local(0, 0, nodes).real))
            continue
        m00, m01, m10, m11 = (local(i, j, nodes) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
        # hermitize pointwise, then closed-form least eigenvalue of 2x2
        off = 0.5 * (m01 + np.conj(m10))
        d0 = m00.real
        d1 = m11.real
        mean = 0.5 * (d0 + d1)
        rad = np.sqrt((0.5 * (d0 - d1)) ** 2 + np.abs(off) ** 2)
        minima.append(np.min(mean - rad))
    gap = np.min(minima)
    return float(min(gap, 0.0) if s.variant == "l2" else gap)


def _interp(samples: np.ndarray, x0: float) -> complex:
    n = samples.size - 1
    pos = x0 * n
    j = int(math.floor(pos))
    if j >= n:
        return complex(samples[n])
    w = pos - j
    return complex((1.0 - w) * samples[j] + w * samples[j + 1])


def localize(x: ModuleElement, p: PureState) -> np.ndarray:
    """Evaluate an element at a state: the vector of component values."""
    return np.asarray([_interp(c.samples, p.x0) for c in x.components], dtype=np.complex128)


def localize_op(t: ModuleOperator, p: PureState) -> np.ndarray:
    """Evaluate an operator at a state: the matrix of multiplier values."""
    k = len(t.blocks)
    out = np.zeros((k, k), dtype=np.complex128)
    for i, row in enumerate(t.blocks):
        for j, b in enumerate(row):
            if b is not None:
                out[i, j] = _interp(b.samples, p.x0)
    return out


@dataclass
class LocalDecomposition:
    """Pieces of the pointwise identity B f = A g + h at one state."""

    g: ModuleElement
    h: ModuleElement
    residual: float


def thl2_decompose(f: ModuleElement, p: PureState) -> LocalDecomposition:
    """Split B f = A g + h at a state x0 > 0, for the coordinate-multiplier
    pair A (multiply coordinate 1 by lambda) and B (keep coordinate 1).

    h matches f up to x0/2, decays linearly to zero at x0, and vanishes
    beyond; g = (f - h) / lambda is then supported away from 0, so both
    pieces stay inside the module while h is annihilated by the state.
    x0 = 0 is degenerate (the state kills no linear ramp) and is rejected.

    The nodes j/n are exact and sorted, so each piece is a slice: h copies
    f on the nodes at or below x0/2, takes the ramp on the nodes strictly
    between x0/2 and x0, and is 0 from the first node at or past x0. g is
    exactly 0 where h copies f, and the quotient is taken only past that.
    ``residual`` is the largest |f - (lambda g + h)| over every node; it is
    exactly 0 where h copies f, so it too is formed only past that. A ramp
    or quotient that overflows is refused with InputError.

    Past x0/2 the work is the blocked pass of :func:`_thl2_residual`,
    which writes g and h into their grid arrays; these two are the only
    arrays on the whole grid.
    """
    if f.variant != "l2":
        raise InputError("thl2_decompose expects an l2 element")
    if p.x0 <= 0.0:
        raise InputError("degenerate state: decomposition needs x0 > 0")
    n = f.n
    g1 = np.zeros(n + 1, dtype=np.complex128)
    h1 = np.zeros(n + 1, dtype=np.complex128)
    residual = _thl2_residual(f.components[0].samples, p.x0, g1, h1)
    g = ModuleElement(variant="l2", components=(GridFunction._checked(g1),))
    h = ModuleElement(variant="l2", components=(GridFunction._checked(h1),))
    return LocalDecomposition(g=g, h=h, residual=residual)


def _thl2_residual(f1: np.ndarray, x0: float, g1=None, h1=None) -> float:
    """The residual of :func:`thl2_decompose` on the samples f1 at a state
    x0 > 0. Given g1 and h1, zero grid arrays, it fills them with g and h;
    without them, each block's g and h live in scratch of one block's size
    and are dropped, so no grid array is built.

    The pass runs in blocks of BLOCK node indices, starting at the first
    node past x0/2. Each block builds its nodes as j * (1/n), the bits of
    :meth:`GridFunction.nodes`, fills its part of the ramp and of g, and
    forms its residual in scratch of one block's size. From the first node
    at or past x0, h is 0, so g is f / lambda and the residual
    f - lambda g: f - 0 is f, and adding 0 to lambda g changes at most the
    sign of a zero, never |f - (lambda g + h)|. The residual is the
    largest of the block maxima, taken by ``np.max``, which keeps a NaN.
    It is the one finiteness check: as f is finite and lambda > 0, a ramp
    or quotient that overflows leaves it inf or NaN, and a finite residual
    means finite g and h.
    """
    n = f1.size - 1
    step = 1.0 / n
    half = 0.5 * x0
    slope = 2.0 * _interp(f1, half) / x0
    # j/n <= half exactly when j <= half * n, as scaling by n = 2**k is
    # exact: nodes[:jh] are those at or below half, nodes[:jx] those below
    # x0. jh >= 1, since node 0 is at or below half, and jh <= n / 2 + 1.
    jh = math.floor(half * n) + 1
    jx = math.ceil(x0 * n)
    size = min(BLOCK, n + 1 - jh)
    scratch = g1 is None
    if scratch:
        g1 = np.empty(size, dtype=np.complex128)
        h1 = np.empty(size, dtype=np.complex128)
    else:
        h1[:jh] = f1[:jh]
    resid = np.empty(size, dtype=np.complex128)
    mag = np.empty(size, dtype=np.float64)
    maxima = []
    for lo in range(jh, n + 1, BLOCK):
        hi = min(lo + BLOCK, n + 1)
        nodes = np.arange(lo, hi, dtype=np.float64)
        nodes *= step
        at = slice(0, hi - lo) if scratch else slice(lo, hi)
        f_b, h_b, g_b = f1[lo:hi], h1[at], g1[at]
        ramp = max(min(hi, jx) - lo, 0)
        r_b = resid[: hi - lo]
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(x0, nodes[:ramp], out=mag[:ramp])
            np.multiply(slope, mag[:ramp], out=h_b[:ramp])
            np.subtract(f_b[:ramp], h_b[:ramp], out=g_b[:ramp])
            np.divide(g_b[:ramp], nodes[:ramp], out=g_b[:ramp])
            np.divide(f_b[ramp:], nodes[ramp:], out=g_b[ramp:])
            np.multiply(nodes, g_b, out=r_b)
            r_b[:ramp] += h_b[:ramp]
            np.subtract(f_b, r_b, out=r_b)
            maxima.append(np.max(np.abs(r_b, out=mag[: hi - lo])))
    return require_finite(float(np.max(maxima)), "decomposition overflows")


def _preimage_dict(rep: PreimageReport) -> dict:
    return {
        "candidate_sup": rep.candidate_sup,
        "divergence_ratio": rep.divergence_ratio,
        "ideal_ok": rep.ideal_ok,
        "in_range": rep.in_range,
    }


def demo_ex1(grid_n: int = DEFAULT_GRID_N) -> dict:
    """Gram equality without factorization in the pair module.

    The corner embeddings of the coordinate multiplier satisfy
    A A* = C C* identically on the grid, yet the coordinate function has
    no preimage under A inside the ideal: the only multiplier quotient is
    the constant 1, which the ideal test rejects.
    """
    coord = GridFunction.coordinate(grid_n)
    a_t = ModuleOperator.pair(None, coord, None, None)
    c_t = ModuleOperator.pair(coord, None, None, None)
    aa = op_compose(a_t, op_adjoint(a_t))
    cc = op_compose(c_t, op_adjoint(c_t))
    gap = 0.0
    for i in range(2):
        for j in range(2):
            x = aa.blocks[i][j].samples if aa.blocks[i][j] is not None else 0.0
            y = cc.blocks[i][j].samples if cc.blocks[i][j] is not None else 0.0
            gap = max(gap, float(np.max(np.abs(x - y))))
    witness = multiplier_preimage(coord, coord, require_ideal=True)
    return {
        "example": "ex1",
        "grid_n": grid_n,
        "gram_equality_gap": gap,
        "psd_gap_at_c1": op_psd_gap(cc, aa, 1.0),
        "witness_preimage": _preimage_dict(witness),
        "conclusion_holds": gap == 0.0 and not witness.in_range,
    }


def _ex2_lift_residual(n: int) -> float:
    """ex2's module-level cross-check on the constant probe: the largest
    |A pre - D D* x| over both components, with D and A the corner
    embeddings of lambda^{2/3} and lambda, x = (1, 0) and
    pre = (0, lambda^{1/3}). D is dropped once D D* x is formed, and the
    difference is taken in blocks of BLOCK nodes, so no more than five
    grid arrays are alive at once."""
    nodes = GridFunction.nodes(n)
    d_t = ModuleOperator.pair(
        None, GridFunction(np.power(nodes, 2.0 / 3.0).astype(np.complex128)), None, None
    )
    x = ModuleElement(
        variant="pair",
        components=(GridFunction.constant(1.0, n), GridFunction.constant(0.0, n)),
    )
    u = op_apply(op_compose(d_t, op_adjoint(d_t)), x)
    del d_t
    pre = ModuleElement(
        variant="pair",
        components=(
            GridFunction.constant(0.0, n),
            GridFunction(np.power(nodes, 1.0 / 3.0).astype(np.complex128)),
        ),
    )
    lifted = op_apply(ModuleOperator.pair(None, GridFunction.coordinate(n), None, None), pre)
    blocks = [slice(lo, lo + BLOCK) for lo in range(0, n + 1, BLOCK)]
    return max(
        float(np.max([np.max(np.abs(a.samples[b] - v.samples[b])) for b in blocks]))
        for a, v in zip(lifted.components, u.components)
    )


def demo_ex2(grid_n: int = DEFAULT_GRID_N) -> dict:
    """Range inclusion of the Gram square without operator range inclusion.

    With the corner embedding of the multiplier lambda^{2/3}, its Gram
    square pushes every f to lambda^{4/3} f, which factors through the
    coordinate multiplier via the ideal member lambda^{1/3} f. The
    constructive side checks that formula for several probe functions.
    The witness target (the constant 1) admits only the quotient
    1/lambda, whose sup norm doubles with each grid refinement, so it
    stays outside the range.

    The constructive side runs in blocks of BLOCK node indices. Each block
    builds its nodes as j * (1/n), the bits of :meth:`GridFunction.nodes`,
    then the multipliers and the probes on them, and keeps only the block
    maxima of the residual and, for the ideal test, g(0) from the first
    block and the block maxima of |g| when g(0) is not 0. The module
    cross-check and the witness run first, each in its own scope, so no
    grid array outlives its phase and an unallocatable grid fails at once.
    """
    _check_grid_n(grid_n)
    witness = _preimage_dict(
        multiplier_preimage(
            GridFunction.constant(1.0, grid_n), GridFunction.coordinate(grid_n), require_ideal=True
        )
    )
    lift_residual = _ex2_lift_residual(grid_n)
    labels = ("constant", "coordinate", "oscillating")
    resid_maxima = {label: [] for label in labels}
    g_maxima = {label: [] for label in labels}
    g_end = {}
    step = 1.0 / grid_n
    for lo in range(0, grid_n + 1, BLOCK):
        nodes = np.arange(lo, min(lo + BLOCK, grid_n + 1), dtype=np.float64)
        nodes *= step
        coord = nodes.astype(np.complex128)
        # the real multipliers promoted to complex once per block: a product
        # with a complex probe would promote them again for each probe
        cuberoot = np.power(nodes, 1.0 / 3.0).astype(np.complex128)
        gram_mult = np.power(nodes, 4.0 / 3.0).astype(np.complex128)
        probes = (np.ones(nodes.size, dtype=np.complex128), coord, np.exp(2j * np.pi * nodes))
        for label, f in zip(labels, probes):
            g = cuberoot * f
            if lo == 0:
                g_end[label] = abs(g[0])
            # as in in_ideal_M, the sup of g is taken only when g(0) != 0
            if g_end[label] != 0.0:
                g_maxima[label].append(np.max(np.abs(g)))
            gap = coord * g
            gap -= gram_mult * f
            resid_maxima[label].append(np.max(np.abs(gap)))
    constructive = [
        {
            "f": label,
            "ideal_ok": bool(g_end[label] == 0.0)
            or _ideal_test(g_end[label], float(np.max(g_maxima[label]))),
            "factorization_residual": float(np.max(resid_maxima[label])),
        }
        for label in labels
    ]
    preimage_in_ideal = all(
        c["ideal_ok"] and c["factorization_residual"] <= TOL_IDEAL * 2.0
        for c in constructive
    )
    return {
        "example": "ex2",
        "grid_n": grid_n,
        "constructive": constructive,
        "preimage_in_ideal": preimage_in_ideal,
        "module_lift_residual": lift_residual,
        "witness_preimage": witness,
        "conclusion_holds": preimage_in_ideal and not witness["in_range"],
    }


def demo_l2(grid_n: int = DEFAULT_GRID_N) -> dict:
    """Local solvability at the states x0 = 0.1, ..., 0.9, global
    majorization never.

    B f = A g + h admits a decomposition at each x0 > 0 with h killed by
    the state, yet B B* <= c A A* fails for every c: the multiplier
    comparison 1 <= c lambda^2 collapses at the left endpoint.
    """
    coord = GridFunction.coordinate(grid_n)
    a_op = ModuleOperator.on_first_coordinate(coord)
    b_op = ModuleOperator.on_first_coordinate(GridFunction.constant(1.0, grid_n))
    per_state = []
    for i in range(1, 10):
        x0 = i / 10
        # only the residual is kept, so g and h live in block scratch and
        # are never built on the grid
        per_state.append({"x0": x0, "residual": _thl2_residual(coord.samples, x0)})
    aa = op_compose(a_op, op_adjoint(a_op))
    bb = op_compose(b_op, op_adjoint(b_op))
    cs = [1.0, 10.0, 1e6]
    gaps = {f"{c:g}": op_psd_gap(bb, aa, c) for c in cs}
    tol = TOL_INTERP * (1.0 + coord.sup())
    return {
        "example": "l2",
        "grid_n": grid_n,
        "states": per_state,
        "majorization_gaps": gaps,
        "local_solvable_everywhere": all(s["residual"] <= tol for s in per_state),
        "global_majorization_fails": all(g < 0.0 for g in gaps.values()),
    }


DEMOS = {"ex1": demo_ex1, "ex2": demo_ex2, "l2": demo_l2}


def demo(which: str, grid_n: int = DEFAULT_GRID_N) -> dict:
    """Run one of the three counterexample demos and return its report."""
    if which not in DEMOS:
        raise InputError(f"unknown demo {which!r}; expected one of {sorted(DEMOS)}")
    return DEMOS[which](grid_n)
