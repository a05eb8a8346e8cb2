"""Named divisor and curve classes on symmetric powers of a curve.

Constructors for the classes that drive effective-cone computations on C_d:

* subordinate loci of a linear series (divisors contained in a member of
  the series), via the binomial expansion of their fundamental class;
* the diagonal (divisors with a repeated point);
* the locus of divisors moving in a positive-dimensional series;
* the push-pull operator x^k . u^* u_* that transports classes from C_d
  down to C_{d-k}, and its closed form on the moving-divisor class;
* first Chern classes and Chern characters of the vector bundles induced
  by coherent systems on the curve, the kernel-bundle bookkeeping that
  produces interesting systems, and the degeneracy class of the
  multiplication map behind the secant-plane bound.

All coefficients are exact rationals; binomial coefficients allow a
negative upper argument via the falling-factorial convention

    binom(a, j) = a (a-1) ... (a-j+1) / j!,

so e.g. binom(-2, j) = (-1)^j (j+1).
"""

from math import comb, factorial, perm

from . import _EXPORTS
from .nsring import Ambient, NSClass, Record, _of, _require_ints, _top_weights, canonical_class

__all__ = list(_EXPORTS["catalog"])


def binom(a: int, j: int) -> int:
    """Binomial coefficient with integer (possibly negative) upper argument.

    Zero when j < 0, and when 0 <= a < j; for a < 0 the falling factorial
    gives the usual signed values, by the reflection
    binom(a, j) = (-1)^j binom(j-a-1, j).  Always an exact integer.
    """
    if j < 0:
        return 0
    if a >= 0:
        return comb(a, j)
    return (-1) ** j * comb(j - a - 1, j)


class LinearSeries(Record):
    """A g^r_n: an (r+1)-dimensional space of sections of a degree-n bundle."""

    __slots__ = ("n", "r")

    def __init__(self, n: int, r: int):
        _require_ints("LinearSeries field", n=n, r=r)
        if n < 0:
            raise ValueError(f"series degree must be nonnegative, got n={n}")
        if r < 0:
            raise ValueError(f"series dimension must be nonnegative, got r={r}")
        super().__init__(n, r)


class SystemData(Record):
    """A coherent system: rank and degree of the bundle, dimension of the space of sections."""

    __slots__ = ("rank", "degree", "dim_v")

    def __init__(self, rank: int, degree: int, dim_v: int):
        _require_ints("SystemData field", rank=rank, degree=degree, dim_v=dim_v)
        if rank < 1:
            raise ValueError(f"system rank must be positive, got {rank}")
        if dim_v < 0:
            raise ValueError(f"section-space dimension must be nonnegative, got {dim_v}")
        super().__init__(rank, degree, dim_v)


class KernelBundleData(Record):
    """A globally generated line bundle L and the kernel bundle M_L it defines.

    M_L is the kernel of the evaluation map H^0(L) (x) O_C -> L, so it has
    rank h^0(L) - 1 and degree -deg L.
    """

    __slots__ = ("base_degree", "base_sections")

    def __init__(self, base_degree: int, base_sections: int):
        _require_ints("KernelBundleData field", base_degree=base_degree, base_sections=base_sections)
        if base_sections < 2:
            raise ValueError(
                f"kernel bundle needs at least 2 sections, got h^0={base_sections}"
            )
        super().__init__(base_degree, base_sections)

    @property
    def kernel_rank(self) -> int:
        return self.base_sections - 1

    @property
    def kernel_degree(self) -> int:
        return -self.base_degree


def subordinate_class(amb: Ambient, series: LinearSeries) -> NSClass:
    """Class of the divisors on C_d subordinate to a g^r_n.

    The locus of degree-d divisors contained in some member of the series
    is pure of codimension d - r, with class

        sum_{j=0}^{d-r} binom(n-g-r, j) x^j theta^(d-r-j) / (d-r-j)!.
    """
    g, d = amb.g, amb.d
    n, r = series.n, series.r
    if not (r <= d <= n):
        raise ValueError(f"series/degree constraint: need r <= d <= n, got r={r}, d={d}, n={n}")
    a, top = n - g - r, d - r
    last = top if a < 0 else min(a, top)  # binom(a, j) is zero for every j > a >= 0
    terms = {}
    coeff = 1  # binom(a, j) top!/(top-j)!, by binom(a, j+1) = binom(a, j) (a-j) / (j+1)
    for j in range(last + 1):
        terms[(j, top - j)] = coeff
        coeff = coeff * (a - j) // (j + 1) * (top - j)
    return _of(amb, terms, factorial(top))


def diagonal_class(amb: Ambient) -> NSClass:
    """Class of the locus of divisors with a repeated point: 2((g+d-1)x - theta)."""
    if amb.d < 2:
        raise ValueError(f"diagonal requires d >= 2, got d={amb.d}")
    return _of(amb, {(0, 1): -2, (1, 0): 2 * (amb.g + amb.d - 1)}, 1)


def c1d_class(amb: Ambient) -> NSClass:
    """Class of the divisors moving in a pencil, in its expected codimension.

    C^1_d = theta^(g-d+1)/(g-d+1)! - x theta^(g-d)/(g-d)!, of pure degree
    g - d + 1; meaningful on C_d only when that does not exceed d.
    """
    g, d = amb.g, amb.d
    if d > g:
        raise ValueError(f"moving-divisor class needs d <= g, got {amb}")
    codim = g - d + 1
    if codim > d:
        raise ValueError(f"class degree exceeds dimension: codimension {codim} on C_{d}")
    return _of(amb, {(0, codim): 1, (1, codim - 1): -codim}, factorial(codim))


def pushpull(c: NSClass, k: int) -> NSClass:
    """Transport a class from C_d to C_{d-k} through the incidence divisor.

    Monomials map by

        x^a theta^b  |->  sum_j binom(a, k-j) binom(b, j) binom(g-b+j, j) j!
                              x^(a-k+j) theta^(b-j),

    extended linearly; only max(0, k-a) <= j <= min(k, b) can contribute,
    since otherwise one of the first two binomials vanishes.  k = 0 is the
    identity.

    That formula is the reference; the loop computes the same weights
    differently.  binom(g-b+j, j) j! is the rising product
    (g-b+1) ... (g-b+j), so with i = a-k+j the weight w(j) of a term obeys

        w(j+1) = w(j) (k-j) (b-j) (g-b+j+1) / ((i+1) (j+1)),

    an exact division with i >= 0.  Each term builds its first weight once,
    through `math.perm` when b <= g (the rising product is then
    (g-b+j)!/(g-b)!) and through `binom` only when b > g, where the upper
    argument can be negative, and steps from there.  Once a rising product
    reaches zero every later weight of the term is zero too.

    The class's numerators are pushed over its own denominator, so each
    contribution is one integer product added into an int per output
    monomial, and no Fraction is built.
    """
    if type(k) is not int:  # the checker's own test, inline: a 5..120 sweep makes 7.2k of these calls
        _require_ints("pushpull argument", k=k)
    if k < 0:
        raise ValueError(f"push-pull index must be nonnegative, got k={k}")
    g, d = c.ambient.g, c.ambient.d
    if k >= d:
        raise ValueError(f"push-pull index must satisfy k < d, got k={k} on C_{d}")
    out: dict[tuple[int, int], int] = {}
    for (a, b), n in c._terms.items():
        j = k - a if k > a else 0  # max(0, k - a) and min(k, b), without the calls
        last = k if k < b else b
        if j > last:
            continue
        rising = perm(g - b + j, j) if b <= g else binom(g - b + j, j) * factorial(j)
        weight = n * comb(a, k - j) * comb(b, j) * rising
        i = a - k + j
        while weight:
            key = (i, b - j)
            out[key] = out.get(key, 0) + weight
            if j == last:
                break
            i += 1
            j += 1
            weight = weight * (k - j + 1) * (b - j + 1) * (g - b + j) // (i * j)
    return _of(Ambient._make(g, d - k), out, c.den)  # 1 <= d - k, and g is the source's


def dm_class(g: int, m: int) -> NSClass:
    """Closed form of the push-pull image of the moving-divisor class.

    On C_{g-2m} the class x^m . u^* u_* [C^1_{g-m}] equals

        binom(g, m) * ((g-2m)/g * theta - x),

    a divisor class; requires 1 <= m <= g/2 - 1.  The types and the range
    are checked first, so an m out of range builds no binomial, and they make
    C_{g-2m} a valid ambient: g >= 2m + 2 >= 4, so binom(g, m) is comb(g, m).
    """
    if type(g) is not int or type(m) is not int:  # as in pushpull
        _require_ints("dm_class argument", g=g, m=m)
    if m < 1 or 2 * m > g - 2:
        raise ValueError(f"m out of range: need 1 <= m <= g/2 - 1, got g={g}, m={m}")
    scale = comb(g, m)
    return _of(Ambient._make(g, g - 2 * m), {(0, 1): scale * (g - 2 * m), (1, 0): -scale * g}, g)


def system_c1(amb: Ambient, system: SystemData) -> NSClass:
    """First Chern class of the bundle on C_d induced by a coherent system.

    A system (F, V) of rank r, degree f with dim V = r*d induces a bundle of
    rank r*d whose determinant is r*theta - (r*d + r*g - f - r)*x.
    """
    r, f = system.rank, system.degree
    if system.dim_v != r * amb.d:
        raise ValueError(
            f"not a virtual divisor configuration: dim V = {system.dim_v} != rank*d = {r * amb.d}"
        )
    return _of(amb, {(0, 1): r, (1, 0): -(r * amb.d + r * amb.g - f - r)}, 1)


def chern_character(amb: Ambient, rank: int, degree: int, max_degree: int) -> NSClass:
    """Chern character of the induced bundle, truncated above `max_degree`.

    Computed by expanding the product form

        ch = (f + r(1-g)) + (r*d + r*g - f - r + r*theta) * exp(-x)

    with ring arithmetic, for a rank-r degree-f system with dim V = r*d.
    """
    _require_ints("chern_character argument", rank=rank, degree=degree, max_degree=max_degree)
    if rank < 1:
        raise ValueError(f"system rank must be positive, got {rank}")
    if not 0 <= max_degree <= amb.d:
        raise ValueError(
            f"truncation degree must lie in [0, d], got {max_degree} on C_{amb.d}"
        )
    r, f, g = rank, degree, amb.g
    excess = r * amb.d + r * g - f - r
    falling = _top_weights(max_degree, max_degree, 0)  # entry k: max_degree!/(max_degree-k)!
    exp_minus_x = _of(amb, {(k, 0): (-1) ** k * falling[max_degree - k] for k in range(max_degree + 1)},
                      falling[-1])
    linear = _of(amb, {(0, 0): excess, (0, 1): r}, 1)
    constant = _of(amb, {(0, 0): f + r * (1 - g)}, 1)
    return (constant + linear * exp_minus_x).truncate_degree(max_degree)


def kernel_twist_h1(data: KernelBundleData) -> int:
    """h^1 of K_C (x) M_L when deg L = 2k-3 and h^0(L) = k-1 for some k >= 4.

    In that range h^1(K_C (x) M_L) = h^0(M_L^*) = k - 1; outside it this
    shortcut makes no claim and raises.
    """
    degree, sections = data.base_degree, data.base_sections
    if (degree + 3) % 2 == 0:
        k = (degree + 3) // 2
        if k >= 4 and sections == k - 1:
            return k - 1
    raise ValueError(
        f"no h^1 rule for deg L = {degree}, h^0(L) = {sections}: "
        "need deg L = 2k-3 and h^0(L) = k-1 with k >= 4"
    )


def twisted_kernel_class(g: int, data: KernelBundleData, h1: int) -> NSClass:
    """Virtual divisor class of the system spanned by K_C (x) M_L.

    The twist has rank h^0(L) - 1 and degree rank*(2g-2) - deg L; with the
    given h^1 its full space of sections has dimension chi + h1, which must
    be rank * d for a positive integer d — that d fixes the symmetric power
    the class lives on.
    """
    _require_ints("twisted_kernel_class argument", g=g, h1=h1)
    if h1 < 0:
        raise ValueError(f"h^1 must be nonnegative, got {h1}")
    rank = data.kernel_rank
    f = rank * (2 * g - 2) + data.kernel_degree
    chi = f + rank * (1 - g)
    dim_v = chi + h1
    if dim_v % rank != 0 or dim_v // rank < 1:
        raise ValueError(
            f"dim V = chi + h^1 = {chi} + {h1} = {dim_v} is not rank*d "
            f"for rank {rank} and any d >= 1"
        )
    d = dim_v // rank
    return system_c1(Ambient(g, d), SystemData(rank, f, dim_v))


def brill_noether_rho(g: int, r: int, d: int) -> int:
    """The Brill-Noether number g - (r+1)(g - d + r)."""
    _require_ints("brill_noether_rho argument", g=g, r=r, d=d)
    return g - (r + 1) * (g - d + r)


def mult_degeneracy_class(g: int, d: int, r: int) -> NSClass:
    """Divisor class of the degeneracy locus of the multiplication map.

    For 2 <= d <= g-1 and r >= d/(g-d), evaluation against r-th powers of
    sections of a degree-(r(g-d)+1) twist produces a map of bundles of equal
    rank on C_d whose degeneracy divisor has class

        c_1(G) - (r+1) c_1(K^-1) = r*theta - (r+1)*x.

    Both sides are computed; the simplification is verified, not assumed.
    """
    _require_ints("mult_degeneracy_class argument", g=g, d=d, r=r)
    if not 2 <= d <= g - 1:
        raise ValueError(f"need 2 <= d <= g-1, got g={g}, d={d}")
    if r < 1 or r * (g - d) < d:
        raise ValueError(
            f"multiplication rank too small: need r >= d/(g-d), got r={r}, g={g}, d={d}"
        )
    amb = Ambient(g, d)
    n = 2 * g - 2 + r * (g - d) + 1  # degree of the canonical twist K_C (x) L
    induced_det = -system_c1(amb, SystemData(1, n, d))
    cls = induced_det - (r + 1) * (-canonical_class(amb))
    expected = _of(amb, {(0, 1): r, (1, 0): -(r + 1)}, 1)
    if cls != expected:
        raise ArithmeticError(
            f"degeneracy class failed to simplify: {cls} != {expected}"
        )
    return cls


# name -> (params, builder[, ambient]) for every class the CLI builds by name,
# through `class --name` and `<name int...>` references alike.  `params`
# names the integer arguments in order, each also a `class` flag; a trailing
# `[p]` is optional, its default set by the builder.  A class lives on its
# arguments named g and d, or on the (g, d) `ambient` maps its arguments to.
# The builders look the constructors up in this module's globals at call
# time, so a wrapped or patched constructor is what they call.
NAMED_CLASSES = {
    "gamma": ("g d n r", lambda g, d, n, r: subordinate_class(Ambient(g, d), LinearSeries(n, r))),
    "diagonal": ("g d", lambda g, d: diagonal_class(Ambient(g, d))),
    "c1d": ("g d", lambda g, d: c1d_class(Ambient(g, d))),
    "canonical": ("g d", lambda g, d: canonical_class(Ambient(g, d))),
    "dm": ("g m", lambda g, m: dm_class(g, m), lambda g, m: (g, g - 2 * m)),
    "system-c1": ("g d rank f dim-v",
                  lambda g, d, rank, f, dim_v: system_c1(Ambient(g, d), SystemData(rank, f, dim_v))),
    "ch": ("g d rank f [max-degree]", lambda g, d, rank, f, max_degree=None: chern_character(
        Ambient(g, d), rank, f, min(2, d) if max_degree is None else max_degree)),
    "mult-class": ("g d r", lambda g, d, r: mult_degeneracy_class(g, d, r)),
}
