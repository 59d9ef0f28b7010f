"""Catalog of example prime spectra with their named subset tuples.

Every builder is deterministic in its integer parameters and stores the
poset already in the Balmer orientation (order = prime inclusion).  For
spectra usually presented through a Zariski spectrum the inclusion
reversal is performed here, so threads always run downward.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BadParameter, UnknownCatalogEntry
from .families import singleton_tuple
from .poset import Poset, build_poset
from .tuples import SubsetTuple

_MIDDLE_NAMES = "abcdefghijklnopqrsuvwxyz"  # skips m and t, reserved for extremes
# The largest parameter ``catalog`` takes.  ``build_poset``'s closure pass
# costs n^2 Python steps whatever the relations are: ``catalog emit`` took
# 0.8 s for ``chain 1024``, 1.5 s for ``torus2 1024`` and 0.4 s for
# ``zariski_xy 1024 1024``, but 3.4 s for ``chain 2048``, and ``chain 20000``
# was still running after 10 s (CPython 3.11, a shared 2-core machine).
MAX_PARAM = 1024


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    params: tuple[int, ...]
    poset: Poset
    tuples: dict[str, SubsetTuple] = field(default_factory=dict)
    notes: str = ""

    @property
    def label(self) -> str:
        """The entry written as its builder call, e.g. ``zariski_xy(2, 2)``."""
        return f"{self.name}({', '.join(map(str, self.params))})"


def _chain_poset(n: int) -> Poset:
    names = [str(i) for i in range(n + 1)]
    return build_poset(names, [(str(i), str(i + 1)) for i in range(n)])


def chain(n: int) -> CatalogEntry:
    """Total order 0 < 1 < ... < n."""
    if n < 0:
        raise BadParameter("chain needs n >= 0")
    return CatalogEntry("chain", (n,), _chain_poset(n),
                        notes=f"total order on {n + 1} points, 0 minimal")


def chromatic(n: int) -> CatalogEntry:
    """Chromatic prime chain of K(i)-acyclics up to height n.

    The primes E_0 > E_1 > ... > E_n = 0 of the height-n localized stable
    homotopy category, relabeled so that label i is E_{n-i}; label 0 (that
    is E_n) is the minimal prime.  The composite of the single
    localizations at heights a_1 < ... < a_k is the descending chain
    E_{a_1} > ... > E_{a_k}, spelled as a tuple by
    ``singleton_tuple(P, P.subset(str(n - a) for a in heights))``.
    """
    if n < 0:
        raise BadParameter("chromatic needs n >= 0")
    P = _chain_poset(n)
    return CatalogEntry(
        "chromatic", (n,), P, tuples={"phi_full": singleton_tuple(P, P.full)},
        notes=("chromatic primes E_0 > ... > E_n of L_n Sp, label i = E_{n-i}; "
               "inclusion order, 0 = E_n minimal"))


def star(k: int) -> CatalogEntry:
    """One maximal prime t over k pairwise incomparable minimal primes."""
    if k < 0 or k > len(_MIDDLE_NAMES):
        raise BadParameter(f"star needs 0 <= k <= {len(_MIDDLE_NAMES)}")
    leaves = list(_MIDDLE_NAMES[:k])
    return CatalogEntry("star", (k,),
                        build_poset(["t"] + leaves, [(x, "t") for x in leaves]),
                        notes=f"irreducible dimension-1 spectrum, {k} closed points")


def diamond(k: int) -> CatalogEntry:
    """Unique extremes t > m with k incomparable primes of length 1 between."""
    if k < 0 or k > len(_MIDDLE_NAMES):
        raise BadParameter(f"diamond needs 0 <= k <= {len(_MIDDLE_NAMES)}")
    mids = list(_MIDDLE_NAMES[:k])
    rels = [(x, "t") for x in mids] + [("m", x) for x in mids] + [("m", "t")]
    return CatalogEntry("diamond", (k,),
                        build_poset(["t"] + mids + ["m"], rels),
                        notes=f"unique extremes with {k} middle primes")


def zariski_xy(n_lambda: int, n_mu: int) -> CatalogEntry:
    """Truncated Balmer spectrum of D(k[x,y]/(xy)).

    Zariski primes of k[x,y]/(xy): (x), (y) and the maximal ideals
    (x - lambda, y - mu) with lambda * mu = 0.  The Balmer order reverses
    inclusion of ideals, so X = (x) and Y = (y) become maximal; O = (x,y)
    sits below both; a_i are the points (x, y - mu) below X only and b_j
    the points (x - lambda, y) below Y only.  The truncation keeps n_mu
    points a_i and n_lambda points b_j.

    Named tuples: ``triple`` is ({X,Y}, {X} | A, B) with A the b-line plus
    O and B all closed points; ``pair`` is ({X,Y}, B).  Both have the same
    thread sets.
    """
    if n_lambda < 1 or n_mu < 1:
        raise BadParameter("zariski_xy needs n_lambda, n_mu >= 1")
    a_pts = [f"a{i}" for i in range(1, n_mu + 1)]
    b_pts = [f"b{j}" for j in range(1, n_lambda + 1)]
    rels = ([(p, "X") for p in a_pts] + [(p, "Y") for p in b_pts]
            + [("O", "X"), ("O", "Y")])
    P = build_poset(["X", "Y", "O"] + a_pts + b_pts, rels)
    tops = P.subset(["X", "Y"])
    line_a = P.subset(b_pts + ["O"])          # the (x - lambda, y) family, lambda over k
    closed = P.full & ~tops
    entry_tuples = {
        "triple": (tops, P.subset(["X"]) | line_a, closed),
        "pair": (tops, closed),
    }
    return CatalogEntry(
        "zariski_xy", (n_lambda, n_mu), P, tuples=entry_tuples,
        notes=("Spec k[x,y]/(xy) truncated; Balmer order is reversed Zariski "
               "inclusion, O = (x,y)"))


def circle(n: int) -> CatalogEntry:
    """Balmer spectrum of rational T-spectra, truncated to n finite subgroups.

    The whole circle group T sits above the trivial subgroup e and the
    cyclic subgroups C_2 ... C_n; no cotoral inclusions relate distinct
    finite subgroups.
    """
    if n < 1:
        raise BadParameter("circle needs n >= 1")
    mins = ["e"] + [f"C{i}" for i in range(2, n + 1)]
    return CatalogEntry("circle", (n,),
                        build_poset(["T"] + mins, [(x, "T") for x in mins]),
                        notes="rational circle-equivariant spectrum, truncated")


def torus2(n: int) -> CatalogEntry:
    """Balmer spectrum of rational T^2-spectra, truncated to n circle subgroups.

    T2 tops circles S_1 ... S_n; each S_i sits above the trivial subgroup e
    and a finite subgroup F_i private to it.  The named subsets A_0 = {S_*},
    A_j = {S_i : i >= j} | {F_i : i < j} | {e} for 1 <= j <= n + 1 provide
    the tuples ``family`` = (A_0, ..., A_{n+1}) and ``reduced`` =
    (A_0, A_{n+1}), which share their thread sets.
    """
    if n < 1:
        raise BadParameter("torus2 needs n >= 1")
    circles = [f"S{i}" for i in range(1, n + 1)]
    finites = [f"F{i}" for i in range(1, n + 1)]
    rels = [(s, "T2") for s in circles]
    rels += [(f"F{i}", f"S{i}") for i in range(1, n + 1)]
    rels += [("e", s) for s in circles]
    rels += [(f, "T2") for f in finites] + [("e", "T2")]
    P = build_poset(["T2"] + circles + finites + ["e"], rels)
    subsets = [P.subset(circles)]
    for j in range(1, n + 2):
        subsets.append(P.subset([f"S{i}" for i in range(j, n + 1)]
                                + [f"F{i}" for i in range(1, j)] + ["e"]))
    entry_tuples = {
        "family": tuple(subsets),
        "reduced": (subsets[0], subsets[-1]),
    }
    return CatalogEntry(
        "torus2", (n,), P, tuples=entry_tuples,
        notes=("rational T^2-equivariant spectrum truncated to n circle "
               "subgroups with private finite subgroups"))


_BUILDERS = {
    "chain": (chain, 1),
    "chromatic": (chromatic, 1),
    "star": (star, 1),
    "diamond": (diamond, 1),
    "zariski_xy": (zariski_xy, 2),
    "circle": (circle, 1),
    "torus2": (torus2, 1),
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def catalog(name: str, *params: int) -> CatalogEntry:
    """Look up a catalog builder by name and apply integer parameters of at
    most ``MAX_PARAM``."""
    try:
        builder, arity = _BUILDERS[name]
    except KeyError:
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; known: {', '.join(names())}") from None
    if len(params) != arity:
        raise BadParameter(f"{name} takes {arity} integer parameter(s)")
    if any(param > MAX_PARAM for param in params):
        raise BadParameter(f"{name} parameters must be at most {MAX_PARAM}, "
                           f"got {max(params)}")
    return builder(*params)
