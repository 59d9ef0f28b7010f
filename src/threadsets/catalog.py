"""Catalog of example prime spectra with their named subset tuples.

``catalog(name, *params)`` is the one check on an entry's parameters: it
takes as many as the entry's ``_BUILDERS`` row has least values, each an
``int`` (a ``bool`` is not one) from its least value to the row's
largest, and raises ``BadParameter`` on anything else.  The builders behind it are pure
constructors, deterministic in their parameters, and store the poset
already in the Balmer orientation (order = prime inclusion).  For spectra
usually presented through a Zariski spectrum the inclusion reversal is
performed here, so threads always run downward.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    tuples: dict[str, SubsetTuple]
    notes: str

    @property
    def label(self) -> str:
        """The entry written as its builder call, e.g. ``zariski_xy(2, 2)``."""
        return f"{self.name}({', '.join(map(str, self.params))})"


# What a builder returns: the poset, its named tuples and the entry's notes.
_Built = tuple[Poset, dict[str, SubsetTuple], str]


def _chain_poset(n: int) -> Poset:
    names = [str(i) for i in range(n + 1)]
    return build_poset(names, [(str(i), str(i + 1)) for i in range(n)])


def _chain(n: int) -> _Built:
    """Total order 0 < 1 < ... < n."""
    return _chain_poset(n), {}, f"total order on {n + 1} points, 0 minimal"


def _chromatic(n: int) -> _Built:
    """Chromatic prime chain of K(i)-acyclics up to height n.

    The primes E_0 > E_1 > ... > E_n = 0 of the height-n localized stable
    homotopy category, relabeled so that label i is E_{n-i}; label 0 (that
    is E_n) is the minimal prime.  The composite of the single
    localizations at heights a_1 < ... < a_k is the descending chain
    E_{a_1} > ... > E_{a_k}, spelled as a tuple by
    ``singleton_tuple(P, P.subset(str(n - a) for a in heights))``.
    """
    P = _chain_poset(n)
    return (P, {"phi_full": singleton_tuple(P, P.full)},
            "chromatic primes E_0 > ... > E_n of L_n Sp, label i = E_{n-i}; "
            "inclusion order, 0 = E_n minimal")


def _star(k: int) -> _Built:
    """One maximal prime t over k pairwise incomparable minimal primes."""
    leaves = list(_MIDDLE_NAMES[:k])
    return (build_poset(["t"] + leaves, [(x, "t") for x in leaves]), {},
            f"irreducible dimension-1 spectrum, {k} closed points")


def _diamond(k: int) -> _Built:
    """Unique extremes t > m with k incomparable primes of length 1 between."""
    mids = list(_MIDDLE_NAMES[:k])
    rels = [(x, "t") for x in mids] + [("m", x) for x in mids] + [("m", "t")]
    return (build_poset(["t"] + mids + ["m"], rels), {},
            f"unique extremes with {k} middle primes")


def _zariski_xy(n_lambda: int, n_mu: int) -> _Built:
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
    return (P, entry_tuples,
            "Spec k[x,y]/(xy) truncated; Balmer order is reversed Zariski "
            "inclusion, O = (x,y)")


def _circle(n: int) -> _Built:
    """Balmer spectrum of rational T-spectra, truncated to n finite subgroups.

    The whole circle group T sits above the trivial subgroup e and the
    cyclic subgroups C_2 ... C_n; no cotoral inclusions relate distinct
    finite subgroups.
    """
    mins = ["e"] + [f"C{i}" for i in range(2, n + 1)]
    return (build_poset(["T"] + mins, [(x, "T") for x in mins]), {},
            "rational circle-equivariant spectrum, truncated")


def _torus2(n: int) -> _Built:
    """Balmer spectrum of rational T^2-spectra, truncated to n circle subgroups.

    T2 tops circles S_1 ... S_n; each S_i sits above the trivial subgroup e
    and a finite subgroup F_i private to it.  The named subsets A_0 = {S_*},
    A_j = {S_i : i >= j} | {F_i : i < j} | {e} for 1 <= j <= n + 1 provide
    the tuples ``family`` = (A_0, ..., A_{n+1}) and ``reduced`` =
    (A_0, A_{n+1}), which share their thread sets.
    """
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
    return (P, entry_tuples,
            "rational T^2-equivariant spectrum truncated to n circle "
            "subgroups with private finite subgroups")


# name -> (builder, least value of each parameter, largest value of any)
_BUILDERS = {
    "chain": (_chain, (0,), MAX_PARAM),
    "chromatic": (_chromatic, (0,), MAX_PARAM),
    "star": (_star, (0,), len(_MIDDLE_NAMES)),
    "diamond": (_diamond, (0,), len(_MIDDLE_NAMES)),
    "zariski_xy": (_zariski_xy, (1, 1), MAX_PARAM),
    "circle": (_circle, (1,), MAX_PARAM),
    "torus2": (_torus2, (1,), MAX_PARAM),
}


def names() -> list[str]:
    return sorted(_BUILDERS)


def catalog(name: str, *params: int) -> CatalogEntry:
    """The catalog entry ``name`` at ``params``: as many integers as the
    entry takes, each from its least value to the entry's largest."""
    try:
        builder, least, most = _BUILDERS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownCatalogEntry(
            f"unknown catalog entry {name!r}; known: {', '.join(names())}") from None
    # a bool is an int to isinstance
    if len(params) != len(least) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in params):
        raise BadParameter(f"{name} takes {len(least)} integer parameter(s), "
                           f"got {params!r}")
    for p in params:
        if p > most:
            raise BadParameter(f"{name} parameters must be at most {most}, got {p}")
    for p, low in zip(params, least):
        if p < low:
            raise BadParameter(f"{name} parameters must be at least {low}, got {p}")
    return CatalogEntry(name, params, *builder(*params))
