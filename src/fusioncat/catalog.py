"""Built-in category catalog with exact cyclotomic s-matrices.

Each entry embeds two independent descriptions: the s-matrix (with twists
where they fit in the entry's conductor) and the known fusion rules plus
dimensions.  catalog_get builds the entry's input through build_category,
the one build path, which validates it once and derives the fusion ring from
the s-matrix by the Verlinde sum once; it then cross-checks that ring against
the embedded rules before handing the category out, so the catalog data is
certified at load time rather than trusted.  catalog_get and catalog_input
share one input object per entry, so the derived ring is shared too.

Conventions for the abelian entries vec_zN (group Z/N with the standard
quadratic form q): for odd N, s_jk = zeta_N^(2jk) and twist_j = zeta_N^(j^2)
at conductor N; for even N >= 4, s_jk = zeta_{2N}^(2jk) and twist_j =
zeta_{2N}^(j^2) at conductor 2N.  vec_z2 is stored at conductor 1 (its
entries are all +-1) and therefore without twists, which need conductor 4.
"""

from __future__ import annotations

from functools import lru_cache

from .category import CategoryData, CategoryInput, build_category
from .cyclotomic import CycloMatrix, rational, zeta
from .errors import InternalConsistencyError, InvalidCategoryError

__all__ = ["catalog_names", "catalog_get"]


def _group_fusion(table):
    """Fusion tensor of a finite group given its multiplication table."""
    n = len(table)
    return tuple(
        tuple(
            tuple(1 if table[i][j] == k else 0 for k in range(n)) for j in range(n)
        )
        for i in range(n)
    )


def _ones(n):
    return tuple(rational(1) for _ in range(n))


def _trivial():
    inp = CategoryInput(
        name="trivial",
        conductor=1,
        labels=("1",),
        s_matrix=CycloMatrix([[rational(1)]]),
    )
    return inp, _group_fusion([[0]]), _ones(1)


def _vec_zn(n: int):
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    if n == 2:
        s = CycloMatrix(
            [[rational(1), rational(1)], [rational(1), rational(-1)]]
        )
        inp = CategoryInput(
            name="vec_z2", conductor=1,
            labels=("0", "1"), s_matrix=s,
        )
        return inp, _group_fusion(table), _ones(n)
    if n % 2:
        m = n
    else:
        m = 2 * n
    s = CycloMatrix([[zeta(m, (2 * j * k) % m) for k in range(n)] for j in range(n)])
    twists = tuple(zeta(m, (j * j) % m) for j in range(n))
    inp = CategoryInput(
        name=f"vec_z{n}",
        conductor=m,
        labels=tuple(str(j) for j in range(n)),
        s_matrix=s,
        twists=twists,
    )
    return inp, _group_fusion(table), _ones(n)


def _semion():
    s = CycloMatrix([[rational(1), rational(1)], [rational(1), rational(-1)]])
    inp = CategoryInput(
        name="semion",
        conductor=4,
        labels=("1", "s"),
        s_matrix=s,
        twists=(rational(1), zeta(4)),
    )
    return inp, _group_fusion([[0, 1], [1, 0]]), _ones(2)


def _toric_code():
    # Klein four-group fusion (xor on indices), labels 1, e, m, f.
    one, neg = rational(1), rational(-1)
    s = CycloMatrix(
        [
            [one, one, one, one],
            [one, one, neg, neg],
            [one, neg, one, neg],
            [one, neg, neg, one],
        ]
    )
    table = [[i ^ j for j in range(4)] for i in range(4)]
    inp = CategoryInput(
        name="toric_code",
        conductor=1,
        labels=("1", "e", "m", "f"),
        s_matrix=s,
        twists=(one, one, one, neg),
    )
    return inp, _group_fusion(table), _ones(4)


def _double_semion():
    # semion times anti-semion; labels 1, s, sbar, f with f = s x sbar.
    one, neg = rational(1), rational(-1)
    s = CycloMatrix(
        [
            [one, one, one, one],
            [one, neg, one, neg],
            [one, one, neg, neg],
            [one, neg, neg, one],
        ]
    )
    table = [[i ^ j for j in range(4)] for i in range(4)]
    inp = CategoryInput(
        name="double_semion",
        conductor=4,
        labels=("1", "s", "sbar", "f"),
        s_matrix=s,
        twists=(one, zeta(4), zeta(4, 3), one),
    )
    return inp, _group_fusion(table), _ones(4)


def _fibonacci():
    g = -(zeta(5, 2)) - zeta(5, 3)  # golden ratio
    one = rational(1, 5)
    s = CycloMatrix([[one, g], [g, -one]])
    fusion = (
        ((1, 0), (0, 1)),
        ((0, 1), (1, 1)),
    )
    inp = CategoryInput(
        name="fibonacci",
        conductor=5,
        labels=("1", "tau"),
        s_matrix=s,
        twists=(one, zeta(5, 2)),
    )
    return inp, fusion, (one, g)


def _ising():
    r2 = zeta(8) - zeta(8, 3)  # sqrt(2)
    one, zero = rational(1, 8), rational(0, 8)
    s = CycloMatrix(
        [
            [one, r2, one],
            [r2, zero, -r2],
            [one, -r2, one],
        ]
    )
    fusion = (
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
        ((0, 1, 0), (1, 0, 1), (0, 1, 0)),
        ((0, 0, 1), (0, 1, 0), (1, 0, 0)),
    )
    # The sigma twist lives at conductor 16, outside this entry's field, so
    # no twists are stored.
    inp = CategoryInput(
        name="ising",
        conductor=8,
        labels=("1", "sigma", "psi"),
        s_matrix=s,
    )
    return inp, fusion, (one, r2, one)


_BUILDERS = {
    "trivial": _trivial,
    "vec_z2": lambda: _vec_zn(2),
    "vec_z3": lambda: _vec_zn(3),
    "vec_z4": lambda: _vec_zn(4),
    "vec_z5": lambda: _vec_zn(5),
    "vec_z6": lambda: _vec_zn(6),
    "vec_z7": lambda: _vec_zn(7),
    "vec_z8": lambda: _vec_zn(8),
    "semion": _semion,
    "double_semion": _double_semion,
    "toric_code": _toric_code,
    "ising": _ising,
    "fibonacci": _fibonacci,
}


def catalog_names() -> tuple[str, ...]:
    return tuple(_BUILDERS)


@lru_cache(maxsize=None)
def _entry(name: str):
    """(input, known fusion rules, known dimensions) of a catalog entry."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown catalog entry {name!r}; available: {', '.join(_BUILDERS)}"
        ) from None
    return builder()


@lru_cache(maxsize=None)
def catalog_get(name: str) -> CategoryData:
    """Build, validate and cross-check a catalog entry."""
    inp, expected_fusion, expected_dims = _entry(name)
    try:
        data = build_category(inp)
    except InvalidCategoryError as e:
        raise InternalConsistencyError(
            f"catalog entry {name} failed validation: "
            + ", ".join(c.check_id for c in e.failures)
        ) from e
    if data.fusion != tuple(expected_fusion):
        raise InternalConsistencyError(
            f"catalog entry {name}: Verlinde fusion disagrees with the known rules"
        )
    if any(a != b for a, b in zip(data.dims, expected_dims)):
        raise InternalConsistencyError(
            f"catalog entry {name}: s-matrix first row disagrees with known dimensions"
        )
    return data


def catalog_input(name: str) -> CategoryInput:
    """The raw (not yet validated) input of a catalog entry."""
    return _entry(name)[0]
