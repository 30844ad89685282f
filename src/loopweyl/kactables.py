"""Generalized Cartan matrices of the affine Dynkin types, with twist data.

Node numbering follows Kac's tables throughout: node 0 is the added node,
nodes 1..l are the underlying finite diagram.  Matrices use the convention
a_ij = <alpha_j, alpha_i^vee>, so row i lists the values of all simple roots
on the i-th simple coroot.
"""

import re

from .errors import SpecParseError, UnknownDatumError

_NAME_RE = re.compile(r"([A-G])\(([0-9])\)_([0-9]+)")


def parse_name(name):
    """Split a label like "C(1)_2" into (letter, twist, subscript)."""
    m = _NAME_RE.fullmatch(name)
    if not m:
        raise UnknownDatumError(f"cannot parse datum name: {name!r}")
    return m.group(1), int(m.group(2)), int(m.group(3))


def _chain(n, links):
    """Cartan matrix on nodes 0..n-1 from {(i, j): a_ij} off-diagonal data."""
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for (i, j), v in links.items():
        a[i][j] = v
    return a


def _simply(n, edges):
    links = {}
    for i, j in edges:
        links[(i, j)] = -1
        links[(j, i)] = -1
    return _chain(n, links)


def _path_edges(nodes):
    return [(nodes[k], nodes[k + 1]) for k in range(len(nodes) - 1)]


def _untwisted(letter, l):
    if letter == "A":
        if l == 1:
            return _chain(2, {(0, 1): -2, (1, 0): -2})
        a = _simply(l + 1, _path_edges(list(range(l + 1))))
        a[0][l] = a[l][0] = -1
        return a
    if letter == "B":
        if l < 3:
            raise UnknownDatumError(f"B(1)_{l}: rank must be >= 3")
        a = _simply(l + 1, [(0, 2), (1, 2)] + _path_edges(list(range(2, l + 1))))
        a[l][l - 1] = -2
        return a
    if letter == "C":
        if l < 2:
            raise UnknownDatumError(f"C(1)_{l}: rank must be >= 2")
        a = _simply(l + 1, _path_edges(list(range(l + 1))))
        a[1][0] = -2
        a[l - 1][l] = -2
        return a
    if letter == "D":
        if l < 4:
            raise UnknownDatumError(f"D(1)_{l}: rank must be >= 4")
        return _simply(
            l + 1,
            [(0, 2), (1, 2), (l, l - 2), (l - 1, l - 2)]
            + _path_edges(list(range(2, l - 1))),
        )
    if letter == "E":
        if l == 6:
            return _simply(7, _path_edges([1, 2, 3, 4, 5]) + [(3, 6), (6, 0)])
        if l == 7:
            return _simply(8, _path_edges([0, 1, 2, 3, 4, 5, 6]) + [(3, 7)])
        if l == 8:
            return _simply(9, _path_edges([0, 1, 2, 3, 4, 5, 6, 7]) + [(5, 8)])
        raise UnknownDatumError(f"E(1)_{l}: rank must be 6, 7 or 8")
    if letter == "F":
        if l != 4:
            raise UnknownDatumError(f"F(1)_{l}: rank must be 4")
        a = _simply(5, _path_edges([0, 1, 2, 3, 4]))
        a[3][2] = -2
        return a
    if letter == "G":
        if l != 2:
            raise UnknownDatumError(f"G(1)_{l}: rank must be 2")
        a = _simply(3, _path_edges([0, 1, 2]))
        a[2][1] = -3
        return a
    raise UnknownDatumError(f"unknown untwisted family {letter}(1)")


def _twisted_a_even(m):
    # A(2)_{2m}: chain 0..m with doubled arrows at both ends toward the middle
    if m == 1:
        return _chain(2, {(0, 1): -4, (1, 0): -1})
    a = _simply(m + 1, _path_edges(list(range(m + 1))))
    a[0][1] = -2
    a[m - 1][m] = -2
    return a


def _twisted_a_odd(m):
    # A(2)_{2m-1}, m >= 3: fork 0,1 -> 2, then a chain ending in a double bond
    a = _simply(m + 1, [(0, 2), (1, 2)] + _path_edges(list(range(2, m + 1))))
    a[m - 1][m] = -2
    return a


def _twisted_d(l):
    # D(2)_{l+1}: chain 0..l with double bonds pointing outward at both ends
    a = _simply(l + 1, _path_edges(list(range(l + 1))))
    a[0][1] = -2
    a[l][l - 1] = -2
    return a


def _twisted_e6():
    a = _simply(5, _path_edges([0, 1, 2, 3, 4]))
    a[2][3] = -2
    return a


def _twisted_d4():
    a = _simply(3, _path_edges([0, 1, 2]))
    a[1][2] = -3
    return a


def cartan_matrix(name):
    """Return (matrix, twist_order) for a Kac label."""
    letter, twist, sub = parse_name(name)
    if twist == 1:
        return _untwisted(letter, sub), 1
    if twist == 2 and letter == "A":
        if sub < 2:
            raise UnknownDatumError(f"A(2)_{sub}: subscript must be >= 2")
        if sub == 3:  # the alias of D(2)_3
            return _twisted_d(2), 2
        if sub % 2 == 0:
            return _twisted_a_even(sub // 2), 2
        return _twisted_a_odd((sub + 1) // 2), 2
    if twist == 2 and letter == "D":
        if sub < 3:
            raise UnknownDatumError(f"D(2)_{sub}: subscript must be >= 3")
        return _twisted_d(sub - 1), 2
    if twist == 2 and letter == "E":
        if sub != 6:
            raise UnknownDatumError(f"E(2)_{sub}: subscript must be 6")
        return _twisted_e6(), 2
    if twist == 3 and letter == "D":
        if sub != 4:
            raise UnknownDatumError(f"D(3)_{sub}: subscript must be 4")
        return _twisted_d4(), 3
    raise UnknownDatumError(f"unknown datum name: {name}")


# the exceptional labels and their ranks (one less than their nodes)
_EXCEPTIONAL_RANKS = {"E(1)_6": 6, "E(1)_7": 7, "E(1)_8": 8, "F(1)_4": 4,
                      "G(1)_2": 2, "E(2)_6": 4, "D(3)_4": 2}


def known_names(max_rank=8):
    """Supported labels with at most max_rank + 1 nodes, sorted: the
    exceptional ones of rank <= max_rank, and the classical families from
    their least rank up, where A(2)_s stops at s < 2 max_rank and D(2)_s at
    s <= max_rank, one node short."""
    names = ["A(1)_1", "A(2)_2"]
    names += [n for n, r in _EXCEPTIONAL_RANKS.items() if r <= max_rank]
    names += [f"A(1)_{l}" for l in range(2, max_rank + 1)]
    names += [f"B(1)_{l}" for l in range(3, max_rank + 1)]
    names += [f"C(1)_{l}" for l in range(2, max_rank + 1)]
    names += [f"D(1)_{l}" for l in range(4, max_rank + 1)]
    names += [f"A(2)_{s}" for s in range(3, 2 * max_rank)]
    names += [f"D(2)_{s}" for s in range(3, max_rank + 1)]
    return sorted(set(names))


def _is_int(v):
    # json reads true as True, an int equal to 1, and 2.0 as a float equal
    # to 2; neither is an integer of the interchange form
    return type(v) is int


def datum_dict_from_json(text):
    """Parse the JSON interchange form; returns a plain dict of fields."""
    import json
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpecParseError("root datum JSON must be an object")
    for key in ("name", "cartan", "twist_order"):
        if key not in obj:
            raise SpecParseError(f"root datum JSON missing field {key!r}")
    if not isinstance(obj["name"], str):
        raise SpecParseError("name must be a string")
    cartan = obj["cartan"]
    if not isinstance(cartan, list) or not cartan or any(
            not isinstance(row, list) or len(row) != len(cartan)
            for row in cartan):
        raise SpecParseError("cartan must be a nonempty square matrix")
    n = len(cartan)
    for i in range(n):
        for j in range(n):
            v = cartan[i][j]
            if not _is_int(v):
                raise SpecParseError("cartan entries must be integers")
            if i == j and v != 2:
                raise SpecParseError("cartan diagonal entries must equal 2")
            if i != j and v > 0:
                raise SpecParseError("cartan off-diagonal entries must be <= 0")
            if i != j and (v == 0) != (cartan[j][i] == 0):
                raise SpecParseError("cartan zero pattern must be symmetric")
    if not _is_int(obj["twist_order"]) or obj["twist_order"] not in (1, 2, 3):
        raise SpecParseError("twist_order must be 1, 2 or 3")
    kappa = obj.get("kappa")
    if kappa is not None:
        if not isinstance(kappa, list) or len(kappa) != n or any(
                not _is_int(v) or v not in (1, 2) for v in kappa):
            raise SpecParseError("kappa must list 1s and 2s, one per node")
    return {
        "name": obj["name"],
        "cartan": tuple(tuple(row) for row in cartan),
        "twist_order": obj["twist_order"],
        "kappa": None if kappa is None else tuple(kappa),
    }
