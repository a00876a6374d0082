"""Plain-text geometry format.

One entity per block. A block starts with a ``curve`` or ``surface`` header
line, followed by a degree line, knot line(s) and one control point per
line, ``x y [z] w`` whitespace-separated. ``#`` starts a comment. The header
keywords are forgiving (``order``/``degree``, ``knot vector``/``knots``,
optional colons, an ignorable ``coefficients`` line), so CAD-style listings
can be pasted in with nothing but the entity header added:

    surface
    Order: 1
    Knot vector: 0 0 1 1
    Coefficients (x,y,z,weight):
    0 0 0 1
    0 1 0 1
    1 0 0 1
    1 1 0 1

Surfaces list their net with the first parameter index outermost (the
second index varies fastest). A trimmed region file holds three blocks:
surface, bottom curve, top curve.
"""

import re

import numpy as np

from .errors import NativeFormatError
from .nurbs import KnotVector, NurbsCurve, NurbsSurface
from .trimming import TrimmedRegion, require_valid

_NUMERIC = re.compile(r"^[+\-.\d]")


def _squash(key):
    return re.sub(r"[\s_:]+", "", key.lower())


def _parse_numbers(text, lineno, what):
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise NativeFormatError(f"line {lineno}: bad {what}: {exc}") from None


class _Block:
    def __init__(self, kind, lineno):
        self.kind = kind
        self.lineno = lineno
        self.degrees = None
        self.knots = {}
        self.points = []


def _split_blocks(text):
    blocks = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = _squash(line.split()[0]) if not _NUMERIC.match(line) else ""
        if word in ("curve", "surface"):
            current = _Block(word, lineno)
            blocks.append(current)
            continue
        if current is None:
            raise NativeFormatError(
                f"line {lineno}: expected a 'curve' or 'surface' header first"
            )
        if _NUMERIC.match(line):
            current.points.append((lineno, _parse_numbers(line, lineno, "control point")))
            continue
        key, _, rest = line.partition(":")
        if not rest:
            parts = line.split(None, 1)
            key = parts[0]
            rest = parts[1] if len(parts) > 1 else ""
        skey = _squash(key)
        if skey in ("order", "degree"):
            vals = _parse_numbers(rest, lineno, "degree")
            if not 1 <= len(vals) <= 2 or any(not v.is_integer() or v < 0 for v in vals):
                raise NativeFormatError(f"line {lineno}: bad degree line {line!r}")
            current.degrees = [int(v) for v in vals]
        elif skey in ("knots", "knotvector"):
            current.knots["both"] = (lineno, _parse_numbers(rest, lineno, "knots"))
        elif skey in ("knotsu", "knotvectoru"):
            current.knots["u"] = (lineno, _parse_numbers(rest, lineno, "knots"))
        elif skey in ("knotsv", "knotvectorv"):
            current.knots["v"] = (lineno, _parse_numbers(rest, lineno, "knots"))
        elif skey.startswith("coefficients"):
            continue
        else:
            raise NativeFormatError(f"line {lineno}: unrecognized line {line!r}")
    return blocks


def _build_curve(block):
    if block.degrees is None or len(block.degrees) != 1:
        raise NativeFormatError(f"line {block.lineno}: curve needs one degree value")
    if "both" not in block.knots:
        raise NativeFormatError(f"line {block.lineno}: curve needs a knot line")
    degree = block.degrees[0]
    kv = KnotVector(block.knots["both"][1], degree)
    widths = {len(vals) for _, vals in block.points}
    if widths not in ({3}, {4}):
        raise NativeFormatError(
            f"line {block.lineno}: curve control points must be uniform "
            "'x y w' or 'x y z w' rows"
        )
    rows = np.array([vals for _, vals in block.points])
    return NurbsCurve(kv, rows[:, :-1], rows[:, -1])


def _build_surface(block):
    if block.degrees is None:
        raise NativeFormatError(f"line {block.lineno}: surface needs a degree line")
    p = block.degrees[0]
    q = block.degrees[1] if len(block.degrees) == 2 else p
    if "both" in block.knots:
        ku = KnotVector(block.knots["both"][1], p)
        kvv = KnotVector(block.knots["both"][1], q)
    elif "u" in block.knots and "v" in block.knots:
        ku = KnotVector(block.knots["u"][1], p)
        kvv = KnotVector(block.knots["v"][1], q)
    else:
        raise NativeFormatError(
            f"line {block.lineno}: surface needs 'knots' or both 'knots u'/'knots v'"
        )
    widths = {len(vals) for _, vals in block.points}
    if widths != {4}:
        raise NativeFormatError(
            f"line {block.lineno}: surface control points must be 'x y z w' rows"
        )
    A, B = ku.num_basis, kvv.num_basis
    if len(block.points) != A * B:
        raise NativeFormatError(
            f"line {block.lineno}: surface needs {A}x{B}={A * B} control points, "
            f"got {len(block.points)}"
        )
    rows = np.array([vals for _, vals in block.points])
    net = rows[:, :3].reshape(A, B, 3)
    weights = rows[:, 3].reshape(A, B)
    return NurbsSurface(ku, kvv, net, weights)


def parse_entities(text):
    """All curve/surface entities in the text, in file order."""
    blocks = _split_blocks(text)
    if not blocks:
        raise NativeFormatError("no geometry entities found")
    out = []
    for block in blocks:
        if not block.points:
            raise NativeFormatError(
                f"line {block.lineno}: {block.kind} has no control points"
            )
        out.append(_build_curve(block) if block.kind == "curve" else _build_surface(block))
    return out


def parse_region(text):
    """A trimmed region from three blocks: surface, bottom curve, top curve."""
    entities = parse_entities(text)
    if len(entities) != 3:
        raise NativeFormatError(
            f"region file needs exactly 3 entities (surface, bottom, top), "
            f"got {len(entities)}"
        )
    surface, bottom, top = entities
    if not isinstance(surface, NurbsSurface):
        raise NativeFormatError("first entity of a region file must be a surface")
    if not isinstance(bottom, NurbsCurve) or not isinstance(top, NurbsCurve):
        raise NativeFormatError("second and third entities must be curves")
    return TrimmedRegion(surface, bottom, top)


def load_region(path):
    """parse_region on a file's text, rejected if its validate(16) fails.

    The text is UTF-8, after an optional byte-order mark.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise NativeFormatError(f"{path}: not UTF-8 text: {exc}") from None
    region = parse_region(text)
    require_valid(region, f"{path}: region")
    return region


def _fmt(x):
    return format(float(x), ".17g")


def format_curve(curve, comment=None):
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("curve")
    lines.append(f"degree: {curve.degree}")
    lines.append("knots: " + " ".join(_fmt(k) for k in curve.knot_vector.knots))
    lines.append("coefficients (x y [z] w):")
    for pt, w in zip(curve.control_points, curve.weights):
        lines.append(" ".join(_fmt(c) for c in pt) + " " + _fmt(w))
    return "\n".join(lines) + "\n"


def format_surface(surface, comment=None):
    p, q = surface.degrees
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append("surface")
    lines.append(f"degree: {p} {q}")
    lines.append("knots u: " + " ".join(_fmt(k) for k in surface.knot_vector_u.knots))
    lines.append("knots v: " + " ".join(_fmt(k) for k in surface.knot_vector_v.knots))
    lines.append("coefficients (x y z w):")
    A, B = surface.weights.shape
    for a in range(A):
        for b in range(B):
            pt = surface.control_net[a, b]
            lines.append(" ".join(_fmt(c) for c in pt) + " " + _fmt(surface.weights[a, b]))
    return "\n".join(lines) + "\n"


def format_region(region, comment=None):
    return (
        format_surface(region.surface, comment)
        + format_curve(region.curve_bottom, "bottom trimming curve")
        + format_curve(region.curve_top, "top trimming curve")
    )


def save_region(region, path, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_region(region, comment))
