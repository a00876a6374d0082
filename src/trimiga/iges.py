"""IGES 5.3 card-image reader and writer for the trimming subset.

Supported entities: rational B-spline curve (126), rational B-spline
surface (128), curve on a parametric surface (142), trimmed parametric
surface (144), plus composite curve (102) as the glue 142 needs to point at
more than one curve. Anything else is recorded as skipped.

Files are 80-column records: data in columns 1..64 (P section) or 1..72
(S/G sections), directory entries as pairs of lines with ten 8-column
fields, section letter in column 73 and a sequence number in columns
74..80. Knot vectors are renormalized to the unit interval on ingestion;
output reals carry 17 significant digits, so a round trip is lossless well
below 1e-9.

`parse` sorts the lines into sections and takes the delimiters from the G
section, where an empty field keeps its default, `,` or `;`. One pass builds
each complete `DirectoryEntry` from its D-line pair and its checked P lines;
every D pair is decoded first, so a directory fault is reported first. A
typed cursor then reads each entity's tokens front to back. Each 144 is
resolved once into a `TrimmedSurfaceRecord`: its surface and its outer-loop
curves in loop order, x and y rescaled by the surface's knot ranges and not
checked, its boundary problems noted in `diagnostics`. Extraction reads only
that: `TrimmedRegion` checks each curve and snaps it into the unit square.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import IgesParseError, InvalidGeometryError, UnsupportedTopologyError
from .nurbs import KnotVector, NurbsCurve, NurbsSurface
from .trimming import TrimmedRegion, _as_parameter_curve, require_valid

_STRAIGHT_TOL = 1e-9
_GAP_TOL = 1e-6


@dataclass
class DirectoryEntry:
    de: int                # sequence number of the first directory line (odd)
    etype: int
    pd_count: int          # number of parameter lines
    form: int
    params: list           # the record's tokens after the entity type, stripped
    first_param_line: int  # file line of the first parameter record


@dataclass
class TrimmedSurfaceRecord:
    """One 144 entity resolved to its surface and rescaled boundary curves."""

    de: int
    surface: NurbsSurface
    curves: list      # outer-loop NurbsCurves rescaled by the knot ranges, unchecked
    inner_loops: int  # N2, the count of inner boundaries (holes)


@dataclass
class IgesModel:
    entries: dict
    curves: dict = field(default_factory=dict)    # de -> NurbsCurve, model space
    surfaces: dict = field(default_factory=dict)  # de -> NurbsSurface
    trimmed: list = field(default_factory=list)   # TrimmedSurfaceRecord
    skipped: dict = field(default_factory=dict)   # entity type -> count
    diagnostics: list = field(default_factory=list)  # human-readable warnings


# ---------------------------------------------------------------------------
# reading


def _num(text, lineno, section, kind=float):
    token = text.strip()
    if not token:
        return kind(0)
    try:
        if kind is int:
            return int(token)
        return float(re.sub(r"[DdEe]", "E", token))
    except ValueError:
        raise IgesParseError(
            f"cannot parse {kind.__name__} from {token!r}", lineno, section
        ) from None


def _split_sections(text):
    sections = {letter: [] for letter in "SGDPT"}
    lines = text.splitlines()
    if not lines:
        raise IgesParseError("empty file")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if len(line) < 73:
            raise IgesParseError("record shorter than 73 columns", lineno)
        letter = line[72]
        if letter not in sections:
            raise IgesParseError(f"unknown section letter {letter!r}", lineno)
        seq_text = line[73:80].strip()
        if not seq_text.isdigit():
            raise IgesParseError(f"bad sequence number {seq_text!r}", lineno, letter)
        sections[letter].append((lineno, int(seq_text), line))
    for letter, name in (("D", "directory"), ("P", "parameter"), ("T", "terminate")):
        if not sections[letter]:
            raise IgesParseError(f"missing {name} section")
    return sections


def _global_delimiters(glines):
    """Parameter and record delimiters from the G section (defaults , and ;)."""
    if not glines:
        return ",", ";"
    text = "".join(line[:72] for _, _, line in glines)
    lineno = glines[0][0]

    def read_delim(pos, param, default):
        # an empty field keeps its default: its next character is the parameter
        # delimiter, or the record delimiter that ends the G record
        if pos >= len(text) or text[pos] in (param, ";"):
            return default, pos + 1
        m = re.match(r"(\d+)H", text[pos:])
        if not m:
            raise IgesParseError(
                f"malformed delimiter definition near {text[pos:pos + 8]!r}",
                lineno,
                "G",
            )
        n = int(m.group(1))
        start = pos + m.end()
        if n != 1 or start >= len(text):
            raise IgesParseError("delimiter Hollerith must carry one character", lineno, "G")
        delim = text[start]
        return delim, start + 2  # skip the delimiter character and the separator

    param, pos = read_delim(0, ",", ",")
    record, _ = read_delim(pos, param, ";")
    return param, record


def _read_entries(sections, param_delim, record_delim):
    """Each directory entry, complete with its parameter tokens, by sequence number.

    Every D-line pair is decoded before the first P line is read, so a fault
    in the directory is reported before one in the parameter section.
    """
    dlines = sections["D"]
    if len(dlines) % 2:
        raise IgesParseError("directory section has an odd number of lines", dlines[-1][0], "D")
    heads = {}
    for (lineno1, de, line1), (lineno2, _, line2) in zip(dlines[::2], dlines[1::2]):
        etype = _num(line1[:8], lineno1, "D", int)
        etype2 = _num(line2[:8], lineno2, "D", int)
        if etype != etype2:
            raise IgesParseError(
                f"directory entry {de}: entity type mismatch {etype} vs {etype2}", lineno2, "D"
            )
        pointer = _num(line1[8:16], lineno1, "D", int)
        count, form = (_num(line2[i : i + 8], lineno2, "D", int) for i in (24, 32))
        heads[de] = (etype, pointer, count, form)
    by_seq = {}
    for lineno, seq, line in sections["P"]:
        if seq in by_seq:
            raise IgesParseError(f"duplicate parameter line {seq}", lineno, "P")
        by_seq[seq] = (lineno, line)
    entries = {}
    for de, (etype, pointer, count, form) in heads.items():
        if pointer <= 0 or count <= 0:
            raise IgesParseError(f"directory entry {de}: bad parameter pointer/count "
                                 f"{pointer}/{count}", section="D")
        lines = []
        for seq in range(pointer, pointer + count):
            if seq not in by_seq:
                raise IgesParseError(f"directory entry {de}: missing parameter line {seq}",
                                     section="P")
            lineno, line = by_seq[seq]
            back = line[64:72].strip()
            if back.isdigit() and int(back) != de:
                raise IgesParseError(f"parameter line {seq} back-pointer {back} does not "
                                     f"match directory entry {de}", lineno, "P")
            lines.append(line[:64])
        first = by_seq[pointer][0]
        record, sep, _ = "".join(lines).partition(record_delim)
        if not sep:
            raise IgesParseError(f"directory entry {de}: unterminated parameter record",
                                 first, "P")
        tokens = [token.strip() for token in record.split(param_delim)]
        lead = _num(tokens[0], first, "P", int)
        if lead != etype:
            raise IgesParseError(f"directory entry {de}: parameter record starts with "
                                 f"entity type {lead}, expected {etype}", first, "P")
        entries[de] = DirectoryEntry(de, etype, count, form, tokens[1:], first)
    return entries


class _Cursor:
    """An entry's parameter tokens, handed out front to back as typed values."""

    def __init__(self, entry):
        self.entry = entry
        self.pos = 0

    def error(self, message):
        entry = self.entry
        return IgesParseError(f"entity {entry.etype} (D{entry.de}): {message}",
                              entry.first_param_line, "P")

    def skip(self, n, what):
        """The next n tokens, unconverted; what names them if the record ends first."""
        tokens = self.entry.params[self.pos : self.pos + n]
        if len(tokens) < n:
            raise self.error(f"parameter record ended while reading {what}")
        self.pos += n
        return tokens

    def ints(self, n, what):
        return [_num(t, self.entry.first_param_line, "P", int) for t in self.skip(n, what)]

    def reals(self, n, what):
        return [_num(t, self.entry.first_param_line, "P") for t in self.skip(n, what)]

    def pointers(self, n, what):
        # a negative pointer flags alternate use; the target is the same
        return [abs(value) for value in self.ints(n, what)]


def _build_curve_126(cursor):
    K, M = cursor.ints(2, "curve header")
    cursor.skip(4, "curve header")
    if K < 0 or M < 0 or K < M:
        raise cursor.error(f"invalid indices K={K}, M={M}")
    knots = cursor.reals(K + M + 2, "knot sequence")
    weights = cursor.reals(K + 1, "weights")
    pts = np.reshape(cursor.reals(3 * (K + 1), "control points"), (K + 1, 3))
    return NurbsCurve(KnotVector(knots, M), pts, weights)


def _build_surface_128(cursor):
    K1, K2, M1, M2 = cursor.ints(4, "surface header")
    cursor.skip(5, "surface header")
    if min(K1, K2, M1, M2) < 0 or K1 < M1 or K2 < M2:
        raise cursor.error(f"invalid indices K1={K1}, K2={K2}, M1={M1}, M2={M2}")
    nu, nv = K1 + 1, K2 + 1
    ku = cursor.reals(K1 + M1 + 2, "u knots")
    kv = cursor.reals(K2 + M2 + 2, "v knots")
    # first parameter index varies fastest in the flat IGES ordering
    weights = np.reshape(cursor.reals(nu * nv, "weights"), (nv, nu)).T
    net = np.reshape(cursor.reals(3 * nu * nv, "control points"), (nv, nu, 3)).transpose(1, 0, 2)
    surface = NurbsSurface(KnotVector(ku, M1), KnotVector(kv, M2), net, weights)
    return surface, (ku[0], ku[-1], kv[0], kv[-1])


def _to_parameter_curve(curve, ranges):
    """Rescale control points' x and y into the unit parameter square.

    z is kept, so that TrimmedRegion rejects a curve off the parameter plane.
    """
    u0, u1, v0, v1 = ranges
    pts = curve.control_points.copy()
    pts[:, 0] = (pts[:, 0] - u0) / (u1 - u0)
    pts[:, 1] = (pts[:, 1] - v0) / (v1 - v0)
    return NurbsCurve(curve.knot_vector, pts, curve.weights)


def parse(text):
    """Parse IGES text into an IgesModel; raises IgesParseError on bad input.

    What does not stop the parse is noted in model.diagnostics: inner
    boundaries, a boundary on another surface than its 144's, and gaps above
    _GAP_TOL between consecutive curves of a loop of more than two.
    """
    sections = _split_sections(text)
    entries = _read_entries(sections, *_global_delimiters(sections["G"]))

    model = IgesModel(entries)
    ranges = {}      # surface de -> (u0, u1, v0, v1) original knot ranges
    composites = {}  # de -> tuple of member DEs
    on_surface = {}  # de -> (surface_de, param_curve_de)
    pending = []     # (de, surface_de, N1, N2, boundary_de) of each 144
    for de, entry in sorted(entries.items()):
        cursor = _Cursor(entry)
        try:
            if entry.etype == 126:
                model.curves[de] = _build_curve_126(cursor)
            elif entry.etype == 128:
                model.surfaces[de], ranges[de] = _build_surface_128(cursor)
            elif entry.etype == 102:
                (n,) = cursor.ints(1, "composite count")
                if n < 1:
                    raise IgesParseError(
                        f"entity 102 (D{de}): needs at least one member", section="P"
                    )
                composites[de] = tuple(cursor.pointers(n, "composite members"))
            elif entry.etype == 142:
                # the model-space pointer and preference flag are ignored: the
                # parameter-space representation is always used
                what = "curve-on-surface record"
                cursor.skip(1, what)
                on_surface[de] = tuple(cursor.pointers(2, what))
                cursor.skip(2, what)
            elif entry.etype == 144:
                what = "trimmed surface record"
                (pts,) = cursor.pointers(1, what)
                n1, n2 = cursor.ints(2, what)
                (pto,) = cursor.pointers(1, what)
                if n2 > 0:
                    model.diagnostics.append(
                        f"trimmed surface D{de}: {n2} inner boundary(ies) not supported"
                    )
                pending.append((de, pts, n1, n2, pto))
            else:
                model.skipped[entry.etype] = model.skipped.get(entry.etype, 0) + 1
        except InvalidGeometryError as exc:  # raised by the 126 and 128 constructors
            raise cursor.error(exc) from None

    for de, pts, n1, n2, pto in pending:
        if pts not in model.surfaces:
            raise IgesParseError(f"trimmed surface D{de}: dangling surface pointer D{pts}")
        members = ()
        if n1 != 0 and pto != 0:
            if pto not in on_surface:
                raise IgesParseError(f"trimmed surface D{de}: dangling boundary pointer D{pto}")
            sptr, bptr = on_surface[pto]
            if sptr != pts:
                model.diagnostics.append(
                    f"trimmed surface D{de}: boundary D{pto} references surface "
                    f"D{sptr}, expected D{pts}"
                )
            members = composites.get(bptr, (bptr,))
            for member in members:
                if member not in model.curves:
                    raise IgesParseError(
                        f"trimmed surface D{de}: boundary member D{member} is not a "
                        "supported curve entity"
                    )
        curves = [_to_parameter_curve(model.curves[m], ranges[pts]) for m in members]
        # a two-curve loop's closing edges are implied, so its end gaps are
        # intended; a loop with a curve off the parameter square fails to
        # extract with a typed error, and its gaps could overflow
        measured = len(curves) > 2 and all(map(_in_square, curves))
        for k in range(len(curves)) if measured else ():
            nxt = (k + 1) % len(curves)
            gap = float(np.linalg.norm(curves[k].evaluate(1.0, 0).value
                                       - curves[nxt].evaluate(0.0, 0).value))
            if gap > _GAP_TOL:
                model.diagnostics.append(f"trimmed surface D{de}: gap {gap:.3e} between "
                                         f"boundary curves {k} and {nxt}")
        model.trimmed.append(TrimmedSurfaceRecord(de, model.surfaces[pts], curves, n2))
    return model


def parse_file(path):
    # IGES columns count bytes, so each byte must decode to one character
    with open(path, encoding="latin-1") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# region extraction


def _in_square(curve):
    """Whether TrimmedRegion accepts curve as a parameter curve."""
    try:
        _as_parameter_curve(curve, "boundary")
    except InvalidGeometryError:
        return False
    return True


def _is_straight(curve):
    """Whether curve is a straight edge to drop; one off the parameter square
    is kept, so that TrimmedRegion rejects it by name before any arithmetic."""
    if not _in_square(curve):
        return False
    pts = curve.control_points
    chord = pts[-1] - pts[0]
    norm = np.linalg.norm(chord)
    if norm < _STRAIGHT_TOL:
        return False
    direction = chord / norm
    rel = pts - pts[0]
    off = rel - np.outer(rel @ direction, direction)
    return float(np.max(np.linalg.norm(off, axis=1))) <= _STRAIGHT_TOL


def _mean_point(curve):
    return curve.evaluate(np.linspace(0.0, 1.0, 33), 0).value.mean(axis=0)


def extract_region(model, trimmed_index=0):
    """Build a TrimmedRegion from the indexed trimmed-surface record.

    The outer boundary must reduce to exactly two non-straight curves once
    straight closing edges are removed, and there must be no inner boundary
    (a two-curve map has no holes). Bottom/top follow the mean v-coordinate
    (ties broken by mean u); the top curve is reversed when needed so both
    advance in the same s-direction. The curves are checked in loop order
    before that, so an error names the first one bottom and the second top.
    """
    return extract_region_with_report(model, trimmed_index)[0]


def extract_region_with_report(model, trimmed_index=0):
    """extract_region's region and the validate(16) report that accepted it."""
    if not 0 <= trimmed_index < len(model.trimmed):
        raise UnsupportedTopologyError(
            f"trimmed surface index {trimmed_index} out of range "
            f"(model has {len(model.trimmed)})"
        )
    record = model.trimmed[trimmed_index]
    if record.inner_loops:
        raise UnsupportedTopologyError(
            f"trimmed surface D{record.de}: {record.inner_loops} inner boundary(ies); "
            "holes are not supported"
        )
    curves = record.curves
    if len(curves) < 2:
        raise UnsupportedTopologyError(
            f"trimmed surface D{record.de}: boundary has {len(curves)} curve(s); "
            "need two trimming curves"
        )
    if len(curves) > 2:
        kept = [c for c in curves if not _is_straight(c)]
        if len(kept) != 2:
            raise UnsupportedTopologyError(
                f"trimmed surface D{record.de}: boundary with {len(curves)} curves "
                f"reduces to {len(kept)} non-straight curve(s); need exactly two"
            )
        curves = kept
    # the region checks the curves before any arithmetic runs on them; it is
    # rebuilt only if ordering them swaps or flips them
    region = TrimmedRegion(record.surface, *curves)
    first, second = region.curve_bottom, region.curve_top
    m1, m2 = _mean_point(first), _mean_point(second)
    if abs(m1[1] - m2[1]) > _STRAIGHT_TOL:
        bottom, top = (first, second) if m1[1] < m2[1] else (second, first)
    else:
        bottom, top = (first, second) if m1[0] <= m2[0] else (second, first)
    b0 = bottom.evaluate(0.0, 0).value
    b1 = bottom.evaluate(1.0, 0).value
    t0 = top.evaluate(0.0, 0).value
    t1 = top.evaluate(1.0, 0).value
    keep = np.linalg.norm(t0 - b0) + np.linalg.norm(t1 - b1)
    flip = np.linalg.norm(t1 - b0) + np.linalg.norm(t0 - b1)
    if flip < keep:
        top = top.reversed()
    if bottom is not first or top is not second:
        region = TrimmedRegion(record.surface, bottom, top)
    return region, require_valid(region, f"trimmed surface D{record.de}: extracted region")


# ---------------------------------------------------------------------------
# writing


def _fmt_real(x):
    return format(float(x), ".17G")


class _Writer:
    def __init__(self):
        self.dlines = []
        self.plines = []

    def add(self, etype, params, status="00000000"):
        de = 2 * len(self.dlines) + 1
        chunks = self._pack([str(etype)] + params)
        self.dlines.append((etype, len(self.plines) + 1, len(chunks), status))
        self.plines += [(chunk, de) for chunk in chunks]
        return de

    @staticmethod
    def _pack(items, width=64):
        lines = []
        current = ""
        for i, item in enumerate(items):
            sep = ";" if i == len(items) - 1 else ","
            piece = item + sep
            if current and len(current) + len(piece) > width:
                lines.append(current)
                current = piece
            else:
                current += piece
        if current:
            lines.append(current)
        return lines

    def render(self, description="trimiga geometry export"):
        out = []
        out.append("{:<72}S{:>7}".format(description[:72], 1))
        gparams = [
            "1H,", "1H;", "7Htrimiga", "7Hexport", "7Htrimiga", "5H0.1.0",
            "32", "308", "15", "308", "15", "7Htrimiga", "1.0", "6", "1HM",
            "1", "1.0", "15H20240101.000000", "1E-9", "1000.0", "7Htrimiga",
            "7Htrimiga", "11", "0", "15H20240101.000000", "4HNone",
        ]
        glines = self._pack(gparams, width=72)
        for i, line in enumerate(glines, start=1):
            out.append("{:<72}G{:>7}".format(line, i))
        dseq = 1
        for etype, pd_pointer, pd_count, status in self.dlines:
            line1 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
                etype, pd_pointer, 0, 0, 0, 0, 0, 0, status
            )
            line2 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
                etype, 0, 0, pd_count, 0, "", "", "", 0
            )
            out.append("{:<72}D{:>7}".format(line1, dseq))
            out.append("{:<72}D{:>7}".format(line2, dseq + 1))
            dseq += 2
        for i, (chunk, de) in enumerate(self.plines, start=1):
            out.append("{:<64} {:>7}P{:>7}".format(chunk, de, i))
        totals = "S{:>7}G{:>7}D{:>7}P{:>7}".format(
            1, len(glines), len(self.dlines) * 2, len(self.plines)
        )
        out.append("{:<72}T{:>7}".format(totals, 1))
        return "\n".join(out) + "\n"


def _curve_params(curve):
    n = curve.control_points.shape[0]
    K = n - 1
    M = curve.degree
    params = [str(K), str(M), "1", "0", "0", "0"]
    params += [_fmt_real(k) for k in curve.knot_vector.knots]
    params += [_fmt_real(w) for w in curve.weights]
    for pt in curve.control_points:
        x, y = pt[0], pt[1]
        z = pt[2] if curve.dim == 3 else 0.0
        params += [_fmt_real(x), _fmt_real(y), _fmt_real(z)]
    params += [_fmt_real(0.0), _fmt_real(1.0)]
    params += [_fmt_real(0.0), _fmt_real(0.0), _fmt_real(1.0)]
    return params


def _surface_params(surface):
    A, B = surface.weights.shape
    p, q = surface.degrees
    params = [str(A - 1), str(B - 1), str(p), str(q), "0", "0", "0", "0", "0"]
    params += [_fmt_real(k) for k in surface.knot_vector_u.knots]
    params += [_fmt_real(k) for k in surface.knot_vector_v.knots]
    for b in range(B):           # first index fastest
        for a in range(A):
            params.append(_fmt_real(surface.weights[a, b]))
    for b in range(B):
        for a in range(A):
            params += [_fmt_real(c) for c in surface.control_net[a, b]]
    params += [_fmt_real(0.0), _fmt_real(1.0), _fmt_real(0.0), _fmt_real(1.0)]
    return params


def region_to_iges(region):
    """IGES text for a trimmed region: 128, two 126, one 102/142/144 chain."""
    w = _Writer()
    srf_de = w.add(128, _surface_params(region.surface))
    bottom_de = w.add(126, _curve_params(region.curve_bottom), status="00010500")
    top_de = w.add(126, _curve_params(region.curve_top), status="00010500")
    comp_de = w.add(102, ["2", str(bottom_de), str(top_de)], status="00010500")
    cos_de = w.add(
        142, ["1", str(srf_de), str(comp_de), "0", "1"], status="00010500"
    )
    w.add(144, [str(srf_de), "1", "0", str(cos_de)])
    return w.render("trimmed surface region")
