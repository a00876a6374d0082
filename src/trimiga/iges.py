"""IGES 5.3 card-image reader and writer for the trimming subset.

Supported entities: rational B-spline curve (126), rational B-spline
surface (128), curve on a parametric surface (142), trimmed parametric
surface (144), plus composite curve (102) as the glue 142 needs to point at
more than one curve. Anything else is recorded as skipped.

Files are 80-column records: data in columns 1..64 (P section) or 1..72
(S/G sections), directory entries as pairs of lines with ten 8-column
fields, section letter in column 73 and a sequence number in columns
74..80. Knot vectors and trim-curve coordinates are renormalized to the
unit interval/square on ingestion; output reals carry 17 significant
digits, so a round trip is lossless well below 1e-9.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import IgesParseError, InvalidGeometryError, UnsupportedTopologyError
from .nurbs import KnotVector, NurbsCurve, NurbsSurface
from .trimming import TrimmedRegion

_STRAIGHT_TOL = 1e-9
_GAP_TOL = 1e-6


@dataclass
class DirectoryEntry:
    de: int              # sequence number of the first directory line (odd)
    etype: int
    pd_pointer: int      # first parameter line sequence number
    pd_count: int        # number of parameter lines
    form: int
    status: str
    params: list = field(default_factory=list)
    first_param_line: int | None = None  # file line of the first parameter record


@dataclass
class TrimmedSurfaceRecord:
    """One 144 entity resolved down to its parameter-space boundary curves."""

    de: int
    surface_de: int
    boundary_des: tuple
    inner_loops: int  # N2, the count of inner boundaries (holes)


@dataclass
class IgesModel:
    entries: dict
    curves: dict          # de -> NurbsCurve (3D model points; z = 0 for planar)
    curve_ranges: dict    # de -> (t0, t1) original knot range
    surfaces: dict        # de -> NurbsSurface
    surface_ranges: dict  # de -> (u0, u1, v0, v1) original knot ranges
    composites: dict      # de -> tuple of member DEs
    curves_on_surface: dict  # de -> (surface_de, param_curve_de)
    trimmed: list         # TrimmedSurfaceRecord
    skipped: dict         # entity type -> count
    diagnostics: list     # human-readable warnings (gaps etc.)


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
    if not sections["D"]:
        raise IgesParseError("missing directory section")
    if not sections["P"]:
        raise IgesParseError("missing parameter section")
    if not sections["T"]:
        raise IgesParseError("missing terminate section")
    return sections


def _global_delimiters(glines):
    """Parameter and record delimiters from the G section (defaults , and ;)."""
    if not glines:
        return ",", ";"
    text = "".join(line[:72] for _, _, line in glines)
    lineno = glines[0][0]

    def read_delim(pos, default):
        if pos >= len(text) or text[pos] == default:
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

    param, pos = read_delim(0, ",")
    record, _ = read_delim(pos, ";")
    return param, record


def _parse_directory(dlines):
    if len(dlines) % 2:
        raise IgesParseError("directory section has an odd number of lines", dlines[-1][0], "D")
    entries = {}
    for k in range(0, len(dlines), 2):
        lineno1, seq1, line1 = dlines[k]
        lineno2, _, line2 = dlines[k + 1]
        f1 = [line1[i * 8 : (i + 1) * 8] for i in range(9)]
        f2 = [line2[i * 8 : (i + 1) * 8] for i in range(9)]
        etype = _num(f1[0], lineno1, "D", int)
        etype2 = _num(f2[0], lineno2, "D", int)
        if etype != etype2:
            raise IgesParseError(
                f"directory entry {seq1}: entity type mismatch {etype} vs {etype2}",
                lineno2,
                "D",
            )
        entries[seq1] = DirectoryEntry(
            de=seq1,
            etype=etype,
            pd_pointer=_num(f1[1], lineno1, "D", int),
            pd_count=_num(f2[3], lineno2, "D", int),
            form=_num(f2[4], lineno2, "D", int),
            status=f1[8],
        )
    return entries


def _attach_parameters(entries, plines, param_delim, record_delim):
    by_seq = {}
    for lineno, seq, line in plines:
        if seq in by_seq:
            raise IgesParseError(f"duplicate parameter line {seq}", lineno, "P")
        by_seq[seq] = (lineno, line)
    for entry in entries.values():
        if entry.pd_pointer <= 0 or entry.pd_count <= 0:
            raise IgesParseError(
                f"directory entry {entry.de}: bad parameter pointer/count "
                f"{entry.pd_pointer}/{entry.pd_count}",
                section="D",
            )
        chunks = []
        first_lineno = None
        for seq in range(entry.pd_pointer, entry.pd_pointer + entry.pd_count):
            if seq not in by_seq:
                raise IgesParseError(
                    f"directory entry {entry.de}: missing parameter line {seq}",
                    section="P",
                )
            lineno, line = by_seq[seq]
            first_lineno = first_lineno or lineno
            back = line[64:72].strip()
            if back and back.isdigit() and int(back) != entry.de:
                raise IgesParseError(
                    f"parameter line {seq} back-pointer {back} does not match "
                    f"directory entry {entry.de}",
                    lineno,
                    "P",
                )
            chunks.append(line[:64])
        data = "".join(chunks)
        record, sep, _ = data.partition(record_delim)
        if not sep:
            raise IgesParseError(
                f"directory entry {entry.de}: unterminated parameter record",
                first_lineno,
                "P",
            )
        tokens = [tok.strip() for tok in record.split(param_delim)]
        if not tokens:
            raise IgesParseError(
                f"directory entry {entry.de}: empty parameter record", first_lineno, "P"
            )
        lead = _num(tokens[0], first_lineno, "P", int)
        if lead != entry.etype:
            raise IgesParseError(
                f"directory entry {entry.de}: parameter record starts with entity "
                f"type {lead}, expected {entry.etype}",
                first_lineno,
                "P",
            )
        entry.params = tokens[1:]
        entry.first_param_line = first_lineno


def _take(params, count, entry, what):
    if len(params) < count:
        raise IgesParseError(
            f"entity {entry.etype} (D{entry.de}): parameter record ended while "
            f"reading {what}",
            entry.first_param_line,
            "P",
        )
    return params[:count], params[count:]


def _build_curve_126(entry):
    lineno = entry.first_param_line
    head, rest = _take(entry.params, 6, entry, "curve header")
    K = _num(head[0], lineno, "P", int)
    M = _num(head[1], lineno, "P", int)
    if K < 0 or M < 0 or K < M:
        raise IgesParseError(
            f"entity 126 (D{entry.de}): invalid indices K={K}, M={M}", lineno, "P"
        )
    nknots = K + M + 2
    ncp = K + 1
    knots_txt, rest = _take(rest, nknots, entry, "knot sequence")
    weights_txt, rest = _take(rest, ncp, entry, "weights")
    pts_txt, rest = _take(rest, 3 * ncp, entry, "control points")
    knots = [_num(t, lineno, "P") for t in knots_txt]
    weights = [_num(t, lineno, "P") for t in weights_txt]
    pts = np.array([_num(t, lineno, "P") for t in pts_txt]).reshape(ncp, 3)
    try:
        kv = KnotVector(knots, M)
        curve = NurbsCurve(kv, pts, weights)
    except InvalidGeometryError as exc:
        raise IgesParseError(f"entity 126 (D{entry.de}): {exc}", lineno, "P") from None
    return curve, (knots[0], knots[-1])


def _build_surface_128(entry):
    lineno = entry.first_param_line
    head, rest = _take(entry.params, 9, entry, "surface header")
    K1 = _num(head[0], lineno, "P", int)
    K2 = _num(head[1], lineno, "P", int)
    M1 = _num(head[2], lineno, "P", int)
    M2 = _num(head[3], lineno, "P", int)
    if min(K1, K2, M1, M2) < 0 or K1 < M1 or K2 < M2:
        raise IgesParseError(
            f"entity 128 (D{entry.de}): invalid indices K1={K1}, K2={K2}, "
            f"M1={M1}, M2={M2}",
            lineno,
            "P",
        )
    nu, nv = K1 + 1, K2 + 1
    ku_txt, rest = _take(rest, K1 + M1 + 2, entry, "u knots")
    kv_txt, rest = _take(rest, K2 + M2 + 2, entry, "v knots")
    w_txt, rest = _take(rest, nu * nv, entry, "weights")
    p_txt, rest = _take(rest, 3 * nu * nv, entry, "control points")
    ku = [_num(t, lineno, "P") for t in ku_txt]
    kvv = [_num(t, lineno, "P") for t in kv_txt]
    # first parameter index varies fastest in the flat IGES ordering
    weights = np.array([_num(t, lineno, "P") for t in w_txt]).reshape(nv, nu).T
    net = (
        np.array([_num(t, lineno, "P") for t in p_txt])
        .reshape(nv, nu, 3)
        .transpose(1, 0, 2)
    )
    try:
        surface = NurbsSurface(KnotVector(ku, M1), KnotVector(kvv, M2), net, weights)
    except InvalidGeometryError as exc:
        raise IgesParseError(f"entity 128 (D{entry.de}): {exc}", lineno, "P") from None
    return surface, (ku[0], ku[-1], kvv[0], kvv[-1])


def _pointer(token, entry):
    value = _num(token, entry.first_param_line, "P", int)
    if value < 0:
        value = -value  # negative pointers flag alternate use; the target is the same
    return value


def parse(text):
    """Parse IGES text into an IgesModel; raises IgesParseError on bad input."""
    sections = _split_sections(text)
    param_delim, record_delim = _global_delimiters(sections["G"])
    entries = _parse_directory(sections["D"])
    _attach_parameters(entries, sections["P"], param_delim, record_delim)

    model = IgesModel(
        entries=entries,
        curves={},
        curve_ranges={},
        surfaces={},
        surface_ranges={},
        composites={},
        curves_on_surface={},
        trimmed=[],
        skipped={},
        diagnostics=[],
    )
    for de, entry in sorted(entries.items()):
        if entry.etype == 126:
            curve, rng = _build_curve_126(entry)
            model.curves[de] = curve
            model.curve_ranges[de] = rng
        elif entry.etype == 128:
            surface, rng = _build_surface_128(entry)
            model.surfaces[de] = surface
            model.surface_ranges[de] = rng
        elif entry.etype == 102:
            head, rest = _take(entry.params, 1, entry, "composite count")
            n = _num(head[0], entry.first_param_line, "P", int)
            if n < 1:
                raise IgesParseError(
                    f"entity 102 (D{de}): needs at least one member", section="P"
                )
            ptr_txt, _ = _take(rest, n, entry, "composite members")
            model.composites[de] = tuple(_pointer(t, entry) for t in ptr_txt)
        elif entry.etype == 142:
            head, _ = _take(entry.params, 5, entry, "curve-on-surface record")
            sptr = _pointer(head[1], entry)
            bptr = _pointer(head[2], entry)
            # the model-space pointer and preference flag are ignored: the
            # parameter-space representation is always used
            model.curves_on_surface[de] = (sptr, bptr)
        elif entry.etype == 144:
            head, rest = _take(entry.params, 4, entry, "trimmed surface record")
            pts = _pointer(head[0], entry)
            n1 = _num(head[1], entry.first_param_line, "P", int)
            n2 = _num(head[2], entry.first_param_line, "P", int)
            pto = _pointer(head[3], entry)
            if n2 > 0:
                model.diagnostics.append(
                    f"trimmed surface D{de}: {n2} inner boundary(ies) not supported"
                )
            model.trimmed.append((de, pts, n1, n2, pto))
        else:
            model.skipped[entry.etype] = model.skipped.get(entry.etype, 0) + 1

    resolved = []
    for de, pts, n1, n2, pto in model.trimmed:
        if pts not in model.surfaces:
            raise IgesParseError(
                f"trimmed surface D{de}: dangling surface pointer D{pts}"
            )
        if n1 == 0 or pto == 0:
            resolved.append(TrimmedSurfaceRecord(de, pts, (), n2))
            continue
        if pto not in model.curves_on_surface:
            raise IgesParseError(
                f"trimmed surface D{de}: dangling boundary pointer D{pto}"
            )
        sptr, bptr = model.curves_on_surface[pto]
        if sptr != pts:
            model.diagnostics.append(
                f"trimmed surface D{de}: boundary D{pto} references surface "
                f"D{sptr}, expected D{pts}"
            )
        if bptr in model.composites:
            members = model.composites[bptr]
        else:
            members = (bptr,)
        for member in members:
            if member not in model.curves:
                raise IgesParseError(
                    f"trimmed surface D{de}: boundary member D{member} is not a "
                    "supported curve entity"
                )
        resolved.append(TrimmedSurfaceRecord(de, pts, tuple(members), n2))
    model.trimmed = resolved
    return model


def parse_file(path):
    with open(path, encoding="utf-8", errors="replace") as fh:
        return parse(fh.read())


# ---------------------------------------------------------------------------
# region extraction


def _to_parameter_curve(curve, ranges):
    """Drop z and rescale control points into the unit parameter square."""
    u0, u1, v0, v1 = ranges
    pts = curve.control_points[:, :2].copy()
    pts[:, 0] = (pts[:, 0] - u0) / (u1 - u0)
    pts[:, 1] = (pts[:, 1] - v0) / (v1 - v0)
    return NurbsCurve(curve.knot_vector, pts, curve.weights)


def _is_straight(curve):
    pts = curve.control_points
    chord = pts[-1] - pts[0]
    norm = np.linalg.norm(chord)
    if norm < _STRAIGHT_TOL:
        return False
    direction = chord / norm
    rel = pts - pts[0]
    off = rel - np.outer(rel @ direction, direction)
    return float(np.max(np.linalg.norm(off, axis=1))) <= _STRAIGHT_TOL


def _mean_point(curve, n=33):
    return curve.evaluate(np.linspace(0.0, 1.0, n), 0).value.mean(axis=0)


def _parameter_curves(model, record):
    """The record's boundary curves in the unit parameter square."""
    ranges = model.surface_ranges[record.surface_de]
    return [_to_parameter_curve(model.curves[de], ranges) for de in record.boundary_des]


def extract_region(model, trimmed_index=0):
    """Build a TrimmedRegion from the indexed trimmed-surface record.

    The outer boundary must reduce to exactly two non-straight curves once
    straight closing edges are removed, and there must be no inner boundary
    (a two-curve map has no holes). Bottom/top follow the mean v-coordinate
    (ties broken by mean u); the top curve is reversed when needed so both
    advance in the same s-direction.
    """
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
    curves = _parameter_curves(model, record)
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
    first, second = curves
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
    region = TrimmedRegion(model.surfaces[record.surface_de], bottom, top)
    report = region.validate(16)
    if not report.ok:
        raise UnsupportedTopologyError(
            f"trimmed surface D{record.de}: extracted region fails validation\n"
            + report.summary()
        )
    return region


def boundary_gap_diagnostics(model, tol=_GAP_TOL):
    """Endpoint mismatches between consecutive boundary-loop curves above tol.

    Two-curve boundaries are skipped: their closing edges are implied, so
    the end gaps are intentional.
    """
    notes = []
    for record in model.trimmed:
        if len(record.boundary_des) <= 2:
            continue
        curves = _parameter_curves(model, record)
        for k in range(len(curves)):
            here = curves[k].evaluate(1.0, 0).value
            there = curves[(k + 1) % len(curves)].evaluate(0.0, 0).value
            gap = float(np.linalg.norm(here - there))
            if gap > tol:
                notes.append(
                    f"trimmed surface D{record.de}: gap {gap:.3e} between boundary "
                    f"curves {k} and {(k + 1) % len(curves)}"
                )
    return notes


# ---------------------------------------------------------------------------
# writing


def _fmt_real(x):
    return format(float(x), ".17G")


class _Writer:
    def __init__(self):
        self.dlines = []
        self.plines = []
        self.next_de = 1

    def add(self, etype, params, status="00000000", form=0):
        de = self.next_de
        body = [str(etype)] + params
        chunks = self._pack(body)
        pd_pointer = len(self.plines) + 1
        for chunk in chunks:
            self.plines.append((chunk, de))
        self.dlines.append(
            (etype, pd_pointer, len(chunks), form, status, de)
        )
        self.next_de += 2
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
        for etype, pd_pointer, pd_count, form, status, de in self.dlines:
            line1 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
                etype, pd_pointer, 0, 0, 0, 0, 0, 0, status
            )
            line2 = "{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}{:>8}".format(
                etype, 0, 0, pd_count, form, "", "", "", 0
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


def save_region_iges(region, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(region_to_iges(region))
