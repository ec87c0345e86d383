"""Command-line front end.

Every public library operation is reachable from at least one subcommand.
Each subcommand is one ``@command`` declaration on its handler: its group,
name, help line and arguments, each ``arg`` being one ``add_argument`` call
written as data.  The declaration does not say which operations a handler
calls: the golden-case test observes it, by running the recorded invocations
until each required operation has been called.  Reports are deterministic:
identical inputs, seeds, and package version give byte-identical output.

A subcommand's parser is built when parsing reaches it.  ``build_parser``
builds the top-level parser, which lists every group and command in its
help; a group's parser, and a command's parser with its arguments, is
built only when argparse dispatches to it.  So a command builds at most
three parsers, not the whole tree, and its help and usage text are what
the whole tree printed.

Exit codes: 0 success, 1 a check ran and failed, 2 unusable input.  Each
handler returns a ``Report`` and ``main`` alone turns errors into exit
codes: an ``InputError`` (bad syntax, a missing file or corpus, a value
outside the domain of the operation) exits 2 with ``error:``; every other
``SegalError`` means a computation ran and its check failed, and exits 1
with ``check failed:``.  ``main`` is the in-process entry and returns the
code; ``run`` is the process entry, which exits with it.
"""

from __future__ import annotations

import argparse
import atexit
import dataclasses
import functools
import json
import math
import os
import random
import sys
from typing import Callable, NoReturn, Optional, Sequence

from . import __version__, acceptance, beltrami, cobordism, corpus, flattening, modulus, quasisym
from . import chains as chainalg
from ._input import file_float, load_file, number_text, read_text
from .errors import DomainError, InputError, SegalError


# ---------------------------------------------------------------------------
# parsing helpers: an argument names one as its ``type``, so its value reaches
# the handler parsed and a ``DomainError`` exits 2


def parse_complex(s: str) -> complex:
    """Accept Python literals like 0.1+0.2j or comma pairs like 0.1,0.2."""
    try:
        txt = number_text(s.strip())
        if "," in txt:
            re_s, im_s = txt.split(",")
            return complex(float(re_s), float(im_s))
        return complex(txt)
    except ValueError:
        raise DomainError(f"cannot parse complex number from {s!r}")


def real(what: str, kind: Callable[[str], float] = float) -> Callable[[str], float]:
    """The parser of one float, or of one ``kind`` such as ``int``; text that
    is not one is an error naming ``what``."""

    def parse_real(s: str) -> float:
        try:
            return kind(number_text(s))
        except ValueError:
            raise DomainError(f"cannot parse {what} from {s!r}")

    parse_real.__name__ = f"parse_{kind.__name__}"
    return parse_real


def labels(most: Optional[int] = None) -> Callable[[str], tuple[str, ...]]:
    """The parser of comma-separated labels, each non-empty, at most ``most``."""

    def parse_labels(text: str) -> tuple[str, ...]:
        found = tuple(text.split(","))
        if not all(found):
            raise DomainError("labels must be non-empty strings")
        if most is not None and len(found) > most:
            raise DomainError(f"give at most {most} labels, got {len(found)}")
        return found

    return parse_labels


def parse_points(text: str) -> list[complex]:
    return [parse_complex(p) for p in text.split(";")]


def parse_indices(text: str) -> list[int]:
    try:
        return [int(number_text(s)) for s in text.split(",")]
    except ValueError:
        raise DomainError(f"--only takes comma-separated integers, got {text!r}")


def load_octype(path: str) -> cobordism.OCType:
    return load_file(path, cobordism.octype_from_json, "surface-type")


def load_valid_octype(path: str) -> cobordism.OCType:
    """A surface type that passes ``validate_type``; its first violation is an input error."""
    t = load_octype(path)
    violations = cobordism.validate_type(t).violations
    if violations:
        raise DomainError(f"{path}: {violations[0]}")
    return t


def load_field(path: str) -> beltrami.DilatationField:
    return load_file(path, beltrami.DilatationField.from_json, "dilatation-field")


def _float_reads(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def load_sampled_csv(path: str) -> quasisym.SampledIncreasingFunction:
    """Two-column x,y file; a first line in which ``float`` reads neither
    cell is a header, and every other line is a sample under ``file_float``."""
    xs: list[float] = []
    ys: list[float] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError(f"{path}:{lineno}: expected two comma-separated columns")
        try:
            x, y = file_float(parts[0]), file_float(parts[1])
        except ValueError:
            if lineno == 1 and not any(map(_float_reads, parts)):
                continue
            raise DomainError(f"{path}:{lineno}: non-numeric sample")
        xs.append(x)
        ys.append(y)
    try:
        return quasisym.SampledIncreasingFunction(tuple(xs), tuple(ys))
    except SegalError as e:
        raise DomainError(f"{path}: {e}")


def parse_profile(kind: str) -> quasisym.CircleDiffeo:
    if kind == "piecewise":
        return quasisym.half_angle_piecewise()
    if kind == "smooth":
        return quasisym.half_angle_smooth()
    if kind == "identity":
        return quasisym.circle_identity()
    if kind.startswith("rotation:"):
        return quasisym.circle_rotation(real("rotation angle")(kind[9:]))
    raise DomainError(f"unknown profile {kind!r}; use {PROFILES}")


def parse_function(kind: str) -> Callable[[int], quasisym.SampledIncreasingFunction]:
    """The sampler ``kind`` names; it takes the sample count."""
    if kind == "identity":
        return quasisym.sampled_identity
    if kind.startswith("slope:"):
        return functools.partial(quasisym.sampled_slope_break, real("slope")(kind[6:]))
    if kind.startswith("exp:"):
        return functools.partial(quasisym.sampled_exp, real("window size")(kind[4:]))
    raise DomainError(f"unknown function {kind!r}; use {FUNCTIONS}")


def parse_glue(kind: str) -> tuple[str, flattening.BoundaryGlueMap]:
    """The text ``kind`` and the glue map it names, so a report can echo the text."""
    # parsed before the try, so a number-parse error carries no glue-map prefix
    if kind == "identity":
        build, params = flattening.glue_identity, ()
    elif kind.startswith("linear:"):
        build, params = flattening.glue_linear, (real("slope")(kind[7:]),)
    elif kind.startswith("sine:"):
        build, params = flattening.glue_sine, (real("amplitude")(kind[5:]),)
    else:
        raise DomainError(f"unknown glue map {kind!r}; use {GLUES}")
    try:
        return kind, build(*params)
    except SegalError as e:
        raise DomainError(f"glue map {kind!r}: {e}")


def only_one(given: dict[str, bool]) -> None:
    """Reject an invocation that gives more than one of these inputs, as a
    command reads only one of them."""
    if sum(given.values()) > 1:
        *rest, last = given
        raise DomainError(f"give only one of {', '.join(rest)}{',' * (len(rest) > 1)} or {last}")


# ---------------------------------------------------------------------------
# output


@dataclasses.dataclass(frozen=True)
class Report:
    """What a handler hands back: its payload, text form and exit code.

    A report with a ``schema`` gains ``schema`` and ``version`` keys; one
    without (a type or field document) is printed and written as it is.
    Without ``lines`` the text form is one ``key with spaces: value`` line
    per payload field.
    """

    payload: dict
    schema: Optional[str] = None
    lines: Optional[list[str]] = None
    code: int = 0


def cfmt(z: complex) -> str:
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}j"


def fmt(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, complex):
        return cfmt(v)
    return repr(v)


def jsonable(v):
    """Payload value with every complex number as a [re, im] pair and every
    non-finite float as None, so the JSON it dumps is strict."""
    if isinstance(v, float) and not math.isfinite(v):
        return None
    if isinstance(v, complex):
        return [jsonable(v.real), jsonable(v.imag)]
    if isinstance(v, dict):
        return {k: jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [jsonable(x) for x in v]
    return v


def emit(args: argparse.Namespace, report: Report) -> int:
    output = getattr(args, "output", None)
    if output or args.format == "json":  # one JSON text, for -o and for stdout
        payload = jsonable(report.payload)
        if report.schema:
            payload = {"schema": report.schema, "version": __version__, **payload}
        doc = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as fh:
                fh.write(doc)
        except BrokenPipeError:  # -o /dev/stdout, its reader gone: exit 141 as for stdout
            raise
        except OSError as e:
            raise DomainError(f"{output}: {e.strerror or e}") from None
    if args.format == "json":
        print(doc, end="")
    else:
        lines = report.lines
        if lines is None:
            lines = [f"{k.replace('_', ' ')}: {fmt(v)}" for k, v in report.payload.items()]
        for line in lines:
            print(line)
    return report.code


def type_report(t: cobordism.OCType) -> Report:
    lines = [
        f"components: {len(t.components)}",
        f"in signature: {t.in_signature.describe()}",
        f"out signature: {t.out_signature.describe()}",
    ]
    for i, comp in enumerate(t.components):
        lines.append(
            f"component {i}: genus={comp.genus} closed_in={len(comp.closed_in)} "
            f"closed_out={len(comp.closed_out)} cycles={len(comp.cycles)}"
        )
    return Report(cobordism.octype_to_json(t), lines=lines)


def field_report(f: beltrami.DilatationField) -> Report:
    lines = [
        f"grid: {f.ny}x{f.nx}",
        f"rectangle: [{f.x0!r}, {f.x1!r}] x [{f.y0!r}, {f.y1!r}]",
        f"sup |mu|: {f.sup_abs()!r}",
    ]
    return Report(f.to_json(), lines=lines)


# ---------------------------------------------------------------------------
# declarations


# one ``add_argument`` call: its positional and its keyword arguments
Arg = tuple[tuple[str, ...], dict]


@dataclasses.dataclass(frozen=True)
class Command:
    group: Optional[str]
    name: str
    help: str
    args: tuple[Arg, ...]
    run: Callable[[argparse.Namespace], Report]


# Every subcommand, in declaration order, which is the order of ``--help``.
COMMANDS: list[Command] = []


def arg(*flags: str, **options) -> Arg:
    """One ``add_argument`` call, written as data."""
    return flags, options


def command(group: Optional[str], name: str, help: str, *args):
    """Declare the decorated handler as ``segal [group] name`` with these arguments."""

    def declare(run: Callable[[argparse.Namespace], Report]):
        COMMANDS.append(Command(group, name, help, args, run))
        return run

    return declare


FUNCTIONS = "identity, slope:K, or exp:T"
GLUES = "identity, linear:K, or sine:A"
PROFILES = "piecewise, smooth, identity, or rotation:ANGLE"
OUTPUT = arg("-o", "--output", help="also write the JSON that --format json prints here")
TWO_TYPES = (
    arg("first", help="surface-type JSON file"),
    arg("second", help="surface-type JSON file"),
    OUTPUT,
)


# ---------------------------------------------------------------------------
# handlers: surface types


@command(
    "types", "validate", "check structural invariants of a surface type",
    arg("file", help="surface-type JSON file"),
)
def run_types_validate(args) -> Report:
    rep = cobordism.validate_type(load_octype(args.file))
    lines = [f"ok: {fmt(rep.ok)}"] + [f"violation: {v}" for v in rep.violations]
    payload = {"ok": rep.ok, "violations": list(rep.violations)}
    return Report(payload, "segal.report.validate/1", lines, 0 if rep.ok else 1)


@command("types", "compose", "splice two types along matching boundaries", *TWO_TYPES)
def run_types_compose(args) -> Report:
    t1, t2 = load_valid_octype(args.first), load_valid_octype(args.second)
    return type_report(cobordism.compose_types(t1, t2))


@command("types", "union", "place two types side by side", *TWO_TYPES)
def run_types_union(args) -> Report:
    t1, t2 = load_valid_octype(args.first), load_valid_octype(args.second)
    return type_report(cobordism.disjoint_union(t1, t2))


@command(
    "types", "stability", "report per-component stability",
    arg("file", help="surface-type JSON file"),
)
def run_types_stability(args) -> Report:
    rep = cobordism.is_stable(load_valid_octype(args.file))
    lines = [f"component {i}: {s}" for i, s in enumerate(rep.statuses)]
    lines.append(f"all stable: {fmt(rep.all_stable)}")
    payload = {"statuses": list(rep.statuses), "all_stable": rep.all_stable}
    return Report(payload, "segal.report.stability/1", lines, 0 if rep.all_stable else 1)


@command(
    "types", "random", "emit a seeded random type, optionally composable after a given one",
    arg("--seed", type=real("seed", int), default=0),
    arg("--successor", help="emit a type composable after this one", default=None),
    OUTPUT,
)
def run_types_random(args) -> Report:
    rng = random.Random(args.seed)
    if args.successor:
        return type_report(corpus.random_successor(rng, load_valid_octype(args.successor)))
    return type_report(corpus.random_octype(rng))


@command(
    "types", "enumerate", "count the bounded single-component type grammar",
    arg("--labels", type=labels(), default="a,b", help="comma-separated interval labels"),
)
def run_types_enumerate(args) -> Report:
    count = len(corpus.enumerate_small_types(args.labels))
    payload = {"labels": list(args.labels), "count": count}
    return Report(payload, "segal.enumeration/1", [f"count: {count}"])


# ---------------------------------------------------------------------------
# handlers: dilatation calculus


@command(
    "belt", "distance", "distance between two fields or two scalar values",
    arg("first", nargs="?", help="dilatation-field JSON file"),
    arg("second", nargs="?", help="dilatation-field JSON file"),
    arg("--mu", type=parse_complex, nargs=2, metavar=("MU1", "MU2"), help="two scalar values"),
)
def run_belt_distance(args) -> Report:
    only_one({"field files": args.first is not None, "--mu": args.mu is not None})
    if args.mu:
        d = beltrami.teichmuller_distance(*args.mu)
        ks = [beltrami.dilatation_K(mu) for mu in args.mu]
        payload = {"kind": "scalar", "distance": d, "dilatations": ks}
        lines = [f"distance: {d!r}", f"K1: {ks[0]!r}", f"K2: {ks[1]!r}"]
    else:
        if not (args.first and args.second):
            raise DomainError("provide two field files or --mu MU1 MU2")
        d = beltrami.field_distance(load_field(args.first), load_field(args.second))
        payload = {"kind": "field", "distance": d}
        lines = [f"distance: {d!r}"]
    return Report(payload, "segal.report.distance/1", lines)


def field_or_value(args, schema: str, of_value, of_field, *params) -> Report:
    """The ``schema`` report of ``of_value(--value, *params)``, or the field of ``of_field``."""
    only_one({"a field file": args.field is not None, "--value": args.value is not None})
    if args.value is not None:
        return Report({"value": of_value(args.value, *params)}, schema)
    if not args.field:
        raise DomainError("provide a field file or --value MU")
    return field_report(of_field(load_field(args.field), *params))


@command(
    "belt", "transform", "push dilatation data through a chart change",
    arg("field", nargs="?", help="dilatation-field JSON file"),
    arg("--value", type=parse_complex, help="transform one scalar instead of a field"),
    arg("--mu-f", type=parse_complex, required=True, help="dilatation of the chart change"),
    arg("--fz", type=parse_complex, required=True, help="holomorphic derivative at the point"),
    arg("--fzbar", type=parse_complex, help="antiholomorphic derivative; default mu_f*fz"),
    OUTPUT,
)
def run_belt_transform(args) -> Report:
    chart = (args.mu_f, args.fz, args.mu_f * args.fz if args.fzbar is None else args.fzbar)
    return field_or_value(
        args, "segal.report.transform/1", beltrami.transform_mu, beltrami.transform_field, *chart
    )


@command(
    "belt", "pullback", "pull dilatation data back along an overlap map",
    arg("field", nargs="?", help="dilatation-field JSON file"),
    arg("--value", type=parse_complex, help="pull back one scalar instead of a field"),
    arg("--mu-g", type=parse_complex, required=True, help="dilatation of the overlap map"),
    arg("--u", type=parse_complex, required=True,
        help="derivative coefficient of the overlap map"),
    OUTPUT,
)
def run_belt_pullback(args) -> Report:
    return field_or_value(
        args, "segal.report.pullback/1", beltrami.pullback_mu, beltrami.pullback_field,
        args.mu_g, args.u,
    )


@command(
    "belt", "sew", "join two fields along a shared edge",
    arg("first", help="dilatation-field JSON file"),
    arg("second", help="dilatation-field JSON file"),
    arg("--seam", choices=("x", "y"), default="x"),
    OUTPUT,
)
def run_belt_sew(args) -> Report:
    f1, f2 = load_field(args.first), load_field(args.second)
    return field_report(beltrami.sew_sections(f1, f2, args.seam))


@command(
    "belt", "acs", "convert between dilatation values, structure matrices, and frames",
    arg("--mu", type=parse_complex, help="dilatation value to convert to a structure matrix"),
    arg("--frame", type=real("frame entry"), nargs=2, metavar=("A", "B"),
        help="frame coefficients"),
    arg("--K", type=real("dilatation"), help="dilatation bound to convert to |mu|"),
    arg("--linear", type=parse_complex, nargs=2, metavar=("A", "B"),
        help="z and conj(z) coefficients"),
)
def run_belt_acs(args) -> Report:
    only_one({f"--{k}": getattr(args, k) is not None for k in ("mu", "frame", "K", "linear")})
    if args.mu is not None:
        j = beltrami.acs_from_mu(args.mu)
        payload = {
            "matrix": [[j.j11, j.j12], [j.j21, j.j22]],
            "mu": beltrami.mu_from_acs(j),
            "dilatation": beltrami.dilatation_K(args.mu),
        }
    elif args.frame is not None:
        j = beltrami.acs_from_frame(*args.frame)
        payload = {"matrix": [[j.j11, j.j12], [j.j21, j.j22]], "mu": beltrami.mu_from_acs(j)}
    elif args.K is not None:
        payload = {"abs_mu": beltrami.abs_mu_from_K(args.K)}
    elif args.linear is not None:
        mu = beltrami.mu_of_linear(beltrami.LinearMapZZbar(*args.linear))
        payload = {"mu": mu, "dilatation": beltrami.dilatation_K(mu)}
    else:
        raise DomainError("provide one of --mu, --frame, --K, --linear")
    return Report(payload, "segal.report.acs/1")


# ---------------------------------------------------------------------------
# handlers: quasisymmetry


@command(
    "qs", "bound", "quasisymmetry constant of an increasing function",
    arg("--fn", type=parse_function, help=f"{FUNCTIONS}; default identity"),
    arg("--file", help="CSV file of x,y samples"),
    arg("--n", type=real("sample count", int),
        help="sample count for built-in functions; default 256"),
    arg("--inverted", action="store_true", help="bound the inverse instead"),
)
def run_qs_bound(args) -> Report:
    only_one({"--file": args.file is not None, "--fn/--n": (args.fn, args.n) != (None, None)})
    if args.file is not None:
        h = load_sampled_csv(args.file)
    else:
        h = (args.fn or quasisym.sampled_identity)(256 if args.n is None else args.n)
    if args.inverted:
        h = h.inverted()
    return Report({"bound": quasisym.qs_bound(h), "samples": len(h.xs)}, "segal.report.qsbound/1")


@command(
    "qs", "corner", "radial square-root map with a boundary profile",
    arg("--profile", type=parse_profile, default="piecewise", help=PROFILES),
    arg("--points", type=parse_points, default=(),
        help="semicolon-separated complex points to map"),
)
def run_qs_corner(args) -> Report:
    k = quasisym.corner_dilatation(args.profile)
    lo, hi = args.profile.deriv_min, args.profile.deriv_max
    sigma = quasisym.corner_transform(args.profile)
    rim = [complex(math.cos(2 * math.pi * j / 8), math.sin(2 * math.pi * j / 8)) for j in range(8)]
    images = [sigma(z) for z in rim]
    extra = [sigma(p) for p in args.points]
    lines = [f"dilatation: {k!r}", f"derivative range: [{lo!r}, {hi!r}]"]
    lines += [f"rim {j}: {cfmt(z)}" for j, z in enumerate(images)]
    lines += [f"point {j}: {cfmt(z)}" for j, z in enumerate(extra)]
    payload = {
        "dilatation": k,
        "derivative_range": [lo, hi],
        "rim_images": images,
        "point_images": extra,
    }
    return Report(payload, "segal.report.corner/1", lines)


@command(
    "qs", "twist", "extend a circle map to an annulus, identity outside",
    arg("--profile", type=parse_profile, default="smooth", help=PROFILES),
    arg("--r1", type=real("twist radius r1"), default=1.0),
    arg("--r2", type=real("twist radius r2"), default=2.0),
)
def run_qs_twist(args) -> Report:
    _twist, rep = quasisym.smooth_twist(args.profile, args.r1, args.r2)
    return Report(dataclasses.asdict(rep), "segal.report.twist/1")


# ---------------------------------------------------------------------------
# handlers: conformal modules


@command(
    "module", "compute", "conformal module at positions, of a quad, or of a rectangle",
    arg("positions", type=real("position"), nargs="*",
        help="normalized fourth-point positions, |x| > 1"),
    arg("--quad", type=real("marked point"), nargs=4, metavar=("Z0", "Z1", "Z2", "Z3"),
        help="marked points"),
    arg("--rect", type=real("rectangle side"), nargs=2, metavar=("A", "B"),
        help="rectangle side lengths"),
)
def run_module_compute(args) -> Report:
    only_one(
        {"positions": bool(args.positions), "--quad": bool(args.quad), "--rect": bool(args.rect)}
    )
    if args.quad:
        q = modulus.QuadrilateralSpec(*args.quad)
        x = modulus.normalize_quad(q)
        m = modulus.module_of_quad(q)
        cr = modulus.cross_ratio(*q.vertices)
        payload = {"kind": "quad", "position": x, "module": m, "cross_ratio": cr}
        lines = [f"position: {x!r}", f"module: {m!r}", f"cross ratio: {cr!r}"]
    elif args.rect:
        m = modulus.module_rect(*args.rect)
        payload = {"kind": "rect", "module": m}
        lines = [f"module: {m!r}"]
    else:
        if not args.positions:
            raise DomainError("provide positions, --quad, or --rect")
        entries = []
        lines = []
        for x in args.positions:
            m = modulus.module_sc(x)
            xr = modulus.rotated_position(x)
            mr = modulus.module_sc(xr)
            entries.append({"position": x, "module": m, "rotated_position": xr, "product": m * mr})
            lines.append(f"x={x!r}: module={m!r} rotated={mr!r} product={m * mr!r}")
        payload = {"kind": "positions", "entries": entries}
    return Report(payload, "segal.report.module/1", lines)


@command(
    "module", "check-qc", "module distortion bounds under a horizontal stretch",
    arg("--K", type=real("distortion factor"), default=2.0, help="horizontal stretch factor"),
    arg("--corpus", help="directory holding quads.json"),
    arg("--generate", action="store_true", help="generate quads instead of loading"),
    arg("--seed", type=real("seed", int), help="seed for --generate; default 0"),
    arg("--count", type=real("quad count", int), help="quad count for --generate; default 50"),
    arg("--slack", type=real("slack"), default=1e-6),
)
def run_module_check_qc(args) -> Report:
    only_one({"--corpus": args.corpus is not None, "--generate": args.generate})
    if not args.generate and (args.seed is not None or args.count is not None):
        raise DomainError("give --seed and --count only with --generate")
    if args.generate:
        count = 50 if args.count is None else args.count
        quads = corpus.generate_quads(args.seed or 0, count)
    else:
        quads = corpus.load_corpus(args.corpus).quads
    specs = [modulus.QuadrilateralSpec(*q) for q in quads]
    report = modulus.check_geometric_qc(args.K, specs, slack=args.slack)
    payload = {
        "K": report.K,
        "quad_count": len(report.quad_ratios),
        "min_ratio": report.min_ratio,
        "max_ratio": report.max_ratio,
        "within_bounds": report.within_bounds,
    }
    lines = [
        f"K: {report.K!r}",
        f"quads: {len(report.quad_ratios)}",
        f"ratio range: [{report.min_ratio!r}, {report.max_ratio!r}]",
        f"within bounds: {fmt(report.within_bounds)}",
    ]
    return Report(payload, "segal.report.qc/1", lines, 0 if report.within_bounds else 1)


# ---------------------------------------------------------------------------
# handlers: chain algebra


def _simplex_str(s) -> str:
    if isinstance(s, chainalg.FormalSimplex):
        base = f"{s.label}{s.dimension}"
        if s.omitted:
            base += "/" + ",".join(str(v) for v in sorted(s.omitted))
        return base
    word = "".join(f"({a},{b})" for a, b in s.pairs)
    return f"{_simplex_str(s.left)}*{_simplex_str(s.right)}@{word}"


@command(
    "chains", "product", "shuffle product of two generators",
    arg("i", type=real("degree", int), help="degree of the first generator"),
    arg("j", type=real("degree", int), help="degree of the second generator"),
    arg("--labels", type=labels(most=2), default="a,b", help="labels LA,LB of the two generators"),
    arg("--boundary", action="store_true", help="print the boundary of the product"),
    arg("--swapped", action="store_true", help="print the factor-swapped product"),
)
def run_chains_product(args) -> Report:
    if args.i < 0 or args.j < 0:
        raise DomainError("degrees must be non-negative")
    if args.i + args.j > 8:
        raise DomainError("total degree above 8 is too large to print")
    only_one({"--boundary": args.boundary, "--swapped": args.swapped})
    # one label names both generators
    la, lb = (args.labels * 2)[:2]
    shown = chainalg.shuffle_product(
        chainalg.generator(la, args.i), chainalg.generator(lb, args.j)
    )
    kind = "product"
    if args.boundary:
        shown = chainalg.boundary(shown)
        kind = "boundary"
    elif args.swapped:
        shown = chainalg.swap_factors(shown)
        kind = "swapped"
    entries = [(_simplex_str(s), str(coef)) for s, coef in shown.sorted_terms()]
    payload = {
        "kind": kind,
        "terms": [{"simplex": s, "coefficient": c} for s, c in entries],
        "count": len(entries),
    }
    lines = [f"{c:>3s}  {s}" for s, c in entries] + [f"terms: {len(entries)}"]
    return Report(payload, "segal.report.chain/1", lines)


@command(
    "chains", "check", "sweep the product identities up to a degree",
    arg("--degree", type=real("degree", int), default=6, help="maximum total degree to sweep"),
)
def run_chains_check(args) -> Report:
    deg = args.degree
    if not 1 <= deg <= 8:
        raise DomainError("degree must be between 1 and 8")
    failures = chainalg.check_identities(deg)
    shown = {
        "chain_map": "chain map",
        "associativity": "associativity",
        "symmetry": "symmetry",
        "boundary_squares_to_zero": "d^2 = 0",
    }
    ok = not any(failures.values())
    payload = {"max_degree": deg, **{key: failures[key] == 0 for key in shown}, "ok": ok}
    lines = [f"{label}: {fmt(payload[key])}" for key, label in shown.items()]
    return Report(payload, "segal.report.chaincheck/1", lines, 0 if ok else 1)


# ---------------------------------------------------------------------------
# handlers: flattening


def _order_str(v) -> str:
    if v == flattening.INFINITE:
        return "inf"
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


@command(
    "appb", "orders", "tabulate the vanishing-order recursion",
    arg("k", type=real("step count", int), help="number of recursion steps to tabulate"),
)
def run_appb_orders(args) -> Report:
    if args.k < 0:
        raise DomainError("step count must be non-negative")
    if args.k > 200:
        raise DomainError("step count above 200 is not meaningful to print")
    seq = flattening.order_sequence(args.k)
    steps = [{"k": i, "m": p.m, "n": p.n} for i, p in enumerate(seq)]
    lines = [f"{i}: m={_order_str(p.m)} n={_order_str(p.n)}" for i, p in enumerate(seq)]
    return Report({"steps": steps}, "segal.report.orders/1", lines)


@command(
    "appb", "flatten", "fit field vanishing orders; optionally flatten one chart",
    arg("--glue", type=parse_glue, default="sine:0.1", help=GLUES),
    arg("--k", type=real("field level", int), default=1, help="deepest field level to fit"),
    arg("--chart", action="store_true", help="also flatten one field and certify it"),
    arg("--depth", type=real("recursion depth", int),
        help="field recursion depth for --chart; default 0"),
)
def run_appb_flatten(args) -> Report:
    glue, g = args.glue
    if not 0 <= args.k <= 2:
        raise DomainError("--k must be between 0 and 2")
    if args.depth is not None and not args.chart:
        raise DomainError("give --depth only with --chart")
    depth = args.depth or 0
    if not 0 <= depth <= 2:
        raise DomainError("--depth must be between 0 and 2")
    report = flattening.verify_orders(g, args.k)
    payload = {
        "glue": glue,
        "fits": [
            {
                "k": fit.k,
                "fitted_m": fit.fitted_m,
                "fitted_n": fit.fitted_n,
                "predicted_m": fit.predicted.m,
                "predicted_n": fit.predicted.n,
                "ok": fit.ok,
            }
            for fit in report.fits
        ],
        "all_ok": report.all_ok,
    }
    lines = ["k,fitted_m,fitted_n,predicted_m,predicted_n,ok"]
    for fit in report.fits:
        orders = (fit.fitted_m, fit.fitted_n, fit.predicted.m, fit.predicted.n)
        lines.append(",".join([str(fit.k), *map(_order_str, orders), fmt(fit.ok)]))
    if args.chart:
        field = flattening.structure_field_chain(g, depth)[-1]
        chart = flattening.flatten_step(field)
        rep = chart.report
        x_probe = 0.5 * (rep.x_valid[0] + rep.x_valid[1])
        tau = flattening.tau_minus1(g, [(x_probe, 0.0)])[0]
        payload["chart"] = {**dataclasses.asdict(rep), "tau_probe": [x_probe, tau[0], tau[1]]}
        lines += [
            "",
            f"chart depth: {depth}",
            f"boundary max dev: {rep.boundary_max_dev!r}",
            f"min jacobian: {rep.min_jacobian!r}",
            f"pushforward max dev: {rep.pushforward_max_dev!r}",
            f"certified x: [{rep.x_valid[0]!r}, {rep.x_valid[1]!r}]",
            f"certified y: [{rep.y_valid[0]!r}, {rep.y_valid[1]!r}]",
            f"tau({x_probe!r}, 0.0) = ({tau[0]!r}, {tau[1]!r})",
        ]
    return Report(payload, "segal.report.orderfits/1", lines, 0 if report.all_ok else 1)


# ---------------------------------------------------------------------------
# handler: acceptance


@command(
    None, "accept", "run the full acceptance suite",
    arg("--corpus", help="directory with quads.json and types/*.json"),
    arg("--only", type=parse_indices, help="comma-separated criterion indices to run"),
)
def run_accept(args) -> Report:
    results = acceptance.run_acceptance(args.corpus, indices=args.only)
    passed = all(r.passed for r in results)
    payload = {
        "results": [dataclasses.asdict(r) for r in results],
        "all_passed": passed,
    }
    lines = [r.line() for r in results]
    return Report(payload, "segal.report.accept/2", lines, 0 if passed else 1)


# ---------------------------------------------------------------------------
# parser and entry point


GROUP_HELP = {
    "types": "surface-type monoid operations",
    "belt": "dilatation data and its chart transformations",
    "qs": "boundary reparametrization bounds and extensions",
    "module": "conformal modules of quadrilaterals",
    "chains": "formal chain products",
    "appb": "boundary flattening and vanishing orders",
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that a failed write of help, version or
    usage text raises, as every other write does, so ``run`` exits 141 on a
    closed stdout pipe here too; argparse drops the error.  A stream that
    is ``None`` stays silent.  Subparsers inherit the class."""

    def _print_message(self, message, file=None):
        file = file or sys.stderr
        if message and file is not None:
            file.write(message)


class _DeclaredParsers(argparse._SubParsersAction):
    """argparse's subparsers action, except that a subcommand's parser is
    built when parsing reaches it.  ``declare`` lists the subcommand in
    ``--help`` as ``add_parser`` does and keeps the function that fills its
    parser in its place; ``parser`` builds it on first use."""

    def declare(self, name: str, help: str, fill: Callable[[argparse.ArgumentParser], None]):
        self._choices_actions.append(self._ChoicesPseudoAction(name, (), help))
        self._name_parser_map[name] = fill

    def parser(self, name: str) -> argparse.ArgumentParser:
        """The parser of subcommand ``name``, built and filled on first use."""
        entry = self._name_parser_map[name]
        if not isinstance(entry, argparse.ArgumentParser):
            built = self._parser_class(prog=f"{self._prog_prefix} {name}")
            entry(built)
            self._name_parser_map[name] = entry = built
        return entry

    def __call__(self, parser, namespace, values, option_string=None):
        self.parser(values[0])  # argparse has checked that the name is declared
        super().__call__(parser, namespace, values, option_string)


def _fill_command(cmd: Command, parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("text", "json"), default="text")
    for flags, options in cmd.args:
        parser.add_argument(*flags, **options)
    parser.set_defaults(run=cmd.run)


def _fill_group(cmds: list[Command], parser: argparse.ArgumentParser) -> None:
    subs = parser.add_subparsers(
        dest="command", required=True, metavar="SUBCOMMAND", action=_DeclaredParsers
    )
    for cmd in cmds:
        subs.declare(cmd.name, cmd.help, functools.partial(_fill_command, cmd))


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser; it lists each group at its first command and
    each ungrouped command in its place."""
    parser = _Parser(prog="segal", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"segal {__version__}")
    top = parser.add_subparsers(
        dest="group", required=True, metavar="COMMAND", action=_DeclaredParsers
    )
    entries: dict[str, list[Command]] = {}
    for cmd in COMMANDS:
        entries.setdefault(cmd.group or cmd.name, []).append(cmd)
    for name, cmds in entries.items():
        if cmds[0].group is None:
            top.declare(name, cmds[0].help, functools.partial(_fill_command, cmds[0]))
        else:
            top.declare(name, GROUP_HELP[name], functools.partial(_fill_group, cmds))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return emit(args, args.run(args))
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SegalError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


def _closed_pipe() -> int:
    """Point stdout at the null device, so nothing more is written to the
    pipe its reader closed, and return 141 (128 + SIGPIPE)."""
    if sys.stdout is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 141


def run(argv: Optional[Sequence[str]] = None) -> NoReturn:
    """The process entry of the ``segal`` script and of ``python -m segal.cli``.

    It exits with ``main``'s code once the exit handlers have run and the
    output is flushed, and skips the interpreter's teardown (freeing every
    module, a final garbage collection), which a finished command does not
    need.  A stdout pipe closed by its reader exits 141 with nothing on
    stderr.
    """
    try:
        code = main(argv)
    except SystemExit as e:  # argparse: --help, --version, a usage error
        if e.code is not None and not isinstance(e.code, int):
            raise
        code = e.code or 0
    except BrokenPipeError:
        code = _closed_pipe()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except BrokenPipeError:
                code = _closed_pipe()
    os._exit(code)


if __name__ == "__main__":
    run()
