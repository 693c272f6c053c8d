"""Batch front-end: one JSON job per invocation, artifacts written atomically.

The library returns values only; this module alone turns them into artifact
bytes (JSON, CSV, edge-list text and SVG) and writes them.

Exit codes: 0 success, 2 malformed config, computation error or unwritable
output, 3 unsupported input (e.g. a Levi block not of type A), 4 element,
moment-count, histogram-cell or sample budget exceeded, 5 an internal
consistency check failed (a defect of the program, not of the input).
Errors go to stderr as a one-line JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from itertools import combinations_with_replacement, product
from math import comb, prod
from operator import index
from typing import Callable

from . import bundles, stringpoly, twistedcube
from .crystal import DEFAULT_BUDGET, generate_crystal
from .demazure import demazure_crystal, gen_demazure_crystal, gen_demazure_crystal_weights, graph_from_elements
from .rootsys import BudgetExceededError, InvariantError, RootSystem, UnsupportedInputError

TOP_KEYS = {"root_system", "command", "params", "output", "seed", "budget"}
LIST_PARAMS = {"word", "a", "subsets", "weights", "words", "weight", "nu", "x"}
_SVG_CELL = 24  # side of one histogram cell in the SVG, in pixels


class ConfigError(ValueError):
    pass


@dataclass
class JobConfig:
    root_system: object
    command: str
    params: dict
    output: dict = field(default_factory=dict)
    seed: int = 0
    budget: int = DEFAULT_BUDGET

    @classmethod
    def from_dict(cls, raw: dict) -> "JobConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("root_system", "command"):
            if key not in raw:
                raise ConfigError(f"missing config key {key!r}")
        command = raw["command"]
        if not isinstance(command, str) or command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}; one of {tuple(COMMANDS)}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        output = raw.get("output", {})
        if not isinstance(output, dict) or set(output) - {"path", "format"}:
            raise ConfigError("output must be an object with keys path/format")
        if _holds_bool(raw):
            raise ConfigError("config values must not be booleans")
        try:
            seed, budget = index(raw.get("seed", 0)), index(raw.get("budget", DEFAULT_BUDGET))
        except TypeError:
            raise ConfigError("seed and budget must be integers") from None
        return cls(raw["root_system"], command, params, output, seed=seed, budget=budget)


def _holds_bool(value) -> bool:
    """Whether a JSON value holds a boolean at any depth: no command takes one, and
    Python would read true as the integer 1."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, bool):
            return True
        if isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, list):
            stack.extend(value)
    return False


def _root_system(spec) -> RootSystem:
    if isinstance(spec, str):
        try:
            return RootSystem.preset(spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    if isinstance(spec, list):
        return RootSystem(spec)
    raise ConfigError("root_system must be a preset name or a Cartan matrix grid")


def _take(params: dict, allowed: dict) -> dict:
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown params: {sorted(unknown)}")
    out = {}
    for key, required in allowed.items():
        if key in params:
            if key in LIST_PARAMS and not isinstance(params[key], list):
                raise ConfigError(f"param {key!r} must be a list")
            out[key] = params[key]
        elif required:
            raise ConfigError(f"missing param {key!r}")
    return out


# -- renderers: library values -> artifact JSON objects and csv/svg/txt text ---------
# An artifact holds the library's tuples as they are: json.dumps writes a tuple as an array.


def _graph_json(graph) -> dict:
    verts = [{"index": k, "weight": w} for k, w in enumerate(graph.weights)]
    return {"vertex_count": graph.vertex_count, "highest": graph.highest, "vertices": verts, "edges": graph.edges}


def _edge_lines(graph) -> str:
    return "\n".join(f"{u} -> {v} [label={i}]" for (u, i, v) in graph.edges) + "\n"


def _table_json(table: stringpoly.MultiplicityTable) -> dict:
    """ν → multiplicity, each ν written as its comma-joined ϖ-coordinates."""
    return {",".join(str(x) for x in nu): c for nu, c in table.entries}


def _points_csv(points) -> str:
    """Lattice points of a word shape, one column x{k}_1 per letter k; the set is never empty."""
    lines = [",".join(f"x{k}_1" for k in range(1, len(points[0]) + 1))]
    lines.extend(",".join(str(x) for x in p) for p in points)
    return "\n".join(lines) + "\n"


def _histogram_csv(hist: twistedcube.SignedHistogram) -> str:
    """One row per bin, C order: the bin center on every axis, then the bin value."""
    centers = [[(e[k] + e[k + 1]) / 2 for k in range(len(e) - 1)] for e in hist.edges]
    lines = [",".join([f"center_{t + 1}" for t in range(len(centers))] + ["value"])]
    for idx in product(*(range(len(c)) for c in centers)):
        row = [repr(float(centers[t][k])) for t, k in enumerate(idx)] + [repr(float(hist.values[idx]))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _histogram_svg(hist: twistedcube.SignedHistogram) -> str:
    """A 2-D signed histogram as an SVG grid with a diverging color scale."""
    nx, ny = hist.values.shape
    vmax = float(abs(hist.values).max()) or 1.0
    width, height = nx * _SVG_CELL, ny * _SVG_CELL
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for ix in range(nx):
        for iy in range(ny):
            v = float(hist.values[ix, iy])
            frac = min(abs(v) / vmax, 1.0)
            shade = int(round(255 * (1 - frac)))
            color = f"rgb(255,{shade},{shade})" if v > 0 else f"rgb({shade},{shade},255)" if v < 0 else "rgb(255,255,255)"
            x = ix * _SVG_CELL
            y = (ny - 1 - iy) * _SVG_CELL
            parts.append(f'<rect x="{x}" y="{y}" width="{_SVG_CELL}" height="{_SVG_CELL}" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# -- handlers: (root system, params, config) -> (artifact, text, summary) ----------
# `text` is None or a function that builds the command's csv/svg/txt artifact; `_render`
# calls it only when that format is asked for.  Handlers call generate_crystal,
# graph_from_elements and the Demazure constructors through this module's globals,
# looked up at call time, so a wrapper installed on the module sees every call.


def _crystal(rs: RootSystem, q: dict, config: JobConfig):
    graph = generate_crystal(rs, q["weight"], config.budget)
    summary = f"crystal with {graph.vertex_count} vertices, {len(graph.edges)} edges"
    return _graph_json(graph), lambda: _edge_lines(graph), summary


def _demazure(rs: RootSystem, q: dict, config: JobConfig):
    elements = demazure_crystal(rs, q["weight"], q["word"], config.budget)
    graph = graph_from_elements(rs, elements)
    return _graph_json(graph), lambda: _edge_lines(graph), f"Demazure crystal with {len(elements)} elements"


def _gen_demazure(rs: RootSystem, q: dict, config: JobConfig):
    if "word" in q:
        crystal = gen_demazure_crystal(rs, q["word"], q["a"], config.budget)
        shape = {"kind": "word", "a": q["a"]}
    else:
        crystal = gen_demazure_crystal_weights(rs, q["subsets"], q["weights"], q["words"], config.budget)
        shape = {
            "kind": "weights",
            "subsets": [list(s) for s in q["subsets"].sets],
            "weights": [list(rs.weight(lam).coords) for lam in q["weights"]],
            "words": [list(b) for b in q["words"].blocks],
        }
    artifact = {
        "shape": shape,
        "word": crystal.words.flat,
        "block_sizes": crystal.words.block_sizes,
        "element_count": crystal.element_count,
        "omega_vectors": crystal.omega_vectors(),
        "components": [{"size": size, "highest_weights": [w]} for size, w in crystal.components()],
    }
    return artifact, None, f"generalized Demazure crystal with {crystal.element_count} elements"


def _lattice_points(rs: RootSystem, q: dict, config: JobConfig):
    level = q.get("level", 1)
    pts = stringpoly.lattice_points(rs, q["word"], q["a"], level, config.budget)
    artifact = {"word": q["word"], "a": q["a"], "level": level, "count": len(pts), "points": pts}
    return artifact, lambda: _points_csv(pts), f"{len(pts)} lattice points"


def _multiplicity(rs: RootSystem, q: dict, config: JobConfig):
    value = stringpoly.multiplicity(rs, q["subsets"], q["weights"], q["nu"], q["words"], config.budget)
    return {"nu": q["nu"], "multiplicity": value}, None, str(value)


def _tensor_decompose(rs: RootSystem, q: dict, config: JobConfig):
    table = stringpoly.tensor_decompose(rs, q["weights"], config.budget)
    words = [list(rs.longest_word(range(1, rs.n + 1)))] * len(q["weights"])
    summary = f"{table.total()} components over {len(table.entries)} highest weights"
    return {"multiplicities": _table_json(table), "words": words}, None, summary


def _component_count(rs: RootSystem, q: dict, config: JobConfig):
    value = stringpoly.component_count(rs, q["subsets"], q["weights"], q["words"], config.budget)
    return {"component_count": value}, None, str(value)


def _fiber(rs: RootSystem, q: dict, config: JobConfig):
    fiber = stringpoly.fiber_string_points(rs, q["subsets"], q["weights"], q["x"], q["words"], config.budget)
    return {"x": q["x"], "count": len(fiber), "points": fiber}, None, f"{len(fiber)} fiber points"


def _bundle_vectors(rs: RootSystem, q: dict, config: JobConfig):
    return bundles.bundle_report(rs, q["subsets"], q["weights"], q["words"]), None, "bundle vectors computed"


def _twisted_cube(rs: RootSystem, q: dict):
    """The cube and its projection.  The word shape's subsets default to the singleton
    blocks {i_k}, and the word must be the longest words of its subsets."""
    if "word" not in q:
        a = bundles.pullback_vector(rs, q["subsets"], q["words"], q["weights"])
        return twistedcube.TwistedCube(rs, q["words"].flat, a), twistedcube.projection_map(rs, q["subsets"], q["words"])
    cube = twistedcube.TwistedCube(rs, q["word"], q["a"])
    subsets, words = rs.blocks(q.get("subsets", [(i,) for i in cube.word]))
    if words.flat != cube.word:
        raise ConfigError("word does not match the longest words of the subsets")
    return cube, twistedcube.projection_map(rs, subsets, words)


def _cube_volume(rs: RootSystem, q: dict, config: JobConfig):
    cube, _ = _twisted_cube(rs, q)
    vol = str(cube.signed_volume())
    return {"word": list(cube.word), "a": list(cube.a), "signed_volume": vol}, None, vol


def _cube_moments(rs: RootSystem, q: dict, config: JobConfig):
    cube, proj = _twisted_cube(rs, q)
    degree = index(q.get("degree", 1))
    if degree < 0:
        raise ConfigError("degree must be nonnegative")
    count = comb(proj.rows + degree, degree)  # checked before any moment is computed
    if count > config.budget:
        raise BudgetExceededError(f"{count} moments up to degree {degree} exceed budget of {config.budget} moments")
    # |m| <= degree: a multiset of `degree` target coordinates, with slot `rows` as the slack
    slots = combinations_with_replacement(range(proj.rows + 1), degree)
    moments = {}
    for m in sorted(tuple(c.count(t) for t in range(proj.rows)) for c in slots):
        moments[",".join(str(t) for t in m)] = str(cube.pushforward_moments(proj, m))
    artifact = {"word": list(cube.word), "a": list(cube.a), "degree": degree, "moments": moments}
    return artifact, None, f"{len(moments)} moments up to degree {degree}"


def _cube_histogram(rs: RootSystem, q: dict, config: JobConfig):
    cube, proj = _twisted_cube(rs, q)
    svg = config.command == "cube-svg"
    if svg and proj.rows != 2:
        raise UnsupportedInputError("cube-svg needs a 2-D projection target; export CSV instead")
    samples = q.get("samples", 10**5)
    bins = twistedcube._bin_counts(q.get("bins", 20), proj.rows)
    cells = prod(b + 2 for b in bins)  # the bins and an outlier cell at each end of every axis
    if cells > config.budget:
        raise BudgetExceededError(f"histogram of {cells} cells exceeds budget of {config.budget} cells")
    coords, cap = index(samples) * cube.dim, 100 * config.budget  # checked before any sample is drawn
    if coords > cap:
        raise BudgetExceededError(f"{samples} samples x {cube.dim} coordinates = {coords} exceed 100 x budget = {cap}")
    hist = twistedcube.mc_histogram(cube, proj, bins, samples, config.seed, q.get("shards", 1))
    artifact = {"word": list(cube.word), "a": list(cube.a), "samples": samples}
    if svg:
        return artifact, lambda: _histogram_svg(hist), "SVG rendered"
    artifact["total"] = hist.total()
    return artifact, lambda: _histogram_csv(hist), f"histogram total {hist.total():.6g}"


@dataclass(frozen=True)
class Command:
    """A command's param schema, handler and output formats, the default first.

    A schema maps each allowed param to whether it is required.  ``word_shape``,
    when set, is the schema used instead of ``params`` when a ``word`` is given.
    A schema that allows ``words`` is a weights shape: ``run`` resolves its
    subsets and words before the handler, and records words it chose itself.
    """

    handler: Callable
    params: dict
    formats: tuple = ("json",)
    word_shape: dict | None = None


WORD = {"word": True, "a": True}
WEIGHTS = {"subsets": True, "weights": True, "words": False}
CUBE_WORD = {**WORD, "subsets": False}
MC = {"bins": False, "samples": False, "shards": False}

COMMANDS = {
    "crystal": Command(_crystal, {"weight": True}, ("json", "txt")),
    "demazure": Command(_demazure, {"weight": True, "word": True}, ("json", "txt")),
    "gen-demazure": Command(_gen_demazure, WEIGHTS, word_shape=WORD),
    "lattice-points": Command(_lattice_points, {**WORD, "level": False}, ("csv", "json")),
    "multiplicity": Command(_multiplicity, {**WEIGHTS, "nu": True}),
    "tensor-decompose": Command(_tensor_decompose, {"weights": True}),
    "component-count": Command(_component_count, WEIGHTS),
    "fiber": Command(_fiber, {**WEIGHTS, "x": True}),
    "bundle-vectors": Command(_bundle_vectors, WEIGHTS),
    "cube-volume": Command(_cube_volume, WEIGHTS, word_shape=CUBE_WORD),
    "cube-moments": Command(_cube_moments, {**WEIGHTS, "degree": False}, word_shape={**CUBE_WORD, "degree": False}),
    "cube-histogram": Command(_cube_histogram, {**WEIGHTS, **MC}, ("csv", "json"), word_shape={**CUBE_WORD, **MC}),
    "cube-svg": Command(_cube_histogram, {**WEIGHTS, **MC}, ("svg", "json"), word_shape={**CUBE_WORD, **MC}),
}


def run(config: JobConfig, out_dir: str = ".", echo_word: bool = False):
    if config.budget < 1:
        raise ConfigError("budget must be at least 1")
    rs = _root_system(config.root_system)
    command = COMMANDS[config.command]
    fmt = config.output.get("format", command.formats[0])
    if fmt not in command.formats:
        raise ConfigError(f"{config.command} has no {fmt!r} artifact; formats: {', '.join(command.formats)}")
    p = config.params
    schema = command.word_shape if command.word_shape and "word" in p else command.params
    q = _take(p, schema)
    if "words" in schema:  # a weights shape
        q["subsets"], q["words"] = rs.blocks(q["subsets"], q.get("words"))
    artifact, text, summary = command.handler(rs, q, config)
    if "words" in schema and "words" not in p:
        artifact["words"] = [list(b) for b in q["words"].blocks]

    path = config.output.get("path") or f"{config.command}.{fmt}"
    if not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    del rs  # with it go the operator caches and interned paths, before the artifact is rendered
    if fmt == "json":
        text = None  # frees what the builder holds, such as a whole crystal graph, before the dump
    _atomic_write(path, _render(artifact, text, fmt))
    if echo_word and "words" not in p and "words" in artifact:
        summary += f" [words {artifact['words']}]"
    return summary, path


def _render(artifact, text, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(artifact, sort_keys=True, separators=(",", ":")) + "\n"
    return text()


def _atomic_write(path: str, payload: str) -> None:
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-artifact-{os.urandom(8).hex()}")
    handle = open(tmp, "x")  # a new file, so it gets the mode the umask gives, as the artifact should
    try:
        with handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="crystalcubes", description=__doc__)
    parser.add_argument("--config", default="-", help="job config JSON path, or - for stdin")
    parser.add_argument("--out", default=".", help="directory for relative output paths")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--budget", type=int, default=None, help="override the element budget")
    parser.add_argument("--echo-word", action="store_true", help="echo auto-selected reduced words")
    formats = sorted({fmt for command in COMMANDS.values() for fmt in command.formats})
    parser.add_argument("--format", choices=formats, default=None, help="override the output format")
    args = parser.parse_args(argv)

    def fail(code: int, kind: str, message: str) -> int:
        sys.stderr.write(json.dumps({"error": {"kind": kind, "message": message}}) + "\n")
        return code

    try:
        if args.config == "-":
            raw = sys.stdin.read()
        else:
            with open(args.config) as handle:
                raw = handle.read()
        config = JobConfig.from_dict(json.loads(raw))
    except (OSError, json.JSONDecodeError, ConfigError, ValueError, RecursionError) as exc:  # JSON nested too deep
        return fail(2, "config", str(exc))

    if args.seed is not None:
        config.seed = args.seed
    if args.budget is not None:
        config.budget = args.budget
    if args.format is not None:
        config.output["format"] = args.format

    try:
        summary, path = run(config, args.out, args.echo_word)
    except UnsupportedInputError as exc:
        return fail(3, "unsupported", str(exc))
    except BudgetExceededError as exc:
        return fail(4, "budget", str(exc))
    except InvariantError as exc:
        return fail(5, "internal", str(exc))
    except OSError as exc:  # only writing the artifact touches the file system
        return fail(2, "output", str(exc))
    except (ConfigError, ValueError, IndexError, KeyError, TypeError) as exc:
        return fail(2, "invalid", str(exc))

    print(f"{summary} -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
