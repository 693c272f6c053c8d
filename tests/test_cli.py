"""Batch CLI: artifacts, summaries, exit codes, reproducibility."""

import gc
import json
import warnings

import pytest

from crystalcubes.cli import main


def run_cli(tmp_path, config, *args):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config))
    return main(["--config", str(cfg), "--out", str(tmp_path), *args])


def test_tensor_decompose_paper_table(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "tensor-decompose",
        "params": {"weights": [[1, 1], [1, 1]]},
        "output": {"path": "dec.json"},
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "dec.json").read_text())
    assert doc["multiplicities"] == {"2,2": 1, "3,0": 1, "0,3": 1, "1,1": 2, "0,0": 1}


def test_cube_volume_summary(tmp_path, capsys):
    config = {"root_system": "A1", "command": "cube-volume", "params": {"word": [1], "a": [2]}}
    assert run_cli(tmp_path, config) == 0
    out = capsys.readouterr().out
    assert out.startswith("2 ->")


def test_multiplicity_cartan_component(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "multiplicity",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]], "nu": [2, 2]},
    }
    assert run_cli(tmp_path, config) == 0
    assert capsys.readouterr().out.startswith("1 ->")


def test_echo_word(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "component-count",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]]},
    }
    assert run_cli(tmp_path, config, "--echo-word") == 0
    out = capsys.readouterr().out
    assert "[words [[1, 2, 1], [1, 2, 1]]]" in out
    doc = json.loads((tmp_path / "component-count.json").read_text())
    assert doc["words"] == [[1, 2, 1], [1, 2, 1]]


def test_byte_reproducible_including_seeded_mc(tmp_path):
    config = {
        "root_system": "A2",
        "command": "cube-histogram",
        "params": {"word": [1, 2], "a": [1, 1], "bins": 8, "samples": 20000},
        "output": {"path": "hist.csv", "format": "csv"},
        "seed": 31,
    }
    assert run_cli(tmp_path, config) == 0
    first = (tmp_path / "hist.csv").read_bytes()
    header, *rows = first.decode().splitlines()
    assert header == "center_1,center_2,value"
    assert len(rows) == 64
    for row in rows:
        assert [float(field) for field in row.split(",")]
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / "hist.csv").read_bytes() == first

    dec = {
        "root_system": "A2",
        "command": "tensor-decompose",
        "params": {"weights": [[1, 0], [0, 1]]},
        "output": {"path": "dec.json"},
    }
    assert run_cli(tmp_path, dec) == 0
    blob = (tmp_path / "dec.json").read_bytes()
    assert run_cli(tmp_path, dec) == 0
    assert (tmp_path / "dec.json").read_bytes() == blob


def test_malformed_json_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    assert main(["--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert json.loads(err)["error"]["kind"] == "config"


def test_unknown_key_exit_2(tmp_path):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}, "bogus": 1}
    assert run_cli(tmp_path, config) == 2


def test_unknown_param_exit_2(tmp_path):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0], "oops": 3}}
    assert run_cli(tmp_path, config) == 2


def test_unsupported_exit_3(tmp_path, capsys):
    config = {
        "root_system": "A3",
        "command": "bundle-vectors",
        "params": {"subsets": [[1, 3]], "weights": [[1, 1, 1]]},
    }
    assert run_cli(tmp_path, config) == 3
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "unsupported"


def test_budget_exit_4(tmp_path, capsys):
    config = {
        "root_system": "A2",
        "command": "crystal",
        "params": {"weight": [3, 3]},
        "budget": 10,
    }
    assert run_cli(tmp_path, config) == 4
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "budget"


def test_crystal_json_and_edges(tmp_path):
    config = {
        "root_system": "A2",
        "command": "crystal",
        "params": {"weight": [1, 1]},
        "output": {"path": "adjoint.json"},
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "adjoint.json").read_text())
    assert doc["vertex_count"] == 8 and len(doc["edges"]) == 8

    config["output"] = {"path": "adjoint.txt", "format": "txt"}
    assert run_cli(tmp_path, config) == 0
    text = (tmp_path / "adjoint.txt").read_text()
    assert text.count("->") == 8 and "[label=1]" in text


def test_lattice_points_csv_default(tmp_path):
    config = {
        "root_system": "A1",
        "command": "lattice-points",
        "params": {"word": [1], "a": [2]},
    }
    assert run_cli(tmp_path, config) == 0
    lines = (tmp_path / "lattice-points.csv").read_text().strip().splitlines()
    assert lines == ["x1_1", "0", "1", "2"]


def test_gen_demazure_both_shapes(tmp_path):
    by_word = {
        "root_system": "A2",
        "command": "gen-demazure",
        "params": {"word": [1, 2], "a": [1, 1]},
        "output": {"path": "gw.json"},
    }
    assert run_cli(tmp_path, by_word) == 0
    doc = json.loads((tmp_path / "gw.json").read_text())
    assert doc["element_count"] == 5

    by_weights = {
        "root_system": "A2",
        "command": "gen-demazure",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]]},
        "output": {"path": "gs.json"},
    }
    assert run_cli(tmp_path, by_weights) == 0
    doc = json.loads((tmp_path / "gs.json").read_text())
    assert doc["element_count"] == 64


def test_cube_jobs_from_subsets(tmp_path, capsys):
    moments = {
        "root_system": "A3",
        "command": "cube-moments",
        "params": {"subsets": [[1, 2], [3]], "weights": [[2, 4, 0], [0, 0, 2]], "degree": 1},
        "output": {"path": "m.json"},
    }
    assert run_cli(tmp_path, moments) == 0
    doc = json.loads((tmp_path / "m.json").read_text())
    assert doc["moments"]["0,0,0"] == "212/3"
    assert doc["moments"]["1,0,0"] == "-644/3"

    svg = {
        "root_system": "A2",
        "command": "cube-svg",
        "params": {"subsets": [[1, 2]], "weights": [[1, 1]], "samples": 5000, "bins": 6},
        "output": {"path": "cube.svg"},
        "seed": 5,
    }
    assert run_cli(tmp_path, svg) == 0
    assert (tmp_path / "cube.svg").read_text().startswith("<svg")


def test_fiber_command(tmp_path):
    config = {
        "root_system": "A2",
        "command": "fiber",
        "params": {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [1, 1]], "x": [1, 2, 1]},
        "output": {"path": "fiber.json"},
    }
    assert run_cli(tmp_path, config) == 0
    doc = json.loads((tmp_path / "fiber.json").read_text())
    assert doc["count"] == 1 and doc["points"] == [[0, 0, 0]]


def test_custom_cartan_grid(tmp_path, capsys):
    config = {
        "root_system": [[2, -1], [-2, 2]],
        "command": "crystal",
        "params": {"weight": [1, 0]},
    }
    assert run_cli(tmp_path, config) == 0
    assert "5 vertices" in capsys.readouterr().out  # = weyl_dimension for this B2 weight


B2_GRID = [[2, -1], [-2, 2]]

# Artifacts of the projected-point commands, pinned from the full-saturation
# implementation that the highest-weight route replaced.
PROJECTED_GOLDENS = [
    (
        "A3",
        "tensor-decompose",
        {"weights": [[1, 0, 1], [0, 1, 0], [1, 0, 0]]},
        b'{"multiplicities":{"0,0,1":2,"0,2,1":1,"1,0,2":2,"1,1,0":3,"2,1,1":1,"3,0,0":1},'
        b'"words":[[1,2,1,3,2,1],[1,2,1,3,2,1],[1,2,1,3,2,1]]}\n',
    ),
    (
        "A3",
        "multiplicity",
        {
            "subsets": [[1, 2, 3], [1, 2, 3], [2, 3]],
            "weights": [[1, 0, 1], [0, 1, 0], [0, 1, 1]],
            "nu": [1, 0, 2],
            "words": [[2, 1, 3, 2, 1, 3], [3, 2, 1, 3, 2, 3], [3, 2, 3]],
        },
        b'{"multiplicity":4,"nu":[1,0,2]}\n',
    ),
    (
        "A3",
        "component-count",
        {"subsets": [[1, 3], [2, 3]], "weights": [[1, 0, 1], [0, 1, 1]]},
        b'{"component_count":3,"words":[[1,3],[2,3,2]]}\n',
    ),
    (
        "A3",
        "fiber",
        {"subsets": [[1, 2, 3], [1, 3]], "weights": [[1, 0, 0], [1, 0, 1]], "x": [1, 0]},
        b'{"count":20,"points":[[0,0,0,0,0,0],[0,0,0,1,0,0],[0,0,0,1,1,0],[0,0,0,2,1,0],'
        b"[0,1,0,0,0,0],[0,1,0,1,0,0],[0,1,0,2,1,0],[0,1,1,1,1,0],[0,1,1,2,1,0],[0,2,0,1,0,0],"
        b"[0,2,1,2,1,0],[1,0,0,1,1,0],[1,0,0,2,1,0],[1,1,0,0,0,0],[1,1,0,1,0,0],[1,1,0,2,1,0],"
        b"[1,2,0,1,0,0],[1,2,1,2,1,0],[2,1,0,2,1,0],[2,2,0,1,0,0]],"
        b'"words":[[1,2,1,3,2,1],[1,3]],"x":[1,0]}\n',
    ),
    (
        B2_GRID,
        "tensor-decompose",
        {"weights": [[1, 1], [0, 1]]},
        b'{"multiplicities":{"0,2":1,"1,0":1,"1,2":1,"2,0":1},"words":[[1,2,1,2],[1,2,1,2]]}\n',
    ),
    (
        B2_GRID,
        "multiplicity",
        {
            "subsets": [[1, 2], [1, 2]],
            "weights": [[1, 1], [1, 1]],
            "nu": [1, 2],
            "words": [[2, 1, 2, 1], [1, 2, 1, 2]],
        },
        b'{"multiplicity":2,"nu":[1,2]}\n',
    ),
    (
        B2_GRID,
        "component-count",
        {"subsets": [[2], [1, 2]], "weights": [[1, 0], [1, 1]]},
        b'{"component_count":4,"words":[[2],[1,2,1,2]]}\n',
    ),
    (
        B2_GRID,
        "fiber",
        {"subsets": [[1, 2], [1, 2]], "weights": [[1, 1], [0, 1]], "x": [0, 1, 1, 1]},
        b'{"count":5,"points":[[0,0,0,0],[0,1,1,0],[0,2,1,0],[1,0,0,0],[1,2,1,0]],'
        b'"words":[[1,2,1,2],[1,2,1,2]],"x":[0,1,1,1]}\n',
    ),
]


@pytest.mark.parametrize(
    "root_system,command,params,expected",
    PROJECTED_GOLDENS,
    ids=[f"{'A3' if rs == 'A3' else 'B2'}-{cmd}" for rs, cmd, _, _ in PROJECTED_GOLDENS],
)
def test_projected_point_artifacts_golden(tmp_path, root_system, command, params, expected):
    config = {"root_system": root_system, "command": command, "params": params, "output": {"path": "out.json"}}
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / "out.json").read_bytes() == expected


# Artifacts of the enumeration commands, pinned before the word shape became the
# singleton-block case of the weights shape; gen-demazure covers the word shape
# and the weights shape with auto-selected and with explicit words.
ENUMERATION_GOLDENS = [
    (
        "A3",
        "crystal",
        {"weight": [1, 0, 0]},
        "json",
        b'{"edges":[[0,2,1],[1,3,2],[3,1,0]],"highest":3,"vertex_count":4,"vertices":[{"index":0,'
        b'"weight":[-1,1,0]},{"index":1,"weight":[0,-1,1]},{"index":2,"weight":[0,0,-1]},{"index":3,'
        b'"weight":[1,0,0]}]}\n'
    ),
    (
        "A3",
        "crystal",
        {"weight": [1, 0, 0]},
        "txt",
        b'0 -> 1 [label=2]\n1 -> 2 [label=3]\n3 -> 0 [label=1]\n'
    ),
    (
        "A3",
        "demazure",
        {"weight": [0, 1, 0], "word": [1, 3, 2]},
        "json",
        b'{"edges":[[0,3,1],[2,2,3],[3,1,0],[3,3,4],[4,1,1]],"highest":2,"vertex_count":5,'
        b'"vertices":[{"index":0,"weight":[-1,0,1]},{"index":1,"weight":[-1,1,-1]},{"index":2,"weight":[0,'
        b'1,0]},{"index":3,"weight":[1,-1,1]},{"index":4,"weight":[1,0,-1]}]}\n'
    ),
    (
        "A3",
        "demazure",
        {"weight": [0, 1, 0], "word": [1, 3, 2]},
        "txt",
        b'0 -> 1 [label=3]\n2 -> 3 [label=2]\n3 -> 0 [label=1]\n3 -> 4 [label=3]\n4 -> 1 [label=1]\n'
    ),
    (
        "A3",
        "lattice-points",
        {"word": [1, 2, 3, 1], "a": [1, 0, 1, 1]},
        "json",
        b'{"a":[1,0,1,1],"count":19,"level":1,"points":[[0,0,0,0],[0,0,0,1],[0,0,1,0],[0,0,1,1],[0,1,0,1],'
        b'[0,1,1,0],[0,1,1,1],[0,2,1,1],[1,0,0,0],[1,0,1,0],[1,1,0,1],[1,1,1,0],[1,1,1,1],[1,2,1,1],[2,0,'
        b'0,0],[2,0,1,0],[2,1,1,0],[2,2,1,1],[3,1,1,0]],"word":[1,2,3,1]}\n'
    ),
    (
        "A3",
        "lattice-points",
        {"word": [1, 2, 3, 1], "a": [1, 0, 1, 1]},
        "csv",
        b'x1_1,x2_1,x3_1,x4_1\n0,0,0,0\n0,0,0,1\n0,0,1,0\n0,0,1,1\n0,1,0,1\n0,1,1,0\n0,1,1,1\n0,2,1,1\n1,0,0,0\n1,0,'
        b'1,0\n1,1,0,1\n1,1,1,0\n1,1,1,1\n1,2,1,1\n2,0,0,0\n2,0,1,0\n2,1,1,0\n2,2,1,1\n3,1,1,0\n'
    ),
    (
        "A3",
        "gen-demazure",
        {"word": [2, 1, 3, 2], "a": [1, 1, 0, 1]},
        "json",
        b'{"block_sizes":[1,1,1,1],"components":[{"highest_weights":[[2,0,1]],"size":15},'
        b'{"highest_weights":[[1,2,0]],"size":7}],"element_count":22,"omega_vectors":[[0,0,0,0],[0,0,0,1],'
        b'[0,0,1,1],[0,1,0,0],[0,1,0,1],[0,1,1,1],[0,2,0,1],[0,2,1,1],[1,0,0,0],[1,0,1,1],[1,1,0,0],[1,1,'
        b'0,1],[1,1,1,1],[1,2,0,1],[1,2,1,1],[2,0,0,0],[2,1,0,0],[2,1,1,1],[2,2,0,1],[2,2,1,1],[3,1,0,0],'
        b'[3,2,1,1]],"shape":{"a":[1,1,0,1],"kind":"word"},"word":[2,1,3,2]}\n'
    ),
    (
        "A3",
        "gen-demazure",
        {"subsets": [[1, 2], [2, 3]], "weights": [[1, 0, 0], [0, 0, 1]]},
        "json",
        b'{"block_sizes":[3,3],"components":[{"highest_weights":[[1,0,1]],"size":11}],"element_count":11,'
        b'"omega_vectors":[[0,0,0,0,0,0],[0,0,0,0,1,0],[0,1,0,0,1,0],[0,1,1,0,0,0],[0,1,1,0,1,0],[0,2,1,0,'
        b'1,0],[1,0,0,0,0,0],[1,0,0,0,1,0],[1,1,0,0,1,0],[1,2,1,0,1,0],[2,1,0,0,1,0]],'
        b'"shape":{"kind":"weights","subsets":[[1,2],[2,3]],"weights":[[1,0,0],[0,0,1]],"words":[[1,2,1],'
        b'[2,3,2]]},"word":[1,2,1,2,3,2],"words":[[1,2,1],[2,3,2]]}\n'
    ),
    (
        "A3",
        "gen-demazure",
        {"subsets": [[2, 3], [1]], "weights": [[0, 0, 1], [1, 0, 0]], "words": [[3, 2, 3], [1]]},
        "json",
        b'{"block_sizes":[3,1],"components":[{"highest_weights":[[1,0,1]],"size":11}],"element_count":11,'
        b'"omega_vectors":[[0,0,0,0],[0,0,0,1],[0,1,0,1],[0,1,1,0],[0,1,1,1],[0,2,1,1],[1,0,0,0],[1,0,0,'
        b'1],[1,1,0,1],[1,2,1,1],[2,1,0,1]],"shape":{"kind":"weights","subsets":[[2,3],[1]],"weights":[[0,'
        b'0,1],[1,0,0]],"words":[[3,2,3],[1]]},"word":[3,2,3,1]}\n'
    ),
    (
        B2_GRID,
        "crystal",
        {"weight": [0, 1]},
        "json",
        b'{"edges":[[0,2,1],[2,2,3],[3,1,0]],"highest":2,"vertex_count":4,"vertices":[{"index":0,'
        b'"weight":[-1,1]},{"index":1,"weight":[0,-1]},{"index":2,"weight":[0,1]},{"index":3,"weight":[1,'
        b'-1]}]}\n'
    ),
    (
        B2_GRID,
        "crystal",
        {"weight": [0, 1]},
        "txt",
        b'0 -> 1 [label=2]\n2 -> 3 [label=2]\n3 -> 0 [label=1]\n'
    ),
    (
        B2_GRID,
        "demazure",
        {"weight": [1, 1], "word": [1, 2]},
        "json",
        b'{"edges":[[0,1,1],[3,1,2],[3,2,4],[4,1,0]],"highest":3,"vertex_count":5,"vertices":[{"index":0,'
        b'"weight":[0,1]},{"index":1,"weight":[-2,3]},{"index":2,"weight":[-1,3]},{"index":3,"weight":[1,'
        b'1]},{"index":4,"weight":[2,-1]}]}\n'
    ),
    (
        B2_GRID,
        "demazure",
        {"weight": [1, 1], "word": [1, 2]},
        "txt",
        b'0 -> 1 [label=1]\n3 -> 2 [label=1]\n3 -> 4 [label=2]\n4 -> 0 [label=1]\n'
    ),
    (
        B2_GRID,
        "lattice-points",
        {"word": [2, 1, 2], "a": [1, 1, 0], "level": 2},
        "json",
        b'{"a":[1,1,0],"count":15,"level":2,"points":[[0,0,0],[0,1,0],[0,2,0],[1,0,0],[1,1,0],[1,2,0],[2,'
        b'0,0],[2,1,0],[2,2,0],[3,1,0],[3,2,0],[4,1,0],[4,2,0],[5,2,0],[6,2,0]],"word":[2,1,2]}\n'
    ),
    (
        B2_GRID,
        "lattice-points",
        {"word": [2, 1, 2], "a": [1, 1, 0], "level": 2},
        "csv",
        b'x1_1,x2_1,x3_1\n0,0,0\n0,1,0\n0,2,0\n1,0,0\n1,1,0\n1,2,0\n2,0,0\n2,1,0\n2,2,0\n3,1,0\n3,2,0\n4,1,0\n4,2,0\n5,'
        b'2,0\n6,2,0\n'
    ),
    (
        B2_GRID,
        "gen-demazure",
        {"word": [2, 1, 2], "a": [1, 1, 1]},
        "json",
        b'{"block_sizes":[1,1,1],"components":[{"highest_weights":[[2,0]],"size":9},'
        b'{"highest_weights":[[1,2]],"size":8}],"element_count":17,"omega_vectors":[[0,0,0],[0,0,1],[0,1,'
        b'0],[0,1,1],[0,2,1],[1,0,0],[1,1,0],[1,1,1],[1,2,1],[2,0,0],[2,1,0],[2,1,1],[2,2,1],[3,1,0],[3,2,'
        b'1],[4,1,0],[4,2,1]],"shape":{"a":[1,1,1],"kind":"word"},"word":[2,1,2]}\n'
    ),
    (
        B2_GRID,
        "gen-demazure",
        {"subsets": [[2], [1]], "weights": [[0, 1], [1, 0]]},
        "json",
        b'{"block_sizes":[1,1],"components":[{"highest_weights":[[1,1]],"size":6}],"element_count":6,'
        b'"omega_vectors":[[0,0],[0,1],[1,0],[1,1],[2,1],[3,1]],"shape":{"kind":"weights","subsets":[[2],'
        b'[1]],"weights":[[0,1],[1,0]],"words":[[2],[1]]},"word":[2,1],"words":[[2],[1]]}\n'
    ),
    (
        B2_GRID,
        "gen-demazure",
        {"subsets": [[1], [1, 2]], "weights": [[1, 0], [0, 1]], "words": [[1], [2, 1, 2, 1]]},
        "json",
        b'{"block_sizes":[1,4],"components":[{"highest_weights":[[1,1]],"size":5},{"highest_weights":[[0,'
        b'1]],"size":3}],"element_count":8,"omega_vectors":[[0,0,0,0,0],[0,0,1,1,0],[0,1,0,0,0],[0,1,1,1,'
        b'0],[1,0,0,0,0],[1,1,0,0,0],[1,1,1,1,0],[2,1,0,0,0]],"shape":{"kind":"weights","subsets":[[1],[1,'
        b'2]],"weights":[[1,0],[0,1]],"words":[[1],[2,1,2,1]]},"word":[1,2,1,2,1]}\n'
    ),
]


@pytest.mark.parametrize(
    "root_system,command,params,fmt,expected",
    ENUMERATION_GOLDENS,
    ids=[
        f"{'A3' if rs == 'A3' else 'B2'}-{cmd}-"
        + ("word" if "word" in p and cmd == "gen-demazure" else "words" if "words" in p else "auto" if "subsets" in p else fmt)
        for rs, cmd, p, fmt, _ in ENUMERATION_GOLDENS
    ],
)
def test_enumeration_artifacts_golden(tmp_path, root_system, command, params, fmt, expected):
    output = {"path": f"out.{fmt}", "format": fmt}
    config = {"root_system": root_system, "command": command, "params": params, "output": output}
    assert run_cli(tmp_path, config) == 0
    assert (tmp_path / f"out.{fmt}").read_bytes() == expected


def test_projection_budget_caps_tail_crystal(tmp_path, capsys):
    # |B(2,2) ⊗ B(2,2)| = 729, while the crystal X of the second block is B(2,2), 27 elements
    config = {"root_system": "A2", "command": "tensor-decompose", "params": {"weights": [[2, 2], [2, 2]]}}
    assert run_cli(tmp_path, {**config, "budget": 20}) == 4
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "budget"
    assert run_cli(tmp_path, {**config, "budget": 200}) == 0


def test_non_dominant_first_weight_exit_2(tmp_path, capsys):
    config = {"root_system": "A2", "command": "tensor-decompose", "params": {"weights": [[1, -1], [1, 1]]}}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "invalid", "message": "weights must be dominant integral"}
    }


@pytest.mark.parametrize("command", ["gen-demazure", "lattice-points"])
def test_empty_word_exit_2(tmp_path, capsys, command):
    config = {"root_system": "A2", "command": command, "params": {"word": [], "a": []}}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": "the word must not be empty"}}


def test_config_file_is_closed(tmp_path):
    config = {"root_system": "A1", "command": "cube-volume", "params": {"word": [1], "a": [2]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(tmp_path, config) == 0
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


CUBE_PARAMS = {"word": [1, 2], "a": [1, 1]}


@pytest.mark.parametrize(
    "command,params,message",
    [
        ("cube-volume", {**CUBE_PARAMS, "bogus": 1}, "unknown params: ['bogus']"),
        ("cube-histogram", {**CUBE_PARAMS, "samples": 100, "bogus": 1}, "unknown params: ['bogus']"),
        ("cube-volume", {**CUBE_PARAMS, "degree": 1}, "unknown params: ['degree']"),
        ("cube-moments", {**CUBE_PARAMS, "degree": -1}, "degree must be nonnegative"),
        ("cube-volume", {"word": [1, 2]}, "missing param 'a'"),
        ("cube-volume", {"subsets": [[1, 2]]}, "missing param 'weights'"),
    ],
    ids=["volume-unknown", "histogram-unknown", "volume-degree", "moments-negative-degree", "missing-a", "missing-weights"],
)
def test_cube_params_rejected_exit_2(tmp_path, capsys, command, params, message):
    config = {"root_system": "A2", "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": message}}


def test_budget_below_one_exit_2(tmp_path, capsys):
    config = {"root_system": "A2", "command": "crystal", "params": {"weight": [1, 0]}}
    assert run_cli(tmp_path, {**config, "budget": -5}) == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "budget must be at least 1"
    assert run_cli(tmp_path, config, "--budget", "0") == 2
    assert json.loads(capsys.readouterr().err)["error"]["message"] == "budget must be at least 1"
    assert run_cli(tmp_path, config, "--budget", "1") == 4


@pytest.mark.parametrize(
    "command,params,message",
    [
        ("tensor-decompose", {"weights": 3}, "param 'weights' must be a list"),
        ("cube-volume", {"word": [1, 2], "a": None}, "param 'a' must be a list"),
        ("gen-demazure", {"word": "12", "a": [1, 1]}, "param 'word' must be a list"),
        ("lattice-points", {"word": "12", "a": [1, 1]}, "param 'word' must be a list"),
    ],
    ids=["weights-int", "a-null", "gen-demazure-word-string", "lattice-points-word-string"],
)
def test_wrong_param_type_exit_2(tmp_path, capsys, command, params, message):
    config = {"root_system": "A2", "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err) == {"error": {"kind": "invalid", "message": message}}


@pytest.mark.parametrize(
    "command,params",
    [
        ("gen-demazure", {"word": ["1", "2"], "a": [1, 1]}),
        ("tensor-decompose", {"weights": [[1, None], [1, 1]]}),
        ("cube-moments", {"word": [1, 2], "a": [1, 1], "degree": None}),
    ],
    ids=["word-letters-strings", "weight-coordinate-null", "degree-null"],
)
def test_wrong_nested_type_exit_2(tmp_path, capsys, command, params):
    config = {"root_system": "A2", "command": command, "params": params}
    assert run_cli(tmp_path, config) == 2
    assert json.loads(capsys.readouterr().err)["error"]["kind"] == "invalid"


def test_internal_invariant_exit_5(tmp_path, capsys, monkeypatch):
    from crystalcubes import stringpoly
    from crystalcubes.demazure import StringVector

    # an Ω that sends every element to one vector breaks the separation check
    monkeypatch.setattr(stringpoly, "omega_blocked", lambda *args: StringVector((0, 0, 0), (3,)))
    config = {"root_system": "A2", "command": "tensor-decompose", "params": {"weights": [[1, 1], [1, 1]]}}
    assert run_cli(tmp_path, config) == 5
    assert json.loads(capsys.readouterr().err) == {
        "error": {"kind": "internal", "message": "string parametrization failed to separate elements"}
    }
