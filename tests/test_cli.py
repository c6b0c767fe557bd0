"""Command-line interface: subcommands, config precedence, exit codes."""

import json

import numpy as np
import pytest

from submine import EmbeddingSet, read_embeddings_csv, write_embeddings_csv
from submine.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_STAGE,
    SWEEP_GRIDS,
    main,
)

SMALL_SCENE_CFG = {"n_total": 120, "n_known": 6, "n_unknown": 25}


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def _write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def small_scene(tmp_path):
    cfg = _write_json(tmp_path / "scene_cfg.json", SMALL_SCENE_CFG)
    out = tmp_path / "scene.csv"
    assert main(["generate", "--config", cfg, "--out", str(out), "--quiet"]) == EXIT_OK
    return out


def test_generate_writes_scene_and_prints_summary(tmp_path, capsys):
    out = tmp_path / "scene.csv"
    assert main(["generate", "--out", str(out)]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["n_total"] == 500 and summary["seed"] == 0
    scene = read_embeddings_csv(out)
    assert scene.n == 500
    assert scene.labels is not None and scene.objectness is not None
    # First line carries the full generating config as a comment.
    first = out.read_text().splitlines()[0]
    assert first.startswith("# ")
    cfg = json.loads(first[2:])
    assert cfg["n_total"] == 500


def test_generate_rejects_unknown_config_keys(tmp_path):
    cfg = _write_json(tmp_path / "bad.json", {"n_total": 50, "n_cluster": 2})
    code = main(["generate", "--config", cfg, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_select_outputs_schema_and_roles(tmp_path, small_scene):
    out = tmp_path / "mined.json"
    code = main(["select", str(small_scene), "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"kept", "known", "background", "unknown", "gains", "metrics"}
    assert len(payload["unknown"]) == 10
    assert len(payload["gains"]["unknown"]) == 10
    assert payload["metrics"]["purity"] >= 0.0
    roles = tmp_path / "mined.roles.csv"
    lines = roles.read_text().splitlines()
    assert lines[0].startswith("# ")
    assert lines[1] == "index,f0,f1,truth,role"
    assert len(lines) == 2 + len(payload["kept"])
    roles_seen = {line.split(",")[-1] for line in lines[2:]}
    assert roles_seen <= {"known", "background", "unknown", "rest"}


def test_select_ignores_zero_norm_row_the_filter_drops(tmp_path, small_scene):
    scene = read_embeddings_csv(small_scene)
    row = int(np.flatnonzero(scene.objectness < 0.2)[0])
    data = np.array(scene.data)
    data[row] = 0.0
    zeroed = tmp_path / "zeroed.csv"
    write_embeddings_csv(
        EmbeddingSet(data, labels=scene.labels, objectness=scene.objectness), zeroed
    )
    outs = []
    for src in (small_scene, zeroed):
        out = tmp_path / f"{src.stem}.json"
        assert main(["select", str(src), "--out", str(out), "--quiet"]) == EXIT_OK
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_select_config_file_and_flag_precedence(tmp_path, small_scene):
    cfg = _write_json(tmp_path / "cfg.json", {"k": 5, "tau_b": 0.1})
    out = tmp_path / "mined.json"
    assert (
        main(["select", str(small_scene), "--config", cfg, "--out", str(out), "--quiet"])
        == EXIT_OK
    )
    assert len(json.loads(out.read_text())["unknown"]) == 5
    assert (
        main(
            [
                "select",
                str(small_scene),
                "--config",
                cfg,
                "--k",
                "3",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        == EXIT_OK
    )
    assert len(json.loads(out.read_text())["unknown"]) == 3


def test_select_reruns_are_byte_identical(tmp_path, small_scene):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out_a, out_b):
        assert (
            main(["select", str(small_scene), "--out", str(out), "--quiet"]) == EXIT_OK
        )
    assert out_a.read_bytes() == out_b.read_bytes()
    roles_a = (tmp_path / "a.roles.csv").read_bytes()
    roles_b = (tmp_path / "b.roles.csv").read_bytes()
    assert roles_a == roles_b


def test_loss_on_explicit_sets(tmp_path, small_scene):
    sets = _write_json(
        tmp_path / "sets.json",
        {"K": [[0, 1, 2], [3, 4, 5]], "U": [6, 7, 8, 9]},
    )
    out = tmp_path / "loss.json"
    code = main(
        [
            "loss",
            str(small_scene),
            "--sets",
            sets,
            "--family",
            "gc",
            "--eta",
            "0.8",
            "--out",
            str(out),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"l_self", "l_cross", "l_total", "grad"}
    assert payload["l_total"] == payload["l_self"] - 0.8 * payload["l_cross"]
    assert len(payload["grad"]) == 120


def test_loss_sets_via_numbered_keys(tmp_path, small_scene):
    sets = _write_json(
        tmp_path / "sets.json",
        {"K1": [0, 1], "K2": [2, 3], "U": [6, 7], "T": list(range(30))},
    )
    code = main(
        ["loss", str(small_scene), "--sets", sets, "--family", "fl", "--quiet"]
    )
    assert code == EXIT_OK


def test_loss_cases_table(tmp_path):
    out = tmp_path / "cases.csv"
    code = main(["loss", "--cases", "--family", "all", "--out", str(out), "--quiet"])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "case,angle_deg,family,l_self,l_cross,l_total"
    assert len(lines) == 2 + 9  # three families times three cases
    families = {line.split(",")[2] for line in lines[2:]}
    assert families == {"facility-location", "graph-cut", "log-determinant"}


def test_loss_argument_validation(tmp_path, small_scene):
    assert main(["loss", str(small_scene), "--quiet"]) == EXIT_CONFIG
    assert main(["loss", "--family", "all", "--quiet"]) == EXIT_CONFIG
    assert main(["loss", "--quiet"]) == EXIT_CONFIG


def test_gradcheck_pass_and_negative_control(tmp_path, small_scene):
    sets = _write_json(
        tmp_path / "sets.json", {"K": [[0, 1, 2], [3, 4, 5]], "U": [6, 7, 8, 9]}
    )
    report = tmp_path / "check.json"
    code = main(
        [
            "gradcheck",
            str(small_scene),
            "--sets",
            sets,
            "--family",
            "gc",
            "--out",
            str(report),
            "--quiet",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["max_rel_err"] < 1e-5
    code = main(
        [
            "gradcheck",
            str(small_scene),
            "--sets",
            sets,
            "--family",
            "gc",
            "--perturb-grad",
            "1e-3",
            "--quiet",
        ]
    )
    assert code == EXIT_CHECK


def test_gradcheck_that_checks_nothing_fails(tmp_path, capsys):
    # Identical rows tie every argmax, so every probe is tie-adjacent.
    scene = tmp_path / "ties.csv"
    write_embeddings_csv(EmbeddingSet(np.ones((6, 3))), scene)
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1], [2, 3]], "U": [4, 5]})
    report = tmp_path / "check.json"
    argv = ["gradcheck", str(scene), "--sets", sets, "--family", "fl"]
    code = main(argv + ["--out", str(report), "--quiet"])
    assert code == EXIT_CHECK
    # Strict JSON: a bare NaN token fails to parse.
    payload = json.loads(report.read_text(), parse_constant=_reject_constant)
    assert payload["checked"] == 0 and payload["tie_adjacent"] == 18
    assert payload["max_abs_err"] is None and payload["max_rel_err"] is None
    assert "18 of 18 probed coordinates were tie-adjacent" in capsys.readouterr().err


@pytest.mark.parametrize("h", ["0", "nan", "inf"])
def test_gradcheck_rejects_a_step_that_measures_nothing(tmp_path, small_scene, capsys, h):
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [6, 7, 8]})
    argv = ["gradcheck", str(small_scene), "--sets", sets, "--family", "gc", "--h", h]
    assert main(argv + ["--quiet"]) == EXIT_CONFIG
    assert "finite and positive" in capsys.readouterr().err


def test_sweep_discovery_parameter(tmp_path, small_scene):
    sweep = _write_json(
        tmp_path / "sweep.json", {"parameter": "k", "values": [0, 2, 4]}
    )
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", str(small_scene), "--sweep", sweep, "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1].startswith("value,n_kept,n_background,n_unknown,purity")
    assert [line.split(",")[0] for line in lines[2:]] == ["0", "2", "4"]


def test_sweep_loss_parameter_uses_default_grid(tmp_path, small_scene):
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "eta"})
    out = tmp_path / "sweep.csv"
    code = main(
        ["sweep", str(small_scene), "--sweep", sweep, "--out", str(out), "--quiet"]
    )
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[1] == "value,family,l_self,l_cross,l_total"
    assert len(lines) == 2 + len(SWEEP_GRIDS["eta"])


def test_sweep_validation(tmp_path, small_scene):
    bad = _write_json(tmp_path / "bad.json", {"parameter": "gamma"})
    assert (
        main(["sweep", str(small_scene), "--sweep", bad, "--out", str(tmp_path / "s.csv")])
        == EXIT_CONFIG
    )
    # lam has no default grid; explicit values are required.
    lam = _write_json(tmp_path / "lam.json", {"parameter": "lam"})
    assert (
        main(["sweep", str(small_scene), "--sweep", lam, "--out", str(tmp_path / "s.csv")])
        == EXIT_CONFIG
    )


def test_missing_input_exits_io(tmp_path):
    code = main(
        ["select", str(tmp_path / "nowhere.csv"), "--out", str(tmp_path / "o.json")]
    )
    assert code == EXIT_IO


def test_stage_failure_exits_stage(tmp_path):
    # A scene without objectness cannot pass the filter stage.
    bare = tmp_path / "bare.csv"
    write_embeddings_csv(
        EmbeddingSet(np.eye(3), labels=[1, 0, -1]), bare
    )
    code = main(["select", str(bare), "--out", str(tmp_path / "o.json"), "--quiet"])
    assert code == EXIT_STAGE


def test_select_with_everything_filtered_exits_stage(tmp_path, capsys):
    # No item reaches tau_e, so the filter stage leaves nothing to mine.
    scene = tmp_path / "dim.csv"
    write_embeddings_csv(
        EmbeddingSet(np.eye(3), labels=[1, 0, -1], objectness=[0.1, 0.2, 0.3]), scene
    )
    argv = ["select", str(scene), "--tau-e", "0.5", "--out", str(tmp_path / "o.json")]
    assert main(argv + ["--quiet"]) == EXIT_STAGE
    assert "filter: empty set after filtering" in capsys.readouterr().err


def test_argparse_rejections_map_to_config_exit(tmp_path, capsys):
    assert main(["resolve"]) == EXIT_CONFIG
    assert main(["select", "x.csv", "--family", "dpp"]) == EXIT_CONFIG
    capsys.readouterr()  # swallow argparse usage text


def test_sweep_grids_are_the_documented_defaults():
    assert SWEEP_GRIDS == {
        "k": [0, 5, 10, 30, 100],
        "tau_e": [0.05, 0.2, 0.5],
        "tau_b": [0.1, 0.3, 0.5],
        "eta": [0.5, 1.0, 1.5],
    }
