"""Command-line interface: subcommands, config precedence, exit codes."""

import argparse
import dataclasses
import gc
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import submine.discovery
import submine.kernels
import submine.losses
from submine import (
    DiscoveryConfig,
    EmbeddingSet,
    IndexSet,
    LossConfig,
    SceneSpec,
    read_embeddings_csv,
    write_embeddings_csv,
)
from submine.cli import (
    EXIT_CHECK,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    EXIT_STAGE,
    SWEEP_GRIDS,
    _config_dict,
    _parser,
    _write_roles_csv,
    main,
)
from helpers import roles_csv_reference

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


def _labeled_rows_csv(tmp_path, scene_path):
    """A prototypes file holding the scene's labeled rows, and the scene."""
    scene = read_embeddings_csv(scene_path)
    protos = tmp_path / "protos.csv"
    write_embeddings_csv(EmbeddingSet(scene.data[scene.labels >= 1]), protos)
    return protos, scene


def test_select_prototypes_file_of_the_labeled_rows_matches_the_default(tmp_path, small_scene):
    protos, _ = _labeled_rows_csv(tmp_path, small_scene)
    for name, extra in (("default", []), ("protos", ["--prototypes", str(protos)])):
        argv = ["select", str(small_scene), "--out", str(tmp_path / f"{name}.json"), "--quiet"]
        assert main(argv + extra) == EXIT_OK
    for suffix in (".json", ".roles.csv"):
        want = (tmp_path / f"default{suffix}").read_bytes()
        assert (tmp_path / f"protos{suffix}").read_bytes() == want


def test_select_on_an_unlabeled_scene_with_prototypes(tmp_path, small_scene):
    protos, scene = _labeled_rows_csv(tmp_path, small_scene)
    unlabeled = tmp_path / "unlabeled.csv"
    write_embeddings_csv(EmbeddingSet(scene.data, objectness=scene.objectness), unlabeled)
    out = tmp_path / "mined.json"
    argv = ["select", str(unlabeled), "--prototypes", str(protos), "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["metrics"] == {} and len(payload["unknown"]) == 10
    lines = (tmp_path / "mined.roles.csv").read_text().splitlines()
    assert lines[1] == "index,f0,f1,truth,role"
    assert len(lines) == 2 + len(payload["kept"])
    assert all(line.split(",")[-2] == "" for line in lines[2:])


def test_select_with_more_prototypes_than_kept_items_exits_stage(tmp_path, small_scene, capsys):
    scene = read_embeddings_csv(small_scene)
    kept = int((scene.objectness >= DiscoveryConfig().tau_e).sum())
    argv = ["select", str(small_scene), "--prototypes", str(small_scene),
            "--out", str(tmp_path / "big.json")]
    assert main(argv) == EXIT_STAGE
    err = capsys.readouterr().err
    assert f"error: match: more prototypes ({scene.n}) than kept items ({kept})" in err


def test_select_with_prototypes_of_another_dimension_exits_config(tmp_path, small_scene, capsys):
    protos = tmp_path / "p3.csv"
    protos.write_text("f0,f1,f2\n1.0,0.0,0.0\n")
    argv = ["select", str(small_scene), "--prototypes", str(protos),
            "--out", str(tmp_path / "o.json")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: {protos}: 3 features, the scene has 2\n"


def test_select_names_a_zero_norm_prototype_row_as_a_prototype(tmp_path, small_scene, capsys):
    protos = tmp_path / "zero.csv"
    protos.write_text("f0,f1\n0,0\n")
    argv = ["select", str(small_scene), "--prototypes", str(protos),
            "--out", str(tmp_path / "o.json")]
    assert main(argv) == EXIT_STAGE
    assert capsys.readouterr().err == "error: match: zero-norm prototype row 0\n"


def test_select_with_an_unknown_transform_in_the_config_exits_config(tmp_path, small_scene, capsys):
    cfg = _write_json(tmp_path / "cfg.json", {"transform": 3})
    argv = ["select", str(small_scene), "--config", cfg, "--out", str(tmp_path / "o.json")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: unknown transform 3\n"


@pytest.mark.parametrize(
    "text",
    ['{"k": 1e999}', '{"k": NaN}', '{"k": 2.5}', '{"lam": NaN}', '{"lam": -Infinity}',
     '{"epsilon": Infinity}'],
)
def test_select_refuses_a_non_finite_or_fractional_config_value(tmp_path, small_scene, capsys, text):
    key, value = next(iter(json.loads(text).items()))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    out = tmp_path / "o.json"
    argv = ["select", str(small_scene), "--family", "logdet", "--config", str(cfg), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.endswith(f", got {value!r}\n")
    assert err.count("\n") == 1 and not out.exists()


@pytest.mark.parametrize(
    "config, key",
    [({"n_total": 500.5}, "n_total"), ({"n_known": 10.0}, "n_known"), ({"seed": 2**64}, "seed"),
     ({"seed": 2.5}, "seed"), ({"seed": 10**30}, "seed")],
)
def test_generate_refuses_a_seed_or_count_that_is_not_an_integer_in_range(
    tmp_path, capsys, config, key
):
    out = tmp_path / "scene.csv"
    argv = ["generate", "--config", _write_json(tmp_path / "c.json", config), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be an integer ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["k", "tau_e", "lam"])
@pytest.mark.parametrize("value", [True, False])
@pytest.mark.parametrize("command", ["select", "sweep"])
def test_a_bool_count_or_weight_exits_config(tmp_path, small_scene, capsys, command, key, value):
    out = tmp_path / "out"
    if command == "select":
        cfg = _write_json(tmp_path / "cfg.json", {key: value})
        argv = ["select", str(small_scene), "--config", cfg]
    else:
        sweep = _write_json(tmp_path / "sweep.json", {"parameter": "tau_b", "values": [0.3],
                                                      "config": {key: value}})
        argv = ["sweep", str(small_scene), "--sweep", sweep]
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {key} must be a number, not a bool, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("cases", {"eta": True}),
        ("loss", {"lam": True}),
        ("gradcheck", {"nu": False}),
        ("generate", {"cluster_stddev": True}),
        ("generate", {"cluster_means": 5}),
        ("select", {"exclude_background_from_pool": "false"}),
        ("select", {"exclude_background_from_pool": 0}),
        ("select", {"exclude_background_from_pool": None}),
        ("select", {"exclude_background_from_pool": float("nan")}),
        ("select", {"exclude_background_from_pool": [1]}),
    ],
)
def test_a_bool_or_truthy_config_value_exits_config_naming_its_key(
    tmp_path, small_scene, capsys, command, config
):
    (key,) = config
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [10, 11]})
    out = tmp_path / "out"
    argv = {
        "cases": ["loss", "--cases"],
        "loss": ["loss", str(small_scene), "--sets", sets],
        "gradcheck": ["gradcheck", str(small_scene), "--sets", sets],
        "generate": ["generate"],
        "select": ["select", str(small_scene)],
    }[command] + ["--config", _write_json(tmp_path / "cfg.json", config), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["loss", "gradcheck"])
def test_a_loss_that_overflows_float64_exits_config(tmp_path, small_scene, capsys, command):
    # Finite weights whose loss is not: it would be written as NaN and
    # Infinity, and the audit would compare NaNs and pass.
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [10, 11]})
    cfg = _write_json(tmp_path / "cfg.json", {"eta": 1e300, "nu": 10**30})
    out = tmp_path / "out.json"
    argv = [command, str(small_scene), "--sets", sets, "--config", cfg, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: overflow encountered in multiply\n"
    assert not out.exists()


def test_generate_refuses_a_scene_above_the_byte_budget(tmp_path, capsys):
    out = tmp_path / "scene.csv"
    cfg = _write_json(tmp_path / "c.json", {"n_total": 10**15})
    assert main(["generate", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "error: n_total x d = 1000000000000000 x 2 embeddings need 16,000,000,000,000,000 "
        "bytes, above the 2,147,483,648-byte budget\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "loss", "gradcheck", "gradcheck-sampled"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_flag_outside_u64_exits_config(tmp_path, capsys, command, seed):
    # gradcheck checks its seed whether it samples (120 x 48 > 5000
    # coordinates) or probes every coordinate (120 x 2).
    out = tmp_path / "out.csv"
    argv = {"generate": ["generate"], "loss": ["loss", "--cases"]}.get(command)
    if argv is None:
        scene = _padded_scene(tmp_path, 48 if command == "gradcheck-sampled" else 2)
        sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [6, 7, 8]})
        argv = ["gradcheck", str(scene), "--sets", sets]
        capsys.readouterr()
    assert main([*argv, "--seed", str(seed), "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"error: seed must be an integer in [0, {2**64 - 1}], got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("generate", {"n_known": 5, "n_total": "a"}, "n_total"),
        ("select", {"tau_e": 0.1, "lam": "a"}, "lam"),
        ("select", {"k": [3]}, "k"),
        ("loss", {"eta": 1.0, "lam": "a"}, "lam"),
    ],
)
def test_a_config_value_of_the_wrong_type_is_named_by_its_key(
    tmp_path, small_scene, capsys, command, config, key
):
    cfg = _write_json(tmp_path / "cfg.json", config)
    out = tmp_path / "out"
    argv = {
        "generate": ["generate"],
        "select": ["select", str(small_scene)],
        "loss": ["loss", "--cases"],
    }[command] + ["--config", cfg, "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ") and err.count("\n") == 1
    assert err.endswith(f", not {type(config[key]).__name__}\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "text, err",
    [
        ('{"eta": "a"}', "error: eta must be a number, not str\n"),
        ('{"eta": NaN}', "error: eta must be a finite number, got nan\n"),
        ('{"lam": Infinity}', "error: lam must be a finite number >= 0, got inf\n"),
        ('{"nu": NaN}', "error: nu must be a finite number >= 0, got nan\n"),
    ],
    ids=["eta-str", "eta-nan", "lam-inf", "nu-nan"],
)
@pytest.mark.parametrize("command", ["cases", "loss", "gradcheck", "sweep"])
def test_a_non_finite_or_non_number_loss_weight_exits_config(
    tmp_path, small_scene, capsys, command, text, err
):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [10, 11]})
    out = tmp_path / "out"
    if command == "sweep":
        key, value = text[1:-1].split(": ")
        sweep = tmp_path / "sweep.json"
        sweep.write_text(f'{{"parameter": {key}, "values": [{value}]}}')
        argv = ["sweep", str(small_scene), "--sweep", str(sweep)]
    else:
        argv = {
            "cases": ["loss", "--cases"],
            "loss": ["loss", str(small_scene), "--sets", sets],
            "gradcheck": ["gradcheck", str(small_scene), "--sets", sets],
        }[command] + ["--config", str(cfg)]
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == err
    assert not out.exists()


def test_a_k_sweep_over_an_infinite_k_exits_config(tmp_path, small_scene, capsys):
    sweep = tmp_path / "sweep.json"
    sweep.write_text('{"parameter": "k", "values": [1e999]}')
    out = tmp_path / "s.csv"
    argv = ["sweep", str(small_scene), "--sweep", str(sweep), "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: k must be a finite number >= 0, got inf\n"
    assert not out.exists()


@pytest.mark.parametrize("family", ["fl", "gc", "logdet"])
def test_select_with_a_k_above_the_pool_mines_the_whole_pool(tmp_path, small_scene, family):
    cfg = _write_json(tmp_path / "cfg.json", {"k": 1e12})
    huge, whole = tmp_path / "huge.json", tmp_path / "whole.json"
    argv = ["select", str(small_scene), "--family", family, "--quiet"]
    assert main(argv + ["--config", cfg, "--out", str(huge)]) == EXIT_OK
    mined = json.loads(huge.read_text())
    pool = len(mined["kept"]) - len(mined["known"]) - len(mined["background"])
    assert len(mined["unknown"]) == pool
    assert main(argv + ["--k", str(pool), "--out", str(whole)]) == EXIT_OK
    assert huge.read_bytes() == whole.read_bytes()


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
    def run(name):
        out = tmp_path / f"{name}.json"
        assert main(["select", str(small_scene), "--out", str(out), "--quiet"]) == EXIT_OK

    run("a")
    run("b")
    # The third run writes over files that hold more bytes than it writes.
    for suffix in (".json", ".roles.csv"):
        size = (tmp_path / f"a{suffix}").stat().st_size
        (tmp_path / f"stale{suffix}").write_bytes(b"#" * (2 * size + 1))
    run("stale")
    for suffix in (".json", ".roles.csv"):
        first = (tmp_path / f"a{suffix}").read_bytes()
        assert first == (tmp_path / f"b{suffix}").read_bytes()
        assert first == (tmp_path / f"stale{suffix}").read_bytes()


@pytest.mark.parametrize("include_background", [False, True])
def test_select_roles_csv_matches_reference(tmp_path, small_scene, include_background):
    out = tmp_path / "mined.json"
    argv = ["select", str(small_scene), "--out", str(out), "--quiet"]
    if include_background:
        argv.append("--include-background")
    assert main(argv) == EXIT_OK
    payload = json.loads(out.read_text())
    result = SimpleNamespace(
        **{key: IndexSet.of(payload[key]) for key in ("kept", "known", "background", "unknown")}
    )
    roles = (tmp_path / "mined.roles.csv").read_text()
    comment = roles.splitlines()[0][len("# "):]
    ref = tmp_path / "reference.roles.csv"
    roles_csv_reference(ref, read_embeddings_csv(small_scene), result, comment)
    assert roles == ref.read_text()
    assert "np." not in roles


def test_roles_csv_overlapping_sets_follow_reference_precedence(tmp_path):
    # Overlaps the pipeline does not produce today: known beats background,
    # background beats unknown, and a kept item in no set is "rest".
    scene = EmbeddingSet(np.arange(12.0).reshape(6, 2) - 5.5, labels=[1, 0, -1, 0, 2, -1])
    result = SimpleNamespace(
        kept=IndexSet.of([5, 0, 1, 2, 3, 4]),
        known=IndexSet.of([0, 4]),
        background=IndexSet.of([1, 2, 4]),
        unknown=IndexSet.of([2, 3, 0]),
    )
    config = DiscoveryConfig()
    _write_roles_csv(tmp_path / "new.csv", scene, result, config)
    comment = (tmp_path / "new.csv").read_text().splitlines()[0][len("# "):]
    roles_csv_reference(tmp_path / "ref.csv", scene, result, comment)
    new = (tmp_path / "new.csv").read_text()
    assert new == (tmp_path / "ref.csv").read_text()
    assert [line.split(",")[-1] for line in new.splitlines()[2:]] == [
        "known", "background", "background", "unknown", "known", "rest"
    ]


@pytest.mark.parametrize("cell", ["1e30", "nan"])
def test_select_rejects_a_label_outside_int64(tmp_path, capsys, cell):
    scene = tmp_path / "huge_label.csv"
    scene.write_text(f"f0,f1,label,objectness\n1.0,0.0,1,0.9\n0.0,1.0,{cell},0.9\n")
    argv = ["select", str(scene), "--out", str(tmp_path / "o.json"), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "huge_label.csv: label" in err


@pytest.mark.parametrize(
    "cell,message",
    [
        ("abc", "bad_cell.csv: f1 cell 'abc' in data row 2 is not a number"),
        ("inf", "bad_cell.csv: f1 value inf in data row 2 is not finite"),
    ],
)
def test_select_names_the_row_and_column_of_a_bad_cell(tmp_path, capsys, cell, message):
    scene = tmp_path / "bad_cell.csv"
    scene.write_text(f"f0,f1,label,objectness\n1.0,0.0,1,0.9\n0.0,{cell},1,0.9\n")
    argv = ["select", str(scene), "--out", str(tmp_path / "o.json"), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.rstrip().endswith(message)


@pytest.mark.parametrize("target", ["scene", "prototypes", "sets", "config"])
@pytest.mark.parametrize("at", [0, -1])
def test_an_input_that_is_not_utf8_is_named(tmp_path, small_scene, capsys, target, at):
    # A 0xff byte first in the file, or before its last byte.
    clean = {
        "scene": small_scene.read_bytes(),
        "prototypes": b"".join(small_scene.read_bytes().splitlines(keepends=True)[:12]),
        "sets": json.dumps({"K": [[0, 1, 2]], "U": [6, 7, 8], "T": list(range(60))}).encode(),
        "config": json.dumps({"eta": 0.5, "family": "gc"}).encode(),
    }
    paths = {}
    for name, data in clean.items():
        paths[name] = tmp_path / f"{name}.in"
        if name == target:
            data = data[:at] + b"\xff" + data[at:]
        paths[name].write_bytes(data)
    if target == "prototypes":
        argv = ["select", str(paths["scene"]), "--prototypes", str(paths["prototypes"])]
    else:
        argv = ["loss", str(paths["scene"]), "--sets", str(paths["sets"])]
        if target == "config":
            argv += ["--config", str(paths["config"])]
    out = tmp_path / "out.json"
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {paths[target]}: not utf-8 text (invalid start byte: 0xff)\n"
    )
    assert not out.exists()


def test_a_seed_flag_is_refused_where_nothing_reads_it(tmp_path, small_scene, capsys):
    # select and sweep draw nothing at random, and loss draws only its --cases.
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "tau_b"})
    out = tmp_path / "out"
    for argv in (["select", str(small_scene)], ["sweep", str(small_scene), "--sweep", sweep]):
        assert main([*argv, "--seed", "1", "--out", str(out)]) == EXIT_CONFIG
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [6, 7, 8]})
    argv = ["loss", str(small_scene), "--sets", sets, "--seed", "1", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: --seed is only valid with --cases\n"
    assert not out.exists()


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


def _padded_scene(tmp_path, d, seed=0):
    """The small scene in d dimensions, its 2-d means padded with zeros."""
    spec, zeros = SceneSpec(), [0.0] * (d - 2)
    cfg = dict(
        SMALL_SCENE_CFG,
        d=d,
        seed=seed,
        cluster_means=[list(m) + zeros for m in spec.cluster_means],
        background_mean=list(spec.background_mean) + zeros,
    )
    out = tmp_path / f"scene{d}.csv"
    args = ["generate", "--config", _write_json(tmp_path / f"cfg{d}.json", cfg)]
    assert main(args + ["--out", str(out), "--quiet"]) == EXIT_OK
    return out


@pytest.fixture
def scene_12d(tmp_path):
    """The small scene in 12-d: the 2-d scene cannot hold a positive
    definite log-det block over 7 items."""
    return _padded_scene(tmp_path, 12)


@pytest.mark.parametrize("family", ["fl", "gc", "logdet"])
def test_gradcheck_pass_and_negative_control(tmp_path, scene_12d, capsys, family):
    sets = _write_json(
        tmp_path / "sets.json", {"K": [[0, 1, 2], [3, 4, 5]], "U": [6, 7, 8, 9]}
    )
    args = ["gradcheck", str(scene_12d), "--sets", sets, "--family", family, "--quiet"]
    reports = [tmp_path / "check1.json", tmp_path / "check2.json"]
    for report in reports:
        assert main(args + ["--out", str(report)]) == EXIT_OK
    assert reports[0].read_bytes() == reports[1].read_bytes()
    payload = json.loads(reports[0].read_text())
    assert payload["max_rel_err"] < 1e-5
    capsys.readouterr()
    assert main(args + ["--perturb-grad", "1e-3"]) == EXIT_CHECK
    err = capsys.readouterr().err
    assert err.startswith("error: max_rel_err ") and err.endswith(" is not below --tol 1e-05\n")
    assert err.count("\n") == 1


def test_gradcheck_leaves_out_probes_that_cross_a_hinge(tmp_path):
    # At seed 2, two probes move a row of facility location's cross term
    # across its hinge and no argmax row: counted as checked, their kink
    # would put max_rel_err at 2.8e-4 and exit 5.
    scene = _padded_scene(tmp_path, 12, seed=2)
    sets = _write_json(
        tmp_path / "sets.json", {"K": [[0, 1, 2], [3, 4, 5]], "U": [6, 7, 8, 9]}
    )
    report = tmp_path / "check.json"
    argv = ["gradcheck", str(scene), "--sets", sets, "--family", "fl",
            "--eta", "0.5", "--nu", "0.5", "--out", str(report), "--quiet"]
    assert main(argv) == EXIT_OK
    payload = json.loads(report.read_text())
    assert payload["tie_adjacent"] == 2 and payload["max_rel_err"] < 1e-5


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_gradcheck_refuses_a_tolerance_that_is_not_finite_and_positive(
    tmp_path, small_scene, capsys, tol
):
    # An infinite tolerance would pass a gradient corrupted by 1e3, and the
    # others would fail a sound one.
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [6, 7, 8]})
    out = tmp_path / "check.json"
    argv = ["gradcheck", str(small_scene), "--sets", sets, "--family", "gc",
            "--perturb-grad", "1e3", "--tol", tol, "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: --tol must be finite and positive, got {float(tol)!r}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["loss", "gradcheck"])
def test_a_singular_logdet_adjoint_exits_config_naming_the_cross_term(tmp_path, capsys, command):
    # Seven 2-d rows whose cross term's Schur complement has a Cholesky
    # factor but no inverse; the message names the term, not numpy's fault.
    scene = tmp_path / "seven.csv"
    rows = [[-2, 2], [-1, 2], [-1, 1], [1, 1], [-1, 1], [-2, -1], [-1, 2]]
    write_embeddings_csv(EmbeddingSet(np.array(rows, dtype=float)), scene)
    sets = _write_json(tmp_path / "sets.json", {"K": [[3, 4, 5, 6, 0]], "U": [1, 2]})
    out = tmp_path / "out.json"
    argv = [command, str(scene), "--sets", sets, "--family", "logdet", "--lam", "0.5",
            "--nu", "0.5", "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == "error: cross term not positive definite\n"
    assert not out.exists()


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


@pytest.mark.parametrize("flag", ["--config", "--sets", "--sweep"])
def test_a_json_input_that_is_a_list_exits_config(tmp_path, small_scene, capsys, flag):
    path = _write_json(tmp_path / "list.json", [{"k": 2}])
    command = {"--config": "select", "--sets": "loss", "--sweep": "sweep"}[flag]
    argv = [command, str(small_scene), flag, path, "--out", str(tmp_path / "out")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"


@pytest.mark.parametrize(
    "labels, message",
    [
        ([-1, 0, 0, -1], "scene has no labeled known items"),
        ([1, 2, -1, 1], "scene has no unlabeled unknowns for the loss sweep"),
    ],
    ids=["no-knowns", "no-unknowns"],
)
def test_a_loss_sweep_needs_labeled_knowns_and_unknowns(tmp_path, capsys, labels, message):
    scene = tmp_path / "scene.csv"
    write_embeddings_csv(EmbeddingSet(np.eye(4), labels=labels), scene)
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "eta"})
    argv = ["sweep", str(scene), "--sweep", sweep, "--out", str(tmp_path / "s.csv")]
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_input_exits_io(tmp_path):
    code = main(
        ["select", str(tmp_path / "nowhere.csv"), "--out", str(tmp_path / "o.json")]
    )
    assert code == EXIT_IO


def test_output_to_a_directory_exits_io(tmp_path, small_scene):
    code = main(["select", str(small_scene), "--out", str(tmp_path), "--quiet"])
    assert code == EXIT_IO


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_select_writes_to_dev_null(small_scene):
    # A character device cannot be cut to length: the writer must not try.
    argv = ["select", str(small_scene), "--out", "/dev/null", "--roles-out", "/dev/null"]
    assert main(argv + ["--quiet"]) == EXIT_OK


def _run_into(name, tmp_path, scene, scene_12d, out):
    """One run of `name` with its outputs at `out` (and `out`.roles for
    select): its exit code and the output paths."""
    sets = _write_json(
        tmp_path / "sets.json", {"K": [[0, 1, 2], [3, 4, 5]], "U": [6, 7, 8, 9]}
    )
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "k", "values": [0, 2]})
    argv = {
        "generate": ["generate", "--config", _write_json(tmp_path / "c.json", SMALL_SCENE_CFG)],
        "select": ["select", str(scene), "--roles-out", out + ".roles"],
        "loss": ["loss", str(scene), "--sets", sets, "--family", "gc"],
        "loss-cases": ["loss", "--cases", "--family", "all"],
        "gradcheck": ["gradcheck", str(scene_12d), "--sets", sets, "--family", "logdet"],
        "sweep": ["sweep", str(scene), "--sweep", sweep],
    }[name]
    outputs = [out, out + ".roles"] if name == "select" else [out]
    return main(argv + ["--out", out, "--quiet"]), outputs


@pytest.mark.parametrize("name", ["generate", "loss", "loss-cases", "gradcheck", "sweep"])
def test_rerun_over_a_longer_file_writes_fresh_bytes(tmp_path, small_scene, scene_12d, name):
    code, fresh = _run_into(name, tmp_path, small_scene, scene_12d, str(tmp_path / "fresh"))
    assert code == EXIT_OK
    stale = str(tmp_path / "stale")
    with open(stale, "wb") as fh:
        fh.write(b"#" * (2 * os.path.getsize(fresh[0]) + 1))
    assert _run_into(name, tmp_path, small_scene, scene_12d, stale)[0] == EXIT_OK
    with open(fresh[0], "rb") as a, open(stale, "rb") as b:
        assert a.read() == b.read()


@pytest.mark.parametrize(
    "name", ["generate", "select", "loss", "loss-cases", "gradcheck", "sweep"]
)
def test_no_output_is_truncated_to_zero(tmp_path, small_scene, scene_12d, monkeypatch, name):
    # Opening an output with O_TRUNC makes ext4 flush it on close() when a
    # rerun replaces it; every output goes through os.open without that flag.
    real_open, opened = os.open, []

    def spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    code, outputs = _run_into(name, tmp_path, small_scene, scene_12d, str(tmp_path / "o"))
    assert code == EXIT_OK
    assert set(outputs) <= {path for path, _ in opened}
    assert not [path for path, flags in opened if flags & os.O_TRUNC]


def test_stage_failure_exits_stage(tmp_path):
    # A scene without objectness cannot pass the filter stage.
    bare = tmp_path / "bare.csv"
    write_embeddings_csv(
        EmbeddingSet(np.eye(3), labels=[1, 0, -1]), bare
    )
    code = main(["select", str(bare), "--out", str(tmp_path / "o.json"), "--quiet"])
    assert code == EXIT_STAGE


def test_a_kernel_over_the_byte_budget_exits_config_before_it_is_built(
    tmp_path, small_scene, capsys, monkeypatch
):
    kept = int((read_embeddings_csv(small_scene).objectness >= 0.2).sum())
    nbytes = 8 * kept**2
    monkeypatch.setattr(submine.kernels, "MAX_KERNEL_BYTES", nbytes - 1)

    def never(*args, **kwargs):
        raise AssertionError("the kernel is built")

    monkeypatch.setattr(submine.discovery, "cosine_kernel", never)
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "tau_b"})
    for argv in (["select", str(small_scene), "--out", str(tmp_path / "o.json")],
                 ["sweep", str(small_scene), "--sweep", sweep, "--out", str(tmp_path / "s.csv")]):
        assert main(argv + ["--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (f"error: {kept} kept items need a {nbytes:,}-byte kernel, "
                       f"above the {nbytes - 1:,}-byte budget\n")
    monkeypatch.setattr(submine.kernels, "MAX_KERNEL_BYTES", nbytes)
    with pytest.raises(AssertionError, match="the kernel is built"):
        main(["select", str(small_scene), "--out", str(tmp_path / "o.json"), "--quiet"])


def test_a_loss_over_the_byte_budget_exits_config_before_its_kernel_is_built(
    tmp_path, small_scene, capsys, monkeypatch
):
    # The budget counts the n x |C| kernel and its adjoint; C is K and U.
    scene = read_embeddings_csv(small_scene)
    sets = _write_json(tmp_path / "sets.json", {"K": [[0, 1, 2]], "U": [10, 11]})
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "eta", "values": [1.0]})
    runs = [
        (["loss", str(small_scene), "--sets", sets], 5),
        (["gradcheck", str(small_scene), "--sets", sets], 5),
        (["sweep", str(small_scene), "--sweep", sweep], int((scene.labels >= 0).sum())),
    ]

    def never(*args, **kwargs):
        raise AssertionError("the kernel is built")

    monkeypatch.setattr(submine.losses, "cosine_columns", never)
    out = tmp_path / "out"
    for argv, c in runs:
        argv = argv + ["--out", str(out), "--quiet"]
        nbytes = 2 * 8 * scene.n * c
        monkeypatch.setattr(submine.kernels, "MAX_KERNEL_BYTES", nbytes - 1)
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"error: K and U hold {c} items, so the {scene.n} x {c} kernel and its adjoint "
            f"need {nbytes:,} bytes, above the {nbytes - 1:,}-byte budget\n"
        )
        assert not out.exists()
        monkeypatch.setattr(submine.kernels, "MAX_KERNEL_BYTES", nbytes)
        with pytest.raises(AssertionError, match="the kernel is built"):
            main(argv)


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


def test_parser_reuse_after_a_rejection_matches_a_fresh_parser(tmp_path, small_scene, capsys):
    def select(name):
        out = tmp_path / f"{name}.json"
        argv = ["select", str(small_scene), "--family", "logdet", "--out", str(out)]
        assert main(argv) == EXIT_OK
        stdout = capsys.readouterr().out
        return stdout, out.read_bytes(), (tmp_path / f"{name}.roles.csv").read_bytes()

    _parser.cache_clear()
    fresh = select("fresh")
    assert main(["select", str(small_scene), "--k", "many"]) == EXIT_CONFIG
    capsys.readouterr()
    assert select("reused") == fresh
    assert _parser() is _parser()


def test_building_the_parser_leaves_no_garbage_in_reference_cycles():
    _parser.cache_clear()
    gc.collect()
    _parser()
    assert gc.collect() == 0


def test_sweep_grids_are_the_documented_defaults():
    assert SWEEP_GRIDS == {
        "k": [0, 5, 10, 30, 100],
        "tau_e": [0.05, 0.2, 0.5],
        "tau_b": [0.1, 0.3, 0.5],
        "eta": [0.5, 1.0, 1.5],
    }


def _flag_dests(command):
    sub = next(a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions}


def test_every_config_field_is_a_flag_dest():
    # The handlers map flags to config fields by dest: a renamed dest would
    # silently stop reaching its field.
    def fields(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert fields(DiscoveryConfig) - {"exclude_background_from_pool"} <= _flag_dests("select")
    assert fields(LossConfig) <= _flag_dests("loss")
    assert fields(LossConfig) <= _flag_dests("gradcheck")
    assert "seed" in fields(SceneSpec) and "seed" in _flag_dests("generate")


def _comment(path):
    return json.loads(path.read_text().splitlines()[0][len("# "):])


# field: (value in the --config file, flag value); each differs from the default.
SELECT_PRECEDENCE = {
    "tau_e": (0.15, "0.1"),
    "tau_b": (0.2, "0.1"),
    "k": (5, "3"),
    "family": ("fl", "logdet"),
    "lam": (0.4, "0.3"),
    "epsilon": (1e-3, "1e-2"),
    "transform": ("raw-cosine", "affine-shift"),
}


@pytest.mark.parametrize("field", sorted(SELECT_PRECEDENCE))
def test_select_flag_beats_file_beats_default(tmp_path, small_scene, field):
    file_value, flag_value = SELECT_PRECEDENCE[field]
    cfg = _write_json(tmp_path / "cfg.json", {field: file_value})
    out = tmp_path / "mined.json"
    base = ["select", str(small_scene), "--out", str(out), "--quiet"]
    flag = ["--" + field.replace("_", "-"), flag_value]
    expect = {
        "default": DiscoveryConfig(),
        "file": DiscoveryConfig(**{field: file_value}),
        "flag": DiscoveryConfig(**{field: type(file_value)(flag_value)}),
    }
    for source, argv in (
        ("default", base),
        ("file", base + ["--config", cfg]),
        ("flag", base + ["--config", cfg] + flag),
    ):
        assert main(argv) == EXIT_OK
        want = json.loads(json.dumps(_config_dict(expect[source])))[field]
        assert _comment(tmp_path / "mined.roles.csv")[field] == want, source
    assert expect["default"] != expect["file"] != expect["flag"]


def test_select_nu_reaches_the_config_from_file_and_flag(tmp_path, small_scene, capsys):
    # nu must be 1 in mining, so the file and the flag show by being refused.
    half = _write_json(tmp_path / "half.json", {"nu": 0.5})
    base = ["select", str(small_scene), "--out", str(tmp_path / "o.json"), "--quiet"]
    assert main(base + ["--nu", "0.5"]) == EXIT_CONFIG
    assert main(base + ["--config", half]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("definitional gain") == 2
    assert main(base + ["--config", half, "--nu", "1"]) == EXIT_OK


# field: (default, value in the --config file, flag value)
LOSS_PRECEDENCE = {
    "eta": (1.0, 0.7, "0.9"),
    "lam": (0.5, 0.4, "0.3"),
    "nu": (1.0, 0.5, "0.8"),
    "mode": ("owod", "iod", "owod"),
}


@pytest.mark.parametrize("field", sorted(LOSS_PRECEDENCE))
def test_loss_flag_beats_file_beats_default(tmp_path, field):
    default, file_value, flag_value = LOSS_PRECEDENCE[field]
    cfg = _write_json(tmp_path / "cfg.json", {field: file_value})
    out = tmp_path / "cases.csv"
    base = ["loss", "--cases", "1", "--family", "gc", "--out", str(out), "--quiet"]
    for argv, want in (
        (base, default),
        (base + ["--config", cfg], file_value),
        (base + ["--config", cfg, f"--{field}", flag_value], type(default)(flag_value)),
    ):
        assert main(argv) == EXIT_OK
        assert _comment(out)[field] == want


def test_loss_family_flag_beats_file(tmp_path):
    # A --family flag overrides the --config file's family.
    cfg = _write_json(tmp_path / "cfg.json", {"family": "logdet"})
    out = tmp_path / "cases.csv"
    argv = ["loss", "--cases", "1", "--family", "gc", "--config", cfg]
    assert main(argv + ["--out", str(out), "--quiet"]) == EXIT_OK
    assert _comment(out)["family"] == "gc"
    assert out.read_text().splitlines()[2].split(",")[2] == "graph-cut"


def test_loss_family_file_beats_default(tmp_path):
    # --family has no built-in default, so a --config file's family applies.
    cfg = _write_json(tmp_path / "cfg.json", {"family": "gc"})
    out = tmp_path / "cases.csv"
    base = ["loss", "--cases", "1", "--out", str(out), "--quiet"]
    for argv, alias, family in (
        (base, "fl", "facility-location"),
        (base + ["--config", cfg], "gc", "graph-cut"),
    ):
        assert main(argv) == EXIT_OK
        assert _comment(out)["family"] == alias
        assert out.read_text().splitlines()[2].split(",")[2] == family


def test_sweep_needs_a_labeled_scene(tmp_path, capsys):
    scene = tmp_path / "unlabeled.csv"
    write_embeddings_csv(EmbeddingSet(np.eye(3), objectness=np.ones(3)), scene)
    for parameter in ("k", "eta"):
        sweep = _write_json(tmp_path / "sweep.json", {"parameter": parameter})
        argv = ["sweep", str(scene), "--sweep", sweep, "--out", str(tmp_path / "s.csv")]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: sweep needs a labeled scene" in err
        assert "--sets" not in err


def test_generate_seed_flag_beats_file_beats_default(tmp_path):
    cfg = _write_json(tmp_path / "cfg.json", {"seed": 3, "n_total": 40, "n_known": 4, "n_unknown": 8})
    out = tmp_path / "scene.csv"
    base = ["generate", "--out", str(out), "--quiet", "--config", cfg]
    assert main(base) == EXIT_OK and _comment(out)["seed"] == 3
    assert main(base + ["--seed", "4"]) == EXIT_OK and _comment(out)["seed"] == 4


@pytest.mark.parametrize(
    "spec,key",
    [
        ({"K": [1, 2], "U": [3]}, "K[0]"),
        ({"K": 5, "U": [3]}, "K"),
        ({"K": [[0, 1]], "U": [3], "T": 7}, "T"),
        ({"K": [[0, 1.5]], "U": [3]}, "K[0]"),
        ({"K": [[0, 1], ["2"]], "U": [3]}, "K[1]"),
        ({"K": [[0, 1]], "U": ["3"]}, "U"),
        ({"K": [[0, 1]], "U": [True]}, "U"),
        ({"K1": [0, 1], "K2": 2, "U": [3]}, "K2"),
    ],
)
@pytest.mark.parametrize("command", ["loss", "gradcheck"])
def test_malformed_sets_file_exits_config(tmp_path, small_scene, capsys, spec, key, command):
    sets = _write_json(tmp_path / "sets.json", spec)
    argv = [command, str(small_scene), "--sets", sets, "--quiet"]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"sets.json: {key} must be a list of" in err


@pytest.mark.parametrize("command", ["loss", "gradcheck"])
def test_sets_file_class_keys_take_ascii_digits_only(tmp_path, small_scene, capsys, command):
    # "²" and "٣" pass str.isdigit(), and int() reads "٣" but not "²".
    sets = _write_json(tmp_path / "sets.json", {"K²": [0, 1], "K٣": [2], "U": [3]})
    assert main([command, str(small_scene), "--sets", sets, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {sets}: defines no known classes (K or K1..Kn)\n"


@pytest.mark.parametrize(
    "spec,key",
    [
        ({"K1": [0, 1], "k2": [2, 3], "U": [4]}, "k2"),  # a misspelt class key
        ({"K": [[0, 1]], "K1": [2, 3], "U": [4]}, "K1"),  # K beside K1..Kn
        ({"K": [[0, 1]], "U": [4], "note": "x"}, "note"),
    ],
)
@pytest.mark.parametrize("command", ["loss", "gradcheck"])
def test_sets_file_refuses_keys_it_does_not_read(tmp_path, small_scene, capsys, spec, key, command):
    sets = _write_json(tmp_path / "sets.json", spec)
    assert main([command, str(small_scene), "--sets", sets, "--quiet"]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {sets}: unknown key {key!r} (a sets file holds K or K1..Kn, U and T)\n"
    )


def test_sweep_config_must_be_an_object(tmp_path, small_scene, capsys):
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "k", "config": [1, 2]})
    cfg = _write_json(tmp_path / "cfg.json", {"k": 3})
    argv = ["sweep", str(small_scene), "--sweep", sweep, "--out", str(tmp_path / "s.csv")]
    assert main(argv + ["--config", cfg]) == EXIT_CONFIG
    assert main(argv) == EXIT_CONFIG
    assert capsys.readouterr().err.count("sweep.json: config must be a JSON object") == 2


@pytest.mark.parametrize("values", [[], 3, None])
def test_sweep_values_must_be_a_non_empty_list(tmp_path, small_scene, capsys, values):
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "k", "values": values})
    argv = ["sweep", str(small_scene), "--sweep", sweep, "--out", str(tmp_path / "s.csv")]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "sweep.json: values must be a non-empty list" in err
    assert "no default grid" not in err


def test_nu_sweep_still_runs_on_the_loss_side(tmp_path, small_scene):
    sweep = _write_json(tmp_path / "sweep.json", {"parameter": "nu", "values": [0.5, 1.0]})
    out = tmp_path / "s.csv"
    argv = ["sweep", str(small_scene), "--sweep", sweep, "--out", str(out), "--quiet"]
    assert main(argv) == EXIT_OK
    assert len(out.read_text().splitlines()) == 2 + 2
