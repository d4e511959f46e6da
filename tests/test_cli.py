"""End-to-end command-line tests over a small synthetic dataset."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from pvcast import cli
from pvcast.cli import load_run_config, main, read_manifest
from pvcast.errors import ConfigError
from pvcast.training import TrainConfig

CONFIG = """\
units=4
window_days=1
stride_hours=48
batch_size=8
max_epochs=2
patience=5
seed=3
split_seed=2
"""


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("data")
    assert main(["gen-data", "--days", "16", "--seed", "5", "--pmax", "2000",
                 "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def config_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text(CONFIG)
    return path


def test_gen_data_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-data", "--days", "7", "--seed", "9", "--out", str(a)]) == 0
    assert main(["gen-data", "--days", "7", "--seed", "9", "--out", str(b)]) == 0
    assert (a / "pv.csv").read_bytes() == (b / "pv.csv").read_bytes()
    assert (a / "nwp.csv").read_bytes() == (b / "nwp.csv").read_bytes()


def test_gen_data_row_counts(tmp_path):
    out = tmp_path / "counts"
    assert main(["gen-data", "--days", "7", "--seed", "1", "--out", str(out)]) == 0
    pv_rows = (out / "pv.csv").read_text().strip().splitlines()
    nwp_rows = (out / "nwp.csv").read_text().strip().splitlines()
    assert len(pv_rows) == 1 + 7 * 1440
    assert len(nwp_rows) == 1 + 7 * 24
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["command"] == "gen-data"
    assert float(manifest["p_max"]) == 5000.0


def test_gen_data_too_few_days(tmp_path):
    assert main(["gen-data", "--days", "3", "--out", str(tmp_path / "x")]) == 2


@pytest.mark.parametrize("pmax", ["-5", "nan", "inf", "0"])
def test_gen_data_rejects_a_bad_pmax(tmp_path, capsys, pmax):
    out = tmp_path / "x"
    assert main(["gen-data", "--days", "7", "--pmax", pmax, "--out", str(out)]) == 2
    assert "rated power must be positive and finite" in capsys.readouterr().err
    assert not out.exists()


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_train_persistence_rejected(data_dir, tmp_path):
    assert main(["train", "--model", "persistence", "--data", str(data_dir),
                 "--out", str(tmp_path / "t")]) == 2


def test_train_unknown_family_rejected(data_dir, tmp_path):
    assert main(["train", "--model", "gru", "--data", str(data_dir),
                 "--out", str(tmp_path / "t")]) == 2


def test_train_writes_checkpoint_and_report(data_dir, config_file, tmp_path):
    out = tmp_path / "train"
    assert main(["train", "--model", "s2s_attn", "--mode", "pdf",
                 "--data", str(data_dir), "--config", str(config_file),
                 "--out", str(out)]) == 0
    assert (out / "s2s_attn_pdf.ckpt").exists()
    report = (out / "s2s_attn_pdf_train_report.csv").read_text().strip().splitlines()
    assert report[0] == "epoch,train_loss,val_nrmse"
    assert len(report) >= 2
    manifest = read_manifest(out / "manifest.txt")
    assert manifest["model"] == "s2s_attn"
    assert "norm_min_pv_w" in manifest
    assert int(manifest["parameters"]) > 0


def test_train_reports_gradient_clipping_on_stderr(data_dir, tmp_path, capsys):
    config = tmp_path / "clip.cfg"
    config.write_text(CONFIG + "clip_norm=0.000001\n")
    assert main(["train", "--model", "ffnn", "--mode", "E", "--data", str(data_dir),
                 "--config", str(config), "--out", str(tmp_path / "clip")]) == 0
    err = capsys.readouterr().err
    assert "clipped gradient norm" in err
    assert "at epoch 1 batch 0" in err


def test_train_divergence_is_a_runtime_error(data_dir, tmp_path, capsys):
    config = tmp_path / "diverge.cfg"
    config.write_text(CONFIG + "learning_rate=1e300\n")
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--mode", "E", "--data", str(data_dir),
                 "--config", str(config), "--out", str(tmp_path / "diverge")]) == 3
    assert "error: divergence at epoch 1" in capsys.readouterr().err


def test_train_deterministic_across_runs(data_dir, config_file, tmp_path):
    vals = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["train", "--model", "ffnn", "--mode", "E",
                     "--data", str(data_dir), "--config", str(config_file),
                     "--out", str(out)]) == 0
        vals.append(read_manifest(out / "manifest.txt")["best_val_nrmse"])
    assert vals[0] == vals[1]


@pytest.mark.parametrize("value,message", [
    ("abc", "manifest.txt: p_max=abc is not a number"),
    ("inf", "p_max must be positive and finite, got inf")])
def test_train_rejects_a_bad_manifest_p_max(data_dir, tmp_path, capsys, value, message):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("pv.csv", "nwp.csv"):
        (data / name).write_bytes((data_dir / name).read_bytes())
    (data / "manifest.txt").write_text(f"command=gen-data\np_max={value}\n")
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--mode", "E", "--data", str(data),
                 "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


def test_unknown_config_key_rejected(data_dir, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("uints=7\n")
    assert main(["train", "--model", "ffnn", "--mode", "E", "--data", str(data_dir),
                 "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("key,value,least", [
    ("units", 0, 1), ("depth", 0, 1), ("window_days", 0, 1), ("stride_hours", 0, 1),
    ("stride_hours", -1, 1), ("bins", 0, 1), ("bins", -3, 1), ("batch_size", 0, 1),
    ("patience", 0, 1), ("max_epochs", 0, 1), ("seed", -1, 0), ("split_seed", -1, 0)])
def test_config_integers_below_their_least_value_rejected(data_dir, tmp_path, capsys,
                                                          key, value, least):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"units=4\n{key}={value}\n")
    message = f"{cfg}: line 2: '{key}' must be at least {least}, got {value}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_run_config(str(cfg))
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--mode", "E", "--data", str(data_dir),
                 "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("key", ["learning_rate", "epsilon_floor"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_train_rejects_a_rate_that_is_not_finite(data_dir, tmp_path, capsys, key, value):
    config = tmp_path / "rate.cfg"
    config.write_text(CONFIG + f"{key}={value}\n")
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--mode", "E", "--data", str(data_dir),
                 "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"error: {key} must be positive and finite, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("text,value", [("true", True), ("TRUE", True), ("False", False)])
def test_decoder_nwp_reads_true_or_false_in_any_case(tmp_path, text, value):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"decoder_nwp={text}\n")
    assert load_run_config(str(cfg))["decoder_nwp"] is value


@pytest.mark.parametrize("text", ["yes", "ture", "1", ""])
def test_decoder_nwp_rejects_anything_but_true_or_false(data_dir, tmp_path, text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"units=4\ndecoder_nwp={text}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg}: line 2: bad value for 'decoder_nwp'")):
        load_run_config(str(cfg))
    assert main(["train", "--model", "s2s", "--data", str(data_dir), "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


def test_forecast_pdf_shapes(data_dir, config_file, tmp_path):
    train_out = tmp_path / "train"
    assert main(["train", "--model", "s2s", "--mode", "pdf",
                 "--data", str(data_dir), "--config", str(config_file),
                 "--out", str(train_out)]) == 0
    fc_out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(train_out / "s2s_pdf.ckpt"),
                 "--data", str(data_dir), "--at", "1970-01-10T00:00:00Z",
                 "--out", str(fc_out), "--svg"]) == 0
    lines = (fc_out / "forecast.csv").read_text().strip().splitlines()
    assert len(lines) == 25
    header = lines[0].split(",")
    assert len(header) == 52
    for line in lines[1:]:
        cells = line.split(",")
        probs = np.array([float(v) for v in cells[2:]])
        assert abs(probs.sum() - 1.0) < 1e-9
    assert (fc_out / "forecast.svg").exists()


def test_forecast_expected_mode_shapes(data_dir, config_file, tmp_path):
    train_out = tmp_path / "train"
    assert main(["train", "--model", "ffnn", "--mode", "E",
                 "--data", str(data_dir), "--config", str(config_file),
                 "--out", str(train_out)]) == 0
    fc_out = tmp_path / "fc"
    assert main(["forecast", "--checkpoint", str(train_out / "ffnn_e.ckpt"),
                 "--data", str(data_dir), "--at", "1970-01-10T00:00:00Z",
                 "--out", str(fc_out)]) == 0
    lines = (fc_out / "forecast.csv").read_text().strip().splitlines()
    assert lines[0] == "hour,expected"
    assert len(lines) == 25
    for line in lines[1:]:
        value = float(line.split(",")[1])
        assert 0.0 <= value <= 1.0


def test_forecast_insufficient_history(data_dir, config_file, tmp_path):
    train_out = tmp_path / "train"
    assert main(["train", "--model", "ffnn", "--mode", "E",
                 "--data", str(data_dir), "--config", str(config_file),
                 "--out", str(train_out)]) == 0
    assert main(["forecast", "--checkpoint", str(train_out / "ffnn_e.ckpt"),
                 "--data", str(data_dir), "--at", "1970-01-01T06:00:00Z",
                 "--out", str(tmp_path / "fc")]) == 2


def test_benchmark_report_layout(data_dir, config_file, tmp_path):
    out = tmp_path / "bench"
    assert main(["benchmark", "--data", str(data_dir), "--config", str(config_file),
                 "--out", str(out)]) == 0
    lines = (out / "report.csv").read_text().strip().splitlines()
    assert lines[0].startswith("model,split,")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 9 * 2  # nine models, two splits

    by_model = {}
    for cells in rows:
        by_model.setdefault(cells[0], []).append(cells)
    assert set(by_model) == {"Persistence", "FFNN-E", "FFNN-pdf", "LSTM-E",
                             "LSTM-pdf", "S2S-E", "S2S-pdf", "S2S-Attn-E",
                             "S2S-Attn-pdf"}
    for cells in by_model["Persistence"]:
        assert cells[5] == "" and cells[6] == ""   # skill columns blank
        assert cells[4] != ""                       # CRPS populated
    for name, entries in by_model.items():
        if name.endswith("-pdf"):
            assert all(c[4] != "" for c in entries)
        elif name.endswith("-E"):
            assert all(c[4] == "" for c in entries)

    text = (out / "report.txt").read_text()
    assert "Persistence" in text
    for name in by_model:
        stem = name.lower().replace("-", "_")
        assert (out / f"{stem}.svg").exists()
    assert (out / "manifest.txt").exists()


def test_benchmark_rejects_an_empty_split_before_training(tmp_path, capsys):
    # Nine days at the default 5-day windows split 3/1/0, 3 discarded.
    data = tmp_path / "short"
    assert main(["gen-data", "--days", "9", "--seed", "0", "--out", str(data)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("max_epochs=1\nunits=4\n")
    out = tmp_path / "bench"
    capsys.readouterr()
    assert main(["benchmark", "--data", str(data), "--config", str(config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "3/1/0 train/val/test and 3 discarded" in err
    assert "more days" in err and "window_days" in err and "stride_hours" in err
    assert not list(out.glob("*.ckpt"))
    assert not (out / "manifest.txt").exists()


def test_train_rejects_an_empty_val_split_before_training(tmp_path, capsys):
    # Split seed 1 leaves 5/0/0 train/val/test windows of nine days, 2 discarded.
    data = tmp_path / "short"
    assert main(["gen-data", "--days", "9", "--seed", "0", "--out", str(data)]) == 0
    config = tmp_path / "run.cfg"
    config.write_text("max_epochs=1\nunits=4\nsplit_seed=1\n")
    out = tmp_path / "train"
    capsys.readouterr()
    assert main(["train", "--model", "s2s", "--data", str(data), "--config", str(config),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "5/0/0 train/val/test and 2 discarded" in err
    assert "more days" in err and "window_days" in err and "stride_hours" in err
    assert not list(out.glob("*.ckpt"))
    assert not (out / "manifest.txt").exists()


def _no_data_reads(*args):
    raise AssertionError("the data directory was read")


@pytest.mark.parametrize("command", [["train", "--model", "ffnn", "--mode", "E"],
                                     ["benchmark"]])
@pytest.mark.parametrize("text,message", [
    ("learning_rate=nan\n", "error: learning_rate must be positive and finite, got nan"),
    ("momentum=1.5\n", "error: momentum must lie in [0, 1), got 1.5"),
    ("units=0\n", "line 1: 'units' must be at least 1, got 0"),
    ("units=4\n\nunits=8\n", "line 3: 'units' is already set on line 1")])
def test_settings_errors_exit_before_the_data_is_read(data_dir, tmp_path, monkeypatch,
                                                      capsys, command, text, message):
    monkeypatch.setattr(cli, "ingest_csv", _no_data_reads)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(command + ["--data", str(data_dir), "--config", str(cfg),
                           "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_mode_and_forecast_time_errors_exit_before_the_data_is_read(
        data_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "ingest_csv", _no_data_reads)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--mode", "X", "--data", str(data_dir),
                 "--out", str(out)]) == 2
    assert "error: unknown target mode 'X' (use pdf or E)" in capsys.readouterr().err
    assert not out.exists()
    assert main(["forecast", "--checkpoint", str(tmp_path / "none.ckpt"),
                 "--data", str(data_dir), "--at", "1970-01-10T00:30:00Z",
                 "--out", str(out)]) == 2
    assert ("error: --at must be hour-aligned, got 1970-01-10T00:30:00Z"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("name,make,message", [
    ("missing.cfg", lambda path: None, "cannot read the run config: No such file or directory"),
    ("cfgdir", lambda path: path.mkdir(), "cannot read the run config: Is a directory"),
    ("latin1.cfg", lambda path: path.write_bytes(b"units=4\n# caf\xe9\n"),
     "the run config is not UTF-8 text")])
def test_an_unreadable_config_exits_before_the_data_is_read(data_dir, tmp_path, monkeypatch,
                                                            capsys, name, make, message):
    monkeypatch.setattr(cli, "ingest_csv", _no_data_reads)
    cfg = tmp_path / name
    make(cfg)
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--data", str(data_dir), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_a_window_longer_than_the_data(data_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window_days=30\n")
    out = tmp_path / "o"
    capsys.readouterr()
    assert main(["train", "--model", "ffnn", "--data", str(data_dir), "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert ("error: no window fits: a 30-day input window and its 24-hour forecast do not "
            "fit in the 16.00 days of overlapping coverage" in capsys.readouterr().err)
    assert not out.exists()


def test_run_cfg_keys_cover_train_config_and_the_readme():
    assert {f.name for f in dataclasses.fields(TrainConfig)} <= set(cli._RUN_KEYS)
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("Keys and defaults:\n\n```\n", 1)[1].split("```", 1)[0]
    listed = dict(re.findall(r"(\w+)=(\S*)", block))
    assert set(listed) == set(cli._RUN_KEYS)
    for key, (parse, _, default) in cli._RUN_KEYS.items():
        assert (parse(listed[key]) if listed[key] else None) == default, key
