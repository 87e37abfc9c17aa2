"""Config parsing, the command-line verbs, and the output writers."""

import argparse
import ast
import configparser
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import re
import runpy
import shutil
import string
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from rotecho import (
    ConfigError,
    RotorBasis,
    RunSettings,
    available_presets,
    load_config,
    molecule_preset,
    revival_period,
    run_two_pulse,
)
from rotecho import cli, config, runio
from rotecho.config import _KEYS
from rotecho.runio import RunManifest
from test_settable_values import cli_options

_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
_README = _PYPROJECT.with_name("README.md")
# child interpreters import the same source tree as this process, which
# may have it on sys.path only through pytest's pythonpath setting
_CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
    ),
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return str(path)


COLD_SIM = """\
    [molecule]
    preset = OCS
    name = OCS-cold
    temperature_k = 30.0

    [pulses]
    p1_kick = 0.5
    p2_kick = 0.3
    dtau_frac = 0.07

    [solver]
    jmax = 24
    """

COLD_SCAN_P2 = """\
    [molecule]
    preset = OCS
    temperature_k = 30.0

    [pulses]
    p1_kick = 0.4
    dtau_frac = 0.125

    [solver]
    jmax = 24

    [scan]
    axis = p2
    start = 0.25
    stop = 1.5
    count = 6
    """

COLD_SCAN_DTAU = COLD_SCAN_P2.replace(
    "axis = p2\n    start = 0.25\n    stop = 1.5\n    count = 6",
    "axis = dtau\n    start = 0.06\n    stop = 0.10\n    count = 3",
).replace("p1_kick = 0.4", "p1_kick = 0.4\n    p2_kick = 0.3")
COLD_OPT = COLD_SCAN_P2.replace(
    "axis = p2\n    start = 0.25\n    stop = 1.5\n    count = 6",
    "axis = dtau\n    start = 0.125\n    stop = 0.125\n    count = 1\n    p2_max = 4.0",
)
COLD_SCAN_AVERAGED = (
    COLD_SCAN_P2
    + "averaged = yes\n\n[beam]\npump_waist_um = 30\nprobe_waist_um = 15\nn_shells = 2\n"
)


def write_decay_table(tmp_path):
    """Six peak amplitudes decaying at 8e-3 per ps of echo time."""
    table = tmp_path / "decay.csv"
    lines = ["dtau_ps,s_echo_max"]
    for d in (5.0, 8.0, 11.0, 14.0, 17.0, 20.0):
        lines.append(f"{d},{0.005 * math.exp(-8e-3 * 2.0 * d)}")
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return table


def read_csv(path):
    comments, rows = [], []
    header = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.rstrip("\n")
            if line.startswith("#"):
                comments.append(line)
            elif header is None:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    return comments, header, rows


# ---------------------------------------------------------------- config

def test_explicit_molecule_roundtrip(tmp_path):
    cfg = write_cfg(
        tmp_path,
        """\
        [molecule]
        name = linear-test
        b_cm = 0.41
        temperature_k = 120.0
        weight_even = 2.0
        weight_odd = 1.0

        [pulses]
        p1_kick = 1.5
        p2_kick = 0.75
        dtau_ps = 12.5
        shape = gaussian
        duration_fwhm_ps = 0.2

        [solver]
        jmax = 32
        substeps = 64
        truncation_tol = 5e-3
        dt_sample_ps = 0.05
        t_end_ps = 40.0

        [scan]
        axis = p2
        start = 0.5
        stop = 4.0
        count = 8
        p2_max = 12.0

        [beam]
        pump_waist_um = 25.0
        probe_waist_um = 10.0
        n_shells = 3
        """,
    )
    s = load_config(cfg)
    assert s.molecule.name == "linear-test"
    assert s.molecule.b_cm == 0.41
    assert s.molecule.weight_even == 2.0
    assert (s.values["p1_kick"], s.values["p2_kick"]) == (1.5, 0.75)
    assert s.dtau == 12.5
    assert s.values["shape"] == "gaussian" and s.values["duration_fwhm_ps"] == 0.2
    assert [s.values[k] for k in ("jmax", "dt_sample_ps", "t_end_ps")] == [32, 0.05, 40.0]
    assert s.solver.substeps == 64 and s.solver.truncation_tol == 5e-3
    assert s.has_scan and s.values["axis"] == "p2" and s.values["count"] == 8
    assert s.values["p2_max"] == 12.0
    assert s.beam.n_shells == 3 and s.beam.kappa == pytest.approx(6.25)
    # every key as read, in one flat mapping that leaves the settings hashable
    assert s.values["truncation_tol"] == 5e-3 and "preset" not in s.values
    assert hash(s) == hash(load_config(cfg))


def test_preset_with_overrides(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SIM)
    s = load_config(cfg)
    base = molecule_preset("OCS")
    assert s.molecule.b_cm == base.b_cm
    assert s.molecule.temperature_k == 30.0
    assert s.molecule.name == "OCS-cold"
    # fraction resolves against the preset revival period
    assert s.dtau == pytest.approx(0.07 * revival_period(base))


def test_preset_listing_and_unknown_preset():
    assert available_presets() == ["OCS"]
    with pytest.raises(ConfigError, match="available: OCS"):
        molecule_preset("XYZ")


def test_presets_reject_unknown_keys(tmp_path, monkeypatch):
    (tmp_path / "presets").mkdir()
    (tmp_path / "presets" / "BAD.cfg").write_text("[molecule]\nb_cm = 0.2\nspin = 1\n")
    monkeypatch.setattr(config.resources, "files", lambda package: tmp_path)
    with pytest.raises(ConfigError, match=re.escape("[preset BAD] spin: unknown key")):
        molecule_preset("BAD")


def test_unknown_section_and_key(tmp_path):
    bad_section = write_cfg(
        tmp_path,
        COLD_SIM + "\n[lasers]\npower = 1\n",
        name="bad_section.cfg",
    )
    with pytest.raises(ConfigError, match=r"unknown section \[lasers\]"):
        load_config(bad_section)
    bad_key = write_cfg(
        tmp_path,
        COLD_SIM.replace("p2_kick", "p2_strength"),
        name="bad_key.cfg",
    )
    with pytest.raises(ConfigError, match=r"\[pulses\] p2_strength: unknown key"):
        load_config(bad_key)


def test_pulse_section_validation(tmp_path):
    with pytest.raises(ConfigError, match=r"missing \[pulses\]"):
        load_config(write_cfg(tmp_path, "[molecule]\npreset = OCS\n", name="a.cfg"))
    with pytest.raises(ConfigError, match="p1_kick: required"):
        load_config(
            write_cfg(
                tmp_path,
                "[molecule]\npreset = OCS\n[pulses]\ndtau_ps = 10\n",
                name="b.cfg",
            )
        )
    with pytest.raises(ConfigError, match="not both"):
        load_config(
            write_cfg(
                tmp_path,
                "[molecule]\npreset = OCS\n[pulses]\np1_kick = 1\n"
                "dtau_ps = 10\ndtau_frac = 0.125\n",
                name="c.cfg",
            )
        )
    with pytest.raises(ConfigError, match="need dtau_ps or dtau_frac"):
        load_config(
            write_cfg(
                tmp_path,
                "[molecule]\npreset = OCS\n[pulses]\np1_kick = 1\n",
                name="d.cfg",
            )
        )
    with pytest.raises(ConfigError, match="impulsive or gaussian"):
        load_config(
            write_cfg(
                tmp_path,
                "[molecule]\npreset = OCS\n[pulses]\np1_kick = 1\n"
                "dtau_ps = 10\nshape = square\n",
                name="e.cfg",
            )
        )
    with pytest.raises(ConfigError, match="non-negative"):
        load_config(
            write_cfg(
                tmp_path,
                "[molecule]\npreset = OCS\n[pulses]\np1_kick = -1\ndtau_ps = 10\n",
                name="f.cfg",
            )
        )


def test_boolean_parsing(tmp_path):
    s = load_config(write_cfg(tmp_path, COLD_SCAN_P2 + "exclude_quarters = on\n"))
    assert s.values["exclude_quarters"] is True
    with pytest.raises(ConfigError, match="not a boolean"):
        load_config(
            write_cfg(tmp_path, COLD_SCAN_P2 + "exclude_quarters = maybe\n", name="g.cfg")
        )


# every section, one key of each integer kind, without indentation
FULL_CFG = textwrap.dedent(COLD_SCAN_P2) + (
    "averaged = yes\n\n[beam]\npump_waist_um = 30\nprobe_waist_um = 15\nn_shells = 2\n"
)
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}
# printable ASCII on one line, without the inline comment prefixes
_VALUE_CHARS = "".join(c for c in string.printable if c not in "\r\n\x0b\x0c#;")


def _load_text(path, text):
    path.write_text(text, encoding="utf-8")
    return load_config(str(path))


def _with_line(section, line):
    return FULL_CFG.replace(f"[{section}]\n", f"[{section}]\n{line}\n", 1)


@settings(max_examples=60, deadline=None)
@given(
    word=st.sampled_from(sorted(_BOOL_WORDS)),
    upper=st.lists(st.booleans(), min_size=5, max_size=5),
    pads=st.tuples(st.text(" \t", max_size=3), st.text(" \t", max_size=3)),
    other=st.text(_VALUE_CHARS, max_size=10),
)
def test_booleans_any_case_and_padding_and_nothing_else(tmp_path_factory, word, upper, pads, other):
    path = tmp_path_factory.getbasetemp() / "bool.cfg"
    cased = "".join(c.upper() if up else c for c, up in zip(word, upper))
    value = pads[0] + cased + pads[1]
    loaded = _load_text(path, _with_line("scan", f"exclude_quarters = {value}"))
    assert loaded.values["exclude_quarters"] is _BOOL_WORDS[word]
    if other.strip().lower() not in _BOOL_WORDS:
        with pytest.raises(ConfigError, match=re.escape("[scan] exclude_quarters:")):
            _load_text(path, _with_line("scan", f"exclude_quarters = {other}"))


@settings(max_examples=60, deadline=None)
@given(
    where=st.sampled_from([("solver", "jmax"), ("scan", "count"), ("beam", "n_shells")]),
    # a float's repr always has '.', 'e', 'inf' or 'nan'; letters have no digits
    value=st.one_of(st.floats().map(repr), st.text(string.ascii_letters + ".,+- ", max_size=8)),
)
def test_non_integer_counts_name_their_key(tmp_path_factory, where, value):
    section, key = where
    path = tmp_path_factory.getbasetemp() / "int.cfg"
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", FULL_CFG, count=1, flags=re.M)
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}:")):
        _load_text(path, text)


@settings(max_examples=60, deadline=None)
@given(
    section=st.sampled_from(sorted(_KEYS)),
    key=st.tuples(
        st.sampled_from(string.ascii_lowercase),
        st.text(string.ascii_lowercase + string.digits + "_", max_size=15),
    ).map("".join),
)
def test_unknown_keys_are_rejected(tmp_path_factory, section, key):
    assume(key not in _KEYS[section])
    path = tmp_path_factory.getbasetemp() / "key.cfg"
    with pytest.raises(ConfigError, match=re.escape(f"[{section}] {key}: unknown key")):
        _load_text(path, _with_line(section, f"{key} = 1"))


def test_a_config_naming_delta_alpha_exits_2(tmp_path, capsys):
    # the key was never read, so it is unknown like any other stray key
    text = COLD_SIM.replace("name = OCS-cold\n", "name = OCS-cold\n    delta_alpha = 1.0\n")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "[molecule] delta_alpha: unknown key" in capsys.readouterr().err


def test_a_config_naming_isolate_exits_2(tmp_path, capsys):
    # scans always measure the isolated echo, so the key is unknown
    cfg = write_cfg(tmp_path, COLD_SCAN_P2 + "isolate = true\n")
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert "[scan] isolate: unknown key" in capsys.readouterr().err


def test_readme_names_exactly_the_config_keys():
    paragraph = _README.read_text(encoding="utf-8").split("Config sections and keys:")[1]
    parts = re.split(r"`\[(\w+)\]`", paragraph.split("\n\n")[0])[1:]
    # keys are words between the section names; parentheses list values
    named = {
        section: set(re.findall(r"\w+", re.sub(r"\([^)]*\)", "", body))) - {"or"}
        for section, body in zip(parts[::2], parts[1::2])
    }
    assert named == {section: set(keys) for section, keys in _KEYS.items()}


def test_readme_names_exactly_the_cli_options():
    paragraph = _README.read_text(encoding="utf-8").split("Options, by verb:")[1]
    parts = re.split(r"`([\w-]+)`:", paragraph.split("\n\n")[0])[1:]
    # each verb and a colon, then its options; `rotecho` is the top-level parser
    named = {
        ("" if verb == "rotecho" else f"{verb} ") + option
        for verb, body in zip(parts[::2], parts[1::2])
        for option in re.findall(r"--[\w-]+", body)
    }
    assert named == set(cli_options())


def test_full_config_loads_and_takes_percent_literally(tmp_path):
    loaded = _load_text(tmp_path / "full.cfg", FULL_CFG)
    assert (loaded.values["jmax"], loaded.values["count"], loaded.beam.n_shells) == (24, 6, 2)
    text = FULL_CFG.replace("[molecule]\n", "[molecule]\nname = OCS 100%\n")
    assert _load_text(tmp_path / "pct.cfg", text).molecule.name == "OCS 100%"
    with pytest.raises(ConfigError, match=re.escape("[scan] exclude_quarters:")):
        _load_text(tmp_path / "pct.cfg", _with_line("scan", "exclude_quarters = 50%"))


def test_settings_hold_each_config_key_once(tmp_path):
    loaded = _load_text(tmp_path / "full.cfg", FULL_CFG)
    keys = {key for section in _KEYS.values() for key in section}
    assert not keys & {f.name for f in dataclasses.fields(RunSettings)}
    # every key the file sets, and every default of the sections it has
    parser = configparser.ConfigParser()
    parser.read_string(FULL_CFG)
    expected = {key for section in parser.sections() for key, (_, default)
                in _KEYS[section].items() if key in parser[section] or default is not None}
    assert set(loaded.values) == expected


def test_scan_validation(tmp_path):
    with pytest.raises(ConfigError, match="must be dtau or p2"):
        load_config(
            write_cfg(
                tmp_path,
                COLD_SCAN_P2.replace("axis = p2", "axis = kick"),
                name="h.cfg",
            )
        )
    with pytest.raises(ConfigError, match="must be trev or ps"):
        load_config(
            write_cfg(
                tmp_path,
                COLD_SCAN_P2.replace("axis = p2", "axis = dtau\n    units = fs"),
                name="i.cfg",
            )
        )
    with pytest.raises(ConfigError, match="positive integer"):
        load_config(
            write_cfg(
                tmp_path,
                COLD_SCAN_P2.replace("count = 6", "count = 0"),
                name="j.cfg",
            )
        )
    with pytest.raises(ConfigError, match=r"need a \[beam\] section"):
        load_config(
            write_cfg(tmp_path, COLD_SCAN_P2 + "averaged = yes\n", name="k.cfg")
        )
    with pytest.raises(ConfigError, match="defined for p2 scans"):
        load_config(
            write_cfg(
                tmp_path,
                COLD_SCAN_P2.replace("axis = p2", "axis = dtau")
                + "averaged = yes\n[beam]\npump_waist_um = 30\nprobe_waist_um = 15\n",
                name="l.cfg",
            )
        )


def test_scan_grid_units_and_placeholder(tmp_path):
    trev = revival_period(molecule_preset("OCS"))
    frac = load_config(
        write_cfg(
            tmp_path,
            COLD_SCAN_P2.replace(
                "axis = p2\n    start = 0.25\n    stop = 1.5\n    count = 6",
                "axis = dtau\n    start = 0.06\n    stop = 0.10\n    count = 3",
            ).replace("dtau_frac = 0.125\n", ""),
            name="m.cfg",
        )
    )
    grid = frac.scan_grid()
    assert grid == pytest.approx([0.06 * trev, 0.08 * trev, 0.10 * trev], rel=1e-12)
    # with no explicit delay, the scan start stands in for dtau
    assert frac.dtau == pytest.approx(0.06 * trev)

    ps = load_config(
        write_cfg(
            tmp_path,
            COLD_SCAN_P2.replace(
                "axis = p2\n    start = 0.25\n    stop = 1.5\n    count = 6",
                "axis = dtau\n    units = ps\n    start = 5.0\n    stop = 7.0\n    count = 3",
            ),
            name="n.cfg",
        )
    )
    assert ps.scan_grid() == pytest.approx([5.0, 6.0, 7.0])

    p2 = load_config(write_cfg(tmp_path, COLD_SCAN_P2, name="o.cfg"))
    assert p2.scan_grid() == pytest.approx([0.25, 0.5, 0.75, 1.0, 1.25, 1.5])


def test_scan_grid_quarter_exclusion(tmp_path):
    body = COLD_SCAN_P2.replace(
        "axis = p2\n    start = 0.25\n    stop = 1.5\n    count = 6",
        "axis = dtau\n    start = 0.02\n    stop = 0.23\n    count = 9\n"
        "    exclude_quarters = yes",
    )
    s = load_config(write_cfg(tmp_path, body, name="p.cfg"))
    grid = s.scan_grid()
    trev = revival_period(s.molecule)
    assert len(grid) == 8
    assert all(abs(v / trev - 0.25) > 0.03 for v in grid)

    empty = body.replace("start = 0.02", "start = 0.23").replace(
        "stop = 0.23", "stop = 0.27"
    ).replace("count = 9", "count = 3")
    s2 = load_config(write_cfg(tmp_path, empty, name="q.cfg"))
    with pytest.raises(ConfigError, match="survive the exclusion"):
        s2.scan_grid()


def test_range_needs_two_points(tmp_path):
    body = COLD_SCAN_P2.replace("count = 6", "count = 1")
    s = load_config(write_cfg(tmp_path, body, name="r.cfg"))
    with pytest.raises(ConfigError, match="at least 2 points"):
        s.scan_grid()
    single = body.replace("stop = 1.5", "stop = 0.25")
    s2 = load_config(write_cfg(tmp_path, single, name="s.cfg"))
    assert s2.scan_grid() == [0.25]


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(str(tmp_path / "nope.cfg"))


def test_experiment_wiring(tmp_path):
    s = load_config(write_cfg(tmp_path, COLD_SIM))
    cfg = s.experiment()
    assert [p.kick for p in cfg.pulses] == [0.5, 0.3]
    assert cfg.pulses[0].t0 == 0.0
    assert cfg.pulses[1].t0 == pytest.approx(s.dtau)
    assert cfg.resolve_j_max() == 24


# ---------------------------------------------------------------- writers

def test_fmt_uses_twelve_significant_digits():
    assert runio.fmt(math.pi) == "3.14159265359"
    assert runio.fmt(2) == "2"
    assert runio.fmt(0.1) == "0.1"
    assert runio.fmt(-1.5e-7) == "-1.5e-07"


def test_manifest_roundtrip_and_errors(tmp_path):
    path = tmp_path / "manifest.json"
    runio.write_manifest(path, RunManifest(
        command="rotecho simulate --config run.cfg",
        parameters={"p1_kick": 0.5, "j_max": 24, "unset": math.nan},
        config_sha256="ab" * 32,
        molecule="OCS-cold",
        outputs=("trace.csv",),
        timings_s={"run": 0.25},
        notes=("one note",),
        engine=runio.ENGINE,
    ))
    loaded = RunManifest.load(path)
    assert loaded.command == "rotecho simulate --config run.cfg"
    assert loaded.parameters["j_max"] == 24
    assert loaded.parameters["unset"] is None  # JSON has no nan
    assert loaded.outputs == ("trace.csv",)
    assert loaded.notes == ("one note",)
    assert loaded.engine.startswith("rotecho ")

    with pytest.raises(ConfigError, match="cannot read"):
        RunManifest.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError, match="cannot read manifest"):
        RunManifest.load(bad)
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"command": "x"}), encoding="utf-8")
    with pytest.raises(ConfigError, match="lacks field"):
        RunManifest.load(partial)
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]", encoding="utf-8")
    with pytest.raises(ConfigError, match="no JSON object"):
        RunManifest.load(listed)


def test_a_manifest_holds_exactly_the_record_finish_filled(tmp_path, monkeypatch):
    # a scan whose sin2 fit fails writes notes, so the file has every field:
    # its keys are the record's field names, and load gives back each value
    # _finish filled, outputs sorted and floats rounded as written
    filled, write = [], runio.write_manifest
    monkeypatch.setattr(runio, "write_manifest", lambda path, made: filled.append(made) or write(path, made))
    cfg = write_cfg(tmp_path, COLD_SCAN_P2.replace("stop = 1.5\n    count = 6", "stop = 14\n    count = 8"))
    out = tmp_path / "out"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    (made,) = filled
    assert made.notes
    names = [field.name for field in dataclasses.fields(RunManifest)]
    assert json.loads((out / "manifest.json").read_text(encoding="utf-8")).keys() == {*names, "timings_note"}
    loaded = RunManifest.load(out / "manifest.json")
    for name in names:
        want = getattr(made, name)
        if isinstance(want, dict):
            want = {k: runio._rounded(v) for k, v in want.items()}
        assert getattr(loaded, name) == (tuple(sorted(want)) if name == "outputs" else want), name


def test_read_decay_table_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        runio.read_decay_table(tmp_path / "none.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(ConfigError, match="empty"):
        runio.read_decay_table(empty)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("time,amp\n1,2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="dtau_ps"):
        runio.read_decay_table(wrong)
    broken = tmp_path / "broken.csv"
    broken.write_text("dtau_ps,s_echo_max\n1.0,abc\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="malformed"):
        runio.read_decay_table(broken)


# ---------------------------------------------------------------- cli verbs

def test_simulate_writes_trace_and_manifest(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COLD_SIM)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "wrote" in capsys.readouterr().out

    comments, header, rows = read_csv(out / "trace.csv")
    digest = hashlib.sha256(open(cfg, "rb").read()).hexdigest()
    assert comments[0].startswith("# rotecho ")
    assert comments[1] == f"# config_sha256: {digest}"
    assert comments[2] == "# command: rotecho simulate --config run.cfg"
    assert header == ["time_ps", "alignment"]
    assert float(rows[0][0]) == 0.0
    assert all(len(r) == 2 for r in rows)

    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.outputs == ("trace.csv",)
    assert manifest.molecule == "OCS-cold"
    assert manifest.parameters["j_max"] == 24
    assert manifest.parameters["shape"] == "impulsive"
    assert "substeps" not in manifest.parameters  # an impulsive run has no pulse mesh
    assert manifest.config_sha256 == digest
    assert set(manifest.timings_s) == {"setup", "run", "write"}

    # trace matches a direct library run after output rounding
    settings = load_config(cfg)
    trace = run_two_pulse(settings.experiment())
    assert len(rows) == trace.times.size
    assert [r[1] for r in rows[:50]] == [runio.fmt(v) for v in trace.values[:50]]


def test_gaussian_manifests_record_the_pulse_mesh(tmp_path):
    # the mesh is outside the byte contract, so only the manifest tells
    # runs on different meshes apart
    gaussian = "[pulses]\n    shape = gaussian"
    text = COLD_SIM.replace("[pulses]", gaussian).replace("jmax = 24", "jmax = 24\n    substeps = 16")
    cfg = write_cfg(tmp_path, text)
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
    assert RunManifest.load(tmp_path / "out" / "manifest.json").parameters["substeps"] == 16
    scan = load_config(write_cfg(tmp_path, COLD_SCAN_P2.replace("[pulses]", gaussian)))
    assert cli._parameters(scan, 24)["substeps"] == 8
    assert "substeps" not in cli._parameters(load_config(write_cfg(tmp_path, COLD_SCAN_P2)), 24)


def test_simulate_reruns_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SIM)
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(a)]) == 0
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(b)]) == 0
    assert (a / "trace.csv").read_bytes() == (b / "trace.csv").read_bytes()


def test_simulate_zero_kicks_stay_flat(tmp_path):
    cfg = write_cfg(
        tmp_path,
        COLD_SIM.replace("p1_kick = 0.5", "p1_kick = 0.0").replace(
            "p2_kick = 0.3", "p2_kick = 0.0"
        ),
    )
    out = tmp_path / "flat"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    _, _, rows = read_csv(out / "trace.csv")
    assert max(abs(float(r[1])) for r in rows) < 1e-12


def test_simulate_jmax_override(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SIM.replace("jmax = 24", "jmax = 30"))
    out = tmp_path / "ovr"
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(out)]) == 0
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.parameters["j_max"] == 30
    # the config is the only route: the old override flag is a usage error
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["simulate", "--config", cfg, "--out-dir", str(out), "--jmax-override", "30"])
    assert exit_info.value.code == 2


def test_scan_p2_writes_curve_and_fit(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COLD_SCAN_P2)
    out = tmp_path / "scan"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    assert "sin2 fit" in capsys.readouterr().out

    _, header, rows = read_csv(out / "scan_p2.csv")
    assert header == list(runio.CURVE_COLUMNS)
    assert len(rows) == 6
    assert [r[0] for r in rows] == [r[5] for r in rows]  # scan_value is p2_kick
    assert all(r[7] == "false" for r in rows)

    fit = json.loads((out / "fit_sin2.json").read_text())
    assert fit["model"] == "a*sin^2(b*p2)"
    assert fit["n_points"] == 6
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.outputs == ("fit_sin2.json", "scan_p2.csv")


def test_scan_dtau_curve(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COLD_SCAN_DTAU)
    out = tmp_path / "sdt"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    _, header, rows = read_csv(out / "scan_dtau.csv")
    assert header == list(runio.CURVE_COLUMNS)
    assert len(rows) == 3
    assert [r[0] for r in rows] == [r[6] for r in rows]  # scan_value is dtau_ps
    trev = revival_period(molecule_preset("OCS"))
    assert float(rows[0][0]) == pytest.approx(0.06 * trev, rel=1e-12)

    # an 8 ps window runs past the two later points' traces
    cfg = write_cfg(tmp_path, COLD_SCAN_DTAU + "window_halfwidth_ps = 8\n", name="wide.cfg")
    capsys.readouterr()
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.endswith(": 1 points, 2 failed\n")
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.parameters["window_halfwidth_ps"] == 8.0
    assert len(manifest.notes) == 2


def test_scan_averaged_flag_and_geometry(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SCAN_AVERAGED)
    out = tmp_path / "avg"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    _, _, rows = read_csv(out / "scan_p2.csv")
    assert all(r[7] == "true" for r in rows)
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.parameters["n_shells"] == 2
    assert manifest.parameters["pump_waist_um"] == 30.0


def test_scan_p2_fit_failure_is_reported_once(tmp_path, capsys):
    # all 8 points succeed, but only 3 lie on the first lobe: the fit
    # failure is one manifest note and not a failed point
    cfg = write_cfg(
        tmp_path,
        COLD_SCAN_P2.replace("stop = 1.5\n    count = 6", "stop = 14\n    count = 8"),
    )
    out = tmp_path / "long"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    line = capsys.readouterr().out
    assert "8 points" in line and "failed" not in line and "sin2 fit" not in line
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.outputs == ("scan_p2.csv",)
    assert manifest.notes == ("sin2 fit: first lobe has 3 points; need at least 6",)


def test_scan_manifest_reports_the_grid_wide_jmax(tmp_path):
    # the [pulses] kicks alone (p2_kick 0) resolve to j_max 33; the scan
    # runs at what its top kick of 1.5 needs
    cfg = write_cfg(tmp_path, COLD_SCAN_P2.replace("jmax = 24\n", ""))
    out = tmp_path / "auto"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    assert RunManifest.load(out / "manifest.json").parameters["j_max"] == 37


@pytest.mark.parametrize(
    "body",
    [COLD_SCAN_P2, COLD_SCAN_DTAU, COLD_SCAN_AVERAGED],
    ids=["p2", "dtau", "averaged"],
)
def test_scan_threads_do_not_change_bytes(tmp_path, body):
    cfg = write_cfg(tmp_path, body.replace("jmax = 24\n", ""))
    serial, pooled = tmp_path / "t1", tmp_path / "t2"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(serial)]) == 0
    rc = cli.main(
        ["scan", "--config", cfg, "--out-dir", str(pooled), "--threads", "2"]
    )
    assert rc == 0
    names = sorted(p.name for p in serial.iterdir() if p.name != "manifest.json")
    assert names == sorted(p.name for p in pooled.iterdir() if p.name != "manifest.json")
    if "axis = p2" in body:
        assert names == ["fit_sin2.json", "scan_p2.csv"]
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


def test_opt_writes_one_row_per_delay(tmp_path):
    cfg = write_cfg(tmp_path, COLD_OPT)
    out = tmp_path / "opt"
    assert cli.main(["opt", "--config", cfg, "--out-dir", str(out)]) == 0
    _, header, rows = read_csv(out / "optimal_p2.csv")
    assert header == list(runio.OPT_COLUMNS)
    assert len(rows) == 1
    p2_opt = float(rows[0][1])
    assert 0.0 < p2_opt < 4.0
    assert float(rows[0][2]) > 0.0


def test_opt_manifest_reports_the_basis_a_bracket_extension_grew(tmp_path, monkeypatch):
    # at 296 K the search's p2_max of 2 needs j_max 84; both maxima lie
    # beyond, and the two bracket extensions grow the basis to 88 and 92.
    # The second delay reuses the bases the first one grew.
    built = []
    init = RotorBasis.__init__

    def recording_init(self, j_max):
        built.append(j_max)
        init(self, j_max)

    monkeypatch.setattr(RotorBasis, "__init__", recording_init)
    cfg = write_cfg(
        tmp_path,
        """\
        [molecule]
        preset = OCS

        [pulses]
        p1_kick = 1.0
        dtau_frac = 0.125

        [scan]
        axis = dtau
        start = 0.1
        stop = 0.125
        count = 2
        p2_max = 2.0
        """,
    )
    out = tmp_path / "opt"
    assert cli.main(["opt", "--config", cfg, "--out-dir", str(out)]) == 0
    assert built == [84, 88, 92]
    assert len(read_csv(out / "optimal_p2.csv")[2]) == 2
    assert RunManifest.load(out / "manifest.json").parameters["j_max"] == 92


def test_opt_reports_a_bracket_that_never_closes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, COLD_OPT.replace("p2_max = 4.0", "p2_max = 0.5"))
    out = tmp_path / "opt"
    assert cli.main(["opt", "--config", cfg, "--out-dir", str(out)]) == 3
    assert capsys.readouterr().err == (
        "rotecho: numerical failure: no interior |s_echo| maximum below p2 = 1.25 "
        "after 3 bracket extensions\n"
    )
    assert not out.exists()


def test_opt_rejects_p2_axis(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SCAN_P2)
    assert cli.main(["opt", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2


_PATHWAYS_CFG = "[molecule]\npreset = OCS\n\n[pulses]\np1_kick = 1.0\n"


def _pathways_argv(tmp_path, delay, out, extra=""):
    cfg = write_cfg(tmp_path, _PATHWAYS_CFG + delay + "\n" + extra, name="pw.cfg")
    return ["pathways", "--config", cfg, "--out-dir", str(out)]


def test_pathways_verb(tmp_path, capsys):
    out = tmp_path / "pw"
    argv = _pathways_argv(tmp_path, "dtau_frac = 0.125", out)
    assert cli.main([*argv, "--start", "4", "--target", "6,4"]) == 0
    printed = capsys.readouterr().out
    # the ket+2 first step would land on the target, so it is excluded
    assert "P1 bra+2" in printed and "P1 ket+2" not in printed
    assert "5 sequences at dtau = 10.2496 ps" in printed
    assert "10.25, 30.75, 51.25, 71.75 ps" in printed
    for delay, dtau in (("dtau_ps = 20", "20.0000"), ("dtau_frac = 0.25", "20.4993")):
        argv = _pathways_argv(tmp_path, delay, out)
        assert cli.main([*argv, "--start", "4", "--target", "6,4"]) == 0
        assert f"sequences at dtau = {dtau} ps" in capsys.readouterr().out

    comments, header, rows = read_csv(out / "pathways.csv")
    assert comments[0].startswith("# rotecho ")
    assert header == ["start", "steps", "intermediate", "target", "phase_rad"]
    assert len(rows) == 5
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.parameters["n_pathways"] == 5


def test_pathways_cuts_off_at_the_config_jmax(tmp_path, capsys):
    # the enumeration cutoff is [solver] jmax, the same basis cutoff the
    # engine verbs run at; without it the walk is bounded only by the steps
    out = tmp_path / "pw"
    for extra, count, j_max in (("", 10, None), ("[solver]\njmax = 6\n", 7, 6)):
        argv = _pathways_argv(tmp_path, "dtau_ps = 12.5", out, extra)
        assert cli.main([*argv, "--start", "4,6", "--target", "6,4"]) == 0
        assert f"{count} sequences at dtau = 12.5000 ps" in capsys.readouterr().out
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest.parameters["n_pathways"] == count
        assert manifest.parameters["j_max"] == j_max
        digest = hashlib.sha256((tmp_path / "pw.cfg").read_bytes()).hexdigest()
        assert manifest.config_sha256 == digest


def test_fit_decay_verb(tmp_path, capsys):
    table = write_decay_table(tmp_path)
    out = tmp_path / "fit"
    assert cli.main(["fit-decay", "--input", str(table), "--out-dir", str(out)]) == 0
    assert "rate = 0.008" in capsys.readouterr().out
    payload = json.loads((out / "decay_fit.json").read_text())
    assert payload["model"] == "amplitude*exp(-rate*t)"
    assert payload["rate_per_ps"] == pytest.approx(8e-3, rel=1e-6)
    assert payload["negative_rate"] is False

    growing = tmp_path / "growing.csv"
    growing.write_text("dtau_ps,s_echo_max\n5,1.0\n8,1.1\n11,1.2\n14,1.3\n", encoding="utf-8")
    assert cli.main(["fit-decay", "--input", str(growing), "--out-dir", str(out)]) == 0
    assert "(negative rate: amplitude grows over this range)" in capsys.readouterr().out


@pytest.mark.parametrize("verb", ["simulate", "scan", "opt", "pathways", "fit-decay"])
def test_manifest_names_the_data_files_and_shares_their_command(tmp_path, verb):
    # every verb writes through one finishing step: the manifest lists
    # exactly the data files beside it, each file's provenance carries the
    # manifest's command, and only config-driven engine runs time a setup
    config_text = {"simulate": COLD_SIM, "scan": COLD_SCAN_P2, "opt": COLD_OPT, "pathways": COLD_SIM}
    if verb == "fit-decay":
        argv = ["fit-decay", "--input", str(write_decay_table(tmp_path))]
    else:
        argv = [verb, "--config", write_cfg(tmp_path, config_text[verb])]
    if verb == "pathways":
        argv += ["--start", "4", "--target", "6,4"]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out-dir", str(out)]) == 0

    manifest = RunManifest.load(out / "manifest.json")
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest.outputs) == written
    for name in written:
        path = out / name
        if path.suffix == ".json":
            lines = json.loads(path.read_text(encoding="utf-8"))["provenance"]
        else:
            lines = [c.removeprefix("# ") for c in read_csv(path)[0]]
        assert [x for x in lines if x.startswith("command: ")] == [f"command: {manifest.command}"]
        assert f"config_sha256: {manifest.config_sha256}" in lines
    setup = {"setup"} if verb in ("simulate", "scan", "opt") else set()
    assert set(manifest.timings_s) == setup | {"run", "write"}


COLD_GAUSSIAN_SCAN = """\
    [molecule]
    preset = OCS
    temperature_k = 5.0

    [pulses]
    p1_kick = 0.4
    shape = gaussian
    duration_fwhm_ps = 0.2
    dtau_frac = 0.125

    [solver]
    truncation_tol = 0.05

    [scan]
    axis = p2
    start = 0.25
    stop = 1.5
    count = 6
    """


@pytest.mark.parametrize(
    "verb, body, resolved",
    [
        ("simulate", COLD_SIM, {"dtau_ps"}),
        ("simulate", COLD_SIM.replace("[pulses]", "[pulses]\n    shape = gaussian")
         .replace("jmax = 24", "jmax = 24\n    substeps = 16"), {"dtau_ps", "substeps"}),
        ("scan", COLD_GAUSSIAN_SCAN, {"dtau_ps", "substeps"}),
        ("scan", COLD_SCAN_AVERAGED, {"dtau_ps"}),
        ("opt", COLD_OPT, set()),
        ("pathways", COLD_SIM, {"dtau_ps"}),
    ],
    ids=["simulate", "simulate-gaussian", "scan-gaussian-5K", "scan-averaged", "opt", "pathways"],
)
def test_manifest_records_every_config_key(tmp_path, verb, body, resolved):
    # parameters hold each key the config sets, typed as the table reads
    # it, beside the j_max the run used and, where they apply, its one
    # delay and its pulse mesh; an impulsive run has no mesh and a delay
    # scan no one delay
    cfg = write_cfg(tmp_path, body)
    argv = [verb, "--config", cfg, "--out-dir", str(tmp_path / "out")]
    if verb == "pathways":
        argv += ["--start", "4", "--target", "6,4"]
    assert cli.main(argv) == 0
    params = RunManifest.load(tmp_path / "out" / "manifest.json").parameters
    parser = configparser.ConfigParser(interpolation=None)
    parser.read(cfg, encoding="utf-8")
    for section in parser.sections():
        for key, raw in parser[section].items():
            assert params[key] == _KEYS[section][key][0](raw), (section, key)
    assert "j_max" in params
    assert {"dtau_ps", "substeps"} & set(params) == resolved


def test_config_key_names_are_unique_across_sections():
    names = [key for keys in _KEYS.values() for key in keys]
    assert len(names) == len(set(names))


# ---------------------------------------------------------------- exit codes

def test_exit_code_2_for_config_problems(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "no.cfg")]) == 2
    assert "config error" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, COLD_SIM)  # no [scan]
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    assert cli.main(
        ["pathways", "--config", cfg, "--start", "x", "--target", "6,4", "--out-dir", str(tmp_path)]
    ) == 2

    # an engine precondition (the trace must end past the second pulse)
    capsys.readouterr()
    cfg = write_cfg(tmp_path, COLD_SIM + "t_end_ps = 1.0\n", name="short.cfg")
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
    assert "invalid parameter: t_end must lie past the last pulse" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["scan", "opt"])
def test_scan_and_opt_need_a_scan_section(tmp_path, capsys, verb):
    cfg = write_cfg(tmp_path, COLD_SIM)
    assert cli.main([verb, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "rotecho: config error: this command needs a [scan] section\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("verb, body", [("scan", COLD_SCAN_P2), ("opt", COLD_OPT)],
                         ids=["scan", "opt"])
@pytest.mark.parametrize("halfwidth", ["-1.0", "0"])
def test_scan_and_opt_reject_a_non_positive_window(tmp_path, capsys, verb, body, halfwidth):
    cfg = write_cfg(tmp_path, body + f"window_halfwidth_ps = {halfwidth}\n")
    assert cli.main([verb, "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "rotecho: config error: [scan] window_halfwidth_ps: must be positive\n"
    assert not (tmp_path / "out").exists()


def _pathways(*argv):
    """The pathways verb's handler on argv, so its ConfigError surfaces."""
    cfg = _write("pw.cfg", _OCS + _PULSES)
    args = cli.build_parser().parse_args(["pathways", "--config", cfg, *argv, "--out-dir", "out"])
    return args.handler(args)


def _write(name, text):
    Path(name).write_text(text, encoding="utf-8")
    return name


def _preset_without_molecule(monkeypatch):
    Path("presets").mkdir()
    _write("presets/BARE.cfg", "[pulses]\np1_kick = 1\n")
    monkeypatch.setattr(config.resources, "files", lambda package: Path.cwd())
    return molecule_preset("BARE")


_OCS = "[molecule]\npreset = OCS\n"
_PULSES = "[pulses]\np1_kick = 0.5\ndtau_frac = 0.1\n"


# each row runs in an empty working directory
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda mp: cli._positive_int("0"), argparse.ArgumentTypeError, "must be a positive integer"),
        (lambda mp: _pathways("--start=-4", "--target", "6,4"), ConfigError,
         "--start needs non-negative J values, got '-4'"),
        (lambda mp: _pathways("--start", "4", "--target", "6"), ConfigError,
         "--target needs exactly two J values, got '6'"),
        (lambda mp: load_config(_write("g.cfg", "[molecule]\nname = bare\n" + _PULSES)), ConfigError,
         "[molecule]: need a preset or at least b_cm"),
        (_preset_without_molecule, ConfigError, "preset 'BARE' lacks a [molecule] section"),
        (lambda mp: load_config(_write("g.cfg", _PULSES)), ConfigError,
         "g.cfg: missing [molecule] section"),
        (lambda mp: load_config(_write("g.cfg", _OCS + _OCS)), ConfigError,
         "While reading from 'g.cfg' [line  3]: section 'molecule' already exists"),
        (lambda mp: load_config(_write("g.cfg", "[molecule]\nb_cm = -0.2\n" + _PULSES)), ConfigError,
         "[molecule]: rotational constant must be positive"),
        (lambda mp: load_config(_write("g.cfg", _OCS + _PULSES + "[solver]\nsubsteps = 0\n")),
         ConfigError, "[solver]: substeps must be at least 1"),
        (lambda mp: load_config(_write("g.cfg", _OCS + _PULSES + "[beam]\npump_waist_um = 0\n"
                                                "probe_waist_um = 15\n")),
         ConfigError, "[beam]: waists must be positive"),
        (lambda mp: load_config(_write("g.cfg", _OCS + _PULSES.replace("0.1", "0.0"))), ConfigError,
         "[pulses]: the pulse delay must be positive"),
        (lambda mp: runio.write_fit_json("fit.json", object(), {}), TypeError,
         "no JSON layout for object"),
        (lambda mp: runio.read_decay_table(_write("t.csv", "dtau_ps,amp\n1,2\n")), ConfigError,
         "t.csv: no s_echo_max or s_echo column in ['dtau_ps', 'amp']"),
    ],
)
def test_guard_messages(tmp_path, monkeypatch, call, error, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as exc:
        call(monkeypatch)
    assert str(exc.value) == message


def test_exit_code_3_for_numerical_failures(tmp_path, capsys):
    # basis too small for a room-temperature ensemble: truncation refusal
    cfg = write_cfg(
        tmp_path,
        COLD_SIM.replace("temperature_k = 30.0", "temperature_k = 296.0").replace(
            "jmax = 24", "jmax = 40"
        ),
    )
    assert cli.main(["simulate", "--config", cfg, "--out-dir", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err

    short = tmp_path / "short.csv"
    short.write_text("dtau_ps,s_echo_max\n1,1\n2,1\n3,1\n", encoding="utf-8")
    assert cli.main(["fit-decay", "--input", str(short), "--out-dir", str(tmp_path)]) == 3


def test_unknown_verb_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])
    # only scan runs a worker pool, so only scan takes --threads
    cfg = write_cfg(tmp_path, COLD_OPT)
    for argv in (
        ["simulate", "--config", cfg],
        ["opt", "--config", cfg],
        ["pathways", "--config", cfg, "--start", "4", "--target", "6,4"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--out-dir", str(tmp_path), "--threads", "2"])
        assert exit_info.value.code == 2


def test_version_via_module_and_script(monkeypatch, capsys):
    # the module form, in process and in a child, and the console-script
    # entry point that pyproject.toml declares, run the way an installed
    # script calls it; without tomllib (Python 3.10) only the module form
    # is checked
    monkeypatch.setattr(sys, "argv", ["rotecho", "--version"])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("rotecho", run_name="__main__")
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("rotecho ")
    got = subprocess.run(
        [sys.executable, "-m", "rotecho", "--version"],
        capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    assert got.stdout.strip().startswith("rotecho ")
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        project = tomllib.load(fh)["project"]
    # the package states its version once per source; the two must agree
    assert got.stdout == f"rotecho {project['version']}\n"
    module, func = project["scripts"]["rotecho"].split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    got = subprocess.run(
        [sys.executable, "-c", launcher, "--version"],
        capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    assert got.stdout.strip().startswith("rotecho ")


def test_simulate_and_opt_load_no_scipy(tmp_path):
    # numpy is the only runtime dependency: no verb loads any scipy module,
    # a sin2 fit and the decay fit included; a child interpreter starts
    # with no module loaded.  The averaged scan's fit fails on its lobe count.
    # Nor does a verb, a pooled scan included, load _hashlib, which maps
    # OpenSSL's libcrypto: the config digest takes CPython's own sha256.
    sim = write_cfg(tmp_path, COLD_SIM, name="sim.cfg")
    opt = write_cfg(tmp_path, COLD_OPT, name="opt.cfg")
    p2 = write_cfg(tmp_path, COLD_SCAN_P2, name="p2.cfg")
    avg = write_cfg(
        tmp_path,
        COLD_SCAN_AVERAGED.replace("stop = 1.5\n    count = 6", "stop = 14\n    count = 8"),
        name="avg.cfg",
    )
    calls = [
        ["simulate", "--config", sim], ["opt", "--config", opt], ["scan", "--config", p2],
        ["scan", "--config", avg], ["fit-decay", "--input", str(write_decay_table(tmp_path))],
        ["pathways", "--config", sim, "--start", "4", "--target", "6,4"],
        ["scan", "--config", avg, "--threads", "2"],
    ]
    script = "import json, sys\nfrom rotecho import cli\n" + "".join(
        f"assert cli.main({argv + ['--out-dir', str(tmp_path / str(i))]!r}) == 0\n"
        for i, argv in enumerate(calls)
    ) + ("print(json.dumps([sorted(m for m in sys.modules if m.startswith('scipy')),"
         " '_hashlib' in sys.modules]))\n")
    got = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    scipy_modules, hashlib_loaded = json.loads(got.stdout.splitlines()[-1])
    assert scipy_modules == []
    written = ["trace.csv", "optimal_p2.csv", "fit_sin2.json", "scan_p2.csv", "decay_fit.json",
               "pathways.csv", "scan_p2.csv"]
    assert all((tmp_path / str(i) / name).exists() for i, name in enumerate(written))
    (note,) = RunManifest.load(tmp_path / "3" / "manifest.json").notes
    assert note.startswith("sin2 fit: first lobe has")
    if not any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256")):
        pytest.skip("this interpreter has no built-in sha256 module")
    assert not hashlib_loaded


def test_a_pooled_scan_forks_without_a_process_pool(tmp_path):
    # the scan forks its own workers, so a pooled averaged scan loads neither
    # concurrent.futures nor multiprocessing (about 2 MB resident); and the
    # workers leave by os._exit, so the first call's line, still in the piped
    # stdout's buffer when the second call forks, is printed once
    avg = write_cfg(tmp_path, COLD_SCAN_AVERAGED, name="avg.cfg")
    outs = [tmp_path / "first", tmp_path / "second"]
    script = "import json, sys\nfrom rotecho import cli\n" + "".join(
        f"assert cli.main({['scan', '--config', avg, '--threads', '2', '--out-dir', str(out)]!r}) == 0\n"
        for out in outs
    ) + ("print(json.dumps(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('concurrent', 'multiprocessing'))))\n")
    got = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    *wrote, modules = got.stdout.splitlines()
    assert [line.partition(": ")[0] for line in wrote] == [f"wrote {out / 'scan_p2.csv'}" for out in outs]
    assert json.loads(modules) == []


@pytest.mark.parametrize("size", [0, 55, 56, 64, 65, 1000])
def test_config_digest_is_the_sha256_of_the_file_bytes(tmp_path, size):
    # sha256 pads 55 bytes into one 64-byte block and 56 into two; 64 and 65
    # bytes end on and just past a block edge; 1000 bytes span 16 blocks
    data = (bytes(range(256)) * 4)[:size]
    path = tmp_path / "run.cfg"
    path.write_bytes(data)
    assert runio.config_digest(str(path)) == hashlib.sha256(data).hexdigest()


def test_the_package_imports_no_scipy():
    # no module of the package imports scipy, function-local imports
    # included, and the project's runtime dependencies name numpy only
    imported = [
        (path.name, name)
        for path in Path(cli.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        for name in (
            [a.name for a in node.names] if isinstance(node, ast.Import)
            else [node.module or ""] if isinstance(node, ast.ImportFrom) else []
        )
    ]
    assert ("echo.py", "numpy") in imported
    assert [(f, n) for f, n in imported if n.split(".")[0] == "scipy"] == []
    # nor a process pool: scans fork their own workers
    assert [(f, n) for f, n in imported if n.split(".")[0] in ("concurrent", "multiprocessing")] == []
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        dependencies = tomllib.load(fh)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in dependencies] == ["numpy"]


@pytest.mark.skipif(
    shutil.which("rotecho") is None, reason="rotecho console script not installed"
)
def test_version_via_installed_script():
    got = subprocess.run(
        [shutil.which("rotecho"), "--version"],
        capture_output=True, text=True, check=True,
    )
    assert got.stdout.strip().startswith("rotecho ")
