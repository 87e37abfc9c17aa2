"""Config parsing, the command-line verbs, and the output writers."""

import hashlib
import json
import math
import os
import re
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
    available_presets,
    load_config,
    molecule_preset,
    revival_period,
    run_two_pulse,
)
from rotecho import cli, config, runio
from rotecho.config import _KEYS
from rotecho.runio import RunManifest

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
        delta_alpha = 0.8
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
        isolate = off
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
    assert (s.p1_kick, s.p2_kick) == (1.5, 0.75)
    assert s.dtau == 12.5
    assert s.shape == "gaussian" and s.duration_fwhm == 0.2
    assert (s.j_max, s.dt_sample, s.t_end) == (32, 0.05, 40.0)
    assert s.solver.substeps == 64 and s.solver.truncation_tol == 5e-3
    assert s.scan.axis == "p2" and s.scan.count == 8
    assert s.scan.isolate is False and s.scan.p2_max == 12.0
    assert s.beam.n_shells == 3 and s.beam.kappa == pytest.approx(6.25)


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
    s = load_config(write_cfg(tmp_path, COLD_SCAN_P2 + "isolate = off\n"))
    assert s.scan.isolate is False
    with pytest.raises(ConfigError, match="not a boolean"):
        load_config(
            write_cfg(tmp_path, COLD_SCAN_P2 + "isolate = maybe\n", name="g.cfg")
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
    assert _load_text(path, _with_line("scan", f"isolate = {value}")).scan.isolate is _BOOL_WORDS[word]
    if other.strip().lower() not in _BOOL_WORDS:
        with pytest.raises(ConfigError, match=re.escape("[scan] isolate:")):
            _load_text(path, _with_line("scan", f"isolate = {other}"))


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


def test_readme_names_exactly_the_config_keys():
    paragraph = _README.read_text(encoding="utf-8").split("Config sections and keys:")[1]
    parts = re.split(r"`\[(\w+)\]`", paragraph.split("\n\n")[0])[1:]
    # keys are words between the section names; parentheses list values
    named = {
        section: set(re.findall(r"\w+", re.sub(r"\([^)]*\)", "", body))) - {"or"}
        for section, body in zip(parts[::2], parts[1::2])
    }
    assert named == {section: set(keys) for section, keys in _KEYS.items()}


def test_full_config_loads_and_takes_percent_literally(tmp_path):
    loaded = _load_text(tmp_path / "full.cfg", FULL_CFG)
    assert (loaded.j_max, loaded.scan.count, loaded.beam.n_shells) == (24, 6, 2)
    text = FULL_CFG.replace("[molecule]\n", "[molecule]\nname = OCS 100%\n")
    assert _load_text(tmp_path / "pct.cfg", text).molecule.name == "OCS 100%"
    with pytest.raises(ConfigError, match=re.escape("[scan] isolate:")):
        _load_text(tmp_path / "pct.cfg", _with_line("scan", "isolate = 50%"))


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
    runio.write_manifest(
        path,
        command="rotecho simulate --config run.cfg",
        parameters={"p1_kick": 0.5, "j_max": 24},
        config_sha256="ab" * 32,
        molecule="OCS-cold",
        outputs=["trace.csv"],
        timings={"run": 0.25},
        notes=["one note"],
    )
    loaded = RunManifest.load(path)
    assert loaded.command == "rotecho simulate --config run.cfg"
    assert loaded.parameters["j_max"] == 24
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
    assert cli._scan_parameters(scan, 24)["substeps"] == 48
    assert "substeps" not in cli._scan_parameters(load_config(write_cfg(tmp_path, COLD_SCAN_P2)), 24)


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
    cfg = write_cfg(tmp_path, COLD_SIM)
    out = tmp_path / "ovr"
    rc = cli.main(
        ["simulate", "--config", cfg, "--out-dir", str(out), "--jmax-override", "30"]
    )
    assert rc == 0
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.parameters["j_max"] == 30
    assert "--jmax-override 30" in manifest.command


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


def test_scan_dtau_curve(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SCAN_DTAU)
    out = tmp_path / "sdt"
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(out)]) == 0
    _, header, rows = read_csv(out / "scan_dtau.csv")
    assert header == list(runio.CURVE_COLUMNS)
    assert len(rows) == 3
    assert [r[0] for r in rows] == [r[6] for r in rows]  # scan_value is dtau_ps
    trev = revival_period(molecule_preset("OCS"))
    assert float(rows[0][0]) == pytest.approx(0.06 * trev, rel=1e-12)


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


def test_opt_rejects_p2_axis(tmp_path):
    cfg = write_cfg(tmp_path, COLD_SCAN_P2)
    assert cli.main(["opt", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 2


def test_pathways_verb(tmp_path, capsys):
    out = tmp_path / "pw"
    rc = cli.main(
        ["pathways", "--start", "4", "--target", "6,4", "--out-dir", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    # the ket+2 first step would land on the target, so it is excluded
    assert "P1 bra+2" in printed and "P1 ket+2" not in printed
    assert "5 sequences at dtau = 10.2496 ps" in printed
    assert "10.25, 30.75, 51.25, 71.75 ps" in printed

    comments, header, rows = read_csv(out / "pathways.csv")
    assert comments[0].startswith("# rotecho ")
    assert header == ["start", "steps", "intermediate", "target", "phase_rad"]
    assert len(rows) == 5
    manifest = RunManifest.load(out / "manifest.json")
    assert manifest.parameters["n_pathways"] == 5
    assert manifest.config_sha256 is None


def test_fit_decay_verb(tmp_path, capsys):
    table = write_decay_table(tmp_path)
    out = tmp_path / "fit"
    assert cli.main(["fit-decay", "--input", str(table), "--out-dir", str(out)]) == 0
    assert "rate = 0.008" in capsys.readouterr().out
    payload = json.loads((out / "decay_fit.json").read_text())
    assert payload["model"] == "amplitude*exp(-rate*t)"
    assert payload["rate_per_ps"] == pytest.approx(8e-3, rel=1e-6)
    assert payload["negative_rate"] is False


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


# ---------------------------------------------------------------- exit codes

def test_exit_code_2_for_config_problems(tmp_path, capsys):
    assert cli.main(["simulate", "--config", str(tmp_path / "no.cfg")]) == 2
    assert "config error" in capsys.readouterr().err

    cfg = write_cfg(tmp_path, COLD_SIM)  # no [scan]
    assert cli.main(["scan", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    rc = cli.main(
        [
            "pathways",
            "--start", "4",
            "--target", "6,4",
            "--dtau-ps", "10",
            "--dtau-frac", "0.125",
            "--out-dir", str(tmp_path),
        ]
    )
    assert rc == 2
    assert cli.main(
        ["pathways", "--start", "x", "--target", "6,4", "--out-dir", str(tmp_path)]
    ) == 2


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
        ["pathways", "--start", "4", "--target", "6,4", "--dtau-ps", "10"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, "--out-dir", str(tmp_path), "--threads", "2"])
        assert exit_info.value.code == 2


def test_version_via_module_and_script():
    # the module form and the console-script entry point that
    # pyproject.toml declares, run the way an installed script calls it;
    # without tomllib (Python 3.10) only the module form is checked
    got = subprocess.run(
        [sys.executable, "-m", "rotecho", "--version"],
        capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    assert got.stdout.strip().startswith("rotecho ")
    tomllib = pytest.importorskip("tomllib")
    with open(_PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, func = scripts["rotecho"].split(":")
    launcher = f"import sys; from {module} import {func}; sys.exit({func}())"
    got = subprocess.run(
        [sys.executable, "-c", launcher, "--version"],
        capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    assert got.stdout.strip().startswith("rotecho ")


def test_simulate_and_opt_load_no_scipy(tmp_path):
    # scipy is imported only by a sin2 fit that passes its lobe checks, the
    # decay fit and the master-curve check; a child interpreter starts with
    # no module loaded.  The averaged scan's fit fails on its lobe count.
    sim = write_cfg(tmp_path, COLD_SIM, name="sim.cfg")
    opt = write_cfg(tmp_path, COLD_OPT, name="opt.cfg")
    avg = write_cfg(
        tmp_path,
        COLD_SCAN_AVERAGED.replace("stop = 1.5\n    count = 6", "stop = 14\n    count = 8"),
        name="avg.cfg",
    )
    script = (
        "import json, sys\n"
        "from rotecho import cli\n"
        f"assert cli.main(['simulate', '--config', {sim!r}, '--out-dir', {str(tmp_path / 's')!r}]) == 0\n"
        f"assert cli.main(['opt', '--config', {opt!r}, '--out-dir', {str(tmp_path / 'o')!r}]) == 0\n"
        f"assert cli.main(['scan', '--config', {avg!r}, '--out-dir', {str(tmp_path / 'a')!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    got = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=_CHILD_ENV,
    )
    loaded = json.loads(got.stdout.splitlines()[-1])
    assert (tmp_path / "s" / "trace.csv").exists() and (tmp_path / "o" / "optimal_p2.csv").exists()
    (note,) = RunManifest.load(tmp_path / "a" / "manifest.json").notes
    assert note.startswith("sin2 fit: first lobe has")
    heavy = ("scipy.optimize", "scipy.linalg", "scipy.constants")
    assert [m for m in loaded if m.startswith(heavy)] == []


@pytest.mark.skipif(
    shutil.which("rotecho") is None, reason="rotecho console script not installed"
)
def test_version_via_installed_script():
    got = subprocess.run(
        [shutil.which("rotecho"), "--version"],
        capture_output=True, text=True, check=True,
    )
    assert got.stdout.strip().startswith("rotecho ")
