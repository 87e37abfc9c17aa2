"""Self-tests of the benchmark's tracer, fingerprint and output checks."""

import sys
from dataclasses import replace

import pytest

import rotecho
from rotecho import molecule_preset, revival_period, scan_p2, two_pulse_config
from rotecho.cli import main as cli_main
from tracer import TARGETS, Tracer, layer_metrics
from workloads import WORKLOADS, check_opt_sweep, fingerprint, load_reference, read_data

COLD_OCS = replace(molecule_preset("OCS"), temperature_k=5.0)
DTAU8 = revival_period(COLD_OCS) / 8.0


def _rotecho_bindings() -> dict:
    bindings = {
        (name, key): value
        for name, mod in sys.modules.items()
        if name.startswith("rotecho")
        for key, value in vars(mod).items()
    }
    bindings["RotorBasis.__init__"] = rotecho.RotorBasis.__dict__["__init__"]
    return bindings


def test_counts_are_exact_on_a_two_point_isolated_scan():
    base = two_pulse_config(COLD_OCS, 1.0, 1.0, DTAU8, j_max=20)
    with Tracer() as tracer:
        curve = scan_p2([0.5, 1.0], 1.0, DTAU8, base, attach_fit=False)
    assert len(curve) == 2 and not curve.failures
    m = layer_metrics(tracer)
    # point 1: full, first-pulse and second-pulse runs; point 2 reuses
    # the cached first-pulse trace
    assert m["propagate.runs"] == 5
    assert m["propagate.kick.calls"] == 7
    assert m["basis.thermal_state.calls"] == 5
    assert m["echo.evals"] == 2
    assert m["propagate.runs_per_eval"] == 2.5
    # 24 n^3 flops per block, n = 1 .. 21
    assert m["propagate.kick.gflop"] == pytest.approx(7 * 24 * (21 * 22 / 2) ** 2 / 1e9)


def test_restore_puts_back_every_patched_attribute():
    before = _rotecho_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert rotecho.echo.run_pulse_sequence is not before[("rotecho.echo", "run_pulse_sequence")]
        assert rotecho.propagate.thermal_state is not before[("rotecho.propagate", "thermal_state")]
        assert len(tracer._patches) >= len(TARGETS)
    finally:
        tracer.restore()
    after = _rotecho_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_fingerprint_is_stable_and_ignores_the_provenance_header(tmp_path):
    config_text = (
        "[molecule]\npreset = OCS\ntemperature_k = 5\n\n"
        "[pulses]\np1_kick = 1.0\ndtau_frac = 0.125\n\n"
        "[solver]\njmax = 20\n\n"
        "[scan]\naxis = p2\nstart = 0.5\nstop = 1.5\ncount = 3\n"
    )
    prints = []
    for name in ("first.cfg", "second.cfg"):
        config = tmp_path / name
        config.write_text(config_text)
        out = tmp_path / name.replace(".cfg", "")
        assert cli_main(["scan", "--config", str(config), "--out-dir", str(out)]) == 0
        # the header names the config file, so the files differ as bytes
        assert name in (out / "scan_p2.csv").read_text()
        prints.append(fingerprint(read_data(out / "scan_p2.csv")[0]))
    assert prints[0] == prints[1]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_the_reference_and_reject_a_perturbed_value(tmp_path, name):
    reference = load_reference()
    workload = WORKLOADS[name]
    v, s = 3, workload.slices - 1
    rows = reference[name][str(v)][s]["rows"]
    if name == "gaussian_simulate":
        dt = revival_period(molecule_preset("OCS")) / 2048.0
        rows = [[dt * i, a] for i, a in enumerate(rows)]
    header = {"opt_sweep": "dtau_ps,p2_opt,s_echo_max",
              "focal_scan": "scan_value,s_echo,t_max,t_min,p1_kick,p2_kick,dtau_ps,averaged",
              "gaussian_simulate": "time_ps,alignment"}[name]

    def write(data) -> list[str]:
        path = tmp_path / workload.data_file
        cells = [[("true" if c else "false") if j == 7 else repr(c) for j, c in enumerate(r)]
                 for r in data]
        path.write_text("# provenance\n" + header + "\n" + "\n".join(",".join(r) for r in cells) + "\n")
        return workload.check(path, v, s, reference)[2]

    assert write(rows) == []
    bad = [list(r) for r in rows]
    bad[len(bad) // 2][1] += 0.01 * max(abs(r[1]) for r in rows)
    assert write(bad)


def test_opt_sweep_run_check_catches_a_misplaced_minimum():
    reference = load_reference()
    rows = {s: entry["rows"] for s, entry in enumerate(reference["opt_sweep"]["0"])}
    assert check_opt_sweep(rows) == []
    rows[3] = [[rows[3][0][0], rows[4][0][1] - 0.1, rows[3][0][2]]]
    assert check_opt_sweep(rows)
