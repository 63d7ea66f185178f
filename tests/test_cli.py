"""End-to-end command line behavior, run in process."""

import pytest

from topodyn import parse_report
from topodyn.cli import main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as stop:  # argparse usage failures land here
        code = stop.code if isinstance(stop.code, int) else 1
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decompose_two_block(capsys):
    code, out, _ = run_cli(["decompose", "two-block-sft"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert rep.header["basic_sets"] == "2"
    assert rep.header["validation"] == "clean"
    assert rep.verdict == "pass"


def test_decompose_writes_out_file(tmp_path, capsys):
    target = tmp_path / "dec.txt"
    code, out, _ = run_cli(
        ["decompose", "golden-mean", "--out", str(target)], capsys)
    assert code == 0
    assert parse_report(target.read_text()).header["system"] == "golden-mean"


def test_decompose_unknown_system_lists_catalog(capsys):
    code, _, err = run_cli(["decompose", "nonesuch"], capsys)
    assert code == 1
    assert "unknown system" in err
    assert "cat-map" in err


def test_trace_diag_passes(capsys):
    code, out, _ = run_cli(
        ["trace", "diag-saddle", "--delta", "1e-3", "--length", "40",
         "--seed", "5"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert rep.verdict == "pass"
    assert float(rep.header["error"]) <= float(rep.header["guaranteed"]) + 1e-12


def test_trace_sft_and_strips(capsys):
    for system in ("golden-mean", "strips-shrinking"):
        code, out, _ = run_cli(
            ["trace", system, "--delta", "0.05", "--length", "24"], capsys)
        assert code == 0
        assert parse_report(out).verdict == "pass"


def test_trace_harmonic_unsupported(capsys):
    code, _, err = run_cli(
        ["trace", "harmonic", "--delta", "0.1", "--length", "10"], capsys)
    assert code == 1
    assert "trace" in err or "family" in err


def test_trace_rejects_bad_delta(capsys):
    code, _, err = run_cli(
        ["trace", "cat-map", "--delta", "-0.5", "--length", "10"], capsys)
    assert code == 1


def test_chain_recurrent_finite_exact(capsys):
    code, out, _ = run_cli(
        ["chain-recurrent", "three-cycle", "--radius", "0.5"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert rep.verdict == "pass"
    assert rep.header["mode"] == "exact orbits"
    assert rep.header["symmetric_difference"] == "0"


def test_chain_recurrent_cat_grid(capsys):
    code, out, _ = run_cli(
        ["chain-recurrent", "cat-map", "--resolution", "16",
         "--radius", "0.13"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert int(rep.header["symmetric_difference"]) == 0


def test_chain_recurrent_sft(capsys):
    code, out, _ = run_cli(
        ["chain-recurrent", "two-block-sft", "--radius", "0.5"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert rep.header["mode"] == "symbol graph"
    assert rep.header["chain_recurrent"] == "5"
    assert rep.tables["disagreements"][1] == []  # no rows


def test_stability_cat_small_perturbation(capsys):
    code, out, _ = run_cli(
        ["stability", "cat-map", "--epsilon", "0.002", "--window", "40",
         "--samples", "200", "--seed", "1"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert float(rep.header["semiconjugacy_residual"]) <= 1e-9
    assert float(rep.header["closeness"]) <= \
        float(rep.header["guaranteed_closeness"]) + 1e-12


def test_stability_full_shift_flip(capsys):
    code, out, _ = run_cli(
        ["stability", "full-2", "--epsilon", "0.125", "--samples", "6"],
        capsys)
    assert code == 0
    assert parse_report(out).verdict == "pass"


def test_stability_refuses_uncertified_epsilon(capsys):
    code, _, err = run_cli(
        ["stability", "cat-map", "--epsilon", "0.2", "--samples", "10"],
        capsys)
    assert code == 1
    assert "certificate" in err or "sigma" in err


def test_stability_needs_supported_family(capsys):
    code, _, err = run_cli(
        ["stability", "golden-mean", "--epsilon", "0.1", "--samples", "4"],
        capsys)
    assert code == 1


def test_demo_unknown_name_lists_demos(capsys):
    code, _, err = run_cli(["demo", "nonesuch"], capsys)
    assert code == 1
    assert "ex22" in err and "sec5" in err


def test_no_arguments_shows_usage(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1


def test_same_seed_is_deterministic(capsys):
    argv = ["trace", "cat-map", "--delta", "1e-3", "--length", "30",
            "--seed", "9"]
    code1, out1, _ = run_cli(argv, capsys)
    code2, out2, _ = run_cli(argv, capsys)
    assert (code1, out1) == (code2, out2)


def test_decompose_cat_passes_at_non_dyadic_resolution(capsys):
    code, out, _ = run_cli(
        ["decompose", "cat-map", "--resolution", "40", "--seed", "3"], capsys)
    assert code == 0
    rep = parse_report(out)
    assert rep.header["validation"] == "clean"
    assert rep.header["recurrent_nodes"] == "1600"


def _one_line_usage_error(argv, capsys, flag):
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert flag in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["0", "-4", "2.5", "many"])
@pytest.mark.parametrize("command", [
    ["decompose", "cat-map"],
    ["chain-recurrent", "cat-map", "--radius", "0.1"],
])
def test_resolution_must_be_a_positive_int(capsys, command, value):
    _one_line_usage_error(command + ["--resolution", value], capsys,
                          "--resolution")


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "wide"])
def test_ladder_must_be_a_positive_finite_float(capsys, value):
    _one_line_usage_error(["decompose", "cat-map", "--ladder", value], capsys,
                          "--ladder")


@pytest.mark.parametrize("command", [
    ["decompose", "cat-map", "--resolution", "256"],
    ["chain-recurrent", "cat-map", "--radius", "0.05", "--resolution", "96"],
])
def test_out_directory_is_checked_before_any_work(tmp_path, capsys, command):
    # both commands would take seconds; the check must come first
    missing = tmp_path / "missing" / "report.txt"
    _one_line_usage_error(command + ["--out", str(missing)], capsys, "--out")
    _one_line_usage_error(command + ["--out", str(tmp_path)], capsys, "--out")
