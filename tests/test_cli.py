"""End-to-end command line behavior, run in process."""

import contextlib
import hashlib
import io
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topodyn import parse_report
from topodyn.cli import main
from topodyn.demos import DEMOS
from topodyn.systems import catalog


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


def test_trace_overflowing_window_writes_no_warnings(capsys):
    # the diagonal saddle's float window overflows past about 1,000 steps;
    # the report says so in its gaps, and nothing reaches stderr
    code, out, err = run_cli(
        ["trace", "diag-saddle", "--delta", "0.001", "--length", "1100"],
        capsys)
    assert err == ""
    assert parse_report(out).header["operation"] == "trace"
    assert code in (0, 1)


def test_trace_nan_defect_gives_no_bound(capsys):
    # a defect that is NaN measured nothing, so the nominal delta must not
    # stand in for it: no bound, and the verdict fails
    code, out, err = run_cli(
        ["trace", "diag-saddle", "--delta", "0.001", "--length", "1100",
         "--seed", "5"], capsys)
    rep = parse_report(out)
    assert err == ""
    assert rep.header["defect_measured"] == "nan"
    assert rep.header["guaranteed"] == "nan"
    assert rep.verdict == "fail" and code == 1


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


def test_trace_refuses_a_window_its_tracer_cannot_take(capsys):
    # the strips tracer needs a defect below 1; a larger one is a one-line
    # usage error, not a traceback
    code, out, err = run_cli(
        ["trace", "strips-shrinking", "--delta", "5", "--length", "20",
         "--seed", "1"], capsys)
    assert code == 1 and out == ""
    assert err == ("topodyn: error: A defect below 1 is needed to pin the "
                   "fiber walk.\n")


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


def test_chain_recurrent_probe_is_exact_off_dyadic_grids(capsys):
    # 7,500 of the 10,000 lattice nodes have period 150 > 128 under cat-map
    # mod 100; a float probe loses the others to rounding after ~35 steps
    code, out, _ = run_cli(
        ["chain-recurrent", "cat-map", "--radius", "0.005", "--resolution",
         "100", "--horizon", "128"], capsys)
    assert code == 1
    rep = parse_report(out)
    assert rep.header["chain_recurrent"] == "10000"
    assert rep.header["nonwandering"] == "2500"


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


@pytest.mark.parametrize("argv, flag", [
    (["trace", "cat-map", "--delta", "1e-3", "--length", "0"], "--length"),
    (["trace", "cat-map", "--delta", "1e-3", "--length", "-3"], "--length"),
    (["trace", "cat-map", "--delta", "nan", "--length", "10"], "--delta"),
    (["stability", "cat-map", "--epsilon", "0"], "--epsilon"),
    (["stability", "cat-map", "--epsilon", "0.01", "--window", "0"],
     "--window"),
    (["stability", "cat-map", "--epsilon", "0.01", "--samples", "0"],
     "--samples"),
])
def test_trace_and_stability_inputs_are_checked(capsys, argv, flag):
    _one_line_usage_error(argv, capsys, flag)


@pytest.mark.parametrize("argv, size", [
    (["decompose", "cat-map", "--resolution", "50000"], "nodes"),
    (["chain-recurrent", "cat-map", "--radius", "0.1", "--resolution", "50000"],
     "nodes"),
    # 49 M nodes fit in int32, but 45 offsets per node on the default
    # ladder's first step do not
    (["decompose", "cat-map", "--resolution", "7000"], "edges"),
])
def test_oversize_grids_end_in_a_usage_error(capsys, argv, size):
    # the sizes are tested before any grid-sized array is built
    start = time.perf_counter()
    _one_line_usage_error(argv, capsys, f"too many {size}")
    assert time.perf_counter() - start < 1.0


# sha256 of the default stdout; any change to these reports shows here
GOLDEN = [
    (["decompose", "cat-map", "--resolution", "32"],
     "dba36ec4313486303dea74c67666aefa47dc7ba4c937abede3b7584305fb15b2"),
    (["decompose", "two-block-sft"],
     "3d866a98cb7ebad0ef86140fd4b2b173320f1e12ee76d8ee4484d5e620416bfa"),
    (["chain-recurrent", "cat-map", "--radius", "0.1", "--resolution", "32"],
     "95684d5d5f4edd6a3fefaf68f26dc50b45b59769b8c802459bf692e27dc32aea"),
    (["trace", "cat-map", "--delta", "0.001", "--length", "200"],
     "15a12a1287453d72e140587c6208d8621d1d1a87805ded010b8f4f4b20f16a9d"),
    (["trace", "golden-mean", "--delta", "0.001", "--length", "200"],
     "f8b1969c738c4197c1c29da7ecb51e7eea5e599b4497f1b7dedb230ab8f685b7"),
    (["trace", "strips-shrinking", "--delta", "0.001", "--length", "200"],
     "cbf75129e43a09cec77eab12b1a7c3706f1e4df69272c28bba9133fc2b903853"),
    (["stability", "cat-map", "--epsilon", "0.01", "--samples", "200"],
     "ad36b537d09a6dfe50829ea94bfb498f5ca1124edd44eb40e90ef08989847313"),
    (["stability", "full-2", "--epsilon", "0.1", "--samples", "20"],
     "8e56e10df3862b7df5e13f5ded7da8da97e3067a588c754928f1e588753da67b"),
    (["demo", "strips"],
     "09acffb04935f7fd6fda5cf2c884909404622d79805ac037c81c49c272ccf021"),
    # the exact-orbit route, and a torus ladder of 30 basic sets, which pins
    # the order of basic sets: the largest first, then by least node
    (["decompose", "three-cycle"],
     "d4dec5c96558f74b4e4e971cc2faac272b9538c5fe20dd28596c985efb6e6fc4"),
    (["decompose", "cat-map", "--resolution", "16", "--ladder", "0.03"],
     "3858dedf11ae396a10b77b27035945b22f38ae22048dbc2a832100ade267a174"),
    # the shift route on 300 samples, some on short exact g-cycles
    (["stability", "full-2", "--epsilon", "0.1", "--samples", "300",
      "--window", "30", "--seed", "9"],
     "d5085df8d4e7138ec0681e38be06305801a5ae09ee155a928201973c013f7f3b"),
    # the bench's non-dyadic grids, where lattice orders are not powers of 2
    (["decompose", "cat-map", "--resolution", "48"],
     "49de60f23d801d253260955857c465af39892e12527619a314395cc4fef6da85"),
    (["decompose", "cat-map", "--resolution", "40"],
     "b7b3c4cdc19fc59cbce3362aa139867b78fc4af9728fafc00555cd4917a618e4"),
    # the bench's headline operation: 65,536 lattice nodes, one basic set
    (["decompose", "cat-map", "--resolution", "256"],
     "5853577cd197d243495652961a16b01fc092a9f83d6434c777e5fd699bcfc2ec"),
    # the linear stability route across a chunk boundary: 4,297 + 703
    # samples at the default window 60
    (["stability", "cat-map", "--epsilon", "0.01", "--samples", "5000",
      "--seed", "1"],
     "e2e359b1a5bd53ac0d3e52effffeeb8620a98f128189e6a11c9729a81b6d98d2"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN,
                         ids=[" ".join(argv[:2]) + f"-{k}"
                              for k, (argv, _) in enumerate(GOLDEN)])
def test_default_stdout_is_pinned(capsys, argv, digest):
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# every subcommand on every catalog system, at small sizes

_REALS = st.sampled_from(["1e-06", "0.001", "0.05", "0.3", "1.5", "5"])
_SEEDS = st.integers(0, 40).map(str)


def _up_to(top):
    return st.integers(1, top).map(str)


_OPTIONS = {
    "decompose": [("--resolution", _up_to(12)), ("--ladder", st.none() | _REALS),
                  ("--seed", _SEEDS)],
    "trace": [("--delta", _REALS), ("--length", _up_to(40)), ("--seed", _SEEDS)],
    "chain-recurrent": [("--resolution", _up_to(12)), ("--radius", _REALS),
                        ("--horizon", _up_to(20)), ("--seed", _SEEDS)],
    "stability": [("--epsilon", _REALS), ("--window", _up_to(10)),
                  ("--samples", _up_to(20)), ("--seed", _SEEDS)],
    "demo": [("--seed", _SEEDS)],
}


@st.composite
def _cli_argv(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    names = sorted(DEMOS) if command == "demo" else sorted(catalog())
    argv = [command, draw(st.sampled_from(names))]
    for flag, values in _OPTIONS[command]:
        value = draw(values)
        if value is not None:
            argv += [flag, value]
    return argv


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_cli_argv())
@example(["trace", "strips-shrinking", "--delta", "5", "--length", "20",
          "--seed", "1"])
def test_every_cli_run_ends_with_an_exit_code(argv):
    """A report exits 0, 1 or 2 and a usage error exits 1; no exception
    escapes main."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
    assert code in (0, 1, 2)
