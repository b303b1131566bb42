"""CLI surface: subcommands, formats, exit codes, JSON envelopes."""

import io
import json
import platform
from fractions import Fraction

import numpy as np
import pytest

import specmatch
import specmatch.matching
from specmatch import (
    FamilySpec,
    barrier_family,
    complete_graph,
    extremal_family,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from specmatch.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def test_family_bare_graph6_line(capsys):
    code, out, _ = run(capsys, "family", "--n", "14", "--k", "1")
    assert code == 0
    assert out == write_graph6(extremal_family(14, 1)) + "\n"


def test_family_edge_list_format(capsys):
    code, out, _ = run(capsys, "family", "--n", "14", "--k", "1", "--format", "edges")
    assert code == 0
    assert out.startswith("# n=14\n")
    assert parse_edge_list(out) == extremal_family(14, 1)


def test_family_json_envelope(capsys):
    code, payload, _ = run_json(capsys, "family", "--n", "14", "--k", "1", "--json")
    assert code == 0
    assert payload["tool"] == "specmatch"
    assert payload["schema"] == 1
    assert payload["command"] == "family"
    assert payload["provenance"] == {
        "specmatch": specmatch.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    assert payload["params"] == {"n": 14, "k": 1}
    result = payload["result"]
    assert parse_graph6(result["graph6"]) == extremal_family(14, 1)
    assert result["order"] == 14
    assert [len(b) for b in result["partition"]] == [1, 1, 3, 9]


def test_family_invalid_parameters(capsys):
    code, _, err = run(capsys, "family", "--n", "13", "--k", "1")
    assert code == 2
    assert err.startswith("error:")
    code, _, _ = run(capsys, "family", "--n", "14", "--k", "0")
    assert code == 2


def test_proof_family(capsys):
    code, out, _ = run(
        capsys, "proof-family", "--n", "18", "--s", "2", "--parts", "3,3,3,7"
    )
    assert code == 0
    expected = barrier_family(FamilySpec(18, 2, (3, 3, 3, 7)))
    assert out.strip() == write_graph6(expected)


def test_proof_family_bad_parts(capsys):
    code, _, err = run(capsys, "proof-family", "--n", "18", "--s", "2", "--parts", "3,x")
    assert code == 2 and "error:" in err
    code, _, _ = run(capsys, "proof-family", "--n", "18", "--s", "2", "--parts", "3,4,3,6")
    assert code == 2


def test_spectra_human_output(capsys):
    g6 = write_graph6(extremal_family(14, 1))
    code, out, _ = run(capsys, "spectra", "--g6", g6)
    assert code == 0
    assert "wiener: 130" in out
    assert "mu: 19.0633341363" in out
    assert "bracket: [" in out


def test_spectra_json(capsys):
    g6 = write_graph6(extremal_family(14, 1))
    code, payload, _ = run_json(capsys, "spectra", "--g6", g6, "--json", "--tol", "1e-9")
    assert code == 0
    result = payload["result"]
    assert result["wiener"] == 130
    assert abs(result["mu"] - 19.063334136) < 1e-7
    lo, hi = result["bracket"]
    assert lo <= result["mu"] <= hi
    assert hi - lo <= 1e-9


def test_spectra_wide_tol_prints_no_mu(capsys):
    # a first bracket returned open holds the floor 2W/n, not mu
    g6 = write_graph6(extremal_family(14, 1))
    code, out, _ = run(capsys, "spectra", "--g6", g6, "--tol", "10")
    assert code == 0
    assert "mu:" not in out
    assert "bracket: [18.5714285714, 25]" in out and "iterations: 0" in out
    code, payload, _ = run_json(capsys, "spectra", "--g6", g6, "--tol", "10", "--json")
    assert code == 0
    result = payload["result"]
    assert result["mu"] is None
    assert (result["bracket_exact"], result["iterations"]) == (["130/7", "25"], 0)
    # a closed first bracket is mu itself
    code, out, _ = run(capsys, "spectra", "--g6", write_graph6(complete_graph(5)), "--tol", "10")
    assert code == 0 and "mu: 4\n" in out and "iterations: 0" in out


def test_spectra_from_edge_file(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("# n=4\n0 1\n1 2\n2 3\n")
    code, out, _ = run(capsys, "spectra", "--edges", str(path))
    assert code == 0
    assert "wiener: 10" in out


def test_spectra_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("0 1\n1 2\n"))
    code, out, _ = run(capsys, "spectra", "--edges", "-")
    assert code == 0
    assert "order: 3" in out


def test_spectra_error_paths(tmp_path, capsys):
    code, _, err = run(capsys, "spectra", "--g6", "B\x01")
    assert code == 2 and "error:" in err
    # disconnected input has no finite distance matrix
    code, _, err = run(capsys, "spectra", "--g6", "C?")
    assert code == 2 and "error:" in err
    # a one-vertex graph: the message names its order, not a list of orders
    code, _, err = run(capsys, "spectra", "--g6", "@")
    assert code == 2 and "got order 1" in err and "[" not in err
    code, _, _ = run(capsys, "spectra", "--edges", "/nonexistent/path.txt")
    assert code == 2
    code, _, err = run(capsys, "spectra", "--edges", str(tmp_path))
    assert code == 2 and "error:" in err
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"0 1\n\xff 2\n")
    code, _, err = run(capsys, "spectra", "--edges", str(path))
    assert code == 2 and "error:" in err


def test_matching_with_certificate(capsys):
    code, out, _ = run(capsys, "matching", "--g6", "D?{")
    assert code == 0
    assert "matching number: 1" in out
    assert "perfect matching: no" in out
    # the centre leaves 4 odd components: deficiency 3 = 5 - 2*1
    assert "S=[4] leaves 4 odd components (deficiency 3)" in out


def _count_calls(monkeypatch, name, *modules):
    # wrap `name` in every module that binds it; the list collects one entry per call
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_matching_runs_blossom_for_matching_and_certificate(capsys, monkeypatch):
    # one search gives the printed matching and, without a perfect matching,
    # the Tutte certificate
    calls = _count_calls(monkeypatch, "max_matching", specmatch.matching)
    code, out, _ = run(capsys, "matching", "--g6", write_graph6(complete_graph(14)))
    assert code == 0
    assert "perfect matching: yes" in out
    assert len(calls) == 1
    code, out, _ = run(capsys, "matching", "--g6", write_graph6(extremal_family(14, 1)))
    assert code == 0
    assert "perfect matching: no" in out
    assert len(calls) == 2


def test_matching_json_perfect(capsys):
    g6 = write_graph6(extremal_family(14, 1))
    code, payload, _ = run_json(capsys, "matching", "--g6", g6, "--json")
    assert code == 0
    result = payload["result"]
    assert result["matching_number"] == 6
    assert result["perfect"] is False
    assert result["certificate"] == {
        "vertices": [0],
        "odd_components": 3,
        "deficiency": 2,
    }
    code, payload, _ = run_json(capsys, "matching", "--g6", "C~", "--json")
    assert payload["result"]["perfect"] is True
    assert "certificate" not in payload["result"]


def test_fractional_witness_and_violator(capsys):
    # C5 gets the all-halves witness
    code, payload, _ = run_json(capsys, "fractional", "--g6", "DqK", "--json")
    assert code == 0
    result = payload["result"]
    assert result["fractional_perfect_matching"] is True
    assert set(result["weights"].values()) == {"1/2"}
    # the star is the canonical violator: deleting the center isolates 4
    code, payload, _ = run_json(capsys, "fractional", "--g6", "D?{", "--json")
    result = payload["result"]
    assert result["fractional_perfect_matching"] is False
    assert result["violating_set"] == [4]
    assert result["isolated"] == 4


def test_fractional_solves_double_cover_once(capsys, monkeypatch):
    calls = _count_calls(monkeypatch, "_cover_matching", specmatch.matching)
    # the star K_1 v 4K_1 has no fractional perfect matching
    code, out, _ = run(capsys, "fractional", "--g6", "D?{")
    assert code == 0
    assert "violating set: [4]" in out
    assert len(calls) == 1
    # C5 has one, and its witness comes from the same single cover matching
    calls.clear()
    code, out, _ = run(capsys, "fractional", "--g6", "DqK")
    assert code == 0
    assert "fractional perfect matching: yes" in out
    assert len(calls) == 1


def test_fractional_human_output(capsys):
    code, out, _ = run(capsys, "fractional", "--g6", "D?{")
    assert code == 0
    assert "fractional perfect matching: no" in out
    assert "violating set: [4]" in out


def test_quotient_json(capsys):
    code, payload, _ = run_json(capsys, "quotient", "--n", "14", "--s", "1", "--json")
    assert code == 0
    result = payload["result"]
    assert result["quotient"][3] == ["1", "2", "6", "8"]
    assert result["char_poly"] == ["1", "-10", "-153", "-368", "-172"]
    assert result["char_poly"] == result["closed_form"]
    assert result["coefficients_agree"] is True
    assert abs(result["largest_root"] - 19.063334136) < 1e-8


def test_json_params_record_every_resolved_option(capsys):
    # a --json run can be repeated from its envelope alone: each option the
    # target reads, given or defaulted, and the root width of quotient
    argv = ("verify", "probe13", "--n", "14", "--k", "1", "--trials", "3", "--seed", "7", "--json")
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0 and payload["params"] == {
        "target": "probe13", "n": 14, "k": 1, "trials": 3, "seed": 7, "exploratory": False,
    }
    argv = ("verify", "theorem11", "--n", "8", "--chunk", "3/64", "--json")
    code, payload, _ = run_json(capsys, *argv)
    assert code == 0
    assert payload["params"] == {"target": "theorem11", "n": 8, "chunk": "3/64"}
    code, payload, _ = run_json(capsys, "verify", "lemmas", "--seed", "2", "--json")
    assert payload["params"] == {"target": "lemmas", "seed": 2}
    code, payload, _ = run_json(capsys, "quotient", "--n", "14", "--s", "1", "--json")
    assert payload["params"] == {"n": 14, "s": 1, "tol": 1e-10}
    argv = ("quotient", "--n", "14", "--s", "1", "--tol", "1e-6", "--json")
    assert run_json(capsys, *argv)[1]["params"]["tol"] == 1e-6


def test_quotient_human_output(capsys):
    code, out, _ = run(capsys, "quotient", "--n", "22", "--s", "2")
    assert code == 0
    assert "closed form matches: yes" in out
    code, _, _ = run(capsys, "quotient", "--n", "13", "--s", "1")
    assert code == 2


def test_quotient_rejects_nonpositive_width(capsys):
    code, _, err = run(capsys, "quotient", "--n", "14", "--s", "1", "--tol", "-1")
    assert code == 2
    assert "width" in err
    code, _, err = run(capsys, "quotient", "--n", "14", "--s", "1", "--tol", "0")
    assert code == 2
    assert "width" in err
    for value in ("nan", "inf"):
        code, _, err = run(capsys, "quotient", "--n", "14", "--s", "1", "--tol", value)
        assert code == 2
        assert "finite" in err


def test_quotient_accepts_width_below_double_precision_spacing(capsys):
    code, payload, _ = run_json(
        capsys, "quotient", "--n", "14", "--s", "1", "--tol", "1e-20", "--json"
    )
    assert code == 0
    lo, hi = (Fraction(x) for x in payload["result"]["root_bracket"])
    assert 0 < hi - lo <= Fraction(1e-20)


def test_verify_theorem13_family(capsys):
    code, out, _ = run(capsys, "verify", "theorem13-family", "--n", "14", "--k", "1")
    assert code == 0
    assert out.startswith("suite theorem13-family: PASS (7 cases, 0 violations")
    code, _, err = run(capsys, "verify", "theorem13-family", "--n", "14")
    assert code == 2 and "requires" in err


def test_verify_theorem11_scan(capsys):
    code, payload, _ = run_json(
        capsys, "verify", "theorem11", "--n", "4", "--json"
    )
    assert code == 0
    result = payload["result"]
    assert result["suite"] == "theorem11"
    assert result["cases"] == 38
    assert result["passed"] is True
    assert result["extras"]["extremal_matches"] == 4
    code, _, err = run(capsys, "verify", "theorem11")
    assert code == 2 and "requires --n" in err


def test_verify_theorem11_chunked(capsys):
    total = 0
    for i in range(2):
        code, payload, _ = run_json(
            capsys, "verify", "theorem11", "--n", "4", "--chunk", f"{i}/2", "--json"
        )
        assert code == 0
        total += payload["result"]["cases"]
    assert total == 38
    code, _, _ = run(capsys, "verify", "theorem11", "--n", "4", "--chunk", "9/2")
    assert code == 2


def test_verify_ordering_chain(capsys):
    code, out, _ = run(
        capsys, "verify", "ordering-chain",
        "--n", "14", "--s", "1", "--parts", "1,3,9", "--k", "1",
    )
    assert code == 0
    assert "ordering-chain: PASS" in out
    code, _, _ = run(capsys, "verify", "ordering-chain", "--n", "14", "--s", "1")
    assert code == 2


def test_verify_ordering_chain_below_the_threshold_range(capsys):
    # the 2-hub canonical root 13.796 lies below the 1-hub threshold 13.867 at
    # n = 10 < 6k+6: refused as out of range, failed only when explored
    argv = ("verify", "ordering-chain", "--n", "10", "--s", "2", "--parts", "1,1,3,3", "--k", "1")
    code, out, err = run(capsys, *argv)
    assert code == 2 and "6k+6=12" in err and out == ""
    code, payload, _ = run_json(capsys, *argv, "--exploratory", "--json")
    result = payload["result"]
    assert code == 1 and result["extras"]["exploratory"] is True
    assert [v["check"] for v in result["violations"]] == ["chain-threshold"]


def test_verify_probe13(capsys):
    code, out, _ = run(
        capsys, "verify", "probe13",
        "--n", "14", "--k", "1", "--trials", "30", "--seed", "2",
    )
    assert code == 0
    assert "probe13: PASS (30 cases" in out


def test_verify_probe13_exploratory_fails_below_range(capsys):
    code, _, err = run(
        capsys, "verify", "probe13", "--n", "10", "--k", "1", "--trials", "40"
    )
    assert code == 2 and "exploratory" in err
    code, out, _ = run(
        capsys, "verify", "probe13",
        "--n", "10", "--k", "1", "--trials", "40", "--seed", "3", "--exploratory",
    )
    assert code == 1
    assert "FAIL" in out
    assert "VIOLATION [probe-order]" in out


def test_verify_probe13_json_deterministic(capsys):
    argv = (
        "verify", "probe13",
        "--n", "14", "--k", "1", "--trials", "20", "--seed", "7", "--json",
    )
    _, first, _ = run_json(capsys, *argv)
    _, second, _ = run_json(capsys, *argv)
    first["result"].pop("seconds")
    second["result"].pop("seconds")
    assert first == second


def test_verify_rejects_empty_suites(capsys):
    code, _, err = run(capsys, "verify", "probe13", "--n", "14", "--k", "1", "--trials", "0")
    assert code == 2 and "trials" in err


def test_verify_corollary14(capsys):
    code, out, _ = run(capsys, "verify", "corollary14", "--n", "20")
    assert code == 0
    assert "corollary14: PASS (4 cases, 0 violations" in out
    # an odd top order would end the span one short of it
    code, out, err = run(capsys, "verify", "corollary14", "--n", "41")
    assert code == 2 and "n_lo <= n_hi <= 64" in err and out == ""


def test_verify_corollary14_rejects_tolerance(capsys):
    # the comparison is exact: no tolerance reaches it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "corollary14", "--n", "16", "--tol", "1e-9", "--json"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "unrecognized arguments: --tol" in err
    code, payload, _ = run_json(capsys, "verify", "corollary14", "--n", "16", "--json")
    assert code == 0 and "tol" not in payload["result"]["params"]


def test_verify_theorem11_reduction_rejects_chunks(capsys):
    code, out, err = run(capsys, "verify", "theorem11", "--n", "10", "--chunk", "1/4")
    assert code == 2 and "one chunk" in err and out == ""
    assert "Traceback" not in err
    _assert_no_threads_option(capsys, "--n", "10", "--threads", "2")
    for n in ("11", "66"):
        code, out, err = run(capsys, "verify", "theorem11", "--n", n)
        assert code == 2 and "4 <= n <= 64" in err and out == ""
        assert "Traceback" not in err


def test_verify_theorem11_has_no_variant_option(capsys):
    # nor does any verify target take a tolerance: each solves at the default
    cases = [("theorem11", "--n", "10", "--variant", value) for value in ("small", "large")]
    cases += [
        (*argv, "--tol", "1e-9")
        for argv in (
            ("lemmas",),
            ("theorem11", "--n", "10"),
            ("theorem13-family", "--n", "14", "--k", "1"),
            ("probe13", "--n", "14", "--k", "1", "--trials", "5"),
            ("ordering-chain", "--n", "22", "--s", "2", "--parts", "1,1,3,15", "--k", "1"),
        )
    ]
    for argv in cases:
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and f"unrecognized arguments: {argv[-2]}" in err


def test_verify_theorem11_n64(capsys):
    code, payload, _ = run_json(capsys, "verify", "theorem11", "--n", "64", "--json")
    result = payload["result"]
    assert code == 0 and result["passed"] is True
    assert result["extras"]["threshold_matches"] == 1
    assert result["extras"]["certified_above"] == result["cases"] - 1


def _assert_no_threads_option(capsys, *argv):
    # the scan runs in one process: argparse refuses --threads with exit 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "theorem11", *argv])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert "unrecognized arguments: --threads" in err and "Traceback" not in err


def test_verify_theorem11_threads_on_an_empty_chunk(capsys):
    # 64 masks at n = 4 leave chunk 0/100 empty; --threads is no option there either
    argv = ("--n", "4", "--chunk", "0/100")
    code, payload, err = run_json(capsys, "verify", "theorem11", *argv, "--json")
    assert code == 0 and "Traceback" not in err
    assert payload["result"]["extras"]["masks_scanned"] == 0
    _assert_no_threads_option(capsys, *argv, "--threads", "2")


def test_verify_theorem11_rejects_thread_counts_below_one(capsys):
    for threads in ("0", "-2"):
        _assert_no_threads_option(capsys, "--n", "4", "--threads", threads)


def test_verify_rejects_options_the_target_does_not_read(capsys):
    cases = (
        (("theorem11", "--n", "10", "--trials", "5", "--seed", "3"), ("--trials", "--seed")),
        (("theorem11", "--n", "10", "--exploratory"), ("--exploratory",)),
        (("lemmas", "--trials", "5"), ("--trials",)),
        (("corollary14", "--chunk", "0/2"), ("--chunk",)),
        (("ordering-chain", "--n", "22", "--s", "2", "--parts", "1,1,3,15", "--k", "1",
          "--seed", "1"), ("--seed",)),
    )
    for argv, flags in cases:
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "" and "Traceback" not in err
        assert "does not take" in err and all(flag in err for flag in flags)


def test_chunk_count_below_one_is_named(capsys):
    for argv in (("verify", "theorem11", "--n", "4"), ("enumerate", "--n", "4")):
        for count in ("0", "-2"):
            code, out, err = run(capsys, *argv, "--chunk", f"3/{count}")
            assert code == 2 and out == ""
            assert f"chunk count must be positive, got {count}" in err


def test_quotient_hub_size_error_names_s(capsys):
    code, out, err = run(capsys, "quotient", "--n", "14", "--s", "0")
    assert code == 2 and out == ""
    assert "hub size s" in err and "k must" not in err


def test_verify_lemmas_full_defaults(capsys):
    code, payload, _ = run_json(capsys, "verify", "lemmas", "--json")
    assert code == 0
    assert payload["result"]["passed"] is True
    assert payload["result"]["cases"] > 3000


def test_verify_rejects_unknown_target(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "bogus"])
    capsys.readouterr()


def test_enumerate_lines(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--connected")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 38
    assert all(parse_graph6(line).n == 4 for line in lines)


def test_enumerate_chunks_cover_everything(capsys):
    seen = []
    for i in range(3):
        code, out, _ = run(capsys, "enumerate", "--n", "3", "--chunk", f"{i}/3")
        assert code == 0
        seen.extend(out.splitlines())
    assert len(seen) == 8
    assert len(set(seen)) == 8


def test_enumerate_validation(capsys):
    code, _, _ = run(capsys, "enumerate", "--n", "9")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "--n", "4", "--chunk", "4/4")
    assert code == 2
