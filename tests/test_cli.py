import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hderlab import adjoint_bimodule, cli, cohomology, freecons, samples
from hderlab.cli import main
from hderlab.hder import ordinary_hder
from hderlab.serialize import algebra_to_json, hder_to_json, parse_algebra, parse_hder
from helpers import materialized, oracle_report_text, report_text

FIXTURES = Path(__file__).parent / "fixtures"

COMMANDS = [
    (["check", "dual_pair.json"], 0),
    (["check", "split_pair.json"], 0),
    (["check", "dual_bad_bimodule.json"], 1),
    (["cohomology", "split_pair.json", "--degree", "2"], 0),
    (["cohomology", "split_pair.json", "--degree", "1", "--coefficients", "trivial"], 0),
    (["cohomology", "nil_central.json", "--degree", "2", "--coefficients", "file"], 0),
    (["classify-central", "nil_central.json"], 0),
    (["extend-abelian", "dual_cocycle.json"], 0),
    (["extend-abelian", "dual_bad_cocycle.json"], 1),
    (["cocycle-from-section", "dual_cocycle.json"], 0),
    (["deform-verify", "dual_deform.json"], 0),
    (["deform-verify", "dual_deform_bad.json"], 1),
    (["deform-obstruct", "dual_deform.json"], 0),
    (["deform-obstruct", "nil_deform_blocked.json"], 1),
    (["deform-extend", "dual_deform.json", "--to", "4"], 0),
    (["deform-extend", "nil_deform_blocked.json"], 1),
    (["deform-trivialize", "dual_deform.json"], 0),
    (["deform-trivialize", "nil_deform_blocked.json", "--to", "1"], 1),
    (["deform-verify", "tp3_gauged_deform.json"], 0),
    (["deform-obstruct", "tp3_gauged_deform.json"], 0),
    (["deform-extend", "tp3_gauged_deform.json", "--to", "6"], 0),
    (["deform-trivialize", "tp3_gauged_deform.json"], 0),
    # gauge entries near 2^40 over 7 and 11: slots of 239 bits
    (["deform-verify", "tp3_wide_deform.json"], 0),
    (["deform-obstruct", "tp3_wide_deform.json"], 0),
    (["deform-extend", "tp3_wide_deform.json", "--to", "6"], 0),
    (["deform-trivialize", "tp3_wide_deform.json"], 0),
    (["free-tensor", "tensor_line.json"], 0),
    (["free-tensor", "tensor_line.json", "--degree", "3"], 0),
    # M2(Q) at rank 2, degree 3: cocycles whose parts nest at both report indents
    (["cohomology", "m2_e12_rank2.json", "--degree", "3"], 0),
]


# sha256 of each --json report above; pins the report bytes, not just
# their repeatability from run to run
REPORT_SHA256 = {
    "check dual_pair.json": "45bf81ae1bae46adf917059820428ba98b48908da47333e9bea27b6ec893ffbc",
    "check split_pair.json": "2b405f71bd139cbae22f5ba962de88abe2646bbf023d492567acc4f06a7d9031",
    "check dual_bad_bimodule.json": "ddb2ffa5c09dfa84c048305138f5989b6098f39e340b0d67888c2e2bdeb904aa",
    "cohomology split_pair.json --degree 2": "3db4ec64e940d953b6d4bac6a048cf6860fc56fb78d2f10cd8f142f56014bb37",
    "cohomology split_pair.json --degree 1 --coefficients trivial": "f2cc2156b632c333c78aff82fada400f7eb7a21f9121012e2de8f415f79ee389",
    "cohomology nil_central.json --degree 2 --coefficients file": "fc7ecc8c4ac19d3d28deeae259a6d401ff25117b430a5b4d102099b97303f803",
    "classify-central nil_central.json": "467840a353b3378ace16676a5024e6e255307072e607d3ef6312631fa0ea2bab",
    "extend-abelian dual_cocycle.json": "26297c8d667691cff6bb31369c42fa367e91680777188b528c552f47671fad23",
    "extend-abelian dual_bad_cocycle.json": "b3a7e67a7cfd31be8238d570f56ba9ea80c2836d23ee86b22f1b5af6b1856d03",
    "cocycle-from-section dual_cocycle.json": "26264988fe117f9b2516ca43a16d85aaba222ae95a7803c247dd501eefb7946a",
    "deform-verify dual_deform.json": "692efe0ba7ddd3da3cdc93d37b1fc4836d8f71003fd195e93fb047dfd35ea227",
    "deform-verify dual_deform_bad.json": "de499a5da77ec92c64846ed3500d24b3432163304034e45a580e77070023ca70",
    "deform-obstruct dual_deform.json": "70f0627c5e9cf0622a797381c3aace73883b6f21e6cd4fef7ebd29626effa1ad",
    "deform-obstruct nil_deform_blocked.json": "69b61ba4aa476eb2c5820277ec88ffecec3428a103f9cecdf3d3234b3ede0a14",
    "deform-extend dual_deform.json --to 4": "3451de02f86ce4b43d2dba4242b1db5dcea5fc33c249d9638f4859840ac77585",
    "deform-extend nil_deform_blocked.json": "23cc317082ff9c65016e165b74ad0adfc49b4ee07b7e0d0fd638f2eea0b06e2f",
    "deform-trivialize dual_deform.json": "d9bbeecdcd07f8dd027f40d45ddfd3f1bbe8ceaf674ce7fa502baa7491e5f9cb",
    "deform-trivialize nil_deform_blocked.json --to 1": "7cff5baf0c0fe84bddc8a8db17e44d459a10d39e0f28adf1876d321cebc4d4d8",
    "deform-verify tp3_gauged_deform.json": "fa0b658db8274b3e58c512b1045a68f299bae5eb0c71cbb4e3f80f98a1b0da06",
    "deform-obstruct tp3_gauged_deform.json": "0357ab1045e96cd68aaa71da39e62c5542ba65b84021dc0fdcdbbb532200ed71",
    "deform-extend tp3_gauged_deform.json --to 6": "4a045ef540332ddfda7457fa2fe6a4c4f7d466de011485740ba50931cc3c9621",
    "deform-trivialize tp3_gauged_deform.json": "c9b4ca4e2faf1906cd8897c3d641960587b4c7a71dc37cbb365a77d711ce88c8",
    "deform-verify tp3_wide_deform.json": "fa0b658db8274b3e58c512b1045a68f299bae5eb0c71cbb4e3f80f98a1b0da06",
    "deform-obstruct tp3_wide_deform.json": "b7ed0945b1165e363703e6a86735bc7141233956029b5ab552ec94da6068031d",
    "deform-extend tp3_wide_deform.json --to 6": "980d02a28b2d0ca779eca7c38df56b33b6da271738d36b7d8a98df8a7958411a",
    "deform-trivialize tp3_wide_deform.json": "da584f071c15c0a8d33d10113746c4e4432984350972ce9a2c5b099198dff0e1",
    "free-tensor tensor_line.json": "d504e9876a85f6fee47f8fcd77440ce9ce8f1f6c10fbd7c9bf44b4676301ea1f",
    "free-tensor tensor_line.json --degree 3": "3e52e035418ba9554b6bce60f16f424fa86f05bfef8a05dbd66487f8dfdfb08e",
    "cohomology m2_e12_rank2.json --degree 3": "db1175c6a4585cd55cd45bc76d78c1a6e4b0aaf6de62d726cad954d948d222fd",
}


# sha256 of each human-mode report above without its timing_ms line, taken
# before the report writer replaced json.dumps
HUMAN_SHA256 = {
    "check dual_pair.json": "91182096ed951659d883fb725ed408c66a94fabaf71bbc07bce4064b9fa7d3bc",
    "check split_pair.json": "8c9ac058e633530ee0e2c0f4cad739b17d4b003dcdb3a3daad2151d423f3c02b",
    "check dual_bad_bimodule.json": "f15d9c3150d50e39780d99055076f3699c78a692f118bd5364502a0fbf5a555c",
    "cohomology split_pair.json --degree 2": "89099037731e56f6f0440d28fdc579b5cdc5250486fbc49500dc96eb84f6bd76",
    "cohomology split_pair.json --degree 1 --coefficients trivial": "04d3a172f09a4cf33f28ab2d2014041e1ae240aca270aa1b8c9b6e4aca53e8b3",
    "cohomology nil_central.json --degree 2 --coefficients file": "34c1447bc7e4487838c65aa1b5ba6c02124b26595ee7b1a63d576bf028c29b37",
    "classify-central nil_central.json": "b0b7e0b11032475f9fa5f37862eeb8c547f9352b3f24a1170d36000dfed11771",
    "extend-abelian dual_cocycle.json": "7771bfef78e01f8b8fcbb0e0c838657f7087ab3d2c2170fe202ee187658c97af",
    "extend-abelian dual_bad_cocycle.json": "691f50a44643eda54afbfc658125fb1fe2895ca7442618373ea7829225ffb00c",
    "cocycle-from-section dual_cocycle.json": "e42f09d44112d3f5a0445d99d43721ddb635c4f1c72fac434d67bf2760a47bb2",
    "deform-verify dual_deform.json": "e547fd040ad73f4c34e43741e55b69d2bb3524f67bbec83c8e3bc5d9697bc131",
    "deform-verify dual_deform_bad.json": "3944e9b7d4d476f502985196ca82b65a53819c2b44ea854ae452120add62991e",
    "deform-obstruct dual_deform.json": "4a845be9118fbada18fb91113572dacc16953d08934271c7694599a2a39eca63",
    "deform-obstruct nil_deform_blocked.json": "b0d68c3240083a0134437937992db099fcac207463d31c4b7c1833a37e940b8c",
    "deform-extend dual_deform.json --to 4": "4c8c8841c13abf1d87ae4623af0bb64f3613f5ccd94fad7065fcbd1e98dab9ae",
    "deform-extend nil_deform_blocked.json": "6ff34262449f1f8417405d929f0ec24933cac6268a03fabc241e0345768de3ba",
    "deform-trivialize dual_deform.json": "d75483391e1d1451da00342d4e626b60b46cd301b9ff472d5edf0fe4fbb6d5e7",
    "deform-trivialize nil_deform_blocked.json --to 1": "9a868e86ff6ea689ed09ca1ff450f103212d0213de7f7730007649a87eb98d47",
    "deform-verify tp3_gauged_deform.json": "681b2c0ce5c0cee85838e11f2f6232856ee87cc8e975a7579b7e246dd4498142",
    "deform-obstruct tp3_gauged_deform.json": "0653ae816ceb0f8b93a7359adac26ae750b946a731f3f058356101844c850fe6",
    "deform-extend tp3_gauged_deform.json --to 6": "58fa0e8b82d916e839eb66f071d532cb30e8d2a66381814e438324dbfe446ca9",
    "deform-trivialize tp3_gauged_deform.json": "3d085e1cdf3d3b77fc2839a6b573c4a9e04337af65257e0765ec501cfbd188de",
    "deform-verify tp3_wide_deform.json": "681b2c0ce5c0cee85838e11f2f6232856ee87cc8e975a7579b7e246dd4498142",
    "deform-obstruct tp3_wide_deform.json": "d0d1afc89155f4b64f8a1baeae9f8b56d0fd66f32e0971b099245a50ea4f6dab",
    "deform-extend tp3_wide_deform.json --to 6": "817c90d165c3a5ee7b56ccf781d47242f802dd0e2ae90bbf8bf36c50ce4dc4ed",
    "deform-trivialize tp3_wide_deform.json": "d280f92f9ee64011fa2b705f52a6cf7365ee9a6ed4a134bd4368d039648435a9",
    "free-tensor tensor_line.json": "1f320f3c950bb221f929d936ee9b6d304157ee0161fa1106d5de2377b979ec5a",
    "free-tensor tensor_line.json --degree 3": "c9ba4b0003b6f0f695c6ac6490415b69bcf6102d6395bda2af3a260f8d7fd56e",
    "cohomology m2_e12_rank2.json --degree 3": "d8dd2d4633a817fb6851a965334f80c10d8af35aa1c5c38a317be3a172fdb08f",
}


def _argv(args):
    return [args[0], str(FIXTURES / args[1]), *args[2:]]


@pytest.mark.parametrize("args,expected", COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_exit_codes(args, expected, capsys):
    assert main(_argv(args)) == expected
    capsys.readouterr()


@pytest.mark.parametrize("args,expected", COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_json_reports_are_reproducible(args, expected, capsys):
    argv = [*_argv(args), "--json"]
    assert main(argv) == expected
    first = capsys.readouterr().out
    assert main(argv) == expected
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["command"] == args[0]
    assert report["ok"] == (expected == 0)
    assert report["timing_ms"] == 0
    assert set(report) == {"ok", "command", "results", "violations", "timing_ms"}


@pytest.mark.parametrize("args,expected", COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_json_reports_match_pinned_digests(args, expected, capsys):
    assert main([*_argv(args), "--json"]) == expected
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[" ".join(args)]


@pytest.mark.parametrize("args,expected", COMMANDS, ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_human_reports_match_pinned_digests(args, expected, monkeypatch, capsys):
    written = []

    def spy(doc, write):
        written.append((doc, report_text(doc)))
        write(written[-1][1])

    monkeypatch.setattr(cli, "write_report", spy)
    assert main(_argv(args)) == expected
    # every command here writes its results, once, through the writer
    assert len(written) == 1
    doc, text = written[0]
    assert text == oracle_report_text(materialized(doc))
    lines = capsys.readouterr().out.splitlines(keepends=True)
    assert lines[-1].startswith("timing_ms: ")
    out = "".join(line for line in lines if not line.startswith("timing_ms:"))
    assert hashlib.sha256(out.encode()).hexdigest() == HUMAN_SHA256[" ".join(args)]


def test_degree_four_cohomology_of_m2_rank_two(capsys):
    # M2(Q) with the power-commutator sequence of E12 at rank 2: a 6144x1536
    # differential whose elimination dominates the run; the digest is of the
    # report made by the Fraction-row elimination this kernel replaced
    assert main(["cohomology", str(FIXTURES / "m2_e12_rank2.json"), "--degree", "4",
                 "--json"]) == 0
    out = capsys.readouterr().out
    results = json.loads(out)["results"]
    assert (results["betti"], results["dim_cocycles"], results["dim_coboundaries"]) == \
        (0, 307, 307)
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "b7aa3b486126438a8bba03da7c1ee66a41390540e65c2defb368b610704561e2"


# Q[x]/(x^4) with the ordinary hder of the Euler derivation at rank 2: the
# cochain dimensions of m2_e12_rank2.json, with a class in every degree
FRONTIER = FIXTURES / "tp4_euler_rank2.json"


def test_frontier_fixture_is_made_from_the_samples(capsys):
    # regenerate: write json.dumps(doc, indent=2, sort_keys=True) + "\n"
    alg = samples.truncated_polynomials(4)
    doc = {"algebra": algebra_to_json(alg),
           "hder": hder_to_json(ordinary_hder(alg, samples.euler_matrix(4), 2))}
    assert FRONTIER.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert main(["check", str(FRONTIER), "--json"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("degree,counts", [(2, (4, 19, 15)), (3, (3, 80, 77)), (4, (3, 307, 304)),
                                           (5, (3, 1232, 1229))])
def test_frontier_fixture_has_classes_in_every_degree(degree, counts):
    doc = json.loads(FRONTIER.read_text())
    alg = parse_algebra(doc["algebra"])
    hd = parse_hder(doc["hder"], alg.dim)
    mod = adjoint_bimodule(alg, hd)
    rep = cohomology(alg, mod, hd, degree)
    assert (rep.betti, rep.dim_cocycles, rep.dim_coboundaries) == counts


def test_frontier_fixture_degree_four_report(capsys):
    assert main(["cohomology", str(FRONTIER), "--degree", "4", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "d14a7642feb949997b9b05aef79706aac9803ae5923d7323de9c3d8922791dd7"


def test_free_tensor_is_polynomial_in_the_number_of_maps(capsys):
    # 40 maps theta_k = [[1]] on a line at degree 5: d_k(x^l) is x^l times
    # the number of ways to write k as an ordered sum of l nonnegative
    # parts, C(k+l-1, l-1).  Summing over compositions of k, as the induced
    # maps once were, takes tens of seconds here; the digest is of that
    # route's report.
    start = time.perf_counter()
    assert main(["free-tensor", str(FIXTURES / "tensor_forty_thetas.json"), "--json"]) == 0
    assert time.perf_counter() - start < 5
    out = capsys.readouterr().out
    maps = json.loads(out)["results"]["hder"]["maps"]
    assert len(maps) == 40
    assert maps[39][5][5] == "135751" == str(math.comb(40 + 5 - 1, 5 - 1))
    assert maps[0][3][3] == "3" == str(math.comb(1 + 3 - 1, 3 - 1))
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "899bbf2cfa33fee376cb00f17d41f5e9211dc3f582affe18ab9e313d229dd4bc"


@pytest.mark.parametrize("args", [["deform-verify"], ["deform-obstruct"], ["deform-extend", "--to", "4"],
                                  ["deform-trivialize"]], ids=" ".join)
def test_spelled_deformation_gives_the_same_report(args, capsys):
    # dual_deform_spelled.json holds the family of dual_deform.json written
    # as JSON ints, "2/4", "-0", "0/5" and the like
    reports = []
    for name in ("dual_deform.json", "dual_deform_spelled.json"):
        assert main([args[0], str(FIXTURES / name), *args[1:], "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("args", [["check"], ["cohomology", "--degree", "2", "--coefficients", "file"],
                                  ["extend-abelian"], ["cocycle-from-section"]], ids=" ".join)
def test_spelled_pair_sections_give_the_same_report(args, capsys):
    # dual_cocycle_spelled.json holds the algebra, hder, bimodule, cocycle
    # and section of dual_cocycle.json written as JSON ints, "2/4", "-0",
    # "0/5", "6/3" and the like: every section is read to the same values
    reports = []
    for name in ("dual_cocycle.json", "dual_cocycle_spelled.json"):
        assert main([args[0], str(FIXTURES / name), *args[1:], "--json"]) == 0
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("error", [RuntimeError("appended coefficient does not verify\nat (0, 1)"),
                                   KeyError("k"), ZeroDivisionError("division by zero"),
                                   ValueError("not a negative answer")],
                         ids=lambda exc: type(exc).__name__)
def test_an_internal_error_exits_3_with_one_line(error, monkeypatch, capsys):
    # an exception main does not name is a fault of hderlab, not an answer;
    # negative answers come only from the named exceptions (NegativeAnswer)
    def fail(*args):
        raise error

    monkeypatch.setattr(cli, "_pair_reports", fail)
    assert main(["check", str(FIXTURES / "dual_pair.json"), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"internal error: {type(error).__name__}: ")


def _one_internal_error(err: str, name: str) -> None:
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"internal error: {name}: "), err


@pytest.mark.parametrize("args,expected", [(["cohomology", "split_pair.json", "--degree", "2"], 0),
                                           (["deform-obstruct", "dual_deform_bad.json"], 1)],
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_a_writer_fault_mid_stream_exits_3_with_one_line(args, expected, monkeypatch, capsys):
    # the report of a positive and of a negative answer is written inside
    # main's handlers: a fault after a few pieces is a fault of hderlab
    assert main([*_argv(args), "--json"]) == expected
    capsys.readouterr()
    write_report = cli.write_report

    def failing(doc, write):
        written = []

        def limited(text):  # three pieces get out, then the write fails
            if len(written) == 3:
                raise RuntimeError("write failed mid-stream")
            written.append(text)
            write(text)

        write_report(doc, limited)

    monkeypatch.setattr(cli, "write_report", failing)
    assert main([*_argv(args), "--json"]) == 3
    captured = capsys.readouterr()
    assert captured.out.startswith('{\n  "command": ')
    _one_internal_error(captured.err, "RuntimeError")


def test_a_closed_stdout_pipe_exits_3_with_one_line():
    # the reader takes 10 bytes of a 478 kB report and closes the pipe: the
    # next write fails, and what is left buffered goes to os.devnull at exit
    argv = [sys.executable, "-m", "hderlab.cli", "cohomology", str(FIXTURES / "m2_e12_rank2.json"),
            "--degree", "3", "--json"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'{\n  "comma'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 3
    _one_internal_error(err, "BrokenPipeError")


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
def test_a_full_stdout_exits_3_with_one_line():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "hderlab.cli", "check", str(FIXTURES / "dual_pair.json"),
                               "--json"], stdout=full, stderr=subprocess.PIPE, timeout=60)
    assert proc.returncode == 3
    _one_internal_error(proc.stderr.decode(), "OSError")


@pytest.mark.parametrize("args", [
    ["cohomology", "dual_pair.json", "--degree", "1"],
    ["cohomology", "dual_pair.json", "--degree", "2"],
    ["cohomology", "dual_pair.json", "--degree", "3"],
    ["classify-central", "dual_pair.json"],
    ["extend-abelian", "dual_cocycle.json"],
    ["cocycle-from-section", "dual_cocycle.json"],
], ids=" ".join)
def test_unverified_hder_exits_2(args, tmp_path, capsys):
    # d_1(1) = 1 breaks the higher-derivation identity, so `check` exits 1
    doc = json.loads((FIXTURES / args[1]).read_text())
    doc["hder"]["maps"][0][0][0] = "1"
    path = tmp_path / args[1]
    path.write_text(json.dumps(doc))
    assert main(["check", str(path)]) == 1
    capsys.readouterr()
    assert main([args[0], str(path), *args[2:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert "hder section does not verify: higher derivation identity fails" in captured.err


def test_classify_central_with_nonzero_actions_exits_2(capsys):
    # the adjoint-style bimodule of dual_pair.json acts nontrivially
    assert main(["classify-central", str(FIXTURES / "dual_pair.json"), "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error: ")
    assert "zero actions" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cohomology_degree_below_one_exits_2(degree, capsys):
    args = ["cohomology", str(FIXTURES / "dual_pair.json"), "--degree", degree, "--json"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: cohomology needs --degree >= 1, got {degree}\n"


@pytest.mark.parametrize("to", ["-1", "-3"])
def test_deform_trivialize_negative_order_exits_2(to, capsys):
    args = ["deform-trivialize", str(FIXTURES / "dual_deform.json"), "--to", to, "--json"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: deform-trivialize needs --to >= 0, got {to}\n"


def _outcome(parse, argv):
    """The namespace or exit code of ``parse(argv)``, with its stdout and
    stderr, captured here rather than by pytest, whose capture hypothesis
    examples would share."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["nope", "f.json"], ["--json"],
    ["check"], ["check", "-h"], ["check", "f.json", "--he"], ["check", "f.json", "--bogus"],
    ["cohomology", "f.json"], ["cohomology", "f.json", "--degree", "x"],
    ["cohomology", "f.json", "--deg", "2", "--coefficients", "file", "--json"],
    ["cohomology", "f.json", "--degree", "2", "--coefficients", "left"],
    ["extend-abelian", "f.json", "--cocycle", "z"], ["deform-extend", "f.json", "--to", "3"],
    ["deform-trivialize", "f.json"], ["free-tensor", "f.json", "--degree"],
    ["check", "a.json", "b.json"],
], ids=lambda argv: " ".join(argv) or "(none)")
def test_lean_parse_matches_full_parser(argv):
    # the table matcher must give the same namespace, usage, help, error
    # text and exit code as the parser of all subcommands
    assert _outcome(cli._parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)


def _flag_tokens():
    """Every flag of every subcommand and each of its prefixes past "--",
    with ``--flag=value`` forms that take a good, a bad, a negative and an
    empty value."""
    flags = {"--json", "--help"} | {flag for _h, _t, arguments in cli.SUBCOMMANDS.values()
                                    for flag, _kwargs in arguments}
    tokens = {flag[:n] for flag in flags for n in range(3, len(flag) + 1)}
    tokens |= {f"{flag}={value}" for flag in flags for value in ("2", "-1", "file", "left", "")}
    return sorted(tokens)


ARGV_TOKENS = sorted(cli.SUBCOMMANDS) + ["nope", "f.json", "a.json", "-", "-h", "--", "-x",
                                         "-1", "-3", "0", "2", "x", "adjoint", "trivial",
                                         "file", "left", "z", "", " 3", "+3", "1_0", "3.0",
                                         "-0", "\u0663"] + _flag_tokens()


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.sampled_from(sorted(cli.SUBCOMMANDS)), st.sampled_from(ARGV_TOKENS)),
       st.lists(st.sampled_from(ARGV_TOKENS), max_size=6))
def test_lean_parse_matches_full_parser_on_drawn_argv(head, tail):
    # subcommand names, files, every flag and its prefixes, --flag=value,
    # negative ints, bad choices, help at any position, "--", repeated flags,
    # extra positionals, and values at the edges of int() (empty, a space, a
    # sign, an underscore, a decimal point, a non-ASCII digit): the table
    # matcher must agree with the full parser or hand the argv to it
    argv = [head, *tail]
    assert _outcome(cli._parse_args, argv) == _outcome(cli.build_parser().parse_args, argv)


def test_plain_argv_does_not_import_argparse():
    # in a fresh interpreter, a plain argv is parsed without importing argparse
    script = ("import sys; from hderlab import cli; "
              f"code = cli.main(['check', {str(FIXTURES / 'dual_pair.json')!r}, '--json']); "
              "sys.stdout.write(repr(code) + ' ' + repr('argparse' in sys.modules))")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, check=True).stdout
    assert out.decode().rsplit("\n", 1)[-1] == "0 False"


def test_main_reads_sys_argv_by_default(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["hderlab", "check", str(FIXTURES / "dual_pair.json"),
                                      "--json"])
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "check"


def test_subprocess_runs_are_byte_identical():
    argv = [sys.executable, "-m", "hderlab.cli", "cohomology",
            str(FIXTURES / "split_pair.json"), "--degree", "2", "--json"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algebra": {"dim": 1, "table": [[["x"]]]}}')
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "algebra.table[0][0][0]" in err


def test_float_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"algebra": {"dim": 1, "table": [[[0.5]]]}}')
    assert main(["check", str(bad)]) == 2
    assert "float" in capsys.readouterr().err
    # a rational is a JSON int or a string -?digits(/digits)?, nothing else
    for entry in ("true", '"1e5000000"', '"0.5"', '"+3"', '" 3"', '"1/0"'):
        bad.write_text('{"algebra": {"dim": 1, "table": [[[%s]]]}}' % entry)
        start = time.perf_counter()
        assert main(["check", str(bad)]) == 2, entry
        assert time.perf_counter() - start < 1, entry
        assert ("algebra.table[0][0][0]: not an exact rational: "
                f"{json.loads(entry)!r}") in capsys.readouterr().err
    # a JSON integer past the int digit limit fails in json.load itself
    bad.write_text('{"algebra": {"dim": 1, "table": [[[%s]]]}}' % ("9" * 5000))
    assert main(["check", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()
    # nesting past the interpreter's recursion limit fails inside json.load
    bad.write_text('{"algebra": ' + "[" * 100000 + "]" * 100000 + "}")
    assert main(["check", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err


def test_missing_file_exits_2(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 2
    capsys.readouterr()


def test_missing_section_exits_2(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text('{"algebra": {"dim": 1, "table": [[["0"]]]}}')
    assert main(["deform-verify", str(doc)]) == 2
    capsys.readouterr()


def test_dimension_cap(monkeypatch, capsys):
    monkeypatch.setenv("HDERLAB_MAX_DIM", "1")
    assert main(["check", str(FIXTURES / "dual_pair.json")]) == 2
    assert "HDERLAB_MAX_DIM" in capsys.readouterr().err
    monkeypatch.setenv("HDERLAB_MAX_DIM", "12")
    assert main(["check", str(FIXTURES / "dual_pair.json")]) == 0
    capsys.readouterr()


def test_cap_guards_constructed_tensor_algebra(monkeypatch, tmp_path, capsys):
    doc = tmp_path / "tensor.json"
    doc.write_text(json.dumps({
        "algebra": {"dim": 1, "table": [[["0"]]]},
        "hder": {"rank": 1, "maps": [[["0"]]]},
        "tensor": {"vdim": 2, "degree": 2,
                   "thetas": [[["1", "0"], ["0", "1"]]]},
    }))
    # 1 + 2 + 4 = 7 basis words exceeds the default cap of 6
    assert main(["free-tensor", str(doc)]) == 2
    err = capsys.readouterr().err
    assert err == ("input error: tensor_algebra_dim = 7 exceeds HDERLAB_MAX_DIM = 6; "
                   "raise the environment variable to proceed\n")

    def refuse(*args):
        raise AssertionError("tensor algebra built before the cap check")

    # the rejection comes before anything is built, under any name
    with monkeypatch.context() as m:
        m.setattr(freecons, "build_tensor_algebra", refuse)
        m.setattr(cli, "build_tensor_algebra", refuse, raising=False)
        assert main(["free-tensor", str(doc)]) == 2
        assert capsys.readouterr().err == err
    monkeypatch.setenv("HDERLAB_MAX_DIM", "7")
    assert main(["free-tensor", str(doc)]) == 0
    capsys.readouterr()


def test_check_reports_violation_with_exit_1(tmp_path, capsys):
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps({
        "algebra": {"dim": 2, "unit": 0,
                    "table": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]]},
        "hder": {"rank": 1, "maps": [[["1", "0"], ["0", "1"]]]},
    }))
    assert main([*("check", str(doc))]) == 1
    out = capsys.readouterr().out
    assert "violation" in out


def test_check_records_algebra_and_hder_violations_from_one_table(capsys):
    # x u = u breaks associativity and d_1(u) = x breaks the higher
    # derivation law; both reports come from one table, and check records
    # both violations, in the bytes it wrote before the table was shared
    assert main(["check", str(FIXTURES / "nonassoc_bad_hder.json"), "--json"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["violations"] == [
        "algebra: associativity fails at (1, 0, 1): lhs=(0, 1) rhs=(0, 0)",
        "hder: higher derivation identity fails at (1, 0, 0): lhs=(0, 1) rhs=(1, 1)"]
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "922bf2b976eb04d48b068df241b36685d960edac89030c287a1fdac4d11627ac"


def test_human_output_has_summary_lines(capsys):
    assert main(["cohomology", str(FIXTURES / "split_pair.json"), "--degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "command: cohomology" in out
    assert "ok: yes" in out
    assert '"betti": 0' in out


def test_fixture_parse_normalize_roundtrip():
    # parse -> serialize -> parse is a fixed point
    from hderlab.serialize import (
        algebra_to_json, hder_to_json, parse_algebra, parse_hder,
    )
    doc = json.loads((FIXTURES / "dual_pair.json").read_text())
    alg = parse_algebra(doc["algebra"])
    hd = parse_hder(doc["hder"], alg.dim)
    again = parse_algebra(algebra_to_json(alg))
    assert again == alg
    assert parse_hder(hder_to_json(hd), 2) == hd


def test_section_mismatch_exits_1(tmp_path, capsys):
    doc = json.loads((FIXTURES / "dual_cocycle.json").read_text())
    doc["section"] = [["1", "0"], ["0", "1"], ["0", "0"], ["0", "1"]]
    # p o s = id still holds only if the top block is the identity; break it
    doc["section"][0] = ["0", "0"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main(["cocycle-from-section", str(path)]) == 1
    capsys.readouterr()


def test_unverified_deformation_exits_1_on_obstruction_commands(capsys):
    for cmd in ("deform-obstruct", "deform-extend", "deform-trivialize"):
        code = main([cmd, str(FIXTURES / "dual_deform_bad.json")])
        assert code == 1, cmd
        out = capsys.readouterr().out
        assert "does not verify" in out


@pytest.mark.parametrize("cmd", ["deform-verify", "deform-obstruct", "deform-extend", "deform-trivialize"])
def test_deformation_off_its_pair_exits_1(cmd, tmp_path, capsys):
    # an order-0 product that is not the algebra's is a negative answer
    # (NotVerifiedError), reported like a failed check
    doc = json.loads((FIXTURES / "dual_deform.json").read_text())
    doc["deformation"]["mu"][0][1][1] = ["0", "1"]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([cmd, str(path), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["violations"] == ["order-0 product coefficient is not the algebra multiplication"]
