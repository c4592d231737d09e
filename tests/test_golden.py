"""Golden digests: the answers of every system and the report grid of every
metric on the synthetic workspace, pinned as SHA-256 of the files the CLI
writes, and of what ``report`` prints to stderr.

A change that alters any answer byte fails here; one that means to must
update the digest and say why.
"""

from __future__ import annotations

import hashlib

import pytest

from xmlir.cli import main

import support

RUN_DIGESTS = {
    ("fulltext", False): "0bb5b519af506e965414b596c83ea00bf3156e426713910b895ee3af65da4176",
    ("xmldb", False): "40515dc6fbec8bc8e9e9a68ef4ddcaabb5e7385f8d914ee3c3364d1ed9975133",
    ("xmldb", True): "99c83072e60cdc79938350db7ecf629b863049ea334fec1d2dd2ccbbcb938f12",
    ("hybrid", False): "2b4c208b6a204b884269c47533c1a9944877158c19ec9033969ca214e261c42c",
    ("hybrid", True): "8b53ae96ccc20b3f4acc7d1e100afddeb9a406f0e027f86d9f56f3aa6351b9fd",
}
# the article-ranking systems at the slope's ends; hybrid's answers at 1.0
# happen to equal those at the default 0.55
SLOPE_DIGESTS = {
    ("fulltext", "0.0"): "324da850c48affa5ac8c8e147d51be514c3d9397866369f4dbc7abbf36547d7f",
    ("fulltext", "1.0"): "8cfe2b4ad016ef4067f6975b7fe856ff93622be05e51010299f5af1b08845e0d",
    ("hybrid", "0.0"): "e4713532c4e225f8bcc11ca485da956ed8ac41086ef874b980c7f965f4a6a46e",
    ("hybrid", "1.0"): "2b4c208b6a204b884269c47533c1a9944877158c19ec9033969ca214e261c42c",
}
GRID_DIGEST = "0f1fc6b4e8e3f88324fd93c5087dc1f709af82a3d09e5c95731736ed791a098b"
OTHER_GRID_DIGESTS = {
    "inex-eval": "d955aead14a0d34251ec3edb269a09035d54129121360d3d59beb64c25674861",
    "ng-s": "6250d307be471d3582cdd2ab1f7d3e94d0abd5b4878eead27f3dca68da5d208e",
}
# every metric's report prints the same ten "topic N: ...; skipped" lines, since
# every answer of the workspace resolves and no "sizes:" line is printed
REPORT_STDERR_DIGEST = "9dcb3ac0c7a8fcc212d90406951fbe5fd707aed48c351adb1820eefc164071c7"


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    support.build_synthetic_workspace(root)
    return root


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_digest(workspace, out, system, *options) -> str:
    argv = ["run", "--system", system, "--corpus", str(workspace / "corpus"),
            "--topics", str(workspace / "topics.xml"), "--out", str(out)]
    assert main(argv + list(options)) == 0
    return _sha256(out)


@pytest.mark.parametrize(("system", "cre"), list(RUN_DIGESTS), ids=lambda v: str(v))
def test_run_file_digest(workspace, tmp_path, system, cre):
    assert _run_digest(workspace, tmp_path / "out.run", system, *["--cre"] * cre) == RUN_DIGESTS[system, cre]


@pytest.mark.parametrize(("system", "slope"), list(SLOPE_DIGESTS), ids=lambda v: str(v))
def test_run_file_digest_at_other_slopes(workspace, tmp_path, system, slope):
    assert _run_digest(workspace, tmp_path / "out.run", system, "--slope", slope) == SLOPE_DIGESTS[system, slope]


def _grid_digest(workspace, out, capsys, metric) -> str:
    argv = ["report", "--corpus", str(workspace / "corpus"), "--topics", str(workspace / "topics.xml"),
            "--assessments", str(workspace / "assessments"), "--metric", metric, "--out", str(out)]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().err.encode()).hexdigest() == REPORT_STDERR_DIGEST
    return _sha256(out)


def test_report_grid_digest(workspace, tmp_path, capsys):
    assert _grid_digest(workspace, tmp_path / "grid.tsv", capsys, "ng-o") == GRID_DIGEST


@pytest.mark.parametrize("metric", list(OTHER_GRID_DIGESTS))
def test_strict_and_ng_s_grid_digests(workspace, tmp_path, capsys, metric):
    assert _grid_digest(workspace, tmp_path / "grid.tsv", capsys, metric) == OTHER_GRID_DIGESTS[metric]
