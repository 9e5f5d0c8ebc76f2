import argparse
import contextlib
import dataclasses
import io
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwb import catalog, cli
from mwb import constructions as cons
from mwb.cli import MAX_SEEDS, _parse_seeds, main
from mwb.core import FACE_CAP
from mwb.errors import WorkbenchError
from mwb.flips import random_walk
from mwb.tri_io import (load, parse, parse_coords, parse_trace, save, write,
                        write_trace)


@pytest.fixture()
def rp3_path(tmp_path, complexes):
    path = tmp_path / "rp3.tri"
    save(path, complexes["RP3-11"])
    return str(path)


def test_info(capsys, rp3_path):
    assert main(["info", "--in", rp3_path]) == 0
    out = capsys.readouterr().out
    assert "f=(11, 51, 80, 40)" in out and "pseudomanifold=yes" in out


def test_catalog_names_resolve(capsys):
    assert main(["fvector", "--in", "L31-12"]) == 0
    assert "(12, 66, 108, 54)" in capsys.readouterr().out


def test_fvector_kv_format(capsys, rp3_path):
    assert main(["fvector", "--in", rp3_path, "--format", "kv"]) == 0
    assert capsys.readouterr().out.strip() == \
        "f0=11 f1=51 f2=80 f3=40 chi=0"


def test_homology_and_mod(capsys, rp3_path):
    assert main(["homology", "--in", rp3_path]) == 0
    assert "(Z, Z_2, 0, Z)" in capsys.readouterr().out
    assert main(["homology", "--in", rp3_path, "--mod", "2"]) == 0
    assert "(1, 1, 1, 1)" in capsys.readouterr().out


@pytest.mark.parametrize("mod", ["4", "1", "-2"])
def test_homology_bad_modulus_exits_2(capsys, rp3_path, mod):
    _assert_one_line_input_error(
        capsys, ["homology", "--in", rp3_path, "--mod", mod])


def test_verify_pseudomanifold(capsys, rp3_path):
    assert main(["verify", "pseudomanifold", "--in", rp3_path]) == 0


def test_verify_manifold(capsys, tmp_path):
    assert main(["construct", "boundary", "--dim", "2",
                 "--out", str(tmp_path / "s2.tri")]) == 0
    assert main(["verify", "manifold", "--in", str(tmp_path / "s2.tri")]) == 0


def test_construct_reduce_replay_round_trip(capsys, tmp_path):
    bundle = str(tmp_path / "tb3.tri")
    best = str(tmp_path / "best.tri")
    trace = str(tmp_path / "moves.trace")
    assert main(["construct", "bundle", "--dim", "3", "--out", bundle]) == 0
    rc = main(["reduce", "--in", bundle, "--seed", "1", "--budget", "100000",
               "--target-f", "9,36,54,27", "--out", best, "--trace", trace])
    assert rc == 0
    from mwb.core import f_vector
    assert f_vector(load(best)).counts == (9, 36, 54, 27)
    assert main(["replay", "--in", bundle, "--trace", trace]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "stop = target" in out and "f = (9, 36, 54, 27)" in out[-1]


def test_reduce_prints_a_stuck_stop(capsys, tmp_path):
    # the 6-dimensional bundle has no improving and no heating move
    bundle = str(tmp_path / "tb6.tri")
    assert main(["construct", "bundle", "--dim", "6", "--out", bundle]) == 0
    capsys.readouterr()
    assert main(["reduce", "--in", bundle]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "best f = (21, 147, 441, 735, 735, 441, 126) after 0 moves "
        "(best at step 0)", "stop = stuck"]


def test_reduce_multi_seed(tmp_path, capsys):
    bundle = str(tmp_path / "tb3.tri")
    main(["construct", "bundle", "--dim", "3", "--out", bundle])
    rc = main(["reduce", "--in", bundle, "--seeds", "1-3", "--budget", "50000",
               "--target-f", "9,36,54,27"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "winning seed" in out and "(9, 36, 54, 27)" in out


def test_reduce_unreached_target_exits_3(tmp_path, capsys):
    bundle = str(tmp_path / "tb3.tri")
    main(["construct", "bundle", "--dim", "3", "--out", bundle])
    rc = main(["reduce", "--in", bundle, "--seed", "1", "--budget", "5",
               "--target-f0", "9"])
    assert rc == 3


def test_reduce_unreached_target_f0_of_zero_exits_3(capsys):
    # a target of 0 vertices is a target, not its absence
    rc = main(["reduce", "--in", "RP3-11", "--seed", "1", "--budget", "5",
               "--target-f0", "0"])
    assert rc == 3


def test_iso_exit_codes(tmp_path, capsys, complexes):
    a = str(tmp_path / "a.tri")
    b = str(tmp_path / "b.tri")
    save(a, complexes["S3xS2-a-12"])
    save(b, complexes["S3xS3-a-13"])
    assert main(["iso", "--in", a, "--in2", a]) == 0
    assert main(["iso", "--in", a, "--in2", b]) == 1


def test_iso_of_one_dimensional_complexes(tmp_path, capsys):
    # no vertex links are taken, so 1-complexes need no 0-dimensional link
    paths = {}
    for name, text in (("triangle", "1 3\n1 2\n2 3\n1 3\n"),
                       ("relabeled", "1 3\n2 3\n3 1\n1 2\n"),
                       ("two", "1 6\n1 2\n2 3\n1 3\n4 5\n5 6\n4 6\n"),
                       ("hexagon", "1 6\n1 2\n2 3\n3 4\n4 5\n5 6\n1 6\n")):
        paths[name] = str(tmp_path / f"{name}.tri")
        with open(paths[name], "w") as f:
            f.write(text)
    assert main(["iso", "--in", paths["triangle"],
                 "--in2", paths["relabeled"]]) == 0
    assert capsys.readouterr().out == "isomorphic\n"
    assert main(["iso", "--in", paths["two"], "--in2", paths["hexagon"]]) == 1
    assert capsys.readouterr().out == "not isomorphic\n"


def test_auto_and_det(capsys, rp3_path):
    assert main(["auto", "--in", rp3_path]) == 0
    assert "order 48" in capsys.readouterr().out
    assert main(["det", "--in", rp3_path, "--links"]) == 0
    assert capsys.readouterr().out.split() == \
        ["41616"] * 6 + ["12096"] * 4 + ["0"]


def test_bounds_with_hints(capsys, rp3_path):
    rc = main(["bounds", "--in", rp3_path, "--hint", "manifold=RP3",
               "--hint", "not-simply-connected", "--hint", "not-sphere"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "walkup-gamma: ok slack=0 sharp" in out
    rc = main(["bounds", "--in", rp3_path, "--format", "kv"])
    assert rc == 0
    assert "bound=lbt-k1 applicable=True satisfied=True" in capsys.readouterr().out


def test_bounds_manifold_hint_ignores_case(capsys, tmp_path):
    sphere = str(tmp_path / "s3.tri")
    assert main(["construct", "boundary", "--dim", "3", "--out", sphere]) == 0
    capsys.readouterr()
    outs = []
    for name in ("S3", "s3"):
        assert main(["bounds", "--in", sphere, "--hint", f"manifold={name}"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "walkup-gamma: ok slack=0 sharp (gamma(S3)=-10)" in outs[0]


def test_walkup_gamma_skips_projective_hints_of_another_dimension(capsys, rp3_path):
    for hint in ("RP^4", "CP^2"):
        rc = main(["bounds", "--in", rp3_path, "--hint", f"manifold={hint}"])
        assert rc == 0
        out = capsys.readouterr().out
        assert f"walkup-gamma: not applicable ({hint} is not 3-dimensional)" in out
    assert main(["bounds", "--in", rp3_path, "--hint", "manifold=RP^3"]) == 0
    assert "walkup-gamma: ok slack=0 sharp (gamma(RP3)=7)" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["Z", "Z2"])
def test_bounds_homology_sphere_hint_values(capsys, value):
    assert main(["bounds", "--in", "L31-12",
                 "--hint", f"homology_sphere={value}"]) == 0
    row = "bagchi-datta: ok" if value == "Z2" else "bagchi-datta: not applicable"
    assert row in capsys.readouterr().out


def _bounds_of_non_pseudomanifold(capsys, path, text):
    # a complex that is not a pseudomanifold gets the lbt row alone
    path.write_text(text)
    assert main(["bounds", "--in", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.splitlines()[1:] == \
        ["  lbt: not applicable (not a pseudomanifold)"]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_bounds_on_a_single_simplex(capsys, tmp_path, d):
    # the parser accepts one facet on d+1 vertices
    _bounds_of_non_pseudomanifold(
        capsys, tmp_path / "simplex.tri",
        f"{d} {d + 1}\n{' '.join(map(str, range(1, d + 2)))}\n")


def test_bounds_on_a_2_complex_that_is_not_a_pseudomanifold(capsys, tmp_path):
    # two triangles on an edge: no orientability test, no traceback
    _bounds_of_non_pseudomanifold(capsys, tmp_path / "two.tri",
                                  "2 4\n1 2 3\n1 2 4\n")


def test_census_command(capsys):
    assert main(["census", "surfaces", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "n=6 chi=2 orient=+ genus=0 count=2" in out
    assert main(["census", "spheres", "--n", "6"]) == 0
    assert "count=2" in capsys.readouterr().out


def test_census_cap_exit_code(capsys):
    assert main(["census", "surfaces", "--n", "11"]) == 3


@pytest.mark.parametrize("what", ["surfaces", "spheres"])
def test_census_cap_override_warns(capsys, what):
    assert main(["census", what, "--n", "6", "--cap", "500"]) == 0
    out, err = capsys.readouterr()
    assert err == "warning: cap overridden to 500\n"
    assert "n=6 chi=2 orient=+ genus=0 count=2" in out
    assert main(["census", what, "--n", "6"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("what", ["surfaces", "spheres"])
def test_census_too_few_vertices_exits_2(capsys, what):
    assert main(["census", what, "--n", "3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: n must be >= 4, got 3\n"


def test_verify_manifold_rejects_zero_budget(capsys, rp3_path):
    assert main(["verify", "manifold", "--in", rp3_path, "--budget", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: flip budget must be positive\n"


def test_verify_manifold_default_budget(capsys, rp3_path):
    assert main(["verify", "manifold", "--in", rp3_path]) == 0
    assert capsys.readouterr().out == "yes\n"


def test_realize_command(capsys, tmp_path, entries):
    e = entries["csaszar-torus"]
    tri = str(tmp_path / "t.tri")
    save(tri, e.load())
    coords = str(tmp_path / "t.coords")
    with open(coords, "w") as fh:
        for v, p in sorted(e.load_coordinates().items()):
            fh.write(f"{v} {p[0]} {p[1]} {p[2]}\n")
    assert main(["realize", "--in", tri, "--coords", coords]) == 0
    bad = str(tmp_path / "bad.coords")
    with open(bad, "w") as fh:
        for v in range(1, 8):
            fh.write(f"{v} 0 0 0\n")
    assert main(["realize", "--in", tri, "--coords", bad]) == 1


def test_missing_file_exits_2(capsys):
    assert main(["info", "--in", "no-such-file.tri"]) == 2


def _assert_one_line_input_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


_MALFORMED_OPTIONS = {
    "seeds-not-a-number": ["reduce", "--in", "RP3-11", "--seeds", "x"],
    "seeds-empty-range": ["reduce", "--in", "RP3-11", "--seeds", "3-1"],
    "seeds-empty": ["reduce", "--in", "RP3-11", "--seeds", ""],
    "seed-with-seeds": ["reduce", "--in", "RP3-11", "--seed", "3",
                        "--seeds", "1-2"],
    "reduce-zero-threads": ["reduce", "--in", "RP3-11", "--seeds", "1-2",
                            "--budget", "10", "--threads", "0"],
    "reduce-zero-threads-one-seed": ["reduce", "--in", "RP3-11", "--seed", "1",
                                     "--budget", "10", "--threads", "0"],
    "target-f-not-a-number": ["reduce", "--in", "RP3-11", "--target-f", "1,x"],
    "target-f-wrong-length": ["reduce", "--in", "RP3-11",
                              "--target-f", "11,51,80"],
    "facet-not-a-number": ["construct", "stack", "--in", "RP3-11",
                           "--facet", "1,x"],
    "boundary-dim-0": ["construct", "boundary", "--dim", "0"],
    "bundle-dim-1": ["construct", "bundle", "--dim", "1"],
    "orientable-bundle-dim-1": ["construct", "bundle", "--orientable",
                                "--dim", "1"],
    "sum-facet2-not-a-facet": ["construct", "sum", "--in", "csaszar-torus",
                               "--in2", "csaszar-torus", "--facet2", "1,2,5"],
    "info-without-in": ["info"],
    "hint-connectivity": ["bounds", "--in", "RP3-11",
                          "--hint", "connectivity=x"],
    "hint-rp": ["bounds", "--in", "RP3-11", "--hint", "manifold=RP^x"],
    "hint-cp": ["bounds", "--in", "RP3-11", "--hint", "manifold=CP^"],
    "hint-manifold-empty": ["bounds", "--in", "RP3-11", "--hint", "manifold="],
    "hint-manifold-blank": ["bounds", "--in", "RP3-11", "--hint", "manifold= "],
    "hint-boolean": ["bounds", "--in", "RP3-11", "--hint", "is_sphere=maybe"],
    "census-zero-threads": ["census", "surfaces", "--n", "6", "--threads", "0"],
    "hint-homology-sphere": ["bounds", "--in", "RP3-11",
                             "--hint", "homology_sphere=banana"],
    "hint-is-homology-sphere": ["bounds", "--in", "RP3-11",
                                "--hint", "is_homology_sphere=z3"],
    "seed-arabic-indic-digit": ["reduce", "--in", "RP3-11",
                                "--seed", "\u0663"],
    "seed-underscore": ["reduce", "--in", "RP3-11", "--seed", "1_0"],
    "seed-too-long-for-int": ["reduce", "--in", "RP3-11", "--seed", "9" * 5000],
    "reduce-budget-not-a-number": ["reduce", "--in", "RP3-11",
                                   "--budget", "abc"],
    "reduce-threads-not-a-number": ["reduce", "--in", "RP3-11", "--seeds",
                                    "1-2", "--threads", "two"],
    "target-f0-not-a-number": ["reduce", "--in", "RP3-11",
                               "--target-f0", "1e1"],
    "dim-not-a-number": ["construct", "boundary", "--dim", "3.0"],
    "census-n-not-a-number": ["census", "surfaces", "--n", "six"],
    "census-cap-not-a-number": ["census", "spheres", "--n", "6",
                                "--cap", "1_000"],
    "census-threads-not-a-number": ["census", "surfaces", "--n", "6",
                                    "--threads", "\u0662"],
    "mod-not-a-number": ["homology", "--in", "RP3-11", "--mod", "0x2"],
    # usage errors that argparse finds
    "census-without-n": ["census", "surfaces"],
    "census-unknown-option": ["census", "surfaces", "--n", "9", "--bogus"],
    "census-invalid-choice": ["census", "tori", "--n", "9"],
    "census-n-without-value": ["census", "surfaces", "--n"],
    "no-subcommand": [],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_OPTIONS))
def test_malformed_option_exits_2(capsys, case):
    _assert_one_line_input_error(capsys, _MALFORMED_OPTIONS[case])


def test_each_command_and_integer_option_is_declared_once():
    # each subparser binds its handler, and each integer option reads its
    # value as it is parsed, so no registry beside the parser can miss one
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, sp in sub.choices.items():
        assert callable(sp.get_default("run")), name
        for a in sp._actions:
            if type(a.default) is int or a.dest in ("target_f0", "n", "cap"):
                assert isinstance(a, cli._Decimal), (name, a.dest)


@pytest.mark.parametrize("argv", [["--help"], ["census", "--help"]])
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: mw")


@pytest.mark.parametrize("unbuffered", [True, False])
def test_a_closed_pipe_ends_mw_quietly(unbuffered):
    # unbuffered, the handler's print fails; buffered, the flush at the end
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = src
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "mwb.cli", "auto", "--in", "RP3-11"],
            stdout=write_end, stderr=subprocess.PIPE, timeout=60, env=env)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


def test_seed_count_is_capped():
    assert len(_parse_seeds(f"1-{MAX_SEEDS}")) == MAX_SEEDS
    half = MAX_SEEDS // 2
    with pytest.raises(WorkbenchError, match=f"more than {MAX_SEEDS} seeds"):
        _parse_seeds(f"1-{half},{half + 1}-{MAX_SEEDS + 1}")


def test_huge_seed_range_exits_2_without_expanding():
    # 10**9 seeds would take about 40 GB as a list; the child process gets
    # 512 MiB of address space, so expanding the range fails with a traceback
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    src = os.path.dirname(os.path.dirname(catalog.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "mwb.cli", "reduce", "--in", "RP3-11",
         "--seeds", "1-1000000000"],
        capture_output=True, text=True, timeout=120, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 2
    assert proc.stderr == f"error: more than {MAX_SEEDS} seeds\n"


@pytest.mark.parametrize("via", ["construct", "tri"])
def test_a_complex_above_the_face_cap_exits_3_before_listing_faces(
        tmp_path, via):
    # the boundary of the 31-simplex has 2^32 - 2 faces; listing them would
    # not end, so the child process gets 512 MiB and 60 s
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    tri = tmp_path / "b30.tri"
    tri.write_text("30 32\n" + "".join(
        " ".join(str(v) for v in range(1, 33) if v != skip) + "\n"
        for skip in range(1, 33)))
    argv = {"construct": ["construct", "boundary", "--dim", "30"],
            "tri": ["info", "--in", str(tri)]}[via]
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "mwb.cli", *argv], capture_output=True,
        text=True, timeout=60, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3
    assert proc.stderr == (
        f"error: 32 facets of dimension 30 span up to 68,719,476,704 faces, "
        f"above the face cap {FACE_CAP:,}\n")


@pytest.mark.parametrize("via", ["construct", "tri"])
def test_a_face_bound_too_long_to_print_still_exits_3_in_one_line(
        tmp_path, via):
    # 2^20001 has 6,021 digits, more than Python prints from an int; listing
    # the 100,002 facets of the boundary of the 100,001-simplex would take
    # about 40 GB, so the child process gets 512 MiB and 60 s
    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2**29, 2**29))

    tri = tmp_path / "d20000.tri"
    tri.write_text("20000 20001\n" + " ".join(map(str, range(1, 20002))) + "\n")
    argv, facets, dim = {
        "construct": (["construct", "boundary", "--dim", "100000"], 100002, 100000),
        "tri": (["info", "--in", str(tri)], 1, 20000)}[via]
    src = os.path.dirname(os.path.dirname(catalog.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "mwb.cli", *argv], capture_output=True,
        text=True, timeout=60, preexec_fn=cap_memory,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 3
    assert proc.stderr == (
        f"error: {facets} facets of dimension {dim} span up to "
        f"{facets} * (2^{dim + 1} - 1) faces, above the face cap {FACE_CAP:,}\n")


def test_a_complex_under_the_face_cap_is_built(capsys):
    assert main(["construct", "boundary", "--dim", "12"]) == 0
    assert "f=(14, 91, 364, 1001, 2002, 3003, 3432, 3003," in (
        capsys.readouterr().out)


@pytest.mark.parametrize("kind", ["tri", "coords", "trace"])
def test_non_ascii_input_file_exits_2(capsys, tmp_path, kind):
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(b"# caf\xc3\xa9 \xff\n1 2 3\n")
    argv = {"tri": ["info", "--in", str(bad)],
            "coords": ["realize", "--in", "csaszar-torus", "--coords", str(bad)],
            "trace": ["replay", "--in", "csaszar-torus", "--trace", str(bad)]}
    _assert_one_line_input_error(capsys, argv[kind])


@pytest.mark.parametrize("text", ["2 4\n1 2 3\n1 2 4\n1 3 4\n2 3 \u00b3\n",
                                  "2 \u00b3\n1 2 3\n"])
def test_unicode_digit_exits_2(capsys, tmp_path, text):
    bad = tmp_path / "digit.tri"
    bad.write_text(text, encoding="utf-8")
    _assert_one_line_input_error(capsys, ["info", "--in", str(bad)])


def test_zero_denominator_coordinate_exits_2(capsys, tmp_path):
    bad = tmp_path / "zero.coords"
    bad.write_text("".join(f"{v} {v} 1/0 0\n" for v in range(1, 8)))
    _assert_one_line_input_error(
        capsys, ["realize", "--in", "csaszar-torus", "--coords", str(bad)])


_TORUS = catalog.entry("csaszar-torus")
_BASES = {  # a valid file of each kind, to mutate
    "tri": write(_TORUS.load()),
    "coords": "".join(f"{v} {p[0]} {p[1]} {p[2]}\n"
                      for v, p in sorted(_TORUS.load_coordinates().items())),
    "trace": write_trace(random_walk(_TORUS.load(), seed=5, steps=8)[1]),
}
_PARSERS = {"tri": parse, "coords": parse_coords, "trace": parse_trace}
_TOKENS = st.sampled_from(
    ["", "0", "1", "2", "7", "8", "12", "-1", "+2", "a", "z", "1/2", "1/0",
     "0.5", "1e5", "1_0", "->", ":", "3:", "#", "\u00b3", "\u0663", "\x00",
     "\xe9"])


@pytest.mark.parametrize("edit", [
    lambda text: text + "1 1 1 1\n",  # vertex 1 again
    lambda text: text.replace("7 0 0 15", "7 0 0 1_5"),
], ids=["repeated-vertex", "underscore"])
def test_repeated_vertex_or_underscore_coordinate_exits_2(capsys, tmp_path,
                                                           edit):
    bad = tmp_path / "bad.coords"
    bad.write_text(edit(_BASES["coords"]))
    _assert_one_line_input_error(
        capsys, ["realize", "--in", "csaszar-torus", "--coords", str(bad)])


@st.composite
def _fuzzed_file(draw, kind):
    """A valid file with a few tokens replaced or inserted, maybe truncated,
    or arbitrary text."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=60))
    lines = [line.split() for line in _BASES[kind].splitlines()]
    for _ in range(draw(st.integers(0, 3))):
        toks = lines[draw(st.integers(0, len(lines) - 1))]
        at = draw(st.integers(0, len(toks)))
        if at < len(toks) and draw(st.booleans()):
            toks[at] = draw(_TOKENS)
        else:
            toks.insert(at, draw(_TOKENS))
    if draw(st.booleans()):
        lines = lines[:draw(st.integers(1, len(lines)))]
    return "".join(" ".join(toks) + "\n" for toks in lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["tri", "coords", "trace"]))
def test_cli_survives_fuzzed_files(fuzz_dir, data, kind):
    text = data.draw(_fuzzed_file(kind))
    path = fuzz_dir / f"fuzz.{kind}"
    path.write_text(text, encoding="utf-8")
    argv = {"tri": ["info", "--in", str(path)],
            "coords": ["realize", "--in", "csaszar-torus", "--coords", str(path)],
            "trace": ["replay", "--in", "csaszar-torus", "--trace", str(path)]}
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv[kind])  # any exception escaping main fails the test
    try:
        _PARSERS[kind](path.read_bytes().decode("ascii"))
        rejected = False
    except (UnicodeDecodeError, WorkbenchError):
        rejected = True
    if rejected:
        assert rc == 2
    assert rc in (0, 1, 2)
    if rc == 2:
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


@pytest.mark.parametrize("digits", [13, 4001])
def test_replay_inserts_a_huge_label(capsys, tmp_path, digits):
    # the flip engine gives each vertex a bit of its own, never 1 << label
    big = "9" * digits
    face = " ".join(map(str, _TORUS.load().facets[0]))
    path = tmp_path / "big.trace"
    path.write_text(f"0: {face} -> {big}\n2: {big} -> {face}\n")
    assert main(["replay", "--in", "csaszar-torus", "--trace", str(path)]) == 0
    assert "f = (7, 21, 14)" in capsys.readouterr().out


def test_replay_of_a_huge_non_vertex_exits_2(capsys, tmp_path):
    path = tmp_path / "big.trace"
    path.write_text("1: 1 12345678901234 -> 2 3\n")
    assert main(["replay", "--in", "csaszar-torus", "--trace", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "is not a face" in err and "Traceback" not in err


def test_replay_of_a_move_whose_link_is_no_simplex_boundary_exits_2(
        capsys, tmp_path):
    path = tmp_path / "bad.trace"
    path.write_text("2: 1 -> 2 3 4\n")
    assert main(["replay", "--in", "csaszar-torus", "--trace", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: link of (1,) is not the boundary of a simplex\n")


def test_verify_catalog(capsys):
    assert main(["verify", "catalog"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_catalog_dir_override(tmp_path, monkeypatch, complexes):
    import shutil
    from importlib import resources
    src = resources.files("mwb.data")
    for name in ("csaszar-torus.tri",):
        shutil.copy(str(src / name), tmp_path / name)
    monkeypatch.setenv("MW_CATALOG_DIR", str(tmp_path))
    from mwb import catalog
    assert catalog.entry("csaszar-torus").load() == complexes["csaszar-torus"]


# --- constructions written to files, det, replay --out, hints, catalog -----

@pytest.fixture()
def circle_and_sphere(tmp_path):
    from mwb.constructions import boundary_simplex
    paths = {"circle": tmp_path / "s1.tri", "sphere": tmp_path / "s2.tri"}
    save(paths["circle"], boundary_simplex(1))
    save(paths["sphere"], boundary_simplex(2))
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv, build", [
    (["product", "--in", "circle", "--in2", "circle"],
     lambda c: cons.product(c["circle"], c["circle"])),
    (["join", "--in", "circle", "--in2", "sphere"],
     lambda c: cons.join(c["circle"], c["sphere"])),
    (["sum", "--in", "sphere", "--in2", "sphere", "--facet", "1,2,4",
      "--facet2", "2 3 4"],
     lambda c: cons.connected_sum(c["sphere"], (1, 2, 4),
                                  c["sphere"], (2, 3, 4))),
    (["sum", "--in", "sphere", "--in2", "sphere"],
     lambda c: cons.connected_sum(c["sphere"], (1, 2, 3),
                                  c["sphere"], (1, 2, 3))),
    (["stack", "--in", "sphere", "--facet", "2,3,4"],
     lambda c: cons.stack(c["sphere"], (2, 3, 4))),
    (["stack", "--in", "sphere"],
     lambda c: cons.stack(c["sphere"], (1, 2, 3))),
])
def test_construct_writes_the_built_complex(capsys, tmp_path,
                                            circle_and_sphere, argv, build):
    paths = circle_and_sphere
    argv = [paths.get(a, a) for a in argv]
    out = str(tmp_path / "out.tri")
    assert main(["construct", *argv, "--out", out]) == 0
    C = build({name: load(path) for name, path in paths.items()})
    assert load(out) == C
    from mwb.core import f_vector
    assert capsys.readouterr().out == \
        f"constructed dim={C.dim} n={C.n} f={f_vector(C).counts}\n"


def test_det_without_links(capsys):
    from mwb.iso import as_determinant
    assert main(["det", "--in", "csaszar-torus"]) == 0
    expected = as_determinant(catalog.entry("csaszar-torus").load())
    assert capsys.readouterr().out == f"{expected}\n"


def test_replay_writes_the_result(capsys, tmp_path, complexes):
    C = complexes["csaszar-torus"]
    result, trace = random_walk(C, seed=7, steps=30)
    path = tmp_path / "walk.trace"
    path.write_text(write_trace(trace))
    out = str(tmp_path / "out.tri")
    assert main(["replay", "--in", "csaszar-torus", "--trace", str(path),
                 "--out", out]) == 0
    assert load(out) == result


def test_verify_manifold_of_two_spheres_on_a_vertex_exits_1(capsys, tmp_path):
    path = tmp_path / "wedge.tri"
    path.write_text("2 7\n1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
                    "1 5 6\n1 5 7\n1 6 7\n5 6 7\n")
    assert main(["verify", "manifold", "--in", str(path)]) == 1
    assert capsys.readouterr().out.startswith("no: ")


@pytest.mark.parametrize("hint", ["simply-connected", "sphere",
                                  "is_sphere=yes", "is-sphere=1"])
def test_sphere_hints_are_accepted(capsys, tmp_path, hint):
    sphere = str(tmp_path / "s3.tri")
    assert main(["construct", "boundary", "--dim", "3", "--out", sphere]) == 0
    capsys.readouterr()
    assert main(["bounds", "--in", sphere, "--hint", hint]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "lbt" in out


@pytest.mark.parametrize("hint", ["bogus=1", "bogus"])
def test_unknown_hint_exits_2(capsys, hint):
    _assert_one_line_input_error(
        capsys, ["bounds", "--in", "RP3-11", "--hint", hint])


def _catalog_copy(tmp_path, monkeypatch):
    """Copy the bundled catalog files to tmp_path and load them from there;
    returns the path of the copied csaszar-torus.tri."""
    from importlib import resources
    data = resources.files("mwb.data")
    for e in catalog.catalog():
        base = e.filename.rsplit(".", 1)[0]
        for name in (e.filename, base + ".coords"):
            if data.joinpath(name).is_file():
                (tmp_path / name).write_text(data.joinpath(name).read_text())
    monkeypatch.setenv("MW_CATALOG_DIR", str(tmp_path))
    return tmp_path / "csaszar-torus.tri"


def test_verify_catalog_reports_a_corrupted_entry(capsys, tmp_path,
                                                  monkeypatch):
    # csaszar-torus with the labels 6 and 7 swapped: the same torus, no
    # longer drawn without self-intersections by its coordinates
    path = _catalog_copy(tmp_path, monkeypatch)
    head, header, facets = path.read_text().partition("2 7\n")
    path.write_text(head + header + facets.translate(str.maketrans("67", "76")))
    assert main(["verify", "catalog"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("FAIL csaszar-torus: realization: triangles (1, 3, 6) "
                        "and (1, 4, 5) overlap beyond their shared vertex 1")
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines[1:])


def test_verify_catalog_fails_an_entry_that_is_no_pseudomanifold(
        capsys, tmp_path, monkeypatch):
    # the triangles (1, 2, 3) and (1, 2, 4) of csaszar-torus replaced by
    # (1, 3, 4) and (2, 3, 4): the edge 3-4 then lies in four triangles, so
    # the entry fails, and no later check may abort the whole command
    path = _catalog_copy(tmp_path, monkeypatch)
    text = path.read_text()
    assert "\n1 2 3\n1 2 4\n" in text
    path.write_text(text.replace("\n1 2 3\n1 2 4\n", "\n1 3 4\n2 3 4\n"))
    assert main(["verify", "catalog"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "FAIL csaszar-torus: f-vector (7, 20, 14) != (7, 21, 14); chi 1 != 0; "
        "homology (Z, Z, Z) != (Z, Z^2, Z); not a pseudomanifold; "
        "not 2-neighborly")
    assert len(lines) == 7
    assert all(line.startswith("PASS ") for line in lines[1:])


@pytest.mark.parametrize("name, field, value, detail", [
    ("csaszar-torus", "genus", 2, "genus 1 != 2"),
    ("csaszar-torus", "orientable", False, "orientability mismatch"),
    ("S3xS2-a-12", "expected_as_determinant", 1,
     "AS determinant 4471184572226676864"),
    ("RP3-11", "expected_link_determinants", {0: 11},
     "link determinants {41616: 6, 12096: 4, 0: 1}"),
    ("RP3-11", "expected_automorphism_order", 24, "automorphism order 48"),
], ids=["genus", "orientability", "as-determinant", "link-determinants",
        "automorphism-order"])
def test_verify_catalog_fails_an_entry_with_a_wrong_expected_value(
        capsys, monkeypatch, name, field, value, detail):
    wrong = tuple(dataclasses.replace(e, **{field: value}) if e.name == name
                  else e for e in catalog.ENTRIES)
    monkeypatch.setattr(catalog, "ENTRIES", wrong)
    assert main(["verify", "catalog"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    assert [line for line in lines if not line.startswith("PASS ")] == [
        f"FAIL {name}: {detail}"]


def test_sum_of_different_dimensions_exits_2(capsys, tmp_path):
    cycle = tmp_path / "cycle.tri"
    cycle.write_text("1 3\n1 2\n2 3\n1 3\n")
    argv = ["construct", "sum", "--in", str(cycle), "--in2", "RP3-11"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: the summands have dimensions 1 and 3\n")
