import ast
import json
import os
import subprocess
import sys

import pytest

import tropgw
from tropgw import ch, templates
from tropgw.cli import main
from tropgw.gw import ONE, GWElement, render


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_cli_process(*argv):
    """Run the CLI in a fresh interpreter, so no memo carries over."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tropgw.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "TROPGW_CACHE"}
    env["PYTHONPATH"] = src
    return subprocess.run(
        [sys.executable, "-m", "tropgw.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def modules_added(code: str) -> set[str]:
    """The modules that ``code`` imports in a fresh interpreter, beyond those
    loaded before it runs (``site`` may already load some)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(tropgw.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "TROPGW_CACHE"}
    env["PYTHONPATH"] = src
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_layer():
    added = modules_added("import tropgw")
    assert "tropgw" in added
    assert not {name for name in added if name.startswith("tropgw.")}


@pytest.mark.parametrize(
    "argv, loaded, not_loaded",
    [
        ("count --method ch --d 3 --g 0", {"tropgw.ch", "tropgw.gw"},
         {"tropgw.floors", "tropgw.paths", "tropgw.lattice", "tropgw.templates",
          "tropgw.curves", "dataclasses"}),
        ("count --method floor --d 3 --g 0", {"tropgw.floors"},
         {"tropgw.paths", "tropgw.templates", "tropgw.curves"}),
        ("count --method latticepath --d 3 --g 0", {"tropgw.paths", "tropgw.lattice"},
         {"tropgw.floors", "tropgw.templates", "tropgw.curves"}),
        ("nodepoly --delta 1", {"tropgw.templates", "tropgw.floors"},
         {"tropgw.paths", "tropgw.lattice", "tropgw.curves"}),
    ],
)
def test_a_command_imports_only_the_layers_it_runs(argv, loaded, not_loaded):
    # an import that creeps back into the start-up path fails here, where a
    # wall-time benchmark would only get noisier
    added = modules_added(f"from tropgw.cli import main\nmain({argv.split()!r})")
    assert loaded <= added
    assert not added & not_loaded, sorted(added & not_loaded)

def test_count_ch_plain(capsys):
    code, out = run_cli(capsys, "count", "--method", "ch", "--d", "3", "--g", "0")
    assert code == 0
    assert out.strip() == "2ℍ + 8⟨1⟩ (rank 12, signature 8)"


def test_count_latticepath(capsys):
    for tie_break in ([], ["--tie-break", "yasc"]):
        code, out = run_cli(
            capsys, "count", "--method", "latticepath", "--d", "3", "--g", "1",
            *tie_break,
        )
        assert code == 0
        assert out.strip() == "⟨1⟩ (rank 1, signature 1)"


def test_count_floor_hirzebruch(capsys):
    code, out = run_cli(
        capsys,
        "count", "--method", "floor", "--k", "1", "--a", "2", "--wl", "1,1",
        "--g", "0",
    )
    assert code == 0
    assert out.strip() == "⟨1⟩ (rank 1, signature 1)"


def test_count_methods_agree_when_the_left_side_closes(capsys):
    # k = -1, a = 2, two right ends: the trapezoid is the triangle
    # (0,0), (2,0), (2,2), and the count is ch_count(2, -1) = 3<1>
    for method in ("latticepath", "floor"):
        code, out = run_cli(
            capsys, "count", "--method", method, "--k", "-1", "--a", "2",
            "--wr", "1,1", "--g", "-1",
        )
        assert code == 0
        assert out == "3⟨1⟩ (rank 3, signature 3)\n", method
    assert ch.ch_count(2, -1).rank == 3


def test_count_floor_connected_with_right_ends(capsys):
    code, out = run_cli(
        capsys, "count", "--method", "floor", "--k", "1", "--a", "2", "--wl", "2,1,1",
        "--wr", "1,1", "--g", "0", "--connected",
    )
    assert code == 0
    assert out == "192ℍ (rank 384, signature 0)\n"


def test_count_json_round_trip(capsys):
    # classes are sorted by (|rep|, sign) and decode to the count itself
    for beta, classes in (
        (None, [{"rep": 1, "mult": 10}, {"rep": -1, "mult": 2}]),
        ((0, 0, 1), [{"rep": 1, "mult": 9}, {"rep": -1, "mult": 9}, {"rep": 3, "mult": 3}]),
    ):
        flags = ["--beta", ",".join(map(str, beta))] if beta else []
        code, out = run_cli(
            capsys,
            "count", "--method", "ch", "--d", "3", "--g", "0", *flags, "--format", "json",
        )
        assert code == 0
        [row] = json.loads(out)
        value = ch.ch_count(3, 0, beta=beta)
        assert (row["rank"], row["signature"]) == (value.rank, value.signature)
        assert row["classes"] == classes
        assert GWElement.from_dict({c["rep"]: c["mult"] for c in row["classes"]}) == value
        assert row["display"] == render(value)


def test_count_csv(capsys):
    code, out = run_cli(
        capsys,
        "count", "--method", "ch", "--d", "3", "--g", "0", "--format", "csv",
    )
    lines = out.strip().splitlines()
    assert lines[0] == "d,g_or_delta,method,rank,signature,display"
    assert lines[1].startswith("3,0,ch,12,8,")


def test_count_rejects_weighted_latticepath(capsys):
    with pytest.raises(SystemExit):
        main(
            [
                "count", "--method", "latticepath", "--k", "1", "--a", "2",
                "--wl", "3,1", "--g", "0",
            ]
        )


def assert_argument_error(capsys, argv, message):
    # as ``python -m tropgw.cli`` exits: argparse and the CLI's own checks
    # raise SystemExit(2), and main returns 2 on a layer's ValueError
    with pytest.raises(SystemExit) as exit_info:
        sys.exit(main(argv))
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        # flags the chosen method or degree would silently ignore
        ("--method ch --d 4 --g 0 --connected",
         "--connected is only supported by --method floor"),
        ("--method latticepath --d 3 --g 0 --connected",
         "--connected is only supported by --method floor"),
        ("--method floor --d 3 --g 0 --alpha 1",
         "--alpha/--beta are only supported by --method ch"),
        ("--method floor --k 1 --a 2 --wl 1,1 --g 0 --beta 1",
         "--alpha/--beta are only supported by --method ch"),
        ("--method floor --d 3 --g 0 --wl 1,1,1",
         "--wl/--wr need the --k/--a Hirzebruch data, not --d"),
        ("--method ch --d 3 --g 0 --wr 1",
         "--wl/--wr need the --k/--a Hirzebruch data, not --d"),
        ("--method latticepath --d 3 --g 0 --wl 1,1,1",
         "--wl/--wr need the --k/--a Hirzebruch data, not --d"),
        ("--method ch --d 3 --g 0 --tie-break yasc",
         "--tie-break is only supported by --method latticepath"),
        ("--method floor --d 3 --g 0 --tie-break ydesc",
         "--tie-break is only supported by --method latticepath"),
        # the other argument errors
        ("--method ch --d 3 --k 1 --g 0",
         "give either --d or the --k/--a Hirzebruch data"),
        ("--method ch --g 0", "--method ch needs --d"),
        ("--method floor --k 1 --g 0", "--method floor needs --d or both --k and --a"),
        ("--method floor --a 2 --g 0", "--method floor needs --d or both --k and --a"),
        # no Hirzebruch data is filled in for the lattice path method either
        ("--method latticepath --k 2 --g 0",
         "--method latticepath needs --d or both --k and --a"),
        ("--method latticepath --a 2 --g 0",
         "--method latticepath needs --d or both --k and --a"),
        ("--method latticepath --g 0",
         "--method latticepath needs --d or both --k and --a"),
        ("--method latticepath --k 1 --a 2 --wl 3,1 --g 0",
         "the lattice path method only supports weight-1 ends; "
         "use --method floor for higher weights"),
        ("--method latticepath --k 1 --a 2 --wl 1 --g 0",
         "--wl needs a*k + len(--wr) = 2 weights, not 1"),
        ("--method latticepath --k 1 --a 2 --wl 1,1,1,1 --g 0",
         "--wl needs a*k + len(--wr) = 2 weights, not 4"),
        # weight lists that do not parse
        ("--method floor --k 1 --a 2 --wl a,1 --wr 1 --g 0",
         "--wl 'a,1' is not a comma separated list of integers"),
        ("--method floor --k 1 --a 2 --wl 1,1,1 --wr 1.5 --g 0",
         "--wr '1.5' is not a comma separated list of integers"),
        ("--method latticepath --k 1 --a 2 --wl 1,,1 --g 0",
         "--wl '1,,1' is not a comma separated list of integers"),
        ("--method ch --d 3 --g 0 --alpha x",
         "--alpha 'x' is not a comma separated list of integers"),
        ("--method ch --d 3 --g 0 --beta 3,",
         "--beta '3,' is not a comma separated list of integers"),
        # negative weights reach the layers' own checks, with or without "="
        ("--method floor --k 1 --a 2 --wl -1,3 --g 0", "end weights must be positive"),
        ("--method floor --k 1 --a 2 --wl=-1,3 --g 0", "end weights must be positive"),
        ("--method floor --k 1 --a 2 --wl 3,1 --wr -1,3 --g 0",
         "end weights must be positive"),
        ("--method ch --d 3 --g 0 --alpha -1,2", "sequence entries must be nonnegative"),
        ("--method ch --d 3 --g 0 --beta -1,2", "sequence entries must be nonnegative"),
    ],
)
def test_count_argument_errors_exit_2(capsys, argv, message):
    assert_argument_error(capsys, ["count", *argv.split()], message)


@pytest.mark.parametrize("empty", [["--beta", ""], ["--beta="]])
def test_empty_beta_is_no_free_end(capsys, empty):
    # beta = () is a sequence like any other, not the default (d)
    code, out = run_cli(
        capsys, "count", "--method", "ch", "--d", "3", "--g", "0", "--alpha", "3", *empty
    )
    assert code == 0
    assert out == "2ℍ + 6⟨1⟩ (rank 10, signature 6)\n"
    value = ch.ch_count(3, 0, (3,), ())
    assert out == f"{render(value)} (rank {value.rank}, signature {value.signature})\n"
    assert_argument_error(
        capsys, ["count", "--method", "ch", "--d", "3", "--g", "0", *empty],
        "I(alpha) + I(beta) = 0 != d = 3",
    )
    assert_argument_error(
        capsys, ["count", "--method", "floor", "--d", "3", "--g", "0", *empty],
        "--alpha/--beta are only supported by --method ch",
    )


def test_count_connected_with_recursion_is_an_error():
    # the recursion counts disconnected curves too (rank 675, not 620)
    proc = run_cli_process(
        "count", "--method", "ch", "--d", "4", "--g", "0", "--connected"
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: --connected is only supported by --method floor\n"


@pytest.mark.parametrize("argv", [
    "count --method ch --d 1100 --g 0",
    "count --method latticepath --d 45 --g 900",
])
def test_count_deeper_than_the_recursion_limit_is_an_error(argv):
    proc = run_cli_process(*argv.split())
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: this count needs a deeper recursion than Python allows\n"
    )


def test_count_invalid_genus_exits_nonzero(capsys):
    code = main(["count", "--method", "latticepath", "--d", "2", "--g", "5"])
    assert code == 2


def test_crosscheck(capsys):
    code, out = run_cli(capsys, "crosscheck", "--dmax", "3")
    assert code == 0
    assert "d=3 g=0: 2ℍ + 8⟨1⟩ [PASS]" in out
    assert "result: PASS" in out
    code, out = run_cli(capsys, "crosscheck", "--dmax", "2", "--gmin", "-4")
    assert code == 0
    assert "d=2 g=-4: " in out and "result: PASS" in out


def test_crosscheck_failure_shows_every_method(capsys, monkeypatch):
    monkeypatch.setattr(ch, "ch_count", lambda d, g: 3 * ONE)
    code, out = run_cli(capsys, "crosscheck", "--dmax", "3")
    assert code == 1
    assert "d=3 g=0: 2ℍ + 8⟨1⟩ [FAIL]" in out
    assert "  latticepath: 2ℍ + 8⟨1⟩ (rank 12, signature 8)\n" in out
    assert (
        "  ch: 3⟨1⟩ (rank 3, signature 3; vs latticepath: rank -9, signature -5)\n"
    ) in out
    assert (
        "  floor: 2ℍ + 8⟨1⟩ (rank 12, signature 8; vs latticepath: rank 0, signature 0)\n"
    ) in out
    assert (
        "  latticepath-flip: 2ℍ + 8⟨1⟩ "
        "(rank 12, signature 8; vs latticepath: rank 0, signature 0)\n"
    ) in out


@pytest.mark.parametrize("argv", [
    ("crosscheck", "--dmax", "1"),
    ("crosscheck", "--dmax", "3", "--gmin", "2"),
    ("wallcheck", "--trials", "0"),
    ("wallcheck", "--trials", "-1"),
    ("crosscheck", "--dmax", "2", "--gmin", "-5"),
])
def test_empty_checks_are_errors(argv):
    # a check that compares nothing must not report a pass
    proc = run_cli_process(*argv)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
    assert " ".join(argv[-2:]) in proc.stderr


def test_crosscheck_csv(capsys):
    code, out = run_cli(capsys, "crosscheck", "--dmax", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,g_or_delta,method,rank,signature,display"
    assert any(line.startswith("2,0,latticepath,1,1,") for line in lines)


def test_nodepoly(capsys):
    code, out = run_cli(capsys, "nodepoly", "--delta", "1")
    assert code == 0
    assert "P = d^2 - 3d + 2" in out
    assert "Q = d^2 - 1" in out
    code, out = run_cli(capsys, "nodepoly", "--delta", "0")
    assert "P = 0" in out and "Q = 1" in out
    assert main(["nodepoly", "--delta", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_nodepoly_csv_rows_are_template_counts(capsys):
    code, out = run_cli(capsys, "nodepoly", "--delta", "2", "--format", "csv")
    assert code == 0
    header, *rows = out.strip().split("\n")
    assert header == "d,g_or_delta,method,rank,signature,display"
    # the fit samples degrees 1 .. 3*delta + 1 + holdout
    assert len(rows) == 9
    for d, row in enumerate(rows, 1):
        value = templates.severi_by_templates(d, 2)
        assert row == f"{d},2,templates,{value.rank},{value.signature},{render(value)}"


def test_nodepoly_delta_five_within_default_budget():
    proc = run_cli_process("nodepoly", "--delta", "5", "--format", "json")
    assert proc.returncode == 0, proc.stderr
    fit = templates.fit_node_polynomial(5)
    out = json.loads(proc.stdout)
    assert out["hyperbolic"] == [str(c) for c in fit.hyperbolic_coeffs]
    assert out["unit"] == [str(c) for c in fit.unit_coeffs]
    assert out["threshold"] == fit.threshold


def test_nodepoly_negative_holdout_is_an_error():
    proc = run_cli_process("nodepoly", "--delta", "1", "--holdout", "-1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_wallcheck(capsys):
    code, out = run_cli(capsys, "wallcheck", "--trials", "40", "--seed", "3")
    assert code == 0
    assert "failures: 0" in out


def test_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "memo.json"
    code, _ = run_cli(
        capsys,
        "--cache", str(cache),
        "count", "--method", "ch", "--d", "3", "--g", "0",
    )
    assert code == 0 and cache.exists()
    data = json.loads(cache.read_text())
    assert data["version"] == 3
    # genera -2 .. 1 of the plane cubics; genus 0 is 2H + 8<1>
    assert data["entries"]["3::3"] == [-2, [15, 21, 12, 1], [15, 21, 8, 1]]
    # reload through the cache and recompute
    code, out = run_cli(
        capsys,
        "--cache", str(cache),
        "count", "--method", "ch", "--d", "3", "--g", "0",
    )
    assert code == 0 and "rank 12" in out


def count_cubics_with_cache(cache):
    proc = run_cli_process(
        "--cache", str(cache), "count", "--method", "ch", "--d", "3", "--g", "0"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2ℍ + 8⟨1⟩ (rank 12, signature 8)"
    assert "Traceback" not in proc.stderr
    rewritten = json.loads(cache.read_text())
    assert rewritten["version"] == 3
    assert rewritten["entries"]["3::3"] == [-2, [15, 21, 12, 1], [15, 21, 8, 1]]
    return proc.stderr


def test_warm_query_leaves_the_cache_file_alone(tmp_path):
    cache = tmp_path / "memo.json"
    count_cubics_with_cache(cache)
    before = os.stat(cache)
    assert count_cubics_with_cache(cache) == ""
    after = os.stat(cache)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


def test_corrupt_cache_is_ignored_and_rewritten(tmp_path):
    cache = tmp_path / "memo.json"
    cache.write_text('{"version": 3, "entries": {"3::3": [-2, [1')
    stderr = count_cubics_with_cache(cache)
    assert stderr.count("warning:") == 1 and "unreadable" in stderr


def test_deeply_nested_cache_is_ignored_and_rewritten(tmp_path):
    # the JSON decoder recurses once per nesting level
    cache = tmp_path / "memo.json"
    cache.write_text("[" * 100000 + "]" * 100000)
    stderr = count_cubics_with_cache(cache)
    assert stderr.count("warning:") == 1 and "unreadable" in stderr


def test_parent_format_cache_is_ignored_and_rewritten(tmp_path):
    cache = tmp_path / "memo.json"
    old = {"version": 2, "entries": {"3:0::3": [12, 8]}}  # one pair per genus
    cache.write_text(json.dumps(old))
    stderr = count_cubics_with_cache(cache)
    assert stderr.count("warning:") == 1 and "version 3" in stderr


def test_invalid_cache_entries_are_dropped(tmp_path):
    cache = tmp_path / "memo.json"
    entries = {
        "3::3": [-2, [15, 21, 13, 1], [15, 21, 8, 1]],  # rank, signature of unequal parity
        "3:1:2": [-2, [12, 20, 2, 1], [12, 20, 4, 1]],  # |signature| > rank
        "3:2:1": [-2, [12, 20, 12], [12, 20, 8, 1]],  # ragged
        "3:3:": [-2, [6, 12, 10, 1, 1], [6, 12, 6, 1, 1]],  # reaches genus 2 > max_genus(3)
        "2:2:": [-4, [0, 2, 1], [0, 2, 1]],  # reaches genus -4 < 1 - 2d - |beta|
        "2::2": [-1, [3, 1], [3, 1]],
    }
    cache.write_text(json.dumps({"version": 3, "entries": entries}))
    stderr = count_cubics_with_cache(cache)
    assert stderr.count("warning:") == 1 and "dropped 5 invalid entries" in stderr
    assert json.loads(cache.read_text())["entries"]["2::2"] == [-1, [3, 1], [3, 1]]


def test_unreachable_cache_keys_are_dropped(tmp_path):
    cache = tmp_path / "memo.json"
    unreachable = {
        "3:1,0:2": [0, [1], [1]],  # trailing zero
        "3:-1:4": [0, [1], [1]],  # negative entry
        "0::": [0, [1], [1]],  # degree below 1
        "4:5:": [0, [1], [1]],  # I(alpha) + I(beta) = 5 != 4
    }
    cache.write_text(json.dumps({"version": 3, "entries": unreachable}))
    stderr = count_cubics_with_cache(cache)
    assert stderr.count("warning:") == 1 and "dropped 4 invalid entries" in stderr
    assert not set(unreachable) & set(json.loads(cache.read_text())["entries"])


def test_warm_queries_at_other_genera_leave_the_cache_file_alone(tmp_path):
    # one entry holds every genus, so the sextic fill answers other genera,
    # and the quintic counts it passed through
    cache = tmp_path / "memo.json"
    fill = run_cli_process(
        "--cache", str(cache), "count", "--method", "ch", "--d", "6", "--g", "0"
    )
    assert fill.returncode == 0, fill.stderr
    before = os.stat(cache)
    for d, g in (("6", "3"), ("5", "-1")):
        query = ("count", "--method", "ch", "--d", d, "--g", g)
        proc = run_cli_process("--cache", str(cache), *query)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == run_cli_process(*query).stdout
    after = os.stat(cache)
    assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)


@pytest.mark.parametrize("method", ["floor", "latticepath"])
def test_floor_count_without_floors_is_an_error(method):
    proc = run_cli_process(
        "count", "--method", method, "--k", "1", "--a", "0", "--wl", "1", "--wr", "1",
        "--g", "0",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def assert_cache_write_fails(cache):
    proc = run_cli_process(
        "--cache", str(cache), "count", "--method", "ch", "--d", "3", "--g", "0"
    )
    assert proc.returncode == 2
    assert f"error: cannot write cache {cache}" in proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


def test_cache_in_missing_directory_is_an_error(tmp_path):
    assert_cache_write_fails(tmp_path / "missing" / "memo.json")
    assert list(tmp_path.iterdir()) == []


def test_cache_that_is_a_directory_is_an_error(tmp_path):
    cache = tmp_path / "memo"
    cache.mkdir()
    proc = assert_cache_write_fails(cache)
    # rejected before the count runs: no warning, no result
    assert proc.stderr == f"error: cannot write cache {cache}: Is a directory\n"
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["memo"]
    assert list(cache.iterdir()) == []
